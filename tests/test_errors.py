import ast
import inspect
from pathlib import Path

import cyclefactor
from cyclefactor import errors

PACKAGE = Path(cyclefactor.__file__).parent


def test_every_error_class_is_raised_in_the_package():
    # An exception class no code constructs is an outcome no caller can
    # meet; the base class is only caught, never raised itself.
    classes = {
        name for name, obj in vars(errors).items()
        if inspect.isclass(obj) and issubclass(obj, Exception) and obj.__module__ == errors.__name__
    }
    called = set()
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call):
                func = node.func
                called.add(func.id if isinstance(func, ast.Name) else getattr(func, "attr", None))
    assert classes - {"CycleFactorError"} <= called, classes - called
    assert classes == {
        "CycleFactorError", "GraphError", "ParseError",
        "BadParameters", "SizeLimitExceeded", "StepBudgetExhausted",
    }
