import ast
import sys
from pathlib import Path

import cyclefactor

PACKAGE = Path(cyclefactor.__file__).parent


def test_package_imports_only_the_standard_library():
    # pyproject.toml declares no runtime dependency; every import in the
    # package, top-level or inside a function, must keep that true.
    foreign = set()
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.partition(".")[0]
                if top not in sys.stdlib_module_names and top != "cyclefactor":
                    foreign.add(f"{path.name}: {name}")
    assert not foreign, sorted(foreign)
