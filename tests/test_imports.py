import ast
import importlib
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import cyclefactor
from cyclefactor.cli import main
from cyclefactor.graphs import FAMILIES, Record, gen_family, write_graph
from cyclefactor.sampling import SamplerConfig

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


def test_cli_import_leaves_out_dataclasses_and_inspect():
    # Each CLI process pays for every module that importing the CLI loads;
    # dataclasses alone pulled in inspect, ast, dis and tokenize. -S keeps
    # any site hook from loading or hiding a module.
    code = "import sys, cyclefactor.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    out = subprocess.run([sys.executable, "-S", "-c", code], env=env,
                         capture_output=True, text=True, check=True).stdout
    assert out == "[]\n"


def test_parser_loads_no_shutil():
    # argparse's own help formatter imports shutil, and with it 11 modules,
    # to read the terminal width; the CLI's formatter reads it without
    # them, when the parser is built and when a usage error prints usage.
    code = """if True:
        import sys, cyclefactor.cli
        cyclefactor.cli.build_parser()
        built = "shutil" in sys.modules
        try:
            cyclefactor.cli.main(["gen"])
        except SystemExit as e:
            print(built, e.code, "shutil" in sys.modules)
    """
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    out = subprocess.run([sys.executable, "-S", "-c", code], env=env,
                         capture_output=True, text=True, check=True).stdout
    assert out == "False 2 False\n"


def test_each_subcommand_loads_what_it_runs(tmp_path):
    # Importing the CLI loads only what every subcommand needs; each
    # subcommand then loads its own modules, so gen compiles none of the
    # counting, sampling or transform code. Each subcommand runs in a child
    # forked from one process that has imported the CLI and nothing more.
    graph = tmp_path / "c6.graph"
    write_graph(gen_family("cycle", 6, 2), graph)
    argvs = [
        ["gen", "cycle", "--n", "6", "--d", "2", "--out", str(tmp_path / "gen.out")],
        ["verify", str(graph), "--out", str(tmp_path / "verify.out")],
        *([cmd, str(graph), "--seed", "1", "--out", str(tmp_path / f"{cmd}.out")]
          for cmd in ("cyclefactor", "tour")),
    ]
    code = f"""if True:
        import os, sys
        import cyclefactor.cli
        def show(stage):
            got = set(sys.modules)
            package = sorted(m.partition(".")[2] for m in got if m.startswith("cyclefactor."))
            print((stage, package, sorted(got & {{"hashlib", "json", "fractions", "decimal", "pathlib"}})))
            sys.stdout.flush()
        show("import")
        for argv in {argvs!r}:
            pid = os.fork()
            if pid == 0:
                status = cyclefactor.cli.main(argv)
                show(argv[0])
                os._exit(status)
            assert os.waitpid(pid, 0)[1] == 0, argv
    """
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    out = subprocess.run([sys.executable, "-S", "-c", code], env=env,
                         capture_output=True, text=True, check=True).stdout
    stages = {stage: (package, stdlib) for stage, package, stdlib in map(ast.literal_eval, out.splitlines())}
    base = ["cli", "errors", "graphs"]
    assert stages["import"] == (base, [])
    assert stages["gen"] == (base, [])
    assert stages["verify"][0] == sorted(base + ["entropy", "exact"])
    assert stages["cyclefactor"][0] == sorted(base + ["exact", "sampling"])
    assert "fractions" not in stages["cyclefactor"][1]
    assert stages["tour"][0] == sorted(base + ["exact", "sampling", "transforms"])


def _uses(tree, name):
    """The nodes of tree that name ``name``: a bare name, an attribute or
    an imported name."""
    return [
        node for node in ast.walk(tree)
        if name in (getattr(node, "id", None), getattr(node, "attr", None))
        or isinstance(node, ast.alias) and node.name == name
    ]


def test_one_transpose_builder():
    # A graph's transpose is built once, by the check that runs when the
    # graph is built, and every holder of a graph reads it as g.in_adj.
    # Only _frontier_order, which takes bare rows, builds one of its own.
    builders = {("graphs.py", "require_valid"), ("exact.py", "_frontier_order")}
    stray = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        allowed = {
            id(node)
            for func in ast.walk(tree)
            if isinstance(func, ast.FunctionDef) and (path.name, func.name) in builders
            for node in ast.walk(func)
        }
        stray += [
            f"{path.name}:{node.lineno} uses in_rows"
            for node in _uses(tree, "in_rows")
            if isinstance(node, (ast.Name, ast.Attribute)) and id(node) not in allowed
        ]
        if path.name in ("sampling.py", "exact.py"):
            stray += [
                f"{path.name}:{node.lineno} names UndirectedRegularGraph"
                for node in _uses(tree, "UndirectedRegularGraph")
            ]
    assert not stray, stray


def test_one_state_budget():
    # exact.MAX_STATES bounds a counting level, the exact sampler's table
    # and the census's two levels in hand. exact.py binds it once and binds
    # no other *MAX_STATES; no module imports it by value, so patching that
    # one name moves all three bounds.
    bound = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Store):
                names = [ast.unparse(node)]
            elif isinstance(node, ast.alias):
                names = [node.name, node.asname or ""]
            else:
                continue
            bound += [f"{path.name}: {name}" for name in names if name.endswith("MAX_STATES")]
    assert bound == ["exact.py: MAX_STATES"], bound


def test_one_record_constructor():
    # Record.__init__ sets every record's fields. The one other setter is
    # RegularDigraph.__init__'s in_adj, the transpose, which is no field; a
    # record that checks or defaults its fields passes them on to Record.
    allowed = {
        ("graphs.py", "Record", "__init__", "name"),
        ("graphs.py", "RegularDigraph", "__init__", "'in_adj'"),
    }
    stray = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        method = {}
        for cls in ast.walk(tree):
            if isinstance(cls, ast.ClassDef):
                for func in cls.body:
                    method.update((id(node), (cls.name, getattr(func, "name", None))) for node in ast.walk(func))
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and ast.unparse(node).startswith("object.__setattr__(self,"):
                where = (path.name, *method.get(id(node), (None, None)), ast.unparse(node.args[1]))
                if where not in allowed:
                    stray.append(f"{path.name}:{node.lineno} {ast.unparse(node)}")
    assert not stray, stray
    own_init = sorted({
        cls.__name__ for module in vars(cyclefactor).values() if inspect.ismodule(module)
        for cls in vars(module).values()
        if isinstance(cls, type) and issubclass(cls, Record) and "__init__" in vars(cls)
    })
    assert own_init == ["Record", "RegularDigraph", "SamplerConfig"]


def test_one_violation_scan():
    # verify_tour and verify_path_factor name their faults in one shared
    # scan, so each fault a tour and a path-factor can both have is
    # written once in the package.
    text = "".join(path.read_text(encoding="utf-8") for path in sorted(PACKAGE.glob("*.py")))
    names = ("IndexOutOfRange", "NonEdge", "UncoveredVertex")
    assert {name: text.count(name) for name in names} == dict.fromkeys(names, 1)


def test_one_family_list():
    # FAMILIES is stated once, beside gen_family; the CLI reads it from
    # there, so no other module holds a family's name.
    stray = [
        f"{path.name}:{node.lineno} {node.value!r}"
        for path in sorted(PACKAGE.glob("*.py")) if path.name != "graphs.py"
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Constant) and node.value in FAMILIES
    ]
    assert not stray, stray


def test_one_statement_of_the_api_init_reexports_nothing():
    # The modules' __all__ lists are the package's API; __init__.py keeps
    # no second, partial copy of it, so it imports nothing and binds only
    # __version__.
    docstring, *body = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8")).body
    assert isinstance(docstring, ast.Expr) and isinstance(docstring.value, ast.Constant)
    assert len(body) == 1 and isinstance(body[0], ast.Assign), [ast.unparse(node) for node in body]
    assert ast.unparse(body[0].targets) == "__version__"


def test_one_statement_of_the_api_all_lists_bound_names():
    # Every name a module lists in __all__ is bound there. The three helpers
    # that only the benchmark's decomposition calls are left out of it.
    listed = set()
    for path in sorted(PACKAGE.glob("[!_]*.py")):
        module = importlib.import_module(f"cyclefactor.{path.stem}")
        names = getattr(module, "__all__", ())
        unbound = [name for name in names if not hasattr(module, name)]
        assert not unbound, (path.name, unbound)
        listed.update(names)
    assert {"RegularDigraph", "cycle_law", "max_matching", "derive_seed"} <= listed
    assert not {"to_bipartite", "double_undirected", "to_undirected_cycle_factor"} & listed


@pytest.mark.parametrize("config", [{}, {"samples": 2}], ids=["empty", "samples"])
def test_bench_takes_the_sampler_defaults(tmp_path, monkeypatch, config):
    # bench restates none of SamplerConfig's defaults: under other defaults,
    # a manifest that leaves a setting out gets them.
    monkeypatch.setattr(SamplerConfig.__init__, "__defaults__", ("mcmc", None, 3, 7))
    manifest, out = tmp_path / "m.json", tmp_path / "r.ndjson"
    manifest.write_text(json.dumps({"config": config, "instances": [{"family": "cycle", "n": 6, "d": 2}]}))
    assert main(["bench", str(manifest), "--out", str(out)]) == 0
    (rec,) = map(json.loads, out.read_text().splitlines())
    cfg = SamplerConfig(**({"num_samples": 2} if config else {}))
    got = (rec["outputs"]["backend"], len(rec["outputs"]["cycle_counts"]), rec["seed"])
    assert got == (cfg.resolve_backend(6), cfg.resolve_num_samples(6), cfg.seed)
    assert got[0] == "mcmc" and got[2] == 7
