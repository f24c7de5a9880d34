"""The benchmark's decomposition of each subcommand into package calls.

``perfbench/worker.py`` imports ``perfbench/decompose.py`` in every run
mode, so a package name it imports that is renamed or deleted crashes
every benchmark worker while the rest of the suite stays green. These
tests load that file against this checkout and replay a few ops both ways.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

from cyclefactor.cli import main

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def harness(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave perfbench/ as checked out
    had_workloads = "workloads" in sys.modules
    spec = importlib.util.spec_from_file_location("decompose", PERFBENCH / "decompose.py")
    decompose = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(decompose)
    yield decompose, sys.modules["workloads"]
    if not had_workloads:
        sys.modules.pop("workloads", None)


def test_decompose_imports_against_package(harness):
    decompose, _ = harness
    assert set(decompose.OPS) == {"cyclefactor", "pathfactor", "tour", "verify", "gen"}


@pytest.mark.parametrize("op", [
    {"cmd": "verify", "family": "complete_loops", "n": 4, "d": 2},
    {"cmd": "cyclefactor", "family": "perm_union", "n": 8, "d": 3},
    {"cmd": "pathfactor", "family": "cycle", "n": 12, "d": 2,
     "backend": "mcmc", "mcmc_steps": 24, "samples": 2},
    {"cmd": "tour", "family": "clique_union", "n": 8, "d": 3, "backend": "exact"},
    {"cmd": "gen", "family": "random", "n": 12, "d": 3, "flags": ["--no-loops"]},
], ids=lambda op: op["cmd"])
def test_decomposed_op_matches_cli(harness, tmp_path, capsys, op):
    decompose, workloads = harness
    inst = None
    if op["cmd"] != "gen":
        inst = workloads._instance(op, 5, tmp_path / "g")
    out = tmp_path / "cli.out"
    code = main(workloads.op_argv(op, inst, 11, str(out)))
    capsys.readouterr()
    cli_result = (code, None, out.read_text() if out.exists() else None)
    d_code, d_err, d_text, _ = decompose.run(
        decompose.Tracer(False), op, inst, 11, str(tmp_path / "decomposed.out"))
    assert (d_code, d_err, d_text) == cli_result
