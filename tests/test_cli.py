import argparse
import json
from pathlib import Path

import pytest

from cyclefactor import cli, exact
from cyclefactor.cli import main
from cyclefactor.graphs import (
    CycleFactor,
    RegularDigraph,
    gen_family,
    gen_random_regular_digraph,
    read_graph,
    to_bipartite,
    write_graph,
)
from cyclefactor.sampling import hopcroft_karp
from cyclefactor.transforms import CheckReport


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestGen:
    def test_complete_loops(self, tmp_path, capsys):
        out = tmp_path / "g.digraph"
        code, _, _ = run(capsys, "gen", "complete_loops", "--n", 4, "--d", 4, "--out", out)
        assert code == 0
        assert out.read_text().startswith("digraph 4 4\n")

    def test_clique_union(self, tmp_path, capsys):
        out = tmp_path / "g.graph"
        code, _, _ = run(capsys, "gen", "clique_union", "--n", 8, "--d", 3, "--out", out)
        assert code == 0
        assert out.read_text().startswith("graph 8 3\n")
        assert read_graph(out) == gen_family("clique_union", 8, 3)

    def test_random_round_trip(self, tmp_path, capsys):
        out = tmp_path / "g.digraph"
        code, _, _ = run(
            capsys, "gen", "random", "--n", 30, "--d", 5, "--seed", 7, "--out", out
        )
        assert code == 0
        g = read_graph(out)
        assert g.n == 30 and g.d == 5

    def test_random_dense_no_loops(self, tmp_path, capsys):
        out = tmp_path / "g.digraph"
        code, _, _ = run(
            capsys, "gen", "random", "--n", 300, "--d", 5, "--seed", 1, "--no-loops",
            "--out", out,
        )
        assert code == 0
        g = read_graph(out)
        assert all(i not in row for i, row in enumerate(g.out_adj))

    def test_random_needs_seed(self, tmp_path, capsys):
        code, _, err = run(
            capsys, "gen", "random", "--n", 6, "--d", 2, "--out", tmp_path / "x"
        )
        assert code == 2
        assert "seed" in err

    def test_bad_parameters(self, tmp_path, capsys):
        code, _, _ = run(
            capsys, "gen", "cycle", "--n", 6, "--d", 3, "--out", tmp_path / "x"
        )
        assert code == 2


class TestVerify:
    def test_complete_loops_passes(self, tmp_path, capsys):
        path = tmp_path / "g.digraph"
        write_graph(gen_family("complete_loops", 4, 4), path)
        code, out, _ = run(capsys, "verify", path)
        assert code == 0
        assert "E[cycles]=25/12" in out
        assert "FAIL" not in out

    def test_directed_cycle_json(self, tmp_path, capsys):
        path = tmp_path / "g.digraph"
        cycle = "digraph 8 1\n" + "\n".join(str((i + 1) % 8) for i in range(8)) + "\n"
        path.write_text(cycle)
        code, out, _ = run(capsys, "verify", path, "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert all(c["holds"] for c in payload["checks"])

    @pytest.mark.parametrize("n, d, reveal_rows", [(6, 6, 2), (7, 7, 0)])
    def test_reveal_rows_up_to_six_vertices(self, tmp_path, capsys, n, d, reveal_rows):
        # complete_loops 6/6 (720 factors) is the largest instance the
        # reveal audit admits.
        path = tmp_path / "g.digraph"
        write_graph(gen_family("complete_loops", n, d), path)
        code, out, _ = run(capsys, "verify", path, "--format", "json")
        assert code == 0
        checks = json.loads(out)["checks"]
        reveal = [c for c in checks if c["name"].startswith("reveal_")]
        assert [c["name"] for c in reveal] == ["reveal_uniformity", "reveal_loss_agreement"][:reveal_rows]
        assert all(c["holds"] for c in checks)

    def test_random_instance_passes(self, tmp_path, capsys):
        path = tmp_path / "g.digraph"
        code, _, _ = run(capsys, "gen", "random", "--n", 7, "--d", 3, "--seed", 3, "--out", path)
        assert code == 0
        code, out, _ = run(capsys, "verify", path)
        assert code == 0
        assert "FAIL" not in out

    def test_infeasible_size(self, tmp_path, capsys):
        path = tmp_path / "g.digraph"
        run(capsys, "gen", "random", "--n", 40, "--d", 4, "--seed", 1, "--out", path)
        got = run(capsys, "verify", path)
        assert got == (3, "", "infeasible: counting level 25 holds over 1048576 column sets;"
                              " try the sampling subcommands instead\n")

    def test_complete_loops_past_old_factor_cap(self, tmp_path, capsys):
        # K12 with loops: 12! factors, far past the 10^6 at which verify
        # once refused; both state budgets hold it, and E = H_12.
        path = tmp_path / "k12.digraph"
        run(capsys, "gen", "complete_loops", "--n", 12, "--d", 12, "--out", path)
        code, out, _ = run(capsys, "verify", path)
        assert code == 0
        assert "factors=479001600 E[cycles]=86021/27720 " in out

    def test_sparse_past_n20(self, tmp_path, capsys):
        # n = 60, d = 2: the counting pass stays narrow in frontier order.
        path = tmp_path / "g.digraph"
        run(capsys, "gen", "random", "--n", 60, "--d", 2, "--seed", 1, "--out", path)
        code, out, _ = run(capsys, "verify", path)
        assert code == 0
        assert "FAIL" not in out

    def test_one_regular_past_any_n_cap(self, tmp_path, capsys):
        path = tmp_path / "g.digraph"
        path.write_text("digraph 2000 1\n" + "".join(f"{(i + 1) % 2000}\n" for i in range(2000)))
        code, out, _ = run(capsys, "verify", path)
        assert code == 0
        assert "factors=1 " in out

    def test_text_report_to_out(self, tmp_path, capsys):
        path = tmp_path / "g.digraph"
        write_graph(gen_family("complete_loops", 4, 4), path)
        code, out, _ = run(capsys, "verify", path)
        assert code == 0
        report = tmp_path / "v.txt"
        assert run(capsys, "verify", path, "--out", report) == (0, "", "")
        assert report.read_text() == out

    def test_missing_file(self, capsys):
        code, _, _ = run(capsys, "verify", "/nonexistent/g.digraph")
        assert code == 4

    def test_bad_file(self, tmp_path, capsys):
        path = tmp_path / "bad.digraph"
        path.write_text("digraph 2 1\n1\n1\n")
        code, _, _ = run(capsys, "verify", path)
        assert code == 2

    def test_not_utf8(self, tmp_path, capsys):
        path = tmp_path / "bad.digraph"
        path.write_bytes(b"digraph 1 1\n\xff\n")
        code, _, err = run(capsys, "verify", path)
        assert code == 2
        assert "line 2" in err


class TestFactorCommands:
    def test_cyclefactor_d1_echoes_unique_factor(self, tmp_path, capsys):
        path = tmp_path / "g.digraph"
        path.write_text("digraph 3 1\n1\n2\n0\n")
        code, out, _ = run(capsys, "cyclefactor", path, "--seed", 1)
        assert code == 0
        payload = json.loads(out)
        assert payload["sigma"] == [1, 2, 0]
        assert payload["cycle_count"] == 1
        assert "base2" in payload["cycle_bound"]

    def test_mcmc_long_augmenting_path(self, tmp_path, capsys):
        # Rows u_i ~ columns v_i, v_{i+1}: the bipartite graph is one
        # 2n-cycle. This labelling makes Hopcroft-Karp's last augmenting
        # path about n/2 rows long, past Python's recursion limit.
        n, h = 4000, 2000
        col = [n - 1] + [n - 1 - i if i <= h else i - h - 1 for i in range(1, n)]
        row = [i if i < h else (n - 1 if i == h else i - 1) for i in range(n)]
        adj = [()] * n
        for i in range(n):
            adj[row[i]] = tuple(sorted((col[i], col[(i + 1) % n])))
        g = RegularDigraph(n, 2, tuple(adj))
        assert sorted(hopcroft_karp(to_bipartite(g))) == list(range(n))
        path = tmp_path / "g.digraph"
        write_graph(g, path)
        code, _, _ = run(
            capsys, "cyclefactor", path, "--seed", 1, "--backend", "mcmc",
            "--mcmc-steps", 10, "--samples", 1, "--out", tmp_path / "out.json",
        )
        assert code == 0

    def test_exact_backend_past_n20(self, tmp_path, capsys):
        path = tmp_path / "g.graph"
        write_graph(gen_family("cycle", 40, 2), path)
        code, out, _ = run(capsys, "cyclefactor", path, "--seed", 1, "--backend", "exact")
        assert code == 0
        assert json.loads(out)["backend"] == "exact"

    def test_pathfactor_on_k8(self, tmp_path, capsys):
        path = tmp_path / "g.graph"
        write_graph(gen_family("clique_union", 8, 7), path)
        code, out, _ = run(capsys, "pathfactor", path, "--seed", 5)
        assert code == 0
        payload = json.loads(out)
        assert payload["path_count"] == len(payload["paths"])
        assert payload["path_count"] <= payload["cycle_bound"]["base2"]

    def test_pathfactor_rejects_digraph(self, tmp_path, capsys):
        path = tmp_path / "g.digraph"
        write_graph(gen_family("complete_loops", 4, 4), path)
        code, _, _ = run(capsys, "pathfactor", path, "--seed", 1)
        assert code == 2

    def test_tour_on_c10(self, tmp_path, capsys):
        path = tmp_path / "g.graph"
        write_graph(gen_family("cycle", 10, 2), path)
        code, out, _ = run(capsys, "tour", path, "--seed", 7)
        assert code == 0
        payload = json.loads(out)
        assert payload["length"] <= payload["length_bound"] <= 10 + 2 * payload["cycle_count"]
        assert payload["walk"][0] == payload["walk"][-1]

    def test_tour_rejects_disconnected(self, tmp_path, capsys):
        path = tmp_path / "g.graph"
        write_graph(gen_family("clique_union", 8, 3), path)
        code, _, _ = run(capsys, "tour", path, "--seed", 2)
        assert code == 2

    def test_determinism(self, tmp_path, capsys):
        path = tmp_path / "g.digraph"
        write_graph(gen_family("complete_loops", 6, 6), path)
        _, out1, _ = run(capsys, "cyclefactor", path, "--seed", 9)
        _, out2, _ = run(capsys, "cyclefactor", path, "--seed", 9)
        assert out1 == out2


def _subcommands() -> set:
    (action,) = [a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    return set(action.choices)


def test_subcommands():
    assert _subcommands() == {"gen", "verify", "cyclefactor", "pathfactor", "tour", "bench"}


@pytest.mark.parametrize("argv", [
    ["sample-stats", "g.digraph", "--seed", "3"],
    ["entropy-check", "--seed", "1"],
], ids=lambda argv: argv[0])
def test_removed_subcommand_is_invalid_choice(capsys, argv):
    with pytest.raises(SystemExit) as e:
        main(argv)
    assert e.value.code == 2
    assert f"invalid choice: '{argv[0]}'" in capsys.readouterr().err


def test_readme_cli_block_names_every_subcommand():
    # The block CI runs as written: the first sh block under "## CLI".
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    block = readme.split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    named = {line.split()[1] for line in block.splitlines() if line.startswith("cyclefactor ")}
    assert named == _subcommands()


def _error_inputs(tmp):
    write_graph(gen_family("complete_loops", 4, 4), tmp / "k4.digraph")
    write_graph(gen_family("clique_union", 8, 3), tmp / "cliques.graph")
    write_graph(gen_random_regular_digraph(60, 10, 1), tmp / "random60.digraph")
    (tmp / "bad.digraph").write_text("digraph 2 1\n1\n1\n")
    (tmp / "notjson.json").write_text("{")
    (tmp / "list.json").write_text("[]")
    (tmp / "shape.json").write_text(json.dumps({"config": [], "instances": []}))
    (tmp / "empty.json").write_text(json.dumps({"config": {}, "instances": []}))
    (tmp / "corrupt.ndjson").write_text("not json\n")


_NO_FILE = "[Errno 2] No such file or directory: '{tmp}/"

# Every failure of a subcommand ends in main's one mapping to an exit code;
# these pin the exit code and the exact stderr text of each such failure.
ERROR_CASES = [
    pytest.param(
        ["gen", "random", "--n", 6, "--d", 2, "--out", "{tmp}/x"],
        2, "gen random requires --seed", id="gen-random-without-seed"),
    pytest.param(
        ["gen", "complete_loops", "--n", 4, "--d", 4, "--no-loops", "--out", "{tmp}/x"],
        2, "--no-loops and --no-digons apply only to gen random", id="gen-family-with-no-loops"),
    pytest.param(
        ["gen", "clique_union", "--n", 6, "--d", -1, "--out", "{tmp}/x"],
        2, "clique_union needs d >= 1, got d=-1", id="gen-clique-union-negative-d"),
    # d = 0 meets each family's divisibility condition, or reads as if it did.
    pytest.param(
        ["gen", "complete_loops", "--n", 6, "--d", 0, "--out", "{tmp}/x"],
        2, "complete_loops needs d >= 1, got d=0", id="gen-complete-loops-d0"),
    pytest.param(
        ["gen", "clique_union", "--n", 6, "--d", 0, "--out", "{tmp}/x"],
        2, "clique_union needs d >= 1, got d=0", id="gen-clique-union-d0"),
    pytest.param(
        ["gen", "complete_bipartite_like", "--n", 6, "--d", 0, "--out", "{tmp}/x"],
        2, "complete_bipartite_like needs d >= 1, got d=0", id="gen-complete-bipartite-like-d0"),
    pytest.param(
        ["gen", "cycle", "--n", 6, "--d", 2, "--out", "{tmp}/nodir/g.graph"],
        4, "cannot write {tmp}/nodir/g.graph: " + _NO_FILE + "nodir/g.graph'",
        id="gen-unwritable-out"),
    pytest.param(
        ["cyclefactor", "{tmp}/k4.digraph", "--seed", 1, "--out", "{tmp}/nodir/x.json"],
        4, "cannot write {tmp}/nodir/x.json: " + _NO_FILE + "nodir/x.json'",
        id="cyclefactor-unwritable-out"),
    pytest.param(
        ["verify", "{tmp}/none.digraph"],
        4, "cannot read {tmp}/none.digraph: " + _NO_FILE + "none.digraph'",
        id="missing-graph-file"),
    pytest.param(
        ["verify", "{tmp}/bad.digraph"],
        2, "bad graph file {tmp}/bad.digraph: vertex 0 has in-degree 0, expected 1",
        id="malformed-graph-file"),
    pytest.param(
        ["verify", "{tmp}"],
        4, "cannot read {tmp}: [Errno 21] Is a directory: '{tmp}'", id="graph-file-is-directory"),
    pytest.param(
        ["verify", "{tmp}/random60.digraph"],
        3, "infeasible: counting level 53 holds over 1048576 column sets;"
        " try the sampling subcommands instead", id="verify-infeasible"),
    pytest.param(
        ["pathfactor", "{tmp}/k4.digraph", "--seed", 1],
        2, "path-factor construction needs an undirected graph", id="pathfactor-on-digraph"),
    pytest.param(
        ["tour", "{tmp}/k4.digraph", "--seed", 1],
        2, "tour construction needs an undirected graph", id="tour-on-digraph"),
    pytest.param(
        ["tour", "{tmp}/cliques.graph", "--seed", 2],
        2, "tour construction needs a connected graph", id="tour-disconnected"),
    pytest.param(
        ["cyclefactor", "{tmp}/k4.digraph", "--seed", 1, "--mcmc-steps", 0],
        2, "mcmc_steps must be positive", id="mcmc-steps-zero-on-exact-backend"),
    pytest.param(
        ["bench", "{tmp}/none.json", "--out", "{tmp}/r.ndjson"],
        4, "cannot read manifest: " + _NO_FILE + "none.json'", id="manifest-unreadable"),
    pytest.param(
        ["bench", "{tmp}", "--out", "{tmp}/r.ndjson"],
        4, "cannot read manifest: [Errno 21] Is a directory: '{tmp}'", id="manifest-is-directory"),
    pytest.param(
        ["bench", "{tmp}/notjson.json", "--out", "{tmp}/r.ndjson"],
        2, "bad manifest: Expecting property name enclosed in double quotes:"
        " line 1 column 2 (char 1)", id="manifest-not-json"),
    pytest.param(
        ["bench", "{tmp}/list.json", "--out", "{tmp}/r.ndjson"],
        2, "bad manifest: not a JSON object", id="manifest-not-object"),
    pytest.param(
        ["bench", "{tmp}/shape.json", "--out", "{tmp}/r.ndjson"],
        2, "bad manifest: config must be an object, instances a list", id="manifest-wrong-shape"),
    pytest.param(
        ["bench", "{tmp}/empty.json", "--out", "{tmp}/corrupt.ndjson"],
        2, "bad results file {tmp}/corrupt.ndjson, line 1: Expecting value:"
        " line 1 column 1 (char 0)", id="results-corrupt"),
    pytest.param(
        ["bench", "{tmp}/empty.json", "--out", "{tmp}/nodir/r.ndjson"],
        4, "cannot write results: " + _NO_FILE + "nodir/r.ndjson'", id="results-unwritable"),
    pytest.param(
        ["bench", "{tmp}/empty.json", "--out", "{tmp}"],
        4, "cannot read results: [Errno 21] Is a directory: '{tmp}'", id="results-is-directory"),
]


@pytest.mark.parametrize("argv, code, message", ERROR_CASES)
def test_failure_exit_code_and_stderr(tmp_path, capsys, argv, code, message):
    _error_inputs(tmp_path)
    tmp = str(tmp_path)
    got = run(capsys, *(str(a).replace("{tmp}", tmp) for a in argv))
    assert got == (code, "", message.replace("{tmp}", tmp) + "\n")
    assert not (tmp_path / "x").exists()


def test_memory_error_exits_3(tmp_path, capsys, monkeypatch):
    def no_memory(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(cli, "gen_random_regular_digraph", no_memory)
    out = tmp_path / "x"
    got = run(capsys, "gen", "random", "--n", 50000000, "--d", 4, "--seed", 1, "--out", out)
    assert got == (3, "", "out of memory\n")
    assert not out.exists()


@pytest.mark.parametrize("cmd, path, message", [
    ("cyclefactor", "k4.digraph", "sampled object failed independent re-validation"),
    ("pathfactor", "cycle.graph", "path-factor failed re-validation: ('X',)"),
    ("tour", "cycle.graph", "tour failed re-validation: ('X',)"),
])
def test_failed_revalidation_exit_code_and_stderr(tmp_path, capsys, monkeypatch, cmd, path, message):
    write_graph(gen_family("complete_loops", 4, 4), tmp_path / "k4.digraph")
    write_graph(gen_family("cycle", 6, 2), tmp_path / "cycle.graph")
    failed = lambda *args: CheckReport(False, ("X",))
    monkeypatch.setattr(cli, "verify_path_factor", failed)
    monkeypatch.setattr(cli, "verify_tour", failed)
    if cmd == "cyclefactor":
        monkeypatch.setattr(CycleFactor, "is_factor_of", lambda self, g: False)
    got = run(capsys, cmd, tmp_path / path, "--seed", 1)
    assert got == (2, "", message + "\n")


def test_verify_refused_at_census_budget(tmp_path, capsys, monkeypatch):
    write_graph(gen_family("complete_loops", 4, 4), tmp_path / "k4.digraph")
    monkeypatch.setattr(exact, "CENSUS_MAX_STATES", 4)
    got = run(capsys, "verify", tmp_path / "k4.digraph")
    assert got == (3, "", "infeasible: cycle census holds over 4 states at level 1;"
                          " try the sampling subcommands instead\n")


def test_verify_refused_at_counting_budget(tmp_path, capsys, monkeypatch):
    # K4 with loops: the second row pushed reaches all C(4, 2) = 6 sets.
    write_graph(gen_family("complete_loops", 4, 4), tmp_path / "k4.digraph")
    monkeypatch.setattr(exact, "MAX_STATES", 5)
    got = run(capsys, "verify", tmp_path / "k4.digraph")
    assert got == (3, "", "infeasible: counting level 2 holds over 5 column sets;"
                          " try the sampling subcommands instead\n")


class TestBench:
    def manifest(self, tmp_path, seed=0):
        path = tmp_path / "manifest.json"
        path.write_text(
            json.dumps(
                {
                    "config": {"seed": seed, "samples": 4},
                    "instances": [
                        {"family": "random", "n": 8, "d": 3, "seed": i}
                        for i in range(10)
                    ]
                    + [{"family": "cycle", "n": 8, "d": 2}],
                }
            )
        )
        return path

    def test_records_written_and_audits_pass(self, tmp_path, capsys):
        manifest = self.manifest(tmp_path)
        out = tmp_path / "results.ndjson"
        code, _, _ = run(capsys, "bench", manifest, "--out", out)
        assert code == 0
        records = [json.loads(l) for l in out.read_text().splitlines()]
        assert len(records) == 11
        for rec in records:
            if "oracle" in rec["outputs"]:
                assert all(b["holds"] for b in rec["outputs"]["oracle"]["bound_audit"])
        tour_recs = [r for r in records if "tour_length" in r["outputs"]]
        assert tour_recs

    def test_idempotent_rerun(self, tmp_path, capsys):
        manifest = self.manifest(tmp_path)
        out = tmp_path / "results.ndjson"
        run(capsys, "bench", manifest, "--out", out)
        before = out.read_text()
        code, _, _ = run(capsys, "bench", manifest, "--out", out)
        assert code == 0
        assert out.read_text() == before

    def test_reproducible_modulo_wall_clock(self, tmp_path, capsys):
        manifest = self.manifest(tmp_path)
        outs = []
        for name in ("a.ndjson", "b.ndjson"):
            out = tmp_path / name
            code, _, _ = run(capsys, "bench", manifest, "--out", out)
            assert code == 0
            records = [json.loads(l) for l in out.read_text().splitlines()]
            for rec in records:
                rec.pop("wall_ms")
            outs.append(json.dumps(records, sort_keys=True))
        assert outs[0] == outs[1]

    def test_empty_manifest(self, tmp_path, capsys):
        manifest = tmp_path / "m.json"
        manifest.write_text(json.dumps({"instances": [], "config": {}}))
        out = tmp_path / "r.ndjson"
        code, _, _ = run(capsys, "bench", manifest, "--out", out)
        assert code == 0
        assert not out.exists() or out.read_text() == ""

    def test_torn_last_line_dropped(self, tmp_path, capsys):
        manifest = self.manifest(tmp_path)
        full = tmp_path / "full.ndjson"
        run(capsys, "bench", manifest, "--out", full)
        lines = full.read_text().splitlines(keepends=True)
        torn = tmp_path / "torn.ndjson"
        torn.write_text("".join(lines[:3]) + lines[3][:40])
        code, _, _ = run(capsys, "bench", manifest, "--out", torn)
        assert code == 0
        records = [json.loads(l) for l in torn.read_text().splitlines()]
        assert records[:3] == [json.loads(l) for l in lines[:3]]
        assert len(records) == len(lines)

    def test_corrupt_complete_line_rejected(self, tmp_path, capsys):
        out = tmp_path / "r.ndjson"
        out.write_text("not json\n")
        code, _, err = run(capsys, "bench", self.manifest(tmp_path), "--out", out)
        assert code == 2
        assert "line 1" in err
        assert out.read_text() == "not json\n"

    def test_instance_without_d_is_partial_failure(self, tmp_path, capsys):
        manifest = tmp_path / "m.json"
        manifest.write_text(json.dumps({
            "config": {"samples": 2},
            "instances": [{"family": "random", "n": 6, "seed": 1},
                          {"family": "cycle", "n": 6, "d": 2}],
        }))
        out = tmp_path / "r.ndjson"
        code, _, err = run(capsys, "bench", manifest, "--out", out)
        assert code == 2
        assert json.loads(err)["partial_failures"][0]["error"] == "manifest instance lacks d"
        assert len(out.read_text().splitlines()) == 1

    def test_negative_d_family_is_partial_failure(self, tmp_path, capsys):
        manifest = tmp_path / "m.json"
        manifest.write_text(json.dumps({
            "config": {"samples": 2},
            "instances": [{"family": "clique_union", "n": 6, "d": -1},
                          {"family": "cycle", "n": 6, "d": 2}],
        }))
        out = tmp_path / "r.ndjson"
        code, _, err = run(capsys, "bench", manifest, "--out", out)
        assert code == 2
        assert json.loads(err)["partial_failures"][0]["error"] == (
            "clique_union needs d >= 1, got d=-1")
        assert len(out.read_text().splitlines()) == 1

    def test_not_utf8_graph_is_partial_failure(self, tmp_path, capsys):
        graph = tmp_path / "bad.digraph"
        graph.write_bytes(b"\xff\xfe")
        manifest = tmp_path / "m.json"
        manifest.write_text(json.dumps({"config": {}, "instances": [{"path": str(graph)}]}))
        code, _, err = run(capsys, "bench", manifest, "--out", tmp_path / "r.ndjson")
        assert code == 2
        assert json.loads(err)["partial_failures"][0]["error"] == (
            f"bad graph file {graph}: line 1: not UTF-8 text: invalid start byte")

    def test_missing_graph_file_is_partial_failure(self, tmp_path, capsys):
        manifest = tmp_path / "m.json"
        manifest.write_text(json.dumps({
            "instances": [{"path": "/nonexistent/g.digraph"},
                          {"family": "cycle", "n": 6, "d": 2}],
        }))
        out = tmp_path / "r.ndjson"
        code, _, err = run(capsys, "bench", manifest, "--out", out)
        assert code == 2
        assert json.loads(err)["partial_failures"][0]["error"] == (
            "cannot read /nonexistent/g.digraph: [Errno 2] No such file or directory:"
            " '/nonexistent/g.digraph'")
        assert len(out.read_text().splitlines()) == 1

    def test_repeated_instance_written_once(self, tmp_path, capsys):
        # Whether or not a run is interrupted between the two entries, the
        # results file holds one record for their one key.
        code, _, out = self.bench_raw(tmp_path, capsys, {
            "config": {"samples": 2},
            "instances": [{"family": "cycle", "n": 6, "d": 2}] * 2,
        })
        assert code == 0
        assert len(out.read_text().splitlines()) == 1

    def test_manifest_not_utf8(self, tmp_path, capsys):
        manifest = tmp_path / "m.json"
        manifest.write_bytes(b"\xff\xfe")
        code, _, _ = run(capsys, "bench", manifest, "--out", tmp_path / "r.ndjson")
        assert code == 2

    def bench_raw(self, tmp_path, capsys, manifest):
        path = tmp_path / "m.json"
        path.write_text(json.dumps(manifest))
        out = tmp_path / "r.ndjson"
        code, _, err = run(capsys, "bench", path, "--out", out)
        return code, err, out

    def test_manifest_not_object(self, tmp_path, capsys):
        code, err, out = self.bench_raw(tmp_path, capsys, [{"family": "cycle", "n": 6, "d": 2}])
        assert code == 2
        assert "not a JSON object" in err
        assert not out.exists()

    def test_config_not_object(self, tmp_path, capsys):
        code, err, _ = self.bench_raw(tmp_path, capsys, {"config": [], "instances": []})
        assert code == 2
        assert "config must be an object" in err

    @pytest.mark.parametrize("key", ["samples", "mcmc_steps", "seed", "oracle_max_n"])
    def test_config_value_not_integer(self, tmp_path, capsys, key):
        manifest = {"config": {key: "4"}, "instances": [{"family": "cycle", "n": 6, "d": 2}]}
        code, err, out = self.bench_raw(tmp_path, capsys, manifest)
        assert code == 2
        assert f"config {key} not an integer" in err
        assert not out.exists()

    @pytest.mark.parametrize("config, message", [
        pytest.param({"mcmc_steps": 0}, "mcmc_steps must be positive", id="mcmc_steps"),
        pytest.param({"samples": 0}, "num_samples must be positive", id="samples"),
        pytest.param({"backend": "bogus"}, "unknown backend 'bogus'", id="backend"),
    ])
    def test_config_value_out_of_range(self, tmp_path, capsys, config, message):
        manifest = {"config": config, "instances": [{"family": "cycle", "n": 6, "d": 2}]}
        code, err, out = self.bench_raw(tmp_path, capsys, manifest)
        assert (code, err) == (2, f"bad manifest: {message}\n")
        assert not out.exists()

    def test_unknown_config_keys_rejected(self, tmp_path, capsys):
        manifest = {"config": {"num_samples": 3, "mcmc-steps": 0},
                    "instances": [{"family": "cycle", "n": 6, "d": 2}]}
        code, err, out = self.bench_raw(tmp_path, capsys, manifest)
        assert (code, err) == (2, "bad manifest: unknown config key(s) mcmc-steps, num_samples\n")
        assert not out.exists()

    def test_instance_n_not_integer(self, tmp_path, capsys):
        manifest = {"config": {"samples": 2},
                    "instances": [{"family": "random", "n": "6", "d": 2, "seed": 1},
                                  {"family": "cycle", "n": 6, "d": 2}]}
        code, err, out = self.bench_raw(tmp_path, capsys, manifest)
        assert code == 2
        assert json.loads(err)["partial_failures"][0]["error"] == "manifest instance n not an integer"
        assert len(out.read_text().splitlines()) == 1

    def test_instance_not_object(self, tmp_path, capsys):
        manifest = {"config": {"samples": 2},
                    "instances": [5, {"family": "cycle", "n": 6, "d": 2}]}
        code, err, out = self.bench_raw(tmp_path, capsys, manifest)
        assert code == 2
        assert json.loads(err)["partial_failures"][0] == {
            "instance": 5, "error": "manifest instance is not an object"}
        assert len(out.read_text().splitlines()) == 1
