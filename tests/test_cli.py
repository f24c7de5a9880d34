import argparse
import hashlib
import json
import random
from pathlib import Path

import pytest

from cyclefactor import cli, exact, sampling
from cyclefactor.cli import main
from cyclefactor.errors import GraphError, ParseError
from cyclefactor.graphs import (
    FAMILIES,
    CycleFactor,
    RegularDigraph,
    double_undirected,
    gen_family,
    gen_random_regular_digraph,
    graph_to_text,
    read_graph,
    to_bipartite,
    write_graph,
)
from cyclefactor.sampling import SamplerConfig, hopcroft_karp
from cyclefactor.transforms import CheckReport
from graph_text_reference import reference_read_graph


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
        out = tmp_path / "x"
        assert run(capsys, "gen", "random", "--n", 6, "--d", 2, "--out", out) == (
            2, "", "gen random requires --seed\n")
        assert not out.exists()

    def test_bad_parameters(self, tmp_path, capsys):
        out = tmp_path / "x"
        assert run(capsys, "gen", "cycle", "--n", 6, "--d", 3, "--out", out) == (
            2, "", "cycle needs d=2 and n >= 3, got n=6, d=3\n")
        assert not out.exists()

    def test_family_choices(self):
        # argparse lists the choices, in this order, when it refuses one.
        (family,) = [a for a in _subparsers()["gen"]._actions if a.dest == "family"]
        assert family.choices == FAMILIES + ("random",) == (
            "complete_loops", "clique_union", "cycle", "complete_bipartite_like", "random")


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
        # Dense enough that the counting pass, dead sets dropped, still
        # runs past its budget (about 1.5 s), with 18 rows left to push.
        path = tmp_path / "g.digraph"
        run(capsys, "gen", "random", "--n", 30, "--d", 6, "--seed", 1, "--out", path)
        got = run(capsys, "verify", path)
        assert got == (3, "", "infeasible: counting level 18 holds over 1048576 column sets;"
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
        assert run(capsys, "verify", "/nonexistent/g.digraph") == (
            4, "", "cannot read /nonexistent/g.digraph: [Errno 2] No such file or directory:"
            " '/nonexistent/g.digraph'\n")

    def test_bad_file(self, tmp_path, capsys):
        path = tmp_path / "bad.digraph"
        path.write_text("digraph 2 1\n1\n1\n")
        assert run(capsys, "verify", path) == (
            2, "", f"bad graph file {path}: vertex 0 has in-degree 0, expected 1\n")

    def test_not_utf8(self, tmp_path, capsys):
        path = tmp_path / "bad.digraph"
        path.write_bytes(b"digraph 1 1\n\xff\n")
        assert run(capsys, "verify", path) == (
            2, "", f"bad graph file {path}: line 2: not UTF-8 text: invalid start byte\n")


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

    def test_tour_refuses_disconnected_before_sampling(self, tmp_path, capsys, monkeypatch):
        def no_sampling(*args, **kwargs):
            raise AssertionError("min_cycle_factor called")

        monkeypatch.setattr(cli, "min_cycle_factor", no_sampling)
        path = tmp_path / "g.graph"
        write_graph(gen_family("clique_union", 8, 3), path)
        got = run(capsys, "tour", path, "--seed", 2)
        assert got == (2, "", "tour construction needs a connected graph\n")

    @pytest.mark.parametrize("cmd", ["cyclefactor", "tour", "pathfactor"])
    def test_undirected_hashed_as_its_digraph(self, tmp_path, capsys, cmd):
        g = gen_family("cycle", 10, 2)
        path = tmp_path / "g.graph"
        write_graph(g, path)
        digraph_text = graph_to_text(double_undirected(g))
        assert digraph_text.startswith("digraph 10 2\n")
        code, out, _ = run(capsys, cmd, path, "--seed", 3)
        assert code == 0
        want = hashlib.sha256(digraph_text.encode()).hexdigest()[:16]
        assert json.loads(out)["instance_hash"] == want

    def test_determinism(self, tmp_path, capsys):
        path = tmp_path / "g.digraph"
        write_graph(gen_family("complete_loops", 6, 6), path)
        _, out1, _ = run(capsys, "cyclefactor", path, "--seed", 9)
        _, out2, _ = run(capsys, "cyclefactor", path, "--seed", 9)
        assert out1 == out2


def _subparsers() -> dict:
    (action,) = [a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    return action.choices


def _subcommands() -> set:
    return set(_subparsers())


def test_subcommands():
    assert _subcommands() == {"gen", "verify", "cyclefactor", "pathfactor", "tour", "bench"}


class TestSharedParser:
    """``main`` parses every call with one parser, built on first use."""

    def test_built_once(self):
        assert cli.build_parser() is cli.build_parser()

    def test_option_does_not_leak_into_next_call(self, tmp_path, capsys):
        g = gen_family("cycle", 10, 2)
        path = tmp_path / "g.graph"
        write_graph(g, path)
        _, out, _ = run(capsys, "cyclefactor", path, "--seed", 1, "--samples", 3)
        assert len(json.loads(out)["cycle_counts"]) == 3
        _, out, _ = run(capsys, "cyclefactor", path, "--seed", 1)
        assert len(json.loads(out)["cycle_counts"]) == SamplerConfig().resolve_num_samples(g.n)

    def test_usage_error_does_not_change_next_call(self, tmp_path, capsys):
        path = tmp_path / "g.graph"
        write_graph(gen_family("cycle", 10, 2), path)
        argv = ("tour", path, "--seed", 4, "--samples", 2)
        cli.build_parser.cache_clear()  # a fresh parser, as in a new process
        alone = run(capsys, *argv)
        with pytest.raises(SystemExit) as e:
            main(["tour", str(path)])  # no --seed
        assert e.value.code == 2
        assert "--seed" in capsys.readouterr().err
        assert run(capsys, *argv) == alone


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
    (tmp / "d_over_n.digraph").write_text("digraph 1 2\n0 0\n")
    (tmp / "formfeed.digraph").write_bytes(b"digraph 1 1\x0c\nx\n")
    (tmp / "cr_crlf.digraph").write_bytes(b"digraph 2 1\r\r\n1\n0 x\n")
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
    # random.Random(-7) would seed with 7 and give that seed's graph.
    pytest.param(
        ["gen", "random", "--n", 20, "--d", 3, "--seed", -7, "--out", "{tmp}/x"],
        2, "need seed >= 0, got seed=-7", id="gen-random-negative-seed"),
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
        ["verify", "{tmp}/d_over_n.digraph"],
        2, "bad graph file {tmp}/d_over_n.digraph: need 1 <= d <= n, got d=2, n=1",
        id="graph-file-d-over-n"),
    # Lines end at "\n" only, as read_graph counts them for a UTF-8 fault:
    # a form feed or a lone "\r" is whitespace inside a line.
    pytest.param(
        ["verify", "{tmp}/formfeed.digraph"],
        2, "bad graph file {tmp}/formfeed.digraph: line 2: non-integer vertex in 'x'",
        id="graph-file-form-feed-ends-no-line"),
    pytest.param(
        ["verify", "{tmp}/cr_crlf.digraph"],
        2, "bad graph file {tmp}/cr_crlf.digraph: line 3: non-integer vertex in '0 x'",
        id="graph-file-lone-cr-ends-no-line"),
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
    # derive_seed reduces mod 2^64: -1 would replay 2^64 - 1's draws.
    pytest.param(
        ["cyclefactor", "{tmp}/k4.digraph", "--seed", -1],
        2, "need 0 <= seed < 2**64, got seed=-1", id="cyclefactor-negative-seed"),
    pytest.param(
        ["pathfactor", "{tmp}/cliques.graph", "--seed", 2**64],
        2, "need 0 <= seed < 2**64, got seed=18446744073709551616", id="pathfactor-seed-2-to-the-64"),
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
    # No refusal writes a results file or rewrites a corrupt one.
    assert not (tmp_path / "r.ndjson").exists()
    assert (tmp_path / "corrupt.ndjson").read_text() == "not json\n"


def test_memory_error_exits_3(tmp_path, capsys, monkeypatch):
    def no_memory(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(cli, "gen_random_regular_digraph", no_memory)
    out = tmp_path / "x"
    got = run(capsys, "gen", "random", "--n", 50000000, "--d", 4, "--seed", 1, "--out", out)
    assert got == (3, "", "out of memory\n")
    assert not out.exists()


_NOT_A_FACTOR = "sampled object failed independent re-validation"


@pytest.mark.parametrize("cmd, path, message", [
    ("cyclefactor", "k4.digraph", _NOT_A_FACTOR),
    ("pathfactor", "cycle.graph", _NOT_A_FACTOR),
    ("tour", "cycle.graph", _NOT_A_FACTOR),
    ("pathfactor", "cycle.graph", "path-factor failed re-validation: ('X',)"),
    ("tour", "cycle.graph", "tour failed re-validation: ('X',)"),
])
def test_failed_revalidation_exit_code_and_stderr(tmp_path, capsys, monkeypatch, cmd, path, message):
    # The factor check fails the sampled factor, else the transform checks
    # fail the path-factor or the tour.
    write_graph(gen_family("complete_loops", 4, 4), tmp_path / "k4.digraph")
    write_graph(gen_family("cycle", 6, 2), tmp_path / "cycle.graph")
    failed = lambda *args: CheckReport(False, ("X",))
    monkeypatch.setattr(cli, "verify_path_factor", failed)
    monkeypatch.setattr(cli, "verify_tour", failed)
    if message == _NOT_A_FACTOR:
        monkeypatch.setattr(CycleFactor, "is_factor_of", lambda self, g: False)
    got = run(capsys, cmd, tmp_path / path, "--seed", 1)
    assert got == (2, "", message + "\n")


def test_verify_refused_at_census_budget(tmp_path, capsys, monkeypatch):
    # K4 with loops: the counting pass runs first, under the same budget,
    # and its widest level holds 6 sets; the census needs 20 states.
    write_graph(gen_family("complete_loops", 4, 4), tmp_path / "k4.digraph")
    monkeypatch.setattr(exact, "MAX_STATES", 6)
    got = run(capsys, "verify", tmp_path / "k4.digraph")
    assert got == (3, "", "infeasible: cycle census holds over 6 states at level 2;"
                          " try the sampling subcommands instead\n")


def test_verify_refused_at_counting_budget(tmp_path, capsys, monkeypatch):
    # K4 with loops: the second row pushed reaches all C(4, 2) = 6 sets.
    write_graph(gen_family("complete_loops", 4, 4), tmp_path / "k4.digraph")
    monkeypatch.setattr(exact, "MAX_STATES", 5)
    got = run(capsys, "verify", tmp_path / "k4.digraph")
    assert got == (3, "", "infeasible: counting level 2 holds over 5 column sets;"
                          " try the sampling subcommands instead\n")


# Seeded mutation fuzz of every input path: any input ends in a documented
# exit code and never in a traceback. Every graph file has n <= 12, and a
# manifest's integers are at most 8, so no op allocates much, and k * steps
# stays below SPLIT_MIN_STEPS, so no op forks.
_FUZZ_GRAPHS = [
    gen_family("complete_loops", 6, 3), gen_family("complete_loops", 12, 4),
    gen_family("clique_union", 12, 3), gen_family("cycle", 7, 2), gen_family("cycle", 12, 2),
    gen_family("complete_bipartite_like", 12, 3), gen_random_regular_digraph(6, 2, 1),
    gen_random_regular_digraph(12, 3, 1),
]
_FUZZ_TOKENS = ["0", "1", "2", "3", "12", "-1", "1_0", "٣", "１", "9" * 30, "1.0",
                "x", "digraph", "graph", "#", "\t", ""]
_FUZZ_JSON = [None, True, 1.5, "x", "", [], {}, -1, 0, 1, 2, 3, 8, "cycle", "random",
              "clique_union", "complete_loops", "complete_bipartite_like", "mcmc", "exact"]
_FUZZ_FLAGS = {"--seed": [0, 1, -1, 2**64, "x"], "--samples": [1, 2, 3, 0, -2, "x"],
               "--backend": ["exact", "mcmc", "auto", "bogus"], "--mcmc-steps": [1, 60, 0, "x"]}


def _mutated_graph(rng: random.Random) -> bytes:
    lines = graph_to_text(rng.choice(_FUZZ_GRAPHS)).split("\n")
    for _ in range(rng.randint(0, 3)):
        i, j = rng.randrange(len(lines)), rng.randrange(len(lines))
        op = rng.randrange(6)
        if op == 0 and len(lines) > 1:
            del lines[i]
        elif op == 1:
            lines.insert(i, lines[i])
        elif op == 2:
            lines[i], lines[j] = lines[j], lines[i]
        elif op == 3:
            tokens = lines[i].split(" ")
            tokens[rng.randrange(len(tokens))] = rng.choice(_FUZZ_TOKENS)
            lines[i] = " ".join(tokens)
        elif op == 4:
            lines.insert(i, rng.choice(["# note", "", "  \t", "\x00"]))
        else:
            lines[i] += rng.choice([" # note", "\r", "\t", " "])
    data = ("\r\n" if rng.random() < 0.1 else "\n").join(lines).encode()
    if rng.random() < 0.1:
        k = rng.randrange(len(data) + 1)
        data = data[:k] + rng.choice([b"\xff", b"\xc3", b"\xe2\x82"]) + data[k:]
    return data


def _mutated_json(rng: random.Random, value, path: str):
    """value with one random node replaced, dropped, or given an unknown
    key; the graph file's path is among the values it may put in."""
    if isinstance(value, (dict, list)) and value and rng.random() < 0.85:
        keys = list(value) if isinstance(value, dict) else range(len(value))
        key = rng.choice(keys)
        value = value.copy()
        if rng.random() < 0.15:
            del value[key]
        else:
            value[key] = _mutated_json(rng, value[key], path)
        return value
    if isinstance(value, dict) and rng.random() < 0.3:
        return {**value, rng.choice(["bogus", "path", "seed", "mcmc_steps"]): rng.choice(_FUZZ_JSON)}
    return rng.choice(_FUZZ_JSON + [path])


def test_fuzzed_inputs_end_in_an_exit_code(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(sampling, "_split_workers", lambda k: pytest.fail("an op would fork"))
    rng = random.Random(1)
    graph, manifest, results = tmp_path / "g.txt", tmp_path / "m.json", tmp_path / "r.ndjson"
    base = {"config": {"seed": 1, "samples": 2},
            "instances": [{"family": "cycle", "n": 8, "d": 2},
                          {"family": "random", "n": 6, "d": 3, "seed": 1}, {"path": str(graph)}]}
    bad = []
    for case in range(2000):
        graph.write_bytes(_mutated_graph(rng))
        if case % 4 == 0:
            manifest.write_text(json.dumps(_mutated_json(rng, base, str(graph))))
            results.unlink(missing_ok=True)
            argv = ["bench", str(manifest), "--out", str(results)]
        else:
            command = rng.choice(["verify", "cyclefactor", "pathfactor", "tour"])
            argv = [command, str(graph)]
            if command == "verify":
                argv += ["--format", rng.choice(["json", "text"])]
            else:
                argv += ["--seed", "1", "--samples", "2"]
                for flag in rng.sample(list(_FUZZ_FLAGS), rng.randint(0, 2)):
                    argv += [flag, str(rng.choice(_FUZZ_FLAGS[flag]))]
        try:
            code = main(argv)
        except SystemExit as e:
            code = e.code
        except Exception as e:  # an exception past main is a traceback
            code = repr(e)
        err = capsys.readouterr().err
        if code not in (0, 2, 3, 4) or "Traceback" in err:
            bad.append((argv, graph.read_bytes(), code, err))
    assert not bad, bad[:3]


def _graph_or_fault(read, arg):
    try:
        return read(arg)
    except (ParseError, GraphError) as e:
        return type(e), str(e)


def test_fuzzed_graph_files_read_as_the_reference_reads_them(tmp_path):
    # The same graph, or the same exception class and message, as the
    # plain line-by-line reader gives on the same bytes.
    rng = random.Random(1)
    path = tmp_path / "g.txt"
    for _ in range(2000):
        data = _mutated_graph(rng)
        path.write_bytes(data)
        assert _graph_or_fault(read_graph, path) == _graph_or_fault(reference_read_graph, data), data


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

    def test_carriage_return_ends_no_results_line(self, tmp_path, capsys):
        # As in a graph file, only "\n" ends a line: the lone "\r"s are
        # inside line 1, which is not JSON.
        out = tmp_path / "r.ndjson"
        out.write_bytes(b"\r\rnot json\n")
        code, stdout, err = run(capsys, "bench", self.manifest(tmp_path), "--out", out)
        assert (code, stdout) == (2, "")
        assert err == (f"bad results file {out}, line 1: Expecting value:"
                       " line 1 column 3 (char 2)\n")
        assert out.read_bytes() == b"\r\rnot json\n"

    def partial_failure(self, tmp_path, capsys, instance, error):
        # A bad instance is reported on stderr and the run goes on: the
        # good instance after it gets its record, and bench exits 2.
        code, err, out = self.bench_raw(tmp_path, capsys, {
            "config": {"samples": 2}, "instances": [instance, {"family": "cycle", "n": 6, "d": 2}],
        })
        assert code == 2
        assert json.loads(err)["partial_failures"] == [{"instance": instance, "error": error}]
        assert len(out.read_text().splitlines()) == 1

    def test_instance_without_d_is_partial_failure(self, tmp_path, capsys):
        self.partial_failure(tmp_path, capsys, {"family": "random", "n": 6, "seed": 1},
                             "manifest instance lacks d")

    def test_negative_d_family_is_partial_failure(self, tmp_path, capsys):
        self.partial_failure(tmp_path, capsys, {"family": "clique_union", "n": 6, "d": -1},
                             "clique_union needs d >= 1, got d=-1")

    def test_negative_seed_random_is_partial_failure(self, tmp_path, capsys):
        self.partial_failure(tmp_path, capsys, {"family": "random", "n": 8, "d": 3, "seed": -1},
                             "need seed >= 0, got seed=-1")

    def test_not_utf8_graph_is_partial_failure(self, tmp_path, capsys):
        graph = tmp_path / "bad.digraph"
        graph.write_bytes(b"\xff\xfe")
        self.partial_failure(tmp_path, capsys, {"path": str(graph)},
                             f"bad graph file {graph}: line 1: not UTF-8 text: invalid start byte")

    def test_missing_graph_file_is_partial_failure(self, tmp_path, capsys):
        self.partial_failure(tmp_path, capsys, {"path": "/nonexistent/g.digraph"},
                             "cannot read /nonexistent/g.digraph: [Errno 2] No such file or directory:"
                             " '/nonexistent/g.digraph'")

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
        out = tmp_path / "r.ndjson"
        assert run(capsys, "bench", manifest, "--out", out) == (
            2, "", "bad manifest: 'utf-8' codec can't decode byte 0xff in position 0: invalid start byte\n")
        assert not out.exists()

    def bench_raw(self, tmp_path, capsys, manifest):
        path = tmp_path / "m.json"
        path.write_text(json.dumps(manifest))
        out = tmp_path / "r.ndjson"
        code, _, err = run(capsys, "bench", path, "--out", out)
        return code, err, out

    def test_manifest_not_object(self, tmp_path, capsys):
        code, err, out = self.bench_raw(tmp_path, capsys, [{"family": "cycle", "n": 6, "d": 2}])
        assert (code, err) == (2, "bad manifest: not a JSON object\n")
        assert not out.exists()

    def test_config_not_object(self, tmp_path, capsys):
        code, err, out = self.bench_raw(tmp_path, capsys, {"config": [], "instances": []})
        assert (code, err) == (2, "bad manifest: config must be an object, instances a list\n")
        assert not out.exists()

    @pytest.mark.parametrize("key", ["samples", "mcmc_steps", "seed"])
    def test_config_value_not_integer(self, tmp_path, capsys, key):
        manifest = {"config": {key: "4"}, "instances": [{"family": "cycle", "n": 6, "d": 2}]}
        code, err, out = self.bench_raw(tmp_path, capsys, manifest)
        assert code == 2
        field = {"samples": "num_samples"}.get(key, key)
        assert err == f"bad manifest: {field} must be an integer, got '4'\n"
        assert not out.exists()

    @pytest.mark.parametrize("config, message", [
        pytest.param({"mcmc_steps": 0}, "mcmc_steps must be positive", id="mcmc_steps"),
        pytest.param({"samples": 0}, "num_samples must be positive", id="samples"),
        pytest.param({"backend": "bogus"}, "unknown backend 'bogus'", id="backend"),
        pytest.param({"seed": -5}, "need 0 <= seed < 2**64, got seed=-5", id="seed"),
    ])
    def test_config_value_out_of_range(self, tmp_path, capsys, config, message):
        manifest = {"config": config, "instances": [{"family": "cycle", "n": 6, "d": 2}]}
        code, err, out = self.bench_raw(tmp_path, capsys, manifest)
        assert (code, err) == (2, f"bad manifest: {message}\n")
        assert not out.exists()

    def test_unknown_config_keys_rejected(self, tmp_path, capsys):
        manifest = {"config": {"num_samples": 3, "mcmc-steps": 0, "oracle_max_n": 8},
                    "instances": [{"family": "cycle", "n": 6, "d": 2}]}
        code, err, out = self.bench_raw(tmp_path, capsys, manifest)
        assert (code, err) == (
            2, "bad manifest: unknown config key(s) mcmc-steps, num_samples, oracle_max_n\n")
        assert not out.exists()

    def test_oracle_report_up_to_n_8(self, tmp_path, capsys):
        manifest = {"config": {"samples": 2},
                    "instances": [{"family": "cycle", "n": 8, "d": 2},
                                  {"family": "cycle", "n": 9, "d": 2}]}
        code, _, out = self.bench_raw(tmp_path, capsys, manifest)
        assert code == 0
        records = [json.loads(line) for line in out.read_text().splitlines()]
        assert ["oracle" in r["outputs"] for r in records] == [True, False]

    def test_instance_n_not_integer(self, tmp_path, capsys):
        self.partial_failure(tmp_path, capsys, {"family": "random", "n": "6", "d": 2, "seed": 1},
                             "manifest instance n not an integer")

    def test_failed_factor_check_is_partial_failure(self, tmp_path, capsys, monkeypatch):
        # Directed and undirected instances alike go through the factor check.
        monkeypatch.setattr(CycleFactor, "is_factor_of", lambda self, g: False)
        instances = [{"family": "complete_loops", "n": 4, "d": 4}, {"family": "cycle", "n": 6, "d": 2}]
        code, err, out = self.bench_raw(tmp_path, capsys, {"config": {"samples": 2}, "instances": instances})
        assert code == 2
        assert json.loads(err)["partial_failures"] == [
            {"instance": desc, "error": _NOT_A_FACTOR} for desc in instances]
        assert out.read_text() == ""

    def test_instance_path_not_string(self, tmp_path, capsys):
        self.partial_failure(tmp_path, capsys, {"path": 5}, "manifest instance path is not a string")

    def test_instance_not_object(self, tmp_path, capsys):
        self.partial_failure(tmp_path, capsys, 5, "manifest instance is not an object")

    @pytest.mark.parametrize("desc", [
        {"family": "random", "n": 12, "d": 3, "seed": 5},
        {"family": "clique_union", "n": 8, "d": 3},
    ], ids=lambda desc: desc["family"])
    def test_instance_hash_matches_gen(self, tmp_path, capsys, desc):
        # gen and bench build an instance from the same recipe.
        graph = tmp_path / "g"
        argv = ["gen", desc["family"], "--n", desc["n"], "--d", desc["d"], "--out", graph]
        code, _, _ = run(capsys, *argv, *(["--seed", desc["seed"]] if "seed" in desc else []))
        assert code == 0
        code, _, out = self.bench_raw(tmp_path, capsys, {"config": {"samples": 2}, "instances": [desc]})
        assert code == 0
        (rec,) = [json.loads(line) for line in out.read_text().splitlines()]
        assert rec["instance_hash"] == cli.instance_hash(read_graph(graph))
