import hashlib
import itertools
import pickle
import random
from bisect import bisect_left
from collections import Counter
from fractions import Fraction

import pytest
from scipy.stats import chisquare

from cyclefactor.errors import BadParameters, GraphError, ParseError
from cyclefactor.graphs import (
    FAMILIES,
    CycleFactor,
    RegularDigraph,
    UndirectedRegularGraph,
    double_undirected,
    gen_family,
    gen_random_regular_digraph,
    graph_to_text,
    in_rows,
    parse_graph,
    read_graph,
    to_bipartite,
    write_graph,
)
from cyclefactor.entropy import RevealAuditReport, SkewCheck
from cyclefactor.exact import BoundCheck, OracleReport
from cyclefactor.sampling import MinFactorResult, SamplerConfig
from cyclefactor.transforms import CheckReport, PathFactor, Tour
from switch_chain import switch_chain


def complete_loops(n):
    return gen_family("complete_loops", n, n)


def all_regular_digraphs(n, d, loops):
    """Every d-regular digraph on n vertices, as sorted adjacency tuples."""
    rows = [
        [r for r in itertools.combinations(range(n), d) if loops or i not in r]
        for i in range(n)
    ]
    found = []

    def extend(prefix, in_deg):
        if len(prefix) == n:
            found.append(tuple(prefix))
            return
        for r in rows[len(prefix)]:
            if all(in_deg[v] < d for v in r):
                extend(prefix + [r], [c + (v in r) for v, c in enumerate(in_deg)])

    extend([], [0] * n)
    return found


def shuffled_circulant(n, d, rng):
    """The neighbour sets of a random relabelling of the d-regular
    circulant on n vertices (n even, n > d): offsets +-1..+-(d // 2),
    and n / 2 when d is odd."""
    label = list(range(n))
    rng.shuffle(label)
    offsets = list(range(1, d // 2 + 1)) + list(range(n - d // 2, n))
    if d % 2:
        offsets.append(n // 2)
    adj = [set() for _ in range(n)]
    for i in range(n):
        for c in offsets:
            adj[label[i]].add(label[(i + c) % n])
    return adj


def reference_asymmetry(rows):
    """The message of the first missing reverse edge in row order, by a
    bisect over each reverse row: the scan ``require_valid`` used alone
    before it compared the rows with their transpose."""
    for u, row in enumerate(rows):
        for v in row:
            back = rows[v]
            k = bisect_left(back, u)
            if k == len(back) or back[k] != u:
                return f"edge ({u}, {v}) present but ({v}, {u}) missing"
    return None


def reference_in_degree(n, d, rows):
    """The message of the first vertex whose in-degree is not d, by the
    per-entry counter ``require_valid`` kept before it built the
    transpose."""
    in_deg = [0] * n
    for row in rows:
        for v in row:
            in_deg[v] += 1
    for v, deg in enumerate(in_deg):
        if deg != d:
            return f"vertex {v} has in-degree {deg}, expected {d}"
    return None


class TestValidateDigraph:
    def test_single_loop_is_valid(self):
        RegularDigraph(1, 1, ((0,),))

    def test_in_degree_mismatch(self):
        with pytest.raises(GraphError, match="^vertex 0 has in-degree 0, expected 1$"):
            RegularDigraph(2, 1, ((1,), (1,)))

    def test_complete_with_loops_valid(self):
        complete_loops(3)

    def test_duplicate_edge(self):
        with pytest.raises(GraphError, match=r"^duplicate edge \(0, 0\)$"):
            RegularDigraph(2, 2, ((0, 0), (0, 1)))

    def test_index_out_of_range(self):
        with pytest.raises(GraphError, match=r"^vertex index 5 out of range \[0, 2\)$"):
            RegularDigraph(2, 1, ((5,), (0,)))

    def test_out_degree_mismatch(self):
        with pytest.raises(GraphError, match="^vertex 0 has out-degree 1, expected 2$"):
            RegularDigraph(2, 2, ((0,), (0, 1)))

    @pytest.mark.parametrize("n, d, rows, message", [
        (2, 0, ((), ()), "need 1 <= d <= n, got d=0, n=2"),
        (1, 2, ((0, 1),), "need 1 <= d <= n, got d=2, n=1"),
        (2, 1, ((1,),), "adjacency row count != n"),
    ])
    def test_shape_rejected(self, n, d, rows, message):
        with pytest.raises(GraphError) as e:
            RegularDigraph(n, d, rows)
        assert str(e.value) == message

    def test_unsorted_row_rejected(self):
        # Rows are sorted so that equal graphs compare equal: (1, 0) would
        # make a second record of the graph whose row 0 is (0, 1).
        with pytest.raises(GraphError, match="^row 0 is not strictly increasing$"):
            RegularDigraph(2, 2, ((1, 0), (0, 1)))

    def test_in_degree_message_matches_reference_counter(self):
        # Each digraph has one arc's head moved: row u trades v for a
        # vertex w it lacks, so every row stays sorted and of length d,
        # and only the in-degrees of v and w break.
        rng = random.Random(28)
        for _ in range(300):
            n = rng.randint(2, 20)
            d = rng.randint(1, n - 1)
            g = gen_random_regular_digraph(n, d, rng.randrange(1000))
            rows = [list(r) for r in g.out_adj]
            u = rng.randrange(n)
            v = rng.choice(rows[u])
            w = rng.choice([x for x in range(n) if x not in rows[u]])
            rows[u] = sorted(set(rows[u]) - {v} | {w})
            rows = tuple(map(tuple, rows))
            message = reference_in_degree(n, d, rows)
            assert message is not None
            with pytest.raises(GraphError) as exc:
                RegularDigraph(n, d, rows)
            assert str(exc.value) == message


class TestValidateUndirected:
    def test_cycle_valid(self):
        gen_family("cycle", 6, 2)

    def test_asymmetric_rejected(self):
        with pytest.raises(GraphError, match=r"^edge \(0, 1\) present but \(1, 0\) missing$"):
            UndirectedRegularGraph(3, 1, ((1,), (2,), (0,)))

    def test_asymmetry_reported_before_in_degree(self):
        # Vertex 0 has in-degree 2 and vertex 2 has 0, but an undirected
        # graph is never reported by its in-degree.
        with pytest.raises(GraphError, match=r"^edge \(2, 0\) present but \(0, 2\) missing$"):
            UndirectedRegularGraph(3, 1, ((1,), (0,), (0,)))

    def test_degree_mismatch_messages(self):
        with pytest.raises(GraphError, match="^vertex 2 has degree 3, expected 2$"):
            UndirectedRegularGraph(4, 2, ((1, 2), (0, 2), (0, 1, 3), (2,)))
        with pytest.raises(GraphError, match="^vertex 0 has out-degree 1, expected 2$"):
            RegularDigraph(2, 2, ((0,), (0, 1)))
        with pytest.raises(GraphError, match="^vertex 0 has in-degree 0, expected 1$"):
            RegularDigraph(2, 1, ((1,), (1,)))

    def test_loop_rejected(self):
        with pytest.raises(GraphError, match="^loop at vertex 0 not allowed in undirected graph$"):
            UndirectedRegularGraph(2, 1, ((0,), (1,)))

    def test_unsorted_row_rejected(self):
        with pytest.raises(GraphError, match="^row 0 is not strictly increasing$"):
            UndirectedRegularGraph(4, 2, ((3, 1), (0, 2), (1, 3), (0, 2)))

    def test_asymmetry_message_matches_reference_scan(self):
        # Each graph loses the reverse of one edge (v, u): row v trades u for
        # a non-neighbour w, so every row stays sorted, loop-free and of
        # length d, and only the symmetry check can fail.
        rng = random.Random(27)
        for _ in range(300):
            d = rng.randint(1, 5)
            n = 2 * rng.randint(d + 1, 12)
            rows = [sorted(r) for r in shuffled_circulant(n, d, rng)]
            v = rng.randrange(n)
            u = rng.choice(rows[v])
            w = rng.choice([x for x in range(n) if x != v and x not in rows[v]])
            rows[v] = sorted(set(rows[v]) - {u} | {w})
            rows = tuple(map(tuple, rows))
            with pytest.raises(GraphError) as exc:
                UndirectedRegularGraph(n, d, rows)
            assert str(exc.value) == reference_asymmetry(rows)


class TestToBipartite:
    def test_single_loop_gives_k11(self):
        h = to_bipartite(RegularDigraph(1, 1, ((0,),)))
        assert h == ((0,),)

    def test_complete_loops_gives_k33(self):
        h = to_bipartite(complete_loops(3))
        assert all(row == (0, 1, 2) for row in h)

    def test_directed_3cycle_gives_matching(self):
        g = RegularDigraph(3, 1, ((1,), (2,), (0,)))
        h = to_bipartite(g)
        assert h == ((1,), (2,), (0,))

    def test_in_adj_is_transpose(self):
        for g in (
            gen_random_regular_digraph(6, 2, 3),
            gen_random_regular_digraph(30, 4, 1, allow_loops=False),
            complete_loops(3),
            gen_family("cycle", 7, 2),
            gen_family("clique_union", 8, 3),
            gen_family("complete_bipartite_like", 12, 3),
        ):
            rev = in_rows(g.out_adj)
            assert rev == [[u for u in range(g.n) if v in g.out_adj[u]] for v in range(g.n)]
            assert all(a < b for row in rev for a, b in zip(row, row[1:]))
            assert g.in_adj == tuple(map(tuple, rev))
            if isinstance(g, UndirectedRegularGraph):
                assert g.in_adj is g.out_adj

    def test_in_adj_is_not_a_field_of_the_value(self):
        # The transpose is derived from out_adj, so it takes no part in
        # construction, equality, hashing or repr.
        g = RegularDigraph(3, 1, ((1,), (2,), (0,)))
        assert g.in_adj == ((2,), (0,), (1,))
        assert repr(g) == "RegularDigraph(n=3, d=1, out_adj=((1,), (2,), (0,)))"
        assert hash(g) == hash((3, 1, g.out_adj))
        with pytest.raises(TypeError):
            RegularDigraph(3, 1, ((1,), (2,), (0,)), ((2,), (0,), (1,)))


class TestDoubleUndirected:
    def test_c4(self):
        g = double_undirected(gen_family("cycle", 4, 2))
        assert sum(len(r) for r in g.out_adj) == 8

    def test_k4(self):
        g = double_undirected(gen_family("clique_union", 4, 3))
        assert sum(len(r) for r in g.out_adj) == 12

    def test_two_triangles(self):
        g = double_undirected(gen_family("clique_union", 6, 2))
        assert sum(len(r) for r in g.out_adj) == 12

    def test_no_loops_and_reverses_present(self):
        g = double_undirected(gen_family("cycle", 5, 2))
        for u, row in enumerate(g.out_adj):
            assert u not in row
            for v in row:
                assert u in g.out_adj[v]


class TestUndirectedIsDoubledDigraph:
    def test_is_a_digraph_with_the_same_rows(self):
        g = gen_family("clique_union", 8, 3)
        assert isinstance(g, RegularDigraph)
        assert g.out_adj == double_undirected(g).out_adj

    def test_never_equals_its_doubled_digraph(self):
        g = gen_family("cycle", 5, 2)
        assert g != double_undirected(g)
        assert type(double_undirected(g)) is RegularDigraph

    @pytest.mark.parametrize("kind,n,d", [("cycle", 7, 2), ("clique_union", 8, 3)])
    def test_text_round_trip_keeps_the_type(self, kind, n, d):
        g = gen_family(kind, n, d)
        back = parse_graph(graph_to_text(g))
        assert type(back) is UndirectedRegularGraph and back == g


class TestRandomGenerator:
    def test_d_equals_n_is_complete_with_loops(self):
        g = gen_random_regular_digraph(4, 4, 99)
        assert g == complete_loops(4)

    def test_small_instance_valid(self):
        gen_random_regular_digraph(6, 2, 1)

    def test_d1_is_single_permutation(self):
        g = gen_random_regular_digraph(4, 1, 7)
        assert all(len(row) == 1 for row in g.out_adj)

    def test_deterministic(self):
        assert gen_random_regular_digraph(8, 3, 5) == gen_random_regular_digraph(8, 3, 5)

    def test_always_valid_over_many_seeds(self):
        rng = random.Random(0)
        for seed in range(1000):
            n = rng.randint(1, 50)
            d = rng.randint(1, min(n, 6))
            gen_random_regular_digraph(n, d, seed)

    def test_no_loops_flag(self):
        g = gen_random_regular_digraph(8, 2, 3, allow_loops=False)
        assert all(i not in row for i, row in enumerate(g.out_adj))

    def test_no_digons_flag(self):
        g = gen_random_regular_digraph(9, 2, 4, allow_loops=False, allow_digons=False)
        for u, row in enumerate(g.out_adj):
            for v in row:
                assert not (u != v and u in g.out_adj[v])

    def test_bad_parameters(self):
        with pytest.raises(BadParameters):
            gen_random_regular_digraph(3, 4, 0)

    @pytest.mark.parametrize(
        "n,d,loops,per_graph",
        [(4, 2, True, 10), (5, 3, True, 4), (5, 4, True, 10), (5, 2, False, 10)],
    )
    def test_uniform_over_all_digraphs(self, n, d, loops, per_graph):
        support = all_regular_digraphs(n, d, loops)
        draws = Counter(
            gen_random_regular_digraph(n, d, seed, allow_loops=loops).out_adj
            for seed in range(per_graph * len(support))
        )
        assert set(draws) <= set(support)
        assert chisquare([draws[g] for g in support]).pvalue >= 1e-3

    def test_flags_honoured_and_infeasible_rejected(self):
        for n in range(1, 13):
            for d in range(1, n + 1):
                for loops, digons in itertools.product((True, False), repeat=2):
                    feasible = (loops or d < n) and (
                        digons or 2 * (d - 1 if loops else d) <= n - 1
                    )
                    case = (n, d, loops, digons)
                    if not feasible:
                        with pytest.raises(BadParameters):
                            gen_random_regular_digraph(
                                n, d, 0, allow_loops=loops, allow_digons=digons
                            )
                        continue
                    g = gen_random_regular_digraph(
                        n, d, n * d, allow_loops=loops, allow_digons=digons
                    )
                    arcs = {(u, v) for u, row in enumerate(g.out_adj) for v in row}
                    assert loops or all(u != v for u, v in arcs), case
                    assert digons or all(u == v or (v, u) not in arcs for u, v in arcs), case

    def test_no_digons_output_varies_with_seed(self):
        outs = {
            gen_random_regular_digraph(12, 3, seed, allow_loops=False, allow_digons=False)
            for seed in range(20)
        }
        assert len(outs) > 1

    # (n, d, allow_loops, allow_digons): n = 1, d = n, each flag and both,
    # the frozen starts (6, 2) and (7, 2), the tightest no-digon sizes, and
    # d from 8 to 32, where a tail's set of heads outgrows its smallest table.
    STREAM_CASES = [
        (1, 1, True, True), (1, 1, True, False), (4, 4, True, True), (5, 5, True, True),
        (5, 4, False, True), (8, 2, False, True), (7, 3, True, False), (9, 4, True, False),
        (6, 2, False, False), (7, 2, False, False), (11, 5, False, False),
        (13, 6, False, False), (10, 6, True, True), (40, 6, False, True), (30, 5, True, False),
        (200, 3, True, True), (40, 8, True, True), (48, 16, False, True),
        (41, 12, True, False), (65, 32, False, False),
    ]

    @pytest.mark.parametrize("n,d,loops,digons", STREAM_CASES)
    def test_same_stream_as_randrange_chain(self, n, d, loops, digons):
        for seed in (0, 1, 2, 2**64 + 3):
            assert gen_random_regular_digraph(n, d, seed, loops, digons) == switch_chain(
                n, d, seed, loops, digons
            ), seed

    def test_same_stream_as_randrange_chain_large(self):
        assert gen_random_regular_digraph(20000, 2, 1) == switch_chain(20000, 2, 1)

    @pytest.mark.parametrize("n,d,seed,loops,digons,sha256", [
        (20, 3, 7, True, True, "a71735977b1d15a527cd0f8b090f62ecc92ebf4352b0a7c2ae57d22e3df259ec"),
        (300, 4, 1, False, True, "18f1c1d55f2babf530de5bc3ffcb10f7a4c4b226db4097968fa6c73cc405e63f"),
        (500, 3, 2, False, False, "09a5189df02ffd0a990d8ba7aed397202e691f068f51a03eb48c1b768cd0f709"),
    ])
    def test_pinned_graph_bytes(self, n, d, seed, loops, digons, sha256):
        # Pinned when the arc pairs were drawn by randrange: a change of
        # random stream changes these files.
        text = graph_to_text(gen_random_regular_digraph(n, d, seed, loops, digons))
        assert hashlib.sha256(text.encode()).hexdigest() == sha256


class TestFamilies:
    def test_complete_loops_k5(self):
        g = gen_family("complete_loops", 5, 5)
        assert isinstance(g, RegularDigraph)
        assert all(row == (0, 1, 2, 3, 4) for row in g.out_adj)

    def test_complete_loops_blocks(self):
        g = gen_family("complete_loops", 6, 3)
        assert g.out_adj[0] == (0, 1, 2) and g.out_adj[5] == (3, 4, 5)

    def test_clique_union_two_k4(self):
        g = gen_family("clique_union", 8, 3)
        assert g.out_adj[0] == (1, 2, 3) and g.out_adj[4] == (5, 6, 7)
        assert not g.is_connected()

    def test_cycle_c6(self):
        g = gen_family("cycle", 6, 2)
        assert g.out_adj[0] == (1, 5)
        assert g.is_connected()

    def test_complete_bipartite_like(self):
        g = gen_family("complete_bipartite_like", 8, 2)
        assert g.out_adj[0] == (2, 3)

    @pytest.mark.parametrize(
        "kind,n,d",
        [("complete_loops", 5, 3), ("clique_union", 7, 3), ("cycle", 6, 3),
         ("complete_bipartite_like", 6, 2), ("nope", 4, 2)],
    )
    def test_bad_parameters(self, kind, n, d):
        with pytest.raises(BadParameters):
            gen_family(kind, n, d)


def reference_gen_family(kind, n, d):
    """gen_family as it was written before the block families shared one
    check and one loop: a branch of its own per family."""
    if kind in ("complete_loops", "clique_union", "complete_bipartite_like") and d < 1:
        raise BadParameters(f"{kind} needs d >= 1, got d={d}")
    if kind == "complete_loops":
        if n % d != 0:
            raise BadParameters(f"complete_loops needs d | n, got n={n}, d={d}")
        out = []
        for i in range(n):
            base = (i // d) * d
            out.append(tuple(range(base, base + d)))
        return RegularDigraph(n, d, tuple(out))
    if kind == "clique_union":
        if n % (d + 1) != 0:
            raise BadParameters(f"clique_union needs (d+1) | n, got n={n}, d={d}")
        adj = []
        for i in range(n):
            base = (i // (d + 1)) * (d + 1)
            adj.append(tuple(v for v in range(base, base + d + 1) if v != i))
        return UndirectedRegularGraph(n, d, tuple(adj))
    if kind == "cycle":
        if d != 2 or n < 3:
            raise BadParameters(f"cycle needs d=2 and n >= 3, got n={n}, d={d}")
        adj = [tuple(sorted(((i - 1) % n, (i + 1) % n))) for i in range(n)]
        return UndirectedRegularGraph(n, 2, tuple(adj))
    if kind == "complete_bipartite_like":
        if n % (2 * d) != 0:
            raise BadParameters(
                f"complete_bipartite_like needs 2d | n, got n={n}, d={d}"
            )
        adj = []
        for i in range(n):
            block = i // (2 * d)
            base = block * 2 * d
            side = (i - base) // d
            other = base + (1 - side) * d
            adj.append(tuple(range(other, other + d)))
        return UndirectedRegularGraph(n, d, tuple(adj))
    raise BadParameters(f"unknown family kind {kind!r}")


def _family_or_refusal(build, kind, n, d):
    try:
        return build(kind, n, d)
    except (BadParameters, GraphError) as e:
        return type(e), str(e)


def test_gen_family_matches_reference_on_grid():
    # 6 kinds x 27 n x 12 d = 1,944 cases: the same graph, which compares
    # its type and rows, or the same exception class and message.
    cases = [(kind, n, d) for kind in FAMILIES + ("random", "nope")
             for n in range(-2, 25) for d in range(-3, 9)]
    assert len(cases) == 1944
    for case in cases:
        assert _family_or_refusal(gen_family, *case) == _family_or_refusal(reference_gen_family, *case), case


class TestIo:
    def test_round_trip_digraph(self, tmp_path):
        g = complete_loops(3)
        path = tmp_path / "g.digraph"
        write_graph(g, path)
        assert read_graph(path) == g

    def test_round_trip_undirected(self, tmp_path):
        g = gen_family("cycle", 7, 2)
        path = tmp_path / "g.graph"
        write_graph(g, path)
        assert read_graph(path) == g

    def test_header_matches(self):
        assert graph_to_text(complete_loops(3)).startswith("digraph 3 3\n")

    def test_wrong_neighbour_count(self):
        with pytest.raises(ParseError):
            parse_graph("digraph 3 2\n0 1 2\n0 1\n0 1\n")

    def test_comments_ignored(self):
        g = parse_graph("# a comment\ndigraph 1 1\n# another\n0\n")
        assert g == RegularDigraph(1, 1, ((0,),))

    @pytest.mark.parametrize("text, message", [
        ("digraph 3 1 # header\n1\n2\n0\n", "line 1: bad header 'digraph 3 1 # header'"),
        ("digraph 3 1\n1  # to 1\n2\n0\n", "line 2: non-integer vertex in '1  # to 1'"),
    ])
    def test_trailing_comment_rejected(self, text, message):
        # Only whole lines are comments; a '#' after content is content.
        with pytest.raises(ParseError) as exc:
            parse_graph(text)
        assert str(exc.value) == message

    @pytest.mark.parametrize("text, message", [
        ("", "line 1: empty file"),
        ("# only a comment\n\n", "line 1: empty file"),
        ("\ndigraph 2 x\n0\n1\n", "line 2: non-integer header fields in 'digraph 2 x'"),
    ])
    def test_empty_file_or_non_integer_header(self, text, message):
        with pytest.raises(ParseError) as exc:
            parse_graph(text)
        assert str(exc.value) == message

    def test_missing_lines(self):
        with pytest.raises(ParseError):
            parse_graph("digraph 3 1\n1\n2\n")

    def test_bad_header(self):
        with pytest.raises(ParseError):
            parse_graph("multigraph 2 1\n1\n0\n")

    def test_asymmetric_undirected_rejected(self):
        with pytest.raises(GraphError, match=r"^edge \(0, 1\) present but \(1, 0\) missing$"):
            parse_graph("graph 3 1\n1\n2\n0\n")

    def test_invalid_digraph_rejected(self):
        with pytest.raises(GraphError, match="^vertex 0 has in-degree 0, expected 1$"):
            parse_graph("digraph 2 1\n1\n1\n")

    @pytest.mark.parametrize("text, rows", [
        ("digraph 3 2\n2 0\n1 0\n2 1\n", ((0, 2), (0, 1), (1, 2))),
        ("graph 4 2\n3 1\n2 0\n3 1\n2 0\n", ((1, 3), (0, 2), (1, 3), (0, 2))),
    ])
    def test_out_of_order_tokens_load_sorted(self, text, rows):
        assert parse_graph(text).out_adj == rows

    @pytest.mark.parametrize("text, message", [
        ("digraph 2 2\n1 1\n0 0\n", "duplicate edge (0, 1)"),
        ("graph 4 2\n1 3\n2 0\n3 1\n2 2\n", "duplicate edge (3, 2)"),
    ])
    def test_repeated_token_is_duplicate_edge(self, text, message):
        with pytest.raises(GraphError) as exc:
            parse_graph(text)
        assert str(exc.value) == message


class TestCycleFactor:
    def test_loop_counts_as_1_cycle(self):
        cf = CycleFactor.from_sigma((0, 2, 1))
        assert cf.cycles == ((0,), (1, 2))
        assert cf.num_cycles == 2

    def test_not_a_permutation(self):
        with pytest.raises(BadParameters):
            CycleFactor.from_sigma((0, 0, 1))

    def test_is_factor_of(self):
        g = complete_loops(3)
        assert CycleFactor.from_sigma((1, 2, 0)).is_factor_of(g)
        g1 = RegularDigraph(3, 1, ((1,), (2,), (0,)))
        assert not CycleFactor.from_sigma((2, 0, 1)).is_factor_of(g1)


def reference_cycles(sigma):
    """The cycle walk of CycleFactor.from_sigma, as it ran after a sorted
    check had found sigma a permutation."""
    seen = [False] * len(sigma)
    cycles = []
    for start in range(len(sigma)):
        if seen[start]:
            continue
        cyc = []
        v = start
        while not seen[v]:
            seen[v] = True
            cyc.append(v)
            v = sigma[v]
        cycles.append(tuple(cyc))
    return tuple(cycles)


class TestFromSigmaChecks:
    @pytest.mark.parametrize("sigma", [
        (0, 1, 1),  # a repeated value
        (0, -1, 1),  # a negative value
        (0, 1, 3),  # a value >= n
        (1, 2, 1),  # vertex 0 hangs off the cycle (1 2)
        (1, 0, 0),  # vertex 2 hangs off the cycle (0 1)
    ], ids=["repeated", "negative", "too-large", "tree-at-first", "tree-at-last"])
    def test_not_a_permutation(self, sigma):
        with pytest.raises(BadParameters, match=r"^sigma is not a permutation$"):
            CycleFactor.from_sigma(sigma)

    def test_raises_exactly_when_sorted_check_fails(self):
        for n in range(5):
            for sigma in itertools.product(range(-1, n + 1), repeat=n):
                is_permutation = sorted(sigma) == list(range(n))
                try:
                    cf = CycleFactor.from_sigma(sigma)
                except BadParameters:
                    assert not is_permutation, sigma
                else:
                    assert is_permutation and cf.cycles == reference_cycles(sigma), sigma

    def test_same_cycles_as_before(self):
        rng = random.Random(2)
        for n in (1, 2, 7, 100, 1000):
            for _ in range(20):
                sigma = list(range(n))
                rng.shuffle(sigma)
                assert CycleFactor.from_sigma(sigma).cycles == reference_cycles(sigma)


class TestParseFaults:
    """Rows are converted in one pass; a fault is still named at the first
    bad line in file order, on that line a non-integer before a count."""

    def test_count_fault_before_later_non_integer(self):
        text = "digraph 4 1\n1\n2 3\n# c\nx\n0\n"
        with pytest.raises(ParseError, match=r"^line 3: expected 1 neighbours, found 2$"):
            parse_graph(text)

    def test_non_integer_named_before_count_on_one_line(self):
        with pytest.raises(ParseError, match=r"^line 3: non-integer vertex in '2 x'$"):
            parse_graph("digraph 3 1\n1\n2 x\n0\n")

    def test_non_integer_line_before_a_later_count_fault(self):
        with pytest.raises(ParseError, match=r"^line 2: non-integer vertex in '1 y'$"):
            parse_graph("digraph 3 1\n1 y\n2 0\n0\n")

    @pytest.mark.parametrize("text", [
        "graph 4 2\r\n1 3\r\n0 2\r\n1 3\r\n0 2\r\n",
        "graph 4 2\n1\t3\n\t0 2\n1\t 3 \n 0\t2\t\n",
        "  # lead\n graph  4 2 \n\n1 3\n  # mid\n0 2\n1 3\n0 2",
    ], ids=["crlf", "tabs", "blank-and-comment"])
    def test_whitespace_and_comments_load_the_same_graph(self, text):
        assert parse_graph(text) == gen_family("cycle", 4, 2)

    def test_no_rows_with_a_huge_degree(self):
        # n = 0 builds no row, so the header's d is checked, not allocated.
        with pytest.raises(GraphError, match=r"^need 1 <= d <= n, got d=99999999999999, n=0$"):
            parse_graph("digraph 0 99999999999999\n")

    def test_header_line_counts_leading_comments(self):
        with pytest.raises(ParseError, match=r"^line 3: expected 2 adjacency lines, found 1$"):
            parse_graph("# one\n\ngraph 2 1\n1\n")



def per_row_text(g):
    """The text format written one row at a time, as graph_to_text wrote it
    before its body became one format."""
    kind = "graph" if isinstance(g, UndirectedRegularGraph) else "digraph"
    rows = [" ".join(map(str, row)) for row in g.out_adj]
    return "\n".join([f"{kind} {g.n} {g.d}"] + rows) + "\n"


class TestGraphText:
    """graph_to_text's bytes against the per-row writer."""

    GRAPHS = {
        "complete_loops": lambda: gen_family("complete_loops", 12, 4),
        "clique_union": lambda: gen_family("clique_union", 12, 3),
        "cycle": lambda: gen_family("cycle", 11, 2),
        "complete_bipartite_like": lambda: gen_family("complete_bipartite_like", 12, 3),
        "random": lambda: gen_random_regular_digraph(40, 3, 1),
        "random_no_loops": lambda: gen_random_regular_digraph(40, 4, 2, allow_loops=False),
        "random_no_digons": lambda: gen_random_regular_digraph(40, 5, 3, allow_digons=False),
        "random_neither": lambda: gen_random_regular_digraph(40, 3, 4, False, False),
        "d1": lambda: gen_random_regular_digraph(5, 1, 0),
        "cycle_3000": lambda: gen_family("cycle", 3000, 2),
        "clique_union_2000": lambda: gen_family("clique_union", 2000, 4),
    }

    def test_families_covered(self):
        assert set(FAMILIES) <= set(self.GRAPHS)

    @pytest.mark.parametrize("name", sorted(GRAPHS))
    def test_same_bytes_as_per_row_writer(self, name):
        g = self.GRAPHS[name]()
        assert graph_to_text(g) == per_row_text(g)

    @pytest.mark.parametrize("name", sorted(GRAPHS))
    def test_write_read_round_trip(self, name, tmp_path):
        g = self.GRAPHS[name]()
        path = tmp_path / "g.txt"
        write_graph(g, path)
        assert path.read_bytes() == per_row_text(g).encode()
        back = read_graph(path)
        assert back == g and type(back) is type(g)

_BOUND = BoundCheck("upper", 2.0, 3.5, True)
_FACTOR = CycleFactor((1, 0, 2), ((0, 1), (2,)))
# Each record class: its fields in order, one field changed, and its repr.
RECORDS = [
    (RegularDigraph, {"n": 3, "d": 1, "out_adj": ((1,), (2,), (0,))},
     {"out_adj": ((2,), (0,), (1,))},
     "RegularDigraph(n=3, d=1, out_adj=((1,), (2,), (0,)))"),
    (UndirectedRegularGraph, {"n": 3, "d": 2, "out_adj": ((1, 2), (0, 2), (0, 1))},
     {"n": 4, "out_adj": ((1, 3), (0, 2), (1, 3), (0, 2))},
     "UndirectedRegularGraph(n=3, d=2, out_adj=((1, 2), (0, 2), (0, 1)))"),
    (CycleFactor, {"sigma": (1, 0, 2), "cycles": ((0, 1), (2,))},
     {"cycles": ((0, 1, 2),)},
     "CycleFactor(sigma=(1, 0, 2), cycles=((0, 1), (2,)))"),
    (BoundCheck, {"name": "upper", "lhs": 2.0, "rhs": 3.5, "holds": True},
     {"holds": False},
     "BoundCheck(name='upper', lhs=2.0, rhs=3.5, holds=True)"),
    (OracleReport, {"n": 3, "d": 1, "matching_count": 1, "expected_cycles": Fraction(1, 3),
                    "entropy_loss": 0.0, "bound_audit": (_BOUND,)},
     {"expected_cycles": Fraction(2, 3)},
     "OracleReport(n=3, d=1, matching_count=1, expected_cycles=Fraction(1, 3), entropy_loss=0.0, "
     "bound_audit=(BoundCheck(name='upper', lhs=2.0, rhs=3.5, holds=True),))"),
    (SkewCheck, {"max_p": 0.5, "ell": 0.0, "bound": 1.0, "holds": True},
     {"ell": 0.25},
     "SkewCheck(max_p=0.5, ell=0.0, bound=1.0, holds=True)"),
    (RevealAuditReport, {"n": 3, "d": 1, "uniform": True, "tally_failures": (),
                         "aggregated_loss": 0.0, "direct_loss": 0.0},
     {"tally_failures": ("arc (0, 1)",)},
     "RevealAuditReport(n=3, d=1, uniform=True, tally_failures=(), aggregated_loss=0.0, direct_loss=0.0)"),
    (SamplerConfig, {"backend": "mcmc", "mcmc_steps": 10, "num_samples": 2, "seed": 3},
     {"seed": 4},
     "SamplerConfig(backend='mcmc', mcmc_steps=10, num_samples=2, seed=3)"),
    (MinFactorResult, {"factor": _FACTOR, "cycle_counts": (2, 3), "backend": "exact"},
     {"backend": "mcmc"},
     "MinFactorResult(factor=CycleFactor(sigma=(1, 0, 2), cycles=((0, 1), (2,))), "
     "cycle_counts=(2, 3), backend='exact')"),
    (PathFactor, {"paths": ((0, 1), (2,))}, {"paths": ((0, 1, 2),)}, "PathFactor(paths=((0, 1), (2,)))"),
    (Tour, {"walk": (0, 1, 2, 0)}, {"walk": (0, 2, 1, 0)}, "Tour(walk=(0, 1, 2, 0))"),
    (CheckReport, {"ok": False, "violations": ("bad",)}, {"violations": ()},
     "CheckReport(ok=False, violations=('bad',))"),
]


class TestRecords:
    """Every frozen record class compares, hashes, shows and pickles its
    value fields, in order, and refuses assignment."""

    @pytest.mark.parametrize("cls,fields,change,text", RECORDS, ids=[r[0].__name__ for r in RECORDS])
    def test_value_semantics(self, cls, fields, change, text):
        rec = cls(*fields.values())
        assert cls(**fields) == rec and not cls(**fields) != rec
        assert cls(**{**fields, **change}) != rec
        assert hash(rec) == hash(tuple(fields.values()))
        assert repr(rec) == text
        assert pickle.loads(pickle.dumps(rec, pickle.HIGHEST_PROTOCOL)) == rec
        # Equality needs the exact class, not a subclass with the same value.
        assert type("Sub", (cls,), {})(**fields) != rec
        for name, value in fields.items():
            assert getattr(rec, name) == value
            with pytest.raises(AttributeError):
                setattr(rec, name, value)
            with pytest.raises(AttributeError):
                delattr(rec, name)

    @pytest.mark.parametrize("cls,fields", [r[:2] for r in RECORDS], ids=[r[0].__name__ for r in RECORDS])
    def test_constructor_refusals(self, cls, fields):
        # Each field is taken once, by position or keyword, as a plain
        # signature takes it. Every SamplerConfig field has a default, so
        # leaving one out is no error there.
        values = tuple(fields.values())
        first, *rest = fields
        calls = [
            ("one positional too many", values + values[-1:], {}),
            ("a field both ways", values, {first: values[0]}),
            ("an unknown keyword", values, {"bogus": 1}),
        ]
        if cls is not SamplerConfig:
            calls.append(("a field missing", (), {name: fields[name] for name in rest}))
        for what, args, kwargs in calls:
            with pytest.raises(TypeError):
                cls(*args, **kwargs)
                pytest.fail(f"{cls.__name__} took {what}")

    def test_in_adj_is_never_compared(self):
        g = RegularDigraph(3, 1, ((1,), (2,), (0,)))
        h = RegularDigraph(3, 1, g.out_adj)
        object.__setattr__(h, "in_adj", ())
        assert h == g
        with pytest.raises(AttributeError):
            g.in_adj = ()

    def test_defaults(self):
        assert SamplerConfig(seed=3) == SamplerConfig("auto", None, None, 3)
        assert SamplerConfig() == SamplerConfig(seed=0)
