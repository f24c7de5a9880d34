import random
from collections import deque

import pytest

from cyclefactor.errors import BadParameters
from cyclefactor.exact import build_report, cycle_law
from cyclefactor.graphs import (
    CycleFactor,
    UndirectedRegularGraph,
    double_undirected,
    gen_family,
)
from cyclefactor.sampling import ExactFactorSampler, MCMCFactorSampler, SamplerConfig, min_cycle_factor
from cyclefactor.transforms import (
    CheckReport,
    PathFactor,
    Tour,
    _cycle_index,
    to_path_factor,
    to_tour,
    to_undirected_cycle_factor,
    verify_path_factor,
    verify_tour,
)
from factor_listing import enumerate_cycle_factors

# Outer 5-cycle 0..4, inner pentagram 5-7-9-6-8, spokes i -- i + 5.
PETERSEN = UndirectedRegularGraph.from_lists(
    10,
    3,
    [[1, 4, 5], [0, 2, 6], [1, 3, 7], [2, 4, 8], [0, 3, 9],
     [0, 7, 8], [1, 8, 9], [2, 5, 9], [3, 5, 6], [4, 6, 7]],
)


class TestUndirectedAsDigraph:
    """An undirected graph goes to the digraph APIs as itself."""

    @pytest.mark.parametrize(
        "g", [PETERSEN, gen_family("clique_union", 8, 3)], ids=["petersen", "clique_union"]
    )
    def test_same_results_as_doubled(self, g):
        doubled = double_undirected(g)
        assert build_report(g) == build_report(doubled)
        assert cycle_law(g) == cycle_law(doubled)
        for backend in ("exact", "mcmc"):
            cfg = SamplerConfig(backend=backend, seed=5)
            assert min_cycle_factor(g, cfg) == min_cycle_factor(doubled, cfg)


class TestUndirectedCycleFactor:
    def test_hamilton_cycle_on_c4(self):
        c4 = gen_family("cycle", 4, 2)
        cf = CycleFactor.from_sigma((1, 2, 3, 0))
        assert to_undirected_cycle_factor(cf, c4) == ((0, 1, 2, 3),)

    def test_two_digons_on_c4(self):
        c4 = gen_family("cycle", 4, 2)
        cf = CycleFactor.from_sigma((1, 0, 3, 2))
        assert to_undirected_cycle_factor(cf, c4) == ((0, 1), (2, 3))

    def test_all_factors_of_doubled_k4(self):
        k4 = gen_family("clique_union", 4, 3)
        for cf in enumerate_cycle_factors(double_undirected(k4)):
            cycles = to_undirected_cycle_factor(cf, k4)
            assert sorted(v for c in cycles for v in c) == [0, 1, 2, 3]
            assert all(len(c) in (2, 3, 4) for c in cycles)

    def test_rejects_foreign_factor(self):
        c4 = gen_family("cycle", 4, 2)
        with pytest.raises(BadParameters):
            to_undirected_cycle_factor(CycleFactor.from_sigma((2, 3, 0, 1)), c4)


class TestPathFactor:
    def test_cycle_becomes_path(self):
        c4 = gen_family("cycle", 4, 2)
        pf = to_path_factor(((0, 1, 2, 3),), c4)
        assert pf.num_paths == 1
        assert len(pf.paths[0]) == 4
        assert verify_path_factor(pf, c4).ok

    def test_digons_keep_their_edge(self):
        c4 = gen_family("cycle", 4, 2)
        pf = to_path_factor(((0, 1), (2, 3)), c4)
        assert pf.paths == ((0, 1), (2, 3))

    def test_path_count_equals_cycle_count(self):
        rng = random.Random(0)
        k8 = gen_family("clique_union", 8, 7)
        doubled = double_undirected(k8)
        sampler = ExactFactorSampler(doubled)
        r = random.Random(1)
        for _ in range(25):
            cf = sampler.sample(r)
            cycles = to_undirected_cycle_factor(cf, k8)
            pf = to_path_factor(cycles, k8)
            assert pf.num_paths == len(cycles)
            assert verify_path_factor(pf, k8).ok

    def test_deterministic_edge_removal(self):
        c5 = gen_family("cycle", 5, 2)
        # The removed edge is the closing one, back to vertex 0: the path is
        # the cycle, both ways round.
        for cycles in (((0, 1, 2, 3, 4),), ((0, 4, 3, 2, 1),)):
            assert to_path_factor(cycles, c5) == to_path_factor(cycles, c5)
            assert to_path_factor(cycles, c5).paths == cycles

    @pytest.mark.parametrize("cycles", [((0, 1, 2, -1),), ((0, 1, 2, 4),)])
    def test_out_of_range_vertex_rejected(self, cycles):
        c4 = gen_family("cycle", 4, 2)
        with pytest.raises(BadParameters, match="out of range"):
            to_path_factor(cycles, c4)

    def test_vertex_in_two_cycles_rejected(self):
        c4 = gen_family("cycle", 4, 2)
        with pytest.raises(BadParameters, match="^vertex 1 appears in two cycles$"):
            to_path_factor(((0, 1), (1, 2, 3)), c4)

    def test_incomplete_cover_rejected(self):
        c4 = gen_family("cycle", 4, 2)
        with pytest.raises(BadParameters, match="^cycles do not cover every vertex$"):
            to_path_factor(((0, 1),), c4)


class TestTour:
    def test_hamilton_cycle_gives_length_n(self):
        c6 = gen_family("cycle", 6, 2)
        t = to_tour(((0, 1, 2, 3, 4, 5),), c6)
        assert t.length == 6
        assert verify_tour(t, c6).ok

    def test_three_digons_on_c6(self):
        c6 = gen_family("cycle", 6, 2)
        t = to_tour(((0, 1), (2, 3), (4, 5)), c6)
        assert verify_tour(t, c6).ok
        assert t.length <= 6 + 2 * (3 - 1)

    def test_petersen_sampled_factors(self):
        doubled = double_undirected(PETERSEN)
        sampler = ExactFactorSampler(doubled)
        rng = random.Random(5)
        for _ in range(15):
            cf = sampler.sample(rng)
            cycles = to_undirected_cycle_factor(cf, PETERSEN)
            t = to_tour(cycles, PETERSEN)
            assert verify_tour(t, PETERSEN).ok
            # A factor has no singleton, so each detour adds exactly 2.
            assert t.length == 10 + 2 * (len(cycles) - 1)

    def test_disconnected_rejected(self):
        g = gen_family("clique_union", 8, 3)
        with pytest.raises(BadParameters, match="^tour construction needs a connected graph$"):
            to_tour(((0, 1, 2, 3), (4, 5, 6, 7)), g)

    def test_disconnected_path_factor_still_works(self):
        g = gen_family("clique_union", 8, 3)
        result = min_cycle_factor(double_undirected(g), SamplerConfig(seed=8))
        cycles = to_undirected_cycle_factor(result.factor, g)
        pf = to_path_factor(cycles, g)
        assert verify_path_factor(pf, g).ok
        assert pf.num_paths >= 8 // (3 + 1)

    def test_long_digon_factor(self):
        # 3000 digons in a path of detours, deeper than the recursion limit.
        c = gen_family("cycle", 6000, 2)
        cycles = tuple((2 * i, 2 * i + 1) for i in range(3000))
        t = to_tour(cycles, c)
        assert verify_tour(t, c).ok
        assert t.length == 6000 + 2 * (3000 - 1)

    def test_incomplete_cover_rejected(self):
        c4 = gen_family("cycle", 4, 2)
        with pytest.raises(BadParameters, match="^cycles do not cover every vertex$"):
            to_tour(((0, 1),), c4)

    def test_vertex_in_two_cycles_rejected(self):
        c4 = gen_family("cycle", 4, 2)
        with pytest.raises(BadParameters, match="^vertex 1 appears in two cycles$"):
            to_tour(((0, 1), (1, 2, 3)), c4)

    @pytest.mark.parametrize("cycles", [((0, 1, 2, -1),), ((0, 1, 2, 4),)])
    def test_out_of_range_vertex_rejected(self, cycles):
        c4 = gen_family("cycle", 4, 2)
        with pytest.raises(BadParameters, match="out of range"):
            to_tour(cycles, c4)


class TestVerifiers:
    def test_valid_tour_accepted(self):
        c4 = gen_family("cycle", 4, 2)
        assert verify_tour(Tour((0, 1, 2, 3, 0)), c4).ok

    def test_missing_vertex_rejected(self):
        c4 = gen_family("cycle", 4, 2)
        report = verify_tour(Tour((0, 1, 0)), c4)
        assert not report.ok
        assert any("UncoveredVertex" in v for v in report.violations)

    def test_open_walk_rejected(self):
        c4 = gen_family("cycle", 4, 2)
        report = verify_tour(Tour((0, 1, 2, 3)), c4)
        assert any("NotClosed" in v for v in report.violations)

    def test_non_edge_rejected(self):
        c4 = gen_family("cycle", 4, 2)
        report = verify_tour(Tour((0, 2, 0)), c4)
        assert any("NonEdge" in v for v in report.violations)

    @pytest.mark.parametrize("v", [5, -1])
    def test_tour_out_of_range_vertex_reported(self, v):
        c4 = gen_family("cycle", 4, 2)
        report = verify_tour(Tour((0, v, 0)), c4)
        assert report.violations == (
            f"IndexOutOfRange: {v}", "UncoveredVertex: 1", "UncoveredVertex: 2", "UncoveredVertex: 3"
        )

    @pytest.mark.parametrize("v", [7, -1])
    def test_path_factor_out_of_range_vertex_reported(self, v):
        c4 = gen_family("cycle", 4, 2)
        report = verify_path_factor(PathFactor(((v, 0), (1, 2, 3))), c4)
        assert report.violations == (f"IndexOutOfRange: {v}",)

    @pytest.mark.parametrize("paths, violations", [
        (((), (0, 1, 2, 3)), ("EmptyPath",)),
        (((0, 2), (1,), (3,)), ("NonEdge: (0, 2)",)),
        (((0, 1),), ("UncoveredVertex: 2", "UncoveredVertex: 3")),
    ], ids=["empty-path", "non-edge", "uncovered"])
    def test_path_factor_violations(self, paths, violations):
        c4 = gen_family("cycle", 4, 2)
        assert verify_path_factor(PathFactor(paths), c4) == CheckReport(False, violations)

    def test_empty_walk_rejected(self):
        c4 = gen_family("cycle", 4, 2)
        assert verify_tour(Tour(()), c4) == CheckReport(False, ("EmptyWalk",))

    def test_vertex_reuse_rejected(self):
        c4 = gen_family("cycle", 4, 2)
        report = verify_path_factor(PathFactor(((0, 1), (1, 2), (3,))), c4)
        assert any("VertexReuse" in v for v in report.violations)

    def test_round_trip_property(self):
        rng = random.Random(9)
        for n, d in [(6, 2), (8, 3), (8, 7), (10, 3)]:
            g = gen_family("cycle", n, 2) if d == 2 else (
                PETERSEN if (n, d) == (10, 3) else gen_family("clique_union", n, d)
            )
            if not g.is_connected():
                continue
            doubled = double_undirected(g)
            sampler = ExactFactorSampler(doubled)
            for _ in range(10):
                cf = sampler.sample(rng)
                cycles = to_undirected_cycle_factor(cf, g)
                assert verify_tour(to_tour(cycles, g), g).ok
                assert verify_path_factor(to_path_factor(cycles, g), g).ok


class TestPathIsCycle:
    def test_every_cycle_of_sampled_factors(self):
        # The circulant i ~ i +- 1, i +- 5 has factors with long cycles.
        n = 40
        g = UndirectedRegularGraph.from_lists(
            n, 4, [[(i + s) % n for s in (-5, -1, 1, 5)] for i in range(n)]
        )
        sampler = MCMCFactorSampler(double_undirected(g), 4000)
        rng = random.Random(4)
        lengths = set()
        for _ in range(200):
            cycles = sampler.sample(rng).cycles
            lengths.update(map(len, cycles))
            # Every rotation, both ways round: each cycle is cut at its
            # closing edge, wherever it starts.
            for turn in (cycles, tuple(c[::-1] for c in cycles)):
                for r in range(max(map(len, turn))):
                    rotated = tuple(c[r % len(c):] + c[:r % len(c)] for c in turn)
                    pf = to_path_factor(rotated, g)
                    assert pf.paths == rotated
                    assert verify_path_factor(pf, g).ok
        assert max(lengths) > 20 and {2, 3} & lengths


def reference_tour(cycles, g):
    """to_tour as it was before it kept one tree: the BFS stored a
    (parent-side, child-side) edge and a visited flag per cycle, and the
    detours went in one dict per cycle, each child appended as the BFS
    reached it."""
    cyc_of = _cycle_index(cycles, g.n)
    c = len(cycles)
    root = cyc_of[0]
    parent_link = [None] * c
    visited = [False] * c
    visited[root] = True
    detours = [dict() for _ in range(c)]
    queue = deque([root])
    while queue:
        ci = queue.popleft()
        for u in cycles[ci]:
            for v in g.out_adj[u]:
                cj = cyc_of[v]
                if not visited[cj]:
                    visited[cj] = True
                    parent_link[cj] = (u, v)
                    detours[ci].setdefault(u, []).append(cj)
                    queue.append(cj)
    if not all(visited):
        raise BadParameters("tour construction needs a connected graph")
    walk = []
    todo = [(root, 0)]
    while todo:
        item = todo.pop()
        if not isinstance(item, tuple):
            walk.append(item)
            continue
        ci, entry = item
        cyc = cycles[ci]
        start = cyc.index(entry)
        seq = []
        for w in cyc[start:] + cyc[:start]:
            seq.append(w)
            for cj in detours[ci].get(w, ()):
                seq += [(cj, parent_link[cj][1]), w]
        if len(cyc) >= 2:
            seq.append(entry)
        todo += reversed(seq)
    return Tour(tuple(walk))


def _tour_or_refusal(build, cycles, g):
    try:
        return build(cycles, g)
    except BadParameters as e:
        return str(e)


class TestTourReference:
    """to_tour gives the walk, or the refusal, of the version before it."""

    def test_random_partitions(self):
        # The "cycles" are any partition of the vertices, singletons
        # included: the tree and its detours depend only on the partition
        # and g. The circulant i ~ i +- s for s in shifts is disconnected
        # when n and all its shifts have a common factor.
        rng = random.Random(11)
        graphs = [PETERSEN]
        for n in range(5, 17):
            for _ in range(3):
                shifts = rng.sample(range(1, (n - 1) // 2 + 1), rng.randint(1, min(3, (n - 1) // 2)))
                graphs.append(UndirectedRegularGraph.from_lists(
                    n, 2 * len(shifts), [[(i + s) % n for s in shifts + [-s for s in shifts]] for i in range(n)]
                ))
        outcomes = set()
        for g in graphs:
            for _ in range(20):
                order = rng.sample(range(g.n), g.n)
                cuts = sorted(rng.sample(range(1, g.n), rng.randint(0, g.n - 1)))
                cycles = tuple(tuple(order[a:b]) for a, b in zip([0] + cuts, cuts + [g.n]))
                got = _tour_or_refusal(to_tour, cycles, g)
                assert got == _tour_or_refusal(reference_tour, cycles, g)
                outcomes.add(type(got))
                outcomes.add(min(map(len, cycles)))
        assert outcomes >= {Tour, str, 1, 2}

    def test_long_digon_factor(self):
        c = gen_family("cycle", 6000, 2)
        cycles = tuple((2 * i, 2 * i + 1) for i in range(3000))
        for turn in (cycles, cycles[::-1], tuple(cyc[::-1] for cyc in cycles)):
            assert to_tour(turn, c) == reference_tour(turn, c)


C4 = gen_family("cycle", 4, 2)


class TestVerifierFastPath:
    """The verifiers pass valid input through one all-pass test and scan
    only when it fails. Each input here fails one part of that test, or is
    valid only when steps are read within paths; the tuples are the scan's."""

    @pytest.mark.parametrize("walk, violations", [
        ((0, 1, 2, 3, 0), ()),
        ((0, 1, 0), ("UncoveredVertex: 2", "UncoveredVertex: 3")),
        ((0, 1, 2, 3), ("NotClosed: starts 0, ends 3",)),
        ((0, 2, 0), ("NonEdge: (0, 2)", "NonEdge: (2, 0)", "UncoveredVertex: 1", "UncoveredVertex: 3")),
        ((0, 1, 2, 3, 1, 0), ("NonEdge: (3, 1)",)),
        ((0, 1, 2, 3, -1, 0), ("IndexOutOfRange: -1",)),
        ((0, 1, 2, 3, 4, 0), ("IndexOutOfRange: 4",)),
        ((0, 1, 2, 3, 2, 1), ("NotClosed: starts 0, ends 1",)),
        # A tour may repeat vertices; the scan names no reuse.
        ((0, 1, 2, 1, 0, 3, 0), ()),
        ((0, 1, 0, 1, 0), ("UncoveredVertex: 2", "UncoveredVertex: 3")),
        # An open walk is named before the scan's faults.
        ((0, 2, 1), ("NotClosed: starts 0, ends 1", "NonEdge: (0, 2)", "UncoveredVertex: 3")),
        ((3, 9, 1), ("NotClosed: starts 3, ends 1", "IndexOutOfRange: 9", "UncoveredVertex: 0",
                     "UncoveredVertex: 2")),
    ])
    def test_tour(self, walk, violations):
        assert verify_tour(Tour(walk), C4) == CheckReport(not violations, violations)

    @pytest.mark.parametrize("paths, violations", [
        (((0, 1), (3, 2)), ()),
        (((0,), (2,), (1,), (3,)), ()),
        (((3, 0, 1, 2),), ()),
        (((0, 1), (1, 2), (3,)), ("VertexReuse: 1",)),
        (((0, 1), (1, 2)), ("VertexReuse: 1", "UncoveredVertex: 3")),
        (((0, 1, 2, 3), (-1,)), ("IndexOutOfRange: -1",)),
        (((0, 1, 2), (-1,)), ("IndexOutOfRange: -1", "UncoveredVertex: 3")),
        (((1, 3), (0, 2)), ("NonEdge: (1, 3)", "NonEdge: (0, 2)")),
        # An empty path is named in its place among the other faults.
        (((0, 2), (), (1,)), ("NonEdge: (0, 2)", "EmptyPath", "UncoveredVertex: 3")),
        (((), (1, 1), (5, 2)), ("EmptyPath", "VertexReuse: 1", "NonEdge: (1, 1)", "IndexOutOfRange: 5",
                                "UncoveredVertex: 0", "UncoveredVertex: 3")),
        # A step with an end out of range is no NonEdge.
        (((0, 1, 7, 2, 3),), ("IndexOutOfRange: 7",)),
        (((-2, 0), (1, 2, 3)), ("IndexOutOfRange: -2",)),
    ])
    def test_path_factor(self, paths, violations):
        assert verify_path_factor(PathFactor(paths), C4) == CheckReport(not violations, violations)
