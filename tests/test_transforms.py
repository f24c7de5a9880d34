import random

import pytest

from cyclefactor.errors import BadParameters, GraphDisconnected
from cyclefactor.graphs import (
    CycleFactor,
    UndirectedRegularGraph,
    double_undirected,
    gen_family,
)
from cyclefactor.sampling import ExactFactorSampler, SamplerConfig, min_cycle_factor
from cyclefactor.transforms import (
    PathFactor,
    Tour,
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
        cycles = ((0, 1, 2, 3, 4),)
        assert to_path_factor(cycles, c5) == to_path_factor(cycles, c5)
        # the removed edge is (4, 3): walk restarts right after it
        assert to_path_factor(cycles, c5).paths[0][0] == 4

    @pytest.mark.parametrize("cycles", [((0, 1, 2, -1),), ((0, 1, 2, 4),)])
    def test_out_of_range_vertex_rejected(self, cycles):
        c4 = gen_family("cycle", 4, 2)
        with pytest.raises(BadParameters, match="out of range"):
            to_path_factor(cycles, c4)


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
            assert t.length <= 10 + 2 * (len(cycles) - 1)

    def test_disconnected_rejected(self):
        g = gen_family("clique_union", 8, 3)
        with pytest.raises(GraphDisconnected):
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
        with pytest.raises(BadParameters):
            to_tour(((0, 1),), c4)

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
