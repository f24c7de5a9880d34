import hashlib
import math
import os
import random
import statistics
import threading
import time
from collections import Counter
from fractions import Fraction

import pytest
from scipy.stats import chi2_contingency, chisquare

from cyclefactor import exact, sampling
from cyclefactor.errors import BadParameters, SizeLimitExceeded, StepBudgetExhausted
from cyclefactor.exact import build_report
from cyclefactor.graphs import (
    RegularDigraph,
    double_undirected,
    gen_family,
    gen_random_regular_digraph,
)
from cyclefactor.sampling import (
    ExactFactorSampler,
    MCMCFactorSampler,
    SamplerConfig,
    derive_seed,
    hopcroft_karp,
    min_cycle_factor,
)
from cyclefactor.graphs import to_bipartite
from factor_listing import enumerate_cycle_factors
from hopcroft_karp_reference import hopcroft_karp as reference_hopcroft_karp
from lazy_chain import lazy_draw
import mcmc_stream


def complete_loops(n):
    return gen_family("complete_loops", n, n)


def directed_cycle(n):
    return RegularDigraph(n, 1, tuple(((i + 1) % n,) for i in range(n)))


class TestDeriveSeed:
    def test_deterministic_and_distinct(self):
        seeds = [derive_seed(42, i) for i in range(100)]
        assert seeds == [derive_seed(42, i) for i in range(100)]
        assert len(set(seeds)) == 100

    def test_64_bit(self):
        assert 0 <= derive_seed(2**64 - 1, 999) < 2**64


class TestHopcroftKarp:
    def test_perfect_on_regular(self):
        for seed in range(10):
            g = gen_random_regular_digraph(9, 3, seed)
            match = hopcroft_karp(to_bipartite(g))
            assert sorted(match) == list(range(9))
            assert all(v in g.out_adj[u] for u, v in enumerate(match))

    def test_deterministic(self):
        h = to_bipartite(gen_random_regular_digraph(8, 2, 7))
        assert hopcroft_karp(h) == hopcroft_karp(h)


class TestHopcroftKarpReference:
    """The first-fit first phase and the per-phase root list give the
    matching of the all-BFS version in tests/hopcroft_karp_reference.py."""

    def test_every_small_random_digraph(self):
        for n in range(1, 13):
            for d in range(1, n + 1):
                for seed in range(5):
                    rows = gen_random_regular_digraph(n, d, seed).out_adj
                    assert hopcroft_karp(rows) == reference_hopcroft_karp(rows), (n, d, seed)

    @pytest.mark.parametrize("n, d", [(100, 2), (250, 3), (500, 4), (1000, 5), (2000, 6), (2000, 2)])
    def test_large_random_digraphs(self, n, d):
        rows = gen_random_regular_digraph(n, d, n + d).out_adj
        assert hopcroft_karp(rows) == reference_hopcroft_karp(rows)

    @pytest.mark.parametrize("kind, n, d", [
        ("cycle", 1000, 2), ("clique_union", 1000, 3), ("complete_bipartite_like", 1002, 3),
    ])
    def test_doubled_families(self, kind, n, d):
        rows = double_undirected(gen_family(kind, n, d)).out_adj
        assert hopcroft_karp(rows) == reference_hopcroft_karp(rows)

    def test_rows_that_stay_unmatched(self):
        # Not regular: empty rows, and rows fighting over few columns.
        rng = random.Random(1)
        for _ in range(300):
            n = rng.randint(1, 40)
            rows = [sorted(rng.sample(range(n), rng.randint(0, min(n, 4)))) for _ in range(n)]
            assert hopcroft_karp(rows) == reference_hopcroft_karp(rows), rows


class TestExactSampler:
    def test_unique_factor(self):
        g = directed_cycle(3)
        for seed in range(5):
            assert ExactFactorSampler(g).sample(random.Random(seed)).sigma == (1, 2, 0)

    def test_deterministic_given_seed(self):
        g = complete_loops(5)
        draws = [ExactFactorSampler(g).sample(random.Random(123)).sigma for _ in range(2)]
        assert draws[0] == draws[1]

    def test_samples_are_valid_factors(self):
        rng = random.Random(0)
        for _ in range(20):
            n = rng.randint(1, 8)
            d = rng.randint(1, n)
            g = gen_random_regular_digraph(n, d, rng.randrange(10**6))
            sampler = ExactFactorSampler(g)
            r = random.Random(1)
            for _ in range(20):
                assert sampler.sample(r).is_factor_of(g)

    def test_random_48_3_fits_the_default_budget(self):
        # 99,653 table entries in push order; the order that took the row
        # with the most columns touched needed 1,508,934, past 2^20.
        g = gen_random_regular_digraph(48, 3, 1)
        sampler = ExactFactorSampler(g)
        assert sampler.total == 10529610
        rng = random.Random(1)
        assert all(sampler.sample(rng).is_factor_of(g) for _ in range(20))

    def test_doubled_c200_past_61_columns_is_uniform(self):
        # The int keys 2^c and 2^(c+61) share a hash; here the columns run
        # to 199. The four factors: two Hamilton cycles, two of 100 digons.
        g = double_undirected(gen_family("cycle", 200, 2))
        sampler = ExactFactorSampler(g)
        assert sampler.total == 4
        rng = random.Random(3)
        counts = Counter(sampler.sample(rng).sigma for _ in range(400))
        assert len(counts) == 4
        assert chisquare(list(counts.values())).pvalue >= 1e-3

    def test_golden_draws(self):
        # Pins every exact draw of seeds 0-19 on three instances.
        graphs = [gen_random_regular_digraph(16, 3, 1), gen_random_regular_digraph(20, 3, 1),
                  double_undirected(gen_family("cycle", 200, 2))]
        sigmas = []
        for g in graphs:
            sampler = ExactFactorSampler(g)
            sigmas += [sampler.sample(random.Random(seed)).sigma for seed in range(20)]
        digest = hashlib.sha256(repr(sigmas).encode()).hexdigest()
        assert digest == "8b2e883ace9e22801d202f5b6c62563f32df89b8465c49133a086b5fd3727cd1"

    def test_uniform_frequencies_complete_3(self):
        g = complete_loops(3)
        sampler = ExactFactorSampler(g)
        rng = random.Random(7)
        draws = 30_000
        counts = Counter(sampler.sample(rng).sigma for _ in range(draws))
        assert len(counts) == 6
        p = 1 / 6
        sigma3 = 3 * math.sqrt(draws * p * (1 - p))
        for c in counts.values():
            assert abs(c - draws * p) <= sigma3

    def test_mean_cycles_matches_oracle_complete_5(self):
        g = complete_loops(5)
        exp = float(build_report(g).expected_cycles)  # H_5 = 137/60
        sampler = ExactFactorSampler(g)
        rng = random.Random(11)
        draws = 20_000
        obs = [sampler.sample(rng).num_cycles for _ in range(draws)]
        mean = statistics.fmean(obs)
        sigma = statistics.stdev(obs) / math.sqrt(draws)
        assert abs(mean - exp) <= 4 * sigma

    def test_state_budget(self, monkeypatch):
        # K8's table holds all 2^8 = 256 column sets; no level holds more than 70.
        monkeypatch.setattr(exact, "MAX_STATES", 255)
        with pytest.raises(SizeLimitExceeded):
            ExactFactorSampler(complete_loops(8))
        monkeypatch.setattr(exact, "MAX_STATES", 256)
        assert ExactFactorSampler(complete_loops(8)).total == math.factorial(8)

    def test_doubled_c40_past_n20(self):
        doubled = double_undirected(gen_family("cycle", 40, 2))
        sampler = ExactFactorSampler(doubled)
        assert sampler.total == 4
        rng = random.Random(0)
        assert all(sampler.sample(rng).is_factor_of(doubled) for _ in range(20))


class TestMCMCSampler:
    def test_unique_factor(self):
        g = directed_cycle(3)
        cf = MCMCFactorSampler(g, 100).sample(random.Random(1))
        assert cf.sigma == (1, 2, 0)

    def test_samples_are_valid_factors(self):
        rng = random.Random(0)
        for _ in range(10):
            n = rng.randint(2, 10)
            d = rng.randint(1, n)
            g = gen_random_regular_digraph(n, d, rng.randrange(10**6))
            sampler = MCMCFactorSampler(g, 300)
            r = random.Random(2)
            for _ in range(10):
                assert sampler.sample(r).is_factor_of(g)

    def test_tv_distance_complete_4(self):
        g = complete_loops(4)
        factors = {f.sigma: 0 for f in enumerate_cycle_factors(g)}
        sampler = MCMCFactorSampler(g, 2000)
        rng = random.Random(3)
        draws = 3000
        for _ in range(draws):
            factors[sampler.sample(rng).sigma] += 1
        tv = 0.5 * sum(abs(c / draws - 1 / 24) for c in factors.values())
        assert tv <= 0.1

    def test_mean_cycles_near_oracle(self):
        g = gen_random_regular_digraph(6, 3, 5)
        exp = float(build_report(g).expected_cycles)
        sampler = MCMCFactorSampler(g, 2000)
        rng = random.Random(4)
        draws = 2000
        obs = [sampler.sample(rng).num_cycles for _ in range(draws)]
        mean = statistics.fmean(obs)
        sigma = statistics.stdev(obs) / math.sqrt(draws)
        assert abs(mean - exp) <= max(4 * sigma, 0.1)

    @pytest.mark.parametrize(
        "g,expected",
        [
            # Four blocks, each a uniform derangement of 4 (6 with one
            # cycle, 3 with two): E = 4 * 12/9.
            (double_undirected(gen_family("clique_union", 16, 3)), Fraction(16, 3)),
            # Four blocks, each a uniform permutation of 4: E = 4 * H_4.
            (gen_family("complete_loops", 16, 4), Fraction(25, 3)),
        ],
        ids=["doubled_clique_union_16_3", "complete_loops_16_4"],
    )
    def test_default_budget_matches_oracle(self, g, expected):
        # With these draws both instances miss E by 6-9 SE at 0.2 n^2 d
        # steps, so a default cut that far fails here.
        exp = float(expected)
        sampler = MCMCFactorSampler(g, SamplerConfig().resolve_steps(g))
        rng = random.Random(61)
        draws = 1000
        obs = [sampler.sample(rng).num_cycles for _ in range(draws)]
        se = statistics.stdev(obs) / math.sqrt(draws)
        assert abs(statistics.fmean(obs) - exp) <= 4 * se

    def test_default_budget_matches_oracle_at_64(self):
        # Sixteen blocks, each a uniform permutation of 4: E = 16 * H_4.
        # With these draws the mean misses E by about 30 SE at 0.5 n d
        # ceil(log2 n) steps, so a default cut that far fails here
        # (README, "MCMC step budget").
        g = gen_family("complete_loops", 64, 4)
        sampler = MCMCFactorSampler(g, SamplerConfig().resolve_steps(g))
        rng = random.Random(64)
        draws = 1000
        obs = [sampler.sample(rng).num_cycles for _ in range(draws)]
        se = statistics.stdev(obs) / math.sqrt(draws)
        assert abs(statistics.fmean(obs) - 100 / 3) <= 4 * se

    def test_default_budget_matches_oracle_doubled_cycle_256(self):
        # Two Hamilton cycles and two digon factors: E = (1 + 128) / 2.
        # The sweep's largest failing multiple, 2 n d ceil(log2 n) steps,
        # failed only on doubled cycles of 128 and 256 vertices; here the
        # mean is then about 10 SE high at 2,000 draws, so a default cut
        # that far fails with these 600.
        g = double_undirected(gen_family("cycle", 256, 2))
        sampler = MCMCFactorSampler(g, SamplerConfig().resolve_steps(g))
        rng = random.Random(256)
        draws = 600
        obs = [sampler.sample(rng).num_cycles for _ in range(draws)]
        se = statistics.stdev(obs) / math.sqrt(draws)
        assert abs(statistics.fmean(obs) - 64.5) <= 4 * se

    @pytest.mark.parametrize("g", [directed_cycle(1), complete_loops(2)], ids=["n1", "n2"])
    def test_default_budget_positive_at_small_n(self, g):
        # ceil(log2 n) is 0 at n = 1; the default still runs the chain.
        cfg = SamplerConfig(backend="mcmc")
        assert cfg.resolve_steps(g) == 20 * g.n * g.d
        result = min_cycle_factor(g, cfg)
        assert result.factor.is_factor_of(g)

    def test_bad_step_budget(self):
        with pytest.raises(BadParameters):
            MCMCFactorSampler(complete_loops(3), 0)


class TestMCMCDrawsPinned:
    """Draws of the chain pinned by seed: the factors that the burn-in's
    one binomial count of moves, then the lazy steps from the budget on,
    return from each seed's random stream. A faster step loop must return
    the same ones; a change that reads the stream otherwise re-pins them,
    and TestBurnInLaw checks that the law did not move."""

    GRAPHS = {
        "complete_loops": lambda: gen_family("complete_loops", 6, 3),
        "doubled_clique_union": lambda: double_undirected(gen_family("clique_union", 8, 3)),
        "doubled_cycle": lambda: double_undirected(gen_family("cycle", 8, 2)),
        "random": lambda: gen_random_regular_digraph(10, 3, 5),
    }
    # (graph, step budget) -> sigma of the draw from random.Random(seed), seeds 0..3
    SIGMAS = {
        ("complete_loops", 1): [(0, 1, 2, 3, 4, 5)] * 4,
        ("complete_loops", 2): [(0, 1, 2, 3, 4, 5)] * 4,
        ("complete_loops", 17): [(0, 1, 2, 3, 4, 5), (0, 1, 2, 3, 4, 5), (2, 1, 0, 4, 5, 3), (0, 1, 2, 4, 5, 3)],
        ("doubled_clique_union", 1): [(1, 0, 3, 2, 5, 4, 7, 6), (1, 0, 3, 2, 5, 4, 7, 6), (1, 3, 0, 2, 5, 4, 7, 6), (1, 0, 3, 2, 5, 4, 7, 6)],
        ("doubled_clique_union", 2): [(1, 0, 3, 2, 5, 4, 7, 6)] * 4,
        ("doubled_clique_union", 17): [(1, 0, 3, 2, 6, 7, 4, 5), (1, 3, 0, 2, 5, 4, 7, 6), (2, 3, 1, 0, 5, 4, 7, 6), (2, 0, 3, 1, 5, 6, 7, 4)],
        ("doubled_cycle", 1): [(1, 0, 3, 2, 5, 4, 7, 6)] * 4,
        ("doubled_cycle", 2): [(1, 0, 3, 2, 5, 4, 7, 6)] * 4,
        ("doubled_cycle", 17): [(1, 0, 3, 2, 5, 4, 7, 6), (1, 0, 3, 2, 5, 4, 7, 6), (1, 2, 3, 4, 5, 6, 7, 0), (1, 0, 3, 2, 5, 4, 7, 6)],
        ("random", 1): [(4, 0, 7, 1, 2, 9, 8, 5, 6, 3), (4, 0, 3, 1, 2, 8, 7, 5, 6, 9), (4, 9, 7, 2, 0, 8, 1, 5, 6, 3), (4, 0, 3, 1, 2, 8, 7, 5, 6, 9)],
        ("random", 2): [(4, 0, 7, 1, 2, 9, 8, 5, 6, 3), (4, 0, 3, 1, 2, 8, 7, 5, 6, 9), (4, 0, 3, 1, 2, 8, 7, 5, 6, 9), (4, 0, 3, 1, 2, 8, 7, 5, 6, 9)],
        ("random", 17): [(5, 0, 7, 4, 2, 9, 8, 6, 3, 1), (4, 9, 3, 2, 0, 8, 7, 5, 6, 1), (4, 9, 7, 2, 0, 8, 1, 5, 6, 3), (4, 7, 5, 2, 0, 9, 8, 6, 3, 1)],
    }
    # Seeds in 0..200 whose draw at budget 1 meets no perfect state in 101 steps.
    EXHAUSTED_AT_1 = {
        "complete_loops": [],
        "doubled_clique_union": [],
        "doubled_cycle": [],
        "random": [35, 62, 135, 171],
    }

    @pytest.mark.parametrize("name,budget", sorted(SIGMAS))
    def test_sigmas(self, name, budget):
        sampler = MCMCFactorSampler(self.GRAPHS[name](), budget)
        draws = [sampler.sample(random.Random(seed)).sigma for seed in range(4)]
        assert draws == self.SIGMAS[name, budget]

    @pytest.mark.parametrize("name", sorted(EXHAUSTED_AT_1))
    def test_exhausted_at_budget_1(self, name):
        sampler = MCMCFactorSampler(self.GRAPHS[name](), 1)
        exhausted = []
        for seed in range(201):
            try:
                sampler.sample(random.Random(seed))
            except StepBudgetExhausted as e:
                assert str(e) == "no perfect state within 101 steps (budget 1)"
                exhausted.append(seed)
        assert exhausted == self.EXHAUSTED_AT_1[name]

    def test_min_cycle_factor_default_budget(self):
        # The default at n = 12 is 20 n d ceil(log2 n) = 960 d steps.
        g = gen_random_regular_digraph(12, 3, 1)
        result = min_cycle_factor(g, SamplerConfig(seed=3, backend="mcmc"))
        assert result.cycle_counts == (3, 4, 2, 3, 2, 1, 1, 2, 1, 2, 2, 3, 4, 4, 3)

    def test_min_cycle_factor_explicit_budget(self):
        # An explicit budget, here the former default 50 n^2 d, is the one
        # the chain runs: these are its draws, not the default budget's.
        g = gen_random_regular_digraph(12, 3, 1)
        result = min_cycle_factor(g, SamplerConfig(seed=3, backend="mcmc", mcmc_steps=50 * 12 * 12 * 3))
        assert result.cycle_counts == (2, 1, 4, 3, 2, 4, 3, 3, 1, 2, 2, 4, 2, 2, 2)

    def test_inlined_draw_matches_randrange(self):
        # MCMCFactorSampler.sample draws its moves this way in place of
        # rng.randrange(w); the two must read the same stream alike.
        for seed in (0, 1, 2024):
            ref = random.Random(seed)
            rng = random.Random(seed)
            for w in range(1, 301):
                k = w.bit_length()
                for _ in range(3):
                    r = rng.getrandbits(k)
                    while r >= w:
                        r = rng.getrandbits(k)
                    assert r == ref.randrange(w)
            assert rng.getstate() == ref.getstate()


class TestBurnInLaw:
    """The burn-in is drawn as one binomial count of moves; its law must
    be that of the lazy chain run step by step (tests/lazy_chain.py)."""

    @staticmethod
    def law(draw, rng, draws):
        found = Counter()
        for _ in range(draws):
            try:
                found[draw(rng)] += 1
            except StepBudgetExhausted:
                found["exhausted"] += 1
        return found

    # Budgets 1-3: the chain has not mixed, so the law still shows how the
    # burn-in was drawn (all moves, or one move too few, fail here).
    @pytest.mark.parametrize("budget", [1, 2, 3])
    @pytest.mark.parametrize("name", ["complete_loops", "random"])
    def test_matches_step_by_step_chain(self, name, budget):
        g = TestMCMCDrawsPinned.GRAPHS[name]()
        sampler = MCMCFactorSampler(g, budget)
        draws = 20_000
        ours = self.law(lambda rng: sampler.sample(rng).sigma, random.Random(1), draws)
        ref = self.law(lambda rng: lazy_draw(g, budget, rng), random.Random(2), draws)
        # Outcomes seen fewer than 10 times in both runs share one cell.
        common = [x for x in ours | ref if ours[x] + ref[x] >= 10]
        rows = [[law[x] for x in common] + [draws - sum(law[x] for x in common)]
                for law in (ours, ref)]
        if rows[0][-1] + rows[1][-1] == 0:
            rows = [row[:-1] for row in rows]
        assert chi2_contingency(rows).pvalue >= 1e-3

    def test_coins_drawn_in_chunks(self):
        # A budget past any real draw: the stub's bits are all zero, so the
        # burn-in makes no move and the draw returns the starting matching
        # at once, having only counted the coins.
        budget = (1 << 40) + 3
        asked = []

        class ZeroBits:
            def getrandbits(self, k):
                asked.append(k)
                return 0

            def random(self):
                raise AssertionError("a coin flipped past the budget")

        g = TestMCMCDrawsPinned.GRAPHS["random"]()
        cf = MCMCFactorSampler(g, budget).sample(ZeroBits())
        assert cf.sigma == tuple(hopcroft_karp(g.out_adj))
        assert max(asked) <= 1 << 20
        assert sum(asked) == budget


class TestMCMCStream:
    """The draw against the one-loop copy in tests/mcmc_stream.py, seed by
    seed: the same sigma, or the same StepBudgetExhausted text. The pinned
    draws above cover 4 seeds a budget; this covers 300."""

    GRAPHS = {
        **TestMCMCDrawsPinned.GRAPHS,
        # d = 2: both move widths, 2d - 1 = 3 and 2d = 4, take 2 and 3 bits.
        "doubled_cycle_9": lambda: double_undirected(gen_family("cycle", 9, 2)),
        "dense": lambda: gen_random_regular_digraph(12, 8, 3),
    }

    @staticmethod
    def outcome(draw, seed):
        try:
            return draw(random.Random(seed)).sigma
        except StepBudgetExhausted as e:
            return str(e)

    @pytest.mark.parametrize("budget", [1, 2, 3, 7, None])
    @pytest.mark.parametrize("name", sorted(GRAPHS))
    def test_same_draws_as_one_loop(self, name, budget):
        g = self.GRAPHS[name]()
        sampler = MCMCFactorSampler(g, budget or SamplerConfig().resolve_steps(g))
        for seed in range(300):
            assert self.outcome(sampler.sample, seed) == self.outcome(
                lambda rng: mcmc_stream.sample(sampler, rng), seed), seed

    def test_add_move_on_the_last_step_raises(self):
        # At budget 1 the limit is 101 steps. Seed 517's add move falls on
        # step 100, the last one (found by marking that move in a copy of
        # tests/mcmc_stream.py): the loop ends before the perfect state is
        # seen, so the draw raises, as the one-loop copy does.
        sampler = MCMCFactorSampler(self.GRAPHS["random"](), 1)
        message = "no perfect state within 101 steps (budget 1)"
        assert self.outcome(sampler.sample, 517) == message
        assert self.outcome(lambda rng: mcmc_stream.sample(sampler, rng), 517) == message


class TestMinCycleFactor:
    def test_unique_factor_d1(self):
        result = min_cycle_factor(directed_cycle(4), SamplerConfig(seed=9))
        assert result.factor.sigma == (1, 2, 3, 0)
        assert set(result.cycle_counts) == {1}

    def test_k1_equals_single_sample(self):
        g = complete_loops(6)
        cfg = SamplerConfig(seed=17, num_samples=1)
        a = min_cycle_factor(g, cfg)
        b = min_cycle_factor(g, cfg)
        assert a.factor.sigma == b.factor.sigma
        assert a.cycle_counts == b.cycle_counts

    def test_complete_8_beats_bound_and_median(self):
        g = complete_loops(8)
        result = min_cycle_factor(g, SamplerConfig(seed=2, num_samples=12, backend="exact"))
        assert len(result.cycle_counts) == 12
        assert result.best_count <= 4 * (math.log2(8) + 1)
        assert result.best_count <= statistics.median(result.cycle_counts)

    def test_components_force_two_cycles(self):
        g = gen_family("complete_loops", 8, 4)  # two disjoint blocks
        result = min_cycle_factor(g, SamplerConfig(seed=3))
        assert result.best_count >= 2

    def test_default_k(self):
        cfg = SamplerConfig()
        assert cfg.resolve_num_samples(8) == 12
        assert cfg.resolve_num_samples(2) == 10

    def test_auto_backend_threshold(self):
        cfg = SamplerConfig()
        assert cfg.resolve_backend(20) == "exact"
        assert cfg.resolve_backend(21) == "mcmc"
        with pytest.raises(BadParameters):
            SamplerConfig(backend="bogus").resolve_backend(5)

    @pytest.mark.parametrize("kwargs", [
        {"mcmc_steps": 0}, {"num_samples": 0}, {"backend": "bogus"},
        {"mcmc_steps": 2.5, "backend": "mcmc"}, {"num_samples": 2.5}, {"seed": 1.5},
        {"mcmc_steps": "4"}, {"num_samples": "4"}, {"seed": "4"},
        {"mcmc_steps": True}, {"num_samples": True}, {"seed": False},
    ], ids=["mcmc_steps", "num_samples", "backend",
            "mcmc_steps_float", "num_samples_float", "seed_float",
            "mcmc_steps_str", "num_samples_str", "seed_str",
            "mcmc_steps_bool", "num_samples_bool", "seed_bool"])
    def test_config_checked_when_built(self, kwargs):
        with pytest.raises(BadParameters):
            SamplerConfig(**kwargs)

    def test_reported_counts_match_backend_draws(self):
        g = complete_loops(5)
        cfg = SamplerConfig(seed=21, num_samples=8, backend="exact")
        result = min_cycle_factor(g, cfg)
        sampler = ExactFactorSampler(g)
        replay = tuple(
            sampler.sample(random.Random(derive_seed(21, i))).num_cycles
            for i in range(8)
        )
        assert result.cycle_counts == replay
        assert result.best_count == min(replay)


class TestSplitDraws:
    """min_cycle_factor splits MCMC draws across forked children from
    SPLIT_MIN_STEPS steps in all, with the same result as drawing serially."""

    @staticmethod
    def cpus(monkeypatch, count):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)))

    @staticmethod
    def counting_fork(monkeypatch):
        forks = []
        fork = os.fork

        def counted():
            pid = fork()
            if pid:
                forks.append(pid)
            return pid

        monkeypatch.setattr(os, "fork", counted)
        return forks

    @staticmethod
    def assert_no_children():
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @pytest.mark.parametrize("cpus", [2, 3])
    def test_equals_serial_replay(self, monkeypatch, cpus):
        self.cpus(monkeypatch, cpus)
        forks = self.counting_fork(monkeypatch)
        g = gen_random_regular_digraph(12, 3, 1)
        steps, k = 4500, 16  # 72,000 steps in all, over SPLIT_MIN_STEPS
        assert k * steps >= sampling.SPLIT_MIN_STEPS
        sampler = MCMCFactorSampler(g, steps)
        # Seeds whose minimum is tied between draws of different processes.
        for seed in (2, 3, 7):
            cfg = SamplerConfig(seed=seed, backend="mcmc", mcmc_steps=steps, num_samples=k)
            result = min_cycle_factor(g, cfg)
            replay = [sampler.sample(random.Random(derive_seed(seed, i))) for i in range(k)]
            counts = tuple(cf.num_cycles for cf in replay)
            assert result.cycle_counts == counts
            assert len({i % cpus for i, c in enumerate(counts) if c == min(counts)}) > 1
            assert result.factor == replay[counts.index(min(counts))]
        assert len(forks) == 3 * (cpus - 1)
        self.assert_no_children()

    @pytest.mark.parametrize("seed,failed", [(2, 1), (22, 3), (10, 0), (4, 2)],
                             ids=["child-first", "child-second", "parent-first", "parent-second"])
    def test_exhausted_budget_raises_and_reaps(self, monkeypatch, seed, failed):
        # At budget 1 on TestMCMCDrawsPinned's random graph, of the draws
        # 0..5 of this seed only `failed` meets no perfect state. Two
        # processes: the children draw the odd indices.
        monkeypatch.setattr(sampling, "SPLIT_MIN_STEPS", 1)
        self.cpus(monkeypatch, 2)
        forks = self.counting_fork(monkeypatch)
        g = TestMCMCDrawsPinned.GRAPHS["random"]()
        cfg = SamplerConfig(seed=seed, backend="mcmc", mcmc_steps=1, num_samples=6)
        with pytest.raises(StepBudgetExhausted) as info:
            min_cycle_factor(g, cfg)
        assert str(info.value) == "no perfect state within 101 steps (budget 1)"
        sampler = MCMCFactorSampler(g, 1)
        for i in range(6):
            try:
                sampler.sample(random.Random(derive_seed(seed, i)))
            except StepBudgetExhausted:
                assert i == failed
            else:
                assert i != failed
        assert len(forks) == 1
        self.assert_no_children()

    def test_failed_fork_draws_share_here(self, monkeypatch):
        self.cpus(monkeypatch, 3)
        fork = os.fork
        forks = []

        def second_fails():
            if forks:
                raise BlockingIOError(11, "Resource temporarily unavailable")
            forks.append(fork())
            return forks[-1]

        monkeypatch.setattr(os, "fork", second_fails)
        g = gen_random_regular_digraph(12, 3, 1)
        cfg = SamplerConfig(seed=2, backend="mcmc", mcmc_steps=4500, num_samples=16)
        result = min_cycle_factor(g, cfg)
        monkeypatch.setattr(sampling, "SPLIT_MIN_STEPS", 16 * 4500 + 1)
        assert result == min_cycle_factor(g, cfg)
        assert len(forks) == 1
        self.assert_no_children()

    def test_interrupt_kills_children(self, monkeypatch):
        monkeypatch.setattr(sampling, "SPLIT_MIN_STEPS", 1)
        self.cpus(monkeypatch, 3)
        parent = os.getpid()

        def sample(self, rng):
            if os.getpid() == parent:
                raise KeyboardInterrupt
            time.sleep(60)

        monkeypatch.setattr(MCMCFactorSampler, "sample", sample)
        start = time.monotonic()
        with pytest.raises(KeyboardInterrupt):
            min_cycle_factor(complete_loops(6), SamplerConfig(seed=1, backend="mcmc"))
        assert time.monotonic() - start < 30
        self.assert_no_children()

    def no_fork(self, monkeypatch):
        def refuse():
            raise AssertionError("os.fork called")

        monkeypatch.setattr(os, "fork", refuse)
        self.cpus(monkeypatch, 2)

    def test_exact_backend_never_forks(self, monkeypatch):
        self.no_fork(monkeypatch)
        monkeypatch.setattr(sampling, "SPLIT_MIN_STEPS", 1)
        result = min_cycle_factor(complete_loops(6), SamplerConfig(seed=1, backend="exact"))
        assert len(result.cycle_counts) == 11

    def test_below_threshold_never_forks(self, monkeypatch):
        self.no_fork(monkeypatch)
        g = gen_random_regular_digraph(12, 3, 1)
        cfg = SamplerConfig(seed=1, backend="mcmc", mcmc_steps=4096, num_samples=15)
        monkeypatch.setattr(sampling, "SPLIT_MIN_STEPS", 15 * 4096 + 1)
        assert len(min_cycle_factor(g, cfg).cycle_counts) == 15

    def test_other_thread_alive_never_forks(self, monkeypatch):
        self.no_fork(monkeypatch)
        monkeypatch.setattr(sampling, "SPLIT_MIN_STEPS", 1)
        stop = threading.Event()
        thread = threading.Thread(target=stop.wait)
        thread.start()
        try:
            result = min_cycle_factor(complete_loops(6), SamplerConfig(seed=1, backend="mcmc"))
        finally:
            stop.set()
            thread.join()
        assert len(result.cycle_counts) == 11

    def test_unreported_share_drawn_here(self, monkeypatch):
        # Each child exits without writing a byte; this process draws every
        # share itself and must return what a serial loop would.
        self.cpus(monkeypatch, 3)
        forks = self.counting_fork(monkeypatch)
        parent = os.getpid()
        sample = MCMCFactorSampler.sample

        def child_exits(self, rng):
            if os.getpid() != parent:
                os._exit(1)
            return sample(self, rng)

        monkeypatch.setattr(MCMCFactorSampler, "sample", child_exits)
        g = gen_random_regular_digraph(12, 3, 1)
        steps, k, seed = 4500, 16, 2
        cfg = SamplerConfig(seed=seed, backend="mcmc", mcmc_steps=steps, num_samples=k)
        result = min_cycle_factor(g, cfg)
        sampler = MCMCFactorSampler(g, steps)
        replay = [sampler.sample(random.Random(derive_seed(seed, i))) for i in range(k)]
        counts = tuple(cf.num_cycles for cf in replay)
        assert result.cycle_counts == counts
        assert result.factor == replay[counts.index(min(counts))]
        assert len(forks) == 2
        self.assert_no_children()

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="no /proc/self/fd")
    @pytest.mark.parametrize("path", ["split", "child-budget", "failed-fork", "interrupt"])
    def test_no_descriptor_left_open(self, monkeypatch, path):
        g = gen_random_regular_digraph(12, 3, 1)
        cfg = SamplerConfig(seed=2, backend="mcmc", mcmc_steps=4500, num_samples=16)
        raised = None
        self.cpus(monkeypatch, 3)
        if path == "child-budget":
            # TestSplitDraws' "child-first" case: the child's draw 1 fails.
            monkeypatch.setattr(sampling, "SPLIT_MIN_STEPS", 1)
            self.cpus(monkeypatch, 2)
            g = TestMCMCDrawsPinned.GRAPHS["random"]()
            cfg = SamplerConfig(seed=2, backend="mcmc", mcmc_steps=1, num_samples=6)
            raised = StepBudgetExhausted
        elif path == "failed-fork":
            fork = os.fork
            forks = []

            def second_fails():
                if forks:
                    raise BlockingIOError(11, "Resource temporarily unavailable")
                forks.append(fork())
                return forks[-1]

            monkeypatch.setattr(os, "fork", second_fails)
        elif path == "interrupt":
            parent = os.getpid()

            def sample(self, rng):
                if os.getpid() == parent:
                    raise KeyboardInterrupt
                time.sleep(60)

            monkeypatch.setattr(MCMCFactorSampler, "sample", sample)
            raised = KeyboardInterrupt
        before = len(os.listdir("/proc/self/fd"))
        if raised is None:
            min_cycle_factor(g, cfg)
        else:
            with pytest.raises(raised):
                min_cycle_factor(g, cfg)
        assert len(os.listdir("/proc/self/fd")) == before
        self.assert_no_children()
