import math
import random
import statistics
from collections import Counter

import pytest

from cyclefactor import sampling
from cyclefactor.errors import BadParameters, SizeLimitExceeded
from cyclefactor.exact import enumerate_cycle_factors, exact_expected_cycles
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
    sample_exact,
    sample_mcmc,
)
from cyclefactor.graphs import to_bipartite


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


class TestExactSampler:
    def test_unique_factor(self):
        g = directed_cycle(3)
        for seed in range(5):
            assert sample_exact(g, seed).sigma == (1, 2, 0)

    def test_deterministic_given_seed(self):
        g = complete_loops(5)
        assert sample_exact(g, 123).sigma == sample_exact(g, 123).sigma

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
        exp = float(exact_expected_cycles(g))  # H_5 = 137/60
        sampler = ExactFactorSampler(g)
        rng = random.Random(11)
        draws = 20_000
        obs = [sampler.sample(rng).num_cycles for _ in range(draws)]
        mean = statistics.fmean(obs)
        sigma = statistics.stdev(obs) / math.sqrt(draws)
        assert abs(mean - exp) <= 4 * sigma

    def test_state_budget(self, monkeypatch):
        # K8's table holds all 2^8 = 256 column sets; no level holds more than 70.
        monkeypatch.setattr(sampling, "MAX_STATES", 255)
        with pytest.raises(SizeLimitExceeded):
            ExactFactorSampler(complete_loops(8))
        monkeypatch.setattr(sampling, "MAX_STATES", 256)
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
        cf = sample_mcmc(g, SamplerConfig(seed=1, mcmc_steps=100))
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
        exp = float(exact_expected_cycles(g))
        sampler = MCMCFactorSampler(g, 2000)
        rng = random.Random(4)
        draws = 2000
        obs = [sampler.sample(rng).num_cycles for _ in range(draws)]
        mean = statistics.fmean(obs)
        sigma = statistics.stdev(obs) / math.sqrt(draws)
        assert abs(mean - exp) <= max(4 * sigma, 0.1)

    def test_bad_step_budget(self):
        with pytest.raises(BadParameters):
            MCMCFactorSampler(complete_loops(3), 0)


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
