import math
import os
import random
import statistics
import threading
import time
from collections import Counter
from fractions import Fraction

import pytest

from cyclefactor import sampling
from cyclefactor.errors import BadParameters, SizeLimitExceeded, StepBudgetExhausted
from cyclefactor.exact import exact_expected_cycles
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
        exp = float(exact_expected_cycles(g))
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

    def test_bad_step_budget(self):
        with pytest.raises(BadParameters):
            MCMCFactorSampler(complete_loops(3), 0)


class TestMCMCDrawsPinned:
    """Draws of the chain pinned by seed, so that a faster step loop must
    consume the same random stream and return the same factors."""

    GRAPHS = {
        "complete_loops": lambda: gen_family("complete_loops", 6, 3),
        "doubled_clique_union": lambda: double_undirected(gen_family("clique_union", 8, 3)),
        "doubled_cycle": lambda: double_undirected(gen_family("cycle", 8, 2)),
        "random": lambda: gen_random_regular_digraph(10, 3, 5),
    }
    # (graph, step budget) -> sigma of the draw from random.Random(seed), seeds 0..3
    SIGMAS = {
        ("complete_loops", 1): [(0, 1, 2, 4, 3, 5), (0, 1, 2, 3, 4, 5), (0, 1, 2, 3, 4, 5), (0, 1, 2, 3, 4, 5)],
        ("complete_loops", 2): [(0, 1, 2, 4, 3, 5), (2, 0, 1, 3, 4, 5), (0, 1, 2, 3, 4, 5), (2, 1, 0, 3, 4, 5)],
        ("complete_loops", 17): [(2, 0, 1, 4, 3, 5), (0, 2, 1, 3, 4, 5), (0, 1, 2, 3, 4, 5), (2, 1, 0, 5, 3, 4)],
        ("doubled_clique_union", 1): [(1, 0, 3, 2, 7, 4, 5, 6), (1, 0, 3, 2, 5, 4, 7, 6), (1, 3, 0, 2, 5, 4, 7, 6), (1, 0, 3, 2, 5, 4, 7, 6)],
        ("doubled_clique_union", 2): [(1, 0, 3, 2, 7, 4, 5, 6), (1, 3, 0, 2, 5, 4, 7, 6), (1, 3, 0, 2, 5, 4, 7, 6), (1, 0, 3, 2, 5, 6, 7, 4)],
        ("doubled_clique_union", 17): [(1, 0, 3, 2, 6, 4, 7, 5), (1, 3, 0, 2, 5, 4, 7, 6), (1, 3, 0, 2, 5, 4, 7, 6), (1, 0, 3, 2, 5, 6, 7, 4)],
        ("doubled_cycle", 1): [(1, 0, 3, 2, 5, 4, 7, 6)] * 4,
        ("doubled_cycle", 2): [(1, 0, 3, 2, 5, 4, 7, 6)] * 4,
        ("doubled_cycle", 17): [(1, 2, 3, 4, 5, 6, 7, 0), (1, 0, 3, 2, 5, 4, 7, 6), (1, 0, 3, 2, 5, 4, 7, 6), (1, 0, 3, 2, 5, 4, 7, 6)],
        ("random", 1): [(5, 7, 3, 4, 2, 9, 8, 6, 0, 1), (4, 0, 3, 1, 2, 8, 7, 5, 6, 9), (4, 9, 7, 2, 0, 8, 1, 5, 6, 3), (4, 0, 3, 1, 2, 8, 7, 5, 6, 9)],
        ("random", 2): [(5, 7, 3, 4, 2, 9, 8, 6, 0, 1), (8, 7, 5, 4, 6, 9, 1, 2, 0, 3), (4, 9, 7, 2, 0, 8, 1, 5, 6, 3), (8, 0, 3, 1, 2, 4, 7, 5, 6, 9)],
        ("random", 17): [(5, 7, 3, 4, 2, 9, 8, 6, 0, 1), (8, 7, 5, 4, 6, 9, 1, 2, 0, 3), (4, 9, 7, 2, 0, 8, 1, 5, 6, 3), (5, 9, 7, 2, 0, 4, 8, 6, 3, 1)],
    }
    # Seeds in 0..200 whose draw at budget 1 meets no perfect state in 101 steps.
    EXHAUSTED_AT_1 = {
        "complete_loops": [],
        "doubled_clique_union": [],
        "doubled_cycle": [],
        "random": [68, 130, 135, 171, 194],
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
        g = gen_random_regular_digraph(12, 3, 1)
        result = min_cycle_factor(g, SamplerConfig(seed=3, backend="mcmc"))
        assert result.cycle_counts == (3, 2, 2, 3, 3, 3, 2, 1, 3, 1, 1, 2, 5, 3, 3)

    def test_min_cycle_factor_explicit_budget(self):
        # The former default, 50 n^2 d, given explicitly draws what it drew.
        g = gen_random_regular_digraph(12, 3, 1)
        result = min_cycle_factor(g, SamplerConfig(seed=3, backend="mcmc", mcmc_steps=50 * 12 * 12 * 3))
        assert result.cycle_counts == (2, 3, 1, 3, 3, 4, 2, 2, 2, 1, 2, 2, 3, 2, 3)

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
    ], ids=["mcmc_steps", "num_samples", "backend"])
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
        for seed in (1, 2, 3):
            cfg = SamplerConfig(seed=seed, backend="mcmc", mcmc_steps=steps, num_samples=k)
            result = min_cycle_factor(g, cfg)
            replay = [sampler.sample(random.Random(derive_seed(seed, i))) for i in range(k)]
            counts = tuple(cf.num_cycles for cf in replay)
            assert result.cycle_counts == counts
            assert counts.count(min(counts)) > 1
            assert result.factor == replay[counts.index(min(counts))]
        assert len(forks) == 3 * (cpus - 1)
        self.assert_no_children()

    @pytest.mark.parametrize("seed,failed", [(9, 1), (28, 3), (10, 0), (4, 2)],
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
        with pytest.raises(StepBudgetExhausted):
            MCMCFactorSampler(g, 1).sample(random.Random(derive_seed(seed, failed)))
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
            cfg = SamplerConfig(seed=9, backend="mcmc", mcmc_steps=1, num_samples=6)
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
