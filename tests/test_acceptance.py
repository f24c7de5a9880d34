"""Acceptance suite: one test per release criterion, at its stated
tolerance. Each test prints a PASS/FAIL line (run with -s or -v to see
them on success)."""

import itertools
import json
import math
import random
import time
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from scipy.stats import chisquare

from cyclefactor.cli import main as cli_main
from cyclefactor.entropy import check_skew_lemma, reveal_audit
from cyclefactor.exact import entropy_loss, permanent
from cyclefactor.graphs import (
    RegularDigraph,
    UndirectedRegularGraph,
    double_undirected,
    gen_family,
    gen_random_regular_digraph,
    to_bipartite,
)
from cyclefactor.sampling import (
    ExactFactorSampler,
    MCMCFactorSampler,
    SamplerConfig,
    min_cycle_factor,
)
from cyclefactor.transforms import (
    to_path_factor,
    to_tour,
    to_undirected_cycle_factor,
    verify_path_factor,
    verify_tour,
)
from factor_listing import iter_factor_sigmas


def report(name, ok, detail=""):
    print(f"{'PASS' if ok else 'FAIL'}  {name}  {detail}")
    assert ok, f"{name}: {detail}"


def complete_loops(n):
    return gen_family("complete_loops", n, n)


@pytest.fixture(scope="module")
def corpus():
    """200 random valid instances (n <= 8, d <= n) with exact counts."""
    rng = random.Random(20240)
    instances = []
    start = time.monotonic()
    for i in range(200):
        n = rng.randint(1, 8)
        d = rng.randint(1, n)
        g = gen_random_regular_digraph(n, d, rng.randrange(2**32))
        perm_count = permanent(to_bipartite(g))
        enum_count = 0
        cycle_sum = 0
        for sigma in iter_factor_sigmas(g):
            enum_count += 1
            seen = bytearray(n)
            for start_v in range(n):
                if seen[start_v]:
                    continue
                cycle_sum += 1
                v = start_v
                while not seen[v]:
                    seen[v] = 1
                    v = sigma[v]
        instances.append((g, perm_count, enum_count, cycle_sum))
    elapsed = time.monotonic() - start
    return instances, elapsed


def test_criterion_1_oracle_correctness(corpus):
    instances, elapsed = corpus
    mismatches = [
        (g.n, g.d) for g, perm_count, enum_count, _ in instances
        if perm_count != enum_count
    ]
    report(
        "C1 permanent == enumeration on 200 instances",
        not mismatches and elapsed < 60.0,
        f"mismatches={mismatches} elapsed={elapsed:.1f}s",
    )


def test_criterion_2_harmonic_numbers():
    bad = []
    for n in range(1, 10):
        g = complete_loops(n)
        count = 0
        cycle_sum = 0
        for sigma in iter_factor_sigmas(g):
            count += 1
            seen = bytearray(n)
            for s in range(n):
                if seen[s]:
                    continue
                cycle_sum += 1
                v = s
                while not seen[v]:
                    seen[v] = 1
                    v = sigma[v]
        expected = sum(Fraction(1, k) for k in range(1, n + 1))
        if Fraction(cycle_sum, count) != expected:
            bad.append(n)
    report("C2 E[cycles] = H_n exactly for n = 1..9", not bad, f"failed n={bad}")


def test_criterion_3_expected_cycle_bound(corpus):
    instances, _ = corpus
    violations = [
        (g.n, g.d)
        for g, _, count, cycle_sum in instances
        if Fraction(cycle_sum, count) > 4 * Fraction(g.n, g.d) * (math.log2(g.d) + 1)
    ]
    report("C3 E[cycles] <= 4(n/d)(log2 d + 1) on corpus", not violations, str(violations))


def test_criterion_4_matching_count_bounds(corpus):
    instances, _ = corpus
    upper = [
        (g.n, g.d) for g, _, count, _ in instances
        if count**g.d > math.factorial(g.d) ** g.n
    ]
    lower = [
        (g.n, g.d) for g, _, count, _ in instances
        if count * g.n**g.n < math.factorial(g.n) * g.d**g.n
    ]
    report(
        "C4 factorial matching-count sandwich, exact arithmetic",
        not upper and not lower,
        f"upper={upper} lower={lower}",
    )


def test_criterion_5_entropy_loss_ledger(corpus):
    instances, _ = corpus
    out_of_range = []
    for g, _, count, _ in instances:
        loss = entropy_loss(g, count)
        if not (-1e-9 <= loss <= g.n / g.d * math.log2(math.e * g.d) + 1e-9):
            out_of_range.append((g.n, g.d, loss))
    nonzero = []
    for n, d in [(1, 1), (2, 2), (4, 4), (6, 6), (9, 9), (6, 3), (8, 4), (8, 2), (9, 3)]:
        g = gen_family("complete_loops", n, d)
        loss = entropy_loss(g, permanent(to_bipartite(g)))
        if loss != 0.0:
            nonzero.append((n, d, loss))
    report(
        "C5 0 <= loss <= (n/d)log2(ed); loss == 0 for complete-with-loops",
        not out_of_range and not nonzero,
        f"range={out_of_range} nonzero={nonzero}",
    )


def test_criterion_6_skew_lemma_suite():
    rng = np.random.default_rng(61)
    trials = 100_000
    start = time.monotonic()
    violations = 0
    for s in range(2, 65):
        x = rng.exponential(size=(trials, s))
        p = x / x.sum(axis=1, keepdims=True)
        h = -(p * np.log2(p)).sum(axis=1)
        bound = 2.0 / s + (math.log2(s) - h)
        violations += int((p.max(axis=1) > bound + 1e-9).sum())
    elapsed = time.monotonic() - start
    # spot-check the scalar implementation against the vectorized oracle
    spot = all(
        check_skew_lemma(list(row / row.sum())).holds
        for row in rng.exponential(size=(50, 8))
    )
    report(
        "C6 skew lemma on 1e5 distributions per s in 2..64",
        violations == 0 and elapsed < 30.0 and spot,
        f"violations={violations} elapsed={elapsed:.1f}s",
    )


def test_criterion_7_reveal_uniformity():
    failures = []
    for n in (3, 4):
        audit = reveal_audit(complete_loops(n))
        if not audit.uniform or audit.loss_gap > 1e-6:
            failures.append(("complete", n))
    for n in range(1, 7):
        for perm in itertools.permutations(range(n)):
            g = RegularDigraph(n, 1, tuple((v,) for v in perm))
            audit = reveal_audit(g)
            if not audit.uniform or audit.loss_gap > 1e-6:
                failures.append(("d1", n, perm))
    report("C7 exact reveal-count uniformity", not failures, str(failures[:3]))


@pytest.fixture(scope="module")
def small_count_instances():
    """10 deterministic instances with 2 <= #factors <= 25 (<= 120 required)."""
    picked = []
    candidates = [complete_loops(3), complete_loops(4),
                  RegularDigraph(4, 2, ((0, 1), (1, 2), (2, 3), (0, 3)))]
    seed_pool = [(4, 2, s) for s in range(20)] + [(5, 2, s) for s in range(20)] + [
        (6, 2, s) for s in range(20)
    ]
    candidates += [gen_random_regular_digraph(n, d, s) for n, d, s in seed_pool]
    for g in candidates:
        sigmas = list(iter_factor_sigmas(g))
        if 2 <= len(sigmas) <= 25 and g not in [x[0] for x in picked]:
            picked.append((g, sigmas))
        if len(picked) == 10:
            break
    assert len(picked) == 10
    return picked


def test_criterion_8a_exact_sampler_chi_square(small_count_instances):
    draws = 100_000
    failing = []
    for idx, (g, sigmas) in enumerate(small_count_instances):
        sampler = ExactFactorSampler(g)
        rng = random.Random(800 + idx)
        index = {s: i for i, s in enumerate(sigmas)}
        counts = [0] * len(sigmas)
        for _ in range(draws):
            counts[index[tuple(sampler.sample(rng).sigma)]] += 1
        p = chisquare(counts).pvalue
        if p < 1e-3:
            failing.append((idx, p))
    report("C8a exact backend chi-square at alpha=1e-3", not failing, str(failing))


def test_criterion_8b_mcmc_tv_distance(small_count_instances):
    draws = 3000
    failing = []
    for idx, (g, sigmas) in enumerate(small_count_instances):
        steps = SamplerConfig().resolve_steps(g)  # default budget
        sampler = MCMCFactorSampler(g, steps)
        rng = random.Random(880 + idx)
        counts = Counter(tuple(sampler.sample(rng).sigma) for _ in range(draws))
        uniform = 1 / len(sigmas)
        tv = 0.5 * sum(abs(counts.get(s, 0) / draws - uniform) for s in sigmas)
        if tv > 0.05:
            failing.append((idx, round(tv, 4)))
    report("C8b mcmc backend empirical TV <= 0.05", not failing, str(failing))


def test_criterion_9_min_of_k_beats_expectation():
    rng = random.Random(90)
    successes = 0
    for i in range(50):
        n = rng.randint(4, 16)
        d = 2 if n > 10 else rng.choice((2, 3))
        g = gen_random_regular_digraph(n, d, rng.randrange(2**32))
        count = 0
        cycle_sum = 0
        for sigma in iter_factor_sigmas(g):
            count += 1
            seen = bytearray(n)
            for s in range(n):
                if seen[s]:
                    continue
                cycle_sum += 1
                v = s
                while not seen[v]:
                    seen[v] = 1
                    v = sigma[v]
        expected = Fraction(cycle_sum, count)
        k = math.ceil(4 * math.log2(n))
        result = min_cycle_factor(
            g, SamplerConfig(backend="exact", num_samples=k, seed=900 + i)
        )
        if result.best_count <= expected:
            successes += 1
    report("C9 min-of-k beats E[cycles] in >= 45/50", successes >= 45, f"{successes}/50")


def test_criterion_10_tour_construction():
    nx = pytest.importorskip("networkx")
    rng = random.Random(100)
    violations = []
    for i in range(100):
        n = rng.randint(6, 60)
        d = rng.choice((3, 4, 5))
        if (n * d) % 2:
            n += 1
        g_nx = None
        for attempt in range(50):
            cand = nx.random_regular_graph(d, n, seed=1000 * i + attempt)
            if nx.is_connected(cand):
                g_nx = cand
                break
        assert g_nx is not None
        adj = [sorted(g_nx.neighbors(v)) for v in range(n)]
        g = UndirectedRegularGraph.from_lists(n, d, adj)
        doubled = double_undirected(g)
        if n <= 12:
            cf = ExactFactorSampler(doubled).sample(random.Random(i))
        else:
            cf = MCMCFactorSampler(doubled, 4000).sample(random.Random(i))
        cycles = to_undirected_cycle_factor(cf, g)
        tour = to_tour(cycles, g)
        check = verify_tour(tour, g)
        if not check.ok or tour.length > n + 2 * (len(cycles) - 1):
            violations.append((n, d, tour.length, len(cycles), check.violations[:2]))
    # clique-union family: disconnected, so only path-factors; the path
    # count can never drop below the component count n/(d+1)
    path_floor_ok = True
    for n, d in [(8, 3), (12, 3), (12, 5), (20, 4)]:
        g = gen_family("clique_union", n, d)
        result = min_cycle_factor(double_undirected(g), SamplerConfig(seed=n + d))
        pf = to_path_factor(to_undirected_cycle_factor(result.factor, g), g)
        if not verify_path_factor(pf, g).ok or pf.num_paths < n // (d + 1):
            path_floor_ok = False
    report(
        "C10 verified tours with length <= n + 2(c-1); clique-union path floor",
        not violations and path_floor_ok,
        str(violations[:3]),
    )


def test_criterion_11_bench_reproducibility(tmp_path):
    manifest = tmp_path / "manifest.json"
    manifest.write_text(
        json.dumps(
            {
                "config": {"seed": 11, "samples": 5},
                "instances": [
                    {"family": "random", "n": 7, "d": 3, "seed": s} for s in range(6)
                ]
                + [{"family": "cycle", "n": 10, "d": 2},
                   {"family": "clique_union", "n": 8, "d": 3}],
            }
        )
    )
    snapshots = []
    for name in ("run1.ndjson", "run2.ndjson"):
        out = tmp_path / name
        code = cli_main(["bench", str(manifest), "--out", str(out)])
        assert code == 0
        records = [json.loads(l) for l in out.read_text().splitlines()]
        for rec in records:
            rec.pop("wall_ms")
        snapshots.append(json.dumps(records, sort_keys=True))
    report("C11 bench records byte-identical modulo wall clock",
           snapshots[0] == snapshots[1] and len(snapshots[0]) > 2, "")
