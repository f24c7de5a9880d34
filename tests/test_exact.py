import inspect
import math
import os
import random
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

from cyclefactor import exact
from cyclefactor.errors import SizeLimitExceeded
from cyclefactor.exact import (
    audit_bounds,
    build_report,
    entropy_loss,
    factor_census,
    permanent,
)
from cyclefactor.graphs import (
    RegularDigraph,
    double_undirected,
    gen_family,
    gen_random_regular_digraph,
    to_bipartite,
)
from cyclefactor.sampling import ExactFactorSampler
from factor_listing import enumerate_cycle_factors, iter_factor_sigmas


def complete_loops(n):
    return gen_family("complete_loops", n, n)


def directed_cycle(n):
    return RegularDigraph(n, 1, tuple(((i + 1) % n,) for i in range(n)))


def factor_count(g):
    return permanent(to_bipartite(g))


def audit(g):
    return audit_bounds(g, factor_count(g), build_report(g).expected_cycles)


# A digraph whose auxiliary bipartite graph is the 8-cycle; it has
# exactly two perfect matchings.
BIP_C8 = RegularDigraph(4, 2, ((0, 1), (1, 2), (2, 3), (0, 3)))


def brute_force_permanent(bip):
    # Independent oracle: direct sum over all permutations.
    import itertools

    rows = [set(r) for r in bip]
    return sum(
        all(p[i] in rows[i] for i in range(len(bip)))
        for p in itertools.permutations(range(len(bip)))
    )


class TestPermanent:
    def test_k33(self):
        assert permanent(to_bipartite(complete_loops(3))) == 6

    def test_bipartite_c8(self):
        assert permanent(to_bipartite(BIP_C8)) == 2
        assert brute_force_permanent(to_bipartite(BIP_C8)) == 2

    def test_directed_3cycle(self):
        assert permanent(to_bipartite(directed_cycle(3))) == 1

    def test_complete_is_factorial(self):
        for n in range(1, 8):
            assert permanent(to_bipartite(complete_loops(n))) == math.factorial(n)

    def test_matches_brute_force_on_random_instances(self):
        rng = random.Random(1)
        for _ in range(30):
            n = rng.randint(1, 6)
            d = rng.randint(1, n)
            g = gen_random_regular_digraph(n, d, rng.randrange(10**6))
            h = to_bipartite(g)
            assert permanent(h) == brute_force_permanent(h)

    def test_relabelling_invariance(self):
        rng = random.Random(2)
        g = gen_random_regular_digraph(7, 3, 11)
        h = to_bipartite(g)
        base = permanent(h)
        for _ in range(5):
            rp = list(range(7))
            cp = list(range(7))
            rng.shuffle(rp)
            rng.shuffle(cp)
            relabelled = tuple(tuple(sorted(cp[v] for v in h[rp[u]])) for u in range(7))
            assert permanent(relabelled) == base

    def test_state_budget(self, monkeypatch):
        # K8's middle level holds C(8, 4) = 70 column sets.
        monkeypatch.setattr(exact, "MAX_STATES", 69)
        with pytest.raises(SizeLimitExceeded):
            permanent(to_bipartite(complete_loops(8)))
        monkeypatch.setattr(exact, "MAX_STATES", 70)
        assert permanent(to_bipartite(complete_loops(8))) == math.factorial(8)

    def test_one_regular_past_any_n_cap(self):
        assert permanent(to_bipartite(directed_cycle(5000))) == 1

    def test_doubled_c40(self):
        # Both orientations of the Hamilton cycle, and the two digon
        # factors from the two perfect matchings of C40.
        doubled = double_undirected(gen_family("cycle", 40, 2))
        assert permanent(to_bipartite(doubled)) == 4


class TestFrontierOrder:
    def test_matches_brute_force_and_enumeration_off_index_order(self):
        # Only instances whose push order is not 0, 1, ..., n-1 count.
        rng = random.Random(6)
        checked = 0
        while checked < 12:
            n = rng.randint(4, 7)
            d = rng.randint(2, n - 1)
            g = gen_random_regular_digraph(n, d, rng.randrange(10**6))
            h = to_bipartite(g)
            if exact._frontier_order(h) == list(range(n)):
                continue
            assert permanent(h) == brute_force_permanent(h) == sum(1 for _ in iter_factor_sigmas(g))
            checked += 1

    def test_order_keeps_the_fewest_columns_open(self):
        # After rows 0 and 1 the open columns are 0, 1, 3 and 4, and rows
        # 2, 3 and 4 each have two columns touched, so the old rule (most
        # touched, lowest index) pushed row 2 next, opening column 2. Row 3
        # opens column 2 too, but it is the last in-row of columns 3 and 4
        # and closes them: three columns stay open, not five.
        rows = ((0, 3, 4), (1, 3, 4), (0, 1, 2), (2, 3, 4), (0, 1, 2))
        assert exact._frontier_order(rows) == [0, 1, 3, 2, 4]
        assert permanent(rows) == brute_force_permanent(rows)

    def test_order_matches_a_direct_scan(self):
        rng = random.Random(32)
        for _ in range(40):
            n = rng.randint(2, 14)
            g = gen_random_regular_digraph(n, rng.randint(1, min(n, 4)), rng.randrange(10**6))
            assert exact._frontier_order(g.out_adj) == scanned_order(g.out_adj)
        # Rows of unequal length, and columns with a single in-row: row 1
        # goes first in the second, as it touches and closes column 3.
        for rows in (((0, 1), (1,), (1, 2, 3), (0, 3), (4, 5), (2, 4)),
                     ((0, 1), (2, 3), (0, 1, 2), (0, 1, 2))):
            assert exact._frontier_order(rows) == scanned_order(rows)

    def test_doubled_c40_fits_a_narrow_budget(self, monkeypatch):
        # Frontier order with dead sets dropped needs 79 table entries
        # here, at most 2 per level; kept, they make 421 entries and a
        # widest level of 20 (index order: 5,551).
        monkeypatch.setattr(exact, "MAX_STATES", 2)
        doubled = double_undirected(gen_family("cycle", 40, 2))
        assert permanent(to_bipartite(doubled)) == 4
        monkeypatch.setattr(exact, "MAX_STATES", 78)
        with pytest.raises(SizeLimitExceeded, match="over 78 column sets"):
            ExactFactorSampler(doubled)
        monkeypatch.setattr(exact, "MAX_STATES", 79)
        sampler = ExactFactorSampler(doubled)
        assert sampler.total == 4
        rng = random.Random(0)
        assert all(sampler.sample(rng).is_factor_of(doubled) for _ in range(10))

    def test_golden_exact_draw(self):
        # Pins the walk order: another order draws another factor for the
        # same seed (walking rows 0, 1, ..., 11 draws
        # (11, 7, 1, 10, 0, 2, 9, 6, 4, 3, 8, 5)).
        g = gen_random_regular_digraph(12, 3, 5)
        cf = ExactFactorSampler(g).sample(random.Random(0))
        assert cf.sigma == (5, 7, 8, 10, 0, 2, 9, 6, 3, 11, 4, 1)
        assert cf.is_factor_of(g)


def scanned_order(out_adj):
    """The push order by its rule, every unpushed row rescored at each
    step: least growth of the open columns (columns touched first less
    columns whose last unpushed in-row it is), then most columns already
    touched, then lowest index."""
    rest = set(range(len(out_adj)))
    touched = set()
    order = []
    while rest:
        def key(r):
            closes = sum(all(c not in out_adj[r2] for r2 in rest - {r}) for c in out_adj[r])
            new = len(set(out_adj[r]) - touched)
            return new - closes, new - len(out_adj[r]), r
        row = min(rest, key=key)
        rest.remove(row)
        touched.update(out_adj[row])
        order.append(row)
    return order


def unpruned_levels(out_adj):
    """Every level of the counting recurrence in the package's push order,
    with no column set dropped: level t maps a set to the number of
    matchings of the first t rows pushed onto the columns outside it."""
    n = len(out_adj)
    levels = [{(1 << n) - 1: 1}]
    for row in exact._frontier_order(out_adj):
        nxt = Counter()
        for left, ways in levels[-1].items():
            for v in out_adj[row]:
                if left >> v & 1:
                    nxt[left ^ 1 << v] += ways
        levels.append(dict(nxt))
    return levels


def closed_masks(out_adj):
    """Mask t: the columns whose every in-row is among the first t rows pushed."""
    n = len(out_adj)
    in_rows = [{r for r in range(n) if c in out_adj[r]} for c in range(n)]
    pushed = set()
    masks = [0]
    for row in exact._frontier_order(out_adj):
        pushed.add(row)
        masks.append(sum(1 << c for c in range(n) if in_rows[c] <= pushed))
    return masks


def dead_set_instances():
    rng = random.Random(22)
    graphs = []
    for _ in range(10):
        n = rng.randint(4, 12)
        d = rng.randint(2, min(n - 1, 4))
        graphs.append(gen_random_regular_digraph(n, d, rng.randrange(10**6)))
    return graphs + [double_undirected(gen_family("cycle", 40, 2))]


class TestDeadSets:
    @pytest.mark.parametrize("g", dead_set_instances(), ids=lambda g: f"{g.n}-{g.d}")
    def test_levels_are_the_recurrence_less_closed_free_sets(self, g):
        full = unpruned_levels(g.out_adj)
        closed = closed_masks(g.out_adj)
        levels = [level for _, level in exact.completion_levels(g.out_adj)]
        assert levels == [
            {left: ways for left, ways in level.items() if not left & mask}
            for level, mask in zip(full, closed)
        ]
        assert levels[-1] == full[-1] == {0: permanent(g.out_adj)}

    @pytest.mark.parametrize("g", [
        gen_random_regular_digraph(16, 3, 1),
        gen_random_regular_digraph(20, 3, 1),
        gen_random_regular_digraph(12, 4, 2),
        gen_random_regular_digraph(14, 2, 3, allow_loops=False),
        double_undirected(gen_family("clique_union", 12, 3)),
        double_undirected(gen_family("cycle", 40, 2)),
    ], ids=["random16-3", "random20-3", "random12-4", "random14-2", "clique_union12-3", "doubled_c40"])
    def test_draws_equal_unpruned_table_draws(self, g):
        # A draw never reads a dropped set, so the pruned levels draw the
        # same factor as the full ones for every seed. The reference walks
        # the same rows, reading full level t at the row pushed t-th.
        sampler = ExactFactorSampler(g)
        reference = ExactFactorSampler(g)
        full = unpruned_levels(g.out_adj)
        pushed = list(enumerate(exact._frontier_order(g.out_adj)))
        reference._walk = [(row, g.out_adj[row], full[t]) for t, row in reversed(pushed)]
        assert (sum(len(level) for *_, level in sampler._walk)
                < sum(len(level) for *_, level in reference._walk))
        for seed in range(50):
            want = reference.sample(random.Random(seed))
            assert sampler.sample(random.Random(seed)) == want, seed
            assert want.is_factor_of(g)


class TestEnumeration:
    def test_complete_3_is_s3(self):
        factors = enumerate_cycle_factors(complete_loops(3))
        assert len(factors) == 6
        assert len({f.sigma for f in factors}) == 6

    def test_directed_3cycle_unique(self):
        factors = enumerate_cycle_factors(directed_cycle(3))
        assert len(factors) == 1
        assert factors[0].num_cycles == 1

    def test_complete_4_stirling_cycle_counts(self):
        factors = enumerate_cycle_factors(complete_loops(4))
        counts = Counter(f.num_cycles for f in factors)
        assert counts == {4: 1, 3: 6, 2: 11, 1: 6}

    def test_census_agrees_with_enumeration(self):
        g = gen_random_regular_digraph(6, 3, 4)
        factors = enumerate_cycle_factors(g)
        count, cycle_sum = factor_census(g)
        assert count == len(factors)
        assert cycle_sum == sum(f.num_cycles for f in factors)


def listed_census(g):
    """(count, cycle sum) and the cycle-count law of g's listed factors."""
    counts = [f.num_cycles for f in enumerate_cycle_factors(g)]
    return (len(counts), sum(counts)), Counter(counts)


def harmonic(k):
    return sum(Fraction(1, j) for j in range(1, k + 1))


def stirling_law(d, copies=1):
    """{c: coefficient of x^c} in (x (x+1) ... (x+d-1))^copies, the
    cycle-count law of `copies` disjoint K_d with loops; for one copy, the
    unsigned Stirling numbers of the first kind c(d, c)."""
    law = {0: 1}
    for j in list(range(d)) * copies:
        nxt = Counter()
        for c, ways in law.items():
            nxt[c + 1] += ways
            if j:
                nxt[c] += j * ways
        law = nxt
    return dict(law)


class TestCycleCensus:
    @pytest.mark.parametrize("seed", [11, 12, 13])
    @pytest.mark.parametrize("loops", [True, False], ids=["loops", "no_loops"])
    def test_agrees_with_enumeration_on_random_digraphs(self, seed, loops):
        rng = random.Random(seed)
        for _ in range(12):
            n = rng.randint(2, 10)
            d = rng.randint(1, min(n - 1, 5))
            g = gen_random_regular_digraph(n, d, rng.randrange(10**6), allow_loops=loops)
            census, law = listed_census(g)
            assert factor_census(g) == census, (n, d)
            assert exact.cycle_law(g) == law, (n, d)

    @pytest.mark.parametrize("family, n, d", [
        ("cycle", 10, 2), ("cycle", 9, 2), ("clique_union", 8, 3), ("clique_union", 10, 4),
    ])
    def test_agrees_with_enumeration_on_doubled_families(self, family, n, d):
        g = double_undirected(gen_family(family, n, d))
        census, law = listed_census(g)
        assert factor_census(g) == census
        assert exact.cycle_law(g) == law

    @pytest.mark.parametrize("n, d", [(20, 5), (16, 4)])
    def test_complete_loops_law_in_closed_form(self, n, d):
        # n/d disjoint K_d with loops: the law is (x (x+1) ... (x+d-1))^(n/d).
        law = exact.cycle_law(gen_family("complete_loops", n, d))
        assert law == stirling_law(d, n // d)
        assert list(law) == sorted(law)

    @pytest.mark.parametrize("n", [5, 6, 9, 40])
    def test_doubled_cycle_law_in_closed_form(self, n):
        # Both orientations of the Hamilton cycle, and for even n the two
        # digon factors from the two perfect matchings of C_n.
        law = exact.cycle_law(double_undirected(gen_family("cycle", n, 2)))
        assert law == ({1: 2, n // 2: 2} if n % 2 == 0 else {1: 2})

    @pytest.mark.parametrize("g, law", [
        (gen_family("complete_loops", 2000, 1), {2000: 1}),
        (directed_cycle(2000), {1: 1}),
        (double_undirected(gen_family("cycle", 2000, 2)), {1: 2, 1000: 2}),
    ], ids=["identity2000", "directed_c2000", "doubled_c2000"])
    def test_long_laws(self, g, law):
        # Packed in digits of the least width b with d^n < 2^b: 1 bit for
        # d = 1, n + 1 bits for d = 2.
        assert exact.cycle_law(g) == law

    def test_complete_loops_past_enumeration_cap(self):
        # Four disjoint K5 with loops: (5!)^4 factors, E = 4 H_5; past the
        # 10^6 factors at which verify once refused, the census count is
        # still checked against the permanent.
        count, cycle_sum = factor_census(gen_family("complete_loops", 20, 5))
        assert count == math.factorial(5) ** 4 > 10**6
        assert Fraction(cycle_sum, count) == 4 * harmonic(5)

    def test_k12_past_enumeration_cap(self):
        # 12! factors, c(12, k) of them with k cycles.
        law = exact.cycle_law(complete_loops(12))
        assert law == stirling_law(12)
        assert sum(law.values()) == math.factorial(12)

    def test_state_budget(self, monkeypatch):
        # K8 with loops: the levels |S| = 5 and 6 hold 259 + 245 = 504
        # states, more than any other adjacent pair.
        monkeypatch.setattr(exact, "MAX_STATES", 503)
        with pytest.raises(SizeLimitExceeded, match="over 503 states at level 5"):
            exact.cycle_law(complete_loops(8))
        monkeypatch.setattr(exact, "MAX_STATES", 504)
        assert exact.cycle_law(complete_loops(8)) == stirling_law(8)

    @pytest.mark.parametrize("n, d, law", [
        (16, 3, {1: 30, 2: 111, 3: 189, 4: 159, 5: 59, 6: 8}),
        (12, 6, {1: 16433, 2: 50637, 3: 63476, 4: 42248, 5: 15988, 6: 3310, 7: 305, 8: 7}),
    ])
    def test_golden_random_laws(self, n, d, law):
        assert exact.cycle_law(gen_random_regular_digraph(n, d, 1)) == law

    def test_random_12_3_state_count(self, monkeypatch):
        # Random 12/3 (seed 1): the two levels in hand peak at 288 states.
        g = gen_random_regular_digraph(12, 3, 1)
        monkeypatch.setattr(exact, "MAX_STATES", 287)
        with pytest.raises(SizeLimitExceeded, match="over 287 states at level 7$"):
            exact.cycle_law(g)
        monkeypatch.setattr(exact, "MAX_STATES", 288)
        assert exact.cycle_law(g) == {1: 22, 2: 53, 3: 49, 4: 13, 5: 4}

    def test_double_count_checked_under_optimize(self):
        # The census count is checked against the permanent even under
        # python -O, which strips assert statements.
        child = (
            "from cyclefactor import exact\n"
            "from cyclefactor.graphs import gen_family\n"
            "exact.cycle_law = lambda g: {1: 1}\n"
            "try:\n"
            "    exact.factor_census(gen_family('complete_loops', 4, 4))\n"
            "except AssertionError as e:\n"
            "    print(e)\n"
        )
        src = str(Path(exact.__file__).resolve().parents[1])
        proc = subprocess.run([sys.executable, "-O", "-c", child], env=dict(os.environ, PYTHONPATH=src),
                              capture_output=True, text=True, check=True)
        assert proc.stdout == "cycle census counts 1 factors, the permanent 24\n"

    def test_budget_refusal_in_census(self, monkeypatch):
        # The counting pass fits (36 factors); the census itself is refused.
        monkeypatch.setattr(exact, "MAX_STATES", 4)
        with pytest.raises(SizeLimitExceeded, match="cycle census holds over 4 states"):
            factor_census(gen_family("complete_loops", 6, 3))


def census_held(g):
    """g's cycle law, and the states cycle_law holds (the level before and
    the level built) as it finishes each level k = 1..n, read from its
    locals on an unbudgeted run."""
    code = exact.cycle_law.__code__
    lines, first = inspect.getsourcelines(exact.cycle_law)
    [at] = [first + i for i, line in enumerate(lines) if line.strip() == "level = nxt"]
    held = []

    def local(frame, event, arg):
        if event == "line" and frame.f_lineno == at:
            held.append(len(frame.f_locals["level"]) + len(frame.f_locals["nxt"]))
        return local

    old = sys.gettrace()
    sys.settrace(lambda frame, event, arg: local if frame.f_code is code else None)
    try:
        law = exact.cycle_law(g)
    finally:
        sys.settrace(old)
    return law, held


def budget_instances():
    rng = random.Random(46)
    cases = []
    for n in range(2, 11):
        for d in sorted({1, 2, 3, n // 2 + 1, n - 1, n} & set(range(1, n + 1))):
            cases.append(pytest.param(gen_random_regular_digraph(n, d, rng.randrange(10**6)), id=f"random{n}-{d}"))
    for n, d in ((7, 3), (9, 4), (10, 3)):
        for loops, name in ((False, "no_loops"), (True, "no_digons")):
            g = gen_random_regular_digraph(n, d, rng.randrange(10**6), allow_loops=loops, allow_digons=not loops)
            cases.append(pytest.param(g, id=f"random{n}-{d}-{name}"))
    for kind, n, d in (("complete_loops", 8, 4), ("complete_loops", 9, 3), ("complete_loops", 10, 5),
                       ("clique_union", 8, 3), ("clique_union", 9, 2), ("clique_union", 10, 4),
                       ("cycle", 5, 2), ("cycle", 10, 2), ("complete_bipartite_like", 6, 3),
                       ("complete_bipartite_like", 8, 2), ("complete_bipartite_like", 10, 5)):
        cases.append(pytest.param(gen_family(kind, n, d), id=f"{kind}{n}-{d}"))
    return cases


class TestBudgetBoundary:
    # Each pass is admitted at a budget equal to the most it holds, and
    # refused one below, at the first level that reaches that most: the
    # budget test, run only where a level can outgrow the budget, is never
    # skipped where it is needed.
    @pytest.mark.parametrize("g", budget_instances())
    def test_counting_pass(self, g, monkeypatch):
        sizes = [len(level) for _, level in exact.completion_levels(g.out_adj)][1:]
        count = permanent(g.out_adj)
        widest = max(sizes)
        monkeypatch.setattr(exact, "MAX_STATES", widest)
        assert permanent(g.out_adj) == count
        monkeypatch.setattr(exact, "MAX_STATES", widest - 1)
        k = g.n - 1 - sizes.index(widest)
        with pytest.raises(SizeLimitExceeded, match=f"^counting level {k} holds over {widest - 1} column sets$"):
            permanent(g.out_adj)

    @pytest.mark.parametrize("g", budget_instances())
    def test_census(self, g, monkeypatch):
        law, held = census_held(g)
        peak = max(held)
        monkeypatch.setattr(exact, "MAX_STATES", peak)
        assert exact.cycle_law(g) == law
        monkeypatch.setattr(exact, "MAX_STATES", peak - 1)
        k = held.index(peak) + 1
        with pytest.raises(SizeLimitExceeded, match=f"^cycle census holds over {peak - 1} states at level {k}$"):
            exact.cycle_law(g)


class TestExpectedCycles:
    def test_complete_3(self):
        assert build_report(complete_loops(3)).expected_cycles == Fraction(11, 6)

    def test_complete_4_is_h4(self):
        assert build_report(complete_loops(4)).expected_cycles == Fraction(25, 12)

    def test_directed_cycle_is_1(self):
        for n in (3, 5, 8):
            assert build_report(directed_cycle(n)).expected_cycles == 1

    def test_harmonic_numbers(self):
        for n in range(1, 7):
            h = sum(Fraction(1, k) for k in range(1, n + 1))
            assert build_report(complete_loops(n)).expected_cycles == h


class TestAuditBounds:
    def test_equality_case_n_equals_d(self):
        checks = {b.name: b for b in audit(complete_loops(5))}
        assert all(b.holds for b in checks.values())
        # n = d makes both factorial bounds tight
        assert math.isclose(
            checks["matching_upper_factorial"].lhs,
            checks["matching_upper_factorial"].rhs,
        )

    def test_bipartite_c8(self):
        checks = {b.name: b for b in audit(BIP_C8)}
        assert all(b.holds for b in checks.values())
        # 2 >= 4! * 2^4 / 4^4 = 1.5 and 2 <= (2!)^2 = 4
        assert checks["matching_lower_factorial"].rhs == pytest.approx(math.log2(1.5))

    def test_expected_cycles_bound_complete_3(self):
        checks = {b.name: b for b in audit(complete_loops(3))}
        b = checks["expected_cycles_upper"]
        assert b.lhs == pytest.approx(11 / 6)
        assert b.rhs == pytest.approx(4 * (math.log2(3) + 1))
        assert b.holds

    def test_random_corpus(self):
        rng = random.Random(3)
        for _ in range(40):
            n = rng.randint(1, 6)
            d = rng.randint(1, n)
            g = gen_random_regular_digraph(n, d, rng.randrange(10**6))
            assert all(b.holds for b in audit(g)), (n, d)


class TestEntropyLoss:
    def test_zero_for_complete(self):
        for n in range(1, 7):
            g = complete_loops(n)
            assert entropy_loss(g, factor_count(g)) == 0.0

    def test_zero_for_directed_cycle(self):
        g = directed_cycle(5)
        assert entropy_loss(g, factor_count(g)) == 0.0

    def test_zero_for_two_complete_blocks(self):
        g = gen_family("complete_loops", 6, 3)
        assert permanent(to_bipartite(g)) == 36
        assert entropy_loss(g, factor_count(g)) == 0.0

    def test_within_bounds_on_random_instances(self):
        rng = random.Random(4)
        for _ in range(40):
            n = rng.randint(1, 7)
            d = rng.randint(1, n)
            g = gen_random_regular_digraph(n, d, rng.randrange(10**6))
            loss = entropy_loss(g, factor_count(g))
            assert -1e-9 <= loss <= n / d * math.log2(math.e * d) + 1e-9


class TestReport:
    def test_report_fields_and_json(self):
        report = build_report(complete_loops(4))
        assert report.matching_count == 24
        assert report.expected_cycles == Fraction(25, 12)
        assert all(b.holds for b in report.bound_audit)
        assert 1 <= float(report.expected_cycles) <= report.n
        payload = report.to_json()
        assert '"matching_count": "24"' in payload

    def test_matching_count_at_least_one(self):
        rng = random.Random(5)
        for _ in range(25):
            n = rng.randint(1, 6)
            d = rng.randint(1, n)
            g = gen_random_regular_digraph(n, d, rng.randrange(10**6))
            assert permanent(to_bipartite(g)) >= 1
