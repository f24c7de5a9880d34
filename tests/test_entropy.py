import math
import random

import pytest

from cyclefactor.entropy import (
    check_skew_lemma,
    reveal_audit,
    shannon_entropy,
)
from cyclefactor.errors import BadParameters, SizeLimitExceeded
from cyclefactor.graphs import RegularDigraph, gen_family, gen_random_regular_digraph
from reveal_reference import reveal_audit as reference_audit


def random_simplex_point(rng, s):
    weights = [-math.log(1.0 - rng.random()) for _ in range(s)]
    total = sum(weights)
    return [w / total for w in weights]


class TestShannonEntropy:
    def test_uniform_8(self):
        assert shannon_entropy([1 / 8] * 8) == pytest.approx(3.0)

    def test_point_mass(self):
        assert shannon_entropy([1.0, 0.0, 0.0]) == 0.0

    def test_half_quarter_quarter(self):
        assert shannon_entropy([0.5, 0.25, 0.25]) == pytest.approx(1.5)

    # Explicit ids keep these cases' test names stable.
    @pytest.mark.parametrize("probs, message", [
        pytest.param([], "empty distribution", id="probs0"),
        pytest.param([0.5, 0.4], "probabilities sum to 0.9, not 1", id="probs1"),
        pytest.param([1.2, -0.2], "negative probability", id="probs2"),
        pytest.param([math.nan, 1.0], "non-finite probability", id="probs3"),
        pytest.param([math.nan], "non-finite probability", id="probs4"),
        # Added left to right: a compensated sum (CPython 3.12's) reads 1.1.
        pytest.param([0.1] * 11, "probabilities sum to 1.0999999999999999, not 1", id="probs5"),
    ])
    def test_invalid(self, probs, message):
        with pytest.raises(BadParameters) as e:
            shannon_entropy(probs)
        assert str(e.value) == message

    def test_sums_left_to_right(self):
        # The terms are added left to right on every interpreter; CPython
        # 3.12's compensated sum would give 0x1.a934f0979a372p+1.
        assert float.hex(shannon_entropy([0.1] * 10)) == "0x1.a934f0979a371p+1"

    def test_bounded_by_log_support(self):
        rng = random.Random(0)
        for _ in range(300):
            s = rng.randint(1, 32)
            p = random_simplex_point(rng, s)
            h = shannon_entropy(p)
            assert -1e-12 <= h <= math.log2(s) + 1e-9


class TestSkewLemma:
    def test_uniform_has_zero_deficit(self):
        for s in (2, 5, 16):
            check = check_skew_lemma([1 / s] * s)
            assert check.ell == pytest.approx(0.0, abs=1e-12)
            assert check.holds

    def test_point_mass_s2(self):
        check = check_skew_lemma([1.0, 0.0])
        assert check.ell == pytest.approx(1.0)
        assert check.bound == pytest.approx(2.0)
        assert check.holds

    def test_worked_example(self):
        check = check_skew_lemma([0.6, 0.2, 0.1, 0.1])
        assert check.ell == pytest.approx(0.4290, abs=1e-4)
        assert check.bound == pytest.approx(0.9290, abs=1e-4)
        assert check.max_p == 0.6
        assert check.holds

    def test_random_distributions(self):
        rng = random.Random(1)
        for _ in range(2000):
            s = rng.randint(2, 64)
            assert check_skew_lemma(random_simplex_point(rng, s)).holds

    def test_rejects_nan(self):
        with pytest.raises(BadParameters, match="^non-finite probability$"):
            check_skew_lemma([math.nan, 1.0])


class TestRevealAudit:
    def test_complete_3_exact_uniformity(self):
        g = gen_family("complete_loops", 3, 3)
        report = reveal_audit(g)
        assert report.uniform
        assert report.tally_failures == ()
        # each of s = 1, 2, 3 hit exactly 2 * 3!/3 = 4 times per arc: each of
        # the 9 arcs lies on 2 of the 6 factors
        assert report.loss_gap <= 1e-6

    def test_d1_trivial(self):
        g = RegularDigraph(4, 1, ((1,), (2,), (3,), (0,)))
        report = reveal_audit(g)
        assert report.uniform
        assert report.aggregated_loss == pytest.approx(0.0, abs=1e-12)
        assert report.direct_loss == 0.0

    def test_complete_4_loss_agreement(self):
        g = gen_family("complete_loops", 4, 4)
        report = reveal_audit(g)
        assert report.uniform
        assert report.direct_loss == 0.0
        assert report.loss_gap <= 1e-6

    def test_random_small_instances(self):
        rng = random.Random(3)
        for _ in range(6):
            n = rng.randint(2, 6)
            d = rng.randint(1, n)
            g = gen_random_regular_digraph(n, d, rng.randrange(10**6))
            report = reveal_audit(g)
            assert report.uniform, (n, d)
            assert report.loss_gap <= 1e-6
            assert report.loss_gap <= 1e-14, (n, d)

    # The largest d the generator admits without loops (d <= n - 1), without
    # digons (2(d - 1) <= n - 1) or without both (2d <= n - 1).
    @pytest.mark.parametrize("loops, digons, top", [
        pytest.param(False, True, lambda n: n - 1, id="no_loops"),
        pytest.param(True, False, lambda n: (n - 1) // 2 + 1, id="no_digons"),
        pytest.param(False, False, lambda n: (n - 1) // 2, id="neither"),
    ])
    def test_random_small_instances_without_loops_or_digons(self, loops, digons, top):
        rng = random.Random(4)
        for n in range(2, 7):
            for d in range(1, top(n) + 1):
                g = gen_random_regular_digraph(
                    n, d, rng.randrange(10**6), allow_loops=loops, allow_digons=digons)
                report = reveal_audit(g)
                assert report.uniform, (n, d)
                assert report.loss_gap <= 1e-14, (n, d)

    def test_size_limit(self):
        with pytest.raises(SizeLimitExceeded):
            reveal_audit(gen_random_regular_digraph(7, 2, 0))

    # The aggregated loss is one math.fsum over (prefix, next vertex, group
    # of factors) terms, so it does not depend on the order of the terms;
    # these values pin the terms themselves and the ledger's closeness to
    # the direct loss.
    @pytest.mark.parametrize("rows, aggregated, direct", [
        pytest.param(((0, 1, 2), (0, 1, 2), (0, 1, 2), (3, 4, 5), (3, 4, 5), (3, 4, 5)),
                     "0x0.0p+0", "0x0.0p+0", id="complete_loops_6_3"),
        pytest.param(((0, 2, 5), (0, 1, 3), (1, 2, 5), (0, 3, 4), (2, 4, 5), (1, 3, 4)),
                     "0x1.fffffffffffffp-1", "0x1.0000000000000p+0", id="perm_union_6_3"),
        pytest.param(((0, 2, 3, 4), (0, 1, 2, 3), (0, 1, 2, 4), (1, 2, 3, 4), (0, 1, 3, 4)),
                     "0x1.164b451ebc8f8p-2", "0x1.164b451ebc8f0p-2", id="random_5_4"),
    ])
    def test_golden_report(self, rows, aggregated, direct):
        report = reveal_audit(RegularDigraph(len(rows), len(rows[0]), rows))
        assert report.uniform
        assert report.tally_failures == ()
        assert float.hex(report.aggregated_loss) == aggregated
        assert float.hex(report.direct_loss) == direct
        assert report.loss_gap <= 1e-14


def small_shapes(n):
    """Every (d, allow_loops, allow_digons) the generator admits at n: d up
    to n, n - 1 without loops, (n - 1) // 2 + 1 without digons, and
    (n - 1) // 2 without both."""
    tops = {(True, True): n, (False, True): n - 1,
            (True, False): (n - 1) // 2 + 1, (False, False): (n - 1) // 2}
    return [(d, loops, digons) for (loops, digons), top in tops.items() for d in range(1, top + 1)]


def assert_same_report(got, want):
    assert got == want
    assert float.hex(got.aggregated_loss) == float.hex(want.aggregated_loss)
    assert float.hex(got.direct_loss) == float.hex(want.direct_loss)


class TestRevealAuditReference:
    # The audit against tests/reveal_reference.py, the tuple-keyed audit
    # it was rewritten from: every field equal, the losses bit for bit.
    @pytest.mark.parametrize("n", range(1, 7))
    def test_every_small_shape_and_seed(self, n):
        # 324 digraphs over n = 1..6, seeds 0-5.
        for d, loops, digons in small_shapes(n):
            for seed in range(6):
                g = gen_random_regular_digraph(n, d, seed, allow_loops=loops, allow_digons=digons)
                assert_same_report(reveal_audit(g), reference_audit(g))

    @pytest.mark.parametrize("n, d", [(3, 3), (4, 4), (6, 1), (6, 2), (6, 3), (6, 6)])
    def test_complete_loops(self, n, d):
        g = gen_family("complete_loops", n, d)
        assert_same_report(reveal_audit(g), reference_audit(g))
