import math
import random

import pytest

from cyclefactor.entropy import (
    binary_entropy,
    chain_rule_check,
    check_skew_lemma,
    reveal_audit,
    shannon_entropy,
)
from cyclefactor.errors import InvalidDistribution, OutOfRange, SizeLimitExceeded
from cyclefactor.graphs import RegularDigraph, gen_family, gen_random_regular_digraph


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

    @pytest.mark.parametrize(
        "probs", [[], [0.5, 0.4], [1.2, -0.2], [math.nan, 1.0], [math.nan]]
    )
    def test_invalid(self, probs):
        with pytest.raises(InvalidDistribution):
            shannon_entropy(probs)

    def test_bounded_by_log_support(self):
        rng = random.Random(0)
        for _ in range(300):
            s = rng.randint(1, 32)
            p = random_simplex_point(rng, s)
            h = shannon_entropy(p)
            assert -1e-12 <= h <= math.log2(s) + 1e-9


class TestBinaryEntropy:
    def test_endpoints_and_max(self):
        assert binary_entropy(0.0) == 0.0
        assert binary_entropy(1.0) == 0.0
        assert binary_entropy(0.5) == pytest.approx(1.0)

    def test_quarter(self):
        assert binary_entropy(0.25) == pytest.approx(0.8112781244591328)

    def test_symmetric(self):
        for k in range(1, 500):
            p = k / 1000
            assert binary_entropy(p) == pytest.approx(binary_entropy(1 - p))

    def test_matches_shannon_on_grid(self):
        for k in range(1001):
            p = k / 1000
            assert binary_entropy(p) == shannon_entropy((p, 1 - p))

    def test_out_of_range(self):
        with pytest.raises(OutOfRange):
            binary_entropy(1.5)


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
        with pytest.raises(InvalidDistribution):
            check_skew_lemma([math.nan, 1.0])


class TestChainRule:
    def test_independent_uniform(self):
        check = chain_rule_check([[0.25, 0.25], [0.25, 0.25]])
        assert check.joint_entropy == pytest.approx(2.0)
        assert check.marginal_entropy == pytest.approx(1.0)
        assert check.conditional_entropy == pytest.approx(1.0)
        assert check.holds

    def test_diagonal(self):
        check = chain_rule_check([[0.5, 0.0], [0.0, 0.5]])
        assert check.joint_entropy == pytest.approx(1.0)
        assert check.conditional_entropy == pytest.approx(0.0)
        assert check.holds

    def test_worked_example(self):
        check = chain_rule_check([[0.4, 0.1], [0.2, 0.3]])
        assert check.gap <= 1e-9
        assert check.joint_entropy == pytest.approx(1.84644, abs=1e-4)

    def test_random_joints(self):
        rng = random.Random(2)
        for _ in range(200):
            rows, cols = rng.randint(2, 6), rng.randint(2, 6)
            flat = random_simplex_point(rng, rows * cols)
            joint = [flat[r * cols : (r + 1) * cols] for r in range(rows)]
            assert chain_rule_check(joint).holds

    def test_invalid(self):
        with pytest.raises(InvalidDistribution):
            chain_rule_check([[0.5], [0.2]])


class TestRevealAudit:
    def test_complete_3_exact_uniformity(self):
        g = gen_family("complete_loops", 3, 3)
        report = reveal_audit(g)
        assert report.uniform
        assert report.tally_failures == ()
        # each of s = 1, 2, 3 hit exactly 3!/3 = 2 times per (vertex, factor)
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
