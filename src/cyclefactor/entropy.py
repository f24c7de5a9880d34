"""Entropy primitives and the checkable entropy lemmas.

Shannon and binary entropy (bits), the two-variable chain rule, the
skew bound relating entropy loss to the largest point probability, and
the exhaustive reveal audit: going through the vertices in every possible
order, the number of still-available out-neighbours of a vertex is
distributed exactly uniformly on {1, ..., d}. The audit counts the orders
rather than listing them: vertex i comes up right after the vertex set P
in |P|! (n - 1 - |P|)! of the n! orders, so it visits each of the 2^n - 1
proper prefixes once, with that weight.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from itertools import permutations

from .errors import InvalidDistribution, OutOfRange, SizeLimitExceeded
from .exact import entropy_loss
from .graphs import RegularDigraph

__all__ = [
    "REVEAL_MAX_N",
    "SUM_TOLERANCE",
    "SkewCheck",
    "ChainRuleCheck",
    "RevealAuditReport",
    "shannon_entropy",
    "binary_entropy",
    "check_skew_lemma",
    "chain_rule_check",
    "reveal_audit",
]

REVEAL_MAX_N = 6
SUM_TOLERANCE = 1e-12
_SLACK = 1e-9


def _validate(probs) -> tuple[float, ...]:
    probs = tuple(float(p) for p in probs)
    if not probs:
        raise InvalidDistribution("empty distribution")
    if not all(math.isfinite(p) for p in probs):
        raise InvalidDistribution("non-finite probability")
    if any(p < 0 for p in probs):
        raise InvalidDistribution("negative probability")
    total = sum(probs)
    if abs(total - 1.0) > SUM_TOLERANCE:
        raise InvalidDistribution(f"probabilities sum to {total}, not 1")
    return probs


def _entropy(probs) -> float:
    # No validation: callers pass a checked law or one derived from it.
    return -sum(p * math.log2(p) for p in probs if p > 0.0)


def shannon_entropy(probs) -> float:
    """Base-2 entropy of a finite distribution; zero entries contribute 0."""
    return _entropy(_validate(probs))


def binary_entropy(p: float) -> float:
    """Entropy of a Bernoulli(p) variable, in bits."""
    if not 0.0 <= p <= 1.0:
        raise OutOfRange(f"p must lie in [0, 1], got {p}")
    return shannon_entropy((p, 1.0 - p))


@dataclass(frozen=True)
class SkewCheck:
    """max_p <= 2/s + ell, where ell = log2(s) - H(X)."""

    max_p: float
    ell: float
    bound: float
    holds: bool


def check_skew_lemma(probs) -> SkewCheck:
    """Check the entropy-skew bound for one distribution.

    With support size s and entropy deficit ell = log2(s) - H(X), no point
    probability may exceed 2/s + ell (up to float slack).
    """
    probs = _validate(probs)
    s = len(probs)
    ell = math.log2(s) - _entropy(probs)
    max_p = max(probs)
    bound = 2.0 / s + ell
    return SkewCheck(max_p, ell, bound, max_p <= bound + _SLACK)


@dataclass(frozen=True)
class ChainRuleCheck:
    """H(X, Y) against H(X) + H(Y | X) for a two-variable joint law."""

    joint_entropy: float
    marginal_entropy: float
    conditional_entropy: float
    gap: float
    holds: bool


def chain_rule_check(joint) -> ChainRuleCheck:
    """Verify the chain rule on a joint probability matrix.

    ``joint[x][y]`` is P(X=x, Y=y); both decompositions must agree to
    within 1e-9.
    """
    rows = [tuple(float(p) for p in row) for row in joint]
    if not rows or any(len(row) != len(rows[0]) for row in rows):
        raise InvalidDistribution("joint matrix must be rectangular and non-empty")
    flat = [p for row in rows for p in row]
    _validate(flat)
    h_joint = _entropy(flat)
    row_sums = [sum(row) for row in rows]
    h_x = _entropy(row_sums)
    h_y_given_x = 0.0
    for px, row in zip(row_sums, rows):
        if px <= 0.0:
            continue
        h_y_given_x += px * _entropy(p / px for p in row)
    gap = abs(h_joint - h_x - h_y_given_x)
    return ChainRuleCheck(h_joint, h_x, h_y_given_x, gap, gap <= _SLACK)


@dataclass(frozen=True)
class RevealAuditReport:
    """Exhaustive audit of the reveal process over all vertex orders.

    For every vertex i and factor sigma', the count of out-neighbours of i
    still unused when i comes up is tallied over all n! reveal orders; the
    tally must be exactly n!/d for every value in {1, ..., d}. The
    order-averaged entropy deficit aggregates to the instance's total
    entropy loss. The orders are counted, not listed: each proper prefix
    set P, with i the next vertex, stands for the |P|! (n - 1 - |P|)!
    orders that share it, and the loss terms are summed with math.fsum,
    so aggregated_loss does not depend on the order of the terms.
    """

    n: int
    d: int
    uniform: bool
    tally_failures: tuple[str, ...]
    aggregated_loss: float
    direct_loss: float

    @property
    def loss_gap(self) -> float:
        return abs(self.aggregated_loss - self.direct_loss)


def reveal_audit(g: RegularDigraph) -> RevealAuditReport:
    """Run the exhaustive reveal audit on a small digraph (n <= 6)."""
    n, d = g.n, g.d
    if n > REVEAL_MAX_N:
        raise SizeLimitExceeded(f"reveal audit limited to n <= {REVEAL_MAX_N}, got {n}")
    out_masks = [sum(1 << v for v in row) for row in g.out_adj]
    # At most n! <= 720 permutations, in lexicographic order.
    factors = [
        sig
        for sig in permutations(range(n))
        if all(out_masks[i] >> v & 1 for i, v in enumerate(sig))
    ]
    n_fact = math.factorial(n)

    # Vertex i comes up right after the set `prefix` in `weight` of the n!
    # orders. Factors that agree on the prefix share s, the out-neighbours
    # of i not yet taken, and h, the entropy of sigma(i) among them; each
    # such group adds `weight` to tallies[fi][i][s - 1] of its factors.
    tallies = [[[0] * d for _ in range(n)] for _ in factors]
    terms = []
    for prefix in range((1 << n) - 1):
        members = [v for v in range(n) if prefix >> v & 1]
        weight = math.factorial(len(members)) * math.factorial(n - 1 - len(members))
        groups: dict[tuple[int, ...], list[int]] = {}
        for fi, sig in enumerate(factors):
            groups.setdefault(tuple(sig[v] for v in members), []).append(fi)
        for pinned, group in groups.items():
            free = ~sum(1 << w for w in pinned)
            for i in range(n):
                if prefix >> i & 1:
                    continue
                s = (out_masks[i] & free).bit_count()
                images = Counter(factors[fi][i] for fi in group)
                h = _entropy(c / len(group) for c in images.values())
                terms.append(weight * len(group) * (math.log2(s) - h))
                for fi in group:
                    tallies[fi][i][s - 1] += weight

    expected = n_fact // d
    failures = []
    for fi in range(len(factors)):
        for i in range(n):
            if any(t != expected for t in tallies[fi][i]):
                failures.append(
                    f"vertex {i}, factor {fi}: tally {tallies[fi][i]} != {expected} each"
                )
    aggregated = math.fsum(terms) / (n_fact * len(factors))
    return RevealAuditReport(
        n=n,
        d=d,
        uniform=not failures,
        tally_failures=tuple(failures),
        aggregated_loss=aggregated,
        direct_loss=entropy_loss(g, len(factors)),
    )
