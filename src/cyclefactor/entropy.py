"""Entropy primitives and the checkable entropy lemmas.

Shannon entropy (bits), the skew bound relating entropy loss to the
largest point probability, and the exhaustive reveal audit: going
through the vertices in every possible order, the number of
still-available out-neighbours of a vertex is distributed exactly
uniformly on {1, ..., d}. The audit lists neither the orders nor the
factors. Vertex i comes up right after the vertex set P in
|P|! (n - 1 - |P|)! of the n! orders, and all the audit sums depends on
a factor only through its image S on P, so one table of (P, S)
matching counts gives every tally and loss term with its weight.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import InvalidDistribution, SizeLimitExceeded
from .exact import entropy_loss
from .graphs import RegularDigraph

__all__ = [
    "REVEAL_MAX_N",
    "SkewCheck",
    "RevealAuditReport",
    "shannon_entropy",
    "check_skew_lemma",
    "reveal_audit",
]

REVEAL_MAX_N = 6
_SUM_TOLERANCE = 1e-12
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
    if abs(total - 1.0) > _SUM_TOLERANCE:
        raise InvalidDistribution(f"probabilities sum to {total}, not 1")
    return probs


def _entropy(probs) -> float:
    # No validation: callers pass a checked law or one derived from it.
    return -sum(p * math.log2(p) for p in probs if p > 0.0)


def shannon_entropy(probs) -> float:
    """Base-2 entropy of a finite distribution; zero entries contribute 0."""
    return _entropy(_validate(probs))


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
class RevealAuditReport:
    """Exhaustive audit of the reveal process over all vertex orders.

    For every arc (i, c), s, the count of out-neighbours of i still unused
    when i comes up, is tallied over all n! reveal orders and the m factors
    with sigma(i) = c; the tally must be exactly m n!/d for every s in
    {1, ..., d}, as each factor sees each s in n!/d orders (of the d rows
    it maps into N(i), i is one, and its rank among them is uniform). A
    failure names the arc. The order-averaged entropy deficit aggregates
    to the instance's total entropy loss. Nothing is listed: each proper
    prefix set P with image S, and i the next vertex, stands for the
    |P|! (n - 1 - |P|)! orders and the factors that share them, and the
    loss terms are summed with math.fsum, so aggregated_loss does not
    depend on the order of the terms.
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
    # pairs[P, S]: the matchings of rows P onto columns S, nonzero only;
    # each is built once, by adding its rows in increasing order.
    pairs = {(0, 0): 1}
    level = pairs
    for _ in range(n):
        nxt: dict[tuple[int, int], int] = {}
        for (rows, cols), ways in level.items():
            for i in range(rows.bit_length(), n):
                for c in g.out_adj[i]:
                    if not cols >> c & 1:
                        key = (rows | 1 << i, cols | 1 << c)
                        nxt[key] = nxt.get(key, 0) + ways
        pairs.update(nxt)
        level = nxt
    full = (1 << n) - 1
    count = pairs[full, full]
    n_fact = math.factorial(n)

    # Vertex i comes up right after the set P in `weight` of the n! orders.
    # The factors with image S on P form pairs[P, S] groups of
    # pairs[P^c, S^c]; in each, sigma(i) = c in pairs[P^c - i, S^c - c] of
    # them, and s, the out-neighbours of i not in S, is the same for all.
    # tallies[i, c][s - 1] adds weight once per factor with sigma(i) = c.
    tallies = {(i, c): [0] * d for i in range(n) for c in g.out_adj[i]}
    terms = []
    for (prefix, image), groups in pairs.items():
        rest, free = full ^ prefix, full ^ image
        size = pairs.get((rest, free), 0)
        if not rest or not size:
            continue
        k = prefix.bit_count()
        weight = math.factorial(k) * math.factorial(n - 1 - k)
        for i in range(n):
            if prefix >> i & 1:
                continue
            open_cols = [c for c in g.out_adj[i] if free >> c & 1]
            ways = [pairs.get((rest ^ 1 << i, free ^ 1 << c), 0) for c in open_cols]
            s = len(open_cols)
            h = _entropy(w / size for w in ways)
            terms.append(weight * groups * size * (math.log2(s) - h))
            for c, w in zip(open_cols, ways):
                tallies[i, c][s - 1] += weight * groups * w

    failures = []
    for (i, c), tally in tallies.items():
        expected = pairs.get((full ^ 1 << i, full ^ 1 << c), 0) * n_fact // d
        if any(t != expected for t in tally):
            failures.append(f"arc ({i}, {c}): tally {tally} != {expected} each")
    return RevealAuditReport(
        n=n,
        d=d,
        uniform=not failures,
        tally_failures=tuple(failures),
        aggregated_loss=math.fsum(terms) / (n_fact * count),
        direct_loss=entropy_loss(g, count),
    )
