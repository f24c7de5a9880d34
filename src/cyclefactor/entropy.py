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
from functools import reduce
from operator import add

from .errors import BadParameters, SizeLimitExceeded
from .exact import entropy_loss
from .graphs import Record, RegularDigraph

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
        raise BadParameters("empty distribution")
    if not all(math.isfinite(p) for p in probs):
        raise BadParameters("non-finite probability")
    if any(p < 0 for p in probs):
        raise BadParameters("negative probability")
    total = reduce(add, probs, 0.0)
    if abs(total - 1.0) > _SUM_TOLERANCE:
        raise BadParameters(f"probabilities sum to {total}, not 1")
    return probs


def _entropy(probs) -> float:
    # No validation: callers pass a checked law or one derived from it.
    # reduce adds left to right on every interpreter (3.12 made sum compensated).
    return -reduce(add, (p * math.log2(p) for p in probs if p > 0.0), 0.0)


def shannon_entropy(probs) -> float:
    """Base-2 entropy of a finite distribution; zero entries contribute 0."""
    return _entropy(_validate(probs))


class SkewCheck(Record):
    """max_p <= 2/s + ell, where ell = log2(s) - H(X)."""

    __slots__ = _fields = ("max_p", "ell", "bound", "holds")


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


class RevealAuditReport(Record):
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

    __slots__ = _fields = ("n", "d", "uniform", "tally_failures", "aggregated_loss", "direct_loss")

    @property
    def loss_gap(self) -> float:
        return abs(self.aggregated_loss - self.direct_loss)


def reveal_audit(g: RegularDigraph) -> RevealAuditReport:
    """Run the exhaustive reveal audit on a small digraph (n <= 6)."""
    n, d = g.n, g.d
    if n > REVEAL_MAX_N:
        raise SizeLimitExceeded(f"reveal audit limited to n <= {REVEAL_MAX_N}, got {n}")
    arcs = [(i, c) for i in range(n) for c in g.out_adj[i]]
    rows = [tuple((a, 1 << n + j | 1 << c, 1 << c) for a, (j, c) in enumerate(arcs) if j == i) for i in range(n)]
    # pairs[P << n | S]: the matchings of rows P onto columns S, nonzero only,
    # each built once by adding its rows in increasing order. rows[i] holds
    # (a, drop, bit) per arc a = (i, c): drop flips row i and column c in a key.
    pairs = {0: 1}
    level = pairs
    for _ in range(n):
        nxt: dict[int, int] = {}
        for key, ways in level.items():
            for row in rows[(key >> n).bit_length():]:
                for _, drop, bit in row:
                    if not key & bit:
                        nxt[key | drop] = nxt.get(key | drop, 0) + ways
        pairs.update(nxt)
        level = nxt
    both = (1 << 2 * n) - 1
    count = pairs[both]
    fact = [math.factorial(k) for k in range(n + 1)]
    weight = [fact[k] * fact[n - 1 - k] for k in range(n)]
    in_set = [[row for i, row in enumerate(rows) if rest >> i & 1] for rest in range(1 << n)]
    get = pairs.get

    # Vertex i comes up right after the set P in |P|! (n - 1 - |P|)! of
    # the n! orders, and `scale` is that weight times pairs[P, S].
    # The factors with image S on P form pairs[P, S] groups of
    # pairs[P^c, S^c]; in each, sigma(i) = c in pairs[P^c - i, S^c - c] of
    # them, and s, the out-neighbours of i not in S, is the same for all.
    # tallies[a][s - 1] adds the weight once per factor taking arc a = (i, c).
    # h is -H, added left to right as by _entropy: the same on every interpreter.
    tallies = [[0] * d for _ in arcs]
    terms = []
    for key, groups in pairs.items():
        rest = key ^ both  # P^c << n | S^c
        size = get(rest, 0)
        if rest >> n == 0 or not size:
            continue
        scale = weight[(key >> n).bit_count()] * groups
        for row in in_set[rest >> n]:
            found = [(a, get(rest ^ drop, 0)) for a, drop, bit in row if rest & bit]
            s = len(found)
            h = 0.0
            for a, w in found:
                if w:
                    p = w / size
                    h += p * math.log2(p)
                    tallies[a][s - 1] += scale * w
            terms.append(scale * size * (math.log2(s) + h))

    failures = []
    for (i, c), tally in zip(arcs, tallies):
        expected = get(both ^ (1 << n + i | 1 << c), 0) * fact[n] // d
        if any(t != expected for t in tally):
            failures.append(f"arc ({i}, {c}): tally {tally} != {expected} each")
    return RevealAuditReport(
        n=n,
        d=d,
        uniform=not failures,
        tally_failures=tuple(failures),
        aggregated_loss=math.fsum(terms) / (fact[n] * count),
        direct_loss=entropy_loss(g, count),
    )
