"""The reveal audit with its pair table keyed by (rows, cols) tuples.

A reference for ``entropy.reveal_audit``, as written before its table
was keyed by one int and its per-row work inlined: the same table of
(P, S) matching counts, walked prefix by prefix, with each entropy term
built from a list of probabilities. Its entropy adds left to right, the
rule of the package's ``_entropy``, so the two reports must be equal
field for field, every float bit for bit.
"""

import math

from cyclefactor.entropy import REVEAL_MAX_N, RevealAuditReport
from cyclefactor.errors import SizeLimitExceeded
from cyclefactor.exact import entropy_loss


def _entropy(probs):
    total = 0.0
    for p in probs:
        if p > 0.0:
            total += p * math.log2(p)
    return -total


def reveal_audit(g):
    """The ``RevealAuditReport`` that ``entropy.reveal_audit(g)`` should
    return, for a digraph with n <= 6."""
    n, d = g.n, g.d
    if n > REVEAL_MAX_N:
        raise SizeLimitExceeded(f"reveal audit limited to n <= {REVEAL_MAX_N}, got {n}")
    # pairs[P, S]: the matchings of rows P onto columns S, nonzero only;
    # each is built once, by adding its rows in increasing order.
    pairs = {(0, 0): 1}
    level = pairs
    for _ in range(n):
        nxt = {}
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
    fact = [math.factorial(k) for k in range(n + 1)]

    # Vertex i comes up right after the set P in |P|! (n - 1 - |P|)! of
    # the n! orders, and `scale` is that weight times pairs[P, S].
    # The factors with image S on P form pairs[P, S] groups of
    # pairs[P^c, S^c]; in each, sigma(i) = c in pairs[P^c - i, S^c - c] of
    # them, and s, the out-neighbours of i not in S, is the same for all.
    # tallies[a][s - 1] adds the weight once per factor taking arc a = (i, c).
    arcs = [(i, c) for i in range(n) for c in g.out_adj[i]]
    row_arcs = [[(a, 1 << c) for a, (j, c) in enumerate(arcs) if j == i] for i in range(n)]
    tallies = [[0] * d for _ in arcs]
    terms = []
    for (prefix, image), groups in pairs.items():
        rest, free = full ^ prefix, full ^ image
        size = pairs.get((rest, free), 0)
        if not rest or not size:
            continue
        k = prefix.bit_count()
        scale = fact[k] * fact[n - 1 - k] * groups
        todo = rest
        while todo:
            low = todo & -todo
            todo ^= low
            open_arcs = [arc for arc in row_arcs[low.bit_length() - 1] if free & arc[1]]
            ways = [pairs.get((rest ^ low, free ^ bit), 0) for _, bit in open_arcs]
            s = len(open_arcs)
            h = _entropy([w / size for w in ways])
            terms.append(scale * size * (math.log2(s) - h))
            for (a, _), w in zip(open_arcs, ways):
                tallies[a][s - 1] += scale * w

    failures = []
    for (i, c), tally in zip(arcs, tallies):
        expected = pairs.get((full ^ 1 << i, full ^ 1 << c), 0) * fact[n] // d
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
