"""The switch chain on arcs, as written before its draw was inlined.

A reference for the random stream of ``gen_random_regular_digraph``: the
same start and proposals, with each arc pair drawn by ``rng.randrange`` and
the rejections tested in their first order. It skips the package's
parameter checks, so callers pass only feasible (n, d, flags).
"""

import math
import random

from cyclefactor.graphs import RegularDigraph


def switch_chain(n, d, seed, allow_loops=True, allow_digons=True):
    """The graph that ``gen_random_regular_digraph`` should return for these
    arguments, built one ``randrange`` proposal at a time."""
    rng = random.Random(seed)
    label = list(range(n))
    rng.shuffle(label)
    first = 0 if allow_loops else 1
    tails = [label[i] for _ in range(d) for i in range(n)]
    heads = [label[(i + c) % n] for c in range(first, first + d) for i in range(n)]
    arcs = {t * n + h for t, h in zip(tails, heads)}
    m = n * d
    for _ in range(math.ceil(m * math.log(m)) + 1000):
        i, j = divmod(rng.randrange(m * m), m)
        a, b, c, e = tails[i], heads[i], tails[j], heads[j]
        if a == c or b == e:
            continue
        ae = a * n + e
        cb = c * n + b
        if ae in arcs or cb in arcs:
            continue
        if not allow_loops and (a == e or c == b):
            continue
        if not allow_digons and (
            (a != e and e * n + a in arcs)
            or (c != b and b * n + c in arcs)
            or (a == b and c == e)  # two loops become a digon a -> c -> a
        ):
            continue
        arcs.remove(a * n + b)
        arcs.remove(c * n + e)
        arcs.add(ae)
        arcs.add(cb)
        heads[i], heads[j] = e, b
    out = [[] for _ in range(n)]
    for t, h in zip(tails, heads):
        out[t].append(h)
    return RegularDigraph.from_lists(n, d, out)
