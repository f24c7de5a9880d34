"""Every cycle-factor of a small digraph, listed.

The package counts cycle-factors without listing them; the tests that
need the factors themselves list them here, by a depth-first walk that
shares no code with the package's counting, and check the list's length
against the permanent.
"""

from cyclefactor.exact import permanent
from cyclefactor.graphs import CycleFactor


def iter_factor_sigmas(g):
    """Yield every permutation sigma with all arcs (i, sigma[i]) in g, in
    lexicographic order.

    Depth-first matching extension with sorted branching, on an explicit
    stack of row iterators (rows 0..i of the current partial assignment);
    duplicates are impossible by construction. No feasibility guard: it
    takes as long as the factors are many.
    """
    n = g.n
    out_adj = g.out_adj
    sigma = [0] * n
    used = 0
    stack = [iter(out_adj[0])]
    while stack:
        i = len(stack) - 1
        for v in stack[i]:
            bit = 1 << v
            if not used & bit:
                break
        else:
            stack.pop()
            if i:
                used ^= 1 << sigma[i - 1]
            continue
        sigma[i] = v
        if i + 1 == n:
            yield tuple(sigma)
            continue
        used |= bit
        stack.append(iter(out_adj[i + 1]))


def enumerate_cycle_factors(g):
    """All cycle-factors of g, complete and duplicate-free."""
    factors = [CycleFactor.from_sigma(s) for s in iter_factor_sigmas(g)]
    assert len(factors) == permanent(g.out_adj)
    return factors
