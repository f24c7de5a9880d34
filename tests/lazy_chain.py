"""The lazy near-perfect-matching chain, one step at a time.

A reference for the law of ``MCMCFactorSampler.sample``: every step flips
its lazy coin, and a move lists the edges it may take and picks one with
``randrange``. It shares only the starting matching with the package, so
the tests can compare the two samplers' laws, not their random streams.
"""

from cyclefactor.errors import StepBudgetExhausted
from cyclefactor.sampling import max_matching


def lazy_draw(g, budget, rng):
    """sigma of the first perfect state at or after step ``budget`` of the
    lazy chain started from the package's maximum matching; raises
    ``StepBudgetExhausted`` if none comes within 101 * budget steps."""
    match_u = list(max_matching(g.out_adj))
    match_v = [0] * g.n
    for u, v in enumerate(match_u):
        match_v[v] = u
    hole = None  # (row, column) left unmatched, None when perfect
    for step in range(101 * budget):
        if hole is None and step >= budget:
            return tuple(match_u)
        if rng.random() < 0.5:
            continue
        if hole is None:
            u = rng.randrange(g.n)
            hole = (u, match_u[u])
            continue
        hu, hv = hole
        # Every edge with an end at a hole, the edge (hu, hv) once.
        edges = [(hu, v) for v in g.out_adj[hu]]
        edges += [(u, hv) for u in range(g.n) if hv in g.out_adj[u] and u != hu]
        u, v = edges[rng.randrange(len(edges))]
        if (u, v) == (hu, hv):  # add: the state becomes perfect
            match_u[u], match_v[v] = v, u
            hole = None
        elif u == hu:  # rotate: v leaves its row, which becomes the hole
            u2 = match_v[v]
            match_u[u], match_v[v] = v, u
            hole = (u2, hv)
        else:  # rotate: u leaves its column, which becomes the hole
            v2 = match_u[u]
            match_u[u], match_v[v] = v, u
            hole = (hu, v2)
    raise StepBudgetExhausted(f"no perfect state within {101 * budget} steps (budget {budget})")
