"""The MCMC draw as written at commit a72558b, one loop with a -1 sentinel.

A reference for the random stream of ``MCMCFactorSampler.sample``: the
method's body as it was before the two-hole steps became an inner loop,
copied verbatim (``self`` is the sampler), with the burn-in's binomial
count as it was then. A faster step loop must return the same sigma, or
raise the same ``StepBudgetExhausted``, from every seed.
"""

import random

from cyclefactor.errors import StepBudgetExhausted
from cyclefactor.graphs import CycleFactor

_COIN_CHUNK = 1 << 20


def _heads(getrandbits, flips: int) -> int:
    """The number of heads in ``flips`` fair coins, a Binomial(flips, 1/2)
    count: the set bits of ``flips`` random bits, drawn _COIN_CHUNK at a
    time."""
    heads = 0
    while flips > _COIN_CHUNK:
        heads += getrandbits(_COIN_CHUNK).bit_count()
        flips -= _COIN_CHUNK
    return heads + getrandbits(flips).bit_count()


def sample(self, rng: random.Random) -> CycleFactor:
    """One draw from ``rng``'s stream.

    The burn-in's ``steps`` lazy coins come first, as one count of
    moves (``_heads``); those moves then run with no coin. From the
    budget on, each step flips its coin with ``rng.random()``, and the
    draw returns at the first perfect state.

    Each move is drawn as CPython 3.11's ``rng.randrange(w)`` draws it
    (``Random._randbelow_with_getrandbits``): ``getrandbits(k)`` with
    k = w.bit_length(), drawn again while it is >= w. The draw is
    inlined here for speed; ``test_sampling`` checks that it still
    matches ``randrange``, since a seed's draws depend on it.
    """
    n = self.graph.n
    d = self.graph.d
    # The auxiliary bipartite graph's rows, and the graph's transpose.
    adj = self.graph.out_adj
    in_adj = self.graph.in_adj
    out_sets = self._out_sets
    match_u = self._init_match.copy()
    match_v = self._init_match_v.copy()
    hole_u = -1  # -1 means perfect
    hole_v = -1
    budget = self.steps
    limit = budget + 100 * budget
    rnd = rng.random
    bits = rng.getrandbits
    # Every row has d entries, so a perfect state has n moves and a
    # 2-hole state 2d, or 2d - 1 when the add edge (hole_u, hole_v)
    # appears in both hole rows and is counted once.
    bits_n = n.bit_length()
    w_apart, bits_apart = 2 * d, (2 * d).bit_length()
    w_shared, bits_shared = 2 * d - 1, (2 * d - 1).bit_length()
    # Before the budget the draw never returns and a lazy step changes
    # nothing, so only the burn-in's moves are run, with no coin.
    for step in range(budget - _heads(bits, budget), limit):
        if step >= budget:
            if hole_u == -1:
                return CycleFactor.from_sigma(match_u)
            if rnd() < 0.5:
                continue
        if hole_u == -1:
            u = bits(bits_n)
            while u >= n:
                u = bits(bits_n)
            hole_u, hole_v = u, match_u[u]
        else:
            if hole_v in out_sets[hole_u]:
                k = bits(bits_shared)
                while k >= w_shared:
                    k = bits(bits_shared)
                # Transpose rows are sorted and distinct: skip hole_u.
                if k >= d and in_adj[hole_v][k - d] >= hole_u:
                    k += 1
            else:
                k = bits(bits_apart)
                while k >= w_apart:
                    k = bits(bits_apart)
            if k < d:
                v = adj[hole_u][k]
                if v == hole_v:
                    match_u[hole_u] = v
                    match_v[v] = hole_u
                    hole_u = hole_v = -1
                else:
                    u2 = match_v[v]
                    match_v[v] = hole_u
                    match_u[hole_u] = v
                    hole_u = u2
            else:
                u2 = in_adj[hole_v][k - d]
                v2 = match_u[u2]
                match_u[u2] = hole_v
                match_v[hole_v] = u2
                hole_v = v2
    raise StepBudgetExhausted(
        f"no perfect state within {limit} steps (budget {budget})"
    )
