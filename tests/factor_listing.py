"""Every cycle-factor of a small digraph, listed.

The package counts cycle-factors without listing them; the tests that
need the factors themselves list them here, and check the list's length
against the permanent.
"""

from cyclefactor.exact import iter_factor_sigmas, permanent
from cyclefactor.graphs import CycleFactor


def enumerate_cycle_factors(g):
    """All cycle-factors of g, complete and duplicate-free."""
    factors = [CycleFactor.from_sigma(s) for s in iter_factor_sigmas(g)]
    assert len(factors) == permanent(g.out_adj)
    return factors
