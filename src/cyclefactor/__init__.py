"""Cycle-factors with few cycles in regular digraphs.

Graph types and generators, exact counting oracles, uniform and
Markov-chain samplers, path-factor and tour constructions, and the
entropy checks behind the bounds (the skew lemma and the reveal audit),
with a CLI harness tying them together.
"""

__version__ = "0.1.0"

from .graphs import (
    CycleFactor,
    RegularDigraph,
    UndirectedRegularGraph,
    double_undirected,
    gen_family,
    gen_random_regular_digraph,
    read_graph,
    to_bipartite,
    write_graph,
)
from .exact import (
    OracleReport,
    audit_bounds,
    build_report,
    entropy_loss,
    exact_expected_cycles,
    permanent,
)
from .sampling import (
    ExactFactorSampler,
    MCMCFactorSampler,
    SamplerConfig,
    min_cycle_factor,
)
from .transforms import (
    PathFactor,
    Tour,
    to_path_factor,
    to_tour,
    to_undirected_cycle_factor,
    verify_path_factor,
    verify_tour,
)
from .entropy import (
    check_skew_lemma,
    reveal_audit,
    shannon_entropy,
)
