"""Cycle-factors with few cycles in regular digraphs.

Graph types and generators, exact counting oracles, uniform and
Markov-chain samplers, path-factor and tour constructions, and the
entropy checks behind the bounds (the skew lemma and the reveal audit),
with a CLI harness tying them together.
"""

__version__ = "0.1.0"
