"""Cycle-factor transformations: undirected cycle decompositions,
path-factors, and short tours of connected graphs.

A directed cycle-factor of a doubled undirected graph maps to an
undirected cycle decomposition (digons become single-edge 2-cycles).
Dropping each cycle's closing edge gives a path-factor; contracting
cycles, spanning the contraction with a BFS tree, and detouring over
tree edges gives a closed tour of length n + 2(c - 1) for a factor.
"""

from __future__ import annotations

from collections import deque
from itertools import chain
from operator import contains, itemgetter

from .errors import BadParameters
from .graphs import CycleFactor, Record, UndirectedRegularGraph

__all__ = [
    "PathFactor",
    "Tour",
    "CheckReport",
    "to_path_factor",
    "to_tour",
    "verify_path_factor",
    "verify_tour",
]


class PathFactor(Record):
    """Vertex-disjoint paths covering all vertices; singletons allowed."""

    __slots__ = _fields = ("paths",)

    @property
    def num_paths(self) -> int:
        return len(self.paths)


class Tour(Record):
    """Closed walk visiting every vertex; length counts edge traversals."""

    __slots__ = _fields = ("walk",)

    @property
    def length(self) -> int:
        return len(self.walk) - 1


class CheckReport(Record):
    """Structured verdict from an independent checker; never raised."""

    __slots__ = _fields = ("ok", "violations")


def to_undirected_cycle_factor(
    cf: CycleFactor, g: UndirectedRegularGraph
) -> tuple[tuple[int, ...], ...]:
    """Interpret a cycle-factor of the doubled digraph as undirected cycles.

    Directed cycles of length >= 3 become undirected cycles; digons become
    single-edge 2-cycles [u, v]. The result partitions the vertex set;
    g has no loops, so it has no 1-cycles.
    Kept, out of ``__all__``, for perfbench/decompose.py (ROADMAP item 16).
    """
    if not cf.is_factor_of(g):
        raise BadParameters("input is not a cycle-factor of the doubled graph")
    return cf.cycles


def _cycle_index(cycles: tuple[tuple[int, ...], ...], n: int) -> list[int]:
    """The index of the cycle holding each vertex of [0, n); raises
    BadParameters unless the cycles partition [0, n)."""
    cyc_of = [-1] * n
    for ci, cyc in enumerate(cycles):
        for v in cyc:
            if not 0 <= v < n:
                raise BadParameters(f"vertex {v} is out of range for n={n}")
            if cyc_of[v] != -1:
                raise BadParameters(f"vertex {v} appears in two cycles")
            cyc_of[v] = ci
    if -1 in cyc_of:
        raise BadParameters("cycles do not cover every vertex")
    return cyc_of


def to_path_factor(
    cycles: tuple[tuple[int, ...], ...], g: UndirectedRegularGraph
) -> PathFactor:
    """One path per cycle: the cycle less its closing edge, from its last
    vertex back to its first. The cycles must partition the vertices of g,
    as for ``to_tour``; a 2-cycle keeps its one edge, a singleton stays."""
    _cycle_index(cycles, g.n)
    return PathFactor(tuple(cycles))


def to_tour(cycles: tuple[tuple[int, ...], ...], g: UndirectedRegularGraph) -> Tour:
    """Stitch a cycle decomposition of a connected graph into a closed tour.

    Each cycle is contracted to a supernode. A BFS spanning tree of the
    contraction, rooted at the cycle containing vertex 0, scans each parent
    cycle in its listed order and neighbours in vertex order; the first edge
    (u, v) found into an unreached cycle makes it a child, entered at v by
    a detour from u and back, and the detours at u go in the order the
    BFS found their cycles. The walk goes round every cycle once and over
    every tree edge twice: n + 2(c - 1) edges if no cycle is a singleton,
    as in a factor of a loopless graph. The BFS is the connectivity check:
    when the cycles are cycles of g, it reaches every one of them exactly
    when g is connected.
    """
    cyc_of = _cycle_index(cycles, g.n)
    root = cyc_of[0]
    # entry[c]: the vertex where cycle c is entered; detours[u]: the child
    # cycles entered from vertex u.
    entry: list[int | None] = [None] * len(cycles)
    entry[root] = 0
    detours: dict[int, list[int]] = {}
    queue = deque([root])
    while queue:
        for u in cycles[queue.popleft()]:
            for v in g.out_adj[u]:
                cj = cyc_of[v]
                if entry[cj] is None:
                    entry[cj] = v
                    detours.setdefault(u, []).append(cj)
                    queue.append(cj)
    if None in entry:
        raise BadParameters("tour construction needs a connected graph")

    # Work stack, last item first: a vertex to append, or a 1-tuple (cycle,)
    # to walk round from its entry back to it, detouring into children.
    walk: list[int] = []
    todo: list = [(root,)]
    while todo:
        item = todo.pop()
        if not isinstance(item, tuple):
            walk.append(item)
            continue
        cyc, e = cycles[item[0]], entry[item[0]]
        start = cyc.index(e)
        seq: list = []
        for w in cyc[start:] + cyc[:start]:
            seq.append(w)
            for cj in detours.get(w, ()):
                seq += [(cj,), w]
        if len(cyc) >= 2:
            seq.append(e)
        todo += reversed(seq)
    return Tour(tuple(walk))


def _violations(paths: tuple, g: UndirectedRegularGraph, once: bool) -> list[str]:
    """The faults that keep ``paths`` from being walks of g that cover every
    vertex, each vertex once if ``once``. Path by path: an empty path, each
    vertex out of range or (if ``once``) seen before, each step between two
    vertices in range that is no edge; then each uncovered vertex."""
    # One all-pass test at C speed; the scan below names what fails. A
    # step goes from a path's vertex but its last (tails) to the next one.
    n, row = g.n, g.out_adj.__getitem__
    flat = list(chain.from_iterable(paths))
    tails = chain.from_iterable(map(itemgetter(slice(-1)), paths))
    heads = chain.from_iterable(map(itemgetter(slice(1, None)), paths))
    if (all(paths) and (len(flat) == n or not once) and 0 <= min(flat) and max(flat) < n
            and len(set(flat)) == n and all(map(contains, map(row, tails), heads))):
        return []
    violations = []
    seen: set[int] = set()
    for path in paths:
        if not path:
            violations.append("EmptyPath")
            continue
        for v in path:
            if not 0 <= v < n:
                violations.append(f"IndexOutOfRange: {v}")
            elif once and v in seen:
                violations.append(f"VertexReuse: {v}")
            else:
                seen.add(v)
        for a, b in zip(path, path[1:]):
            # An end outside [0, n) is reported above; row(a) would index by it.
            if 0 <= a < n and 0 <= b < n and b not in row(a):
                violations.append(f"NonEdge: ({a}, {b})")
    violations += (f"UncoveredVertex: {v}" for v in range(n) if v not in seen)
    return violations


def verify_path_factor(pf: PathFactor, g: UndirectedRegularGraph) -> CheckReport:
    """Re-validate all path-factor invariants against g from scratch."""
    violations = _violations(pf.paths, g, once=True)
    return CheckReport(not violations, tuple(violations))


def verify_tour(t: Tour, g: UndirectedRegularGraph) -> CheckReport:
    """Re-validate all tour invariants against g from scratch; a tour may
    repeat vertices, and an open walk is reported before any other fault."""
    walk = t.walk
    if not walk:
        return CheckReport(False, ("EmptyWalk",))
    violations = _violations((walk,), g, once=False)
    if walk[0] != walk[-1]:
        violations.insert(0, f"NotClosed: starts {walk[0]}, ends {walk[-1]}")
    return CheckReport(not violations, tuple(violations))
