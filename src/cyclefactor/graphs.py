"""Graph data types, validation, generators, and the on-disk text format.

All graphs use 0-based vertex indices and store adjacency rows strictly
increasing, so equality of graph records, which compares the type, n, d
and the rows, is canonical graph equality. Directed graphs may contain
loops and digons but never parallel edges; undirected graphs are always
simple. An undirected graph is stored as the digraph with both
directions of every edge, so it is a ``RegularDigraph`` too. Graphs
check these invariants once, when built, so a graph that exists is
valid. ``Record``, the frozen base of every record type of the package,
is here too, with the one constructor that binds their fields.
"""

from __future__ import annotations

import math
import random
from itertools import chain
from operator import contains

from .errors import BadParameters, GraphError, ParseError

__all__ = [
    "RegularDigraph",
    "UndirectedRegularGraph",
    "CycleFactor",
    "require_valid",
    "in_rows",
    "gen_random_regular_digraph",
    "FAMILIES",
    "gen_family",
    "read_graph",
    "write_graph",
    "graph_to_text",
]


class Record:
    """A frozen record. The slots named in ``_fields`` are its value:
    ``__init__`` takes each of them once, by position in that order or by
    keyword, and sets its slot with ``object.__setattr__``; after that,
    assigning or deleting one raises AttributeError. Records of the exact
    same class are equal when their values are, and the value is hashed,
    shown by ``repr`` and passed to ``__init__`` by pickle in that order.
    A subclass that checks, defaults or derives something defines its own
    ``__init__`` and passes every field on to this one."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init__(self, *args, **kwargs):
        # The keywords must name exactly the fields after the positionals:
        # that refuses a missing, repeated or unknown field.
        fields = self._fields
        if len(args) > len(fields) or kwargs.keys() != set(fields[len(args):]):
            raise TypeError(
                f"{self.__class__.__qualname__}() takes the fields ({', '.join(fields)}), each once,"
                f" got {len(args)} positional and the keywords ({', '.join(kwargs)})"
            )
        for name, value in chain(zip(fields, args), kwargs.items()):
            object.__setattr__(self, name, value)

    def _value(self) -> tuple:
        return tuple(getattr(self, f) for f in self._fields)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._value() == other._value()
        return NotImplemented

    def __hash__(self):
        return hash(self._value())

    def __repr__(self):
        args = ", ".join(f"{f}={v!r}" for f, v in zip(self._fields, self._value()))
        return f"{self.__class__.__qualname__}({args})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return self.__class__, self._value()


class RegularDigraph(Record):
    """A d-regular directed graph on n vertices.

    Every vertex has out-degree and in-degree exactly d. Loops and digons
    are permitted; parallel edges are not. ``out_adj[i]`` is the strictly
    increasing tuple of out-neighbours of vertex ``i``; ``in_adj`` is the
    transpose, built by the check that raises when any of this is broken
    (``require_valid``). ``in_adj`` is not part of the value.
    """

    _fields = ("n", "d", "out_adj")
    __slots__ = _fields + ("in_adj",)

    def __init__(self, n: int, d: int, out_adj: tuple[tuple[int, ...], ...]):
        super().__init__(n, d, out_adj)
        object.__setattr__(self, "in_adj", require_valid(self))

    @classmethod
    def from_lists(cls, n: int, d: int, out_adj) -> "RegularDigraph":
        return cls(n, d, tuple(tuple(sorted(row)) for row in out_adj))


class UndirectedRegularGraph(RegularDigraph):
    """A simple d-regular undirected graph, stored as its doubled digraph:
    ``out_adj[i]`` is the strictly increasing tuple of neighbours of ``i``.
    Its rows are symmetric, so ``in_adj`` is ``out_adj``, the same object.
    Building one that breaks any of this raises (see ``require_valid``).
    It never equals a ``RegularDigraph``."""

    __slots__ = ()

    def is_connected(self) -> bool:
        seen = [False] * self.n
        stack = [0]
        seen[0] = True
        count = 1
        while stack:
            u = stack.pop()
            for v in self.out_adj[u]:
                if not seen[v]:
                    seen[v] = True
                    count += 1
                    stack.append(v)
        return count == self.n


class CycleFactor(Record):
    """A cycle-factor: a permutation sigma whose arcs all lie in the graph.

    ``cycles`` is the cycle decomposition of sigma; loops count as
    1-cycles. Each cycle starts at its smallest vertex and cycles are
    sorted by that vertex, so equal factors compare equal.
    """

    __slots__ = _fields = ("sigma", "cycles")

    @classmethod
    def from_sigma(cls, sigma) -> "CycleFactor":
        sigma = tuple(sigma)
        n = len(sigma)
        if sigma and not (0 <= min(sigma) and max(sigma) < n):
            raise BadParameters("sigma is not a permutation")
        # With every value in range, sigma is a permutation exactly when
        # each walk closes at its start: one that stops at another seen
        # vertex has met a value twice.
        seen = [False] * n
        cycles = []
        for start in range(n):
            if seen[start]:
                continue
            cyc = []
            v = start
            while not seen[v]:
                seen[v] = True
                cyc.append(v)
                v = sigma[v]
            if v != start:
                raise BadParameters("sigma is not a permutation")
            cycles.append(tuple(cyc))
        return cls(sigma, tuple(cycles))

    @property
    def num_cycles(self) -> int:
        return len(self.cycles)

    def is_factor_of(self, g: RegularDigraph) -> bool:
        """Every arc (i, sigma(i)) is in g."""
        return len(self.sigma) == g.n and all(map(contains, g.out_adj, self.sigma))


def require_valid(g) -> tuple[tuple[int, ...], ...]:
    """Raise the first invariant violation of g, if any, as a GraphError;
    else return the transpose of its rows, which graphs keep as ``in_adj``.

    Graphs call this when built. Rows must be strictly increasing (so
    equal graphs compare equal) and have exactly d entries in [0, n).
    A digraph must give every vertex in-degree d; undirected rows must be
    loop-free and symmetric instead, and are their own transpose.
    """
    if not isinstance(g, RegularDigraph):
        raise BadParameters(f"unsupported graph type {type(g).__name__}")
    rows, n, d = g.out_adj, g.n, g.d
    directed = not isinstance(g, UndirectedRegularGraph)
    if not (1 <= d <= n):
        raise GraphError(f"need 1 <= d <= n, got d={d}, n={n}")
    if len(rows) != n:
        raise GraphError("adjacency row count != n")
    # One chained comparison per entry checks range and order at once;
    # loop is the one entry a row may not hold (-1, none, in a digraph).
    # _entry_fault names the fault of the entry that fails.
    what = "out-degree" if directed else "degree"
    for u, row in enumerate(rows):
        if len(row) != d:
            raise GraphError(f"vertex {u} has {what} {len(row)}, expected {d}")
        prev, loop = -1, -1 if directed else u
        for v in row:
            if not prev < v < n or v == loop:
                raise _entry_fault(u, v, prev, n, loops=directed)
            prev = v
    in_adj = tuple(map(tuple, in_rows(rows)))
    if directed:
        for v, col in enumerate(in_adj):
            if len(col) != d:
                raise GraphError(f"vertex {v} has in-degree {len(col)}, expected {d}")
        return in_adj
    # Sorted rows are symmetric exactly when they equal their transpose,
    # and then every in-degree is d. Else name the first (u, v) in row
    # order whose reverse is missing, that is, v is not in in-row u.
    if in_adj != rows:
        u, v = next((u, v) for u, row in enumerate(rows) for v in row if v not in in_adj[u])
        raise GraphError(f"edge ({u}, {v}) present but ({v}, {u}) missing")
    return rows


def _entry_fault(u: int, v: int, prev: int, n: int, loops: bool) -> GraphError:
    """What is wrong with entry v of row u, after prev, when the entries
    before it are in range, increasing and loop-free."""
    if not 0 <= v < n:
        return GraphError(f"vertex index {v} out of range [0, {n})")
    if v == u and not loops:
        return GraphError(f"loop at vertex {u} not allowed in undirected graph")
    if v == prev:
        return GraphError(f"duplicate edge ({u}, {v})")
    return GraphError(f"row {u} is not strictly increasing")


def to_bipartite(g: RegularDigraph) -> tuple[tuple[int, ...], ...]:
    """The biadjacency rows of the auxiliary bipartite graph whose perfect
    matchings are the cycle-factors of g: U-side vertex u connects to
    V-side vertex v exactly when (u, v) is an arc of g, so they are
    ``g.out_adj`` itself.
    Kept, out of ``__all__``, for perfbench/decompose.py (ROADMAP item 16)."""
    return g.out_adj


def in_rows(out_adj) -> list[list[int]]:
    """The transpose of ``out_adj``: entry c lists the rows r with c in
    ``out_adj[r]``. Rows are appended in increasing order, so each entry
    is strictly increasing, which the MCMC overlap skip relies on."""
    in_adj: list[list[int]] = [[] for _ in range(len(out_adj))]
    for r, row in enumerate(out_adj):
        for c in row:
            in_adj[c].append(r)
    return in_adj


def double_undirected(g: UndirectedRegularGraph) -> RegularDigraph:
    """Direct every edge of g in both directions. The result is d-regular
    and loop-free; every arc's reverse is present. g already stores these
    rows, so the result differs from g only in type.
    Kept, out of ``__all__``, for perfbench/decompose.py (ROADMAP item 16)."""
    return RegularDigraph(g.n, g.d, g.out_adj)


def gen_random_regular_digraph(
    n: int,
    d: int,
    seed: int,
    allow_loops: bool = True,
    allow_digons: bool = True,
) -> RegularDigraph:
    """Random d-regular digraph from the switch chain on arcs.

    Starts from the circulant i -> i + c (mod n), c = 0..d-1 (1..d without
    loops), under a seeded shuffle of the vertices, then makes
    ceil(m ln m) + 1000 proposals, m = n * d: two uniform arcs
    (a -> b, c -> e) become (a -> e, c -> b) unless that creates a
    parallel arc or a forbidden loop or digon. Deterministic given seed.

    Each proposal's arc pair is drawn as CPython 3.11's
    ``rng.randrange(m * m)`` draws it (``Random._randbelow_with_getrandbits``):
    ``getrandbits(k)`` with k = (m * m).bit_length(), drawn again while it
    is >= m * m. The draw is inlined for speed, so a seed's graph is the
    same as with ``randrange``; ``test_graphs`` checks it against the
    reference loop in ``tests/switch_chain.py``.

    Uniformity is claimed only with loops allowed, or with loops forbidden
    and digons allowed, where the chain is irreducible (Kannan, Tetali and
    Vempala 1999; Greenhill 2011). With ``allow_digons=False`` it is not:
    the start graph of (6, 2) or (7, 2) without loops never moves, so that
    output is a random relabelled instance, not claimed uniform.

    Raises BadParameters for a negative seed, which ``random.Random``
    would take as its absolute value, and when no digraph meets the
    constraints (d outside 1..n; no loops with d = n; no digons with
    2(d-1) > n-1, or 2d > n-1 without loops), which is exactly when no
    circulant start exists.
    """
    if seed < 0:
        raise BadParameters(f"need seed >= 0, got seed={seed}")
    if not 1 <= d <= n:
        raise BadParameters(f"need 1 <= d <= n, got d={d}, n={n}")
    if not allow_loops and d == n:
        raise BadParameters(f"no loop-free d-regular digraph has d = n = {n}")
    # Without digons the out- and in-neighbours of a vertex other than itself
    # are disjoint; a vertex with a loop has d - 1 of each.
    if not allow_digons and 2 * (d - 1 if allow_loops else d) > n - 1:
        raise BadParameters(
            f"no {d}-regular digraph on {n} vertices without digons"
            + ("" if allow_loops else " or loops")
        )
    rng = random.Random(seed)
    label = list(range(n))
    rng.shuffle(label)
    first = 0 if allow_loops else 1
    tails = [label[i] for _ in range(d) for i in range(n)]
    heads = [label[(i + c) % n] for c in range(first, first + d) for i in range(n)]
    arcs = {t * n + h for t, h in zip(tails, heads)}
    m = n * d
    pairs = m * m
    bits, k = rng.getrandbits, pairs.bit_length()
    add, remove = arcs.add, arcs.remove
    free = allow_loops and allow_digons
    for _ in range(math.ceil(m * math.log(m)) + 1000):
        r = bits(k)
        while r >= pairs:
            r = bits(k)
        i, j = divmod(r, m)
        # The rejections are pure tests, so their order changes no outcome:
        # the cheapest come first.
        a = tails[i]
        c = tails[j]
        if a == c:
            continue
        b = heads[i]
        e = heads[j]
        if b == e:
            continue
        ae = a * n + e
        if ae in arcs:
            continue
        cb = c * n + b
        if cb in arcs:
            continue
        if not free:
            if not allow_loops and (a == e or c == b):
                continue
            if not allow_digons and (
                (a != e and e * n + a in arcs)
                or (c != b and b * n + c in arcs)
                or (a == b and c == e)  # two loops become a digon a -> c -> a
            ):
                continue
        remove(a * n + b)
        remove(c * n + e)
        add(ae)
        add(cb)
        heads[i] = e
        heads[j] = b
    # The arc set is the chain's largest structure; free it before the
    # graph and its transpose are built, so it does not add to their peak.
    del arcs, add, remove
    out: list[list[int]] = [[] for _ in range(n)]
    for t, h in zip(tails, heads):
        out[t].append(h)
    return RegularDigraph.from_lists(n, d, out)


FAMILIES = ("complete_loops", "clique_union", "cycle", "complete_bipartite_like")


def gen_family(kind: str, n: int, d: int):
    """The named extremal test families, ``FAMILIES``.

    cycle (undirected): C_n, requires d=2. The others are n/size disjoint
    blocks of size vertices: complete_loops (directed), complete digraphs
    on d vertices, each with a loop at every vertex; clique_union
    (undirected), cliques on d+1 vertices; complete_bipartite_like
    (undirected), copies of K_{d,d}.
    """
    if kind == "cycle":
        if d != 2 or n < 3:
            raise BadParameters(f"cycle needs d=2 and n >= 3, got n={n}, d={d}")
        adj = [tuple(sorted(((i - 1) % n, (i + 1) % n))) for i in range(n)]
        return UndirectedRegularGraph(n, 2, tuple(adj))
    if kind not in FAMILIES:
        raise BadParameters(f"unknown family kind {kind!r}")
    if d < 1:
        raise BadParameters(f"{kind} needs d >= 1, got d={d}")
    # Each block family's block size, and its name in the message.
    size, name = {"complete_loops": (d, "d"), "clique_union": (d + 1, "(d+1)"),
                  "complete_bipartite_like": (2 * d, "2d")}[kind]
    if n % size != 0:
        raise BadParameters(f"{kind} needs {name} | n, got n={n}, d={d}")
    adj = []
    for i in range(n):
        block = range(i - i % size, i - i % size + size)
        if kind == "clique_union":
            block = [v for v in block if v != i]
        elif kind == "complete_bipartite_like":  # the half i is not in
            block = block[d:] if i % size < d else block[:d]
        adj.append(tuple(block))
    cls = RegularDigraph if kind == "complete_loops" else UndirectedRegularGraph
    return cls(n, d, tuple(adj))


def graph_to_text(g: RegularDigraph) -> str:
    """Serialize a graph to the canonical text format."""
    kind = "graph" if isinstance(g, UndirectedRegularGraph) else "digraph"
    names = list(map(str, range(g.n)))
    lines = [f"{kind} {g.n} {g.d}"]
    lines += [" ".join([names[v] for v in row]) for row in g.out_adj]
    return "\n".join(lines) + "\n"


def write_graph(g, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(graph_to_text(g))


def parse_graph(text: str):
    """Parse the text format; strict about counts, duplicates, and symmetry.

    Raises ParseError when the text is not in the format, and GraphError
    when it is but the graph it gives breaks an invariant."""
    lines = text.split("\n")  # only "\n" ends a line, as in read_graph's count
    tokens = list(map(str.split, lines))
    # A blank line has no token; a comment's first token starts with "#".
    kept = [row for row in tokens if row and row[0][0] != "#"]
    if not kept:
        raise ParseError(1, "empty file")
    parts, body = kept[0], kept[1:]
    # No line before the header has its tokens, since each would be kept.
    head_no = tokens.index(parts) + 1
    head = lines[head_no - 1].strip()
    if len(parts) != 3 or parts[0] not in ("digraph", "graph"):
        raise ParseError(head_no, f"bad header {head!r}")
    try:
        n, d = int(parts[1]), int(parts[2])
    except ValueError:
        raise ParseError(head_no, f"non-integer header fields in {head!r}") from None
    if len(body) != n:
        raise ParseError(head_no, f"expected {n} adjacency lines, found {len(body)}")
    try:
        flat = list(map(int, chain.from_iterable(body)))
    except ValueError:
        flat = None
    if flat is None or set(map(len, body)) - {d}:
        # Name the first bad line in file order, on it a non-integer first.
        for lineno, row in enumerate(tokens[head_no:], start=head_no + 1):
            if not row or row[0][0] == "#":
                continue
            try:
                list(map(int, row))
            except ValueError:
                line = lines[lineno - 1].strip()
                raise ParseError(lineno, f"non-integer vertex in {line!r}") from None
            if len(row) != d:
                raise ParseError(lineno, f"expected {d} neighbours, found {len(row)}")
    # Each of the n lines holds d integers; n = 0 leaves d unchecked.
    rows = tuple(map(tuple, map(sorted, zip(*[iter(flat)] * d)))) if n else ()
    cls = RegularDigraph if parts[0] == "digraph" else UndirectedRegularGraph
    return cls(n, d, rows)


def read_graph(path):
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as e:
        raise ParseError(data.count(b"\n", 0, e.start) + 1, f"not UTF-8 text: {e.reason}") from None
    return parse_graph(text)
