"""Random cycle-factor generation.

Two backends: an exactly-uniform sequential sampler driven by extension
counts (bounded by the states its count table holds, see
``exact.MAX_STATES``), and a lazy near-perfect-matching Markov chain on
the auxiliary bipartite graph for larger instances. On top of
both sits the min-of-k selection that keeps the best of several
independent draws.
"""

from __future__ import annotations

import math
import os
import random
import threading
from collections import deque
from dataclasses import dataclass

from .errors import BadParameters, SizeLimitExceeded, StepBudgetExhausted
from .exact import MAX_STATES, completion_levels
from .graphs import CycleFactor, RegularDigraph

__all__ = [
    "EXACT_MAX_N",
    "SPLIT_MIN_STEPS",
    "SamplerConfig",
    "derive_seed",
    "hopcroft_karp",
    "ExactFactorSampler",
    "MCMCFactorSampler",
    "min_cycle_factor",
    "MinFactorResult",
]

# The exact table holds at most every column subset, 2^n entries, so up
# to this n it fits in MAX_STATES whatever order completion_levels pushes
# the rows in. Past it, the fit depends on the widths of the levels in
# frontier order (doubled C40 needs 421 entries), not on n.
EXACT_MAX_N = MAX_STATES.bit_length() - 1
_MASK64 = (1 << 64) - 1
# MCMC min-of-k runs split across processes from this many chain steps in
# all (k times the budget). Forking, piping and reaping a child costs
# 2.3-6.5 ms in 14-94 MB processes and 2^16 steps take 17-19 ms (2-core
# x86-64, CPython 3.11), so a second core saves about 9 ms at the threshold.
SPLIT_MIN_STEPS = 1 << 16


def derive_seed(seed: int, index: int) -> int:
    """Split a 64-bit seed into per-sample streams (splitmix64 finalizer)."""
    x = (seed + (index + 1) * 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


@dataclass(frozen=True)
class SamplerConfig:
    """Knobs for the samplers, checked when built; ``auto`` picks exact
    when n <= EXACT_MAX_N."""

    backend: str = "auto"  # exact | mcmc | auto
    mcmc_steps: int | None = None  # default 5 * n^2 * d
    num_samples: int | None = None  # default max(10, ceil(4 * log2 n))
    seed: int = 0

    def __post_init__(self):
        if self.backend not in ("auto", "exact", "mcmc"):
            raise BadParameters(f"unknown backend {self.backend!r}")
        if self.mcmc_steps is not None and self.mcmc_steps < 1:
            raise BadParameters("mcmc_steps must be positive")
        if self.num_samples is not None and self.num_samples < 1:
            raise BadParameters("num_samples must be positive")

    def resolve_backend(self, n: int) -> str:
        if self.backend == "auto":
            return "exact" if n <= EXACT_MAX_N else "mcmc"
        return self.backend

    def resolve_steps(self, g: RegularDigraph) -> int:
        if self.mcmc_steps is not None:
            return self.mcmc_steps
        # Ten times 0.5 n^2 d, the smallest budget that matched the exact
        # law on every family swept (README, "MCMC step budget").
        return 5 * g.n * g.n * g.d

    def resolve_num_samples(self, n: int) -> int:
        if self.num_samples is not None:
            return self.num_samples
        return max(10, math.ceil(4 * math.log2(max(n, 2))))


def hopcroft_karp(adj) -> list[int]:
    """Maximum matching of the bipartite graph whose U-side vertex u is
    joined to the V-side vertices ``adj[u]`` (n rows, n columns); returns
    the V-partner of each U vertex (-1 for unmatched). Deterministic:
    vertices scanned in index order.

    Each phase layers the graph by BFS from the free U vertices, then
    searches augmenting paths depth-first from each free U vertex in
    order. The search keeps its path on explicit stacks, so path length
    is not limited by Python's recursion depth.
    """
    n = len(adj)
    match_u = [-1] * n
    match_v = [-1] * n
    INF = n + 1
    while True:
        dist = [INF] * n
        queue = deque()
        for u in range(n):
            if match_u[u] == -1:
                dist[u] = 0
                queue.append(u)
        found = False
        while queue:
            u = queue.popleft()
            for v in adj[u]:
                w = match_v[v]
                if w == -1:
                    found = True
                elif dist[w] == INF:
                    dist[w] = dist[u] + 1
                    queue.append(w)
        if not found:
            return match_u
        # Depth-first along the layers from each free row in turn, as a
        # recursion on rows would: path holds the rows above u, cols the
        # column taken from each, scans where each row's scan resumes.
        path: list[int] = []
        cols: list[int] = []
        scans = []
        for root in range(n):
            if match_u[root] != -1:
                continue
            u, scan = root, iter(adj[root])
            while True:
                for v in scan:
                    w = match_v[v]
                    if w == -1 or dist[w] == dist[u] + 1:
                        break
                else:
                    dist[u] = INF  # a dead end for the rest of this phase
                    if not path:
                        break
                    u, scan = path.pop(), scans.pop()
                    cols.pop()
                    continue
                if w != -1:
                    path.append(u)
                    cols.append(v)
                    scans.append(scan)
                    u, scan = w, iter(adj[w])
                    continue
                while True:  # v is free: flip the path back to the root
                    match_u[u] = v
                    match_v[v] = u
                    if not path:
                        break
                    u, v = path.pop(), cols.pop()
                scans.clear()
                break


class ExactFactorSampler:
    """Exactly uniform cycle-factor sampler.

    ``_counts`` holds every level of ``completion_levels``, which pushes
    the rows in frontier order: for a column set S, the number of ways to
    match the first n - |S| rows pushed onto the columns outside S. A draw
    walks the rows in reverse push order, so S is the set of columns taken
    by the rows walked so far, and picks each row's column with a single
    uniform integer, which realises the count-ratio (permanent-ratio)
    sequential scheme exactly. The table holds at most MAX_STATES entries,
    enough for any n <= EXACT_MAX_N.
    """

    def __init__(self, g: RegularDigraph):
        self.graph = g
        self._counts: dict[int, int] = {}
        pushed = []
        for row, level in completion_levels(g.out_adj):
            if row is not None:
                pushed.append(row)
            self._counts.update(level)
            if len(self._counts) > MAX_STATES:
                raise SizeLimitExceeded(f"exact sampler table holds over {MAX_STATES} column sets")
        self._walk = [(row, g.out_adj[row]) for row in reversed(pushed)]
        self.total = self._counts.get(0, 0)

    def sample(self, rng: random.Random) -> CycleFactor:
        r = rng.randrange(self.total)
        sigma = [0] * self.graph.n
        used = 0
        for row, cols in self._walk:
            for v in cols:
                bit = 1 << v
                if used & bit:
                    continue
                c = self._counts.get(used | bit, 0)
                if r < c:
                    sigma[row] = v
                    used |= bit
                    break
                r -= c
            else:
                raise AssertionError("count tree inconsistent")
        return CycleFactor.from_sigma(sigma)


class MCMCFactorSampler:
    """Lazy near-perfect matching chain on the auxiliary bipartite graph.

    States are perfect matchings or matchings missing exactly one vertex on
    each side. From a perfect state a uniformly random matched edge is
    removed; from a 2-hole state an edge incident to a hole is added or
    rotated, uniformly among such edges. Every step is lazy with
    probability 1/2. Each draw restarts from a deterministic maximum
    matching, runs the configured burn-in (``steps``), and returns the
    first perfect state at or after it. A draw that meets no perfect state
    within 101 * ``steps`` steps raises ``StepBudgetExhausted``.
    """

    def __init__(self, g: RegularDigraph, steps: int):
        if steps < 1:
            raise BadParameters("step budget must be positive")
        self.graph = g
        self.steps = steps
        # The auxiliary bipartite graph: row u joins the columns g.out_adj[u].
        self._adj = g.out_adj
        # Column rows; appending u in increasing order leaves each sorted.
        in_adj: list[list[int]] = [[] for _ in range(g.n)]
        for u, row in enumerate(g.out_adj):
            for v in row:
                in_adj[v].append(u)
        self._in_adj = in_adj
        self._out_sets = [set(row) for row in g.out_adj]
        # g is d-regular with d >= 1, so by König's theorem this is perfect.
        self._init_match = hopcroft_karp(g.out_adj)

    def sample(self, rng: random.Random) -> CycleFactor:
        """One draw from ``rng``'s stream.

        Each move is drawn as CPython 3.11's ``rng.randrange(w)`` draws it
        (``Random._randbelow_with_getrandbits``): ``getrandbits(k)`` with
        k = w.bit_length(), drawn again while it is >= w. The draw is
        inlined here for speed; ``test_sampling`` checks that it still
        matches ``randrange``, since a seed's draws depend on it.
        """
        n = self.graph.n
        d = self.graph.d
        adj = self._adj
        in_adj = self._in_adj
        out_sets = self._out_sets
        match_u = list(self._init_match)
        match_v = [-1] * n
        for u, v in enumerate(match_u):
            match_v[v] = u
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
        for step in range(limit):
            if hole_u == -1 and step >= budget:
                return CycleFactor.from_sigma(match_u)
            if rnd() < 0.5:
                continue
            if hole_u == -1:
                u = bits(bits_n)
                while u >= n:
                    u = bits(bits_n)
                v = match_u[u]
                match_u[u] = -1
                match_v[v] = -1
                hole_u, hole_v = u, v
            else:
                overlap = hole_v in out_sets[hole_u]
                if overlap:
                    k = bits(bits_shared)
                    while k >= w_shared:
                        k = bits(bits_shared)
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
                        match_u[u2] = -1
                        hole_u = u2
                else:
                    in_row = in_adj[hole_v]
                    k -= d
                    # Rows are sorted and distinct: skip hole_u, counted above.
                    if overlap and in_row[k] >= hole_u:
                        k += 1
                    u2 = in_row[k]
                    v2 = match_u[u2]
                    match_u[u2] = hole_v
                    match_v[hole_v] = u2
                    match_v[v2] = -1
                    hole_v = v2
        raise StepBudgetExhausted(
            f"no perfect state within {limit} steps (budget {budget})"
        )


@dataclass(frozen=True)
class MinFactorResult:
    """Best of k independent draws, with every draw's cycle count."""

    factor: CycleFactor
    cycle_counts: tuple[int, ...]
    backend: str

    @property
    def best_count(self) -> int:
        return self.factor.num_cycles


def min_cycle_factor(g: RegularDigraph, cfg: SamplerConfig | None = None) -> MinFactorResult:
    """Draw k independent cycle-factors and keep the one with fewest cycles.

    Per-draw seeds are derived from (cfg.seed, draw index), so the result
    is independent of evaluation order; ties break to the first draw that
    attains the minimum.

    MCMC draws are split across p processes when k times the step budget
    is at least ``SPLIT_MIN_STEPS``: this one and a forked child per
    further CPU in ``os.sched_getaffinity(0)``, at most k in all, process w
    drawing the indices w, w + p, w + 2p, ... The result is the same as
    drawing serially. Any share not received intact from its child is
    drawn again here, so a failing draw raises here, after this process's
    own share. p is 1 below the threshold, for the exact backend, where
    ``os.fork`` or ``os.sched_getaffinity`` is missing, and while another
    thread is alive.
    """
    cfg = cfg or SamplerConfig()
    backend = cfg.resolve_backend(g.n)
    k = cfg.resolve_num_samples(g.n)
    if backend == "exact":
        sampler, p = ExactFactorSampler(g), 1
    else:
        sampler = MCMCFactorSampler(g, cfg.resolve_steps(g))
        p = _split_workers(k) if k * sampler.steps >= SPLIT_MIN_STEPS else 1
    counts, best = _draw(sampler, cfg.seed, k, p)
    return MinFactorResult(best, tuple(counts), backend)


def _split_workers(k: int) -> int:
    """Processes to split k draws across: this one and a child per further
    CPU it may run on, at most k; 1 where fork or affinity is missing, or
    where another thread is alive (a forked child copies only the calling
    thread, and would wait forever on a lock another one held)."""
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return 1
    if threading.active_count() > 1:
        return 1
    return min(k, len(os.sched_getaffinity(0)))


def _draw(sampler, seed: int, k: int, p: int):
    """Draw the indices 0..k-1 over p processes; return the cycle counts in
    index order and the factor with fewest cycles, the first on ties.

    Share w is range(w, k, p). Share 0 is drawn here; each other share in
    a forked child, which pickles back the share's counts and first
    minimum, or exits non-zero. Any share not received intact (a failed
    fork, a child that raised or was killed) is drawn again here, in
    share order, once every child is reaped. Children are killed and
    reaped on any exception, so none outlives the call.
    """

    def share(w):
        counts, best = [], None
        for i in range(w, k, p):
            cf = sampler.sample(random.Random(derive_seed(seed, i)))
            counts.append(cf.num_cycles)
            if best is None or cf.num_cycles < best[1].num_cycles:
                best = (i, cf)
        return counts, best

    if p > 1:
        import pickle  # here, not at the top: one process needs neither
        import signal
    children = []  # (share, pid, read end)
    got = {}
    reaped = set()
    try:
        for w in range(1, p):
            r, wr = os.pipe()
            try:
                pid = os.fork()
            except OSError:  # no process to spare: drawn here below
                os.close(r)
                pid = None
            if pid == 0:  # the child ends here, whatever share(w) raises
                status = 1
                try:
                    with open(wr, "wb") as f:
                        pickle.dump(share(w), f, pickle.HIGHEST_PROTOCOL)
                    status = 0
                finally:
                    os._exit(status)
            os.close(wr)
            if pid is not None:
                children.append((w, pid, r))
        got[0] = share(0)
        for w, pid, r in children:
            with open(r, "rb", closefd=False) as f:
                data = f.read()
            status = os.waitpid(pid, 0)[1]
            reaped.add(pid)
            if status == 0:
                got[w] = pickle.loads(data)
    finally:
        for _, pid, r in children:
            if pid not in reaped:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
            os.close(r)
    counts, bests = [0] * k, []
    for w in range(p):
        counts[w::p], best = got.get(w) or share(w)
        bests.append(best)
    return counts, min(bests, key=lambda b: (b[1].num_cycles, b[0]))[1]
