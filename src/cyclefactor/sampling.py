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

from .errors import BadParameters, SizeLimitExceeded, StepBudgetExhausted
from . import exact
from .graphs import CycleFactor, Record, RegularDigraph

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

# The exact table holds at most every column subset, 2^n entries, so up to
# this n it fits in exact.MAX_STATES whatever order completion_levels
# pushes the rows in. Past it, the fit depends on the widths of the levels
# in push order, not on n: doubled C40 needs 79 entries, random 48/3 at
# seed 1 99,653, random 40/4 at seed 1 2,031,164 (refused).
EXACT_MAX_N = exact.MAX_STATES.bit_length() - 1
_MASK64 = (1 << 64) - 1
# MCMC min-of-k runs split across processes from this many chain steps in
# all (k times the budget). A two-process split costs 1.4-1.8 ms more than
# a serial run of draws that cost nothing in a 20 MB process, 2.2-2.5 ms at
# 50 MB, 3.4-3.8 ms at 100 MB, and a budget step costs 0.08-0.10 us (2-core
# x86-64, CPython 3.11). A second core saves half the steps, so it breaks
# even at 2^15.0 steps in all at 20 MB, 2^15.7 at 50 MB, 2^16.3 at 100 MB.
SPLIT_MIN_STEPS = 1 << 16
# The burn-in's coins are drawn at most this many to a getrandbits call,
# so a draw holds 128 KiB of them whatever the step budget.
_COIN_CHUNK = 1 << 20


def derive_seed(seed: int, index: int) -> int:
    """Split a 64-bit seed into per-sample streams (splitmix64 finalizer)."""
    x = (seed + (index + 1) * 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


def _heads(getrandbits, flips: int) -> int:
    """The number of heads in ``flips`` fair coins, a Binomial(flips, 1/2)
    count: the set bits of ``flips`` random bits, drawn _COIN_CHUNK at a
    time."""
    heads = 0
    while flips > _COIN_CHUNK:
        heads += getrandbits(_COIN_CHUNK).bit_count()
        flips -= _COIN_CHUNK
    return heads + getrandbits(flips).bit_count()


class SamplerConfig(Record):
    """Knobs for the samplers, checked when built; ``auto`` picks exact
    when n <= EXACT_MAX_N."""

    __slots__ = _fields = ("backend", "mcmc_steps", "num_samples", "seed")

    def __init__(
        self,
        backend: str = "auto",  # exact | mcmc | auto
        mcmc_steps: int | None = None,  # default 20 * n * d * max(1, ceil(log2 n))
        num_samples: int | None = None,  # default max(10, ceil(4 * log2 n))
        seed: int = 0,
    ):
        # None leaves a budget to its default; a bool is not an integer here.
        for name, value in (("mcmc_steps", mcmc_steps), ("num_samples", num_samples), ("seed", seed)):
            if type(value) is not int and (value is not None or name == "seed"):
                raise BadParameters(f"{name} must be an integer, got {value!r}")
        if backend not in ("auto", "exact", "mcmc"):
            raise BadParameters(f"unknown backend {backend!r}")
        if mcmc_steps is not None and mcmc_steps < 1:
            raise BadParameters("mcmc_steps must be positive")
        if num_samples is not None and num_samples < 1:
            raise BadParameters("num_samples must be positive")
        # derive_seed reduces mod 2^64, so a seed outside would replay another.
        if not 0 <= seed <= _MASK64:
            raise BadParameters(f"need 0 <= seed < 2**64, got seed={seed}")
        super().__init__(backend, mcmc_steps, num_samples, seed)

    def resolve_backend(self, n: int) -> str:
        if self.backend == "auto":
            return "exact" if n <= EXACT_MAX_N else "mcmc"
        return self.backend

    def resolve_steps(self, g: RegularDigraph) -> int:
        if self.mcmc_steps is not None:
            return self.mcmc_steps
        # Four times 5 n d ceil(log2 n), the smallest multiple at which
        # every instance swept, n = 16-256, matched its exact reference
        # (README, "MCMC step budget"); equal to 5 n^2 d at n = 16.
        # (n - 1).bit_length() is ceil(log2 n), 0 at n = 1.
        return 20 * g.n * g.d * max(1, (g.n - 1).bit_length())

    def resolve_num_samples(self, n: int) -> int:
        if self.num_samples is not None:
            return self.num_samples
        return max(10, math.ceil(4 * math.log2(max(n, 2))))


def hopcroft_karp(adj) -> list[int]:
    """Maximum matching of the bipartite graph whose U-side vertex u is
    joined to the V-side vertices ``adj[u]`` (n rows, n columns); returns
    the V-partner of each U vertex (-1 for unmatched). Deterministic:
    vertices scanned in index order.

    The first phase starts with every row free, so its layers are all
    level 0 and each row in turn takes its first free column: it is run
    as that first-fit loop. Each later phase layers the graph by BFS from
    the rows free when it starts, one level at a time over plain lists:
    the rows that level t reaches through their columns' partners form
    level t + 1, in the order a queue would take them, and the BFS runs
    until a level reaches no new row. The phase then searches augmenting
    paths depth-first from each free row in order. A matched row never
    becomes free again, so each phase's free rows are the last phase's,
    filtered, in index order. The search keeps two explicit stacks,
    ``path`` (the rows above the current one) and ``scans`` (where their
    scans resume), so path length is not limited by Python's recursion
    depth. A path found is flipped back to its root: each row on it takes
    the column below and hands its old one, which its parent took to
    reach it, up to the parent.
    """
    n = len(adj)
    match_u = [-1] * n
    match_v = [-1] * n
    for u, row in enumerate(adj):
        for v in row:
            if match_v[v] == -1:
                match_u[u] = v
                match_v[v] = u
                break
    INF = n + 1
    free = [u for u in range(n) if match_u[u] == -1]
    while True:
        dist = [INF] * n
        for u in free:
            dist[u] = 0
        level, depth = free, 0
        found = False
        while level:
            depth += 1
            reached = []
            for u in level:
                for v in adj[u]:
                    w = match_v[v]
                    if w == -1:
                        found = True
                    elif dist[w] == INF:
                        dist[w] = depth
                        reached.append(w)
            level = reached
        if not found:
            return match_u
        # Depth-first along the layers from each free row in turn, as a
        # recursion on rows would.
        path: list[int] = []
        scans = []
        for root in free:
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
                    continue
                if w != -1:
                    path.append(u)
                    scans.append(scan)
                    u, scan = w, iter(adj[w])
                    continue
                while True:  # v is free: flip the path back to the root
                    match_v[v] = u
                    match_u[u], v = v, match_u[u]
                    if not path:
                        break
                    u = path.pop()
                scans.clear()
                break
        free = [u for u in free if match_u[u] == -1]


class ExactFactorSampler:
    """Exactly uniform cycle-factor sampler.

    Keeps each level of ``completion_levels`` as the pass built it, beside
    the row pushed from it. A level maps a column set S to the number of
    ways to match the first n - |S| rows pushed onto the columns outside S.
    A draw walks the rows in reverse push order, S being the set of columns
    taken by the rows walked so far, each looked up in the walked row's own
    level, and picks each row's column with a single uniform integer: the
    count-ratio (permanent-ratio) sequential scheme, exactly. The levels
    hold at most exact.MAX_STATES entries in all, enough for any
    n <= EXACT_MAX_N.
    """

    def __init__(self, g: RegularDigraph):
        self.graph = g
        self._walk = deque()  # (row, its columns, the level it is pushed from)
        held = 0
        for row, level in exact.completion_levels(g.out_adj):
            if row is not None:
                self._walk.appendleft((row, g.out_adj[row], source))
            held += len(level)
            if held > exact.MAX_STATES:
                raise SizeLimitExceeded(
                    f"exact sampler table holds over {exact.MAX_STATES} column sets")
            source = level
        self.total = level.get(0, 0)

    def sample(self, rng: random.Random) -> CycleFactor:
        r = rng.randrange(self.total)
        sigma = [0] * self.graph.n
        used = 0
        for row, cols, counts in self._walk:
            for v in cols:
                bit = 1 << v
                if used & bit:
                    continue
                c = counts.get(used | bit, 0)
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

    A lazy step leaves the state as it is, so the burn-in is drawn as
    Binomial(``steps``, 1/2) moves in a row, the same law as ``steps``
    lazy steps for fewer random draws.

    The start matching and its inverse are built once; a draw copies
    both. A hole's own slots keep their stale partners: no move reads
    them while they are holes (the rotate moves skip the hole row), and
    the add move that ends a 2-hole run writes both before the draw can
    return from the perfect state it makes.
    """

    def __init__(self, g: RegularDigraph, steps: int):
        if steps < 1:
            raise BadParameters("step budget must be positive")
        self.graph = g
        self.steps = steps
        self._out_sets = list(map(set, g.out_adj))
        # g is d-regular with d >= 1, so by König's theorem this is perfect.
        self._init_match = hopcroft_karp(g.out_adj)
        self._init_match_v = [0] * g.n
        for u, v in enumerate(self._init_match):
            self._init_match_v[v] = u

    def sample(self, rng: random.Random) -> CycleFactor:
        """One draw from ``rng``'s stream.

        The burn-in's ``steps`` lazy coins come first, as one count of
        moves (``_heads``); those moves then run with no coin. From the
        budget on, each step flips its coin with ``rng.random()``, and the
        draw returns at the first perfect state. The outer loop runs once
        per visit to a perfect state: from the budget on it returns, and
        before it opens a hole. The inner loop runs the 2-hole steps up to
        the add move; after one on the last step, the draw raises.

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
        # Both loops take their steps from one iterator, so the step after an
        # add move is the outer loop's next, and none is left past the limit.
        steps = iter(range(budget - _heads(bits, budget), limit))
        for step in steps:
            if step >= budget:
                return CycleFactor.from_sigma(match_u)
            u = bits(bits_n)
            while u >= n:
                u = bits(bits_n)
            hole_u, hole_v = u, match_u[u]
            for step in steps:
                if step >= budget and rnd() < 0.5:
                    continue
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
                        break
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


class MinFactorResult(Record):
    """Best of k independent draws, with every draw's cycle count."""

    __slots__ = _fields = ("factor", "cycle_counts", "backend")

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
