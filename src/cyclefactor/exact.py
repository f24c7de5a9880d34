"""Exact counting and expectation machinery.

One counting pass over column sets (``completion_levels``, rows pushed
in the order that keeps the fewest columns open, sets that leave a
closed column free dropped, exact big integers, at most MAX_STATES
states per level), a dynamic programme over cycles in canonical order
that gives the law of the cycle count (the number of factors with each
cycle count) without listing factors (``cycle_law``, at most MAX_STATES
states held), exact expected cycle count as a rational, the
matching-count bound audits, and the entropy-loss ledger. MAX_STATES,
the one state budget, is the only limit: no instance is refused for its
number of factors.
"""

from __future__ import annotations

import heapq
import json
import math
from fractions import Fraction

from .errors import SizeLimitExceeded
from .graphs import Record, RegularDigraph, in_rows

__all__ = [
    "MAX_STATES",
    "BoundCheck",
    "OracleReport",
    "completion_levels",
    "permanent",
    "cycle_law",
    "cycle_bound",
    "audit_bounds",
    "entropy_loss",
    "build_report",
]

# A census state costs about 120 bytes, so a census refused here peaks
# near 140 MB of RSS (random n=24 d=4).
MAX_STATES = 1 << 20


class BoundCheck(Record):
    """One audited inequality: lhs <= rhs (or >=), with its verdict."""

    __slots__ = _fields = ("name", "lhs", "rhs", "holds")


class OracleReport(Record):
    """Exact quantities for one instance, plus the bound-audit verdicts."""

    __slots__ = _fields = (
        "n", "d", "matching_count", "expected_cycles", "entropy_loss", "bound_audit")

    def to_json(self) -> str:
        return json.dumps(
            {
                "n": self.n,
                "d": self.d,
                "matching_count": str(self.matching_count),
                "expected_cycles": {
                    "numerator": str(self.expected_cycles.numerator),
                    "denominator": str(self.expected_cycles.denominator),
                    "decimal": f"{float(self.expected_cycles):.15g}",
                },
                "entropy_loss_bits": self.entropy_loss,
                "bound_audit": [
                    {"name": b.name, "lhs": b.lhs, "rhs": b.rhs, "holds": b.holds}
                    for b in self.bound_audit
                ],
            },
            sort_keys=True,
        )


def _frontier_order(out_adj) -> list[int]:
    """Rows in push order: next comes the row whose push grows the open
    columns least, open meaning touched by a pushed row with an in-row
    not yet pushed: the columns it touches first less the columns whose
    last unpushed in-row it is. Ties go to the most columns already
    touched, then to the lowest index.

    The key (growth + w) (w + 1) n + (w - touched) n + row, w the longest
    row, orders rows so; a heap holds one key per lowering. A push lowers
    only the keys of the rows next to a column it touches first or leaves
    one unpushed in-row, so only a row's newest key matches it, and the
    others are skipped when popped. O(n d^2 log n).
    """
    n = len(out_adj)
    in_adj = in_rows(out_adj)
    unpushed = [len(rows) for rows in in_adj]
    w = max(map(len, out_adj), default=0)
    step = (w + 1) * n
    key = [(len(row) + w) * step + w * n + r for r, row in enumerate(out_adj)]
    for rows in in_adj:
        if len(rows) == 1:  # its one in-row closes it as it touches it
            key[rows[0]] -= step
    heap = sorted(key)
    order = []
    while heap:
        k = heapq.heappop(heap)
        r = k % n
        if k != key[r]:
            continue
        key[r] = -1  # pushed: never lowered again
        order.append(r)
        for c in out_adj[r]:
            unpushed[c] -= 1
            first = unpushed[c] + 1 == len(in_adj[c])
            drop = (first + (unpushed[c] == 1)) * step + first * n
            if drop:
                for r2 in in_adj[c]:
                    if key[r2] >= 0:
                        key[r2] -= drop
                        heapq.heappush(heap, key[r2])
    return order


def completion_levels(out_adj):
    """Yield ``(row, level)``: first ``(None, {all columns: 1})``, then one
    pair per row pushed, in the order of ``_frontier_order`` (row r may
    take the columns in ``out_adj[r]``). A level maps a column set
    ``left`` to the number of matchings of the rows pushed so far onto
    exactly the columns outside ``left``; the popcount of ``left`` is k,
    the number of rows still to push. Each level is pushed down from the
    one before and keeps only nonzero entries that leave no closed column
    free: a column is closed once its last in-row (in push order) has
    been pushed, and a set that leaves it free completes to no matching.
    So a row that closes columns must take the one its set holds: a set
    holding two is dropped. The last level is {0: permanent}, or empty.
    Raises SizeLimitExceeded as soon as a level holds more than
    MAX_STATES sets.

    Sets in a level differ only in open columns, touched by a pushed row
    and not closed, and the push order keeps few of them open, which
    keeps levels narrow (doubled C40: 79 entries in all, at most 2 per
    level; 421 and 20 with the sets that leave a closed column free;
    random 48/3 seed 1: 99,653).
    """
    n = len(out_adj)
    order = _frontier_order(out_adj)
    last = {c: row for row in order for c in out_adj[row]}
    closes = [0] * n
    for c, row in last.items():
        closes[row] |= 1 << c
    level = {(1 << n) - 1: 1}
    yield None, level
    for k, row in zip(range(n - 1, -1, -1), order):
        bits = [1 << v for v in out_adj[row]]
        must = closes[row]
        nxt: dict[int, int] = {}
        for left, ways in level.items():
            hit = left & must
            if hit:
                if not hit & (hit - 1):
                    nxt[left ^ hit] = nxt.get(left ^ hit, 0) + ways
            else:
                for bit in bits:
                    if left & bit:
                        nxt[left ^ bit] = nxt.get(left ^ bit, 0) + ways
            if len(nxt) > MAX_STATES:
                raise SizeLimitExceeded(f"counting level {k} holds over {MAX_STATES} column sets")
        level = nxt
        yield row, level


def permanent(out_adj) -> int:
    """Exact permanent of the 0/1 matrix whose row r has ones in the
    columns ``out_adj[r]``. For a digraph's out-rows it counts the
    digraph's cycle-factors, the perfect matchings of its bipartite graph.

    Counts perfect matchings: the entry for the empty set in the last
    level of ``completion_levels``, which pushes the rows in frontier
    order and holds two levels at a time. Exact in arbitrary-precision
    integers.
    """
    for _, level in completion_levels(out_adj):
        pass
    return level.get(0, 0)


def cycle_law(g: RegularDigraph) -> dict[int, int]:
    """The law of the cycle count over g's cycle-factors, without listing
    them: {c: number of factors with exactly c cycles}, in increasing c.

    Builds every factor one cycle at a time in canonical order: a cycle
    starts at the lowest uncovered vertex s, steps only into uncovered
    vertices and closes by stepping back to s. A state is (covered set S,
    start s, head h), holding the law of the closed cycles over the partial
    factors that reach it; level k holds the states with |S| = k. A state
    is dropped once some column still owed an in-arc (one outside S, or s)
    has no in-neighbour among the rows still owed an out-arc (those outside
    S, plus h), or once such a row has no out-neighbour among such columns:
    it completes to no factor, so the law is unchanged. Raises
    SizeLimitExceeded as soon as the two levels in hand hold more than
    MAX_STATES states.
    """
    n, d = g.n, g.d
    out_adj, in_adj = g.out_adj, g.in_adj
    out_mask = [sum(1 << v for v in row) for row in out_adj]
    in_mask = [sum(1 << r for r in col) for col in in_adj]
    full = (1 << n) - 1
    # A state's value is the polynomial sum of ways_c * x^c at x = 2^b, where
    # ways_c partial factors reaching it have closed c cycles. At most d^n
    # partial factors reach a state, or close c cycles in all, and b is the
    # least width with d^n < 2^b (1 bit for d = 1), so no digit carries into
    # the next: closing a cycle is a shift by b, merging two states a sum.
    b = (d**n).bit_length()
    total = 0
    # The state (covered, s, h) is keyed by covered << 2w | s << w | h.
    w = n.bit_length()
    vertex = (1 << w) - 1
    bit = [1 << v for v in range(n)]
    level = {1 << 2 * w: 1}
    for k in range(1, n + 1):
        nxt: dict[int, int] = {}
        for state, value in level.items():
            covered, s, h = state >> 2 * w, state >> w & vertex, state & vertex
            rest = full ^ covered
            # After any step from h the rows owed an out-arc are `rest`, so
            # an owed column of h with no in-neighbour there must be h's step.
            row = steps = out_adj[h]
            for c in row:
                if (c == s or rest & bit[c]) and not in_mask[c] & rest:
                    if steps is not row:
                        steps = ()  # two such columns: no step completes
                        break
                    steps = (c,)
            for v in steps:
                if v == s:
                    if not rest:
                        total += value << b
                        continue
                    owed = rest
                    low = rest & -rest
                    start = low.bit_length() - 1
                    key = (covered | low) << 2 * w | start << w | start
                    stepped = value << b
                elif rest & bit[v]:
                    owed = rest ^ bit[v] | bit[s]
                    key = (covered | bit[v]) << 2 * w | s << w | v
                    stepped = value
                else:
                    continue
                # The step leaves the columns `owed` owed an in-arc; each row
                # of `rest` that could fill v must keep one of them.
                for r in in_adj[v]:
                    if rest & bit[r] and not out_mask[r] & owed:
                        break
                else:
                    nxt[key] = nxt.get(key, 0) + stepped
            if len(level) + len(nxt) > MAX_STATES:
                raise SizeLimitExceeded(f"cycle census holds over {MAX_STATES} states at level {k}")
        level = nxt
    digit = (1 << b) - 1
    law = {}
    for c in range(1, n + 1):
        ways = total >> c * b & digit
        if ways:
            law[c] = ways
    return law


def factor_census(g: RegularDigraph) -> tuple[int, int]:
    """(number of cycle-factors, total cycle count over all of them).

    Counts twice, by independent methods: the count from ``cycle_law``
    must equal the permanent from the counting pass. Refused only when
    either runs past its state budget.
    """
    expected = permanent(g.out_adj)
    law = cycle_law(g)
    count = sum(law.values())
    if count != expected:
        raise AssertionError(f"cycle census counts {count} factors, the permanent {expected}")
    return count, sum(c * ways for c, ways in law.items())


def entropy_loss(g: RegularDigraph, matching_count: int) -> float:
    """Gap (in bits) between (n/d)*log2(d!) and log2(matching_count), the
    number of cycle-factors of g."""
    if g.n % g.d == 0:
        # Single-log form so the tight case (count == (d!)^(n/d)) cancels
        # to exactly 0.0 instead of a rounding residue.
        cap = math.factorial(g.d) ** (g.n // g.d)
        return math.log2(cap) - math.log2(matching_count)
    return g.n / g.d * math.log2(math.factorial(g.d)) - math.log2(matching_count)


def cycle_bound(n: int, d: int) -> dict:
    """The paper's bound 4(n/d)(log d + 1) on E[cycles], in both logarithm
    conventions; the audit checks the base-2 one."""
    return {
        "base2": 4.0 * n / d * (math.log2(d) + 1.0),
        "natural": 4.0 * n / d * (math.log(d) + 1.0),
    }


def audit_bounds(
    g: RegularDigraph, matching_count: int, expected_cycles: Fraction
) -> tuple[BoundCheck, ...]:
    """Audit the matching-count sandwich and the expected-cycle bound for
    g's number of cycle-factors and their mean cycle count.

    (a) count^d <= (d!)^n and (b) count * n^n >= n! * d^n are checked with
    exact integer arithmetic; (c) log2(count) >= n*log2(d/e) and (d)
    E[cycles] <= ``cycle_bound(n, d)["base2"]`` in floats.
    """
    n, d = g.n, g.d
    bound = cycle_bound(n, d)["base2"]
    log2_count = math.log2(matching_count)
    checks = [
        BoundCheck(
            "matching_upper_factorial",
            d * log2_count,
            n * math.log2(math.factorial(d)),
            matching_count**d <= math.factorial(d) ** n,
        ),
        BoundCheck(
            "matching_lower_factorial",
            log2_count,
            math.log2(math.factorial(n)) + n * math.log2(d) - n * math.log2(n),
            matching_count * n**n >= math.factorial(n) * d**n,
        ),
        BoundCheck(
            "matching_lower_exponential",
            log2_count,
            n * (math.log2(d) - math.log2(math.e)),
            log2_count >= n * (math.log2(d) - math.log2(math.e)) - 1e-9,
        ),
        BoundCheck(
            "expected_cycles_upper",
            float(expected_cycles),
            bound,
            float(expected_cycles) <= bound,
        ),
    ]
    return tuple(checks)


def build_report(g: RegularDigraph) -> OracleReport:
    """Full exact report: counts, expectation, entropy loss, bound audit."""
    count, cycle_sum = factor_census(g)
    expected = Fraction(cycle_sum, count)
    return OracleReport(
        n=g.n,
        d=g.d,
        matching_count=count,
        expected_cycles=expected,
        entropy_loss=entropy_loss(g, count),
        bound_audit=audit_bounds(g, count, expected),
    )
