"""Cost-bounded filtering of ZDD families.

Given a per-item cost vector and a bound b, produce the ZDD holding
exactly the member sets whose total cost is at most b.  Three variants
share one recursion shape and differ only in memoization:

* ``backtrack_naive``: no memo; call count equals the number of root to
  terminal paths, exponential in general.  Oracle and baseline.
* ``backtrack_memo``: memo keyed on the exact (node, residual bound)
  pair, the classic DP-state table.
* ``backtrack_interval_memo``: memo keyed on node alone, each entry
  recording the half-open interval of residual bounds for which one
  result stays valid.  The workhorse: one stored entry answers every
  future query whose residual bound falls inside the interval, so the
  memo keeps paying off across queries with different bounds.

The interval memo stores a node's k entries in one list and no per-entry
objects: the non-decreasing breakpoints ``aw0, rb0, ..., aw_{k-1}, rb_{k-1}``
of its disjoint intervals, then the results ``h0, ..., h_{k-1}``.  A
residual bound r lies in interval i exactly when ``bisect_right`` of r in
the first 2k items is ``2 * i + 1``, except that a last interval reaching
+infinity also holds +infinity itself.  One container per node keeps the
garbage collector's work proportional to the memo's nodes, not its entries.

The interval variant reports two diagnostics per query: ``accept_worst``,
the highest cost among accepted sets, and ``reject_best``, the lowest
cost among rejected ones.  They are exactly the endpoints of the validity
interval, and they double as optimizers: at b = -infinity reject_best is
the minimum member cost, at b = +infinity accept_worst is the maximum.
An ``accept_worst`` is always ``NEG_INF`` or an int and a ``reject_best``
an int or ``POS_INF``, so the expansion step tests the sentinels by
identity and compares only finite endpoints.

All variants count expansions: a call that is neither a terminal nor a
memo hit makes exactly two child calls, so a query that expands k nodes
makes exactly ``1 + 2 * k`` calls.  ``BoundResult.calls`` is that
per-query total and ``Bounder.call_counter`` accumulates it.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass

from .extint import (
    INT64_MAX,
    INT64_MIN,
    NEG_INF,
    POS_INF,
    CostOverflowError,
    ExtInt,
    check_finite,
    format_ext,
)
from .forest import Forest, ONE, ZERO


class MemoInvariantError(AssertionError):
    """Stored intervals for one node overlap with conflicting results."""


class CallBudgetError(RuntimeError):
    """A single query would have exceeded the session's call budget.

    The naive and flat-memo variants can need astronomically many calls
    (and, for the flat memo, one table entry per distinct residual bound,
    so memory grows with the call count).  A budget turns that into a
    clean failure: the query stops before the first expansion that would
    take its call count past ``limit``.  ``calls`` counts that expansion
    too, so it exceeds ``limit`` and is a lower bound on the full cost.
    """

    def __init__(self, calls: int, limit: int):
        super().__init__(f"query aborted after {calls} calls (budget {limit})")
        self.calls = calls
        self.limit = limit


@dataclass(frozen=True)
class BoundResult:
    """Outcome of one bounded-filter query.

    ``root`` is the canonical ZDD of the surviving sets.  ``accept_worst``
    and ``reject_best`` are set by the interval variant only (None
    otherwise).  ``calls`` counts this query's invocations.
    """

    root: int
    accept_worst: ExtInt | None
    reject_best: ExtInt | None
    calls: int


class Bounder:
    """Bounded-filter session over one forest and one cost vector.

    Memos are valid only for the bound cost vector, so a different vector
    needs a fresh Bounder.  Like the forest, a Bounder is single-owner:
    every query may mutate its memos and the forest.

    ``call_limit``, when given, is an exact per-query budget: a query
    returns only if its call count is at most the limit, and otherwise
    raises :class:`CallBudgetError` before the expansion that would pass
    it.
    """

    def __init__(self, forest: Forest, costs: list[int], call_limit: int | None = None):
        if len(costs) != forest.n_items:
            raise ValueError(
                f"cost vector has {len(costs)} entries, forest has {forest.n_items} items"
            )
        self.forest = forest
        self.costs = [check_finite(c) for c in costs]
        # Residual bounds stay in [b - pos, b - neg]; interval endpoints in
        # [neg, pos].  With both sums checked here and the bound checked per
        # query, the hot loops below can use raw int arithmetic and still
        # honor the 64-bit overflow contract.
        self._pos_sum = sum(c for c in self.costs if c > 0)
        self._neg_sum = sum(c for c in self.costs if c < 0)
        if self._pos_sum > INT64_MAX or self._neg_sum < INT64_MIN:
            raise CostOverflowError("total cost mass exceeds the 64-bit range")
        # item -> cost, 1-based
        self._cost_of = [0] + self.costs
        if call_limit is not None and call_limit < 1:
            raise ValueError(f"call limit must be positive, got {call_limit}")
        self.call_limit = call_limit
        self.call_counter = 0
        self.flat_memo: dict[tuple[int, ExtInt], int] = {}
        # node -> [aw0, rb0, ..., aw_{k-1}, rb_{k-1}, h0, ..., h_{k-1}]: the
        # breakpoints of its k stored intervals [aw_i, rb_i), then results
        self.interval_memo: dict[int, list[ExtInt]] = {}
        self._minmax_cache: dict[int, tuple[ExtInt, ExtInt]] = {}
        self._power_root: int | None = None

    def _check_bound(self, b: ExtInt) -> ExtInt:
        if type(b) is int:
            if not INT64_MIN <= b <= INT64_MAX:
                raise CostOverflowError(f"bound {b} outside the 64-bit range")
            if b - self._pos_sum < INT64_MIN or b - self._neg_sum > INT64_MAX:
                raise CostOverflowError(
                    f"bound {b} leaves no 64-bit headroom for this cost vector"
                )
            return b
        if b is NEG_INF or b is POS_INF:
            return b
        if isinstance(b, int):
            return self._check_bound(int(b))
        raise TypeError(f"bound must be an int or an infinity, got {type(b).__name__}")

    def _max_expansions(self) -> int:
        # a query that expands k nodes makes 1 + 2k calls
        limit = self.call_limit
        return INT64_MAX if limit is None else (limit - 1) >> 1

    # ------------------------------------------------------------------
    # the three filter variants

    def backtrack_naive(self, f: int, b: ExtInt) -> BoundResult:
        """Filter with no memo.  Exponential in general; keep f small."""
        self.forest._check_valid(f)
        b = self._check_bound(b)
        forest = self.forest
        varr, lo, hi = forest._var, forest._lo, forest._hi
        make = forest.make_node
        cost = self._cost_of
        cap = self._max_expansions()
        expanded = 0

        def go(u: int, rem: ExtInt) -> int:
            nonlocal expanded
            if u <= ONE:
                if u == ZERO:
                    return ZERO
                return ONE if rem >= 0 else ZERO
            expanded += 1
            if expanded > cap:
                raise CallBudgetError(1 + 2 * expanded, self.call_limit)
            v = varr[u]
            c = cost[v]
            h0 = go(lo[u], rem)
            h1 = go(hi[u], rem - c if type(rem) is int else rem)
            return h0 if h1 == ZERO else make(v, h0, h1)

        try:
            root = go(f, b)
        finally:
            go = None  # the closure refers to itself; let refcounting free it
            calls = 1 + 2 * expanded
            self.call_counter += calls
        return BoundResult(root, None, None, calls)

    def backtrack_memo(self, f: int, b: ExtInt) -> BoundResult:
        """Filter with a flat memo keyed on (node, residual bound)."""
        self.forest._check_valid(f)
        b = self._check_bound(b)
        forest = self.forest
        varr, lo, hi = forest._var, forest._lo, forest._hi
        make = forest.make_node
        cost = self._cost_of
        memo = self.flat_memo
        cap = self._max_expansions()
        expanded = 0

        def go(u: int, rem: ExtInt) -> int:
            nonlocal expanded
            if u <= ONE:
                if u == ZERO:
                    return ZERO
                return ONE if rem >= 0 else ZERO
            key = (u, rem)
            h = memo.get(key)
            if h is not None:
                return h
            expanded += 1
            if expanded > cap:
                raise CallBudgetError(1 + 2 * expanded, self.call_limit)
            v = varr[u]
            c = cost[v]
            h0 = go(lo[u], rem)
            h1 = go(hi[u], rem - c if type(rem) is int else rem)
            h = h0 if h1 == ZERO else make(v, h0, h1)
            memo[key] = h
            return h

        try:
            root = go(f, b)
        finally:
            go = None  # the closure refers to itself; let refcounting free it
            calls = 1 + 2 * expanded
            self.call_counter += calls
        return BoundResult(root, None, None, calls)

    def backtrack_interval_memo(self, f: int, b: ExtInt) -> BoundResult:
        """Filter with the per-node interval memo.

        Every stored entry (node, [accept_worst, reject_best) -> result)
        is reused for any residual bound inside the interval, across
        queries.  An interval reaching +infinity also covers the
        +infinity bound itself.
        """
        self.forest._check_valid(f)
        b = self._check_bound(b)
        forest = self.forest
        varr, lo, hi = forest._var, forest._lo, forest._hi
        make = forest.make_node
        cost = self._cost_of
        memo = self.interval_memo
        cap = self._max_expansions()
        expanded = 0

        def go(u: int, rem: ExtInt) -> tuple[int, ExtInt, ExtInt]:
            nonlocal expanded
            if u <= ONE:
                if u == ZERO:
                    return ZERO, NEG_INF, POS_INF
                if rem >= 0:
                    return ONE, 0, POS_INF
                return ZERO, NEG_INF, 0
            pts = memo.get(u)
            if pts is not None:
                n = len(pts) // 3 * 2
                j = bisect_right(pts, rem, 0, n)
                if j & 1:
                    return pts[n + (j >> 1)], pts[j - 1], pts[j]
                if rem is POS_INF and pts[n - 1] is POS_INF:
                    return pts[-1], pts[n - 2], POS_INF
            expanded += 1
            if expanded > cap:
                raise CallBudgetError(1 + 2 * expanded, self.call_limit)
            v = varr[u]
            c = cost[v]
            h0, aw0, rb0 = go(lo[u], rem)
            h1, aw1, rb1 = go(hi[u], rem - c if type(rem) is int else rem)
            h = h0 if h1 == ZERO else make(v, h0, h1)
            # aw = max(aw0, aw1 + c) and rb = min(rb0, rb1 + c), comparing
            # finite endpoints only, as plain ints
            if aw1 is NEG_INF:
                aw = aw0
            else:
                aw = aw1 + c
                if aw0 is not NEG_INF and aw0 > aw:
                    aw = aw0
            if rb1 is POS_INF:
                rb = rb0
            else:
                rb = rb1 + c
                if rb0 is not POS_INF and rb0 < rb:
                    rb = rb0
            if pts is None:
                memo[u] = [aw, rb, h]
            else:
                # [aw, rb) contains rem, which fell in the gap before
                # breakpoint j: an equal stored interval would have hit, and
                # an overlap is a bug, never tolerated silently
                if j and pts[j - 1] > aw:
                    raise MemoInvariantError(
                        f"node {u}: new interval [{format_ext(aw)}, {format_ext(rb)}) "
                        f"overlaps a stored one from the left"
                    )
                if j < n and pts[j] < rb:
                    raise MemoInvariantError(
                        f"node {u}: new interval [{format_ext(aw)}, {format_ext(rb)}) "
                        f"overlaps a stored one from the right"
                    )
                pts.insert(n + (j >> 1), h)
                pts[j:j] = (aw, rb)
            return h, aw, rb

        try:
            root, aw, rb = go(f, b)
        finally:
            go = None
            calls = 1 + 2 * expanded
            self.call_counter += calls
        return BoundResult(root, aw, rb, calls)

    # ------------------------------------------------------------------
    # memo inspection

    def memo_lookup(self, node: int, b: ExtInt) -> tuple[int, tuple[ExtInt, ExtInt]] | None:
        """Stored entry whose interval contains b: (result, (aw, rb)), or None."""
        pts = self.interval_memo.get(node, ())
        n = len(pts) // 3 * 2
        j = bisect_right(pts, b, 0, n)
        if j & 1:
            return pts[n + (j >> 1)], (pts[j - 1], pts[j])
        if n and b is POS_INF and pts[n - 1] is POS_INF:
            return pts[-1], (pts[n - 2], POS_INF)
        return None

    def stored_intervals(self):
        """Yield every stored memo entry as (node, aw, rb, result)."""
        for u, pts in self.interval_memo.items():
            n = len(pts) // 3 * 2
            for aw, rb, h in zip(pts[0:n:2], pts[1:n:2], pts[n:]):
                yield u, aw, rb, h

    # ------------------------------------------------------------------
    # derived queries

    def build_cost_constraint(self, b: ExtInt) -> int:
        """ZDD of every subset of 1..n_items whose total cost is at most b."""
        if self._power_root is None:
            self._power_root = self.forest.power_set()
        return self.backtrack_interval_memo(self._power_root, b).root

    def bound_via_intersection(self, f: int, b: ExtInt) -> int:
        """Baseline filter: intersect f with the cost-constraint ZDD."""
        g = self.build_cost_constraint(b)
        return self.forest.intersection(f, g)

    def range_query(self, f: int, lb: ExtInt, ub: ExtInt) -> int:
        """ZDD of members with cost in the half-open range (lb, ub]."""
        if lb > ub:
            raise ValueError(f"empty range: ({format_ext(lb)}, {format_ext(ub)}]")
        upper = self.backtrack_interval_memo(f, ub).root
        lower = self.backtrack_interval_memo(f, lb).root
        return self.forest.difference(upper, lower)

    def rank(self, f: int, c: ExtInt) -> int:
        """Number of members with cost at most c."""
        return self.forest.count(self.backtrack_interval_memo(f, c).root)

    def min_max(self, f: int) -> tuple[ExtInt, ExtInt]:
        """Minimum and maximum member cost, cached across queries."""
        return self.forest.min_max_cost(f, self.costs, self._minmax_cache)


def estimate_naive_calls(forest: Forest, f: int) -> int:
    """Exact invocation count backtrack_naive would need on f.

    One invocation per root-to-node path, terminals included, so the
    total is the path count summed over every reachable node.  Cheap to
    compute (linear in reachable nodes) and used to refuse hopeless
    naive runs before they start.
    """
    if forest.is_terminal(f):
        return 1
    order = forest.reachable(f)
    paths = {u: 0 for u in order}
    paths[f] = 1
    total = 0
    lo, hi = forest._lo, forest._hi
    for u in reversed(order):
        p = paths[u]
        total += p
        for child in (lo[u], hi[u]):
            if child <= ONE:
                total += p
            else:
                paths[child] += p
    return total
