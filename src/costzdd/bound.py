"""Cost-bounded filtering of ZDD families.

Given a per-item cost vector and a bound b, produce the ZDD holding
exactly the member sets whose total cost is at most b.  Four filters
share one contract: each takes (f, b), returns a ``BoundResult`` whose
``calls`` is that query's count, and fails on the session's call budget
only with ``CallBudgetError``.  Three of them differ only in memoization
and run on two walks.  Each walk goes down the diagram lo child first
with an explicit stack holding one frame per pending expansion, so depth
costs memory, never interpreter recursion:

* the flat walk (``_flat_walk``) behind two variants:

  - ``backtrack_naive``: no memo; call count equals the number of root to
    terminal paths, exponential in general.  Oracle and baseline.  Its
    count is known without a run (``estimate_naive_calls``), so a query
    over the budget is refused before its first call.
  - ``backtrack_memo``: memo keyed on the exact (node, residual bound)
    pair, the classic DP-state table.

* the interval walk, ``backtrack_interval_memo``: memo keyed on node
  alone, each entry recording the half-open interval of residual bounds
  for which one result stays valid.  The workhorse: one stored entry
  answers every future query whose residual bound falls inside the
  interval, so the memo keeps paying off across queries with different
  bounds.  It is also a branch and bound: after a memo miss, a residual
  bound below the node's cheapest member cost returns the empty result
  (ZERO, -infinity, that cost) in one call, exactly the triple an
  expansion would find, and stores nothing.  The cheapest member cost of
  every node id up to the queried root sits in one list, extended by a
  forward pass over new ids, since every child has a smaller id than its
  parent.

The fourth, ``bound_via_intersection``, is a baseline: it intersects f
with the cost-constraint ZDD that the interval walk cuts from the power
set, and its ``calls`` are those of that cut.

The interval memo stores a node's k entries in one list and no per-entry
objects: the non-decreasing breakpoints ``aw0, rb0, ..., aw_{k-1}, rb_{k-1}``
of its disjoint intervals, then the results ``h0, ..., h_{k-1}``.  A
residual bound r lies in interval i exactly when ``bisect_right`` of r in
the first 2k items is ``2 * i + 1``, except that a last interval reaching
+infinity also holds +infinity itself.  One container per node keeps the
garbage collector's work proportional to the memo's nodes, not its entries.
A node whose list reaches ``_WIDTH`` entries (only ever on a session reused
across many bounds) becomes a ``_Wide`` holder of blocks in that same
layout, each split in half when it reaches the width, so a lookup bisects
the block heads and then one block, and an insert shifts one block only.

The interval variant reports two diagnostics per query: ``accept_worst``,
the highest cost among accepted sets, and ``reject_best``, the lowest
cost among rejected ones.  They are exactly the endpoints of the validity
interval, and they double as optimizers: at b = -infinity reject_best is
the minimum member cost, at b = +infinity accept_worst is the maximum
(``Bounder.min_cost``, ``Bounder.min_max``).  The -infinity filter is
cut at the root: one call that creates no node and stores nothing, so
``min_cost`` is one call once the cheapest-cost list covers f.  No
stored entry ever has accept_worst -infinity: the cut answers those.
Bounds and endpoints are ints or the IEEE infinities ``NEG_INF`` and
``POS_INF``, so a +infinity bound passes down the walk unchanged by
plain subtraction.  In the expansion step a tie keeps the lo child's
endpoint, so an infinite sum never replaces it: every returned and stored
endpoint is an int or one of those two objects, never a fresh float.

Every walk counts expansions.  A call is one visit of a (node, residual
bound) pair; a call that is neither a terminal, a memo hit nor a cut
visits exactly two children, so a query that expands k nodes makes exactly
``1 + 2 * k`` calls.  ``BoundResult.calls`` is that per-query total and
``Bounder.call_counter`` accumulates it.
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


# Entries at which a node's list splits into two blocks, and at which a
# block splits in half.
_WIDTH = 128


class _Wide:
    """Memo node of ``_WIDTH`` or more entries, in blocks of the one-list
    layout.  ``heads[k]`` is the first breakpoint of ``blocks[k + 1]``, so
    ``blocks[bisect_right(heads, r)]`` is the one block that can hold r."""

    __slots__ = ("blocks", "heads")

    def __init__(self, blocks: list[list[ExtInt]]):
        self.blocks = blocks
        self.heads = [pts[0] for pts in blocks[1:]]

    def split(self, r: ExtInt) -> None:
        """Split the block that holds r in half."""
        k = bisect_right(self.heads, r)
        pts = self.blocks[k]
        n = len(pts) // 3 * 2
        m = n // 4 * 2  # breakpoints kept on the left
        right = pts[m:n] + pts[n + m // 2:]
        self.blocks[k:k + 1] = [pts[:m] + pts[n:n + m // 2], right]
        self.heads.insert(k, right[0])

    def next_head(self, r: ExtInt) -> ExtInt:
        """First breakpoint past the block that holds r (+infinity past the last)."""
        k = bisect_right(self.heads, r)
        return self.heads[k] if k < len(self.heads) else POS_INF


class MemoInvariantError(AssertionError):
    """Stored intervals for one node overlap with conflicting results."""


class CallBudgetError(RuntimeError):
    """A single query needs more calls than the session's call budget.

    The naive and flat-memo variants can need astronomically many calls
    (and, for the flat memo, one table entry per distinct residual bound,
    so memory grows with the call count).  A budget turns that into a
    clean failure.  A walk stops before the first expansion that would
    take its call count past ``limit``; ``calls`` counts that expansion
    too, so it exceeds ``limit``, is a lower bound on the full cost, and
    is added to ``Bounder.call_counter``.  Naive is refused before its
    first call: ``calls`` is then its exact need and the counter does
    not move.
    """

    def __init__(self, calls: int, limit: int):
        super().__init__(f"query aborted: needs at least {calls} calls, over the budget {limit}")
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
    raises :class:`CallBudgetError`, naive before its first call and the
    others before the expansion that would pass the limit.
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
        # breakpoints of its k stored intervals [aw_i, rb_i), then results;
        # from _WIDTH entries on, a _Wide holder of blocks in that layout
        self.interval_memo: dict[int, list[ExtInt] | _Wide] = {}
        # node id -> cheapest member cost, for ids up to the roots queried
        # so far (ZERO has no member, ONE only the empty set)
        self._least: list[ExtInt] = [POS_INF, 0]

    def _check_bound(self, b: ExtInt) -> ExtInt:
        if type(b) is int:
            if not INT64_MIN <= b <= INT64_MAX:
                raise CostOverflowError(f"bound {b} outside the 64-bit range")
            if b - self._pos_sum < INT64_MIN or b - self._neg_sum > INT64_MAX:
                raise CostOverflowError(
                    f"bound {b} leaves no 64-bit headroom for this cost vector"
                )
            return b
        if isinstance(b, int):
            return self._check_bound(int(b))
        if b == POS_INF:
            return POS_INF
        if b == NEG_INF:
            return NEG_INF
        raise TypeError(f"bound must be an int or an infinity, got {type(b).__name__}")

    def _least_up_to(self, f: int) -> list[ExtInt]:
        """``_least``, extended to cover f.  Every child has a smaller id
        than its parent, so one forward pass over the new ids does it; nodes
        and costs never change, so the list never goes stale."""
        least = self._least
        if f >= len(least):
            forest = self.forest
            varr, lo, hi = forest._var, forest._lo, forest._hi
            cost = self._cost_of
            for u in range(len(least), f + 1):
                a = least[lo[u]]
                c = least[hi[u]] + cost[varr[u]]
                least.append(a if a <= c else c)
        return least

    def _max_expansions(self) -> int:
        # a query that expands k nodes makes 1 + 2k calls
        limit = self.call_limit
        return INT64_MAX if limit is None else (limit - 1) >> 1

    # ------------------------------------------------------------------
    # the filters

    def backtrack_naive(self, f: int, b: ExtInt) -> BoundResult:
        """Filter with no memo.  Exponential in general; keep f small.
        Its exact need is known up front: past the call limit, no call is made."""
        self._check_bound(b)
        if self.call_limit is not None:
            need = estimate_naive_calls(self.forest, f)
            if need > self.call_limit:
                raise CallBudgetError(need, self.call_limit)
        return self._flat_walk(f, b, None)

    def backtrack_memo(self, f: int, b: ExtInt) -> BoundResult:
        """Filter with a flat memo keyed on (node, residual bound)."""
        return self._flat_walk(f, b, self.flat_memo)

    def _flat_walk(
        self, f: int, b: ExtInt, memo: dict[tuple[int, ExtInt], int] | None
    ) -> BoundResult:
        """The walk behind naive (memo None) and flat memo: the memo is
        read before and written after each expansion only when given."""
        self.forest._check_valid(f)
        b = self._check_bound(b)
        forest = self.forest
        varr, lo, hi = forest._var, forest._lo, forest._hi
        make = forest.make_node
        cost = self._cost_of
        cap = self._max_expansions()
        expanded = 0
        # [u, rem, h0] per pending expansion; h0 is None until the lo
        # child's result is known
        stack: list[list] = []
        u, rem = f, b
        try:
            while True:
                while True:
                    if u <= ONE:
                        h = ONE if u == ONE and rem >= 0 else ZERO
                        break
                    if memo is not None:
                        h = memo.get((u, rem))
                        if h is not None:
                            break
                    expanded += 1
                    if expanded > cap:
                        raise CallBudgetError(1 + 2 * expanded, self.call_limit)
                    stack.append([u, rem, None])
                    u = lo[u]
                while stack:
                    fr = stack[-1]
                    if fr[2] is None:
                        fr[2] = h
                        u = fr[0]
                        rem = fr[1] - cost[varr[u]]
                        u = hi[u]
                        break
                    stack.pop()
                    u, rem, h0 = fr
                    h = h0 if h == ZERO else make(varr[u], h0, h)
                    if memo is not None:
                        memo[u, rem] = h
                else:
                    break
        finally:
            calls = 1 + 2 * expanded
            self.call_counter += calls
        return BoundResult(h, None, None, calls)

    def backtrack_interval_memo(self, f: int, b: ExtInt) -> BoundResult:
        """Filter with the per-node interval memo, cut below each node's
        cheapest member.

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
        least = self._least_up_to(f)
        cap = self._max_expansions()
        expanded = 0
        # [u, rem, pts, j, h0, aw0, rb0] per pending expansion: pts is u's
        # memo list (of a wide node, the block for rem) or None, j the gap
        # rem fell in, and h0 is None until the lo child's result
        # (h0, aw0, rb0) is known
        stack: list[list] = []
        u, rem = f, b
        try:
            while True:
                # descend lo-first until a terminal, a memo hit or the cut
                # gives the result (h, aw, rb) of (u, rem)
                while True:
                    if u <= ONE:
                        if u == ZERO:
                            h, aw, rb = ZERO, NEG_INF, POS_INF
                        elif rem >= 0:
                            h, aw, rb = ONE, 0, POS_INF
                        else:
                            h, aw, rb = ZERO, NEG_INF, 0
                        break
                    pts = memo.get(u)
                    j = 0
                    if pts is not None:
                        if type(pts) is _Wide:
                            pts = pts.blocks[bisect_right(pts.heads, rem)]
                        n = len(pts) // 3 * 2
                        j = bisect_right(pts, rem, 0, n)
                        if j & 1:
                            h, aw, rb = pts[n + (j >> 1)], pts[j - 1], pts[j]
                            break
                        if rem == POS_INF and pts[n - 1] == POS_INF:
                            h, aw, rb = pts[-1], pts[n - 2], POS_INF
                            break
                    # the bound: below u's cheapest member nothing fits, and
                    # an expansion would return exactly this triple
                    if rem < least[u]:
                        h, aw, rb = ZERO, NEG_INF, least[u]
                        break
                    expanded += 1
                    if expanded > cap:
                        raise CallBudgetError(1 + 2 * expanded, self.call_limit)
                    stack.append([u, rem, pts, j, None, None, None])
                    u = lo[u]
                # hand the result up: a frame still waiting for its lo child
                # keeps it and descends to its hi child; a complete one combines
                while stack:
                    fr = stack[-1]
                    if fr[4] is None:
                        fr[4] = h
                        fr[5] = aw
                        fr[6] = rb
                        u = fr[0]
                        rem = fr[1] - cost[varr[u]]
                        u = hi[u]
                        break
                    stack.pop()
                    u, rem, pts, j, h0, aw0, rb0 = fr
                    v = varr[u]
                    c = cost[v]
                    h = h0 if h == ZERO else make(v, h0, h)
                    # aw = max(aw0, aw1 + c) and rb = min(rb0, rb1 + c); a tie
                    # keeps the lo child's endpoint, so an infinite sum never wins
                    aw += c
                    if aw0 >= aw:
                        aw = aw0
                    rb += c
                    if rb0 <= rb:
                        rb = rb0
                    if pts is None:
                        memo[u] = [aw, rb, h]
                        continue
                    # [aw, rb) contains rem, which fell in the gap before
                    # breakpoint j: an equal stored interval would have hit,
                    # and an overlap is a bug, never tolerated silently.  j
                    # is 0 only in a node's first block; past a block's end
                    # the next stored interval starts at the next block's head
                    n = len(pts) // 3 * 2
                    if j and pts[j - 1] > aw:
                        raise MemoInvariantError(
                            f"node {u}: new interval [{format_ext(aw)}, {format_ext(rb)}) "
                            f"overlaps a stored one from the left"
                        )
                    if j < n:
                        nxt = pts[j]
                    else:
                        node = memo[u]
                        nxt = POS_INF if node is pts else node.next_head(rem)
                    if nxt < rb:
                        raise MemoInvariantError(
                            f"node {u}: new interval [{format_ext(aw)}, {format_ext(rb)}) "
                            f"overlaps a stored one from the right"
                        )
                    pts.insert(n + (j >> 1), h)
                    pts[j:j] = (aw, rb)
                    if n >= 2 * _WIDTH - 2:  # it now holds _WIDTH entries
                        node = memo[u]
                        if node is pts:
                            node = memo[u] = _Wide([pts])
                        node.split(rem)
                else:
                    break
        finally:
            calls = 1 + 2 * expanded
            self.call_counter += calls
        return BoundResult(h, aw, rb, calls)

    # ------------------------------------------------------------------
    # memo inspection

    def memo_lookup(self, node: int, b: ExtInt) -> tuple[int, tuple[ExtInt, ExtInt]] | None:
        """Stored entry whose interval contains b: (result, (aw, rb)), or None.
        A bound below the node's cheapest member has no stored entry: the
        walk's cut answers it without storing one."""
        pts = self.interval_memo.get(node, ())
        if type(pts) is _Wide:
            pts = pts.blocks[bisect_right(pts.heads, b)]
        n = len(pts) // 3 * 2
        j = bisect_right(pts, b, 0, n)
        if j & 1:
            return pts[n + (j >> 1)], (pts[j - 1], pts[j])
        if n and b == POS_INF and pts[n - 1] == POS_INF:
            return pts[-1], (pts[n - 2], POS_INF)
        return None

    def stored_intervals(self):
        """Yield every stored memo entry as (node, aw, rb, result)."""
        for u, node in self.interval_memo.items():
            for pts in node.blocks if type(node) is _Wide else (node,):
                n = len(pts) // 3 * 2
                for aw, rb, h in zip(pts[0:n:2], pts[1:n:2], pts[n:]):
                    yield u, aw, rb, h

    def stats(self) -> dict[str, int]:
        """Calls so far; the interval memo's nodes, entries, widest node
        (in entries) and nodes split into blocks; and the non-terminal ids
        whose cheapest member cost is known."""
        memo = self.interval_memo
        wide = [node for node in memo.values() if type(node) is _Wide]
        widths = [len(node) // 3 for node in memo.values() if type(node) is list]
        widths += [sum(map(len, node.blocks)) // 3 for node in wide]
        return {
            "calls": self.call_counter,
            "memo_nodes": len(memo),
            "memo_entries": sum(widths),
            "widest_node": max(widths, default=0),
            "blocked_nodes": len(wide),
            "ranged_nodes": len(self._least) - 2,
        }

    # ------------------------------------------------------------------
    # derived queries

    def bound_via_intersection(self, f: int, b: ExtInt) -> BoundResult:
        """Baseline filter: intersect f with the cost-constraint ZDD.

        ``calls`` are those of the interval filter that builds the constraint.
        """
        cut = self.backtrack_interval_memo(self.forest.power_set(), b)
        return BoundResult(self.forest.intersection(f, cut.root), None, None, cut.calls)

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

    def min_cost(self, f: int) -> ExtInt:
        """Minimum member cost (+infinity if f is empty): reject_best at -infinity."""
        return self.backtrack_interval_memo(f, NEG_INF).reject_best

    def min_max(self, f: int) -> tuple[ExtInt, ExtInt]:
        """min_cost and the maximum, accept_worst at +infinity (whose result is f)."""
        return self.min_cost(f), self.backtrack_interval_memo(f, POS_INF).accept_worst


def estimate_naive_calls(forest: Forest, f: int) -> int:
    """Exact call count backtrack_naive makes on f, without a run.

    A visit of a node is one call that visits both children, so
    ``calls(u) = 1 + calls(lo) + calls(hi)``, and a terminal counts 1.
    Linear in reachable nodes; it refuses hopeless naive runs up front.
    """
    calls = {ZERO: 1, ONE: 1}
    lo, hi = forest._lo, forest._hi
    for u in forest.reachable(f):
        calls[u] = 1 + calls[lo[u]] + calls[hi[u]]
    return calls[f]
