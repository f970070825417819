"""Canonical zero-suppressed decision diagram (ZDD) forest.

A ZDD encodes a family of item sets as a DAG.  Non-terminal nodes test one
item; the 0-edge child holds the sub-family without the item, the 1-edge
child the sub-family with it.  Two reduction rules keep the representation
canonical:

* a node whose 1-edge points to the 0-terminal is never created (the
  zero-suppress rule), and
* structurally equal nodes are shared through a unique table.

Canonicity makes semantic equality the same thing as handle equality: two
node ids from one forest are equal exactly when they encode the same family.

Node handles are dense ints.  Handle 0 is the 0-terminal (the empty
family), handle 1 is the 1-terminal (the family containing only the empty
set).  Items are numbered 1..n_items and that numbering is the variable
order, root to terminal increasing.

A Forest is single-owner: every operation may touch its caches, so
concurrent use of one forest from several threads is not supported.
Distinct forests are fully independent.
"""

from __future__ import annotations

import random
import sys
from collections.abc import Iterable, Iterator

from .extint import ExtInt, NEG_INF, POS_INF, check_finite, ext_add

ZERO = 0
ONE = 1

_OP_UNION = 0
_OP_INTER = 1
_OP_DIFF = 2

_OP_BY_NAME = {"union": _OP_UNION, "intersection": _OP_INTER, "difference": _OP_DIFF}

# Ids run up to max_nodes + 1, so this cap keeps every id below 2**32, as
# the unique table's packed key needs (see Forest).
DEFAULT_MAX_NODES = 2**32 - 2

_NO_SET = object()


class CapacityError(RuntimeError):
    """The node table hit its configured size ceiling."""


def _ensure_recursion_headroom(depth: int) -> None:
    # Recursive walks descend one frame per item, so the required depth is
    # n_items plus the caller's own stack.  Raise the interpreter limit
    # only when that does not fit, never lower it, rather than
    # hand-rolling explicit stacks in every recursive operation.
    needed = depth + 500
    if sys.getrecursionlimit() < needed:
        sys.setrecursionlimit(needed)


class Forest:
    """Append-only node store with hash-consing and memoized queries.

    Nodes are never freed; enumeration workloads build monotonically and
    drop the whole forest when done.  The practical ceiling is process
    memory; ``max_nodes`` (default and largest value 2**32 - 2, so every
    node id fits in 32 bits) turns runaway growth into a clean
    :class:`CapacityError` instead of an opaque MemoryError.

    Both tables are keyed by packed ints, which the cyclic garbage
    collector does not track, unlike tuples: the unique table maps
    ``(var << 32 | lo) << 32 | hi`` of each non-terminal node to its id,
    and the set-operation cache maps ``(f << 32 | g) << 2 | op`` to the
    result.
    """

    def __init__(self, n_items: int, max_nodes: int = DEFAULT_MAX_NODES):
        if n_items < 0:
            raise ValueError(f"n_items must be nonnegative, got {n_items}")
        if max_nodes > DEFAULT_MAX_NODES:
            raise ValueError(f"max_nodes must be at most 2**32 - 2, got {max_nodes}")
        self.n_items = n_items
        self.max_nodes = max_nodes
        term_var = n_items + 1
        # Parallel arrays indexed by node id; slots 0 and 1 are the terminals.
        self._var = [term_var, term_var]
        self._lo = [-1, -1]
        self._hi = [-1, -1]
        self._unique: dict[int, int] = {}
        self._op_cache: dict[int, int] = {}
        self._count_cache: dict[int, int] = {ZERO: 0, ONE: 1}
        _ensure_recursion_headroom(n_items)

    # ------------------------------------------------------------------
    # structure

    def __len__(self) -> int:
        """Number of stored non-terminal nodes."""
        return len(self._var) - 2

    def is_terminal(self, u: int) -> bool:
        return u == ZERO or u == ONE

    def node(self, u: int) -> tuple[int, int, int]:
        """Return ``(var, lo, hi)`` of a non-terminal node."""
        if self.is_terminal(u):
            raise ValueError(f"node {u} is a terminal")
        return self._var[u], self._lo[u], self._hi[u]

    def var(self, u: int) -> int:
        """Item tested at ``u``; terminals report n_items + 1."""
        return self._var[u]

    def make_node(self, var: int, lo: int, hi: int) -> int:
        """Return the canonical node for ``(var, lo, hi)``.

        Applies the zero-suppress rule (``hi == ZERO`` collapses to ``lo``)
        and shares equal nodes through the unique table.  ``var`` must be
        strictly smaller than the variables of both children, and both
        children must be handles of this forest.
        """
        varr = self._var
        if hi == ZERO:
            if not 0 <= lo < len(varr):
                raise ValueError(f"invalid node handle {lo}")
            return lo
        if var < 1 or var >= varr[lo] or var >= varr[hi]:
            self._refuse_node(var, lo, hi)
        key = (var << 32 | lo) << 32 | hi
        u = self._unique.get(key)
        if u is not None:
            return u
        # A negative child packs to a negative key, which never hits, so
        # only a new node needs this check.
        if lo < 0 or hi < 0:
            raise ValueError(f"invalid node handle {min(lo, hi)}")
        u = len(varr)
        if u - 2 >= self.max_nodes:
            raise CapacityError(f"node table reached max_nodes={self.max_nodes}")
        varr.append(var)
        self._lo.append(lo)
        self._hi.append(hi)
        self._unique[key] = u
        return u

    def _refuse_node(self, var: int, lo: int, hi: int) -> None:
        """Raise for a node whose item is out of range or not above its children."""
        varr = self._var
        if not 1 <= var <= self.n_items:
            raise ValueError(f"item index {var} outside 1..{self.n_items}")
        raise ValueError(
            f"ordering violation: item {var} not above children "
            f"({varr[lo]}, {varr[hi]})"
        )

    def _intern_rows(self, rows: list[int], ids: list[int]) -> None:
        """Intern a node table given as flat ``uid, var, lo, hi`` rows.

        ``ids`` maps row ids to handles.  Each row is interned as
        ``make_node(var, ids[lo], ids[hi])`` would, and its handle appended
        to ``ids``.  Stops early at the first row whose ``uid`` is not
        ``len(ids)`` or whose child is not below ``uid``; a row that
        make_node refuses raises its ValueError.  Either way, ``len(ids)``
        then names the row that stopped the load.  One loop over local
        names, not one make_node call per row, keeps bulk loads cheap.
        """
        varr, lo_arr, hi_arr = self._var, self._lo, self._hi
        unique = self._unique
        end = self.max_nodes + 2
        append = ids.append
        it = iter(rows)
        for uid, var, lo_ref, hi_ref in zip(it, it, it, it):
            if uid != len(ids) or lo_ref >= uid or hi_ref >= uid:
                return
            lo = ids[lo_ref]
            hi = ids[hi_ref]
            if hi == ZERO:
                append(lo)
                continue
            if var < 1 or var >= varr[lo] or var >= varr[hi]:
                self._refuse_node(var, lo, hi)
            key = (var << 32 | lo) << 32 | hi
            u = unique.get(key)
            if u is None:
                u = len(varr)
                if u >= end:
                    raise CapacityError(f"node table reached max_nodes={self.max_nodes}")
                varr.append(var)
                lo_arr.append(lo)
                hi_arr.append(hi)
                unique[key] = u
            append(u)

    def _check_valid(self, u: int) -> int:
        if not 0 <= u < len(self._var):
            raise ValueError(f"invalid node handle {u}")
        return u

    def clear_op_cache(self) -> None:
        """Drop memoized set-operation results (never required, always safe)."""
        self._op_cache.clear()

    def validate(self) -> None:
        """Scan the whole store and verify canonicity invariants."""
        seen: dict[int, int] = {}
        for u in range(2, len(self._var)):
            v, lo, hi = self._var[u], self._lo[u], self._hi[u]
            if hi == ZERO:
                raise AssertionError(f"node {u} violates zero-suppress rule")
            if v >= self._var[lo] or v >= self._var[hi]:
                raise AssertionError(f"node {u} violates variable ordering")
            key = (v << 32 | lo) << 32 | hi
            if key in seen:
                raise AssertionError(f"nodes {seen[key]} and {u} are duplicates")
            seen[key] = u
        if seen != self._unique:
            raise AssertionError("unique table out of sync with node store")

    # ------------------------------------------------------------------
    # set algebra

    def apply(self, op: str, f: int, g: int) -> int:
        """Binary set operation: ``union``, ``intersection``, or ``difference``."""
        code = _OP_BY_NAME.get(op)
        if code is None:
            raise ValueError(f"unknown set operation {op!r}")
        self._check_valid(f)
        self._check_valid(g)
        return self._apply(code, f, g)

    def union(self, f: int, g: int) -> int:
        return self._apply(_OP_UNION, self._check_valid(f), self._check_valid(g))

    def intersection(self, f: int, g: int) -> int:
        return self._apply(_OP_INTER, self._check_valid(f), self._check_valid(g))

    def difference(self, f: int, g: int) -> int:
        return self._apply(_OP_DIFF, self._check_valid(f), self._check_valid(g))

    def _apply(self, code: int, f: int, g: int) -> int:
        if code == _OP_UNION:
            if f == ZERO:
                return g
            if g == ZERO or f == g:
                return f
            if g < f:
                f, g = g, f
        elif code == _OP_INTER:
            if f == ZERO or g == ZERO:
                return ZERO
            if f == g:
                return f
            if g < f:
                f, g = g, f
        else:
            if f == ZERO or f == g:
                return ZERO
            if g == ZERO:
                return f
        key = (f << 32 | g) << 2 | code
        cached = self._op_cache.get(key)
        if cached is not None:
            return cached
        varr = self._var
        vf, vg = varr[f], varr[g]
        v = vf if vf < vg else vg
        if vf == v:
            f0, f1 = self._lo[f], self._hi[f]
        else:
            f0, f1 = f, ZERO
        if vg == v:
            g0, g1 = self._lo[g], self._hi[g]
        else:
            g0, g1 = g, ZERO
        r = self.make_node(v, self._apply(code, f0, g0), self._apply(code, f1, g1))
        self._op_cache[key] = r
        return r

    # ------------------------------------------------------------------
    # queries

    def count(self, f: int) -> int:
        """Exact number of sets in the family, as an unbounded int."""
        self._check_valid(f)
        cache = self._count_cache
        if f in cache:
            return cache[f]
        lo, hi = self._lo, self._hi
        stack = [f]
        while stack:
            u = stack[-1]
            if u in cache:
                stack.pop()
                continue
            ulo, uhi = lo[u], hi[u]
            clo = cache.get(ulo)
            chi = cache.get(uhi)
            if clo is None or chi is None:
                if clo is None:
                    stack.append(ulo)
                if chi is None:
                    stack.append(uhi)
            else:
                cache[u] = clo + chi
                stack.pop()
        return cache[f]

    def reachable(self, f: int) -> list[int]:
        """Non-terminal nodes reachable from ``f``, children before parents."""
        self._check_valid(f)
        order: list[int] = []
        seen = {ZERO, ONE}
        stack = [(f, False)]
        while stack:
            u, expanded = stack.pop()
            if expanded:
                order.append(u)
                continue
            if u in seen:
                continue
            seen.add(u)
            stack.append((u, True))
            stack.append((self._hi[u], False))
            stack.append((self._lo[u], False))
        return order

    def node_count(self, f: int) -> int:
        """Number of distinct non-terminal nodes reachable from ``f``."""
        return len(self.reachable(f))

    def contains(self, f: int, items: Iterable[int]) -> bool:
        """Membership test for one item set (must be strictly increasing)."""
        self._check_valid(f)
        x = list(items)
        prev = 0
        for i in x:
            if i <= prev or i > self.n_items:
                raise ValueError(f"item set {x} is not strictly increasing within 1..{self.n_items}")
            prev = i
        varr, lo, hi = self._var, self._lo, self._hi
        u = f
        pos = 0
        while u > ONE:
            v = varr[u]
            if pos < len(x) and x[pos] < v:
                return False
            if pos < len(x) and x[pos] == v:
                u = hi[u]
                pos += 1
            else:
                u = lo[u]
        return u == ONE and pos == len(x)

    def enumerate_sets(self, f: int, limit: int) -> Iterator[tuple[int, ...]]:
        """All member sets in lexicographic item order, as sorted tuples.

        Refuses up front when the family holds more than ``limit`` sets.
        """
        n = self.count(f)
        if n > limit:
            raise ValueError(f"family has {n} sets, over the enumeration limit {limit}")
        return self._iter_suffixes(f)

    def _iter_suffixes(self, u: int) -> Iterator[tuple[int, ...]]:
        # Lexicographic merge: the empty suffix sorts first, then suffixes
        # opening with this node's item, then the 0-branch remainder (whose
        # leading items are all larger).
        if u == ZERO:
            return
        if u == ONE:
            yield ()
            return
        lo_iter = self._iter_suffixes(self._lo[u])
        first = next(lo_iter, _NO_SET)
        if first == ():
            yield ()
            first = next(lo_iter, _NO_SET)
        head = (self._var[u],)
        for suffix in self._iter_suffixes(self._hi[u]):
            yield head + suffix
        if first is not _NO_SET:
            yield first
        yield from lo_iter

    def min_max_cost(
        self,
        f: int,
        costs: list[int],
        cache: dict[int, tuple[ExtInt, ExtInt]] | None = None,
    ) -> tuple[ExtInt, ExtInt]:
        """Minimum and maximum total cost over the family, one bottom-up pass.

        Returns ``(POS_INF, NEG_INF)`` for the empty family.  ``costs`` is
        indexed by item, ``costs[i - 1]`` being the cost of item ``i``.  An
        optional ``cache`` (node id to result) lets a caller reuse the pass
        across queries that share one cost vector.
        """
        self._check_valid(f)
        if len(costs) != self.n_items:
            raise ValueError(f"cost vector has {len(costs)} entries, forest has {self.n_items} items")
        if cache is None:
            cache = {}
        if ZERO not in cache:
            cache[ZERO] = (POS_INF, NEG_INF)
            cache[ONE] = (0, 0)
        if f in cache:
            return cache[f]
        varr, lo, hi = self._var, self._lo, self._hi
        for u in self.reachable(f):
            if u in cache:
                continue
            c = check_finite(costs[varr[u] - 1])
            lo_mn, lo_mx = cache[lo[u]]
            hi_mn, hi_mx = cache[hi[u]]
            mn = min(lo_mn, ext_add(hi_mn, c))
            mx = max(lo_mx, ext_add(hi_mx, c))
            cache[u] = (mn, mx)
        return cache[f]

    def sample(self, f: int, k: int, seed: int) -> list[tuple[int, ...]]:
        """Draw ``k`` member sets independently and uniformly.

        Uses a count-weighted top-down walk (at each node the 1-branch is
        taken with probability count(hi)/count(node)) driven by a Mersenne
        Twister (``random.Random``) seeded with ``seed``, so results are
        deterministic for a fixed seed.
        """
        total = self.count(f)
        if total < 1:
            raise ValueError("cannot sample from an empty family")
        if k < 0:
            raise ValueError(f"sample size must be nonnegative, got {k}")
        rng = random.Random(seed)
        counts = self._count_cache
        varr, lo, hi = self._var, self._lo, self._hi
        out: list[tuple[int, ...]] = []
        for _ in range(k):
            u = f
            picked: list[int] = []
            while u > ONE:
                chi = counts[hi[u]]
                if rng.randrange(counts[u]) < chi:
                    picked.append(varr[u])
                    u = hi[u]
                else:
                    u = lo[u]
            out.append(tuple(picked))
        return out

    # ------------------------------------------------------------------
    # construction helpers

    def power_set(self) -> int:
        """The family of all subsets of 1..n_items (a chain of n nodes)."""
        u = ONE
        for v in range(self.n_items, 0, -1):
            u = self.make_node(v, u, u)
        return u

    def from_itemset(self, items: Iterable[int]) -> int:
        """Singleton family holding exactly one item set."""
        xs = sorted(set(items))
        if xs and (xs[0] < 1 or xs[-1] > self.n_items):
            raise ValueError(f"items {xs} outside 1..{self.n_items}")
        u = ONE
        for v in reversed(xs):
            u = self.make_node(v, ZERO, u)
        return u

    def from_sets(self, sets: Iterable[Iterable[int]]) -> int:
        """Family built by inserting the given item sets one at a time."""
        u = ZERO
        for s in sets:
            u = self.union(u, self.from_itemset(s))
        return u
