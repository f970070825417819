"""Canonical zero-suppressed decision diagram (ZDD) forest.

A ZDD encodes a family of item sets as a DAG.  Non-terminal nodes test one
item; the 0-edge child holds the sub-family without the item, the 1-edge
child the sub-family with it.  Two reduction rules keep the representation
canonical:

* a node whose 1-edge points to the 0-terminal is never created (the
  zero-suppress rule), and
* structurally equal nodes are shared through a unique table, one per
  item, keyed by the node's two child ids.

Canonicity makes semantic equality the same thing as handle equality: two
node ids from one forest are equal exactly when they encode the same family.

Node handles are dense ints.  Handle 0 is the 0-terminal (the empty
family), handle 1 is the 1-terminal (the family containing only the empty
set).  Items are numbered 1..n_items and that numbering is the variable
order, root to terminal increasing.

Every node also stores its member count, the sum of its children's,
set once when the node is created: canonicity fixes a node's family, so
its count never changes, and ``count`` is one list read.  A node whose
0-child is the 0-terminal has its 1-child's members, so it stores that
child's count object itself rather than an equal copy.

A Forest is single-owner: every operation may touch its caches, so
concurrent use of one forest from several threads is not supported.
Distinct forests are fully independent.
"""

from __future__ import annotations

import random
from collections import defaultdict
from collections.abc import Iterable, Iterator

from .extint import ExtInt, NEG_INF, POS_INF, check_costs

ZERO = 0
ONE = 1

_OP_UNION = 0
_OP_INTER = 1
_OP_DIFF = 2

# Ids run up to max_nodes + 1, so this cap keeps every id below 2**32, as
# the unique tables' packed keys need (see Forest).
DEFAULT_MAX_NODES = 2**32 - 2


class CapacityError(RuntimeError):
    """The node table hit its configured size ceiling."""


class Forest:
    """Append-only node store with hash-consing and memoized set algebra.

    Nodes are never freed; enumeration workloads build monotonically and
    drop the whole forest when done.  The practical ceiling is process
    memory; ``max_nodes`` (default and largest value 2**32 - 2, so every
    node id fits in 32 bits) turns runaway growth into a clean
    :class:`CapacityError` instead of an opaque MemoryError.

    The unique tables and the set-operation cache are keyed by packed
    ints, which the cyclic garbage collector does not track, unlike
    tuples.  Each item has its own unique table, made with its first node,
    which maps ``lo << 32 | hi`` of each node testing the item to its id;
    below id 2**28 that key fits in two 30-bit digits, a 32-byte int.  When
    ``lo`` is ZERO the key's value is ``hi``, below 2**32 where every other
    key is above it, so the table keeps the ``hi`` handle object the node
    already stores instead of a fresh equal int: such a node allocates no
    key, and no count (see the module docstring).  ``validate`` checks
    both identities.  The set-operation cache maps
    ``(f << 32 | g) << 2 | op`` to the result.

    Every walk over the diagram keeps an explicit stack, so a forest of
    any item count leaves the process-wide recursion limit alone and no
    call raises RecursionError.
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
        # _count[u] is the number of sets in u's family; for lo == ZERO it
        # is the object _count[hi] itself.
        self._var = [term_var, term_var]
        self._lo = [-1, -1]
        self._hi = [-1, -1]
        self._count = [0, 1]
        # _unique[var] maps lo << 32 | hi to the id of node (var, lo, hi);
        # for lo == ZERO the key is the hi handle object itself
        self._unique: defaultdict[int, dict[int, int]] = defaultdict(dict)
        self._op_cache: dict[int, int] = {}

    # ------------------------------------------------------------------
    # structure

    def __len__(self) -> int:
        """Number of stored non-terminal nodes."""
        return len(self._var) - 2

    def node(self, u: int) -> tuple[int, int, int]:
        """Return ``(var, lo, hi)`` of a non-terminal node."""
        if self._check_valid(u) <= ONE:
            raise ValueError(f"node {u} is a terminal")
        return self._var[u], self._lo[u], self._hi[u]

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
        # A child past either end of the store raises IndexError here.  One
        # in -len..-1 wraps round, then gives a negative key (packed, or a
        # ZERO lo's hi itself), which never hits, so only a new node needs
        # the check below.
        try:
            if var < 1 or var >= varr[lo] or var >= varr[hi]:
                self._refuse_node(var, lo, hi)
        except IndexError:
            self._refuse_node(var, lo, hi)
        table = self._unique[var]
        key = lo << 32 | hi if lo else hi
        u = table.get(key)
        if u is not None:
            return u
        if lo < 0 or hi < 0:
            raise ValueError(f"invalid node handle {min(lo, hi)}")
        u = len(varr)
        if u - 2 >= self.max_nodes:
            raise CapacityError(f"node table reached max_nodes={self.max_nodes}")
        varr.append(var)
        self._lo.append(lo)
        self._hi.append(hi)
        cnt = self._count
        cnt.append(cnt[lo] + cnt[hi] if lo else cnt[hi])
        table[key] = u
        return u

    def _refuse_node(self, var: int, lo: int, hi: int) -> None:
        """Raise for a node with a child that is not a handle of this forest,
        or whose item is out of range or not above its children."""
        varr = self._var
        for w in (lo, hi):
            if not 0 <= w < len(varr):
                raise ValueError(f"invalid node handle {w}")
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
        varr, lo_arr, hi_arr, cnt = self._var, self._lo, self._hi, self._count
        tables = self._unique
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
            table = tables[var]
            key = lo << 32 | hi if lo else hi
            # one table lookup per row: a bulk load mostly creates nodes
            new = len(varr)
            u = table.setdefault(key, new)
            if u == new:
                if new >= end:
                    del table[key]
                    raise CapacityError(f"node table reached max_nodes={self.max_nodes}")
                varr.append(var)
                lo_arr.append(lo)
                hi_arr.append(hi)
                cnt.append(cnt[lo] + cnt[hi] if lo else cnt[hi])
            append(u)

    def _check_valid(self, u: int) -> int:
        if not 0 <= u < len(self._var):
            raise ValueError(f"invalid node handle {u}")
        return u

    def validate(self) -> None:
        """Scan the whole store and verify id order, canonicity, the unique
        tables and member counts.  Every child has a smaller id than its
        parent, which lets a forward pass over ids see children first.
        A node whose lo is ZERO must share its hi child's objects: its key
        is its ``_hi`` entry and its count its hi child's count."""
        seen: dict[int, dict[int, int]] = {}
        for u in range(2, len(self._var)):
            v, lo, hi = self._var[u], self._lo[u], self._hi[u]
            if not (0 <= lo < u and 0 <= hi < u):
                raise AssertionError(f"node {u} has a child at a later id")
            if hi == ZERO:
                raise AssertionError(f"node {u} violates zero-suppress rule")
            if v >= self._var[lo] or v >= self._var[hi]:
                raise AssertionError(f"node {u} violates variable ordering")
            table = seen.setdefault(v, {})
            key = lo << 32 | hi
            if key in table:
                raise AssertionError(f"nodes {table[key]} and {u} are duplicates")
            table[key] = u
        # a refused node may leave its item an empty table
        if seen != {v: t for v, t in self._unique.items() if t}:
            raise AssertionError("unique table out of sync with node store")
        lo_arr, hi_arr = self._lo, self._hi
        for table in self._unique.values():
            for key, u in table.items():
                if not lo_arr[u] and key is not hi_arr[u]:
                    raise AssertionError(f"node {u} keys a copy of its hi handle")
        cnt = self._count
        if len(cnt) != len(self._var) or cnt[:2] != [0, 1]:
            raise AssertionError("count array out of step with node store")
        for u in range(2, len(cnt)):
            lo, hi = lo_arr[u], hi_arr[u]
            if cnt[u] != cnt[lo] + cnt[hi]:
                raise AssertionError(f"node {u} stores a wrong member count")
            if not lo and cnt[u] is not cnt[hi]:
                raise AssertionError(f"node {u} stores a copy of its hi child's count")

    # ------------------------------------------------------------------
    # set algebra

    def union(self, f: int, g: int) -> int:
        return self._apply(_OP_UNION, self._check_valid(f), self._check_valid(g))

    def intersection(self, f: int, g: int) -> int:
        return self._apply(_OP_INTER, self._check_valid(f), self._check_valid(g))

    def difference(self, f: int, g: int) -> int:
        return self._apply(_OP_DIFF, self._check_valid(f), self._check_valid(g))

    def _apply(self, code: int, f: int, g: int) -> int:
        varr, lo, hi = self._var, self._lo, self._hi
        cache = self._op_cache
        make = self.make_node
        # [key, v, f1, g1, r0] per pending node; r0 is None until the lo
        # pair's result is known
        stack: list[list] = []
        while True:
            # descend lo-first until a terminal case or a cache hit gives r
            while True:
                r = None
                if code == _OP_UNION:
                    if f == ZERO:
                        r = g
                    elif g == ZERO or f == g:
                        r = f
                    elif g < f:
                        f, g = g, f
                elif code == _OP_INTER:
                    if f == ZERO or g == ZERO:
                        r = ZERO
                    elif f == g:
                        r = f
                    elif g < f:
                        f, g = g, f
                elif f == ZERO or f == g:
                    r = ZERO
                elif g == ZERO:
                    r = f
                if r is None:
                    key = (f << 32 | g) << 2 | code
                    r = cache.get(key)
                if r is not None:
                    break
                vf, vg = varr[f], varr[g]
                v = vf if vf < vg else vg
                if vf == v:
                    f0, f1 = lo[f], hi[f]
                else:
                    f0, f1 = f, ZERO
                if vg == v:
                    g0, g1 = lo[g], hi[g]
                else:
                    g0, g1 = g, ZERO
                stack.append([key, v, f1, g1, None])
                f, g = f0, g0
            # hand r up: a frame still waiting for its lo result keeps it and
            # descends to its hi pair; a complete one makes its node
            while stack:
                fr = stack[-1]
                if fr[4] is None:
                    fr[4] = r
                    f, g = fr[2], fr[3]
                    break
                stack.pop()
                key, v, _f1, _g1, r0 = fr
                r = make(v, r0, r)
                cache[key] = r
            else:
                return r

    # ------------------------------------------------------------------
    # queries

    def count(self, f: int) -> int:
        """Exact number of sets in the family, as an unbounded int."""
        return self._count[self._check_valid(f)]

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
        self._check_valid(f)
        lo, hi = self._lo, self._hi
        seen = {ZERO, ONE}
        stack = [f]
        while stack:
            u = stack.pop()
            if u not in seen:
                seen.add(u)
                stack.append(lo[u])
                stack.append(hi[u])
        return len(seen) - 2

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
        return self._iter_sets(f)

    def _iter_sets(self, f: int) -> Iterator[tuple[int, ...]]:
        # A node's 0-chain w0, w1, ... ends at a terminal, and its sets in
        # lexicographic order are: the empty set if the chain ends at ONE,
        # then var(w0) + each set of hi(w0), then var(w1) + each set of
        # hi(w1), and so on, since the chain's items increase.  All frames
        # share one path: a frame (depth, item, u) cuts it to its depth and
        # appends its item, so each member tuple is copied out once.
        varr, lo, hi = self._var, self._lo, self._hi
        path: list[int] = []
        stack = [(0, 0, f)]
        while stack:
            depth, item, u = stack.pop()
            del path[depth:]
            if item:
                path.append(item)
            chain = []
            while u > ONE:
                chain.append(u)
                u = lo[u]
            if u == ONE:
                yield tuple(path)
            depth = len(path)
            for w in reversed(chain):
                stack.append((depth, varr[w], hi[w]))

    def min_max_cost(
        self,
        f: int,
        costs: list[int],
        cache: dict[int, tuple[ExtInt, ExtInt]] | None = None,
    ) -> tuple[ExtInt, ExtInt]:
        """Minimum and maximum total cost over the family, one bottom-up pass.

        The oracle, independent of the forward-pass lists that
        ``Bounder.min_cost`` and ``Bounder.min_max`` read.  ``(POS_INF,
        NEG_INF)`` for the empty family; ``costs[i - 1]`` is the cost of item
        ``i``.  The costs must pass ``check_costs``, as a Bounder's must, so
        every sum below fits in 64 bits and none is checked.  An optional
        ``cache`` (node id to result) lets a caller reuse the pass across
        queries sharing one cost vector.
        """
        self._check_valid(f)
        if len(costs) != self.n_items:
            raise ValueError(f"cost vector has {len(costs)} entries, forest has {self.n_items} items")
        costs = check_costs(costs)[0]
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
            # a hi child is never ZERO, so its minimum and maximum are finite
            c = costs[varr[u] - 1]
            lo_mn, lo_mx = cache[lo[u]]
            hi_mn, hi_mx = cache[hi[u]]
            cache[u] = (min(lo_mn, hi_mn + c), max(lo_mx, hi_mx + c))
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
        counts = self._count
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
