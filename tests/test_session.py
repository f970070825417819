"""One Bounder session under every query kind, checked by a state machine.

Entries stored by one query answer later queries at other bounds, so the
engine's key correctness property is about a whole session: after any mix
of filters, sweeps, ranks, ranges, min/max and queries cut short by the
call budget or the node table's capacity, every answer and every stored
interval, in the node memo and in rank's count memo, is exact against
brute force over the enumerated members.  The memos hold node handles,
so the forest under them must stay canonical with exact member counts
while it also grows by set algebra, diagram loads (some cut short by the
capacity) and reloads of the session's own results; ``validate()`` after
every step checks that, each count against its children's.  Each new
query kind a session can hold (quantiles, bounded samples, the k cheapest
members: ROADMAP items 11, 12 and 16) joins as one more rule.
"""

import copy

import pytest
from hypothesis import settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule
from hypothesis.stateful import run_state_machine_as_test

from costzdd import bound
from costzdd.bound import Bounder, BoundResult, CallBudgetError, estimate_naive_calls
from costzdd.extint import NEG_INF, POS_INF
from costzdd.forest import ZERO, CapacityError, Forest
from costzdd.graphio import ParseError, read_zdd, write_zdd

from helpers import subset_cost

FILTERS = ("backtrack_naive", "backtrack_memo", "backtrack_interval_memo")
QUERIES = FILTERS + ("rank",)
BOUNDS = st.one_of(st.integers(-90, 90), st.sampled_from([NEG_INF, POS_INF]))


def is_ext(x, inf):
    """x is a plain int or the module's infinity itself, never a fresh float."""
    return type(x) is int or x is inf


def snapshot(bd):
    # what a query may change in a session; a _Wide node has no __eq__
    return (bd.call_counter, dict(bd.flat_memo), list(bd.stored_intervals()),
            list(bound._entries(bd.count_memo)), bd.stats(), list(bd._least),
            list(bd._most), len(bd.forest))


def moves(bd):
    # what a query that reads the forward-pass lists must leave as it was
    stats = bd.stats()
    return bd.call_counter, stats["memo_entries"], stats["count_memo_entries"], len(bd.forest)


class BounderSession(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.width = bound._WIDTH

    def teardown(self):
        bound._WIDTH = self.width

    @initialize(
        n=st.integers(0, 8),
        masks=st.lists(st.integers(0, 255), min_size=1, max_size=16),
        costs=st.lists(st.integers(-20, 20), min_size=8, max_size=8),
        wide=st.booleans(),
    )
    def start(self, n, masks, costs, wide):
        if wide:
            # every node past one entry splits, so splits happen mid-session
            bound._WIDTH = 2
        self.costs = costs[:n]
        self.fo = Forest(n)
        # masks with no bit below n give {()}; the empty family joins the
        # roots as ZERO, the result of the first query that admits nothing
        f = self.fo.from_sets(self.family(masks))
        self.bd = Bounder(self.fo, self.costs)
        # query roots, in order: the family, then every result the session made
        self.roots = {f: None}
        self.priced: dict[int, dict] = {}  # node -> {member: cost}, enumerated once
        self.calls = 0  # the calls of every query so far
        self.entries = (0, 0)  # node- and count-memo entries after the last step
        self.checked: set[tuple] = set()  # node-memo entries already checked
        self.counted: set[tuple] = set()  # count-memo entries already checked
        self.oracle: dict = {}  # min_max_cost's cache, shared across steps

    def family(self, masks):
        return {tuple(i + 1 for i in range(self.fo.n_items) if m >> i & 1) for m in masks}

    def members(self, u):
        if u not in self.priced:
            self.priced[u] = {s: subset_cost(s, self.costs) for s in self.fo.enumerate_sets(u, 256)}
        return self.priced[u]

    def pick(self, data):
        return data.draw(st.sampled_from(list(self.roots)), label="root")

    def filter(self, method, f, b):
        """Run one filter and check its answer, its calls and what it stored."""
        before = self.bd.stats()
        res = getattr(self.bd, method)(f, b)
        after = self.bd.stats()
        assert res.calls % 2 == 1
        self.calls += res.calls
        # the interval walk stores one entry per expansion, all in the node memo
        stored = (res.calls - 1) // 2 if method == "backtrack_interval_memo" else 0
        assert after["memo_entries"] - before["memo_entries"] == stored
        assert after["count_memo_entries"] == before["count_memo_entries"]
        costs = self.members(f)
        want = {s for s, c in costs.items() if c <= b}
        assert self.fo.count(res.root) == len(want)
        assert self.members(res.root).keys() == want
        if method == "backtrack_interval_memo":
            aw = max((c for c in costs.values() if c <= b), default=NEG_INF)
            rb = min((c for c in costs.values() if c > b), default=POS_INF)
            assert (res.accept_worst, res.reject_best) == (aw, rb)
            assert is_ext(res.accept_worst, NEG_INF) and is_ext(res.reject_best, POS_INF)
        else:
            assert res.accept_worst is None and res.reject_best is None
        self.roots[res.root] = None
        return res

    def walks(self, k, query, *args):
        """Run a query made of k filter walks; its calls are the counter's
        move, and it leaves the count memo as it was."""
        counts = list(bound._entries(self.bd.count_memo))
        counter, entries = self.bd.call_counter, self.bd.stats()["memo_entries"]
        out = query(*args)
        calls = self.bd.call_counter - counter
        assert calls >= k and (calls - k) % 2 == 0
        assert self.bd.stats()["memo_entries"] - entries == (calls - k) // 2
        assert list(bound._entries(self.bd.count_memo)) == counts
        self.calls += calls
        return out

    def ranked(self, f, b):
        """Rank f at b and check its answer and what it stored: one count-
        memo entry per expansion, and neither a node-memo entry nor a node."""
        stored, nodes = list(self.bd.stored_intervals()), len(self.fo)
        counter, entries = self.bd.call_counter, self.bd.stats()["count_memo_entries"]
        n = self.bd.rank(f, b)
        calls = self.bd.call_counter - counter
        assert calls % 2 == 1
        assert self.bd.stats()["count_memo_entries"] - entries == (calls - 1) // 2
        assert list(self.bd.stored_intervals()) == stored and len(self.fo) == nodes
        assert type(n) is int and n == sum(1 for c in self.members(f).values() if c <= b)
        self.calls += calls
        return n

    def query(self, method, f, b):
        return self.ranked(f, b) if method == "rank" else self.filter(method, f, b)

    @rule(method=st.sampled_from(FILTERS), b=BOUNDS, data=st.data())
    def filter_at(self, method, b, data):
        self.filter(method, self.pick(data), b)

    @rule(start=st.integers(-90, 90), length=st.integers(1, 40), data=st.data())
    def sweep(self, start, length, data):
        f = self.pick(data)
        for b in range(start, start + length):
            self.filter("backtrack_interval_memo", f, b)

    @rule(b=BOUNDS, data=st.data())
    def rank(self, b, data):
        self.ranked(self.pick(data), b)

    @rule(ends=st.lists(BOUNDS, min_size=2, max_size=2), data=st.data())
    def range_query(self, ends, data):
        f = self.pick(data)
        lb, ub = sorted(ends)
        h = self.walks(2, self.bd.range_query, f, lb, ub)
        assert self.members(h).keys() == {s for s, c in self.members(f).items() if lb < c <= ub}
        self.roots[h] = None

    @rule(data=st.data())
    def min_max(self, data):
        f = self.pick(data)
        costs = self.members(f).values()
        lo, hi = min(costs, default=POS_INF), max(costs, default=NEG_INF)
        # both are reads of the forward-pass lists: no call, entry or node
        before = moves(self.bd)
        mn = self.bd.min_cost(f)
        assert mn == lo and is_ext(mn, POS_INF)
        mm = self.bd.min_max(f)
        assert mm == (lo, hi) and is_ext(mm[1], NEG_INF)
        assert moves(self.bd) == before
        # the filter below the minimum is cut at the root
        if costs:
            for below in (NEG_INF, lo - 1):
                res = self.filter("backtrack_interval_memo", f, below)
                assert res == BoundResult(ZERO, NEG_INF, lo, 1)

    @rule(method=st.sampled_from(QUERIES), b=BOUNDS, data=st.data())
    def over_budget(self, method, b, data):
        # a query returns exactly when its calls fit the limit; otherwise it
        # aborts past the limit with the counter in step, or, naive, is
        # refused with its exact need and the session untouched.  A rule
        # that raises ends the run, so no setting is restored on failure.
        f, bd = self.pick(data), self.bd
        naive = method == "backtrack_naive"
        twin = None if naive else copy.deepcopy(bd)
        want = None if naive else getattr(twin, method)(f, b)
        need = estimate_naive_calls(self.fo, f) if naive else twin.call_counter - bd.call_counter
        # need and need - 1 often, besides any limit in [1, need]
        edges = st.sampled_from(sorted({max(need - 1, 1), need}))
        limit = data.draw(edges | st.integers(1, need), label="limit")
        before = snapshot(bd)
        bd.call_limit = limit
        if limit == need:
            res = self.query(method, f, b)
            bd.call_limit = None
            assert bd.call_counter - before[0] == need
            assert naive or (res == want and snapshot(bd) == snapshot(twin))
            return
        with pytest.raises(CallBudgetError) as exc:
            getattr(bd, method)(f, b)
        bd.call_limit = None
        err = exc.value
        assert err.limit == limit and err.calls > limit and err.calls % 2 == 1
        if naive:
            assert err.calls == need and snapshot(bd) == before
            return
        assert bd.call_counter - before[0] == err.calls
        self.calls += err.calls
        if method == "rank":
            # the entries stored before the abort serve an exact answer
            assert self.ranked(f, b) == want

    @rule(room=st.integers(0, 6), data=st.data())
    def near_capacity(self, room, data):
        # only a family of two costs or more, filtered below its dearest
        # member, can need new nodes
        spread = [r for r in self.roots if len(set(self.members(r).values())) > 1]
        if not spread:
            return
        f, fo = data.draw(st.sampled_from(spread), label="root"), self.fo
        costs = self.members(f).values()
        b = data.draw(st.integers(min(costs), max(costs) - 1), label="b")
        cap, counter = fo.max_nodes, self.bd.call_counter
        fo.max_nodes = len(fo) + room
        try:
            self.filter("backtrack_interval_memo", f, b)
        except CapacityError:
            assert len(fo) == fo.max_nodes and (self.bd.call_counter - counter) % 2 == 1
            self.calls = self.bd.call_counter
        fo.max_nodes = cap

    @rule(op=st.sampled_from(("union", "intersection", "difference")), data=st.data())
    def algebra(self, op, data):
        f, g = self.pick(data), self.pick(data)
        h = getattr(self.fo, op)(f, g)
        xs, ys = self.members(f).keys(), self.members(g).keys()
        want = {"union": xs | ys, "intersection": xs & ys, "difference": xs - ys}[op]
        assert self.fo.count(h) == len(want) and self.members(h).keys() == want
        self.roots[h] = None

    @rule(masks=st.lists(st.integers(0, 255), max_size=16), room=st.none() | st.integers(0, 6))
    def load(self, masks, room):
        # a family written from another forest and read into the session's,
        # as the perfbench gate reads each cold result back into its set-up
        # forest; sometimes near the node table's capacity
        fo, want = self.fo, self.family(masks)
        src = Forest(fo.n_items)
        text = write_zdd(src, src.from_sets(want))
        cap = fo.max_nodes
        if room is not None:
            fo.max_nodes = len(fo) + room
        try:
            h = read_zdd(fo, text)
        except CapacityError:
            assert room is not None and len(fo) == fo.max_nodes
            return
        finally:
            fo.max_nodes = cap
        assert self.members(h).keys() == want
        self.roots[h] = None

    @rule(data=st.data())
    def reload(self, data):
        # a root written and read back into its forest is the same handle
        # and makes no node; a fresh forest makes exactly the header's node
        # count and writes the same bytes
        f, fo = self.pick(data), self.fo
        text, size = write_zdd(fo, f), len(fo)
        assert read_zdd(fo, text) == f and len(fo) == size
        nodes = fo.node_count(f)
        assert text.startswith(f"zdd {fo.n_items} {nodes} ")
        fresh = Forest(fo.n_items)
        assert write_zdd(fresh, read_zdd(fresh, text)) == text and len(fresh) == nodes
        if nodes:
            # the last row's lo child points forward: every row before it
            # is already interned, so the refusal makes no node either
            lines = text.splitlines()
            uid, var, _lo, hi = lines[-1].split()
            lines[-1] = f"{uid} {var} {int(uid) + 1} {hi}"
            with pytest.raises(ParseError, match=rf"line {nodes + 1}: lo child {int(uid) + 1} "):
                read_zdd(fo, "\n".join(lines) + "\n")
            assert len(fo) == size

    @invariant()
    def session_is_in_step(self):
        self.fo.validate()
        assert self.bd.call_counter == self.calls
        stats = self.bd.stats()
        entries = stats["memo_entries"], stats["count_memo_entries"]
        # neither memo ever shrinks
        assert all(now >= then for now, then in zip(entries, self.entries))
        self.entries = entries

    @invariant()
    def cheapest_member_costs_match_the_oracle(self):
        least = self.bd._least
        assert least[ZERO] is POS_INF
        for u in range(1, len(least)):
            assert type(least[u]) is int and least[u] == self.fo.min_max_cost(u, self.costs, self.oracle)[0]

    @invariant()
    def dearest_member_costs_match_the_oracle(self):
        # kept negated: the cheapest member cost under the negated costs
        most = self.bd._most
        assert most[ZERO] is POS_INF
        for u in range(1, len(most)):
            assert type(most[u]) is int and -most[u] == self.fo.min_max_cost(u, self.costs, self.oracle)[1]

    def kept(self, node, aw, rb):
        """Members of node costing at most aw, once aw is checked to be the
        dearest of them and rb the cheapest member left out."""
        assert type(aw) is int and is_ext(rb, POS_INF) and aw < rb
        costs = self.members(node)
        kept = {s for s, c in costs.items() if c <= aw}
        assert kept and aw == max(costs[s] for s in kept)
        assert rb == min((c for c in costs.values() if c > aw), default=POS_INF)
        return kept

    @invariant()
    def stored_entries_are_exact(self):
        # entry (node, aw, rb, h): h is node's members costing at most aw,
        # aw the dearest of them and rb the cheapest member left out
        for entry in self.bd.stored_intervals():
            if entry not in self.checked:
                node, aw, rb, h = entry
                assert self.members(h).keys() == self.kept(node, aw, rb)
                self.checked.add(entry)

    @invariant()
    def count_entries_are_exact(self):
        # entry (node, aw, rb, n): the same, with n the number of those members
        for entry in bound._entries(self.bd.count_memo):
            if entry not in self.counted:
                node, aw, rb, n = entry
                assert type(n) is int and n == len(self.kept(node, aw, rb))
                self.counted.add(entry)


def test_bounder_session():
    width = bound._WIDTH
    run_state_machine_as_test(
        BounderSession, settings=settings(max_examples=275, stateful_step_count=30, deadline=None)
    )
    assert bound._WIDTH == width
