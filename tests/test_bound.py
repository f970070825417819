import gc
import random
import weakref
from enum import IntEnum
from fractions import Fraction

import pytest

from costzdd import bound
from costzdd.bound import (
    Bounder,
    BoundResult,
    CallBudgetError,
    MemoInvariantError,
    _Wide,
    estimate_naive_calls,
)
from costzdd.extint import NEG_INF, POS_INF, INT64_MAX, INT64_MIN, CostOverflowError
from costzdd.forest import ONE, ZERO, Forest
from costzdd.frontier import build_path_zdd, grid_graph

from helpers import all_subsets, random_family

# every filter of the one contract: (f, b) -> BoundResult, CallBudgetError
VARIANTS = ("backtrack_naive", "backtrack_memo", "backtrack_interval_memo")


def power_bounder(n, costs, **kw):
    fo = Forest(n)
    f = fo.power_set()
    return fo, f, Bounder(fo, costs, **kw)


# ----------------------------------------------------------------------
# worked example: subsets of {1,2,3} with costs 3, 5, 7
#
# costs by subset: {}:0 {1}:3 {2}:5 {3}:7 {1,2}:8 {1,3}:10 {2,3}:12 {1,2,3}:15


def test_example_bound_8():
    fo, f, bd = power_bounder(3, [3, 5, 7])
    res = bd.backtrack_interval_memo(f, 8)
    assert fo.count(res.root) == 5
    assert set(fo.enumerate_sets(res.root, 100)) == {
        (), (1,), (2,), (3,), (1, 2)
    }
    assert res.accept_worst == 8  # cost of {1,2}, the dearest survivor
    assert res.reject_best == 10  # cost of {1,3}, the cheapest reject
    assert res.calls == 11


def test_example_extremes():
    fo, f, bd = power_bounder(3, [3, 5, 7])
    lo = bd.backtrack_interval_memo(f, NEG_INF)
    assert lo.root == ZERO
    assert lo.accept_worst is NEG_INF
    assert lo.reject_best == 0
    # below the cheapest member the root is cut: one call, nothing stored
    assert lo.calls == 1
    assert bd.interval_memo == {}
    hi = bd.backtrack_interval_memo(f, POS_INF)
    assert hi.root == f
    assert hi.accept_worst == 15
    assert hi.reject_best is POS_INF
    assert hi.calls == 2 * 3 + 1


def test_example_naive_call_count():
    fo, f, bd = power_bounder(3, [3, 5, 7])
    res = bd.backtrack_naive(f, 8)
    assert res.calls == 15
    assert res.calls == estimate_naive_calls(fo, f)
    assert res.accept_worst is None and res.reject_best is None


def test_example_variants_agree():
    for method in VARIANTS:
        fo, f, bd = power_bounder(3, [3, 5, 7])
        res = getattr(bd, method)(f, 8)
        assert fo.count(res.root) == 5


def test_repeat_query_is_one_call():
    fo, f, bd = power_bounder(3, [3, 5, 7])
    first = bd.backtrack_interval_memo(f, 8)
    again = bd.backtrack_interval_memo(f, 8)
    assert again.root == first.root
    assert again.calls == 1
    # a different bound inside the stored root interval also hits at once
    shifted = bd.backtrack_interval_memo(f, 9)
    assert shifted.root == first.root
    assert shifted.calls == 1
    assert bd.call_counter == first.calls + 2


def test_terminal_queries():
    fo = Forest(2)
    bd = Bounder(fo, [1, 2])
    assert bd.backtrack_interval_memo(ZERO, 5) == BoundResult(ZERO, NEG_INF, POS_INF, 1)
    assert bd.backtrack_interval_memo(ONE, 0) == BoundResult(ONE, 0, POS_INF, 1)
    assert bd.backtrack_interval_memo(ONE, -1) == BoundResult(ZERO, NEG_INF, 0, 1)
    assert bd.backtrack_naive(ONE, POS_INF).root == ONE
    assert bd.backtrack_memo(ONE, NEG_INF).root == ZERO


# ----------------------------------------------------------------------
# worked example: two singles priced 245 and 265, queried at 252
#
# {1} is accepted, {2} rejected, so the root interval is [245, 265).


def test_interval_endpoints_and_lookup():
    fo = Forest(2)
    f = fo.from_sets([(1,), (2,)])
    bd = Bounder(fo, [245, 265])
    res = bd.backtrack_interval_memo(f, 252)
    assert res.root == fo.from_itemset((1,))
    assert (res.accept_worst, res.reject_best) == (245, 265)

    # the {2} child is cut (252 < 265): the root's entry is the only one
    assert list(bd.stored_intervals()) == [(f, 245, 265, res.root)]

    # a bound inside [245, 265) is a 1-call hit on that entry
    for b in (245, 264):
        assert bd.backtrack_interval_memo(f, b) == BoundResult(res.root, 245, 265, 1)
    # below the cheapest member the root is cut: 1 call, nothing stored
    assert bd.backtrack_interval_memo(f, 175) == BoundResult(ZERO, NEG_INF, 245, 1)
    # the interval is half-open: 265 misses and expands the root again
    assert bd.backtrack_interval_memo(f, 265).calls > 1
    with pytest.raises(ValueError, match="invalid node handle"):
        bd.backtrack_interval_memo(999999, 0)


def test_open_end_covers_pos_inf():
    # a last interval reaching +inf also holds +inf itself
    fo, f, bd = power_bounder(2, [1, 1])
    res = bd.backtrack_interval_memo(f, POS_INF)
    assert res.root == f
    assert (f, 2, POS_INF, f) in bd.stored_intervals()
    assert bd.backtrack_interval_memo(f, POS_INF) == BoundResult(f, 2, POS_INF, 1)


def test_stored_intervals_enumeration():
    fo = Forest(2)
    f = fo.from_sets([(1,), (2,)])
    bd = Bounder(fo, [245, 265])
    # at 252 the {2} child would be cut (252 < 265); at 265 it is expanded
    bd.backtrack_interval_memo(f, 265)
    stored = {(u, aw, rb) for u, aw, rb, _h in bd.stored_intervals()}
    assert (f, 265, POS_INF) in stored
    # the {2} child node stores its own window
    assert any(u != f for u, _aw, _rb in stored)


# ----------------------------------------------------------------------
# memo invariants and footprint


def test_filter_refuses_overlapping_memo_entries():
    # the root's interval around 8 and 9 is [8, 10); a planted entry that
    # misses the residual bound but overlaps that interval is a broken memo.
    # Planted as blocks of a wide node, it sits at the first slot of the
    # block after the one rem falls in, or at the last slot of that block.
    for planted, b, pattern in [
        ([[9, 12]], 8, "from the right"),
        ([[5, 9]], 9, "from the left"),
        ([[0, 1], [9, 12]], 8, "from the right"),
        ([[5, 9], [20, 30]], 9, "from the left"),
    ]:
        fo, f, bd = power_bounder(3, [3, 5, 7])
        blocks = [pts + [f] for pts in planted]
        bd.interval_memo[f] = blocks[0] if len(blocks) == 1 else _Wide(blocks)
        with pytest.raises(MemoInvariantError, match=pattern):
            bd.backtrack_interval_memo(f, b)


def same_answer(got, want):
    return (got.root, got.accept_worst, got.reject_best) == (
        want.root, want.accept_worst, want.reject_best
    )


def test_wide_node_answers_as_fresh_and_as_one_list(monkeypatch):
    # costs 1, 2, ..., 512 give the 10-item power set 1,024 distinct member
    # costs, so once every bound is queried its root holds 1,024 entries
    # (-inf and -1 are cut), far past the width: the root is split into
    # blocks many times over
    n = 10
    costs = [1 << i for i in range(n)]
    bounds = [*range(-1, 1025), NEG_INF, POS_INF]
    random.Random(139).shuffle(bounds)
    fo, f, bd = power_bounder(n, costs)
    got = [bd.backtrack_interval_memo(f, b) for b in bounds]
    for b, res in zip(bounds, got):
        assert same_answer(res, Bounder(fo, costs).backtrack_interval_memo(f, b)), b
    root = bd.interval_memo[f]
    assert type(root) is _Wide and len(root.blocks) > 8
    # every block holds 64 to 127 entries, and each head is the first
    # breakpoint of the block after it
    for node in bd.interval_memo.values():
        if type(node) is _Wide:
            assert all(64 <= len(pts) // 3 <= 127 for pts in node.blocks)
            assert node.heads == [pts[0] for pts in node.blocks[1:]]

    # every stored entry re-derives at both of its ends
    stored = list(bd.stored_intervals())
    assert bd.call_counter == len(bounds) + 2 * len(stored)
    by_node: dict[int, list] = {}
    for node, aw, rb, h in stored:
        by_node.setdefault(node, []).append((aw, rb, h))
        for end in (aw, rb - 1 if rb is not POS_INF else POS_INF):
            fresh = Bounder(fo, costs).backtrack_interval_memo(node, end)
            assert (fresh.root, fresh.accept_worst, fresh.reject_best) == (h, aw, rb)
    assert len(by_node[f]) == 1024

    # the walk finds the one entry that holds b, in 1 call; the sweep
    # reached every node at every bound, so a bound in no entry lies below
    # the node's cheapest member, and the cut answers it in 1 call
    for node, entries in by_node.items():
        cut = BoundResult(ZERO, NEG_INF, bd.min_cost(node), 1)
        for b in (*bounds, -2, 1025):
            want = [BoundResult(h, aw, rb, 1) for aw, rb, h in entries
                    if aw <= b < rb or b == rb == POS_INF]
            assert [bd.backtrack_interval_memo(node, b)] == (want or [cut]), (node, b)

    # the one-list layout does the same work, call for call
    monkeypatch.setattr(bound, "_WIDTH", 1 << 30)
    one = Bounder(fo, costs)
    assert [one.backtrack_interval_memo(f, b) for b in bounds] == got
    assert all(type(node) is list for node in one.interval_memo.values())
    assert sorted(one.stored_intervals()) == sorted(stored)


def grid6_ham():
    g = grid_graph(6, 1000, 1999, seed=1)
    fo = Forest(len(g.edges))
    f = build_path_zdd(fo, g, 1, 49, "hamiltonian")
    costs = [c for _u, _v, c in g.edges]
    lo, hi = fo.min_max_cost(f, costs)
    return fo, f, costs, (lo + hi) // 2


def test_interval_memo_gc_footprint():
    # One container per memo node and none per entry: what the collector
    # must walk grows with the memo's nodes, not with its entries.
    fo, f, costs, b = grid6_ham()
    gc.collect()
    before = len(gc.get_objects())
    bd = Bounder(fo, costs)
    bd.backtrack_interval_memo(f, b)
    gc.collect()
    added = len(gc.get_objects()) - before
    entries = sum(1 for _ in bd.stored_intervals())
    assert entries > len(bd.interval_memo) > 1000
    assert added <= len(bd.interval_memo) + 20


def test_dropped_request_is_freed_without_the_collector():
    # A request's forest and Bounder must be freed by reference counting
    # as soon as the caller drops them, also after an aborted query;
    # a reference cycle would pin them until a full collection.
    def run(variant, call_limit):
        fo, f, bd = power_bounder(4, [3, -5, 7, 2], call_limit=call_limit)
        try:
            getattr(bd, variant)(f, 6)
            aborted = False
        except CallBudgetError:
            aborted = True
        assert aborted == (call_limit is not None)
        return weakref.ref(fo), weakref.ref(bd)

    enabled = gc.isenabled()
    gc.disable()
    try:
        for variant in VARIANTS:
            for call_limit in (None, 3):
                refs = run(variant, call_limit)
                assert [r() for r in refs] == [None, None], (variant, call_limit)
    finally:
        if enabled:
            gc.enable()


# ----------------------------------------------------------------------
# call-count laws


def test_cold_memo_full_sweep_is_linear():
    # with an empty memo a bound of +infinity expands every node once:
    # 2 * node_count + 1 invocations exactly
    rng = random.Random(113)
    for _ in range(20):
        n = rng.randint(1, 8)
        members = random_family(rng, n) | {tuple(range(1, n + 1))}
        costs = [rng.randint(-9, 9) for _ in range(n)]
        fo = Forest(n)
        f = fo.from_sets(members)
        size = fo.node_count(f)
        assert Bounder(fo, costs).backtrack_interval_memo(f, POS_INF).calls == 2 * size + 1
        # -infinity lies below every member: the root is cut
        assert Bounder(fo, costs).backtrack_interval_memo(f, NEG_INF).calls == 1


def test_call_count_dominance():
    # naive >= flat memo >= interval memo, each on a fresh session
    rng = random.Random(127)
    for _ in range(30):
        n = rng.randint(2, 9)
        members = random_family(rng, n, max_members=18)
        costs = [rng.randint(-15, 15) for _ in range(n)]
        b = rng.randint(-40, 40)
        fo = Forest(n)
        f = fo.from_sets(members)
        naive = Bounder(fo, costs).backtrack_naive(f, b).calls
        flat = Bounder(fo, costs).backtrack_memo(f, b).calls
        ival = Bounder(fo, costs).backtrack_interval_memo(f, b).calls
        assert ival <= flat <= naive
        assert naive == estimate_naive_calls(fo, f)
        # naive shares the flat memo's walk and session, but neither reads
        # nor writes the memo: not cold, not warm
        bd = Bounder(fo, costs)
        cold = bd.backtrack_naive(f, b)
        assert cold.calls == naive and bd.flat_memo == {}
        first = bd.backtrack_memo(f, b)
        warm = dict(bd.flat_memo)
        mid = bd.backtrack_naive(f, b)
        assert mid.calls == naive and bd.flat_memo == warm
        again = bd.backtrack_memo(f, b)
        assert first.calls == flat and again.calls == 1
        assert cold.root == first.root == mid.root == again.root


def test_flat_memo_collapses_repeated_states():
    # All-equal costs give at most depth+1 distinct residuals per level,
    # so the flat memo needs O(n^2) calls where naive needs 2^(n+1) - 1.
    n, b = 10, 5
    fo, f, bd = power_bounder(n, [1] * n)
    res = bd.backtrack_memo(f, b)
    assert res.calls <= 1 + 2 * sum(d + 1 for d in range(n))
    assert estimate_naive_calls(fo, f) == 2 ** (n + 1) - 1
    assert fo.count(res.root) == sum(
        1 for s in all_subsets(n) if len(s) <= b
    )


# ----------------------------------------------------------------------
# derived queries


def test_range_query_example():
    fo, f, bd = power_bounder(3, [3, 5, 7])
    mid = bd.range_query(f, 3, 8)
    assert set(fo.enumerate_sets(mid, 100)) == {(2,), (3,), (1, 2)}
    assert bd.range_query(f, 8, 8) == ZERO
    assert bd.range_query(f, NEG_INF, POS_INF) == f
    assert bd.range_query(f, NEG_INF, 2) == fo.from_itemset(())
    with pytest.raises(ValueError):
        bd.range_query(f, 9, 8)
    with pytest.raises(ValueError):
        bd.range_query(f, POS_INF, NEG_INF)


def test_rank_example():
    fo = Forest(2)
    f = fo.from_sets([(), (1,), (1, 2)])  # costs 0, 3, 8
    bd = Bounder(fo, [3, 5])
    assert bd.rank(f, NEG_INF) == 0
    assert bd.rank(f, -1) == 0
    assert bd.rank(f, 0) == 1
    assert bd.rank(f, 3) == 2
    assert bd.rank(f, 7) == 2
    assert bd.rank(f, 8) == 3
    assert bd.rank(f, POS_INF) == 3


def test_count_step_with_no_lo_members_returns_the_hi_count_itself():
    b = int(str(10**6))
    assert bound._add(3, 0, b) is b and bound._add(3, 2, b) == b + 2


def test_rank_is_the_filter_count_on_grid6_simple():
    # at the criterion ratios and +inf, a fresh session's rank makes the
    # calls of a fresh filter, stores its intervals with the result's member
    # count in place of its node, and creates no node
    g = grid_graph(6, 1000, 1999, seed=1)
    fo = Forest(len(g.edges))
    f = build_path_zdd(fo, g, 1, 49, "simple")
    costs = [c for _u, _v, c in g.edges]
    mm = Bounder(fo, costs)
    assert mm.min_max(f) == fo.min_max_cost(f, costs) and mm.call_counter == 0
    mn = mm.min_cost(f)
    ratios = ("1.00", "1.01", "1.05", "1.10", "1.50", "2.00")
    for b in [Fraction(r) * mn // 1 for r in ratios] + [POS_INF]:
        filt = Bounder(fo, costs)
        res = filt.backtrack_interval_memo(f, b)
        nodes = len(fo)
        rk = Bounder(fo, costs)
        assert rk.rank(f, b) == fo.count(res.root)
        assert rk.call_counter == res.calls and len(fo) == nodes
        counted = [(u, aw, rb, fo.count(h)) for u, aw, rb, h in filt.stored_intervals()]
        assert list(bound._entries(rk.count_memo)) == counted


def test_interval_filter_of_the_power_set():
    # the cost-constraint ZDD is the power set cut at b
    fo = Forest(2)
    bd = Bounder(fo, [1, 1])
    g = bd.backtrack_interval_memo(fo.power_set(), 1).root
    assert set(fo.enumerate_sets(g, 10)) == {(), (1,), (2,)}
    full = bd.backtrack_interval_memo(fo.power_set(), POS_INF).root
    assert full == fo.power_set()

    fo5 = Forest(5)
    bd5 = Bounder(fo5, [1] * 5)
    assert fo5.count(bd5.backtrack_interval_memo(fo5.power_set(), 2).root) == 1 + 5 + 10


def test_power_set_filter_size_grows_with_cost_spread():
    # unit costs give a thin threshold diagram; distinct costs fan out
    # into many partial-sum classes
    n = 16
    fo_unit = Forest(n)
    unit = Bounder(fo_unit, [1] * n).backtrack_interval_memo(fo_unit.power_set(), n // 2).root
    fo_spread = Forest(n)
    costs = list(range(1, n + 1))
    spread = Bounder(fo_spread, costs).backtrack_interval_memo(
        fo_spread.power_set(), sum(costs) // 2
    ).root
    assert fo_spread.node_count(spread) > fo_unit.node_count(unit)


def test_min_max_repeats_after_another_query():
    fo = Forest(3)
    f = fo.from_sets([(1,), (2, 3), (1, 3)])
    bd = Bounder(fo, [4, -2, 6])
    assert bd.min_max(f) == (-2 + 6, 4 + 6)
    assert bd.min_max(ZERO) == (POS_INF, NEG_INF)
    assert bd.min_max(f) == (4, 10)


# ----------------------------------------------------------------------
# construction errors and overflow guards


def test_bounder_rejects_bad_inputs():
    fo = Forest(3)
    with pytest.raises(ValueError):
        Bounder(fo, [1, 2])
    with pytest.raises(CostOverflowError):
        Bounder(fo, [1, 2, POS_INF])
    with pytest.raises(CostOverflowError):
        Bounder(fo, [1, 2, 2**63])
    with pytest.raises(ValueError):
        Bounder(fo, [1, 2, 3], call_limit=0)
    with pytest.raises(ValueError):
        Bounder(fo, [1, 2, 3], call_limit=-5)


def test_cost_mass_overflow():
    fo = Forest(2)
    with pytest.raises(CostOverflowError):
        Bounder(fo, [INT64_MAX, INT64_MAX])
    with pytest.raises(CostOverflowError):
        Bounder(fo, [INT64_MIN, INT64_MIN])
    # one maximal cost alone is fine, and so are opposite extremes: each
    # sign is summed apart
    Bounder(fo, [INT64_MAX, 0])
    Bounder(fo, [INT64_MAX, INT64_MIN])


def test_bound_range_checks():
    fo = Forest(1)
    f = fo.power_set()
    bd = Bounder(fo, [1])
    with pytest.raises(CostOverflowError):
        bd.backtrack_naive(f, INT64_MAX + 1)
    with pytest.raises(CostOverflowError):
        bd.backtrack_naive(f, INT64_MIN)  # no headroom below
    assert bd.backtrack_naive(f, INT64_MIN + 1).root == ZERO
    assert bd.backtrack_naive(f, INT64_MAX).root == f
    neg = Bounder(fo, [-1])
    with pytest.raises(CostOverflowError):
        neg.backtrack_naive(f, INT64_MAX)  # no headroom above
    with pytest.raises(TypeError):
        bd.backtrack_naive(f, 8.5)
    with pytest.raises(TypeError):
        bd.backtrack_naive(f, "8")
    # an int subclass filters as the int it equals
    Level = IntEnum("Level", {"ONE_ITEM": 1})
    for b in (True, Level.ONE_ITEM):
        got = Bounder(fo, [1]).backtrack_interval_memo(f, b)
        assert got == Bounder(fo, [1]).backtrack_interval_memo(f, 1)
        assert type(got.accept_worst) is int


def test_costs_must_be_ints():
    fo = Forest(3)
    f = fo.power_set()
    for bad in ([3.0, 5, 7], [3, 7.5, 7], [float("nan"), 5, 7]):
        with pytest.raises(TypeError):
            Bounder(fo, bad)
        with pytest.raises(TypeError):
            fo.min_max_cost(f, bad)
    # a bool is the int it equals
    bd = Bounder(fo, [True, 5, 7])
    assert bd.costs == [1, 5, 7] and type(bd.costs[0]) is int
    assert fo.min_max_cost(f, [True, 5, 7]) == (0, 13)
    plain = Bounder(fo, [1, 5, 7])
    for b in (NEG_INF, 0, 5, 6, 7, 12, POS_INF):
        assert bd.backtrack_interval_memo(f, b) == plain.backtrack_interval_memo(f, b)


def test_infinite_float_bounds_are_the_module_infinities():
    fo, f, bd = power_bounder(3, [3, 5, 7])
    hi = bd.backtrack_interval_memo(f, float("inf"))
    assert hi.root == f and hi.accept_worst == 15 and hi.reject_best is POS_INF
    assert (f, 15, POS_INF, f) in bd.stored_intervals()
    again = bd.backtrack_interval_memo(f, float("inf"))
    assert again == BoundResult(f, 15, POS_INF, 1) and again.reject_best is POS_INF
    lo = bd.backtrack_interval_memo(f, -float("inf"))
    assert lo.root == ZERO and lo.accept_worst is NEG_INF and lo.reject_best == 0
    for bad in (float("nan"), 7.0):
        with pytest.raises(TypeError):
            bd.backtrack_interval_memo(f, bad)


# ----------------------------------------------------------------------
# call budget


def test_call_limit_one_admits_no_expansion():
    fo = Forest(1)
    f = fo.from_sets([(1,)])
    for method in VARIANTS:
        bd = Bounder(fo, [1], call_limit=1)
        with pytest.raises(CallBudgetError) as exc:
            getattr(bd, method)(f, 5)
        # naive is refused before its first call
        assert exc.value.calls == 3
        assert bd.call_counter == (0 if method == "backtrack_naive" else 3)
        assert getattr(bd, method)(ONE, 5).calls == 1


def test_call_budget_spares_memo_hits():
    fo, f, bd = power_bounder(6, [1] * 6)
    res = bd.backtrack_interval_memo(f, 3)
    tight = Bounder(fo, [1] * 6, call_limit=res.calls)
    tight.backtrack_interval_memo(f, 3)  # fits exactly
    # a repeat of the same query is one call, far under any limit
    assert tight.backtrack_interval_memo(f, 3).calls == 1


def test_stats():
    fo, f, bd = power_bounder(3, [3, 5, 7])
    assert bd.stats() == {
        "calls": 0, "memo_nodes": 0, "memo_entries": 0, "widest_node": 0, "blocked_nodes": 0,
        "ranged_nodes": 0, "count_memo_nodes": 0, "count_memo_entries": 0,
    }
    bd.backtrack_interval_memo(f, 8)  # 11 calls: 5 expansions over 3 nodes
    bd.backtrack_interval_memo(f, 8)
    # the cheapest-member pass covers the root's 3 ids, not the result's
    assert bd.stats() == {
        "calls": 12, "memo_nodes": 3, "memo_entries": 5, "widest_node": 2, "blocked_nodes": 0,
        "ranged_nodes": 3, "count_memo_nodes": 0, "count_memo_entries": 0,
    }
    # rank stores the filter's 5 entries in the count memo, then hits
    assert bd.rank(f, 8) == 5 and bd.rank(f, 8) == 5
    assert bd.stats() == {
        "calls": 24, "memo_nodes": 3, "memo_entries": 5, "widest_node": 2, "blocked_nodes": 0,
        "ranged_nodes": 3, "count_memo_nodes": 3, "count_memo_entries": 5,
    }
    fo10, f10, wide = power_bounder(10, [1 << i for i in range(10)])
    for b in range(1024):
        wide.backtrack_interval_memo(f10, b)
    st10 = wide.stats()
    assert st10["memo_entries"] == sum(1 for _ in wide.stored_intervals())
    assert st10["widest_node"] == 1024 and st10["blocked_nodes"] >= 1
    assert st10["calls"] == 1024 + 2 * st10["memo_entries"]


# ----------------------------------------------------------------------
# naive call estimate


def test_estimate_naive_calls_cases():
    fo = Forest(3)
    assert estimate_naive_calls(fo, ZERO) == 1
    assert estimate_naive_calls(fo, ONE) == 1
    f = fo.power_set()
    assert estimate_naive_calls(fo, f) == 15
    g = fo.from_itemset((1, 2, 3))
    assert estimate_naive_calls(fo, g) == 7


def test_estimate_matches_measured():
    rng = random.Random(137)
    for _ in range(25):
        n = rng.randint(1, 8)
        members = random_family(rng, n)
        fo = Forest(n)
        f = fo.from_sets(members)
        bd = Bounder(fo, [rng.randint(-5, 5) for _ in range(n)])
        assert bd.backtrack_naive(f, rng.randint(-20, 20)).calls == estimate_naive_calls(fo, f)
