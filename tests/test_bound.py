import copy
import gc
import random
import weakref

import pytest
from hypothesis import given, settings, strategies as st

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

from helpers import all_subsets, filter_by_cost, random_family, subset_cost

VARIANTS = ("backtrack_naive", "backtrack_memo", "backtrack_interval_memo")
# every filter of the one contract: (f, b) -> BoundResult, CallBudgetError
FILTERS = VARIANTS + ("bound_via_intersection",)


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
    for method in FILTERS:
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

    hit = bd.memo_lookup(f, 252)
    assert hit == (res.root, (245, 265))
    assert bd.memo_lookup(f, 245) == hit
    assert bd.memo_lookup(f, 264) == hit
    assert bd.memo_lookup(f, 265) is None
    assert bd.memo_lookup(f, 175) is None
    assert bd.memo_lookup(f, POS_INF) is None
    assert bd.memo_lookup(999999, 0) is None


def test_memo_lookup_open_end_covers_pos_inf():
    fo, f, bd = power_bounder(2, [1, 1])
    res = bd.backtrack_interval_memo(f, POS_INF)
    hit = bd.memo_lookup(f, POS_INF)
    assert hit == (f, (2, POS_INF))
    assert bd.backtrack_interval_memo(f, POS_INF).calls == 1
    assert res.root == f


def test_stored_intervals_enumeration():
    fo = Forest(2)
    f = fo.from_sets([(1,), (2,)])
    bd = Bounder(fo, [245, 265])
    # at 252 the {2} child would be cut (252 - 245 = 7 < 265); at 265 it
    # is expanded
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
        assert bd.memo_lookup(f, b) is None
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

    # lookups agree with a scan of the stored entries
    for node, entries in by_node.items():
        for b in (*bounds, -2, 1025):
            want = [(h, (aw, rb)) for aw, rb, h in entries
                    if aw <= b < rb or b == rb == POS_INF]
            assert [bd.memo_lookup(node, b)] == (want or [None]), (node, b)

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


def test_interval_calls_match_stored_entries():
    # a cold interval query stores one entry per expansion, and each
    # expansion makes two calls
    fo, f, costs, b = grid6_ham()
    bd = Bounder(fo, costs)
    res = bd.backtrack_interval_memo(f, b)
    assert res.calls == 1 + 2 * sum(1 for _ in bd.stored_intervals())


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
# randomized agreement with brute force


def brute_root(fo, members, costs, b):
    return fo.from_sets(filter_by_cost(members, costs, b))


def test_variants_match_brute_force():
    rng = random.Random(101)
    for _ in range(150):
        n = rng.randint(1, 8)
        members = random_family(rng, n)
        costs = [rng.randint(-50, 50) for _ in range(n)]
        pick = rng.random()
        if pick < 0.1:
            b = NEG_INF
        elif pick < 0.2:
            b = POS_INF
        else:
            b = rng.randint(-250, 250)
        fo = Forest(n)
        f = fo.from_sets(members)
        expect = brute_root(fo, members, costs, b)
        bd = Bounder(fo, costs)
        for method in FILTERS:
            assert getattr(bd, method)(f, b).root == expect


def test_interval_endpoints_match_brute_force():
    rng = random.Random(103)
    for _ in range(80):
        n = rng.randint(1, 8)
        members = random_family(rng, n)
        costs = [rng.randint(-30, 30) for _ in range(n)]
        b = rng.randint(-150, 150)
        fo = Forest(n)
        f = fo.from_sets(members)
        res = Bounder(fo, costs).backtrack_interval_memo(f, b)
        inside = [subset_cost(s, costs) for s in members if subset_cost(s, costs) <= b]
        outside = [subset_cost(s, costs) for s in members if subset_cost(s, costs) > b]
        assert res.accept_worst == (max(inside) if inside else NEG_INF)
        assert res.reject_best == (min(outside) if outside else POS_INF)
        assert res.accept_worst <= b < res.reject_best


def test_stored_intervals_sound_and_tight():
    rng = random.Random(107)
    for _ in range(40):
        n = rng.randint(1, 7)
        members = random_family(rng, n)
        costs = [rng.randint(-20, 20) for _ in range(n)]
        fo = Forest(n)
        f = fo.from_sets(members)
        bd = Bounder(fo, costs)
        for _q in range(3):
            bd.backtrack_interval_memo(f, rng.randint(-100, 100))
        spread = sum(abs(c) for c in costs) + 8
        oracle = Bounder(fo, costs)
        for node, aw, rb, h in list(bd.stored_intervals()):
            lo = aw if aw is not NEG_INF else (rb if rb is not POS_INF else 0) - spread
            hi = (rb - 1) if rb is not POS_INF else (aw if aw is not NEG_INF else 0) + spread
            probes = {lo, hi} | {rng.randint(lo, hi) for _ in range(8)}
            for b in probes:
                assert oracle.backtrack_naive(node, b).root == h
            if aw is not NEG_INF:
                assert oracle.backtrack_naive(node, aw - 1).root != h
            if rb is not POS_INF:
                assert oracle.backtrack_naive(node, rb).root != h


def test_results_nest_as_bound_grows():
    rng = random.Random(109)
    for _ in range(30):
        n = rng.randint(1, 7)
        members = random_family(rng, n)
        costs = [rng.randint(-20, 20) for _ in range(n)]
        fo = Forest(n)
        f = fo.from_sets(members)
        bd = Bounder(fo, costs)
        bounds = sorted(rng.randint(-80, 80) for _ in range(4))
        prev = ZERO
        prev_n = 0
        for b in [NEG_INF, *bounds, POS_INF]:
            h = bd.backtrack_interval_memo(f, b).root
            assert fo.union(prev, h) == h  # supersets as b grows
            cnt = fo.count(h)
            assert cnt >= prev_n
            prev, prev_n = h, cnt
        assert prev == f


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


def test_range_query_partitions_family():
    rng = random.Random(131)
    for _ in range(20):
        n = rng.randint(1, 7)
        members = random_family(rng, n)
        costs = [rng.randint(-20, 20) for _ in range(n)]
        fo = Forest(n)
        f = fo.from_sets(members)
        bd = Bounder(fo, costs)
        cut = rng.randint(-40, 40)
        below = bd.backtrack_interval_memo(f, cut).root
        above = bd.range_query(f, cut, POS_INF)
        assert fo.intersection(below, above) == ZERO
        assert fo.union(below, above) == f


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


def test_build_cost_constraint():
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


def test_constraint_size_grows_with_cost_spread():
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


def test_intersection_route_shares_constraint():
    fo, f, bd = power_bounder(4, [2, 3, 5, 8])
    a = bd.bound_via_intersection(f, 7)
    b = bd.backtrack_interval_memo(f, 7).root
    assert a.root == b
    # its calls are those of the cut of the power set, here f itself
    assert a.calls == power_bounder(4, [2, 3, 5, 8])[2].backtrack_interval_memo(f, 7).calls


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
    # one maximal cost alone is fine
    Bounder(fo, [INT64_MAX, 0])


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
    assert bd.memo_lookup(f, float("inf")) == (f, (15, POS_INF))
    lo = bd.backtrack_interval_memo(f, -float("inf"))
    assert lo.root == ZERO and lo.accept_worst is NEG_INF and lo.reject_best == 0
    for bad in (float("nan"), 7.0):
        with pytest.raises(TypeError):
            bd.backtrack_interval_memo(f, bad)


# ----------------------------------------------------------------------
# call budget


def test_call_budget_aborts_naive():
    # refused before its first call: calls is the exact need, the
    # counter does not move
    fo, f, bd = power_bounder(12, [1] * 12, call_limit=100)
    with pytest.raises(CallBudgetError) as exc:
        bd.backtrack_naive(f, 6)
    assert exc.value.limit == 100
    assert exc.value.calls == estimate_naive_calls(fo, f) == 2 ** 13 - 1
    assert bd.call_counter == 0
    assert "budget" in str(exc.value)


def test_call_budget_aborts_memo_variants():
    fo, f, bd = power_bounder(8, [1] * 8, call_limit=5)
    with pytest.raises(CallBudgetError):
        bd.backtrack_memo(f, 3)
    fo2, f2, bd2 = power_bounder(8, [1] * 8, call_limit=5)
    with pytest.raises(CallBudgetError):
        bd2.backtrack_interval_memo(f2, 3)


def test_call_limit_one_admits_no_expansion():
    fo = Forest(1)
    f = fo.from_sets([(1,)])
    for method in FILTERS:
        bd = Bounder(fo, [1], call_limit=1)
        with pytest.raises(CallBudgetError) as exc:
            getattr(bd, method)(f, 5)
        # naive is refused before its first call
        assert exc.value.calls == 3
        assert bd.call_counter == (0 if method == "backtrack_naive" else 3)
        # intersection always cuts the power set, whose root expands
        if method != "bound_via_intersection":
            assert getattr(bd, method)(ONE, 5).calls == 1


@st.composite
def budget_cases(draw):
    n = draw(st.integers(1, 8))
    masks = draw(st.lists(st.integers(0, (1 << n) - 1), max_size=16))
    members = {tuple(i + 1 for i in range(n) if m >> i & 1) for m in masks}
    costs = draw(st.lists(st.integers(-20, 20), min_size=n, max_size=n))
    b = draw(st.one_of(st.integers(-80, 80), st.sampled_from([NEG_INF, POS_INF])))
    return n, members, costs, b


@settings(max_examples=200, deadline=None)
@given(case=budget_cases(), method=st.sampled_from(FILTERS), data=st.data())
def test_call_limit_is_exact(case, method, data):
    # a query returns exactly when its cold call count fits the limit;
    # otherwise it aborts past the limit with the counter in step, or,
    # naive, is refused with its exact need and the counter untouched
    n, members, costs, b = case
    fo = Forest(n)
    f = fo.from_sets(members)
    cold = getattr(Bounder(fo, costs), method)(f, b)
    for limit in {data.draw(st.integers(1, cold.calls)), cold.calls, max(cold.calls - 1, 1)}:
        bd = Bounder(fo, costs, call_limit=limit)
        if cold.calls <= limit:
            res = getattr(bd, method)(f, b)
            assert res.root == cold.root and res.calls == cold.calls <= limit
        else:
            with pytest.raises(CallBudgetError) as exc:
                getattr(bd, method)(f, b)
            assert exc.value.calls > limit
            if method == "backtrack_naive":
                assert exc.value.calls == cold.calls and bd.call_counter == 0
            else:
                assert bd.call_counter == exc.value.calls


def test_call_budget_spares_memo_hits():
    fo, f, bd = power_bounder(6, [1] * 6)
    res = bd.backtrack_interval_memo(f, 3)
    tight = Bounder(fo, [1] * 6, call_limit=res.calls)
    tight.backtrack_interval_memo(f, 3)  # fits exactly
    # a repeat of the same query is one call, far under any limit
    assert tight.backtrack_interval_memo(f, 3).calls == 1


def test_naive_refusal_leaves_the_session_untouched():
    rng = random.Random(149)
    for _ in range(40):
        n = rng.randint(2, 8)
        members = random_family(rng, n)
        costs = [rng.randint(-15, 15) for _ in range(n)]
        fo = Forest(n)
        f = fo.from_sets(members)
        need = estimate_naive_calls(fo, f)
        bd, twin = Bounder(fo, costs), Bounder(fo, costs)
        b_memo, b_ival = rng.randint(-40, 40), rng.randint(-40, 40)
        for s in (bd, twin):
            s.backtrack_memo(f, b_memo)
            s.backtrack_interval_memo(f, b_ival)
        bd.call_limit = need - 1
        counter, flat, ival = bd.call_counter, dict(bd.flat_memo), copy.deepcopy(bd.interval_memo)
        with pytest.raises(CallBudgetError) as exc:
            bd.backtrack_naive(f, rng.randint(-40, 40))
        assert exc.value.calls == need
        assert (bd.call_counter, bd.flat_memo, bd.interval_memo) == (counter, flat, ival)
        # later queries run as on a session that never saw the refusal,
        # and give a fresh session's answers
        bd.call_limit = None
        for b in (rng.randint(-40, 40), NEG_INF, POS_INF):
            for method in FILTERS:
                got = getattr(bd, method)(f, b)
                assert got == getattr(twin, method)(f, b)
                assert got.root == getattr(Bounder(fo, costs), method)(f, b).root


@settings(max_examples=200, deadline=None)
@given(case=budget_cases())
def test_cheapest_member_costs_match_the_oracle(case):
    # the forward pass over ids agrees with the bottom-up oracle on every
    # id, also on the nodes a query created after the family
    n, members, costs, b = case
    fo = Forest(n)
    f = fo.from_sets(members)
    bd = Bounder(fo, costs)
    bd.backtrack_interval_memo(f, b)
    top = len(fo) + 1
    bd.backtrack_interval_memo(top, b)
    assert len(bd._least) == top + 1
    for u, least in enumerate(bd._least):
        assert least == fo.min_max_cost(u, costs)[0]
        assert least is POS_INF if u == ZERO else type(least) is int


@settings(max_examples=200, deadline=None)
@given(case=budget_cases())
def test_cold_query_stores_no_empty_window(case):
    # an entry [-inf, least) is what the cut answers, so a cold query
    # stores none, and a bound below the family's minimum is 1 call
    n, members, costs, b = case
    fo = Forest(n)
    f = fo.from_sets(members)
    bd = Bounder(fo, costs)
    bd.backtrack_interval_memo(f, b)
    assert [aw for _u, aw, _rb, _h in bd.stored_intervals() if aw is NEG_INF] == []
    mn = fo.min_max_cost(f, costs)[0]
    if mn is not POS_INF:
        for below in (NEG_INF, mn - 1):
            cut = Bounder(fo, costs).backtrack_interval_memo(f, below)
            assert cut == BoundResult(ZERO, NEG_INF, mn, 1)


@st.composite
def aborted_sessions(draw):
    masks = draw(st.lists(st.integers(0, 255), max_size=16))
    members = {tuple(i + 1 for i in range(8) if m >> i & 1) for m in masks}
    costs = draw(st.lists(st.integers(-20, 20), min_size=8, max_size=8))
    bounds = st.one_of(st.integers(-80, 80), st.sampled_from([NEG_INF, POS_INF]))
    return members, costs, draw(bounds), draw(st.lists(bounds, min_size=1, max_size=4))


@settings(max_examples=150, deadline=None)
@given(session=aborted_sessions(), data=st.data())
def test_bounder_after_budget_abort_answers_as_fresh(session, data):
    members, costs, b_abort, later = session
    fo = Forest(8)
    f = fo.from_sets(members)
    need = Bounder(fo, costs).backtrack_interval_memo(f, b_abort).calls
    if need < 2:
        return
    bd = Bounder(fo, costs, call_limit=data.draw(st.integers(1, need - 1)))
    with pytest.raises(CallBudgetError):
        bd.backtrack_interval_memo(f, b_abort)
    # entries land only after both sub-results are complete, so what the
    # aborted query stored is exactly what a fresh session derives
    for node, aw, rb, h in list(bd.stored_intervals()):
        fresh = Bounder(fo, costs).backtrack_interval_memo(node, aw)
        assert (fresh.root, fresh.accept_worst, fresh.reject_best) == (h, aw, rb)
    bd.call_limit = None
    for b in [b_abort, *later]:
        got = bd.backtrack_interval_memo(f, b)
        want = Bounder(fo, costs).backtrack_interval_memo(f, b)
        assert (got.root, got.accept_worst, got.reject_best) == (
            want.root, want.accept_worst, want.reject_best
        )
    fo.validate()


@st.composite
def min_max_sessions(draw):
    # a random 1-8 item family, the empty family or the unit family, plus
    # whether an aborted query and then which filters run before min_max
    n = draw(st.integers(1, 8))
    masks = st.lists(st.integers(0, (1 << n) - 1), max_size=16)
    members = draw(st.one_of(
        st.sampled_from([set(), {()}]),
        masks.map(lambda ms: {tuple(i + 1 for i in range(n) if m >> i & 1) for m in ms}),
    ))
    costs = draw(st.lists(st.integers(-20, 20), min_size=n, max_size=n))
    bounds = st.one_of(st.integers(-80, 80), st.sampled_from([NEG_INF, POS_INF]))
    prior = draw(st.lists(bounds, max_size=3))
    later = draw(st.lists(bounds, min_size=1, max_size=4))
    return n, members, costs, draw(st.booleans()), prior, later


@settings(max_examples=200, deadline=None)
@given(session=min_max_sessions(), data=st.data())
def test_min_max_from_the_memo_matches_the_oracle(session, data):
    n, members, costs, abort, prior, later = session
    fo = Forest(n)
    f = fo.from_sets(members)
    bd = Bounder(fo, costs)
    if abort:
        b = data.draw(st.integers(-80, 80))
        need = Bounder(fo, costs).backtrack_interval_memo(f, b).calls
        if need > 1:
            bd.call_limit = data.draw(st.integers(1, need - 1))
            with pytest.raises(CallBudgetError):
                bd.backtrack_interval_memo(f, b)
            bd.call_limit = None
    for b in prior:
        bd.backtrack_interval_memo(f, b)
    nodes = len(fo)
    want = fo.min_max_cost(f, costs)
    assert bd.min_cost(f) == want[0]
    assert bd.min_max(f) == want
    assert len(fo) == nodes
    for b in later:
        got = bd.backtrack_interval_memo(f, b)
        want = Bounder(fo, costs).backtrack_interval_memo(f, b)
        assert (got.root, got.accept_worst, got.reject_best) == (
            want.root, want.accept_worst, want.reject_best
        )


@st.composite
def wide_sessions(draw):
    # 8 items priced +-1, +-2, ..., +-128 in a drawn order, so every member
    # costs a different amount: querying every bound takes the root past
    # the width while deep nodes stay narrow
    perm = draw(st.permutations(range(8)))
    signs = draw(st.lists(st.sampled_from([1, -1]), min_size=8, max_size=8))
    costs = [s << p for s, p in zip(signs, perm)]
    dropped = draw(st.sets(st.integers(0, 255), max_size=40))
    members = {tuple(i + 1 for i in range(8) if m >> i & 1) for m in range(256) if m not in dropped}
    bounds = [*range(-256, 256), NEG_INF, POS_INF]
    draw(st.randoms(use_true_random=False)).shuffle(bounds)
    return members, costs, bounds


@settings(max_examples=30, deadline=None)
@given(session=wide_sessions(), data=st.data())
def test_wide_and_narrow_nodes_after_budget_abort_answer_as_fresh(session, data):
    members, costs, bounds = session
    fo = Forest(8)
    f = fo.from_sets(members)
    bd = Bounder(fo, costs)
    half = len(bounds) // 2
    for b in bounds[:half]:
        bd.backtrack_interval_memo(f, b)
    # abort the first later query that misses at the root and is not cut
    # there (a cut takes 1 call), part way through
    least = bd.min_cost(f)
    b_abort = next(b for b in bounds[half:] if b >= least and bd.memo_lookup(f, b) is None)
    need = copy.deepcopy(bd).backtrack_interval_memo(f, b_abort).calls
    bd.call_limit = data.draw(st.integers(1, need - 1))
    with pytest.raises(CallBudgetError):
        bd.backtrack_interval_memo(f, b_abort)
    bd.call_limit = None
    for b in bounds[half:]:
        assert same_answer(bd.backtrack_interval_memo(f, b), Bounder(fo, costs).backtrack_interval_memo(f, b))
    kinds = {type(node) for node in bd.interval_memo.values()}
    assert kinds == {list, _Wide}
    fo.validate()


def test_stats():
    fo, f, bd = power_bounder(3, [3, 5, 7])
    assert bd.stats() == {
        "calls": 0, "memo_nodes": 0, "memo_entries": 0, "widest_node": 0, "blocked_nodes": 0,
        "ranged_nodes": 0,
    }
    bd.backtrack_interval_memo(f, 8)  # 11 calls: 5 expansions over 3 nodes
    bd.backtrack_interval_memo(f, 8)
    # the cheapest-member pass covers the root's 3 ids, not the result's
    assert bd.stats() == {
        "calls": 12, "memo_nodes": 3, "memo_entries": 5, "widest_node": 2, "blocked_nodes": 0,
        "ranged_nodes": 3,
    }
    fo10, f10, wide = power_bounder(10, [1 << i for i in range(10)])
    for b in range(1024):
        wide.backtrack_interval_memo(f10, b)
    st10 = wide.stats()
    assert st10["memo_entries"] == sum(1 for _ in wide.stored_intervals())
    assert st10["widest_node"] == 1024 and st10["blocked_nodes"] >= 1
    assert st10["calls"] == 1024 + 2 * st10["memo_entries"]


def endpoint_domain_errors(aw, rb):
    errors = []
    if not (aw is NEG_INF or type(aw) is int):
        errors.append(f"accept_worst {aw!r}")
    if not (rb is POS_INF or type(rb) is int):
        errors.append(f"reject_best {rb!r}")
    return errors


def brute_endpoints(members, costs, b):
    inside = [subset_cost(s, costs) for s in members if subset_cost(s, costs) <= b]
    outside = [subset_cost(s, costs) for s in members if subset_cost(s, costs) > b]
    return max(inside, default=NEG_INF), min(outside, default=POS_INF)


@settings(max_examples=200, deadline=None)
@given(session=aborted_sessions(), data=st.data())
def test_interval_endpoints_stay_in_their_domains(session, data):
    # the expansion step compares endpoints only after testing the
    # sentinels by identity, which holds only while accept_worst is
    # NEG_INF or an int and reject_best an int or POS_INF: check it on a
    # fresh query, on warm ones, and on a Bounder that saw an abort
    members, costs, b_first, later = session
    fo = Forest(8)
    f = fo.from_sets(members)

    def check(bd, results):
        for b, res in results:
            assert endpoint_domain_errors(res.accept_worst, res.reject_best) == []
            assert (res.accept_worst, res.reject_best) == brute_endpoints(members, costs, b)
        for _node, aw, rb, _h in bd.stored_intervals():
            assert endpoint_domain_errors(aw, rb) == []

    warm = Bounder(fo, costs)
    fresh = warm.backtrack_interval_memo(f, b_first)
    check(warm, [(b_first, fresh)])
    check(warm, [(b, warm.backtrack_interval_memo(f, b)) for b in later])
    if fresh.calls < 2:
        return
    aborted = Bounder(fo, costs, call_limit=data.draw(st.integers(1, fresh.calls - 1)))
    with pytest.raises(CallBudgetError):
        aborted.backtrack_interval_memo(f, b_first)
    check(aborted, [])
    aborted.call_limit = None
    check(aborted, [(b, aborted.backtrack_interval_memo(f, b)) for b in [b_first, *later]])


def test_call_counter_accumulates():
    fo, f, bd = power_bounder(4, [1, 2, 3, 4])
    total = 0
    for b in (POS_INF, 3, 3, NEG_INF, 7):
        total += bd.backtrack_interval_memo(f, b).calls
    assert bd.call_counter == total


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
