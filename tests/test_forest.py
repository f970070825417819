import gc
import random
import sys

import pytest
from hypothesis import given, settings, strategies as st

from costzdd.bound import Bounder
from costzdd.extint import NEG_INF, POS_INF
from costzdd.forest import ONE, ZERO, CapacityError, Forest

from helpers import all_subsets, random_family, subset_cost


def build(n, members):
    fo = Forest(n)
    return fo, fo.from_sets(members)


def family_of(fo, f):
    return set(fo.enumerate_sets(f, 1 << 20))


# ----------------------------------------------------------------------
# node construction


def test_terminal_handles():
    fo = Forest(3)
    assert ZERO == 0 and ONE == 1
    assert len(fo) == 0
    assert fo.count(ZERO) == 0
    assert fo.count(ONE) == 1
    assert fo._var[ZERO] == fo._var[ONE] == 4  # sentinel above every item


def test_zero_suppression():
    fo = Forest(3)
    assert fo.make_node(2, ONE, ZERO) == ONE
    assert fo.make_node(1, ZERO, ZERO) == ZERO
    assert len(fo) == 0


def test_unique_table_shares_nodes():
    fo = Forest(3)
    a = fo.make_node(3, ZERO, ONE)
    b = fo.make_node(3, ZERO, ONE)
    assert a == b
    assert len(fo) == 1


def test_make_node_rejects_bad_var():
    fo = Forest(3)
    with pytest.raises(ValueError):
        fo.make_node(0, ZERO, ONE)
    with pytest.raises(ValueError):
        fo.make_node(4, ZERO, ONE)


def test_make_node_rejects_ordering_violation():
    fo = Forest(3)
    u = fo.make_node(2, ZERO, ONE)
    with pytest.raises(ValueError):
        fo.make_node(2, u, ONE)
    with pytest.raises(ValueError):
        fo.make_node(3, u, ONE)


def test_make_node_rejects_a_negative_child():
    fo = Forest(3)
    with pytest.raises(ValueError, match="invalid node handle -1"):
        fo.make_node(2, -1, ONE)
    with pytest.raises(ValueError, match="invalid node handle -1"):
        fo.make_node(2, ONE, -1)
    assert len(fo) == 0
    fo.validate()


def test_make_node_zero_suppress_rejects_an_invalid_lo():
    # hi == ZERO returns lo itself, so lo must name a node of this forest
    fo = Forest(3)
    for lo in (-1, 2):  # 2 is one past the last id of an empty forest
        with pytest.raises(ValueError, match=f"invalid node handle {lo}"):
            fo.make_node(2, lo, ZERO)
    assert len(fo) == 0
    fo.validate()


def test_node_accessor():
    fo = Forest(3)
    u = fo.make_node(1, ZERO, ONE)
    assert fo.node(u) == (1, ZERO, ONE)
    with pytest.raises(ValueError, match="is a terminal"):
        fo.node(ONE)
    # a negative id or one past the last is no handle, not a list index
    fo.power_set()
    for bad in (-1, len(fo) + 2):
        with pytest.raises(ValueError, match=f"invalid node handle {bad}"):
            fo.node(bad)


def test_capacity_error():
    fo = Forest(8, max_nodes=3)
    fo.make_node(8, ZERO, ONE)
    fo.make_node(7, ZERO, ONE)
    fo.make_node(6, ZERO, ONE)
    with pytest.raises(CapacityError):
        fo.make_node(5, ZERO, ONE)


def test_max_nodes_keeps_every_id_below_2_to_the_32():
    # the unique table packs child ids into 32-bit fields, and ids run up
    # to max_nodes + 1
    assert Forest(3).max_nodes == 2**32 - 2
    assert Forest(3, max_nodes=2**32 - 2).max_nodes == 2**32 - 2
    with pytest.raises(ValueError, match="max_nodes"):
        Forest(3, max_nodes=2**32 - 1)


def test_validate_catches_a_duplicate_node():
    fo, f = build(3, [(1, 2), (3,)])
    fo.validate()
    fo._var.append(fo._var[f])
    fo._lo.append(fo._lo[f])
    fo._hi.append(fo._hi[f])
    with pytest.raises(AssertionError, match="duplicates"):
        fo.validate()


def test_validate_catches_a_forward_child():
    # node 2 is made to point at the later node 3 through lo, with its
    # unique key and count kept in step, so only the id order is wrong
    fo = Forest(3)
    a = fo.make_node(2, ZERO, ONE)
    b = fo.make_node(3, ZERO, ONE)
    fo.validate()
    assert (a, b) == (2, 3)
    del fo._unique[(2 << 32 | ZERO) << 32 | ONE]
    fo._unique[(2 << 32 | b) << 32 | ONE] = a
    fo._lo[a] = b
    fo._count[a] = fo._count[b] + 1
    with pytest.raises(AssertionError, match="later id"):
        fo.validate()


def test_validate_catches_a_stale_unique_entry():
    fo, f = build(3, [(1, 2), (3,)])
    fo._unique[(1 << 32 | ZERO) << 32 | ONE] = len(fo._var)
    with pytest.raises(AssertionError, match="out of sync"):
        fo.validate()


def test_validate_catches_a_wrong_count():
    fo, f = build(3, [(1, 2), (3,)])
    fo.validate()
    fo._count[f] += 1
    with pytest.raises(AssertionError, match="wrong member count"):
        fo.validate()


def test_validate_catches_a_missing_count():
    fo, _f = build(3, [(1, 2), (3,)])
    fo._count.pop()
    with pytest.raises(AssertionError, match="out of step"):
        fo.validate()


def test_invalid_handle_rejected():
    fo = Forest(2)
    with pytest.raises(ValueError):
        fo.count(99)
    with pytest.raises(ValueError):
        fo.union(ONE, -1)


# ----------------------------------------------------------------------
# construction helpers and membership


def test_power_set_is_a_chain():
    fo = Forest(5)
    f = fo.power_set()
    assert fo.count(f) == 32
    assert fo.node_count(f) == 5
    for s in all_subsets(5):
        assert fo.contains(f, s)


def test_power_set_of_zero_items():
    fo = Forest(0)
    assert fo.power_set() == ONE


def test_from_itemset():
    fo = Forest(4)
    f = fo.from_itemset([3, 1])
    assert fo.count(f) == 1
    assert fo.contains(f, (1, 3))
    assert not fo.contains(f, (1,))
    assert not fo.contains(f, ())
    assert fo.from_itemset([]) == ONE
    with pytest.raises(ValueError):
        fo.from_itemset([5])


def test_contains_matches_membership_exactly():
    rng = random.Random(7)
    for _ in range(25):
        n = rng.randint(0, 6)
        members = random_family(rng, n)
        fo, f = build(n, members)
        for s in all_subsets(n):
            assert fo.contains(f, s) == (s in members)


def test_contains_rejects_unsorted_input():
    fo = Forest(3)
    f = fo.power_set()
    with pytest.raises(ValueError):
        fo.contains(f, (2, 1))
    with pytest.raises(ValueError):
        fo.contains(f, (1, 1))
    with pytest.raises(ValueError):
        fo.contains(f, (1, 9))


def test_from_sets_order_invariant():
    # Canonicity: one family, one node id, however it was built.
    fo = Forest(5)
    members = [(1, 3), (2,), (), (1, 2, 5), (4,)]
    a = fo.from_sets(members)
    b = fo.from_sets(reversed(members))
    c = fo.from_sets(members + [(2,), ()])
    assert a == b == c


# ----------------------------------------------------------------------
# enumeration and counting


def test_enumerate_lexicographic():
    rng = random.Random(11)
    for _ in range(30):
        n = rng.randint(0, 7)
        members = random_family(rng, n)
        fo, f = build(n, members)
        got = list(fo.enumerate_sets(f, 10_000))
        assert got == sorted(members)
        assert fo.count(f) == len(members)


def test_enumerate_limit_refusal():
    fo = Forest(10)
    f = fo.power_set()
    with pytest.raises(ValueError):
        fo.enumerate_sets(f, 1023)
    assert len(list(fo.enumerate_sets(f, 1024))) == 1024


def test_enumerate_does_not_recurse():
    # one 3000-item set: a walk with a frame per item would need a deeper
    # stack than the lowered limit allows
    fo = Forest(3000)
    f = fo.from_itemset(range(1, 3001))
    before = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        got = list(fo.enumerate_sets(f, 1))
    finally:
        sys.setrecursionlimit(before)
    assert got == [tuple(range(1, 3001))]


def test_enumerate_long_member_once():
    # each member tuple is built once, not by copying a growing prefix per
    # item, so a 10**5-item member takes linear time
    n = 10**5
    fo = Forest(n)
    f = fo.from_itemset(range(1, n + 1))
    assert list(fo.enumerate_sets(f, 1)) == [tuple(range(1, n + 1))]


def test_count_is_exact_bignum():
    fo = Forest(200)
    f = fo.power_set()
    assert fo.count(f) == 2**200


def test_forest_never_changes_the_recursion_limit():
    # no item count needs a deeper stack, so the limit never changes
    before = sys.getrecursionlimit()
    try:
        Forest(8)
        Forest(220)
        Forest(3000)
        Forest(10**6)
        assert sys.getrecursionlimit() == before
    finally:
        sys.setrecursionlimit(before)


def test_deep_forest_filters_under_the_unchanged_recursion_limit():
    # a 3000-item filter runs whatever the limit is; the limit itself is
    # left unchanged, since no walk takes a frame per item
    before = sys.getrecursionlimit()
    try:
        fo = Forest(3000)
        f = fo.power_set()
        res = Bounder(fo, [1] * 3000).backtrack_interval_memo(f, POS_INF)
        assert res.root == f and res.calls == 6001
        assert sys.getrecursionlimit() == before
    finally:
        sys.setrecursionlimit(before)


def test_filters_and_set_algebra_do_not_recurse():
    # 10**5-item chains: a walk with a frame per item would need a far
    # deeper stack than the lowered limit allows
    n = 10**5
    fo = Forest(n)
    a = fo.from_itemset(range(1, n + 1))
    b = fo.from_itemset(range(1, n))
    bd = Bounder(fo, [1] * n)
    before = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        for run in (
            bd.backtrack_naive, bd.backtrack_memo, bd.backtrack_interval_memo,
            bd.bound_via_intersection,
        ):
            assert run(a, POS_INF).root == a
            assert run(a, NEG_INF).root == ZERO
        both = fo.union(a, b)
        assert fo.count(both) == 2 and fo.contains(both, range(1, n + 1))
        assert fo.contains(both, range(1, n))
        assert fo.intersection(a, b) == ZERO
        assert fo.intersection(both, b) == b
        assert fo.difference(a, b) == a and fo.difference(both, a) == b
    finally:
        sys.setrecursionlimit(before)


# ----------------------------------------------------------------------
# set algebra

_small_family = st.sets(
    st.sets(st.integers(1, 5), max_size=5).map(lambda s: tuple(sorted(s))),
    max_size=10,
)


@settings(max_examples=200, deadline=None)
@given(_small_family, _small_family)
def test_algebra_matches_set_semantics(xs, ys):
    fo = Forest(5)
    f, g = fo.from_sets(xs), fo.from_sets(ys)
    assert family_of(fo, fo.union(f, g)) == xs | ys
    assert family_of(fo, fo.intersection(f, g)) == xs & ys
    assert family_of(fo, fo.difference(f, g)) == xs - ys
    fo.validate()


@settings(max_examples=100, deadline=None)
@given(_small_family, _small_family)
def test_inclusion_exclusion(xs, ys):
    fo = Forest(5)
    f, g = fo.from_sets(xs), fo.from_sets(ys)
    u = fo.count(fo.union(f, g))
    i = fo.count(fo.intersection(f, g))
    assert u + i == fo.count(f) + fo.count(g)


def test_algebra_identities():
    fo, f = build(4, {(1,), (2, 4), ()})
    assert fo.union(f, ZERO) == f
    assert fo.union(f, f) == f
    assert fo.intersection(f, ZERO) == ZERO
    assert fo.intersection(f, f) == f
    assert fo.difference(f, ZERO) == f
    assert fo.difference(f, f) == ZERO
    assert fo.difference(ZERO, f) == ZERO


def test_op_cache_allocates_no_tracked_object_per_entry():
    # cached set operations create no key object that the cyclic garbage
    # collector must track
    rng = random.Random(7)
    fo = Forest(16)
    singles = [fo.from_itemset(rng.sample(range(1, 17), 5)) for _ in range(300)]
    enabled = gc.isenabled()
    gc.disable()
    try:
        before = gc.get_count()[0]
        u = ZERO
        for f in singles:
            u = fo.union(u, f)
        added = gc.get_count()[0] - before
    finally:
        if enabled:
            gc.enable()
    assert len(fo._op_cache) > 1000
    assert added < 100


# ----------------------------------------------------------------------
# structural queries


def test_reachable_children_first():
    rng = random.Random(3)
    fo = Forest(6)
    roots = [fo.from_sets(random_family(rng, 6)) for _ in range(10)]
    f = roots[0]
    for g in roots[1:]:
        f = fo.union(f, g)
    order = fo.reachable(f)
    assert len(order) == len(set(order)) == fo.node_count(f)
    pos = {u: i for i, u in enumerate(order)}
    for u in order:
        _v, lo, hi = fo.node(u)
        for child in (lo, hi):
            if child > ONE:
                assert pos[child] < pos[u]


def test_node_count_of_terminals():
    fo = Forest(3)
    assert fo.node_count(ZERO) == 0
    assert fo.node_count(ONE) == 0


def test_node_count_matches_reachable():
    # node_count walks a seen-set only; reachable's order must hold the same nodes
    rng = random.Random(5)
    fo = Forest(7)
    for _ in range(60):
        f = fo.from_sets(random_family(rng, 7))
        assert fo.node_count(f) == len(fo.reachable(f))
    with pytest.raises(ValueError):
        fo.node_count(-1)


# ----------------------------------------------------------------------
# cost extremes


def test_min_max_cost_brute():
    rng = random.Random(19)
    for _ in range(40):
        n = rng.randint(0, 6)
        members = random_family(rng, n)
        costs = [rng.randint(-50, 50) for _ in range(n)]
        fo, f = build(n, members)
        got = fo.min_max_cost(f, costs)
        if not members:
            assert got == (POS_INF, NEG_INF)
        else:
            totals = [subset_cost(s, costs) for s in members]
            assert got == (min(totals), max(totals))


def test_min_max_cost_unit_family():
    fo = Forest(2)
    assert fo.min_max_cost(ONE, [5, 7]) == (0, 0)


def test_min_max_cost_shared_cache():
    fo, f = build(3, {(1,), (1, 3)})
    g = fo.from_sets({(2,)})
    cache = {}
    assert fo.min_max_cost(f, [4, -2, 9], cache) == (4, 13)
    assert fo.min_max_cost(g, [4, -2, 9], cache) == (-2, -2)


def test_min_max_cost_length_check():
    fo = Forest(3)
    with pytest.raises(ValueError):
        fo.min_max_cost(ONE, [1, 2])


# ----------------------------------------------------------------------
# sampling


def test_sample_members_and_determinism():
    rng = random.Random(23)
    members = random_family(rng, 7, max_members=20) | {(1, 2)}
    fo, f = build(7, members)
    a = fo.sample(f, 50, seed=5)
    b = fo.sample(f, 50, seed=5)
    assert a == b
    assert fo.sample(f, 50, seed=6) != a
    for s in a:
        assert s in members


def test_sample_empty_family_rejected():
    fo = Forest(2)
    with pytest.raises(ValueError):
        fo.sample(ZERO, 1, seed=0)
    with pytest.raises(ValueError):
        fo.sample(ONE, -1, seed=0)
    assert fo.sample(ONE, 3, seed=0) == [(), (), ()]


def test_sample_uniformity_five_sigma():
    # 80000 draws over 8 equally likely members; per-member sd is
    # sqrt(80000 * (1/8) * (7/8)) ~ 93.5, so 468 is the 5-sigma band.
    fo = Forest(3)
    f = fo.power_set()
    draws = fo.sample(f, 80_000, seed=42)
    freq = {}
    for s in draws:
        freq[s] = freq.get(s, 0) + 1
    assert len(freq) == 8
    for got in freq.values():
        assert abs(got - 10_000) <= 468
