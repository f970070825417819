"""Member counts are a node field: every path that creates nodes keeps it exact.

Each check compares ``count(u)`` for every node of the forest, terminals
included, against a brute-force count that walks every root-to-ONE path
one at a time (each such path is one member), and runs ``validate()``.
The filters' results are checked the same way by the session machine in
``test_session.py``.
"""

import pytest
from hypothesis import given, settings, strategies as st

from costzdd.bound import Bounder
from costzdd.forest import ONE, ZERO, CapacityError, Forest
from costzdd.frontier import build_path_zdd, grid_graph
from costzdd.graphio import ParseError, read_zdd, write_zdd

N = 5

_family = st.sets(
    st.sets(st.integers(1, N), max_size=N).map(lambda s: tuple(sorted(s))),
    max_size=10,
)


def brute_count(fo, u):
    members = 0
    stack = [u]
    while stack:
        w = stack.pop()
        if w == ONE:
            members += 1
        elif w != ZERO:
            _var, lo, hi = fo.node(w)
            stack += (lo, hi)
    return members


def check_counts(fo):
    fo.validate()
    assert len(fo._count) == len(fo._var)
    for u in range(len(fo._var)):
        assert fo.count(u) == brute_count(fo, u)


@settings(max_examples=100, deadline=None)
@given(_family, _family)
def test_counts_after_set_algebra(xs, ys):
    fo = Forest(N)
    f = fo.from_sets(xs)
    check_counts(fo)
    g = fo.from_sets(ys)
    check_counts(fo)
    assert (fo.count(f), fo.count(g)) == (len(xs), len(ys))
    assert fo.count(fo.power_set()) == 2**N
    check_counts(fo)
    for op, want in (
        (fo.union, xs | ys),
        (fo.intersection, xs & ys),
        (fo.difference, xs - ys),
    ):
        assert fo.count(op(f, g)) == len(want)
        check_counts(fo)


@pytest.mark.parametrize("kind, members", [("simple", 12), ("hamiltonian", 2)])
def test_counts_after_build_path_zdd(kind, members):
    g = grid_graph(2, 1, 9, seed=1)
    fo = Forest(len(g.edges))
    assert fo.count(build_path_zdd(fo, g, 1, 9, kind)) == members
    check_counts(fo)


@settings(max_examples=100, deadline=None)
@given(_family, _family)
def test_counts_after_read_zdd(xs, ys):
    src = Forest(N)
    f = src.from_sets(xs)
    text = write_zdd(src, f)
    fresh = Forest(N)
    fresh.from_sets(ys)
    assert fresh.count(read_zdd(fresh, text)) == len(xs)
    check_counts(fresh)
    # a reload into the forest that holds the family creates no node
    size = len(src)
    assert read_zdd(src, text) == f
    assert len(src) == size
    check_counts(src)


def test_counts_after_a_collapsed_row():
    fo = Forest(2)
    root = read_zdd(fo, "zdd 2 2 3\n2 2 0 1\n3 1 2 0\n")
    assert len(fo) == 1 and fo.count(root) == 1
    check_counts(fo)


@pytest.mark.parametrize(
    "text, pattern",
    [
        ("zdd 2 3 4\n2 2 0 1\n3 1 0 2\n4 1 9 3\n", r"line 4: lo child 9"),
        ("zdd 2 3 4\n2 2 0 1\n3 1 0 2\n4 2 1 3\n", r"line 4: ordering violation"),
    ],
)
def test_counts_after_a_partial_load(text, pattern):
    fo = Forest(2)
    with pytest.raises(ParseError, match=pattern):
        read_zdd(fo, text)
    assert len(fo) == 2
    check_counts(fo)


# ----------------------------------------------------------------------
# a CapacityError leaves the store in step


def grid_family():
    g = grid_graph(2, 1, 9, seed=1)
    fo = Forest(len(g.edges))
    return fo, build_path_zdd(fo, g, 1, 9, "simple"), [c for _u, _v, c in g.edges]


def test_capacity_error_mid_filter_keeps_counts_in_step():
    ref, f_ref, costs = grid_family()
    size = len(ref)
    want = ref.count(Bounder(ref, costs).backtrack_interval_memo(f_ref, 25).root)
    created = len(ref) - size
    assert created > 2

    fo, f, _costs = grid_family()
    fo.max_nodes = size + created // 2
    bd = Bounder(fo, costs)
    with pytest.raises(CapacityError):
        bd.backtrack_interval_memo(f, 25)
    assert len(fo) == fo.max_nodes
    check_counts(fo)
    # with room again, the same Bounder answers as the fresh forest did
    fo.max_nodes = size + created
    assert fo.count(bd.backtrack_interval_memo(f, 25).root) == want
    check_counts(fo)


def test_capacity_error_mid_read_keeps_counts_in_step():
    src, f, _costs = grid_family()
    text = write_zdd(src, f)
    size = src.node_count(f)
    fo = Forest(src.n_items, max_nodes=size // 2)
    with pytest.raises(CapacityError):
        read_zdd(fo, text)
    assert len(fo) == fo.max_nodes
    check_counts(fo)
    fo.max_nodes = size
    assert fo.count(read_zdd(fo, text)) == src.count(f) == 12
    check_counts(fo)
