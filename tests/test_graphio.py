import gc
import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from costzdd.bound import BoundResult
from costzdd.extint import NEG_INF, POS_INF
from costzdd.forest import ONE, ZERO, Forest
from costzdd.frontier import build_path_zdd, grid_graph
from costzdd.graphio import (
    ParseError,
    parse_graph,
    read_zdd,
    report_line,
    write_graph,
    write_zdd,
)

from helpers import random_family


# ----------------------------------------------------------------------
# graph documents


def test_parse_minimal_document():
    g, terminals = parse_graph(
        """c tiny example
        p path 3 2

        e 1 2 10
        c mid-file comment
        e 2 3 -4
        """
    )
    assert g.n_vertices == 3
    assert g.edges == [(1, 2, 10), (2, 3, -4)]
    assert terminals is None


def test_parse_terminals():
    _g, terminals = parse_graph("p path 3 1\nt 3 1\ne 1 2 0\n")
    assert terminals == (3, 1)


def test_parse_no_edges():
    g, _t = parse_graph("p path 2 0\n")
    assert g.n_vertices == 2 and g.edges == []


def test_graph_round_trip_is_byte_identical():
    g = grid_graph(2, 1000, 1999, seed=1)
    text = write_graph(g, 1, 9)
    g2, terminals = parse_graph(text)
    assert g2 == g
    assert terminals == (1, 9)
    assert write_graph(g2, *terminals) == text
    bare = write_graph(g)
    g3, none = parse_graph(bare)
    assert g3 == g and none is None
    assert write_graph(g3) == bare


def test_write_graph_terminals_come_together():
    g = grid_graph(1, 0, 0, seed=0)
    with pytest.raises(ValueError):
        write_graph(g, 1, None)
    with pytest.raises(ValueError):
        write_graph(g, None, 4)


@pytest.mark.parametrize(
    "text, pattern",
    [
        ("e 1 2 3\n", r"line 1: edge line before problem"),
        ("t 1 2\np path 2 1\ne 1 2 0\n", r"line 1: terminal line before problem"),
        ("p path 2 1\np path 2 1\ne 1 2 0\n", r"line 2: duplicate problem"),
        ("p route 2 1\ne 1 2 0\n", r"line 1: problem line must be"),
        ("p path 2\n", r"line 1: problem line must be"),
        ("p path 0 0\n", r"line 1: vertex count must be positive"),
        ("p path 2 -1\n", r"line 1: edge count must be nonnegative"),
        ("p path two 1\ne 1 2 0\n", r"line 1: vertex count must be an integer"),
        ("p path 2 1\nq 1 2\ne 1 2 0\n", r"line 2: unknown line type 'q'"),
        ("p path 2 1\ne 1 2\n", r"line 2: edge line must be"),
        ("p path 2 1\ne 1 2 x\n", r"line 2: cost must be an integer"),
        ("p path 2 1\ne 1 3 0\n", r"line 2: vertex 3 outside 1\.\.2"),
        ("p path 2 1\ne 1 1 0\n", r"line 2: self-loop at vertex 1"),
        ("p path 3 2\ne 1 2 0\ne 2 1 5\n", r"line 3: duplicate edge \(2, 1\)"),
        ("p path 2 1\ne 1 2 0\ne 1 2 1\n", r"line 3: duplicate edge"),
        ("p path 3 1\ne 1 2 0\ne 2 3 0\n", r"line 3: more edge lines than the declared 1"),
        ("p path 2 1\ne 1 2 9223372036854775808\n", r"line 2: cost .* 64-bit"),
        ("p path 2 1\nt 1 2\nt 2 1\ne 1 2 0\n", r"line 3: duplicate terminal"),
        ("p path 2 1\nt 1 1\ne 1 2 0\n", r"line 2: source equals target"),
        ("p path 2 1\nt 0 2\ne 1 2 0\n", r"line 2: terminal 0 outside"),
        ("p path 2 1\nt 1\ne 1 2 0\n", r"line 2: terminal line must be"),
    ],
)
def test_parse_graph_errors(text, pattern):
    with pytest.raises(ParseError, match=pattern):
        parse_graph(text)


def test_parse_graph_document_level_errors():
    with pytest.raises(ParseError, match=r"missing problem line"):
        parse_graph("c nothing here\n")
    with pytest.raises(ParseError, match=r"expected 2 edge lines, found 1"):
        parse_graph("p path 3 2\ne 1 2 0\n")


# ----------------------------------------------------------------------
# diagram documents


def test_zdd_round_trip_random_families():
    rng = random.Random(31)
    for _ in range(30):
        n = rng.randint(0, 7)
        members = random_family(rng, n)
        fo = Forest(n)
        f = fo.from_sets(members)
        text = write_zdd(fo, f)
        assert text.splitlines()[0] == f"zdd {n} {fo.node_count(f)} " + text.split()[3]
        fresh = Forest(n)
        g = read_zdd(fresh, text)
        assert set(fresh.enumerate_sets(g, 10_000)) == members
        assert write_zdd(fresh, g) == text


def test_zdd_terminal_roots():
    fo = Forest(3)
    assert write_zdd(fo, ZERO) == "zdd 3 0 0\n"
    assert write_zdd(fo, ONE) == "zdd 3 0 1\n"
    assert read_zdd(Forest(3), "zdd 3 0 0\n") == ZERO
    assert read_zdd(Forest(3), "zdd 3 0 1\n") == ONE


def test_zdd_writer_is_order_independent():
    # two forests that built the same family along different routes emit
    # identical bytes
    a = Forest(4)
    left = a.from_sets([(1, 2), (3,), (2, 4)])
    b = Forest(4)
    b.from_itemset((4,))  # unrelated warm-up node, shifts raw ids
    right = b.from_sets([(2, 4), (1, 2), (3,)])
    assert write_zdd(a, left) == write_zdd(b, right)


def test_read_zdd_allocates_no_tracked_object_per_node():
    # a cold load creates no object per node that the cyclic garbage
    # collector must track
    g = grid_graph(6, 1000, 1999, seed=1)
    src = Forest(len(g.edges))
    text = write_zdd(src, build_path_zdd(src, g, 1, 49, "hamiltonian"))
    enabled = gc.isenabled()
    gc.disable()
    try:
        fo = Forest(len(g.edges))
        before = gc.get_count()[0]
        read_zdd(fo, text)
        added = gc.get_count()[0] - before
    finally:
        if enabled:
            gc.enable()
    assert len(fo) > 3000
    assert added < 100


def test_read_zdd_rebuilds_through_make_node():
    fo = Forest(2)
    root = read_zdd(fo, "zdd 2 2 3\n2 2 0 1\n3 1 2 2\n")
    assert set(fo.enumerate_sets(root, 10)) == {(2,), (1, 2)}
    # a hi = 0 line collapses on load; the family survives either way
    squashed = read_zdd(Forest(2), "zdd 2 1 2\n2 1 1 0\n")
    assert squashed == ONE


@pytest.mark.parametrize(
    "text, pattern",
    [
        ("", r"empty diagram"),
        ("zdd 2 0\n", r"line 1: header"),
        ("bdd 2 0 1\n", r"line 1: header"),
        ("zdd x 0 1\n", r"line 1: item count"),
        ("zdd 3 0 1\n", r"line 1: diagram has 3 items, forest has 2"),
        ("zdd 2 1 2\n2 1 0\n", r"line 2: node line"),
        ("zdd 2 1 2\n1 1 0 1\n", r"line 2: node id 1 collides"),
        ("zdd 2 2 3\n2 2 0 1\n2 1 2 2\n", r"line 3: node id 2 defined twice"),
        ("zdd 2 1 2\n2 1 3 1\n", r"line 2: lo child 3 not defined"),
        ("zdd 2 1 2\n2 1 0 9\n", r"line 2: hi child 9 not defined"),
        ("zdd 2 1 2\n2 9 0 1\n", r"line 2: item index 9 outside"),
        ("zdd 2 2 3\n2 1 0 1\n3 2 0 2\n", r"line 3: ordering violation"),
        ("zdd 2 2 2\n2 1 0 1\n", r"header declares 2 nodes, found 1"),
        ("zdd 2 1 4\n2 1 0 1\n", r"root id 4 never defined"),
        # only the writer's layout is read
        ("zdd 2 1 2\nc note\n2 1 0 1\n", r"line 2: node line must be"),
        ("zdd 2 1 2\n\n2 1 0 1\n", r"line 2: node line must be"),
        ("zdd 2 1 2\n2 1\n0 1\n", r"line 2: node line must be"),
        ("zdd 2 1 2\n2  1 0 1\n", r"line 2: node line must be"),
        ("zdd 2 1 2\n2 1 0 +1\n", r"line 2: node line must be"),
        ("zdd 2 1 2\n2 1 0 1\r\n", r"line 2: node line must be"),
        ("zdd 2 0 1\r\n", r"line 1: header must be"),
        ("zdd 2 2 7\n2 2 0 1\n7 1 0 2\n", r"line 3: node id 7 out of order, expected 3"),
        ("zdd 2 2 4\n2 2 0 1\n4 1 0 2\n", r"line 3: node id 4 out of order, expected 3"),
        ("zdd 2 1 -1\n2 1 0 1\n", r"root id -1 never defined"),
        ("zdd 2 1000000000000000 2\n2 1 0 1\n", r"header declares 1000000000000000 nodes, found 1"),
        pytest.param(
            "zdd 2 1 2\n2 1 0 " + "1" * 5000 + "\n",
            r"line 2: hi child has 5000 digits, over the limit",
            id="long_field",
        ),
        ("zdd 2 1 2\n2 1 0 01\n", r"line 2: node line must be"),
        ("zdd 02 1 2\n2 1 0 1\n", r"line 1: item count must be plain decimal"),
        ("zdd +2 1 +2\n2 1 0 1\n", r"line 1: item count must be plain decimal"),
        ("zdd 2 1 0_2\n2 1 0 1\n", r"line 1: root id must be plain decimal"),
    ],
)
def test_read_zdd_errors(text, pattern):
    with pytest.raises(ParseError, match=pattern):
        read_zdd(Forest(2), text)


def test_read_zdd_accepts_a_missing_final_newline():
    fo = Forest(2)
    root = read_zdd(fo, "zdd 2 1 2\n2 1 0 1")
    assert set(fo.enumerate_sets(root, 10)) == {(1,)}
    assert read_zdd(Forest(2), "zdd 2 0 1") == ONE


def test_read_zdd_bad_line_cases():
    # the third node line's child is undefined: the nodes of the two lines
    # before it stay in the forest
    fo = Forest(2)
    with pytest.raises(ParseError, match=r"line 4: lo child 9 not defined"):
        read_zdd(fo, "zdd 2 3 4\n2 2 0 1\n3 1 0 2\n4 1 9 3\n")
    assert len(fo) == 2
    # an empty field keeps three separators on its line but shifts every
    # later field; here the root would still resolve without the check
    with pytest.raises(ParseError, match=r"line 3: node line must be"):
        read_zdd(Forest(2), "zdd 2 2 2\n2 1 0 1\n3  1 2\n")


# The reader takes writer output and nothing else: each mutation below that
# changes a writer document must be refused.

MUTATIONS = (
    "none", "comment", "blank", "split", "repeat_id", "sparse_ids",
    "forward_ref", "non_integer", "header_count", "crlf", "leading_zero",
    "long_field",
)


DOC_ITEMS = 6


@st.composite
def diagram_texts(draw):
    masks = draw(st.lists(st.integers(0, 2**DOC_ITEMS - 1), max_size=12))
    sets = {tuple(i + 1 for i in range(DOC_ITEMS) if m >> i & 1) for m in masks}
    fo = Forest(DOC_ITEMS)
    return write_zdd(fo, fo.from_sets(sets))


def mutate(draw, text, kind):
    lines = text.splitlines()
    nodes = len(lines) - 1

    def pick(lo, hi):
        return draw(st.integers(lo, hi))

    def edit(i, j, value):
        fields = lines[i].split()
        fields[j] = value
        lines[i] = " ".join(fields)

    if kind == "comment":
        lines.insert(pick(1, len(lines)), "c note")
    elif kind == "blank":
        lines.insert(pick(1, len(lines)), draw(st.sampled_from(["", "  "])))
    elif kind == "header_count":
        edit(0, 2, str(nodes + draw(st.sampled_from([-1, 1]))))
    elif kind == "crlf":
        return "\r\n".join(lines) + "\r\n"
    elif kind == "split" and nodes >= 2:
        i = pick(1, nodes - 1)
        fields = f"{lines[i]} {lines[i + 1]}".split()
        lines[i : i + 2] = [" ".join(fields[:3]), " ".join(fields[3:])]
    elif kind == "repeat_id" and nodes >= 2:
        i = pick(2, nodes)
        edit(i, 0, lines[pick(1, i - 1)].split()[0])
    elif kind == "sparse_ids" and nodes >= 1:
        gap = pick(1, 5)
        for i in range(nodes + 1):
            fields = lines[i].split()
            for j in ((3,) if i == 0 else (0, 2, 3)):
                x = int(fields[j])
                fields[j] = str(x if x < 2 else 2 + (x - 2) * (gap + 1))
            lines[i] = " ".join(fields)
    elif kind == "forward_ref" and nodes >= 1:
        i = pick(1, nodes)
        edit(i, pick(2, 3), str(int(lines[i].split()[0]) + pick(0, 2)))
    elif kind == "non_integer" and nodes >= 1:
        edit(pick(1, nodes), pick(0, 3), draw(st.sampled_from(["x", "1.5", "2e3", "0x2", ""])))
    elif kind == "leading_zero" and nodes >= 1:
        i, j = pick(1, nodes), pick(0, 3)
        edit(i, j, "0" * pick(1, 2) + lines[i].split()[j])
    elif kind == "long_field" and nodes >= 1:
        edit(pick(1, nodes), pick(0, 3), "1" * pick(4301, 5000))
    return "\n".join(lines) + "\n"


@settings(max_examples=300, deadline=None)
@given(doc=diagram_texts(), kind=st.sampled_from(MUTATIONS), data=st.data())
def test_read_zdd_accepts_only_writer_output(doc, kind, data):
    text = mutate(data.draw, doc, kind)
    fo = Forest(DOC_ITEMS)
    if text == doc:
        root = read_zdd(fo, text)
        assert write_zdd(fo, root) == doc  # the same family
        assert len(fo) == int(doc.split()[2])
        return
    # a wrong node count is a document fault; every other one is on a line
    pattern = r"header declares" if kind == "header_count" else r"line \d+: "
    with pytest.raises(ParseError, match=pattern):
        read_zdd(fo, text)


# ----------------------------------------------------------------------
# report rows


def test_report_line_shape():
    res = BoundResult(root=ONE, accept_worst=12868, reject_best=12870, calls=1234)
    line = report_line(
        bound=12868,
        ratio=1.10004,
        res=res,
        solutions=2**64,
        zdd_size=48,
        time_ms=1.23456,
        method="interval",
    )
    assert json.loads(line) == {
        "bound": 12868,
        "ratio": 1.1,
        "solutions": "18446744073709551616",
        "zdd_size": 48,
        "calls": 1234,
        "time_ms": 1.235,
        "method": "interval",
        "accept_worst": 12868,
        "reject_best": 12870,
    }
    # fixed key order, counts quoted
    assert line.startswith('{"bound": 12868, "ratio": 1.1, "solutions": "')


def test_report_line_infinities_and_nulls():
    res = BoundResult(root=ZERO, accept_worst=None, reject_best=POS_INF, calls=7)
    got = json.loads(report_line(NEG_INF, None, res, 0, 0, 0.0, "naive"))
    assert got["bound"] == "-inf"
    assert got["ratio"] is None
    assert got["accept_worst"] is None
    assert got["reject_best"] == "+inf"
