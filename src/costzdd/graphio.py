"""Line-oriented text formats: graphs, diagrams, run reports.

Graph files are a small DIMACS-like dialect:

    c <comment>            anywhere
    p path <V> <E>         first non-comment line
    t <s> <t>              optional terminals
    e <u> <v> <cost>       E lines; their order is the item order

Diagram files are exactly what write_zdd writes:

    zdd <n_items> <n_nodes> <root_id>
    <id> <var> <lo_id> <hi_id>     one line per non-terminal

Fields are unsigned decimals without leading zeros joined by single
spaces, and every line ends in a newline (the reader also takes a file
whose final newline is missing).  A header field may carry a minus
sign, so that a negative count or root id is refused by its value.
Ids 0 and 1 are the terminals; stored ids run 2, 3, ... in line order,
children before parents, so node ``k`` sits on line ``k``.  The writer
renumbers reachable nodes densely, so equal families always serialize
to equal bytes.  The reader accepts no other layout: comment and blank lines,
CRLF line ends and sparse ids are refused.

Run reports are JSON lines, one per bound query, written by report_line
with the keys bound, ratio, solutions, zdd_size, calls, time_ms,
method, accept_worst and reject_best, in that order.  ``calls``,
``accept_worst`` and ``reject_best`` are the query's BoundResult fields;
a bound or endpoint is an int, "-inf" or "+inf", and null where the
filter sets none.  Solution counts are decimal strings, since the counts
outgrow double precision long before they outgrow this engine.
"""

from __future__ import annotations

import json
import re
import sys

from .bound import BoundResult
from .extint import ExtInt, check_finite, format_ext
from .forest import Forest, ONE, ZERO
from .frontier import Graph


class ParseError(ValueError):
    """Malformed input text; the message carries the line number."""


def _fail(line_no: int, msg: str) -> None:
    raise ParseError(f"line {line_no}: {msg}")


def _int_field(line_no: int, text: str, what: str) -> int:
    try:
        return int(text)
    except ValueError:
        if text.isascii() and text.isdigit():
            _fail(line_no, f"{what} has {len(text)} digits, over the limit of "
                  f"{sys.get_int_max_str_digits()}")
        _fail(line_no, f"{what} must be an integer, got {text!r}")


def parse_graph(text: str) -> tuple[Graph, tuple[int, int] | None]:
    """Parse a graph document; returns the graph and (s, t) if present."""
    n_vertices = 0
    n_edges = -1
    terminals: tuple[int, int] | None = None
    edges: list[tuple[int, int, int]] = []
    seen: set[tuple[int, int]] = set()
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        fields = line.split()
        tag = fields[0]
        if tag == "p":
            if n_edges >= 0:
                _fail(line_no, "duplicate problem line")
            if len(fields) != 4 or fields[1] != "path":
                _fail(line_no, "problem line must be 'p path <V> <E>'")
            n_vertices = _int_field(line_no, fields[2], "vertex count")
            n_edges = _int_field(line_no, fields[3], "edge count")
            if n_vertices < 1:
                _fail(line_no, f"vertex count must be positive, got {n_vertices}")
            if n_edges < 0:
                _fail(line_no, f"edge count must be nonnegative, got {n_edges}")
        elif tag == "t":
            if n_edges < 0:
                _fail(line_no, "terminal line before problem line")
            if terminals is not None:
                _fail(line_no, "duplicate terminal line")
            if len(fields) != 3:
                _fail(line_no, "terminal line must be 't <s> <t>'")
            s = _int_field(line_no, fields[1], "source")
            t = _int_field(line_no, fields[2], "target")
            for w in (s, t):
                if not 1 <= w <= n_vertices:
                    _fail(line_no, f"terminal {w} outside 1..{n_vertices}")
            if s == t:
                _fail(line_no, "source equals target")
            terminals = (s, t)
        elif tag == "e":
            if n_edges < 0:
                _fail(line_no, "edge line before problem line")
            if len(fields) != 4:
                _fail(line_no, "edge line must be 'e <u> <v> <cost>'")
            u = _int_field(line_no, fields[1], "endpoint")
            v = _int_field(line_no, fields[2], "endpoint")
            cost = _int_field(line_no, fields[3], "cost")
            for w in (u, v):
                if not 1 <= w <= n_vertices:
                    _fail(line_no, f"vertex {w} outside 1..{n_vertices}")
            if u == v:
                _fail(line_no, f"self-loop at vertex {u}")
            key = (u, v) if u < v else (v, u)
            if key in seen:
                _fail(line_no, f"duplicate edge ({u}, {v})")
            seen.add(key)
            if len(edges) == n_edges:
                _fail(line_no, f"more edge lines than the declared {n_edges}")
            try:
                check_finite(cost)
            except OverflowError:
                _fail(line_no, f"cost {cost} outside the 64-bit range")
            edges.append((u, v, cost))
        else:
            _fail(line_no, f"unknown line type {tag!r}")
    if n_edges < 0:
        raise ParseError("missing problem line 'p path <V> <E>'")
    if len(edges) != n_edges:
        raise ParseError(f"expected {n_edges} edge lines, found {len(edges)}")
    return Graph(n_vertices, edges), terminals


def write_graph(g: Graph, s: int | None = None, t: int | None = None) -> str:
    """Canonical text form; parse(write(g)) reproduces g exactly."""
    if (s is None) != (t is None):
        raise ValueError("terminals must be given together or not at all")
    out = [f"p path {g.n_vertices} {len(g.edges)}"]
    if s is not None:
        out.append(f"t {s} {t}")
    for u, v, cost in g.edges:
        out.append(f"e {u} {v} {cost}")
    return "\n".join(out) + "\n"


def write_zdd(forest: Forest, root: int) -> str:
    """Serialize the family rooted at ``root``, ids renumbered densely."""
    forest._check_valid(root)
    order = forest.reachable(root)
    new_id = {ZERO: 0, ONE: 1}
    varr, lo_arr, hi_arr = forest._var, forest._lo, forest._hi
    out = [""]
    for seq, u in enumerate(order, start=2):
        new_id[u] = seq
        out.append(f"{seq} {varr[u]} {new_id[lo_arr[u]]} {new_id[hi_arr[u]]}")
    out[0] = f"zdd {forest.n_items} {len(order)} {new_id[root]}"
    return "\n".join(out) + "\n"


def read_zdd(forest: Forest, text: str) -> int:
    """Load a diagram into ``forest`` (item counts must match); returns the root.

    The document must be laid out as write_zdd lays it out: the header,
    then ``n_nodes`` lines of four unsigned decimal fields without
    leading zeros joined by single spaces, node ``k`` on line ``k`` (ids
    2, 3, ... in order) and children defined before their parents.  Only
    the final newline may be missing.  Anything else, a field over
    Python's integer digit limit included, raises ParseError with its
    line number.  Nodes are interned as make_node interns them, so the
    loaded family is canonical and shares structure with everything
    already in the forest.
    """
    n_items, n_nodes, root_id = zdd_header(text)
    if n_items != forest.n_items:
        raise ParseError(
            f"line 1: diagram has {n_items} items, forest has {forest.n_items}"
        )
    if not text.endswith("\n"):
        text += "\n"
    body = text.encode("ascii", "replace").partition(b"\n")[2]
    # Compare lengths first, so that a huge declared node count is refused
    # before the expected separator string is built.
    seps = body.translate(None, _DIGITS)
    if len(seps) != 4 * n_nodes or seps != b"   \n" * n_nodes:
        _layout_error(text, n_nodes)
    # The body is now digit runs between separators, so with the
    # separators turned into commas it is a JSON array of ints unless a
    # field is empty, zero padded or over Python's digit limit.
    try:
        rows = json.loads(b"[%s]" % body[:-1].translate(_COMMAS))
    except ValueError:
        _layout_error(text, n_nodes)
    by_id = [ZERO, ONE]
    try:
        forest._intern_rows(rows, by_id)
    except ValueError as e:
        _fail(len(by_id), str(e))
    line_no = len(by_id)
    if line_no < n_nodes + 2:
        uid, _var, lo_id, hi_id = rows[4 * line_no - 8 : 4 * line_no - 4]
        _id_error(line_no, uid, lo_id, hi_id)
    if not 0 <= root_id < len(by_id):
        raise ParseError(f"root id {root_id} never defined")
    return by_id[root_id]


_DIGITS = b"0123456789"
_COMMAS = bytes.maketrans(b" \n", b",,")
_NODE_LINE = re.compile(r"(?:0|[1-9][0-9]*)(?: (?:0|[1-9][0-9]*)){3}")
_NODE_FIELDS = ("node id", "item index", "lo child", "hi child")
_HEADER_FIELD = re.compile(r"-?(?:0|[1-9][0-9]*)")


def zdd_header(text: str) -> tuple[int, int, int]:
    """Parse the first line of a diagram document: (n_items, n_nodes, root_id)."""
    if not text:
        raise ParseError("empty diagram document")
    line = text.partition("\n")[0]
    header = line.split(" ")
    if len(header) != 4 or header[0] != "zdd" or not line.isprintable():
        raise ParseError("line 1: header must be 'zdd <n_items> <n_nodes> <root_id>'")
    values = []
    for text, what in zip(header[1:], ("item count", "node count", "root id")):
        values.append(_int_field(1, text, what))
        if not _HEADER_FIELD.fullmatch(text):
            _fail(1, f"{what} must be plain decimal digits without a leading zero, "
                  f"got {text!r}")
    return tuple(values)


def _layout_error(text: str, n_nodes: int) -> None:
    """Raise for a newline-terminated body that is not ``n_nodes`` node lines."""
    lines = text.split("\n")[1:-1]
    for line_no, line in enumerate(lines, start=2):
        fields = line.split()
        if len(fields) == 4:
            for field, what in zip(fields, _NODE_FIELDS):
                _int_field(line_no, field, what)
        if not _NODE_LINE.fullmatch(line):
            _fail(line_no, "node line must be '<id> <var> <lo_id> <hi_id>'")
    raise ParseError(f"header declares {n_nodes} nodes, found {len(lines)}")


def _id_error(line_no: int, uid: int, lo_id: int, hi_id: int) -> None:
    """Raise for node line ``line_no``, whose id or a child id is out of place."""
    if uid < 2:
        _fail(line_no, f"node id {uid} collides with a terminal")
    if uid < line_no:
        _fail(line_no, f"node id {uid} defined twice")
    if uid > line_no:
        _fail(line_no, f"node id {uid} out of order, expected {line_no}")
    if lo_id >= uid:
        _fail(line_no, f"lo child {lo_id} not defined yet")
    _fail(line_no, f"hi child {hi_id} not defined yet")


def ext_json(x: ExtInt | None) -> int | str | None:
    if x is None:
        return None
    if type(x) is int:
        return x
    return format_ext(x)


def report_line(
    bound: ExtInt,
    ratio: float | None,
    res: BoundResult,
    solutions: int,
    zdd_size: int,
    time_ms: float,
    method: str,
) -> str:
    """One bound query's JSON row: the bound, its filter's result and the run."""
    record = {
        "bound": ext_json(bound),
        "ratio": None if ratio is None else round(ratio, 4),
        "solutions": str(solutions),
        "zdd_size": zdd_size,
        "calls": res.calls,
        "time_ms": round(time_ms, 3),
        "method": method,
        "accept_worst": ext_json(res.accept_worst),
        "reject_best": ext_json(res.reject_best),
    }
    return json.dumps(record)
