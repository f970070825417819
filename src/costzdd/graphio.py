"""Line-oriented text formats: graphs, diagrams, run reports.

Graph files are a small DIMACS-like dialect:

    c <comment>            anywhere
    p path <V> <E>         first non-comment line
    t <s> <t>              optional terminals
    e <u> <v> <cost>       E lines; their order is the item order

Diagram files:

    zdd <n_items> <n_nodes> <root_id>
    <id> <var> <lo_id> <hi_id>     one line per non-terminal

Ids 0 and 1 are the terminals; stored ids start at 2, children before
parents.  The writer renumbers reachable nodes densely, so equal
families always serialize to equal bytes.  Run reports are JSON lines
with solution counts as decimal strings, since the counts outgrow
double precision long before they outgrow this engine.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

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
    out = [""]
    for seq, u in enumerate(order, start=2):
        var, lo, hi = forest.node(u)
        new_id[u] = seq
        out.append(f"{seq} {var} {new_id[lo]} {new_id[hi]}")
    out[0] = f"zdd {forest.n_items} {len(order)} {new_id[root]}"
    return "\n".join(out) + "\n"


def read_zdd(forest: Forest, text: str) -> int:
    """Load a diagram into ``forest`` (item counts must match); returns the root.

    Nodes pass through make_node, so whatever the file says, the loaded
    family is canonical and shares structure with everything already in
    the forest.
    """
    root = _read_dense_zdd(forest, text)
    return _read_zdd_lines(forest, text) if root is None else root


_DIGITS = b"0123456789"


def _read_dense_zdd(forest: Forest, text: str) -> int | None:
    """Bulk load of a diagram laid out as write_zdd lays it out, else None.

    Accepts only an ASCII document whose lines are the header and then
    ``n_nodes`` lines of four unsigned decimal fields, fields joined by
    single spaces and every line ending in a newline, with ids 2, 3, ...
    in order and children defined earlier.  Anything else is left to the
    line reader, which owns every error message.  Node lines reach
    make_node in the line reader's order, so a fallback after a partial
    load replays them as unique-table hits and ends in the same forest.
    """
    try:
        raw = text.encode("ascii")
    except UnicodeEncodeError:
        return None
    head, _, body = raw.partition(b"\n")
    header = head.split(b" ")
    if len(header) != 4 or header[0] != b"zdd" or not all(map(bytes.isdigit, header[1:])):
        return None
    n_items, n_nodes, root_id = map(int, header[1:])
    seps = body.translate(None, _DIGITS)
    if n_items != forest.n_items or len(seps) != 4 * n_nodes or seps != b"   \n" * n_nodes:
        return None
    fields = body.split()
    if len(fields) != 4 * n_nodes:  # an empty field
        return None
    make = forest.make_node
    by_id = [ZERO, ONE]
    it = map(int, fields)
    try:
        for uid, var, lo_id, hi_id in zip(it, it, it, it):
            if uid != len(by_id) or lo_id >= uid or hi_id >= uid:
                return None
            by_id.append(make(var, by_id[lo_id], by_id[hi_id]))
    except ValueError:
        return None
    return by_id[root_id] if root_id < len(by_id) else None


def zdd_header(lines: list[str]) -> tuple[int, int, int]:
    """Parse the header of a diagram given as its lines: (n_items, n_nodes, root_id)."""
    if not lines:
        raise ParseError("empty diagram document")
    header = lines[0].split()
    if len(header) != 4 or header[0] != "zdd":
        raise ParseError("line 1: header must be 'zdd <n_items> <n_nodes> <root_id>'")
    return (
        _int_field(1, header[1], "item count"),
        _int_field(1, header[2], "node count"),
        _int_field(1, header[3], "root id"),
    )


def _read_zdd_lines(forest: Forest, text: str) -> int:
    lines = text.splitlines()
    n_items, n_nodes, root_id = zdd_header(lines)
    if n_items != forest.n_items:
        raise ParseError(
            f"line 1: diagram has {n_items} items, forest has {forest.n_items}"
        )
    by_id: dict[int, int] = {0: ZERO, 1: ONE}
    count = 0
    for line_no, raw in enumerate(lines[1:], start=2):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        fields = line.split()
        if len(fields) != 4:
            _fail(line_no, "node line must be '<id> <var> <lo_id> <hi_id>'")
        uid = _int_field(line_no, fields[0], "node id")
        var = _int_field(line_no, fields[1], "item index")
        lo_id = _int_field(line_no, fields[2], "lo child")
        hi_id = _int_field(line_no, fields[3], "hi child")
        if uid < 2:
            _fail(line_no, f"node id {uid} collides with a terminal")
        if uid in by_id:
            _fail(line_no, f"node id {uid} defined twice")
        if lo_id not in by_id:
            _fail(line_no, f"lo child {lo_id} not defined yet")
        if hi_id not in by_id:
            _fail(line_no, f"hi child {hi_id} not defined yet")
        try:
            by_id[uid] = forest.make_node(var, by_id[lo_id], by_id[hi_id])
        except ValueError as e:
            _fail(line_no, str(e))
        count += 1
    if count != n_nodes:
        raise ParseError(f"header declares {n_nodes} nodes, found {count}")
    if root_id not in by_id:
        raise ParseError(f"root id {root_id} never defined")
    return by_id[root_id]


@dataclass(frozen=True)
class RunReport:
    """One bound-query result row, as printed by the command line."""

    bound: ExtInt
    ratio: float | None
    solutions: int
    zdd_size: int
    calls: int
    time_ms: float
    method: str
    accept_worst: ExtInt | None = None
    reject_best: ExtInt | None = None


def ext_json(x: ExtInt | None) -> int | str | None:
    if x is None:
        return None
    if type(x) is int:
        return x
    return format_ext(x)


def report_line(r: RunReport) -> str:
    record = {
        "bound": ext_json(r.bound),
        "ratio": None if r.ratio is None else round(r.ratio, 4),
        "solutions": str(r.solutions),
        "zdd_size": r.zdd_size,
        "calls": r.calls,
        "time_ms": round(r.time_ms, 3),
        "method": r.method,
        "accept_worst": ext_json(r.accept_worst),
        "reject_best": ext_json(r.reject_best),
    }
    return json.dumps(record)


def write_report(rows: list[RunReport]) -> str:
    """One JSON record per line; counts as exact decimal strings."""
    return "".join(report_line(r) + "\n" for r in rows)
