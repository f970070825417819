"""Command-line front end.

Subcommands: gen, build, bound, sweep, count, minmax, sample, rank,
bench.  Reports go to stdout as JSON lines, diagnostics to stderr.
Exit codes: 0 success, 1 usage or input error, 2 engine error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from fractions import Fraction
from pathlib import Path

from .bound import Bounder, CallBudgetError, MemoInvariantError, estimate_naive_calls
from .extint import (
    NEG_INF,
    POS_INF,
    CostOverflowError,
    ExtInt,
    format_ext,
    parse_ext,
)
from .forest import CapacityError, Forest, ZERO
from .frontier import Graph, bfs_edge_order, build_path_zdd, grid_graph
from .graphio import (
    ParseError,
    RunReport,
    ext_json,
    parse_graph,
    read_zdd,
    report_line,
    write_graph,
    write_zdd,
    zdd_header,
)

DEFAULT_NAIVE_LIMIT = 10_000_000
DEFAULT_RATIOS = "1.00,1.01,1.05,1.10,1.50,2.00"

# preset -> (grid n or None for external data, path kind)
PRESETS = {
    "grid6-simple": (6, "simple"),
    "grid7-simple": (7, "simple"),
    "grid8-ham": (8, "hamiltonian"),
    "grid10-ham": (10, "hamiltonian"),
    "us48-simple": (None, "simple"),
    "us48-ham": (None, "hamiltonian"),
}


class EngineRefusalError(RuntimeError):
    """The requested computation was declined as too expensive."""


class _Parser(argparse.ArgumentParser):
    # usage problems exit 1, not argparse's default 2
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


# Flags whose value may start with '-' (negative numbers, -inf); argparse
# would read such a value as an option, so glue it to its flag up front.
_EXT_FLAGS = {"-b", "--bound", "--cost", "--bounds", "--cost-lo", "--cost-hi"}


def _attach_values(argv: list[str]) -> list[str]:
    out: list[str] = []
    i = 0
    while i < len(argv):
        a = argv[i]
        if a in _EXT_FLAGS and i + 1 < len(argv) and argv[i + 1].startswith("-"):
            v = argv[i + 1]
            out.append(f"{a}={v}" if a.startswith("--") else a + v)
            i += 2
        else:
            out.append(a)
            i += 1
    return out


def _read(path: str) -> str:
    return Path(path).read_text(encoding="utf-8")


def _emit(path: str | None, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        Path(path).write_text(text, encoding="utf-8")


def _load_graph(path: str) -> tuple[Graph, tuple[int, int] | None]:
    return parse_graph(_read(path))


def _load_instance(graph_path: str, zdd_path: str):
    g, terminals = _load_graph(graph_path)
    forest = Forest(len(g.edges))
    root = read_zdd(forest, _read(zdd_path))
    costs = [c for _u, _v, c in g.edges]
    return g, terminals, forest, root, costs


def _terminals(args, file_terminals, n_vertices: int) -> tuple[int, int]:
    s = args.source if args.source is not None else (file_terminals or (None, None))[0]
    t = args.target if args.target is not None else (file_terminals or (None, None))[1]
    if s is None or t is None:
        raise ValueError("no terminals: give --source/--target or a 't' line in the graph file")
    for w in (s, t):
        if not 1 <= w <= n_vertices:
            raise ValueError(f"terminal {w} outside 1..{n_vertices}")
    return s, t


def _ratio_of(bound: ExtInt, mn: ExtInt) -> float | None:
    if type(bound) is int and type(mn) is int and mn > 0:
        return bound / mn
    return None


def _run_bound(
    bounder: Bounder, f: int, b: ExtInt, method: str, naive_limit: int
) -> tuple[RunReport, int]:
    forest = bounder.forest
    t0 = time.perf_counter()
    aw = rb = None
    if method == "naive":
        est = estimate_naive_calls(forest, f)
        if est > naive_limit:
            raise EngineRefusalError(
                f"naive method needs {est} calls, over the limit {naive_limit} "
                f"(adjust with --naive-limit)"
            )
        res = bounder.backtrack_naive(f, b)
        h, calls = res.root, res.calls
    elif method == "memo":
        res = bounder.backtrack_memo(f, b)
        h, calls = res.root, res.calls
    elif method == "interval":
        res = bounder.backtrack_interval_memo(f, b)
        h, calls = res.root, res.calls
        aw, rb = res.accept_worst, res.reject_best
    elif method == "intersection":
        h, calls = bounder.bound_via_intersection(f, b), 0
    else:
        raise ValueError(f"unknown method {method!r}")
    solutions = forest.count(h)
    ms = (time.perf_counter() - t0) * 1000.0
    mn, _mx = bounder.min_max(f)
    return RunReport(
        bound=b,
        ratio=_ratio_of(b, mn),
        solutions=solutions,
        zdd_size=forest.node_count(h),
        calls=calls,
        time_ms=ms,
        method=method,
        accept_worst=aw,
        reject_best=rb,
    ), h


def _cmd_gen(args) -> int:
    g = grid_graph(args.n, args.cost_lo, args.cost_hi, args.seed)
    s, t = 1, (args.n + 1) ** 2
    _emit(args.output, write_graph(g, s, t))
    return 0


def _cmd_build(args) -> int:
    g, file_terminals = _load_graph(args.graph)
    s, t = _terminals(args, file_terminals, g.n_vertices)
    if args.reorder:
        g = bfs_edge_order(g, s)
        if args.graph_out:
            Path(args.graph_out).write_text(write_graph(g, s, t), encoding="utf-8")
    t0 = time.perf_counter()
    forest = Forest(len(g.edges))
    f = build_path_zdd(forest, g, s, t, args.kind)
    solutions = forest.count(f)
    ms = (time.perf_counter() - t0) * 1000.0
    Path(args.output).write_text(write_zdd(forest, f), encoding="utf-8")
    print(
        json.dumps(
            {
                "nodes": forest.node_count(f),
                "solutions": str(solutions),
                "time_ms": round(ms, 3),
            }
        )
    )
    return 0


def _cmd_bound(args) -> int:
    _g, _terms, forest, f, costs = _load_instance(args.graph, args.zdd)
    b = parse_ext(args.bound)
    bounder = Bounder(forest, costs, call_limit=args.call_limit)
    report, h = _run_bound(bounder, f, b, args.method, args.naive_limit)
    print(report_line(report))
    if args.output:
        Path(args.output).write_text(write_zdd(forest, h), encoding="utf-8")
    return 0


def _parse_ratios(text: str) -> list[Fraction]:
    out = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        try:
            out.append(Fraction(part))
        except (ValueError, ZeroDivisionError):
            raise ValueError(f"bad ratio {part!r}")
    if not out:
        raise ValueError("empty ratio list")
    return out


def _cmd_sweep(args) -> int:
    if (args.bounds is None) == (args.ratios is None):
        raise ValueError("give exactly one of --bounds or --ratios")
    _g, _terms, forest, f, costs = _load_instance(args.graph, args.zdd)
    bounder = Bounder(forest, costs, call_limit=args.call_limit)
    if args.bounds is not None:
        bounds = [parse_ext(p.strip()) for p in args.bounds.split(",") if p.strip()]
        if not bounds:
            raise ValueError("empty bound list")
    else:
        mn, _mx = bounder.min_max(f)
        if type(mn) is not int or mn <= 0:
            raise ValueError(
                f"ratios need a positive finite minimum cost, got {format_ext(mn)}"
            )
        bounds = [math.floor(r * mn) for r in _parse_ratios(args.ratios)]
    for b in bounds:
        report, _h = _run_bound(bounder, f, b, args.method, args.naive_limit)
        print(report_line(report))
    return 0


def _cmd_count(args) -> int:
    forest, root = _load_zdd_alone(args.zdd)
    print(forest.count(root))
    return 0


def _load_zdd_alone(path: str) -> tuple[Forest, int]:
    text = _read(path)
    n_items, _n_nodes, _root_id = zdd_header(text)
    forest = Forest(n_items)
    return forest, read_zdd(forest, text)


def _cmd_minmax(args) -> int:
    _g, _terms, forest, f, costs = _load_instance(args.graph, args.zdd)
    mn, mx = Bounder(forest, costs).min_max(f)
    print(json.dumps({"min": ext_json(mn), "max": ext_json(mx)}))
    return 0


def _cmd_sample(args) -> int:
    forest, root = _load_zdd_alone(args.zdd)
    for items in forest.sample(root, args.k, args.seed):
        print(" ".join(str(i) for i in items))
    return 0


def _cmd_rank(args) -> int:
    _g, _terms, forest, f, costs = _load_instance(args.graph, args.zdd)
    print(Bounder(forest, costs).rank(f, parse_ext(args.cost)))
    return 0


def _cmd_bench(args) -> int:
    n, kind = PRESETS[args.preset]
    if n is None:
        if not args.data:
            raise ValueError(f"preset {args.preset} needs --data with the map file")
        g, terminals = _load_graph(args.data)
        if terminals is None:
            raise ValueError("the data file must carry a 't <s> <t>' line")
        s, t = terminals
    else:
        g = grid_graph(n, args.cost_lo, args.cost_hi, args.seed)
        s, t = 1, (n + 1) ** 2
    t0 = time.perf_counter()
    forest = Forest(len(g.edges))
    f = build_path_zdd(forest, g, s, t, kind)
    solutions = forest.count(f)
    ms = (time.perf_counter() - t0) * 1000.0
    print(
        json.dumps(
            {
                "preset": args.preset,
                "kind": kind,
                "vertices": g.n_vertices,
                "edges": len(g.edges),
                "nodes": forest.node_count(f),
                "solutions": str(solutions),
                "time_ms": round(ms, 3),
            }
        )
    )
    costs = [c for _u, _v, c in g.edges]
    bounder = Bounder(forest, costs)
    mn, _mx = bounder.min_max(f)
    bounds: list[ExtInt] = []
    if type(mn) is int and mn > 0:
        bounds = [math.floor(r * mn) for r in _parse_ratios(args.ratios)]
    bounds.append(POS_INF)
    for b in bounds:
        report, _h = _run_bound(bounder, f, b, "interval", DEFAULT_NAIVE_LIMIT)
        print(report_line(report))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="costzdd", description=__doc__)
    sub = parser.add_subparsers(dest="command", parser_class=_Parser)

    p = sub.add_parser("gen", help="generate an instance")
    p.add_argument("family", choices=["grid"])
    p.add_argument("--n", type=int, required=True, help="grid size (cells per side)")
    p.add_argument("--cost-lo", type=int, default=1000)
    p.add_argument("--cost-hi", type=int, default=1999)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("-o", "--output", help="output file (default stdout)")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("build", help="construct the path ZDD for an instance")
    p.add_argument("--kind", choices=["simple", "hamiltonian"], required=True)
    p.add_argument("--graph", required=True)
    p.add_argument("--source", type=int)
    p.add_argument("--target", type=int)
    p.add_argument("--reorder", action="store_true", help="reorder edges breadth-first from the source")
    p.add_argument("--graph-out", help="with --reorder: save the matching reordered instance")
    p.add_argument("-o", "--output", required=True, help="ZDD output file")
    p.set_defaults(func=_cmd_build)

    p = sub.add_parser("bound", help="filter a ZDD by a cost bound")
    p.add_argument("--graph", required=True)
    p.add_argument("--zdd", required=True)
    p.add_argument("-b", "--bound", required=True, help="integer, -inf, or +inf")
    p.add_argument("--method", choices=["naive", "memo", "interval", "intersection"], default="interval")
    p.add_argument("--naive-limit", type=int, default=DEFAULT_NAIVE_LIMIT)
    p.add_argument("--call-limit", type=int, help="abort any query past this many calls")
    p.add_argument("-o", "--output", help="save the filtered ZDD")
    p.set_defaults(func=_cmd_bound)

    p = sub.add_parser("sweep", help="run several bounds on one session")
    p.add_argument("--graph", required=True)
    p.add_argument("--zdd", required=True)
    p.add_argument("--bounds", help="comma-separated bounds")
    p.add_argument("--ratios", help="comma-separated multiples of the minimum cost")
    p.add_argument("--method", choices=["naive", "memo", "interval", "intersection"], default="interval")
    p.add_argument("--naive-limit", type=int, default=DEFAULT_NAIVE_LIMIT)
    p.add_argument("--call-limit", type=int, help="abort any query past this many calls")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("count", help="count the members of a saved ZDD")
    p.add_argument("--zdd", required=True)
    p.set_defaults(func=_cmd_count)

    p = sub.add_parser("minmax", help="minimum and maximum member cost")
    p.add_argument("--graph", required=True)
    p.add_argument("--zdd", required=True)
    p.set_defaults(func=_cmd_minmax)

    p = sub.add_parser("sample", help="draw uniform member sets")
    p.add_argument("--zdd", required=True)
    p.add_argument("-k", type=int, required=True)
    p.add_argument("--seed", type=int, default=1)
    p.set_defaults(func=_cmd_sample)

    p = sub.add_parser("rank", help="count members with cost at most a threshold")
    p.add_argument("--graph", required=True)
    p.add_argument("--zdd", required=True)
    p.add_argument("--cost", required=True, help="integer, -inf, or +inf")
    p.set_defaults(func=_cmd_rank)

    p = sub.add_parser("bench", help="emit a full result table for a preset")
    p.add_argument("--preset", choices=sorted(PRESETS), required=True)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--cost-lo", type=int, default=1000)
    p.add_argument("--cost-hi", type=int, default=1999)
    p.add_argument("--ratios", default=DEFAULT_RATIOS)
    p.add_argument("--data", help="graph file for the map presets")
    p.set_defaults(func=_cmd_bench)

    return parser


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser = build_parser()
    args = parser.parse_args(_attach_values(list(argv)))
    if not hasattr(args, "func"):
        parser.print_usage(sys.stderr)
        return 1
    try:
        return args.func(args)
    except (ParseError, ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except (
        CostOverflowError,
        CapacityError,
        CallBudgetError,
        MemoInvariantError,
        EngineRefusalError,
        RecursionError,
        MemoryError,
    ) as e:
        print(f"engine error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
