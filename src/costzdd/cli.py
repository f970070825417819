"""Command-line front end.

Subcommands: gen, build, bound, sweep, count, minmax, sample, rank,
bench.  ``build``, ``bound``, ``sweep``, ``minmax`` and ``bench`` report
to stdout in JSON lines; ``count`` and ``rank`` print a bare decimal
integer, ``sample`` one line of space-separated items per draw, and
``gen`` the graph file unless ``-o`` names one.  Diagnostics go to
stderr.  Exit codes: 0 success, 1 usage or input error, 2 engine error.

Every bound query takes one path: ``bound``, ``sweep`` and ``bench``
turn their bounds (given, or ratios of the minimum cost) into a list,
and ``_run_bounds`` prints one report line per bound.  Options shared by
several subcommands are declared once, in a parent parser: ``--graph``
and ``--zdd`` for those that read an instance, ``--method`` and
``--call-limit`` for those that filter.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from fractions import Fraction
from pathlib import Path

from .bound import Bounder, CallBudgetError, MemoInvariantError
from .extint import (
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

# preset -> (grid n, path kind)
PRESETS = {
    "grid6-simple": (6, "simple"),
    "grid7-simple": (7, "simple"),
    "grid8-ham": (8, "hamiltonian"),
    "grid10-ham": (10, "hamiltonian"),
}


class _Parser(argparse.ArgumentParser):
    # usage problems exit 1, not argparse's default 2
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


# Flags whose value may start with '-' (negative numbers, -inf); argparse
# would read such a value as an option, so glue it to its flag up front.
_EXT_FLAGS = {"-b", "--bound", "--cost", "--bounds", "--ratios", "--cost-lo", "--cost-hi"}


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


def _load_instance(args) -> tuple[Forest, int, Bounder]:
    g, _terminals = parse_graph(_read(args.graph))
    # a cost mass past 64 bits is a fault of the file, as build reports it
    g.validate()
    forest = Forest(len(g.edges))
    root = read_zdd(forest, _read(args.zdd))
    costs = [c for _u, _v, c in g.edges]
    # minmax and rank take no --call-limit or --method
    limit = getattr(args, "call_limit", None)
    if limit is None and getattr(args, "method", None) == "naive":
        limit = DEFAULT_NAIVE_LIMIT
    return forest, root, Bounder(forest, costs, call_limit=limit)


def _terminals(args, file_terminals) -> tuple[int, int]:
    """The flags' terminals, else the file's; build_path_zdd checks their range."""
    s = args.source if args.source is not None else (file_terminals or (None, None))[0]
    t = args.target if args.target is not None else (file_terminals or (None, None))[1]
    if s is None or t is None:
        raise ValueError("no terminals: give --source/--target or a 't' line in the graph file")
    return s, t


def _build(g: Graph, s: int, t: int, kind: str) -> tuple[Forest, int, dict]:
    """Build the path ZDD; return it with its report fields."""
    t0 = time.perf_counter()
    forest = Forest(len(g.edges))
    f = build_path_zdd(forest, g, s, t, kind)
    solutions = forest.count(f)
    ms = (time.perf_counter() - t0) * 1000.0
    info = {"nodes": forest.node_count(f), "solutions": str(solutions), "time_ms": round(ms, 3)}
    return forest, f, info


# --method name -> filter, in the flag's choice order
_FILTERS = {
    "naive": Bounder.backtrack_naive,
    "memo": Bounder.backtrack_memo,
    "interval": Bounder.backtrack_interval_memo,
}


def _run_bounds(bounder: Bounder, f: int, bounds: list[ExtInt], method: str) -> int:
    """Read the minimum (no call), print a report line per bound; return the last root.
    Every bound is checked first, so that no row is printed before a refusal."""
    for b in bounds:
        bounder._check_bound(b)
    forest = bounder.forest
    run = _FILTERS[method]
    mn = bounder.min_cost(f)
    h = ZERO
    for b in bounds:
        t0 = time.perf_counter()
        res = run(bounder, f, b)
        h = res.root
        solutions = forest.count(h)
        ms = (time.perf_counter() - t0) * 1000.0
        ratio = b / mn if type(b) is int and type(mn) is int and mn > 0 else None
        print(report_line(b, ratio, res, solutions, forest.node_count(h), ms, method))
    return h


def _ratio_bounds(bounder: Bounder, f: int, text: str) -> list[ExtInt]:
    """Bounds at comma-separated multiples of the minimum cost, floored."""
    mn = bounder.min_cost(f)
    if type(mn) is not int or mn <= 0:
        raise ValueError(f"ratios need a positive finite minimum cost, got {format_ext(mn)}")
    ratios = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        try:
            ratios.append(Fraction(part))
        except (ValueError, ZeroDivisionError):
            raise ValueError(f"bad ratio {part!r}")
    if not ratios:
        raise ValueError("empty ratio list")
    bounds = [math.floor(r * mn) for r in ratios]
    # refused here, so that bench prints no line before the failure
    for b in bounds:
        bounder._check_bound(b)
    return bounds


def _cmd_gen(args) -> int:
    g = grid_graph(args.n, args.cost_lo, args.cost_hi, args.seed)
    s, t = 1, (args.n + 1) ** 2
    _emit(args.output, write_graph(g, s, t))
    return 0


def _cmd_build(args) -> int:
    if args.reorder and not args.graph_out:
        raise ValueError("--reorder needs --graph-out: the ZDD's items follow the new edge order")
    g, file_terminals = parse_graph(_read(args.graph))
    s, t = _terminals(args, file_terminals)
    if args.reorder:
        g = bfs_edge_order(g, s)
    forest, f, info = _build(g, s, t, args.kind)
    if args.graph_out:
        Path(args.graph_out).write_text(write_graph(g, s, t), encoding="utf-8")
    Path(args.output).write_text(write_zdd(forest, f), encoding="utf-8")
    print(json.dumps(info))
    return 0


def _cmd_bound(args) -> int:
    forest, f, bounder = _load_instance(args)
    h = _run_bounds(bounder, f, [parse_ext(args.bound)], args.method)
    if args.output:
        Path(args.output).write_text(write_zdd(forest, h), encoding="utf-8")
    return 0


def _cmd_sweep(args) -> int:
    if (args.bounds is None) == (args.ratios is None):
        raise ValueError("give exactly one of --bounds or --ratios")
    _forest, f, bounder = _load_instance(args)
    if args.bounds is not None:
        bounds = [parse_ext(p.strip()) for p in args.bounds.split(",") if p.strip()]
        if not bounds:
            raise ValueError("empty bound list")
    else:
        bounds = _ratio_bounds(bounder, f, args.ratios)
    _run_bounds(bounder, f, bounds, args.method)
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
    _forest, f, bounder = _load_instance(args)
    mn, mx = bounder.min_max(f)
    print(json.dumps({"min": ext_json(mn), "max": ext_json(mx)}))
    return 0


def _cmd_sample(args) -> int:
    forest, root = _load_zdd_alone(args.zdd)
    for items in forest.sample(root, args.k, args.seed):
        print(" ".join(str(i) for i in items))
    return 0


def _cmd_rank(args) -> int:
    _forest, f, bounder = _load_instance(args)
    print(bounder.rank(f, parse_ext(args.cost)))
    return 0


def _cmd_bench(args) -> int:
    n, kind = PRESETS[args.preset]
    g = grid_graph(n, args.cost_lo, args.cost_hi, args.seed)
    s, t = 1, (n + 1) ** 2
    forest, f, info = _build(g, s, t, kind)
    bounder = Bounder(forest, [c for _u, _v, c in g.edges])
    bounds = _ratio_bounds(bounder, f, args.ratios) + [POS_INF]
    shape = {"preset": args.preset, "kind": kind, "vertices": g.n_vertices, "edges": len(g.edges)}
    print(json.dumps({**shape, **info}))
    _run_bounds(bounder, f, bounds, "interval")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="costzdd", description=__doc__)
    sub = parser.add_subparsers(dest="command", parser_class=_Parser)

    instance = argparse.ArgumentParser(add_help=False)
    instance.add_argument("--graph", required=True)
    instance.add_argument("--zdd", required=True)
    query = argparse.ArgumentParser(add_help=False)
    query.add_argument("--method", choices=list(_FILTERS), default="interval")
    query.add_argument(
        "--call-limit",
        type=int,
        help="exact per-query call budget; naive is refused up front past it "
        f"(naive's default {DEFAULT_NAIVE_LIMIT})",
    )

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
    p.add_argument("--reorder", action="store_true", help="reorder edges breadth-first from the source (needs --graph-out)")
    p.add_argument("--graph-out", help="save the instance in the edge order the ZDD follows")
    p.add_argument("-o", "--output", required=True, help="ZDD output file")
    p.set_defaults(func=_cmd_build)

    p = sub.add_parser("bound", parents=[instance, query], help="filter a ZDD by a cost bound")
    p.add_argument("-b", "--bound", required=True, help="integer, -inf, or +inf")
    p.add_argument("-o", "--output", help="save the filtered ZDD")
    p.set_defaults(func=_cmd_bound)

    p = sub.add_parser("sweep", parents=[instance, query], help="run several bounds on one session")
    p.add_argument("--bounds", help="comma-separated bounds")
    p.add_argument("--ratios", help="comma-separated multiples of the minimum cost")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("count", help="count the members of a saved ZDD")
    p.add_argument("--zdd", required=True)
    p.set_defaults(func=_cmd_count)

    p = sub.add_parser("minmax", parents=[instance], help="minimum and maximum member cost")
    p.set_defaults(func=_cmd_minmax)

    p = sub.add_parser("sample", help="draw uniform member sets")
    p.add_argument("--zdd", required=True)
    p.add_argument("-k", type=int, required=True)
    p.add_argument("--seed", type=int, default=1)
    p.set_defaults(func=_cmd_sample)

    p = sub.add_parser("rank", parents=[instance], help="count members with cost at most a threshold")
    p.add_argument("--cost", required=True, help="integer, -inf, or +inf")
    p.set_defaults(func=_cmd_rank)

    p = sub.add_parser("bench", help="emit a full result table for a preset")
    p.add_argument("--preset", choices=sorted(PRESETS), required=True)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--cost-lo", type=int, default=1000)
    p.add_argument("--cost-hi", type=int, default=1999)
    p.add_argument("--ratios", default=DEFAULT_RATIOS)
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
    except (CostOverflowError, CapacityError, CallBudgetError, MemoInvariantError) as e:
        print(f"engine error: {e}", file=sys.stderr)
        return 2
    except MemoryError:
        # raised with no message, at whatever allocation failed
        print("engine error: out of memory", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
