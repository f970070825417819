"""Exact enumeration of cost-bounded combinatorial solutions.

Families of item sets live in a canonical ZDD forest, which counts and
uniformly samples their members; path families come from a frontier scan
of a graph; a Bounder filters any family by a linear cost bound and
answers cost-range queries with diagrams, rank with a number from the
same walk on a memo of member counts, and the minimum and maximum cost
from two forward passes over node ids, with no diagram built for either.
"""

from .bound import (
    Bounder,
    BoundResult,
    CallBudgetError,
    MemoInvariantError,
    estimate_naive_calls,
)
from .extint import (
    NEG_INF,
    POS_INF,
    CostOverflowError,
    ExtInt,
    format_ext,
    parse_ext,
)
from .forest import CapacityError, Forest, ONE, ZERO
from .frontier import (
    Graph,
    bfs_edge_order,
    build_path_zdd,
    frontier_width,
    grid_graph,
)
from .graphio import (
    ParseError,
    parse_graph,
    read_zdd,
    report_line,
    write_graph,
    write_zdd,
)

__all__ = [
    "Bounder",
    "BoundResult",
    "CallBudgetError",
    "CapacityError",
    "CostOverflowError",
    "ExtInt",
    "Forest",
    "Graph",
    "MemoInvariantError",
    "NEG_INF",
    "ONE",
    "POS_INF",
    "ParseError",
    "ZERO",
    "bfs_edge_order",
    "build_path_zdd",
    "estimate_naive_calls",
    "format_ext",
    "frontier_width",
    "grid_graph",
    "parse_ext",
    "parse_graph",
    "read_zdd",
    "report_line",
    "write_graph",
    "write_zdd",
]

__version__ = "0.1.0"
