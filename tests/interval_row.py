"""Run one cold interval-memo query on a saved instance and print the sizes.

Invoked as a subprocess by the acceptance gate: some rows build results
too large for small hosts, and a row that dies at the memory ceiling
must not take the test runner with it.  Each run is a fresh process
that loads the graph and diagram files into a fresh forest, as the CLI
does, and takes the minimum cost from ``Forest.min_max_cost``, so the
interval memo is empty before the query and the printed call count is
a cold measurement.

Usage: python interval_row.py <graph file> <zdd file> <ratio|+inf>
Prints "OK <|f|> <calls> <|h|>" on success and exits nonzero otherwise.
"""

import gc
import math
import os
import sys
from fractions import Fraction
from pathlib import Path

from costzdd.bound import Bounder
from costzdd.extint import POS_INF
from costzdd.forest import Forest
from costzdd.graphio import parse_graph, read_zdd


def cap_address_space():
    # die by MemoryError (or abort) at the ceiling instead of drawing
    # the kernel OOM killer onto the parent
    try:
        import resource

        phys = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
        ceiling = max(3 << 30, phys - (2 << 30))
        _soft, hard = resource.getrlimit(resource.RLIMIT_AS)
        resource.setrlimit(resource.RLIMIT_AS, (ceiling, hard))
    except (ImportError, ValueError, OSError):
        pass


def main(argv):
    graph_path, zdd_path, label = argv
    cap_address_space()
    gc.disable()

    g, _terminals = parse_graph(Path(graph_path).read_text(encoding="utf-8"))
    forest = Forest(len(g.edges))
    f = read_zdd(forest, Path(zdd_path).read_text(encoding="utf-8"))
    size = forest.node_count(f)
    costs = [c for _u, _v, c in g.edges]

    if label == "+inf":
        b = POS_INF
    else:
        mn, _mx = forest.min_max_cost(f, costs)
        b = math.floor(Fraction(label) * mn)
    bd = Bounder(forest, costs)
    res = bd.backtrack_interval_memo(f, b)
    print("OK", size, res.calls, forest.node_count(res.root), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
