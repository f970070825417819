"""Path enumeration by frontier scan.

Builds the ZDD of all edge subsets forming one s-t path (simple, or
Hamiltonian when every vertex must be visited).  Edges are processed in
their given order, which is also the ZDD variable order.  The scan keeps,
per partial decision, only the state of the frontier: the vertices
incident to both a processed and an unprocessed edge.  Each frontier
vertex carries a pairing value

    vertex itself   untouched so far,
    0               internal to the path (degree 2, closed),
    other vertex    endpoint of a partial path whose far end is that
                    vertex (which may itself have left the frontier,
                    legal only for s and t).

Partial decisions with equal frontier state are merged level by level,
which is what keeps construction sub-exponential.  A state is a tuple of
pairing values aligned to its frontier.  Each level works out its
positions once: where each vertex sits in the current frontier plus the
entering vertices, and which of those positions the next frontier keeps.
The next state is then a projection of the current state plus the
entering vertices, with no per-state lookup by vertex.  A level's branch
targets are handles into the next level's node ids: 0 rejects (ZERO),
1 accepts (ONE), and the next level's state k is k + 2.  Nodes are
emitted bottom-up through the forest's make_node, so the result is
canonical with no separate reduction pass.
"""

from __future__ import annotations

import random
from collections import deque
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from operator import itemgetter

from .extint import INT64_MAX, INT64_MIN, CostOverflowError, check_costs
from .forest import Forest, ONE, ZERO

USED = 0


@dataclass
class Graph:
    """Undirected weighted graph; edge positions (1-based) are item indices."""

    n_vertices: int
    edges: list[tuple[int, int, int]]

    def validate(self) -> None:
        """Raise ValueError for a vertex outside 1..n_vertices, a self-loop,
        a duplicate edge, or a cost or a sum of one sign's costs outside the
        signed 64-bit range (``check_costs``); a cost that is not an int
        raises its TypeError."""
        n = self.n_vertices
        if n < 1:
            raise ValueError(f"graph needs at least one vertex, got {n}")
        seen: set[tuple[int, int]] = set()
        for u, v, _cost in self.edges:
            if not (1 <= u <= n) or not (1 <= v <= n):
                raise ValueError(f"edge ({u}, {v}) outside vertex range 1..{n}")
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            key = (u, v) if u < v else (v, u)
            if key in seen:
                raise ValueError(f"duplicate edge ({u}, {v})")
            seen.add(key)
        try:
            check_costs(c for _u, _v, c in self.edges)
        except CostOverflowError as e:
            raise ValueError(str(e)) from None


def grid_graph(n: int, cost_lo: int, cost_hi: int, seed: int) -> Graph:
    """n x n grid of cells: (n+1)^2 vertices, 2n(n+1) edges.

    Vertices are numbered row-major starting at 1.  Edges are emitted row
    by row, alternating the horizontal edge of a cell with the vertical
    edge below its left corner, so the frontier never exceeds n + 2
    vertices.  Costs are drawn per edge, in edge order, from
    random.Random(seed).randint(cost_lo, cost_hi) (Mersenne Twister), so
    an instance is fully determined by (n, cost_lo, cost_hi, seed).  Both
    ends must lie in the signed 64-bit range, as every cost of a graph
    file must, and the grid must pass ``Graph.validate``, which also asks
    that the drawn costs of each sign sum within that range.
    """
    if n < 1:
        raise ValueError(f"grid size must be at least 1, got {n}")
    if cost_lo > cost_hi:
        raise ValueError(f"empty cost range [{cost_lo}, {cost_hi}]")
    if cost_lo < INT64_MIN or cost_hi > INT64_MAX:
        raise ValueError(f"cost range [{cost_lo}, {cost_hi}] outside the 64-bit range")
    side = n + 1
    rng = random.Random(seed)

    def vid(r: int, c: int) -> int:
        return r * side + c + 1

    edges: list[tuple[int, int, int]] = []

    def emit(a: int, b: int) -> None:
        edges.append((a, b, rng.randint(cost_lo, cost_hi)))

    for r in range(n):
        for c in range(n):
            emit(vid(r, c), vid(r, c + 1))
            emit(vid(r, c), vid(r + 1, c))
        emit(vid(r, n), vid(r + 1, n))
    for c in range(n):
        emit(vid(n, c), vid(n, c + 1))
    g = Graph(side * side, edges)
    g.validate()
    return g


def _frontiers(g: Graph) -> tuple[dict[int, int], dict[int, int], list[list[int]]]:
    """Per vertex, the positions (1-based) of its first and last edge; and
    per position i = 0..m, the sorted frontier after edge i."""
    intro: dict[int, int] = {}
    last: dict[int, int] = {}
    for i, (u, v, _c) in enumerate(g.edges, start=1):
        for w in (u, v):
            if w not in intro:
                intro[w] = i
            last[w] = i
    frontiers: list[list[int]] = [[] for _ in range(len(g.edges) + 1)]
    for w in sorted(intro):
        for i in range(intro[w], last[w]):
            frontiers[i].append(w)
    return intro, last, frontiers


def _projection(keep: list[int]) -> Callable[[Sequence[int]], tuple[int, ...]]:
    """The function taking a sequence to the tuple of its items at keep.

    ``itemgetter`` with one key returns the bare item, so one and no key
    build their tuples by hand.
    """
    if len(keep) > 1:
        return itemgetter(*keep)
    if keep:
        (k,) = keep
        return lambda mate: (mate[k],)
    return lambda mate: ()


def frontier_width(g: Graph) -> int:
    """Largest count of vertices incident to both a processed and an
    unprocessed edge, over all positions of the edge scan."""
    return max(map(len, _frontiers(g)[2]))


def bfs_edge_order(g: Graph, s: int) -> Graph:
    """Same graph with edges reordered breadth-first from s.

    A helper for graphs whose given order scans badly; ties and
    unreachable parts keep their original relative order.
    """
    if not 1 <= s <= g.n_vertices:
        raise ValueError(f"vertex {s} outside 1..{g.n_vertices}")
    adj: dict[int, list[int]] = {}
    for u, v, _c in g.edges:
        adj.setdefault(u, []).append(v)
        adj.setdefault(v, []).append(u)
    dist = {s: 0}
    queue = deque([s])
    while queue:
        u = queue.popleft()
        for w in sorted(adj.get(u, ())):
            if w not in dist:
                dist[w] = dist[u] + 1
                queue.append(w)
    far = g.n_vertices + 1
    def rank(item: tuple[int, tuple[int, int, int]]) -> tuple[int, int, int]:
        idx, (u, v, _c) = item
        du = dist.get(u, far)
        dv = dist.get(v, far)
        return (min(du, dv), max(du, dv), idx)
    ordered = [e for _i, e in sorted(enumerate(g.edges), key=rank)]
    return Graph(g.n_vertices, ordered)


def build_path_zdd(forest: Forest, g: Graph, s: int, t: int, kind: str = "simple") -> int:
    """ZDD of all edge subsets forming one s-t path.

    kind "simple" admits any simple path; kind "hamiltonian" requires the
    path to visit every vertex of the graph.  A graph that
    ``Graph.validate`` refuses raises its ValueError.
    """
    g.validate()
    if kind not in ("simple", "hamiltonian"):
        raise ValueError(f"kind must be 'simple' or 'hamiltonian', got {kind!r}")
    n = g.n_vertices
    m = len(g.edges)
    if forest.n_items != m:
        raise ValueError(f"forest has {forest.n_items} items, graph has {m} edges")
    for w in (s, t):
        if not 1 <= w <= n:
            raise ValueError(f"terminal {w} outside 1..{n}")
    if s == t:
        raise ValueError("source and target must differ")
    hamiltonian = kind == "hamiltonian"

    intro, last, frontiers = _frontiers(g)
    if s not in intro or t not in intro or (hamiltonian and len(intro) < n):
        return ZERO
    # a Hamiltonian path may close only once every vertex has been seen
    close_from = max(intro.values()) if hamiltonian else 1

    def may_leave(mate: Sequence[int], leaving: list[tuple[int, int, bool]]) -> bool:
        """Whether every (position, vertex, is s or t) of leaving may leave the frontier."""
        for p, w, terminal in leaving:
            mw = mate[p]
            if terminal:
                # prune: an untouched s or t could never join the path
                if mw == w:
                    return False
            elif mw != USED and (hamiltonian or mw != w):
                return False
        return True

    # Top-down sweep.  A state plus the entering vertices is aligned to
    # `working`; its projection onto the next frontier is the next state,
    # and equal next states merge.
    transitions: list[list[tuple[int, int]]] = []
    configs: dict[tuple[int, ...], int] = {(): 2}
    for i, (u, v, _c) in enumerate(g.edges, start=1):
        entering = tuple(w for w in (u, v) if intro[w] == i)
        working = [*frontiers[i - 1], *entering]
        pos = {w: p for p, w in enumerate(working)}
        pu, pv = pos[u], pos[v]
        project = _projection([pos[w] for w in frontiers[i]])
        everyone = [(p, w, w == s or w == t) for p, w in enumerate(working)]
        retiring = [x for x in everyone if last[x[1]] == i]
        level: list[tuple[int, int]] = []
        next_configs: dict[tuple[int, ...], int] = {}

        def target_of(mate: Sequence[int]) -> int:
            if not may_leave(mate, retiring):
                return ZERO
            return next_configs.setdefault(project(mate), len(next_configs) + 2)

        for state in configs:
            mate = state + entering
            lo_t = target_of(mate)
            hi_t = ZERO
            mu, mv = mate[pu], mate[pv]
            # prune: an edge may not attach to an s or t that already has one
            if mu != USED and mv != USED and mu != v and not (
                (u == s or u == t) and mu != u
            ) and not ((v == s or v == t) and mv != v):
                merged = list(mate)
                if mu != u:
                    merged[pu] = USED
                if mv != v:
                    merged[pv] = USED
                # far ends may have left the frontier; only s or t can, and
                # their names persist in the partner's pairing
                p = pos.get(mu)
                if p is not None:
                    merged[p] = mv
                p = pos.get(mv)
                if p is not None:
                    merged[p] = mu
                if (mu == s and mv == t) or (mu == t and mv == s):
                    # the s-t path closes and every later edge is skipped,
                    # so the whole frontier must be free to leave now
                    hi_t = ONE if i >= close_from and may_leave(merged, everyone) else ZERO
                else:
                    hi_t = target_of(merged)

            level.append((lo_t, hi_t))

        transitions.append(level)
        configs = next_configs

    # Bottom-up emission through make_node keeps the result canonical.
    # Nothing may outlive the scan: an unfinished state has no s-t path.
    make = forest.make_node
    ids = [ZERO, ONE] + [ZERO] * len(configs)
    for i in range(m, 0, -1):
        next_ids = ids
        ids = [ZERO, ONE]
        for lo_t, hi_t in transitions[i - 1]:
            ids.append(make(i, next_ids[lo_t], next_ids[hi_t]))
    return ids[2]
