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
which is what keeps construction sub-exponential.  Nodes are emitted
bottom-up through the forest's make_node, so the result is canonical
with no separate reduction pass.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass

from .forest import Forest, ONE, ZERO

USED = 0

_REJECT = -1
_ACCEPT = -2


@dataclass
class Graph:
    """Undirected weighted graph; edge positions (1-based) are item indices."""

    n_vertices: int
    edges: list[tuple[int, int, int]]

    def validate(self) -> None:
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


def grid_graph(n: int, cost_lo: int, cost_hi: int, seed: int) -> Graph:
    """n x n grid of cells: (n+1)^2 vertices, 2n(n+1) edges.

    Vertices are numbered row-major starting at 1.  Edges are emitted row
    by row, alternating the horizontal edge of a cell with the vertical
    edge below its left corner, so the frontier never exceeds n + 2
    vertices.  Costs are drawn per edge, in edge order, from
    random.Random(seed).randint(cost_lo, cost_hi) (Mersenne Twister), so
    an instance is fully determined by (n, cost_lo, cost_hi, seed).
    """
    if n < 1:
        raise ValueError(f"grid size must be at least 1, got {n}")
    if cost_lo > cost_hi:
        raise ValueError(f"empty cost range [{cost_lo}, {cost_hi}]")
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
    return Graph(side * side, edges)


def _edge_span(g: Graph) -> tuple[dict[int, int], dict[int, int]]:
    """Per vertex, the positions (1-based) of its first and last edge."""
    intro: dict[int, int] = {}
    last: dict[int, int] = {}
    for i, (u, v, _c) in enumerate(g.edges, start=1):
        for w in (u, v):
            if w not in intro:
                intro[w] = i
            last[w] = i
    return intro, last


def frontier_width(g: Graph) -> int:
    """Largest count of vertices incident to both a processed and an
    unprocessed edge, over all positions of the edge scan."""
    intro, last = _edge_span(g)
    enter: dict[int, int] = {}
    leave: dict[int, int] = {}
    for w, i in intro.items():
        enter[i] = enter.get(i, 0) + 1
    for w, i in last.items():
        leave[i] = leave.get(i, 0) + 1
    width = 0
    active = 0
    for i in range(1, len(g.edges) + 1):
        active += enter.get(i, 0) - leave.get(i, 0)
        if active > width:
            width = active
    return width


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
            raise ValueError(f"terminal vertex {w} outside 1..{n}")
    if s == t:
        raise ValueError("source and target must differ")
    hamiltonian = kind == "hamiltonian"

    intro, last = _edge_span(g)
    if s not in intro or t not in intro:
        return ZERO
    if hamiltonian and len(intro) < n:
        return ZERO

    # introduced[i]: number of vertices first seen at edge <= i
    introduced = [0] * (m + 1)
    for w, i in intro.items():
        introduced[i] += 1
    for i in range(1, m + 1):
        introduced[i] += introduced[i - 1]

    # domains[i]: sorted frontier after edge i; level-(i+1) states index into it
    domains: list[list[int]] = [[] for _ in range(m + 1)]
    for w in intro:
        for i in range(intro[w], last[w]):
            domains[i].append(w)
    for d in domains:
        d.sort()

    # Top-down sweep.  States are pairing tuples aligned to the level's
    # domain; equal tuples merge.  Branch targets are the next level's
    # state index, or _ACCEPT / _REJECT.
    transitions: list[list[tuple[int, int]]] = []
    configs: dict[tuple[int, ...], int] = {(): 0}
    for i in range(1, m + 1):
        u, v, _c = g.edges[i - 1]
        dom_prev = domains[i - 1]
        dom_next = domains[i]
        entering = [w for w in (u, v) if intro[w] == i]
        working = dom_prev + entering
        retiring = [w for w in working if last[w] == i]
        complete_ok = not hamiltonian or introduced[i] == n

        def finalize(mate: dict[int, int]) -> tuple[int, ...] | None:
            for w in retiring:
                mw = mate[w]
                if w == s or w == t:
                    # an endpoint may retire once matched, never untouched
                    if mw == w:
                        return None
                elif hamiltonian:
                    if mw != USED:
                        return None
                elif mw != w and mw != USED:
                    return None
            return tuple(mate[w] for w in dom_next)

        level: list[tuple[int, int]] = [(_REJECT, _REJECT)] * len(configs)
        next_configs: dict[tuple[int, ...], int] = {}

        def target_of(state: tuple[int, ...] | None) -> int:
            if state is None:
                return _REJECT
            idx = next_configs.get(state)
            if idx is None:
                idx = len(next_configs)
                next_configs[state] = idx
            return idx

        for state, idx in configs.items():
            mate = dict(zip(dom_prev, state))
            for w in entering:
                mate[w] = w

            lo_t = target_of(finalize(mate))

            hi_t = _REJECT
            mu = mate[u]
            mv = mate[v]
            if mu != USED and mv != USED:
                if not ((u == s or u == t) and mu != u) and not (
                    (v == s or v == t) and mv != v
                ) and mu != v:
                    a, b = mu, mv
                    if (a == s and b == t) or (a == t and b == s):
                        # the s-t path closes; everything else must already
                        # be settled, all later edges are implicitly skipped
                        # u, v and the far ends a, b lie on the finished
                        # path; everyone else must be settled
                        ok = complete_ok
                        if ok:
                            for w in working:
                                if w == u or w == v or w == a or w == b:
                                    continue
                                mw = mate[w]
                                if hamiltonian:
                                    if mw != USED:
                                        ok = False
                                        break
                                elif mw != w and mw != USED:
                                    ok = False
                                    break
                        hi_t = _ACCEPT if ok else _REJECT
                    else:
                        merged = dict(mate)
                        if mu != u:
                            merged[u] = USED
                        if mv != v:
                            merged[v] = USED
                        # far ends may have retired; only s or t can, and
                        # their names persist in the partner's pairing
                        if a in merged:
                            merged[a] = b
                        if b in merged:
                            merged[b] = a
                        hi_t = target_of(finalize(merged))

            level[idx] = (lo_t, hi_t)

        transitions.append(level)
        configs = next_configs

    # Nothing may outlive the scan: an unfinished state has no s-t path.
    leftover = len(configs)

    # Bottom-up emission through make_node keeps the result canonical.
    next_ids = [ZERO] * leftover
    for i in range(m, 0, -1):
        level = transitions[i - 1]
        ids = []
        for lo_t, hi_t in level:
            lo_id = ZERO if lo_t == _REJECT else ONE if lo_t == _ACCEPT else next_ids[lo_t]
            hi_id = ZERO if hi_t == _REJECT else ONE if hi_t == _ACCEPT else next_ids[hi_t]
            ids.append(forest.make_node(i, lo_id, hi_id))
        next_ids = ids
    return next_ids[0]
