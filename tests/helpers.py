"""Brute-force oracles shared by the tests.

Everything here is deliberately naive and independent of the library
internals: subsets are enumerated outright, paths are found by degree
and connectivity checks over all edge subsets.
"""

from itertools import combinations


def all_subsets(n):
    for r in range(n + 1):
        yield from combinations(range(1, n + 1), r)


def subset_cost(items, costs):
    return sum(costs[i - 1] for i in items)


def filter_by_cost(family, costs, b):
    return {tuple(x) for x in family if subset_cost(x, costs) <= b}


def brute_paths(n_vertices, edges, s, t, kind):
    """All edge subsets forming one s-t path, as tuples of 1-based indices."""
    out = set()
    for r in range(len(edges) + 1):
        for sub in combinations(range(len(edges)), r):
            deg = {}
            for i in sub:
                u, v, _c = edges[i]
                deg[u] = deg.get(u, 0) + 1
                deg[v] = deg.get(v, 0) + 1
            if deg.get(s) != 1 or deg.get(t) != 1:
                continue
            if any(d != 2 for w, d in deg.items() if w not in (s, t)):
                continue
            adj = {}
            for i in sub:
                u, v, _c = edges[i]
                adj.setdefault(u, []).append(v)
                adj.setdefault(v, []).append(u)
            seen = {s}
            stack = [s]
            while stack:
                u = stack.pop()
                for w in adj.get(u, []):
                    if w not in seen:
                        seen.add(w)
                        stack.append(w)
            if not all(w in seen for w in deg):
                continue
            if kind == "hamiltonian" and len(deg) != n_vertices:
                continue
            out.add(tuple(i + 1 for i in sorted(sub)))
    return out


def dfs_paths(n_vertices, edges, s, t, kind):
    """Same answer as brute_paths, found by extending walks instead of
    testing subsets.  Cheap enough for small grids."""
    adj = {}
    for i, (u, v, _c) in enumerate(edges):
        adj.setdefault(u, []).append((v, i + 1))
        adj.setdefault(v, []).append((u, i + 1))
    out = set()
    seen = {s}
    picked = []

    def walk(u):
        if u == t:
            if kind != "hamiltonian" or len(seen) == n_vertices:
                out.add(tuple(sorted(picked)))
            return
        for w, i in adj.get(u, ()):
            if w not in seen:
                seen.add(w)
                picked.append(i)
                walk(w)
                picked.pop()
                seen.remove(w)

    walk(s)
    return out


def brute_frontier_width(edges):
    """Per scan position i, the vertices with an edge at or before i and
    an edge after i; the largest such count (0 for no edges)."""
    width = 0
    for i in range(len(edges)):
        done = {w for u, v, _c in edges[: i + 1] for w in (u, v)}
        todo = {w for u, v, _c in edges[i + 1 :] for w in (u, v)}
        width = max(width, len(done & todo))
    return width


def random_edge_set(rng, n_vertices, n_edges):
    possible = [
        (u, v)
        for u in range(1, n_vertices + 1)
        for v in range(u + 1, n_vertices + 1)
    ]
    return rng.sample(possible, min(n_edges, len(possible)))


def random_family(rng, n_items, max_members=12):
    members = set()
    for _ in range(rng.randint(0, max_members)):
        size = rng.randint(0, n_items)
        members.add(tuple(sorted(rng.sample(range(1, n_items + 1), size))))
    return members
