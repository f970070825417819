import random

import pytest

from costzdd.forest import ONE, ZERO, Forest
from costzdd.frontier import (
    Graph,
    bfs_edge_order,
    build_path_zdd,
    frontier_width,
    grid_graph,
)

from helpers import brute_paths, dfs_paths, random_edge_set


def paths_of(g, s, t, kind):
    fo = Forest(len(g.edges))
    f = build_path_zdd(fo, g, s, t, kind)
    return fo, f, set(fo.enumerate_sets(f, 1 << 22))


# ----------------------------------------------------------------------
# graphs


def test_graph_validate():
    Graph(3, [(1, 2, 5), (2, 3, -1)]).validate()
    with pytest.raises(ValueError):
        Graph(0, []).validate()
    with pytest.raises(ValueError):
        Graph(2, [(1, 3, 0)]).validate()
    with pytest.raises(ValueError):
        Graph(2, [(1, 1, 0)]).validate()
    with pytest.raises(ValueError):
        Graph(3, [(1, 2, 0), (2, 1, 9)]).validate()


def test_build_path_zdd_refuses_an_invalid_graph():
    bad = (
        Graph(3, [(1, 2, 1), (2, 5, 1), (5, 3, 1)]),  # vertex 5 does not exist
        Graph(3, [(1, 2, 1), (2, 2, 1), (2, 3, 1)]),  # self-loop
        Graph(3, [(1, 2, 1), (2, 1, 1), (2, 3, 1)]),  # duplicate edge
    )
    for g in bad:
        fo = Forest(3)
        with pytest.raises(ValueError):
            build_path_zdd(fo, g, 1, 3)
        assert len(fo) == 0


def test_grid_shape():
    for n in (1, 2, 4, 8, 10):
        g = grid_graph(n, 0, 9, seed=1)
        assert g.n_vertices == (n + 1) ** 2
        assert len(g.edges) == 2 * n * (n + 1)
        g.validate()


def test_grid_costs_deterministic():
    a = grid_graph(3, 10, 99, seed=5)
    b = grid_graph(3, 10, 99, seed=5)
    assert a.edges == b.edges
    c = grid_graph(3, 10, 99, seed=6)
    assert a.edges != c.edges
    # the documented draw: one randint per edge, in edge order
    want = random.Random(5)
    assert [e[2] for e in a.edges] == [
        want.randint(10, 99) for _ in range(len(a.edges))
    ]
    assert all(10 <= e[2] <= 99 for e in a.edges)


def test_grid_rejects_bad_arguments():
    with pytest.raises(ValueError):
        grid_graph(0, 1, 2, seed=0)
    with pytest.raises(ValueError):
        grid_graph(2, 5, 4, seed=0)


def test_frontier_width_values():
    assert frontier_width(Graph(2, [(1, 2, 0)])) == 0
    assert frontier_width(grid_graph(1, 0, 0, seed=0)) == 2
    for n in (2, 3, 6):
        assert frontier_width(grid_graph(n, 0, 0, seed=0)) <= n + 2


def test_bfs_edge_order_improves_a_scrambled_line():
    line = [(4, 5), (1, 2), (7, 8), (3, 4), (5, 6), (2, 3), (6, 7)]
    g = Graph(8, [(u, v, 10 * u + v) for u, v in line])
    assert frontier_width(g) > 2
    h = bfs_edge_order(g, 1)
    assert frontier_width(h) == 1  # each inner vertex retires as it arrives
    assert sorted(h.edges) == sorted(g.edges)  # a permutation, costs riding along
    _fo, _f, left = paths_of(g, 1, 8, "simple")
    _fo2, _f2, right = paths_of(h, 1, 8, "simple")
    assert len(left) == len(right) == 1
    with pytest.raises(ValueError):
        bfs_edge_order(g, 9)


# ----------------------------------------------------------------------
# path construction, tiny cases worked by hand
#
# grid_graph(1) is the unit square: vertices 1 2 / 3 4,
# edges 1:(1,2) 2:(1,3) 3:(2,4) 4:(3,4).


def test_unit_square_simple_paths():
    g = grid_graph(1, 0, 0, seed=0)
    _fo, _f, got = paths_of(g, 1, 4, "simple")
    assert got == {(1, 3), (2, 4)}


def test_unit_square_hamiltonian_corner_is_empty():
    g = grid_graph(1, 0, 0, seed=0)
    _fo, f, got = paths_of(g, 1, 4, "hamiltonian")
    assert f == ZERO and got == set()


def test_unit_square_hamiltonian_adjacent():
    g = grid_graph(1, 0, 0, seed=0)
    _fo, _f, got = paths_of(g, 1, 2, "hamiltonian")
    assert got == {(2, 3, 4)}


def test_single_edge_graph():
    g = Graph(2, [(1, 2, 7)])
    fo, f, got = paths_of(g, 1, 2, "simple")
    assert got == {(1,)}
    assert f == fo.from_itemset((1,))
    _fo2, _f2, ham = paths_of(g, 1, 2, "hamiltonian")
    assert ham == {(1,)}


def test_disconnected_terminals_give_empty_family():
    g = Graph(4, [(1, 2, 0), (3, 4, 0)])
    assert paths_of(g, 1, 3, "simple")[1] == ZERO
    assert paths_of(g, 1, 3, "hamiltonian")[1] == ZERO


def test_isolated_vertex_cases():
    g = Graph(3, [(1, 2, 0)])
    # s or t never touched by any edge
    assert paths_of(g, 1, 3, "simple")[1] == ZERO
    assert paths_of(g, 3, 2, "simple")[1] == ZERO
    # a bystander vertex is fine for simple paths, fatal for hamiltonian
    assert paths_of(g, 1, 2, "simple")[2] == {(1,)}
    assert paths_of(g, 1, 2, "hamiltonian")[1] == ZERO


# ----------------------------------------------------------------------
# randomized cross-checks against two independent oracles


def test_matches_brute_force_on_random_graphs():
    rng = random.Random(211)
    for trial in range(150):
        n = rng.randint(2, 6)
        m = rng.randint(1, min(10, n * (n - 1) // 2))
        pairs = random_edge_set(rng, n, m)
        edges = [(u, v, rng.randint(-9, 9)) for u, v in pairs]
        s = rng.randint(1, n)
        t = rng.randint(1, n - 1)
        if t >= s:
            t += 1
        kind = "hamiltonian" if trial % 2 else "simple"
        fo, f, got = paths_of(Graph(n, edges), s, t, kind)
        assert got == brute_paths(n, edges, s, t, kind)
        fo.validate()


def test_matches_walk_enumeration_on_grids():
    for n, s_t in ((1, (1, 4)), (2, (1, 9)), (3, (1, 16))):
        g = grid_graph(n, 1, 5, seed=n)
        s, t = s_t
        for kind in ("simple", "hamiltonian"):
            _fo, _f, got = paths_of(g, s, t, kind)
            assert got == dfs_paths(g.n_vertices, g.edges, s, t, kind)


def test_known_corner_path_counts():
    # classic self-avoiding-walk counts between opposite corners
    for n, want in ((1, 2), (2, 12), (3, 184), (4, 8512)):
        g = grid_graph(n, 0, 0, seed=0)
        fo = Forest(len(g.edges))
        f = build_path_zdd(fo, g, 1, (n + 1) ** 2, "simple")
        assert fo.count(f) == want
    assert fo.count(f) == len(dfs_paths(g.n_vertices, g.edges, 1, 25, "simple"))


def test_members_are_paths():
    g = grid_graph(2, 1, 9, seed=3)
    for kind in ("simple", "hamiltonian"):
        fo, f, got = paths_of(g, 1, 9, kind)
        assert got  # both kinds exist on this grid
        for member in got:
            deg = {}
            for i in member:
                u, v, _c = g.edges[i - 1]
                deg[u] = deg.get(u, 0) + 1
                deg[v] = deg.get(v, 0) + 1
            assert deg[1] == 1 and deg[9] == 1
            assert all(d == 2 for w, d in deg.items() if w not in (1, 9))
            if kind == "hamiltonian":
                assert len(deg) == g.n_vertices


def test_hamiltonian_paths_are_simple_paths():
    for seed in (1, 2):
        g = grid_graph(2, 1, 9, seed=seed)
        fo = Forest(len(g.edges))
        simple = build_path_zdd(fo, g, 1, 9, "simple")
        ham = build_path_zdd(fo, g, 1, 9, "hamiltonian")
        assert fo.difference(ham, simple) == ZERO
        assert fo.count(ham) < fo.count(simple)


def test_result_is_canonical():
    g = grid_graph(2, 1, 9, seed=7)
    fo = Forest(len(g.edges))
    f = build_path_zdd(fo, g, 1, 9, "simple")
    rebuilt = fo.from_sets(fo.enumerate_sets(f, 10_000))
    assert rebuilt == f


# ----------------------------------------------------------------------
# argument errors


def test_build_rejects_bad_arguments():
    g = grid_graph(1, 0, 0, seed=0)
    fo = Forest(4)
    with pytest.raises(ValueError):
        build_path_zdd(fo, g, 1, 1, "simple")
    with pytest.raises(ValueError):
        build_path_zdd(fo, g, 0, 4, "simple")
    with pytest.raises(ValueError):
        build_path_zdd(fo, g, 1, 5, "simple")
    with pytest.raises(ValueError):
        build_path_zdd(fo, g, 1, 4, "shortest")
    with pytest.raises(ValueError):
        build_path_zdd(Forest(3), g, 1, 4, "simple")  # item count mismatch
