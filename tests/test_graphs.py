import pytest
from hypothesis import given, settings, strategies as st

from treecops import (
    GraphError,
    add_leaf,
    bfs_distances,
    build_graph,
    cartesian_product,
    diameter,
    diametral_path,
    format_graph,
    grid_graph,
    parse_graph,
    path_graph,
    random_tree,
    star_graph,
)
from treecops.graphs import bfs_parents
from treecops.trees import dist_rows, hop_rows


def test_build_path2():
    g = build_graph(2, [(0, 1)])
    assert g.adjacency == ((1,), (0,))


def test_build_4cycle():
    g = build_graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    assert g.edge_count == 4
    assert all(g.degree(v) == 2 for v in range(4))


def test_build_disconnected_rejected():
    with pytest.raises(GraphError, match="disconnected"):
        build_graph(3, [(0, 1)])


def test_build_self_loop_rejected():
    with pytest.raises(GraphError, match="self-loop"):
        build_graph(2, [(0, 0), (0, 1)])


def test_build_out_of_range_rejected():
    with pytest.raises(GraphError, match="out of range"):
        build_graph(2, [(0, 2)])


def test_build_duplicate_edges_merged():
    g = build_graph(2, [(0, 1), (1, 0), (0, 1)])
    assert g.edge_count == 1


def test_bfs_path():
    assert bfs_distances(path_graph(4), 0) == [0, 1, 2, 3]


def test_bfs_cycle():
    g = build_graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    assert bfs_distances(g, 0) == [0, 1, 2, 1]


def test_bfs_grid_corner():
    assert max(bfs_distances(grid_graph(3, 3), 0)) == 4


def test_diameter_path():
    for n in range(2, 8):
        assert diameter(path_graph(n)) == n - 1


def test_diameter_single_edge():
    assert diameter(path_graph(2)) == 1


def test_product_diameter_adds():
    prod = cartesian_product(path_graph(3), path_graph(4))
    assert diameter(prod.flat) == 5


def test_diametral_path_on_path():
    assert diametral_path(path_graph(3)) in ([0, 1, 2], [2, 1, 0])


def test_diametral_path_star():
    path = diametral_path(star_graph(4))
    assert len(path) == 3
    assert path[1] == 0  # center


def test_diametral_path_random_tree_matches_all_pairs_oracle():
    t = random_tree(9, 7)
    # Independent oracle: diameter by exhaustive all-pairs BFS.
    oracle = max(max(bfs_distances(t, s)) for s in range(9))
    assert len(diametral_path(t)) - 1 == oracle


def test_diametral_path_rejects_single_vertex():
    g = build_graph(1, [])
    with pytest.raises(GraphError):
        diametral_path(g)


def test_add_leaf():
    g = add_leaf(path_graph(3), 2)
    assert g.vertex_count == 4
    assert g.has_edge(2, 3)
    assert diameter(g) == 3


def test_graph_text_roundtrip():
    g = grid_graph(2, 3)
    text = format_graph(g)
    assert text.splitlines()[0] == "6 7"
    assert parse_graph(text).adjacency == g.adjacency


def test_graph_text_comments_skipped():
    g = parse_graph("# a comment\n2 1\n0 1\n")
    assert g.vertex_count == 2


def test_graph_text_bad_header():
    with pytest.raises(GraphError):
        parse_graph("2\n0 1\n")


# --- properties ---------------------------------------------------------------

tree_instances = st.builds(
    random_tree,
    st.integers(min_value=2, max_value=12),
    st.integers(min_value=0, max_value=2**32),
)


@given(tree_instances)
@settings(max_examples=60, deadline=None)
def test_distances_symmetric_and_triangle(t):
    n = t.vertex_count
    dist = [bfs_distances(t, s) for s in range(n)]
    for u in range(n):
        for v in range(n):
            assert dist[u][v] == dist[v][u]
            for w in range(n):
                assert dist[u][w] <= dist[u][v] + dist[v][w]


@given(tree_instances, tree_instances)
@settings(max_examples=30, deadline=None)
def test_product_diameter_additive(t1, t2):
    prod = cartesian_product(t1, t2)
    assert diameter(prod.flat) == diameter(t1) + diameter(t2)


@given(tree_instances)
@settings(max_examples=60, deadline=None)
def test_diametral_endpoints_are_leaves(t):
    path = diametral_path(t)
    assert len(path) - 1 == diameter(t)
    assert t.degree(path[0]) == 1
    assert t.degree(path[-1]) == 1


@given(tree_instances, st.data())
@settings(max_examples=40, deadline=None)
def test_center_has_small_eccentricity(t, data):
    # Eccentricity of the diametral-path center vertex never exceeds
    # ceil(diam / 2).
    from treecops import center_start

    d = diameter(t)
    assert max(bfs_distances(t, center_start(t))) <= (d + 1) // 2


def _walk_is_descendant(depth, parent, ancestor, v):
    # Reference: climb from v to the ancestor's depth along parent links.
    while depth[v] > depth[ancestor]:
        v = parent[v]
    return v == ancestor


def _rows_by_source(t):
    """The tree's distance and hop rows, each list indexed by source."""
    hop = hop_rows(t)
    dist = dist_rows(t, hop)
    assert len(dist) == len(hop) == t.vertex_count
    return dist, hop


_NAVIGATION_TREES = [random_tree(n, seed) for n, seed in ((9, 1), (14, 2), (23, 3), (31, 4))]
_NAVIGATION_TREES += [path_graph(7), star_graph(6)]


@pytest.mark.parametrize("t", _NAVIGATION_TREES)
def test_is_descendant_matches_parent_walk(t):
    # The identity ProductTwoCop checks containment with: a lies on the
    # root-to-v path exactly when d(root, a) + d(a, v) = d(root, v).
    n = t.vertex_count
    dist = _rows_by_source(t)[0]
    for root in range(n):
        depth, parent = bfs_parents(t, root)
        top = dist[root]
        for a in range(n):
            for v in range(n):
                assert (top[a] + dist[a][v] == top[v]) == _walk_is_descendant(depth, parent, a, v)


@pytest.mark.parametrize("t", _NAVIGATION_TREES)
def test_next_hop_table_matches_step_toward(t):
    dist, hop = _rows_by_source(t)
    for to in range(t.vertex_count):
        assert dist[to] == bfs_distances(t, to)
        assert hop[to][to] == to
        for frm in range(t.vertex_count):
            if frm != to:  # the one neighbour of frm a step closer to `to`
                assert hop[to][frm] in t.adjacency[frm]
                assert dist[to][hop[to][frm]] == dist[to][frm] - 1


def test_next_hop_table_rejects_non_trees():
    with pytest.raises(GraphError):
        hop_rows(grid_graph(2, 2))


def test_both_row_tables_reject_non_trees():
    # dist_rows is given a BFS parent row per source, as hop rows would be.
    g = grid_graph(2, 3)
    hop = [bfs_parents(g, s)[1] for s in range(g.vertex_count)]
    with pytest.raises(GraphError, match="hop_rows requires a tree"):
        hop_rows(g)
    with pytest.raises(GraphError, match="dist_rows requires a tree"):
        dist_rows(g, hop)


_REROOTED_TREES = [path_graph(2), path_graph(60), path_graph(500), star_graph(40), star_graph(500)]
_REROOTED_TREES += [random_tree(n, seed) for n, seed in ((3, 1), (17, 2), (64, 3), (200, 1000),
                                                         (500, 7))]
_REROOTED_TREES += [add_leaf(t, diametral_path(t)[-1]) for t in (random_tree(499, 1003),
                                                                path_graph(30))]


@pytest.mark.parametrize("t", _REROOTED_TREES, ids=lambda t: f"n{t.vertex_count}")
def test_rerooted_rows_equal_bfs_rows(t):
    # Every re-rooted row pair is the one a BFS from its source gives.
    dist, hop = _rows_by_source(t)
    for source in range(t.vertex_count):
        want_dist, want_hop = bfs_parents(t, source)
        want_hop[source] = source
        assert dist[source] == want_dist
        assert hop[source] == want_hop
