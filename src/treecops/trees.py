"""Tree navigation: diametral paths, next-hop rows for every source by
re-rooting, distance rows read from them, and leaf extension."""
from __future__ import annotations

from .graphs import Graph, GraphError, bfs_distances, bfs_parents, is_tree


def diametral_path(t: Graph) -> list[int]:
    """A longest path in the tree, found by double BFS.

    Both endpoints are leaves and the length equals the diameter.
    Rejects single-vertex trees (diameter 0).
    """
    if not is_tree(t):
        raise GraphError("diametral_path requires a tree")
    if t.vertex_count < 2:
        raise GraphError("diametral_path requires diameter > 0")
    # Each end is the smallest id among the farthest, for deterministic paths.
    dist0 = bfs_distances(t, 0)
    a = dist0.index(max(dist0))
    dist_a, parent_a = bfs_parents(t, a)
    b = dist_a.index(max(dist_a))
    path = [b]
    while path[-1] != a:
        path.append(parent_a[path[-1]])
    path.reverse()
    return path


def hop_rows(t: Graph) -> list[list[int]]:
    """hop[s] for every source s of a tree: hop[s][frm] is the first step
    from frm toward s (hop[s][s] = s), frm's parent when the tree hangs
    from s.

    Re-rooting: one BFS from vertex 0 gives hop[0], its parent row.  Every
    other source s comes after its parent p in that BFS order.  Toward s
    every vertex steps as it does toward p, apart from p, which steps onto
    s, and s itself, so hop[s] is hop[p] with hop[s][p] = hop[s][s] = s.
    """
    if not is_tree(t):
        raise GraphError("hop_rows requires a tree")
    dist0, parent = bfs_parents(t, 0)
    parent[0] = 0
    hop = [parent] * t.vertex_count
    for s in sorted(range(1, t.vertex_count), key=dist0.__getitem__):
        p = parent[s]
        row = hop[s] = hop[p].copy()
        row[p] = row[s] = s
    return hop


def dist_rows(t: Graph, hop: list[list[int]]) -> list[list[int]]:
    """dist[s] for every source s of a tree: dist[s][v] is the distance
    from s to v.  `hop` is the tree's hop_rows.

    One BFS from vertex 0 gives dist[0].  Every other source s comes after
    its parent p = hop[0][s] in that BFS order.  Seen from s instead of p,
    a vertex v comes one step closer when the first step from p toward v
    is s (hop[v][p] == s), and moves one step away otherwise.
    """
    if not is_tree(t):
        raise GraphError("dist_rows requires a tree")
    dist0 = bfs_distances(t, 0)
    dist = [dist0] * t.vertex_count
    for s in sorted(range(1, t.vertex_count), key=dist0.__getitem__):
        p = hop[0][s]
        dist[s] = [d - 1 if row[p] == s else d + 1 for d, row in zip(dist[p], hop)]
    return dist


def add_leaf(t: Graph, at: int) -> Graph:
    """A copy of the tree with one extra leaf attached to `at`.

    The new leaf gets id t.vertex_count; existing ids are unchanged.
    """
    n = t.vertex_count
    adjacency = [list(nbrs) for nbrs in t.adjacency]
    adjacency[at] = sorted(adjacency[at] + [n])
    adjacency.append([at])
    return Graph(n + 1, tuple(tuple(nbrs) for nbrs in adjacency))
