"""Tree navigation: diametral paths, next steps, all-pairs distance and
next-hop rows, and leaf extension."""
from __future__ import annotations

from typing import Iterator

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


def step_toward(t: Graph, frm: int, to: int) -> int:
    """The unique neighbor of `frm` on the frm-to path in the tree."""
    if frm == to:
        raise GraphError(f"step_toward from a vertex to itself ({frm})")
    dist = bfs_distances(t, to)
    for nb in t.adjacency[frm]:
        if dist[nb] == dist[frm] - 1:
            return nb
    raise GraphError(f"no step from {frm} toward {to}; graph is not a tree?")


def tree_rows(t: Graph) -> Iterator[tuple[list[int], list[int]]]:
    """(dist, hop) rows of a tree, one BFS per source s = 0, 1, ...

    dist[v] is the distance from s to v.  hop[frm] is the first step from
    frm toward s (hop[s] = s): in a tree that step is frm's parent when
    the tree hangs from s, so hop is the parent array of the same BFS.
    Rows are yielded one at a time, so a caller keeps only what it needs.
    """
    if not is_tree(t):
        raise GraphError("tree_rows requires a tree")
    for s in range(t.vertex_count):
        dist, hop = bfs_parents(t, s)
        hop[s] = s
        yield dist, hop


def add_leaf(t: Graph, at: int) -> Graph:
    """A copy of the tree with one extra leaf attached to `at`.

    The new leaf gets id t.vertex_count; existing ids are unchanged.
    """
    n = t.vertex_count
    adjacency = [list(nbrs) for nbrs in t.adjacency]
    adjacency[at] = sorted(adjacency[at] + [n])
    adjacency.append([at])
    return Graph(n + 1, tuple(tuple(nbrs) for nbrs in adjacency))
