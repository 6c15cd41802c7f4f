"""Rooted trees, heights, diametral paths, and tree navigation."""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .graphs import Graph, GraphError, bfs_distances, bfs_parents, is_tree


@dataclass(frozen=True)
class RootedTree:
    """A tree with a designated root plus parent/depth/height tables.

    height[v] is the greatest distance from v to a childless descendant
    (the root's non-leaf neighbors included): 0 exactly when v has no
    children, and strictly decreasing along every parent-to-child edge.

    entry[v] and exit[v] are pre-order indices: v's subtree holds exactly
    the vertices w with entry[v] <= entry[w] < exit[v], which makes
    :meth:`is_descendant` two comparisons.
    """

    base: Graph
    root: int
    parent: tuple[int | None, ...]
    depth: tuple[int, ...]
    height: tuple[int, ...]
    children: tuple[tuple[int, ...], ...]
    entry: tuple[int, ...]
    exit: tuple[int, ...]

    def is_descendant(self, ancestor: int, v: int) -> bool:
        """True iff ancestor lies on the root-to-v path (v counts as its own)."""
        return self.entry[ancestor] <= self.entry[v] < self.exit[ancestor]


def root_tree(t: Graph, root: int) -> RootedTree:
    if not is_tree(t):
        raise GraphError("root_tree requires a tree")
    n = t.vertex_count
    dist, par = bfs_parents(t, root)
    parent: list[int | None] = [p if p >= 0 else None for p in par]
    parent[root] = None
    children: list[list[int]] = [[] for _ in range(n)]
    order = sorted(range(n), key=lambda v: dist[v])
    for v in order:
        if v != root:
            children[parent[v]].append(v)
    height = [0] * n
    for v in reversed(order):
        if children[v]:
            height[v] = 1 + max(height[c] for c in children[v])
    # Pre-order numbering: a vertex's subtree is the contiguous block of
    # indices that starts at its own entry and has its subtree's size.
    entry = [0] * n
    size = [1] * n
    for v in reversed(order):
        if v != root:
            size[parent[v]] += size[v]
    next_index = 0
    stack = [root]
    while stack:
        v = stack.pop()
        entry[v] = next_index
        next_index += 1
        stack.extend(reversed(children[v]))
    return RootedTree(
        base=t,
        root=root,
        parent=tuple(parent),
        depth=tuple(dist),
        height=tuple(height),
        children=tuple(tuple(c) for c in children),
        entry=tuple(entry),
        exit=tuple(entry[v] + size[v] for v in range(n)),
    )


def _farthest(dist: list[int]) -> int:
    # Smallest id among the maximizers, for deterministic paths.
    best = 0
    for v, d in enumerate(dist):
        if d > dist[best]:
            best = v
    return best


def diametral_path(t: Graph) -> list[int]:
    """A longest path in the tree, found by double BFS.

    Both endpoints are leaves and the length equals the diameter.
    Rejects single-vertex trees (diameter 0).
    """
    if not is_tree(t):
        raise GraphError("diametral_path requires a tree")
    if t.vertex_count < 2:
        raise GraphError("diametral_path requires diameter > 0")
    dist0 = bfs_distances(t, 0)
    a = _farthest(dist0)
    dist_a, parent_a = bfs_parents(t, a)
    b = _farthest(dist_a)
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
