"""Tree navigation: diametral paths, re-rooted distance and next-hop rows
for every source, and leaf extension."""
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


def tree_rows(t: Graph) -> Iterator[tuple[int, list[int], list[int]]]:
    """(source, dist, hop) for every source s of a tree, in depth-first order.

    dist[v] is the distance from s to v.  hop[frm] is the first step from
    frm toward s (hop[s] = s): frm's parent when the tree hangs from s.

    Re-rooting: one BFS from vertex 0 gives the first rows.  Every other
    source s is reached from its parent p in the tree hung from 0, across
    the edge p-s.  Its distance row is p's plus one, minus two on s's
    subtree, whose vertices come one step closer while the rest move one
    step away.  Its hop row is p's with two entries changed: hop[p] = s
    and hop[s] = s.

    Order and held rows: the sources come in preorder from vertex 0, each
    vertex's children by ascending subtree size.  A vertex's rows are held
    only until its last (largest) child's rows are derived, and a leaf's
    are never held.  A held vertex's pending subtree is then at most half
    its own, so apart from the rows a caller keeps, at most log2(n) + 1
    row pairs are alive at once: a caller that keeps only the hop rows
    never holds all the distance rows.  A yielded row is read again to
    derive later rows, so callers must not change it.
    """
    if not is_tree(t):
        raise GraphError("tree_rows requires a tree")
    n = t.vertex_count
    dist0, parent = bfs_parents(t, 0)
    # Subtree sizes from the BFS order read backwards.
    bfs_order = sorted(range(n), key=dist0.__getitem__)
    size = [1] * n
    for v in reversed(bfs_order[1:]):
        size[parent[v]] += size[v]
    # Children by ascending subtree size, so the largest one comes last.
    children: list[list[int]] = [[] for _ in range(n)]
    for v in bfs_order[1:]:
        children[parent[v]].append(v)
    for kids in children:
        kids.sort(key=size.__getitem__)
    preorder, stack = [], [0]
    while stack:
        v = stack.pop()
        preorder.append(v)
        stack.extend(reversed(children[v]))
    first = [0] * n  # s's subtree is preorder[first[s]:first[s] + size[s]]
    for i, v in enumerate(preorder):
        first[v] = i

    hop0 = parent.copy()
    hop0[0] = 0
    held = {0: (dist0, hop0)}
    yield 0, dist0, hop0
    for s in preorder[1:]:
        p = parent[s]
        p_dist, p_hop = held.pop(p) if children[p][-1] == s else held[p]
        dist = [d + 1 for d in p_dist]
        for v in preorder[first[s]:first[s] + size[s]]:
            dist[v] -= 2
        hop = p_hop.copy()
        hop[p] = hop[s] = s
        if children[s]:
            held[s] = dist, hop
        yield s, dist, hop


def add_leaf(t: Graph, at: int) -> Graph:
    """A copy of the tree with one extra leaf attached to `at`.

    The new leaf gets id t.vertex_count; existing ids are unchanged.
    """
    n = t.vertex_count
    adjacency = [list(nbrs) for nbrs in t.adjacency]
    adjacency[at] = sorted(adjacency[at] + [n])
    adjacency.append([at])
    return Graph(n + 1, tuple(tuple(nbrs) for nbrs in adjacency))
