"""Undirected simple connected graphs with on-demand BFS metrics.

Graphs are immutable after construction and safe to share between
concurrent computations.  Distances are always computed by BFS when
asked for; nothing is cached on the graph itself.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Iterable, Iterator


class InputError(ValueError):
    """A value supplied from outside the package was rejected.

    The command line maps it, and only it among ``ValueError``s, to the
    input-error exit code; a bare ``ValueError`` is a bug.
    """


class GraphError(InputError):
    """Structurally invalid graph input (self-loop, bad id, disconnected)."""


@dataclass(frozen=True)
class Graph:
    """Adjacency-list graph on vertex ids 0..vertex_count-1.

    Construct through :func:`build_graph` unless validity (symmetric,
    simple, connected) is guaranteed by the caller.
    """

    vertex_count: int
    adjacency: tuple[tuple[int, ...], ...]

    def closed_neighborhood(self, u: int) -> tuple[int, ...]:
        """N[u]: u together with its neighbors, sorted."""
        return tuple(sorted((u, *self.adjacency[u])))

    def degree(self, u: int) -> int:
        return len(self.adjacency[u])

    def has_edge(self, u: int, v: int) -> bool:
        return v in self.adjacency[u]

    @property
    def edge_count(self) -> int:
        return sum(len(nbrs) for nbrs in self.adjacency) // 2

    def edges(self) -> Iterator[tuple[int, int]]:
        """All edges as (u, v) with u < v, in sorted order."""
        for u, nbrs in enumerate(self.adjacency):
            for v in nbrs:
                if u < v:
                    yield (u, v)


def build_graph(n: int, edges: Iterable[tuple[int, int]]) -> Graph:
    """Validate and build a graph; duplicate edges are silently merged.

    Raises GraphError naming the defect for self-loops, out-of-range
    vertex ids, and disconnected inputs.
    """
    if n < 1:
        raise GraphError(f"vertex count must be positive, got {n}")
    nbr_sets: list[set[int]] = [set() for _ in range(n)]
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise GraphError(f"edge ({u}, {v}) out of range for {n} vertices")
        if u == v:
            raise GraphError(f"self-loop at vertex {u}")
        nbr_sets[u].add(v)
        nbr_sets[v].add(u)
    g = Graph(n, tuple(tuple(sorted(s)) for s in nbr_sets))
    reached = sum(1 for d in bfs_distances(g, 0) if d >= 0)
    if reached != n:
        raise GraphError(f"graph is disconnected: BFS from 0 reaches {reached} of {n} vertices")
    return g


def bfs_distances(g: Graph, source: int) -> list[int]:
    """Exact shortest-path distances from source; -1 marks unreachable."""
    return bfs_parents(g, source)[0]


def bfs_parents(g: Graph, source: int) -> tuple[list[int], list[int]]:
    """(distances, parents) of the BFS tree from source; parent[source] = -1.

    Neighbors are scanned in sorted order, so the BFS tree (and every
    path reconstructed from it) is deterministic.
    """
    dist = [-1] * g.vertex_count
    parent = [-1] * g.vertex_count
    dist[source] = 0
    queue = deque([source])
    while queue:
        u = queue.popleft()
        du = dist[u]
        for v in g.adjacency[u]:
            if dist[v] < 0:
                dist[v] = du + 1
                parent[v] = u
                queue.append(v)
    return dist, parent


def diameter(g: Graph) -> int:
    """Maximum distance between any two vertices, by all-sources BFS."""
    return max(max(bfs_distances(g, s)) for s in range(g.vertex_count))


def is_tree(g: Graph) -> bool:
    return g.edge_count == g.vertex_count - 1


# --- plain text format ------------------------------------------------------
#
# Line 1: "n m"; then m lines "u v" with 0-based ids.  Lines starting
# with '#' are comments.  LF line endings.


def format_graph(g: Graph) -> str:
    lines = [f"{g.vertex_count} {g.edge_count}"]
    lines.extend(f"{u} {v}" for u, v in g.edges())
    return "\n".join(lines) + "\n"


def parse_graph(text: str) -> Graph:
    rows = [ln.strip() for ln in text.splitlines()]
    rows = [ln for ln in rows if ln and not ln.startswith("#")]
    if not rows:
        raise GraphError("empty graph text")
    head = rows[0].split()
    if len(head) != 2:
        raise GraphError(f"bad header line: {rows[0]!r}")
    try:
        n, m = int(head[0]), int(head[1])
    except ValueError:
        raise GraphError(f"bad header line: {rows[0]!r}") from None
    if len(rows) - 1 != m:
        raise GraphError(f"header promises {m} edges, found {len(rows) - 1}")
    edges = []
    for ln in rows[1:]:
        parts = ln.split()
        if len(parts) != 2:
            raise GraphError(f"bad edge line: {ln!r}")
        try:
            edges.append((int(parts[0]), int(parts[1])))
        except ValueError:
            raise GraphError(f"bad edge line: {ln!r}") from None
    return build_graph(n, edges)
