"""Graph generators and the seeded PRNG used for every random corpus.

All randomness flows through SplitMix64 (Steele, Lea & Flood's mixer;
increment 0x9E3779B97F4A7C15 and the two finalizer multipliers are the
published constants), so corpora are reproducible bit-for-bit across
runs and platforms.
"""
from __future__ import annotations

import heapq
import itertools
from typing import Iterator, Sequence

from .graphs import Graph, GraphError, build_graph

_MASK64 = (1 << 64) - 1


def splitmix64_next(state: int) -> tuple[int, int]:
    """One SplitMix64 step: (output, next state)."""
    state = (state + 0x9E3779B97F4A7C15) & _MASK64
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31), state


class SplitMix64:
    """Imperative wrapper around :func:`splitmix64_next`."""

    def __init__(self, seed: int):
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        value, self._state = splitmix64_next(self._state)
        return value

    def below(self, n: int) -> int:
        """Uniform integer in [0, n) via top-bits rejection (unbiased)."""
        if n <= 0:
            raise ValueError(f"below() needs a positive bound, got {n}")
        bits = (n - 1).bit_length() or 1
        while True:
            r = self.next_u64() >> (64 - bits)
            if r < n:
                return r

def path_graph(n: int) -> Graph:
    if n < 2:
        raise GraphError(f"path_graph needs n >= 2, got {n}")
    return build_graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise GraphError(f"cycle_graph needs n >= 3, got {n}")
    return build_graph(n, [(i, (i + 1) % n) for i in range(n)])


def star_graph(n: int) -> Graph:
    """Star on n vertices with center 0."""
    if n < 2:
        raise GraphError(f"star_graph needs n >= 2, got {n}")
    return build_graph(n, [(0, i) for i in range(1, n)])


def grid_graph(m: int, n: int) -> Graph:
    """m x n grid, row-major vertex ids; matches path(m) x path(n) product."""
    if m < 1 or n < 1:
        raise GraphError(f"grid_graph needs m, n >= 1, got {m}, {n}")
    edges = []
    for i in range(m):
        for j in range(n):
            if j + 1 < n:
                edges.append((i * n + j, i * n + j + 1))
            if i + 1 < m:
                edges.append((i * n + j, (i + 1) * n + j))
    return build_graph(m * n, edges)


def prufer_decode(seq: Sequence[int], n: int) -> list[tuple[int, int]]:
    """Edges of the labeled tree encoded by a Pruefer sequence of length n-2."""
    if len(seq) != n - 2:
        raise GraphError(f"sequence length {len(seq)} does not match n={n}")
    degree = [1] * n
    for x in seq:
        if not 0 <= x < n:
            raise GraphError(f"sequence entry {x} out of range")
        degree[x] += 1
    leaves = [v for v in range(n) if degree[v] == 1]
    heapq.heapify(leaves)
    edges = []
    for x in seq:
        leaf = heapq.heappop(leaves)
        edges.append((leaf, x))
        degree[x] -= 1
        if degree[x] == 1:
            heapq.heappush(leaves, x)
    u = heapq.heappop(leaves)
    v = heapq.heappop(leaves)
    edges.append((u, v))
    return edges


def random_tree(n: int, seed: int) -> Graph:
    """Uniform labeled tree on n vertices, deterministic for a fixed seed."""
    if n < 2:
        raise GraphError(f"random_tree needs n >= 2, got {n}")
    if n == 2:
        return build_graph(2, [(0, 1)])
    rng = SplitMix64(seed)
    seq = [rng.below(n) for _ in range(n - 2)]
    return build_graph(n, prufer_decode(seq, n))


def all_labeled_trees(n: int) -> Iterator[Graph]:
    """Every labeled tree on n vertices, one per Pruefer sequence."""
    if n < 2:
        raise GraphError(f"all_labeled_trees needs n >= 2, got {n}")
    if n == 2:
        yield build_graph(2, [(0, 1)])
        return
    for seq in itertools.product(range(n), repeat=n - 2):
        yield build_graph(n, prufer_decode(seq, n))
