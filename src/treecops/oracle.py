"""The naive oracle: the game recurrence by plain value iteration.

It is the independent check of :func:`treecops.solver.solve`, so it
shares no code with it beyond the result types: it keeps cop tuples
ordered while it iterates (no canonicalization), builds its own closed
neighbourhoods, and moves the cops by ``itertools.product`` over them.

Both halves of a round are iterated together over the ordered states
(t, r) with r not in t, starting from +infinity (``math.inf``, read
back as ESCAPE) and sweeping until a full sweep changes nothing:

    F(t, r) = min over c' in M(t) of (1 if r in c' else 1 + R(c', r))
    R(t, r) = max over r' in N[r] minus t of F(t, r')

F is taken with the cops to move (the cops-first table) and R with the
robber to move (the robber-first table).  Captured states hold 0, so
the sweep evaluates F(t, r) as 1 + the min of R(c', r) over all of
M(t), and R(t, r) as the max of F(t, r') over all of N[r], which holds
the free r.  The values only fall, so the sweeps stop.
"""
from __future__ import annotations

import itertools
import math

from .engine import (
    ESCAPE,
    CaptureValue,
    InputError,
    MoveOrder,
    ResourceBudgetError,
    Side,
    _HALF_MOVES,
)
from .graphs import Graph
from .solver import SolveResult, ValueTable

DEFAULT_NAIVE_BUDGET = 1_000_000


def _project(value, ordered: list[tuple[int, ...]], n: int):
    """{(sorted tuple, robber): value(i, r)}, checking invariance under cop permutations."""
    canonical: dict[tuple[tuple[int, ...], int], CaptureValue] = {}
    for i, t in enumerate(ordered):
        key = tuple(sorted(t))
        for r in range(n):
            if r in t:
                continue
            v = value(i, r)
            v = ESCAPE if v == math.inf else v
            old = canonical.setdefault((key, r), v)
            if old != v:
                raise AssertionError(
                    f"value not invariant under cop permutation at {(key, r)}: {old} vs {v}"
                )
    return canonical


def naive_value_iteration(
    g: Graph,
    k: int,
    order: MoveOrder = MoveOrder.ROBBER_FIRST,
    *,
    state_budget: int = DEFAULT_NAIVE_BUDGET,
) -> SolveResult:
    """Same values as :func:`treecops.solver.solve`, for both halves, by value iteration.

    ``order`` picks which half is the table's ``value`` and which its
    ``other``; the capture time and central tuples come from ``value``.
    The projection onto sorted tuples checks permutation invariance and
    doubles as the canonicalization soundness oracle.
    """
    if k < 1:
        raise InputError("naive_value_iteration needs k >= 1")
    n = g.vertex_count
    if n ** (k + 1) > state_budget:
        raise ResourceBudgetError(
            f"naive oracle budget exceeded: {n ** (k + 1)} > {state_budget}",
            n ** (k + 1),
        )
    closed = [tuple(sorted((v, *g.adjacency[v]))) for v in range(n)]
    ordered = list(itertools.product(range(n), repeat=k))
    position = {t: i for i, t in enumerate(ordered)}
    moves = [[position[c] for c in itertools.product(*(closed[c] for c in t))]
             for t in ordered]
    free = [[r for r in range(n) if r not in t] for t in ordered]
    # F[i][r] and R[r][i] hold the values of (ordered[i], r), R by robber
    # so that the min over moves reads one list; captured states hold 0
    # and are never swept.
    F = [[0 if r in t else math.inf for r in range(n)] for t in ordered]
    R = [[0 if r in t else math.inf for t in ordered] for r in range(n)]
    changed = True
    while changed:
        changed = False
        for i, (F_i, moves_i, free_i) in enumerate(zip(F, moves, free)):
            for r in free_i:
                v = 1 + min(map(R[r].__getitem__, moves_i))
                if v != F_i[r]:
                    F_i[r] = v
                    changed = True
            for r in free_i:
                v = max(map(F_i.__getitem__, closed[r]))
                if v != R[r][i]:
                    R[r][i] = v
                    changed = True

    half = {Side.COPS: lambda i, r: F[i][r], Side.ROBBER: lambda i, r: R[r][i]}
    first, second = _HALF_MOVES[order]
    # A captured robber counts 0, so the max may run over every r.
    worst = {t: max(half[first](i, r) for r in range(n))
             for i, t in enumerate(ordered) if list(t) == sorted(t)}
    capture_time = min(worst.values())
    central = tuple(t for t, w in worst.items() if w == capture_time != math.inf)
    table = ValueTable(g, k, order, _project(half[first], ordered, n),
                       _project(half[second], ordered, n))
    return SolveResult(ESCAPE if capture_time == math.inf else capture_time, central, table)
