"""Exact capture times by retrograde analysis.

State space and conventions
---------------------------

Values live on two-ply boundary states (cop tuple, robber vertex) with
the robber uncaptured; cop tuples are canonicalized as sorted multisets
because the value function cannot distinguish the cops.  Captured
states are implicitly 0 and never stored.

For robber-first rounds the stored value V is taken with the robber to
move and satisfies

    V(c, r) = max over r' in N[r] minus set(c) of
              min over c' in M(c) of (1 if r' in set(c') else 1 + V(c', r'))

where M(c) is the product of the cops' closed neighborhoods.  For
cops-first rounds the stored value W is taken with the cops to move:

    W(c, r) = min over c' in M(c) of
              (1 if r in set(c') else
               1 + max over r' in N[r] minus set(c') of W(c', r')).

States the propagation never resolves have value ESCAPE.  The capture
time of the graph is min over cop placements of the max over robber
placements (0 when the robber must place on a cop).

Algorithm
---------

One level-synchronous pass over Python-int bitmasks of robber vertices
computes both halves of the recurrence.  For each sorted cop tuple c it
keeps F[c], the states with the cops to move that are resolved (W, or
the inner min of V), and R[c], those with the robber to move (V, or
the inner max of W).  Level 1 sets F[c] = N[cop(c)] minus cop(c).  At
level t every tuple whose F grew gets R[c] = free(c) minus
N[free(c) minus F[c]]; the bits R[c'] gained are then pushed to each c
in M(c') (M is symmetric, so move lists double as predecessor lists)
and enter F[c] at level t + 1.  The pass stops when no R grows; the
bits never set are ESCAPE.  N[x] is the closed-neighbourhood dilation,
read from ceil(n/8) lookup tables of at most 256 masks, one per byte of
x, built per solve.

The move relation M is built without sorting or hashing a tuple per
move.  A nested rank table, pos[x1]...[xk] = index of
sorted((x1, ..., xk)), is built once per solve; it answers all n^k
ordered tuples, but rows of equal sorted prefixes are one shared list.
The moves of c are read by indexing it row by row over the cops' closed
neighbourhoods, and one set per tuple removes duplicates before the
list is stored.

A state's value is the level at which its bit appears.  Each half keeps
the values as bit planes (bit j of the value of (c, r) is bit r of
plane j of c), so the pass does no per-state work.  The move order only
selects the half a result exposes, the one of the side that moves
first (:meth:`ValueTable.half`): R for robber-first and F for
cops-first.  Both capture times come from one pass, and the optimal
strategies read both halves by one rule: look up the value of the best
reply in the mover's half, then take the first reply that attains it
in the other half.  R(c, r) is the max over the free r' in N[r] of
F(c, r'), so the robber's reply costs one R lookup for its value v and
a scan of N[r] for the first free r' with F(c, r') = v (ESCAPE
included).  Because the bits R[c'] gains reach F[c] for every c in
M(c'), F(c, r) is 1 + the min over c' in M(c) of V(c', r), or 1 when r
is in N[c] minus c; so the cops' reply costs one F lookup for its value
t, then a scan of the ordered replies for the first that lands on r
(t = 1) or has robber-to-move value t - 1.  The naive oracle that
checks both halves independently is :mod:`treecops.oracle`.

Inputs are immutable, a solve owns its tables exclusively until it
returns, and returned results are immutable, so independent solves can
run concurrently and results can be shared freely.
"""
from __future__ import annotations

import itertools
import math
from collections.abc import Mapping
from dataclasses import dataclass
from typing import Iterable

from .engine import (
    CaptureValue,
    CopStrategy,
    ESCAPE,
    GameState,
    Graph,
    InputError,
    MoveOrder,
    ResourceBudgetError,
    RobberStrategy,
    Side,
    _HALF_MOVES,
    is_escape,
)

DEFAULT_STATE_BUDGET = 50_000_000

StateKey = tuple[tuple[int, ...], int]


@dataclass(frozen=True, eq=False, repr=False)
class _Half(Mapping):
    """One half of a pass as a read-only {(sorted cop tuple, robber): value} map.

    Bit r of ``done[i]`` marks (tuples[i], r) resolved; the other free
    robber vertices escape.  Bit j of a resolved value is bit r of
    ``planes[j][i]``, and ``top[i]`` is the largest value of tuple i.
    """

    tuples: list[tuple[int, ...]]
    index: dict[tuple[int, ...], int]
    free: list[int]
    size: int
    done: list[int]
    top: list[int]
    planes: list[list[int]]

    def __getitem__(self, key: StateKey) -> CaptureValue:
        cops, r = key
        i = self.index.get(cops)
        if i is None or r < 0 or not self.free[i] >> r & 1:
            raise KeyError(key)
        if not self.done[i] >> r & 1:
            return ESCAPE
        value = 0
        for j, plane in enumerate(self.planes):
            if plane[i] >> r & 1:
                value |= 1 << j
        return value

    def __iter__(self):
        for t, free in zip(self.tuples, self.free):
            for r in range(free.bit_length()):
                if free >> r & 1:
                    yield (t, r)

    def __len__(self) -> int:
        return self.size

    def attains(self, i: int, r: int, v: CaptureValue) -> bool:
        """Whether free state (tuples[i], r) has value v: v >= 1, or ESCAPE.

        Compares plane by plane and stops at the first bit that differs.
        An unresolved state reads 0 on every plane, so it matches no int.
        """
        if v is ESCAPE:
            return not self.done[i] >> r & 1
        for plane in self.planes:
            if (plane[i] >> r ^ v) & 1:
                return False
            v >>= 1
        return not v


@dataclass(frozen=True)
class ValueTable:
    """Game values for every uncaptured (sorted cop tuple, robber) state.

    ``value`` is the half the move order stores, the one with the side
    that moves first in a round to move.  ``other`` is the other half.
    """

    graph: Graph
    cop_count: int
    move_order: MoveOrder
    value: Mapping[StateKey, CaptureValue]
    other: Mapping[StateKey, CaptureValue]

    def value_of(self, cops: Iterable[int], robber: int) -> CaptureValue:
        key = tuple(sorted(cops))
        if robber in key:
            return 0
        return self.value[(key, robber)]

    def half(self, side: Side) -> Mapping[StateKey, CaptureValue]:
        """The half with ``side`` to move."""
        return self.value if side is _HALF_MOVES[self.move_order][0] else self.other


@dataclass(frozen=True)
class SolveResult:
    capture_time: CaptureValue
    central_tuples: tuple[tuple[int, ...], ...]
    table: ValueTable


def dump_value_table(table: ValueTable) -> str:
    """Lines "c1 ... ck r v" with v an integer or ESC, sorted."""
    lines = []
    for (cops, r), v in sorted(table.value.items()):
        tag = "ESC" if is_escape(v) else str(v)
        lines.append(" ".join(str(c) for c in cops) + f" {r} {tag}\n")
    return "".join(lines)


def _closed_lists(g: Graph) -> list[tuple[int, ...]]:
    return [g.closed_neighborhood(v) for v in range(g.vertex_count)]


def _cop_configuration_space(g: Graph, k: int, closed):
    """Sorted cop tuples, their index, their cop bitmasks, and the move relation.

    ``moves[i]`` lists, once each and in no particular order, the
    indices of the sorted tuples the cops at ``tuples[i]`` reach in one
    half-move.  The relation is symmetric: c' is reachable from c iff c
    is reachable from c', so one table serves both as successor and
    predecessor map.  Bit v of ``masks[i]`` is set iff a cop of
    ``tuples[i]`` stands on v.
    """
    n = g.vertex_count
    tuples = list(itertools.combinations_with_replacement(range(n), k))
    index = {t: i for i, t in enumerate(tuples)}
    # Rank table: pos[x1]...[xk] is the index of sorted((x1, ..., xk)).
    # Rows are built per sorted prefix, so equal multisets share one row.
    level = index
    for size in range(k - 1, -1, -1):
        level = {m: [level[tuple(sorted(m + (x,)))] for x in range(n)]
                 for m in itertools.combinations_with_replacement(range(n), size)}
    pos = level[()]
    masks: list[int] = []
    moves: list[list[int]] = []
    for t in tuples:
        rows = [pos]
        for c in t[:-1]:
            rows = [row[x] for row in rows for x in closed[c]]
        last = closed[t[-1]]
        moves.append(list({row[x] for row in rows for x in last}))
        mask = 0
        for c in t:
            mask |= 1 << c
        masks.append(mask)
    return tuples, index, masks, moves


def _estimate_pairs(g: Graph, k: int) -> int:
    # Upper estimate of state-successor pairs without building anything big.
    n = g.vertex_count
    branch = (max(g.degree(v) for v in range(n)) + 1) ** k
    return math.comb(n + k - 1, k) * (2 * g.edge_count + n + n * branch)


def _retrograde(g: Graph, k: int) -> dict[Side, _Half]:
    """The two halves of one level-synchronous pass, by the side to move."""
    n = g.vertex_count
    closed = _closed_lists(g)
    tuples, index, masks, moves = _cop_configuration_space(g, k, closed)
    T = len(tuples)
    near = [sum(1 << u for u in closed[v]) for v in range(n)]
    tables = []  # tables[j][b] = N[b << 8j]
    for lo in range(0, n, 8):
        table = [0]
        for mask in near[lo:lo + 8]:
            table += [x | mask for x in table]
        tables.append(table)
    width = len(tables)
    free = [((1 << n) - 1) ^ cop for cop in masks]
    first = []  # first = F, last = R
    for t, cop in zip(tuples, masks):
        cov = 0
        for c in t:
            cov |= near[c]
        first.append(cov & ~cop)
    last = [0] * T
    top_first, top_last = [1 if f else 0 for f in first], [0] * T
    planes_first, planes_last = [first[:]], [[0] * T]
    dirty = [i for i in range(T) if first[i]]
    level = 1
    while dirty:
        # Robber to move: lost once every free vertex of N[r] is resolved.
        on = [p for j, p in enumerate(planes_last) if level >> j & 1]
        grew = []
        for i in dirty:
            reach = 0
            for table, b in zip(tables, (free[i] & ~first[i]).to_bytes(width, "little")):
                if b:
                    reach |= table[b]
            gain = free[i] & ~reach & ~last[i]
            if gain:
                last[i] |= gain
                top_last[i] = level
                for p in on:
                    p[i] |= gain
                grew.append((i, gain))
        level += 1
        if level.bit_length() > len(planes_first):
            planes_first.append([0] * T)
            planes_last.append([0] * T)
        # Cops to move: capture follows a reply into a lost state.
        push = [0] * T
        for i, gain in grew:
            for j in moves[i]:
                push[j] |= gain
        on = [p for j, p in enumerate(planes_first) if level >> j & 1]
        dirty = []
        for i in itertools.compress(range(T), push):
            gain = push[i] & free[i] & ~first[i]
            if gain:
                first[i] |= gain
                top_first[i] = level
                for pl in on:
                    pl[i] |= gain
                dirty.append(i)
    size = sum(f.bit_count() for f in free)
    return {
        Side.COPS: _Half(tuples, index, free, size, first, top_first, planes_first),
        Side.ROBBER: _Half(tuples, index, free, size, last, top_last, planes_last),
    }


def _capture(half: _Half) -> tuple[CaptureValue, tuple[tuple[int, ...], ...]]:
    """Capture time and central tuples: min over tuples of the max over robbers."""
    capture_time: CaptureValue = ESCAPE
    central: list[tuple[int, ...]] = []
    for t, free, done, worst in zip(half.tuples, half.free, half.done, half.top):
        if done != free:
            continue
        if is_escape(capture_time) or worst < capture_time:  # type: ignore[operator]
            capture_time = worst
            central = [t]
        elif worst == capture_time:
            central.append(t)
    return capture_time, tuple(central)


def solve(
    g: Graph,
    k: int,
    order: MoveOrder = MoveOrder.ROBBER_FIRST,
    *,
    state_budget: int = DEFAULT_STATE_BUDGET,
) -> SolveResult:
    """Exact capture time, central tuples, and the full value table."""
    if k < 1:
        raise InputError("solve needs k >= 1")
    # A solve stores every state and every cop of every tuple: refuse on
    # that count first, as a huge k makes (max degree + 1)^k too big.
    estimate = max(g.vertex_count, k) * math.comb(g.vertex_count + k - 1, k)
    if estimate <= state_budget:
        estimate = _estimate_pairs(g, k)
    if estimate > state_budget:
        raise ResourceBudgetError(
            f"solve budget exceeded: ~{estimate} state-successor pairs "
            f"> budget {state_budget}",
            estimate,
        )
    halves = _retrograde(g, k)
    first, second = _HALF_MOVES[order]
    capture_time, central = _capture(halves[first])
    return SolveResult(
        capture_time=capture_time,
        central_tuples=central,
        table=ValueTable(g, k, order, halves[first], halves[second]),
    )


def capture_time_both_orders(g: Graph, k: int) -> tuple[CaptureValue, CaptureValue]:
    """(robber-first, cops-first) capture times from one pass; equality is a test concern."""
    rf = solve(g, k, MoveOrder.ROBBER_FIRST)
    return rf.capture_time, _capture(rf.table.half(Side.COPS))[0]


# --- optimal strategy extraction ---------------------------------------------


def _both_halves(result: SolveResult):
    """The (cops-to-move, robber-to-move) halves an optimal strategy reads."""
    halves = result.table.half(Side.COPS), result.table.half(Side.ROBBER)
    if not all(isinstance(half, _Half) for half in halves):
        raise InputError("optimal strategies play from a solve() result, whose halves index replies")
    return halves


class OptimalCop(CopStrategy):
    """Table-driven cops: smallest central placement, first optimal reply.

    The best reply's value t is one lookup in the cops-to-move half,
    which the pass fills with 1 + the min over all replies of the
    robber-to-move value, or 1 when a reply lands on the robber.  The
    reply is the first ordered cop tuple, in :func:`legal_cop_moves`
    order, that attains t: one that lands on the robber when t = 1,
    otherwise one whose robber-to-move value is t - 1.  Ties among
    equal-value replies therefore go to the lexicographically smallest
    ordered cop tuple.
    """

    def __init__(self, result: SolveResult):
        if is_escape(result.capture_time):
            raise InputError("no optimal cop strategy: the robber escapes")
        self.result = result
        self.table = table = result.table
        self._cops_to_move, self._robber_to_move = _both_halves(result)
        # Same lists, so the same move order, as legal_cop_moves.
        self._closed = _closed_lists(table.graph)

    def place(self, g: Graph):
        return min(self.result.central_tuples), None

    def respond(self, g: Graph, state: GameState, memory):
        r = state.robber
        t = self._cops_to_move[(tuple(sorted(state.cops)), r)]
        # A finite capture time leaves no state of either half at ESCAPE:
        # the cops can first walk to a central tuple.
        if is_escape(t):
            raise RuntimeError(f"cops-to-move state {state.cops}, {r} escapes")
        moves = itertools.product(*(self._closed[c] for c in state.cops))
        if t == 1:
            for mv in moves:
                if r in mv:
                    return mv, memory
        else:
            after, index = self._robber_to_move, self._robber_to_move.index
            for mv in moves:
                if after.attains(index[tuple(sorted(mv))], r, t - 1):
                    return mv, memory
        raise RuntimeError(f"no cop reply from {state.cops}, {r} attains value {t}")


class OptimalRobber(RobberStrategy):
    """Table-driven robber: escape beats any finite value, ties to small ids.

    The mirror of :class:`OptimalCop`.  The best reply's value v is one
    lookup in the robber-to-move half, which the pass fills with the max
    over the free r' in N[r] of the cops-to-move value (ESCAPE if any
    escapes).  The reply is the first such r', in sorted order, that
    attains v in the cops-to-move half.  Like :class:`OptimalCop`, it
    plays from a :func:`solve` result, which holds both halves.
    """

    def __init__(self, result: SolveResult):
        self.result = result
        self.table = table = result.table
        self._cops_to_move, self._robber_to_move = _both_halves(result)
        self._closed = _closed_lists(table.graph)

    def place(self, g: Graph, cops: tuple[int, ...]):
        values = [self.table.value_of(cops, r) for r in range(g.vertex_count)]
        return values.index(ESCAPE if ESCAPE in values else max(values)), None

    def respond(self, g: Graph, state: GameState, memory):
        r = state.robber
        cops = tuple(sorted(state.cops))
        v = self._robber_to_move[(cops, r)]
        after = self._cops_to_move
        i = after.index[cops]
        # N[r] holds r, which is free while the robber is uncaptured.
        for rp in self._closed[r]:
            if rp not in cops and after.attains(i, rp, v):
                return rp, memory
        raise RuntimeError(f"no robber reply from {state.cops}, {r} attains value {v}")
