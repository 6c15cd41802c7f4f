"""Exact capture times by retrograde analysis.

State space and conventions
---------------------------

Values live on two-ply boundary states (cop tuple, robber vertex) with
the robber uncaptured.  Results are keyed by sorted cop tuples, as the
value function cannot distinguish the cops; the pass itself runs over
ordered tuples.  Captured states are implicitly 0 and never stored.

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

One level-synchronous pass over Python-int bitsets computes both halves
of the recurrence.  The layout is robber-major: for each robber vertex
r, each half keeps one n^k-bit int over *ordered* cop tuples, bit
p = sum of c_i * n^i standing for c = (c_0, ..., c_{k-1}).  F[r] holds
the tuples whose state against r is resolved with the cops to move (W,
or the inner min of V), R[r] those resolved with the robber to move (V,
or the inner max of W); both also hold the tuples with a cop on r, so
captured states need no mask.  Level 1 sets F[r] to the tuples with a
cop in N[r].  At level t, every r next to a column whose F grew gets

    R[r] = AND over u in N[r] of F[u]

(one AND per closed-neighbour pair), and the tuples R[r] gained are
dilated by one cop move and enter F[r] at level t + 1.  The move
relation is the product of closed neighbourhoods, so the dilation goes
one coordinate at a time; it is symmetric, so the tuples one move from
the gain are also those with a move into it.  Along coordinate i each
distinct edge offset d = u - v gives one (mask, shift) pair: the mask
holds the tuples whose i-th vertex x has the neighbour x + d, and the
shift is d * n^i.  These pairs, built per solve, are the whole move
relation: no move list or rank table is stored.  The pass stops when no
R grows; the bits never set are ESCAPE.  A single vertex needs no pass:
every cop tuple covers it, so no state is free and the capture time is 0.

The offsets depend on the vertex labels.  When the BFS order from a
vertex farthest from 0 has fewer distinct offsets than the given labels,
the pass runs on it.  Byte tables serve k = 1 only: when ceil(n / 8)
lookups are no more than the shifts, the dilation ORs, for each byte of
the set, one of 256 precomputed unions of closed neighbourhoods instead.

A state's value is the level at which its bit appears.  Each half keeps
the values as bit planes (bit j of the value of (c, r) is bit p of
plane j of column r), so the pass does no per-state work.  Every level
is at least 1, so a free state with no bit set is ESCAPE, and F and R
serve only to find the tuples with every free state resolved.  After
the pass only the planes are kept, each column as ``bytes`` and indexed
by the robber vertex, not the pass's label, so that a lookup is O(1);
one decoder, ``_Half.items()``, reads whole groups of columns at a time.
Each half also keeps the union of its gains at every level and the
tuples with every free state resolved, which give the capture time and
the central tuples without reading a state.  The move order only selects
the half a result exposes, the one of the side that moves first
(:meth:`ValueTable.half`): R for robber-first and F for cops-first.
Both capture times come from one pass, and the optimal strategies read
both halves by one rule: look up the value of the best reply in the
mover's half, then take the first reply that attains it in the other
half.  R(c, r) is the max over the free r' in N[r] of F(c, r'), so the
robber's reply costs one R lookup for its value v and a scan of N[r]
for the first free r' with F(c, r') = v (ESCAPE included).  Because the
bits R[r] gains reach F[r] at every tuple one move away, F(c, r) is
1 + the min over c' in M(c) of V(c', r), or 1 when r is in N[c] minus
c; so the cops' reply costs one F lookup for its value t, then a scan
of the ordered replies for the first that lands on r (t = 1) or has
robber-to-move value t - 1.  Both read the ordered position of the cop
tuple, so neither sorts it.  The naive oracle that checks both halves
independently is :mod:`treecops.oracle`.

Inputs are immutable, a solve owns its tables exclusively until it
returns, and returned results are immutable, so independent solves can
run concurrently and results can be shared freely.
"""
from __future__ import annotations

import functools
import itertools
import math
from collections.abc import Mapping
from dataclasses import dataclass
from operator import getitem, itemgetter
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
from .graphs import bfs_distances

DEFAULT_STATE_BUDGET = 50_000_000

StateKey = tuple[tuple[int, ...], int]


@dataclass(frozen=True, eq=False, repr=False)
class _Half(Mapping):
    """One half of a pass as a read-only {(sorted cop tuple, robber): value} map.

    Columns are indexed by the robber vertex, and bit p of a column by
    the ordered cop tuple at position p (see :meth:`position`).  Bit j
    of the value of a free state is bit p of ``planes[j][r]``; a free
    state with no bit set escapes.  ``unions[t]`` holds the positions
    that gained a state at level t, and ``complete`` those with every
    free state resolved; :func:`_capture` reads only these two.
    """

    n: int
    k: int
    vertex: list[int]
    weights: list[list[int]]
    size: int
    planes: list[list[bytes]]
    unions: list[int]
    complete: int

    def position(self, cops) -> int:
        """The position of an ordered cop tuple: sum of label(c_i) * n**i."""
        return sum(map(getitem, self.weights, cops))

    def at(self, p: int, r: int) -> CaptureValue:
        """Value of the free state (ordered tuple at position p, robber r)."""
        byte, bit = p >> 3, p & 7
        value = 0
        for j, plane in enumerate(self.planes):
            value |= (plane[r][byte] >> bit & 1) << j
        return value or ESCAPE

    def __getitem__(self, key: StateKey) -> CaptureValue:
        cops, r = key
        n = self.n
        if type(cops) is not tuple or len(cops) != self.k or not 0 <= r < n or r in cops:
            raise KeyError(key)
        low = 0
        for c in cops:
            if not low <= c < n:
                raise KeyError(key)
            low = c
        return self.at(self.position(cops), r)

    def __iter__(self):
        return map(itemgetter(0), self.items())

    def __len__(self) -> int:
        return self.size

    def items(self):
        """(key, value) pairs, robber by robber, decoded one group of robbers at a time.

        A group's planes become strings of "0"/"1", one character per
        (robber, position), and the characters of one state, read across
        them, map to its value.  A group holds about 2^16 positions, so
        small tables are decoded in one go and large ones never as a whole.
        """
        n = self.n
        tuples = list(itertools.combinations_with_replacement(range(n), self.k))
        spots = list(map(self.position, tuples))
        stride = 8 * len(self.planes[0][0])
        value = _plane_values(len(self.planes))
        group = max(1, (1 << 16) // stride)

        def decoded(lo: int) -> list:
            robbers = range(lo, min(n, lo + group))
            columns = []
            for plane in self.planes:
                bits = b"".join(plane[lo:robbers.stop])
                columns.append(format(int.from_bytes(bits, "little"), f"0{len(bits) * 8}b")[::-1])
            values = list(map(value.__getitem__, zip(*columns)))
            return [((t, r), values[i * stride + p]) for i, r in enumerate(robbers)
                    for t, p in zip(tuples, spots) if r not in t]

        return itertools.chain.from_iterable(map(decoded, range(0, n, group)))

    def values(self):
        return map(itemgetter(1), self.items())

    def attains(self, p: int, r: int, v: CaptureValue) -> bool:
        """Whether free state (ordered tuple at position p, r) has value v: v >= 1, or ESCAPE.

        Compares plane by plane and stops at the first bit that differs.
        ESCAPE compares as 0, the value of no resolved state.
        """
        byte, bit = p >> 3, p & 7
        v = 0 if v is ESCAPE else v
        for plane in self.planes:
            if (plane[r][byte] >> bit ^ v) & 1:
                return False
            v >>= 1
        return not v

    def tuples_at(self, positions: int) -> tuple[tuple[int, ...], ...]:
        """The sorted cop tuples, in original labels, of the set bits of ``positions``."""
        n, vertex, found = self.n, self.vertex, set()
        bits = bin(positions)[:1:-1]
        p = bits.find("1")
        while p >= 0:
            cops, q = [], p
            for _ in range(self.k):
                q, x = divmod(q, n)
                cops.append(vertex[x])
            found.add(tuple(sorted(cops)))
            p = bits.find("1", p + 1)
        return tuple(sorted(found))


@functools.lru_cache(maxsize=None)
def _plane_values(planes: int) -> dict[tuple[str, ...], CaptureValue]:
    """Value of a position from its (plane 0, plane 1, ...) bits as characters; none set: ESCAPE."""
    return {bits: int("".join(reversed(bits)), 2) or ESCAPE
            for bits in itertools.product("01", repeat=planes)}


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


# The pass does not use these two: the budget reads _estimate_pairs, and
# bench/tracer.py wraps both for its per-layer counts.
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


def _offsets(g: Graph, label) -> set[int]:
    """The distinct label differences label(u) - label(v) over the edges uv, both ways."""
    return {label[u] - label[v] for v, nbrs in enumerate(g.adjacency) for u in nbrs}


def _layout(g: Graph, k: int) -> tuple[list[int] | None, str]:
    """The pass's vertex labels (None: the given ones) and dilation encoding.

    It picks whichever costs least.  A dilation by offsets costs k *
    (number of distinct edge offsets) masked shifts.  The offsets depend
    on the labels, so the BFS order from a vertex farthest from 0 (a
    peripheral vertex of a tree) replaces the given labels when it has
    fewer.  At k = 1, ceil(n / 8) byte-table lookups replace the shifts
    when they are no more, and need no relabelling.  At k >= 2 byte
    tables would hold 2^8 * ceil(n^k / 8) masks of n^k bits each;
    building them cost more than the shifts saved on every graph
    measured, down to n = 3, so :func:`_byte_dilation` moves one cop.
    """
    n = g.vertex_count
    lookups = -(-n // 8)
    if k == 1 and lookups <= 2:  # no connected graph on two or more vertices has fewer offsets
        return None, "bytes"
    dist = bfs_distances(g, 0)
    order = [dist.index(max(dist))]
    bfs = [-1] * n
    bfs[order[0]] = 0
    for u in order:  # grows while it is read: the BFS queue
        for v in g.adjacency[u]:
            if bfs[v] < 0:
                bfs[v] = len(order)
                order.append(v)
    given, ordered = len(_offsets(g, range(n))), len(_offsets(g, bfs))
    if k == 1 and lookups <= min(given, ordered):
        return None, "bytes"
    return (bfs, "shifts") if ordered < given else (None, "shifts")


def _tile(block: int, period: int, count: int) -> int:
    """``count`` copies of ``block``, ``period`` bits apart."""
    out = at = 0
    while count:
        if count & 1:
            out |= block << at
            at += period
        count >>= 1
        if count:
            block |= block << period
            period *= 2
    return out


def _byte_dilation(closed: list[tuple[int, ...]]):
    """One cop's move dilation on vertex sets: N[S], one table lookup per byte of S.

    Entry b of table j is the union of the closed neighbourhoods of the
    vertices 8j + i with bit i of b set.
    """
    near = [sum(1 << y for y in nbrs) for nbrs in closed]
    tables = []  # tables[j][b] = dilation of b << 8j
    for lo in range(0, len(closed), 8):
        table = [0]
        for mask in near[lo:lo + 8]:
            table += [x | mask for x in table]
        tables.append(table)
    width = len(tables)
    if width == 1:
        return tables[0].__getitem__

    def dilate(s: int) -> int:
        reach = 0
        for table, b in zip(tables, s.to_bytes(width, "little")):
            if b:
                reach |= table[b]
        return reach

    return dilate


def _dilation(closed: list[tuple[int, ...]], k: int):
    """Cop-move dilation on sets of ordered k-tuples over vertices 0..n-1.

    Bit p = sum of c_i * n**i stands for the tuple c.  The returned
    function maps a set S to the tuples one cop move away from S: the
    move relation is the product of the closed neighbourhoods
    ``closed``, which is symmetric, so this is also the set of tuples
    with a move into S.  It dilates one coordinate at a time, by one
    (mask, shift) pair per edge offset d: the mask holds the tuples
    whose i-th vertex x has neighbour x + d, and the shift is d * n**i.
    """
    n = len(closed)
    size = n ** k
    bases: dict[int, int] = {}  # offset d -> the vertices x with neighbour x + d
    for x, nbrs in enumerate(closed):
        for y in nbrs:
            if y != x:
                bases[y - x] = bases.get(y - x, 0) | 1 << x
    axes = []
    for i in range(k):
        w = n ** i
        block = (1 << w) - 1
        ups, downs = [], []
        for d, base in sorted(bases.items()):
            pattern = sum(block << x * w for x in range(n) if base >> x & 1)
            mask = _tile(pattern, w * n, size // (w * n))
            (ups if d > 0 else downs).append((mask, abs(d) * w))
        axes.append((ups, downs))

    def dilate(s: int) -> int:
        for ups, downs in axes:
            out = s
            for mask, by in ups:
                out |= (s & mask) << by
            for mask, by in downs:
                out |= (s & mask) >> by
            s = out
        return s

    return dilate


def _retrograde(g: Graph, k: int) -> dict[Side, _Half]:
    """The two halves of one level-synchronous pass, by the side to move."""
    n = g.vertex_count
    size = n ** k
    label, encoding = _layout(g, k)
    closed = _closed_lists(g)
    if label is None:
        label = vertex = list(range(n))
    else:
        vertex = sorted(range(n), key=label.__getitem__)  # pass label -> vertex
        closed = [tuple(sorted(label[u] for u in closed[v])) for v in vertex]
    dilate = _byte_dilation(closed) if encoding == "bytes" else _dilation(closed, k)
    on = [0] * n  # on[v]: the tuples with a cop on v
    for i in range(k):
        w = n ** i
        row = _tile((1 << w) - 1, w * n, size // (w * n))
        for v in range(n):
            on[v] |= row << v * w
    # F[r] and R[r]: the positions resolved with the cops (F) or the
    # robber (R) to move against robber r, or captured.  F starts with
    # the tuples that have a cop in N[r].
    F = [0] * n
    for r, nbrs in enumerate(closed):
        for u in nbrs:
            F[r] |= on[u]
    R = on[:]
    del on
    gain_F = [F[r] ^ R[r] for r in range(n)]
    planes_F, planes_R = [gain_F], [[0] * n]
    unions_F, unions_R = [0, 0], [0]
    for gain in gain_F:
        unions_F[1] |= gain
    changed = [r for r in range(n) if gain_F[r]]
    level = 1
    while changed:
        # Robber to move: lost once every free vertex of N[r] is resolved.
        # R[r] is a subset of that AND, as F only grows.
        todo = {r for v in changed for r in closed[v]}
        on_planes = [p for j, p in enumerate(planes_R) if level >> j & 1]
        union, grew = 0, []
        for r in todo:
            lost = -1
            for u in closed[r]:
                lost &= F[u]
            gain = lost ^ R[r]
            if gain:
                R[r] = lost
                for p in on_planes:
                    p[r] |= gain
                union |= gain
                grew.append((r, gain))
        unions_R.append(union)
        level += 1
        if level.bit_length() > len(planes_F):
            planes_F.append([0] * n)
            planes_R.append([0] * n)
        # Cops to move: capture follows a reply into a lost state.
        on_planes = [p for j, p in enumerate(planes_F) if level >> j & 1]
        union, changed = 0, []
        for r, gain in grew:
            won = F[r] | dilate(gain)
            gain = won ^ F[r]
            if gain:
                F[r] = won
                for p in on_planes:
                    p[r] |= gain
                union |= gain
                changed.append(r)
        unions_F.append(union)
    weights = [[x * n ** i for x in label] for i in range(k)]
    count = n * math.comb(n + k - 2, k)  # free states: r and a multiset over the others

    def half(done: list[int], planes: list[list[int]], unions: list[int]) -> _Half:
        complete = (1 << size) - 1
        for column in done:
            complete &= column
        width = -(-size // 8)
        for plane in planes:  # one list at a time, so never all ints and all bytes
            plane[:] = [plane[x].to_bytes(width, "little") for x in label]
        return _Half(n, k, vertex, weights, count, planes, unions, complete)

    return {Side.COPS: half(F, planes_F, unions_F), Side.ROBBER: half(R, planes_R, unions_R)}


def _capture(half: _Half) -> tuple[CaptureValue, tuple[tuple[int, ...], ...]]:
    """Capture time and central tuples: min over tuples of the max over robbers.

    A complete position's largest value is the last level whose gain
    union holds it, so the levels are read from the top down.
    """
    rest, capture_time, central = half.complete, ESCAPE, 0
    for level in range(len(half.unions) - 1, 0, -1):
        hit = rest & half.unions[level]
        if hit:
            rest ^= hit
            capture_time, central = level, hit
    if rest:  # a cop on every vertex captures at placement
        capture_time, central = 0, rest
    return capture_time, half.tuples_at(central)


def _count_text(count: int) -> str:
    # Python refuses to write an int of more than 4300 digits as text, so
    # past 10,000 bits (about 3,000 digits) the largest power of two not
    # above the count stands for it.
    return str(count) if count.bit_length() <= 10_000 else f"2^{count.bit_length() - 1}"


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
    # Refuse before anything is built.  One vertex has one state for any
    # k, but its answer holds k-cop tuples: each cop counts as 2^8 states.
    # Otherwise every cop has two or more moves, so (max degree + 1)^k >=
    # 2^k passes any budget b once k >= b.bit_length(): refuse then
    # without forming the power.  The message names the count compared.
    n = g.vertex_count
    if n == 1:
        estimate, bound, what = k << 8, "~", f"state-equivalents of per-cop tables ({k} cops x 2^8)"
    elif k >= state_budget.bit_length():
        estimate, bound = 1 << state_budget.bit_length(), "at least "
        what = f"state-successor pairs ({k} cops, each with 2 or more moves)"
    else:
        estimate, bound, what = _estimate_pairs(g, k), "~", "state-successor pairs"
    if estimate > state_budget:
        raise ResourceBudgetError(f"solve budget exceeded: {bound}{_count_text(estimate)} {what} "
                                  f"> budget {_count_text(state_budget)}", estimate)
    if n == 1:
        # Every cop tuple covers the only vertex: the cops capture at placement.
        empty = _Half(1, k, [0], [[0]] * k, 0, [[bytes(1)]], [0], 1)
        return SolveResult(0, ((0,) * k,), ValueTable(g, k, order, empty, empty))
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
        before, after = self._cops_to_move, self._robber_to_move
        t = before.at(before.position(state.cops), r)
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
            for mv in moves:
                if after.attains(after.position(mv), r, t - 1):
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
        r, cops = state.robber, state.cops
        after = self._cops_to_move
        p = after.position(cops)
        v = self._robber_to_move.at(p, r)
        # N[r] holds r, which is free while the robber is uncaptured.
        for rp in self._closed[r]:
            if rp not in cops and after.attains(p, rp, v):
                return rp, memory
        raise RuntimeError(f"no robber reply from {state.cops}, {r} attains value {v}")
