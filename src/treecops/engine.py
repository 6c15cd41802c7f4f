"""The pursuit game as a pure state machine.

Round structure: in round 0 the cops place, then the robber places
(seeing them).  Every later round is one robber half-move and one cop
half-move, in the order fixed by the config; capture is checked after
each half-move, so a robber stepping onto a cop is caught in that round
without a cop reply.  Vertex sharing among cops is legal.

Strategies are templates; per-game state lives in an opaque hashable
memory value the engine threads through `respond` calls (a strategy may
keep counters and caches that never change its moves, and may reuse work
across calls given the very same objects).  A strategy's `respond` must
be a pure function of (state, memory) so that
:func:`best_response_length` can memoize over it: equal memory values
are one state there, so `respond` must answer equal memories alike.  A
strategy may return the same cop tuple and memory objects again; the
search's memo keys then share them.
"""
from __future__ import annotations

import enum
import itertools
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Callable, Hashable, NamedTuple

from .graphs import Graph, InputError


class EscapeType:
    """Singleton sentinel for 'the robber is never captured'.

    Deliberately supports no arithmetic; adding to it is a bug.
    """

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "ESCAPE"


ESCAPE = EscapeType()
CaptureValue = int | EscapeType


def is_escape(value: CaptureValue) -> bool:
    return value is ESCAPE


class MoveOrder(enum.Enum):
    ROBBER_FIRST = "robber-first"
    COPS_FIRST = "cops-first"


class Side(enum.Enum):
    COPS = "cops"
    ROBBER = "robber"


# The two sides in the order they move within a round.
_HALF_MOVES = {MoveOrder.ROBBER_FIRST: (Side.ROBBER, Side.COPS),
               MoveOrder.COPS_FIRST: (Side.COPS, Side.ROBBER)}


class IllegalMoveError(RuntimeError):
    """A strategy returned a move that is not a stay or an adjacent step."""


class ResourceBudgetError(RuntimeError):
    """A search or solve exceeded its configured state budget."""

    def __init__(self, message: str, count: int):
        super().__init__(message)
        self.count = count


@dataclass(frozen=True)
class GameConfig:
    cop_count: int
    move_order: MoveOrder = MoveOrder.ROBBER_FIRST
    max_rounds: int | None = None  # None: 4 * |V|^2

    def __post_init__(self):
        if self.cop_count < 1:
            raise InputError("cop_count must be >= 1")
        if self.max_rounds is not None and self.max_rounds < 1:
            raise InputError("max_rounds must be >= 1")

    def effective_max_rounds(self, g: Graph) -> int:
        if self.max_rounds is not None:
            return self.max_rounds
        return 4 * g.vertex_count * g.vertex_count


class GameState(NamedTuple):
    """Positions, round and side to move; a named tuple, so the
    best-response search can build one per cop reply without a
    Python-level constructor."""

    cops: tuple[int, ...]
    robber: int | None
    round: int
    to_move: Side

    @property
    def captured(self) -> bool:
        return self.robber is not None and self.robber in self.cops


@dataclass(frozen=True)
class Outcome:
    captured: bool
    round: int

    def __str__(self) -> str:
        return f"{'CAPTURED' if self.captured else 'SURVIVED'} {self.round}"


@dataclass(frozen=True)
class RoundRecord:
    """Positions after one full round (or after a capturing half-move)."""

    index: int
    robber: int
    cops: tuple[int, ...]


@dataclass
class Trace:
    config: GameConfig
    cops_start: tuple[int, ...]
    robber_start: int
    rounds: list[RoundRecord] = field(default_factory=list)
    outcome: Outcome | None = None


class CopStrategy(ABC):
    """Cop-side player: placement plus a per-round response.

    Both sides see the full state.  `respond` receives the state at the
    cops' half-move and the strategy memory, and returns the new cop
    tuple (each entry in N[old position]) plus the new memory.
    """

    @abstractmethod
    def place(self, g: Graph) -> tuple[tuple[int, ...], Hashable]: ...

    def observe_placement(self, g: Graph, state: GameState, memory: Hashable) -> Hashable:
        """Called once after the robber placed; default keeps memory."""
        return memory

    @abstractmethod
    def respond(self, g: Graph, state: GameState, memory: Hashable) -> tuple[tuple[int, ...], Hashable]: ...


class RobberStrategy(ABC):
    @abstractmethod
    def place(self, g: Graph, cops: tuple[int, ...]) -> tuple[int, Hashable]: ...

    @abstractmethod
    def respond(self, g: Graph, state: GameState, memory: Hashable) -> tuple[int, Hashable]: ...


def legal_cop_moves(g: Graph, cops: tuple[int, ...]) -> list[tuple[int, ...]]:
    """All ordered cop move tuples: the product of N[c_i] over the cops."""
    options = [g.closed_neighborhood(c) for c in cops]
    return list(itertools.product(*options))


def _check_vertex(g: Graph, v: int, who: str) -> None:
    # bool is a subclass of int, but True is not vertex 1.
    if not isinstance(v, int) or isinstance(v, bool) or not 0 <= v < g.vertex_count:
        raise IllegalMoveError(f"{who} chose invalid vertex {v!r}")


def _check_cop_placement(g: Graph, config: GameConfig, cops: tuple[int, ...]) -> None:
    if len(cops) != config.cop_count:
        raise IllegalMoveError(
            f"cop strategy placed {len(cops)} cops, config wants {config.cop_count}")
    for i, c in enumerate(cops):
        _check_vertex(g, c, f"cop {i}")


def _check_robber_move(g: Graph, old: int, new: int) -> None:
    _check_vertex(g, new, "robber")
    if new != old and not g.has_edge(old, new):
        raise IllegalMoveError(f"robber moved {old} -> {new}, not a stay or an edge")


def _check_cop_moves(g: Graph, old: tuple[int, ...], new: tuple[int, ...]) -> None:
    if len(new) != len(old):
        raise IllegalMoveError(f"cops returned {len(new)} positions for {len(old)} cops")
    for i, (a, b) in enumerate(zip(old, new)):
        _check_vertex(g, b, f"cop {i}")
        if b != a and not g.has_edge(a, b):
            raise IllegalMoveError(f"cop {i} moved {a} -> {b}, not a stay or an edge")


def advance_round(
    g: Graph,
    config: GameConfig,
    state: GameState,
    robber_strategy: RobberStrategy,
    robber_memory: Hashable,
    cop_strategy: CopStrategy,
    cop_memory: Hashable,
) -> tuple[GameState, Hashable, Hashable, RoundRecord]:
    """Execute one full round; capture ends the round mid-way."""
    if state.robber is None:
        raise ValueError("advance_round before placements are complete")
    if state.captured:
        raise ValueError("advance_round on a finished game")
    cops, robber = state.cops, state.robber
    half_moves = _HALF_MOVES[config.move_order]
    for side in half_moves:
        mid = GameState(cops, robber, state.round, side)
        if side is Side.ROBBER:
            new_robber, robber_memory = robber_strategy.respond(g, mid, robber_memory)
            _check_robber_move(g, robber, new_robber)
            robber = new_robber
        else:
            new_cops, cop_memory = cop_strategy.respond(g, mid, cop_memory)
            _check_cop_moves(g, cops, new_cops)
            cops = new_cops
        if robber in cops:
            break
    rnd = state.round + 1
    new_state = GameState(cops, robber, rnd, half_moves[0])
    return new_state, robber_memory, cop_memory, RoundRecord(rnd, robber, cops)


def simulate(
    g: Graph,
    config: GameConfig,
    cop_strategy: CopStrategy,
    robber_strategy: RobberStrategy,
) -> Trace:
    """Play placements plus rounds until capture or the round cutoff."""
    cops0, cop_memory = cop_strategy.place(g)
    _check_cop_placement(g, config, cops0)
    r0, robber_memory = robber_strategy.place(g, cops0)
    _check_vertex(g, r0, "robber")

    state = GameState(tuple(cops0), r0, 0, _HALF_MOVES[config.move_order][0])
    cop_memory = cop_strategy.observe_placement(g, state, cop_memory)
    trace = Trace(config, tuple(cops0), r0)
    if state.captured:
        trace.outcome = Outcome(True, 0)
        return trace
    limit = config.effective_max_rounds(g)
    for _ in range(limit):
        state, robber_memory, cop_memory, record = advance_round(
            g, config, state, robber_strategy, robber_memory, cop_strategy, cop_memory
        )
        trace.rounds.append(record)
        if state.captured:
            trace.outcome = Outcome(True, state.round)
            return trace
    trace.outcome = Outcome(False, limit)
    return trace


# --- best response ----------------------------------------------------------


def best_response_length(
    g: Graph,
    config: GameConfig,
    cop_strategy: CopStrategy,
    memo_budget: int = 2_000_000,
) -> CaptureValue:
    """Longest survival any robber can force against the fixed cop strategy.

    Exhaustive DFS over robber choices with memoization on the
    round-invariant state (cop tuple, robber vertex, strategy memory).
    A reachable cycle of uncaptured states means the robber escapes
    forever.  Requires the strategy's `respond` to be deterministic,
    independent of the round counter, and to keep its memory values
    hashable and finitely many.  Equal memory values are one state, so
    `respond` must answer equal memories alike.  A strategy may return
    the same cop tuple and memory objects on many replies; the memo keys
    then share them, and a memo hit compares them by identity first.
    """
    closed = [g.closed_neighborhood(v) for v in range(g.vertex_count)]
    cops0, memory0 = cop_strategy.place(g)
    _check_cop_placement(g, config, cops0)
    cops0 = tuple(cops0)
    robber_first = config.move_order is MoveOrder.ROBBER_FIRST

    # One table: a state is marked ESCAPE when pushed and gets its value
    # when popped, so a state still on the stack reads as ESCAPE.  Reaching
    # it again is a cycle the robber can force, which is what ESCAPE means.
    memo: dict[tuple, CaptureValue] = {}
    # Looked up once per search rather than once per cop reply.
    respond = cop_strategy.respond
    cops_to_move = Side.COPS
    new_tuple = tuple.__new__
    adjacency, k = g.adjacency, config.cop_count

    def successors(key: tuple) -> list[tuple | None]:
        """None entries are capture-this-round branches, read as a child
        of value 0.

        Moves onto a cop are dropped: staying is always available to an
        uncaptured robber, and every branch is worth at least one round,
        so a suicide can never raise the max.

        Robber first, the cops reply to each of her moves; cops first,
        once, to her position.  A reply is `respond` on a state built with
        tuple.__new__ (fields filled in C, no Python frame); one that is
        not k plain ints each staying or stepping along an edge goes to
        `_check_cop_moves`, which names the fault.
        """
        cops, robber, memory = key
        out: list[tuple | None] = []
        for r_ask in closed[robber] if robber_first else (robber,):
            if r_ask in cops:
                continue
            new_cops, new_memory = respond(
                g, new_tuple(GameState, (cops, r_ask, 1, cops_to_move)), memory)
            if len(new_cops) != k:
                _check_cop_moves(g, cops, new_cops)
            for a, b in zip(cops, new_cops):
                if type(b) is not int or b != a and b not in adjacency[a]:
                    _check_cop_moves(g, cops, new_cops)
                    break
            new_cops = tuple(new_cops)
            if r_ask in new_cops:
                out.append(None)
            elif robber_first:
                out.append((new_cops, r_ask, new_memory))
            else:
                for r_new in closed[robber]:
                    if r_new not in new_cops:
                        out.append((new_cops, r_new, new_memory))
        return out

    def evaluate(root: tuple) -> CaptureValue:
        if root in memo:
            return memo[root]
        # Iterative DFS; frames are [key, successor list, index, best].
        # Values are ints or ESCAPE, so memo.get() returning None is a miss.
        memo[root] = ESCAPE
        stack = [[root, successors(root), 0, 0]]
        while stack:
            frame = stack[-1]
            key, succ, idx, best = frame
            while idx < len(succ):
                child = succ[idx]
                value = 0 if child is None else memo.get(child)
                if value is None:
                    if len(memo) > memo_budget:
                        raise ResourceBudgetError(
                            f"best-response search exceeded {memo_budget} states", len(memo))
                    frame[2], frame[3] = idx, best
                    memo[child] = ESCAPE
                    stack.append([child, successors(child), 0, 0])
                    break
                if value is ESCAPE:
                    stack.pop()  # the key keeps its ESCAPE mark
                    break
                if value >= best:
                    best = value + 1
                idx += 1
            else:
                memo[key] = best
                stack.pop()
        return memo[root]

    best: CaptureValue = 0
    for r0 in range(g.vertex_count):
        if r0 in cops0:
            continue  # placement value 0; never the robber's best
        state0 = GameState(cops0, r0, 0, _HALF_MOVES[config.move_order][0])
        memory = cop_strategy.observe_placement(g, state0, memory0)
        value = evaluate((cops0, r0, memory))
        if value is ESCAPE:
            return ESCAPE
        if value > best:  # type: ignore[operator]
            best = value
    return best


# --- trace text format ------------------------------------------------------
#
# Header lines "#graph <label>", "#order robber-first|cops-first",
# "#cops k"; then "P r c1 ... ck" for placement and one line
# "t r c1 ... ck" per round with positions AFTER the round; final line
# "CAPTURED t" or "SURVIVED t".


def format_trace(
    trace: Trace,
    graph_label: str = "<memory>",
    vertex_label: Callable[[int], str] | None = None,
) -> str:
    lab = vertex_label if vertex_label is not None else str
    lines = [
        f"#graph {graph_label}",
        f"#order {trace.config.move_order.value}",
        f"#cops {trace.config.cop_count}",
        "P " + lab(trace.robber_start) + " " + " ".join(lab(c) for c in trace.cops_start),
    ]
    for rec in trace.rounds:
        lines.append(
            f"{rec.index} " + lab(rec.robber) + " " + " ".join(lab(c) for c in rec.cops)
        )
    if trace.outcome is None:
        raise ValueError("trace has no outcome")
    lines.append(str(trace.outcome))
    return "\n".join(lines) + "\n"
