import pytest

from treecops import (
    ESCAPE,
    GameConfig,
    GameState,
    IllegalMoveError,
    MoveOrder,
    Side,
    advance_round,
    best_response_length,
    build_graph,
    cycle_graph,
    format_trace,
    grid_graph,
    legal_cop_moves,
    TreeChaseCop,
    OptimalRobber,
    path_graph,
    simulate,
    solve,
    star_graph,
    ProductTwoCop,
    cartesian_product,
)
import treecops.strategies as strategies
from treecops.engine import CopStrategy, RobberStrategy
from treecops.strategies import RandomCop, RandomRobber, StationaryCop, StationaryRobber


class GreedyCop(CopStrategy):
    """Test helper: place at vertex 0, walk along shortest paths."""

    def place(self, g):
        return (0,), None

    def respond(self, g, state, memory):
        from treecops.graphs import bfs_distances

        cop, robber = state.cops[0], state.robber
        if cop == robber:
            return state.cops, memory
        dist = bfs_distances(g, robber)
        return (next(v for v in g.adjacency[cop] if dist[v] < dist[cop]),), memory


class BrokenCop(CopStrategy):
    def place(self, g):
        return (0,), None

    def respond(self, g, state, memory):
        return (g.vertex_count + 5,), memory


class JumpingCop(CopStrategy):
    """Test helper: steps to a vertex two edges away on a path."""

    def place(self, g):
        return (0,), None

    def respond(self, g, state, memory):
        return (state.cops[0] + 2,), memory


class ExtraCop(CopStrategy):
    """Test helper: places one cop, then answers with two."""

    def place(self, g):
        return (0,), None

    def respond(self, g, state, memory):
        return state.cops * 2, memory


class OffGraphCop(CopStrategy):
    """Test helper: places its cop on a vertex the graph does not have."""

    def place(self, g):
        return (99,), None

    def respond(self, g, state, memory):
        return state.cops, memory


class CountingCop(CopStrategy):
    """Ever-growing memory: the best-response search cannot memoize."""

    def place(self, g):
        return (0,), 0

    def respond(self, g, state, memory):
        return state.cops, memory + 1


def test_legal_cop_moves_counts():
    p4 = path_graph(4)
    assert len(legal_cop_moves(p4, (1,))) == 3  # degree-2 vertex
    assert len(legal_cop_moves(p4, (0,))) == 2  # path end: stay or step
    star = star_graph(4)
    assert len(legal_cop_moves(star, (1, 0))) == 2 * 4  # degrees 1 and 3
    from treecops import grid_graph

    grid = grid_graph(2, 3)
    assert len(legal_cop_moves(grid, (0, 1))) == 3 * 4  # degrees 2 and 3


def test_advance_round_robber_walks_into_cop():
    g = path_graph(3)
    state = GameState((0,), 1, 0, Side.ROBBER)
    config = GameConfig(cop_count=1)

    class Suicide(RobberStrategy):
        def place(self, g, cops):
            return 1, None

        def respond(self, g, state, memory):
            return 0, memory

    new, _, _, record = advance_round(
        g, config, state, Suicide(), None, StationaryCop((0,)), None
    )
    assert new.captured and new.round == 1 and new.to_move is Side.ROBBER
    assert record.cops == (0,)  # cops never moved this round


def test_advance_round_no_capture_increments_round():
    g = path_graph(4)
    state = GameState((0,), 3, 0, Side.ROBBER)
    config = GameConfig(cop_count=1)
    new, _, _, _ = advance_round(
        g, config, state, StationaryRobber(), None, StationaryCop((0,)), None
    )
    assert not new.captured and new.round == 1 and new.to_move is Side.ROBBER


def test_advance_round_cops_first_captures_without_robber_move():
    g = path_graph(3)
    config = GameConfig(cop_count=1, move_order=MoveOrder.COPS_FIRST)
    state = GameState((0,), 1, 0, Side.COPS)

    class NeverAsked(RobberStrategy):
        def place(self, g, cops):
            return 1, None

        def respond(self, g, state, memory):
            raise AssertionError("robber must not move after a capture")

    new, _, _, record = advance_round(
        g, config, state, NeverAsked(), None, GreedyCop(), None
    )
    assert new.captured and record.robber == 1 and new.to_move is Side.COPS


@pytest.mark.parametrize("order", list(MoveOrder))
def test_advance_round_hands_each_side_its_half_move(order):
    # Path 0-1-2-3-4: the cop steps 0 -> 1, the robber 4 -> 3; no capture.
    seen = []

    class Stepper(CopStrategy):
        def place(self, g):
            return (0,), None

        def respond(self, g, state, memory):
            seen.append(state)
            return (state.cops[0] + 1,), memory

    class Retreat(RobberStrategy):
        def place(self, g, cops):
            return 4, None

        def respond(self, g, state, memory):
            seen.append(state)
            return state.robber - 1, memory

    first = Side.ROBBER if order is MoveOrder.ROBBER_FIRST else Side.COPS
    state = GameState((0,), 4, 0, first)
    new, _, _, record = advance_round(
        path_graph(5), GameConfig(cop_count=1, move_order=order), state,
        Retreat(), None, Stepper(), None,
    )
    if order is MoveOrder.ROBBER_FIRST:
        assert seen == [GameState((0,), 4, 0, Side.ROBBER), GameState((0,), 3, 0, Side.COPS)]
    else:
        assert seen == [GameState((0,), 4, 0, Side.COPS), GameState((1,), 4, 0, Side.ROBBER)]
    assert new == GameState((1,), 3, 1, first)
    assert (record.index, record.robber, record.cops) == (1, 3, (1,))


def test_simulate_greedy_catches_stationary_on_path2():
    trace = simulate(path_graph(2), GameConfig(cop_count=1), GreedyCop(), StationaryRobber())
    assert trace.outcome.captured and trace.outcome.round == 1


def test_simulate_capture_at_placement():
    g = path_graph(2)

    class OnTop(RobberStrategy):
        def place(self, g, cops):
            return cops[0], None

        def respond(self, g, state, memory):
            return state.robber, memory

    trace = simulate(g, GameConfig(cop_count=1), GreedyCop(), OnTop())
    assert trace.outcome.captured and trace.outcome.round == 0
    assert trace.rounds == []


def test_simulate_two_cop_strategy_vs_optimal_robber_on_grid():
    prod = cartesian_product(path_graph(3), path_graph(3))
    robber = OptimalRobber(solve(prod.flat, 2))
    trace = simulate(
        prod.flat, GameConfig(cop_count=2), ProductTwoCop(prod), robber
    )
    assert trace.outcome.captured
    assert trace.outcome.round <= 2  # floor((3+3)/2) - 1


def test_illegal_cop_move_reported():
    with pytest.raises(IllegalMoveError, match="cop 0"):
        simulate(path_graph(3), GameConfig(cop_count=1), BrokenCop(), StationaryRobber())


@pytest.mark.parametrize("cop, message", [
    (JumpingCop(), "cop 0 moved 0 -> 2"),
    (ExtraCop(), "cops returned 2 positions for 1 cops"),
    (BrokenCop(), "cop 0 chose invalid vertex"),
], ids=["jump", "count", "invalid"])
@pytest.mark.parametrize("order", list(MoveOrder))
def test_best_response_checks_every_cop_reply(cop, message, order):
    with pytest.raises(IllegalMoveError, match=message):
        best_response_length(path_graph(5), GameConfig(cop_count=1, move_order=order), cop)


@pytest.mark.parametrize("order", list(MoveOrder))
def test_simulate_and_best_response_check_the_placement_alike(order):
    config = GameConfig(cop_count=1, move_order=order)
    with pytest.raises(IllegalMoveError, match="cop 0 chose invalid vertex 99"):
        simulate(path_graph(5), config, OffGraphCop(), StationaryRobber())
    with pytest.raises(IllegalMoveError, match="cop 0 chose invalid vertex 99"):
        best_response_length(path_graph(5), config, OffGraphCop())


class ScriptedCop(CopStrategy):
    """Test helper: places the given cops, then answers reply(cops)."""

    def __init__(self, start, reply):
        self.start, self.reply = start, reply

    def place(self, g):
        return self.start, None

    def respond(self, g, state, memory):
        return self.reply(state.cops), memory


class ScriptedRobber(RobberStrategy):
    """Test helper: places on `start`, then answers reply(robber)."""

    def __init__(self, start, reply=lambda r: r):
        self.start, self.reply = start, reply

    def place(self, g, cops):
        return self.start, None

    def respond(self, g, state, memory):
        return self.reply(state.robber), memory


# Every cop reply the move check rejects, with the message that names the
# fault.  The robber starts at the far end of P5, so no reply captures first.
_REJECTED_COP_REPLIES = [
    ((0,), lambda cops: cops * 2, "cops returned 2 positions for 1 cops"),
    ((0,), lambda cops: (99,), "cop 0 chose invalid vertex 99"),
    ((0,), lambda cops: (-1,), "cop 0 chose invalid vertex -1"),
    ((0,), lambda cops: (1.0,), "cop 0 chose invalid vertex 1.0"),
    ((0,), lambda cops: (0.0,), "cop 0 chose invalid vertex 0.0"),
    ((0,), lambda cops: (True,), "cop 0 chose invalid vertex True"),
    ((1,), lambda cops: (True,), "cop 0 chose invalid vertex True"),
    ((1,), lambda cops: (False,), "cop 0 chose invalid vertex False"),
    ((0,), lambda cops: (cops[0] + 2,), "cop 0 moved 0 -> 2, not a stay or an edge"),
    ((0, 1), lambda cops: (cops[0], cops[1] + 2), "cop 1 moved 1 -> 3, not a stay or an edge"),
    ((0, 1), lambda cops: (cops[0], True), "cop 1 chose invalid vertex True"),
]
_REJECTED_IDS = ["count", "range", "negative", "float-step", "float-stay", "bool-step",
                 "bool-stay", "bool-step-down", "non-edge", "second-non-edge", "second-bool"]


@pytest.mark.parametrize("start, reply, message", _REJECTED_COP_REPLIES, ids=_REJECTED_IDS)
@pytest.mark.parametrize("order", list(MoveOrder))
def test_every_rejected_cop_reply_keeps_its_message(start, reply, message, order):
    config = GameConfig(cop_count=len(start), move_order=order)
    with pytest.raises(IllegalMoveError, match=f"^{message}$"):
        best_response_length(path_graph(5), config, ScriptedCop(start, reply))
    with pytest.raises(IllegalMoveError, match=f"^{message}$"):
        simulate(path_graph(5), config, ScriptedCop(start, reply), ScriptedRobber(4))


# Two cops on P6 at 0 and 3, the robber at 5: the search checks each reply
# inline and hands any it does not pass to the check that names the fault.
@pytest.mark.parametrize("reply, message", [
    (lambda cops: cops[:1], "cops returned 1 positions for 2 cops"),
    (lambda cops: cops + (cops[1],), "cops returned 3 positions for 2 cops"),
    (lambda cops: (cops[0] + 1, cops[1] + 2), "cop 1 moved 3 -> 5, not a stay or an edge"),
    # Vertex 1 is next to the first cop, not to the second.
    (lambda cops: (cops[0], cops[0] + 1), "cop 1 moved 3 -> 1, not a stay or an edge"),
    (lambda cops: [cops[0], cops[1] + 2], "cop 1 moved 3 -> 5, not a stay or an edge"),
], ids=["short", "long", "second-jumps", "second-to-first-neighbour", "list-second-jumps"])
@pytest.mark.parametrize("order", list(MoveOrder))
def test_two_cop_replies_that_break_the_rules_keep_their_message(reply, message, order):
    config = GameConfig(cop_count=2, move_order=order)
    with pytest.raises(IllegalMoveError, match=f"^{message}$"):
        best_response_length(path_graph(6), config, ScriptedCop((0, 3), reply))
    with pytest.raises(IllegalMoveError, match=f"^{message}$"):
        simulate(path_graph(6), config, ScriptedCop((0, 3), reply), ScriptedRobber(5))


@pytest.mark.parametrize("order", list(MoveOrder))
def test_a_legal_two_cop_reply_given_as_a_list_is_accepted(order):
    # Both cops step right until they reach the end of P6, where the robber
    # is caught in round 4; a list reply is searched exactly as a tuple.
    def step(cops):
        return [min(c + 1, 5) for c in cops]

    config = GameConfig(cop_count=2, move_order=order)
    as_list = best_response_length(path_graph(6), config, ScriptedCop((0, 1), step))
    as_tuple = best_response_length(path_graph(6), config,
                                    ScriptedCop((0, 1), lambda cops: tuple(step(cops))))
    assert as_list == as_tuple == 4


def test_check_cop_moves_rejects_a_bool_for_vertex_one():
    from treecops.engine import _check_cop_moves

    _check_cop_moves(path_graph(5), (0,), (1,))
    with pytest.raises(IllegalMoveError, match="cop 0 chose invalid vertex True"):
        _check_cop_moves(path_graph(5), (0,), (True,))


@pytest.mark.parametrize("order", list(MoveOrder))
def test_a_bool_cop_placement_is_rejected(order):
    config = GameConfig(cop_count=1, move_order=order)
    cop = ScriptedCop((True,), lambda cops: cops)
    with pytest.raises(IllegalMoveError, match="cop 0 chose invalid vertex True"):
        simulate(path_graph(5), config, cop, ScriptedRobber(4))
    with pytest.raises(IllegalMoveError, match="cop 0 chose invalid vertex True"):
        best_response_length(path_graph(5), config, cop)


# The best-response search plays every robber move itself, so only
# `simulate` asks a robber strategy for a placement or a move.
@pytest.mark.parametrize("robber", [ScriptedRobber(True), ScriptedRobber(4, lambda r: r == 4)],
                         ids=["placement", "move"])
@pytest.mark.parametrize("order", list(MoveOrder))
def test_a_bool_robber_position_is_rejected(robber, order):
    config = GameConfig(cop_count=1, move_order=order)
    with pytest.raises(IllegalMoveError, match="robber chose invalid vertex True"):
        simulate(path_graph(5), config, StationaryCop((0,)), robber)


def test_game_state_is_a_positional_immutable_record():
    state = GameState((0, 2), 3, 1, Side.COPS)
    assert (state.cops, state.robber, state.round, state.to_move) == ((0, 2), 3, 1, Side.COPS)
    assert state == GameState((0, 2), 3, 1, Side.COPS)
    assert hash(state) == hash(GameState((0, 2), 3, 1, Side.COPS))
    assert state != GameState((0, 2), 3, 2, Side.COPS)
    with pytest.raises(AttributeError):
        state.robber = 0
    assert not state.captured
    assert GameState((0, 2), 2, 1, Side.COPS).captured
    assert not GameState((0, 2), None, 0, Side.ROBBER).captured


def test_random_robber_and_random_cop_draw_from_different_streams(monkeypatch):
    draws = []
    real = strategies.splitmix64_next

    def recording(state):
        out = real(state)
        draws.append(out[0])
        return out

    monkeypatch.setattr(strategies, "splitmix64_next", recording)
    g = path_graph(5)
    for seed in range(100):
        draws.clear()
        RandomCop(1, seed).place(g)
        RandomRobber(seed).place(g, (0,))
        cop_first, robber_first = draws
        assert cop_first != robber_first, seed


def test_max_rounds_cutoff_survives():
    trace = simulate(
        path_graph(3),
        GameConfig(cop_count=1, max_rounds=5),
        StationaryCop((0,)),
        StationaryRobber(),
    )
    assert not trace.outcome.captured and trace.outcome.round == 5


def test_trace_moves_are_single_steps():
    prod = cartesian_product(path_graph(4), path_graph(3))
    robber = OptimalRobber(solve(prod.flat, 2))
    trace = simulate(prod.flat, GameConfig(cop_count=2), ProductTwoCop(prod), robber)
    g = prod.flat
    prev_r, prev_c = trace.robber_start, trace.cops_start
    for rec in trace.rounds:
        assert rec.robber == prev_r or g.has_edge(rec.robber, prev_r)
        for a, b in zip(prev_c, rec.cops):
            assert a == b or g.has_edge(a, b)
        prev_r, prev_c = rec.robber, rec.cops
    # Capture happens exactly at the recorded outcome round.
    assert trace.outcome.captured
    assert trace.rounds[-1].robber in trace.rounds[-1].cops
    for rec in trace.rounds[:-1]:
        assert rec.robber not in rec.cops


def test_trace_format_and_parse():
    trace = simulate(path_graph(2), GameConfig(cop_count=1), GreedyCop(), StationaryRobber())
    text = format_trace(trace, "p2.g")
    lines = text.splitlines()
    assert lines[0] == "#graph p2.g"
    assert lines[1] == "#order robber-first"
    assert lines[2] == "#cops 1"
    assert lines[3] == "P 1 0"
    assert lines[-1] == "CAPTURED 1"


def test_best_response_one_cop_on_path5():
    g = path_graph(5)
    value = best_response_length(g, GameConfig(cop_count=1), TreeChaseCop(g))
    assert value == 2


def test_best_response_one_cop_on_path2():
    g = path_graph(2)
    assert best_response_length(g, GameConfig(cop_count=1), TreeChaseCop(g)) == 1


def test_best_response_budget_error_carries_count():
    from treecops.engine import ResourceBudgetError

    with pytest.raises(ResourceBudgetError) as exc:
        best_response_length(
            path_graph(3), GameConfig(cop_count=1), CountingCop(), memo_budget=50
        )
    assert exc.value.count == 51


def test_best_response_stationary_cop_escapes():
    g = path_graph(3)
    assert best_response_length(g, GameConfig(cop_count=1), StationaryCop((0,))) is ESCAPE


def test_best_response_upper_bounds_any_single_game():
    g = grid_graph(3, 3)
    prod = cartesian_product(path_graph(3), path_graph(3))
    strategy = ProductTwoCop(prod)
    config = GameConfig(cop_count=2)
    bound = best_response_length(prod.flat, config, strategy)
    robber = OptimalRobber(solve(g, 2))
    trace = simulate(g, config, ProductTwoCop(prod), robber)
    assert trace.outcome.captured
    assert trace.outcome.round <= bound


def test_best_response_random_robber_never_beats_it():
    g = path_graph(5)
    config = GameConfig(cop_count=1)
    bound = best_response_length(g, config, TreeChaseCop(g))
    for seed in range(5):
        trace = simulate(g, config, TreeChaseCop(g), RandomRobber(seed))
        assert trace.outcome.captured
        assert trace.outcome.round <= bound


def test_best_response_cops_first_order():
    g = cycle_graph(4)
    res = solve(g, 2, MoveOrder.COPS_FIRST)
    from treecops import OptimalCop

    cop = OptimalCop(res)
    config = GameConfig(cop_count=2, move_order=MoveOrder.COPS_FIRST)
    assert best_response_length(g, config, cop) == res.capture_time
