import hashlib
import itertools
import math
from collections.abc import Mapping

import pytest
from hypothesis import given, settings, strategies as st

from treecops import (
    ESCAPE,
    GameConfig,
    MoveOrder,
    Side,
    build_graph,
    capture_time_both_orders,
    cartesian_product,
    cycle_graph,
    dump_value_table,
    grid_graph,
    InputError,
    is_escape,
    naive_value_iteration,
    OptimalCop,
    OptimalRobber,
    path_graph,
    random_tree,
    simulate,
    solve,
    star_graph,
)
from treecops import solver
from treecops.engine import ResourceBudgetError
from treecops.generators import SplitMix64
from treecops.solver import (
    DEFAULT_STATE_BUDGET,
    _byte_dilation,
    _closed_lists,
    _cop_configuration_space,
    _dilation,
    _layout,
)

_TREE4XTREE3 = cartesian_product(random_tree(4, 21), random_tree(3, 22)).flat


def _relabelled(g, seed):
    """A copy of g with vertex v renamed perm[v], and perm, for a seeded shuffle."""
    n = g.vertex_count
    perm = list(range(n))
    rng = SplitMix64(seed)
    for i in range(n - 1, 0, -1):
        j = rng.below(i + 1)
        perm[i], perm[j] = perm[j], perm[i]
    return build_graph(n, [(perm[u], perm[v]) for u, v in g.edges()]), perm


def test_path4_one_cop():
    res = solve(path_graph(4), 1)
    assert res.capture_time == 2
    assert res.central_tuples == ((1,), (2,))  # either middle vertex


def test_path4_hand_computed_values():
    # Frozen by a by-hand backward induction: cop on a middle vertex,
    # robber two or three vertices away survives exactly two rounds.
    table = solve(path_graph(4), 1).table
    assert table.value_of((1,), 0) == 1
    assert table.value_of((1,), 2) == 2
    assert table.value_of((1,), 3) == 2
    assert table.value_of((1,), 1) == 0  # captured states are implicit zeros


def test_path2_one_cop():
    assert solve(path_graph(2), 1).capture_time == 1


def test_cycle4_one_cop_escapes():
    res = solve(cycle_graph(4), 1)
    assert is_escape(res.capture_time)
    assert res.central_tuples == ()
    naive = naive_value_iteration(cycle_graph(4), 1)
    assert is_escape(naive.capture_time)


@pytest.mark.parametrize("order", list(MoveOrder), ids=["robber-first", "cops-first"])
def test_two_cops_escape_on_petersen_with_pendant_path(order):
    # The Petersen graph has cop number 3, and a pendant path 0-10-...-14
    # gives the robber long finite chases, so both halves mix ESCAPE with
    # values 1..7 over four planes: ESCAPE is read from a k=2 table.
    edges = [(i, (i + 1) % 5) for i in range(5)] + [(i, i + 5) for i in range(5)]
    edges += [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    edges += [(0, 10), (10, 11), (11, 12), (12, 13), (13, 14)]
    g = build_graph(15, edges)
    fast, slow = solve(g, 2, order), naive_value_iteration(g, 2, order)
    assert is_escape(fast.capture_time) and is_escape(slow.capture_time)
    assert fast.central_tuples == ()
    for half, want in ((fast.table.value, slow.table.value), (fast.table.other, slow.table.other)):
        assert len(half.planes) == 4
        assert set(half.values()) == {ESCAPE, *range(1, 8)}
        assert half == want


def test_grid3x3_two_cops():
    assert solve(grid_graph(3, 3), 2).capture_time == 2


def test_cop_on_every_vertex_captures_at_placement():
    g = path_graph(3)
    assert capture_time_both_orders(g, 3) == (0, 0)


def test_both_orders_agree_on_known_instances():
    assert capture_time_both_orders(path_graph(4), 1) == (2, 2)
    assert capture_time_both_orders(grid_graph(3, 3), 2) == (2, 2)


def test_values_satisfy_recurrence():
    # Direct re-evaluation of the defining recurrence over the table.
    g = grid_graph(3, 3)
    res = solve(g, 2)
    table = res.table
    closed = [g.closed_neighborhood(v) for v in range(g.vertex_count)]
    for (cops, r), value in table.value.items():
        options = []
        for rp in closed[r]:
            if rp in cops:
                continue
            best = None
            for mv in itertools.product(*(closed[c] for c in cops)):
                if rp in mv:
                    cand = 1
                else:
                    tv = table.value_of(mv, rp)
                    cand = None if is_escape(tv) else 1 + tv
                if cand is not None and (best is None or cand < best):
                    best = cand
            options.append(best)
        recomputed = None if any(o is None for o in options) else max(options)
        if is_escape(value):
            assert recomputed is None
        else:
            assert recomputed == value


def test_one_vertex_with_many_cops_is_refused_by_its_per_cop_cost():
    # One vertex has one state for any k, but the pass keeps tables per
    # cop: 10^6 cops would take about 300 MB, so the default budget refuses.
    with pytest.raises(ResourceBudgetError) as exc:
        solve(build_graph(1, []), 10**6)
    assert exc.value.count > DEFAULT_STATE_BUDGET
    assert solve(build_graph(1, []), 10**4).capture_time == 0


def test_budget_error_carries_count():
    with pytest.raises(ResourceBudgetError) as exc:
        solve(grid_graph(3, 3), 2, state_budget=10)
    assert exc.value.count > 10


@pytest.mark.parametrize("k", [700, 10**9])
def test_huge_cop_count_is_refused_before_any_power(k):
    # (max degree + 1)^k overflowed a float at k = 700 and took forever at
    # k = 10^9; the count of states and tuple entries refuses it first.
    with pytest.raises(ResourceBudgetError) as exc:
        solve(path_graph(3), k)
    assert exc.value.count > DEFAULT_STATE_BUDGET
    # A budget above that count is refused too, as (max degree + 1)^k >= 2^k.
    with pytest.raises(ResourceBudgetError) as exc:
        solve(path_graph(3), k, state_budget=10**30)
    assert exc.value.count > 10**30


# Each refusal names the count that it compared with the budget.
def test_budget_error_names_the_compared_count():
    with pytest.raises(ResourceBudgetError, match=r"^solve budget exceeded: ~11610 "
                       r"state-successor pairs > budget 10$") as exc:
        solve(grid_graph(3, 3), 2, state_budget=10)
    assert exc.value.count == 11610
    with pytest.raises(ResourceBudgetError, match=r"^solve budget exceeded: ~256000000 "
                       r"state-equivalents of per-cop tables \(1000000 cops x 2\^8\) > "):
        solve(build_graph(1, []), 10**6)
    # A count of thousands of digits is written as a power of two, since
    # Python does not turn it into text.
    with pytest.raises(ResourceBudgetError, match=r"^solve budget exceeded: ~2\^11120 "
                       rf"state-successor pairs > budget {1 << 7001}$") as exc:
        solve(path_graph(3), 7000, state_budget=1 << 7001)
    assert exc.value.count.bit_length() == 11121


def test_every_count_of_stored_entries_over_the_budget_is_refused(monkeypatch):
    # A solve stores a value per (cop tuple, robber) and a vertex per cop,
    # about max(n, k) * C(n + k - 1, k) entries.  Whatever the refusal
    # compares, no triple over the budget by that count may start a pass.
    def no_pass(g, k):
        raise AssertionError(f"pass started on {g.vertex_count} vertices, k={k}")

    monkeypatch.setattr(solver, "_retrograde", no_pass)
    graphs = [build_graph(1, []), path_graph(2), path_graph(3), star_graph(5), cycle_graph(5),
              grid_graph(3, 3), random_tree(12, 5), path_graph(7000), grid_graph(100, 100)]
    ks = [1, 2, 3, 5, 10, 20, 63, 64, 100, 700, 7000, 10**6, 10**9]
    budgets = [1, 10, 1000, 10**4, 10**6, DEFAULT_STATE_BUDGET, 10**9, 2**64, 10**30]
    refused = 0
    for g in graphs:
        n = g.vertex_count
        for k in ks:
            # Budgets only grow, so the first one the count passes ends the row.
            reference = max(n, k) * math.comb(n + k - 1, k)
            for budget in budgets:
                if reference <= budget:
                    break
                with pytest.raises(ResourceBudgetError) as exc:
                    solve(g, k, state_budget=budget)
                assert exc.value.count > budget
                refused += 1
    assert refused > 500


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("order", list(MoveOrder), ids=lambda o: o.value)
def test_one_vertex_is_answered_without_a_pass(monkeypatch, k, order):
    def no_pass(g, k):
        raise AssertionError("a one-vertex game needs no pass")

    g = build_graph(1, [])
    slow = naive_value_iteration(g, k, order)
    monkeypatch.setattr(solver, "_retrograde", no_pass)
    fast = solve(g, k, order)
    assert fast.capture_time == slow.capture_time == 0
    assert fast.central_tuples == slow.central_tuples == ((0,) * k,)
    for half, want in ((fast.table.value, slow.table.value), (fast.table.other, slow.table.other)):
        assert len(half) == 0 and list(half.items()) == [] and dict(want) == {}
        assert half == want
    trace = simulate(g, GameConfig(cop_count=k, move_order=order), OptimalCop(fast), OptimalRobber(fast))
    assert str(trace.outcome) == "CAPTURED 0"


def test_budget_error_names_the_huge_cop_count_bound():
    # A budget of 10^4 has 14 bits, and 20 cops with 2 or more moves each
    # give at least 2^14 pairs.
    with pytest.raises(ResourceBudgetError, match=r"^solve budget exceeded: at least 16384 "
                       r"state-successor pairs \(20 cops, each with 2 or more moves\) "
                       r"> budget 10000$") as exc:
        solve(path_graph(3), 20, state_budget=10**4)
    assert exc.value.count == 2**14


def test_budget_error_names_the_state_successor_estimate():
    # 2 cops are fewer than the 10 bits of the budget, so the estimate is
    # formed: 45 tuples x (24 + 9 + 9 * 25) state-successor pairs.
    with pytest.raises(ResourceBudgetError, match=r"^solve budget exceeded: ~11610 "
                       r"state-successor pairs > budget 1000$") as exc:
        solve(grid_graph(3, 3), 2, state_budget=1000)
    assert exc.value.count == 11610


def test_naive_budget_error():
    with pytest.raises(ResourceBudgetError):
        naive_value_iteration(grid_graph(4, 4), 2, state_budget=100)


def test_naive_agrees_with_solve_on_fixed_instances():
    for g, k in [
        (path_graph(4), 1),
        (path_graph(2), 1),
        (cycle_graph(4), 1),
        (cycle_graph(4), 2),
        (star_graph(5), 1),
        (grid_graph(2, 3), 2),
        (path_graph(4), 3),
        (cycle_graph(5), 3),
        (grid_graph(2, 3), 3),
        (random_tree(7, SplitMix64(2024).next_u64()), 3),
    ]:
        for order in MoveOrder:
            fast = solve(g, k, order)
            slow = naive_value_iteration(g, k, order)
            assert fast.capture_time == slow.capture_time
            assert fast.central_tuples == slow.central_tuples
            assert fast.table.value == slow.table.value
            assert fast.table.other == slow.table.other


def _random_connected_graph(n: int, seed: int):
    # Random spanning tree plus a sprinkling of extra edges.
    rng = SplitMix64(seed)
    edges = [(i, rng.below(i)) for i in range(1, n)]
    extra = [p for p in itertools.combinations(range(n), 2) if rng.below(3) == 0]
    return build_graph(n, edges + extra)


@given(
    st.integers(min_value=2, max_value=6),
    st.integers(min_value=0, max_value=2**32),
    st.sampled_from([1, 2]),
)
@settings(max_examples=40, deadline=None)
def test_naive_agrees_with_solve_random(n, seed, k):
    g = _random_connected_graph(n, seed)
    for order in MoveOrder:
        fast = solve(g, k, order)
        slow = naive_value_iteration(g, k, order)
        assert fast.capture_time == slow.capture_time
        assert fast.table.value == slow.table.value
        assert fast.table.other == slow.table.other


def test_monotonicity_in_cop_count():
    rng = SplitMix64(5)
    for _ in range(10):
        t = random_tree(2 + rng.below(6), rng.next_u64())
        c1 = solve(t, 1).capture_time
        c2 = solve(t, 2).capture_time
        assert not is_escape(c1) and not is_escape(c2)
        assert c2 <= c1


def test_optimal_robber_placement_on_path4():
    res = solve(path_graph(4), 1)
    robber = OptimalRobber(res)
    r, _ = robber.place(path_graph(4), (1,))
    # Value 2 is achieved at both far vertices; smallest id wins the tie.
    assert res.table.value_of((1,), r) == 2
    assert r == 2


def test_optimal_cop_places_smallest_central_tuple():
    cop = OptimalCop(solve(path_graph(4), 1))
    assert cop.place(path_graph(4))[0] == (1,)


def test_optimal_cop_rejects_escape():
    with pytest.raises(InputError):
        OptimalCop(solve(cycle_graph(4), 1))


@pytest.mark.parametrize("strategy", [OptimalCop, OptimalRobber])
@pytest.mark.parametrize("order", list(MoveOrder))
def test_optimal_strategies_reject_a_one_half_table(strategy, order):
    # A reply indexes the halves that solve() builds; the naive oracle's
    # halves are plain dicts, so construction refuses them instead of the
    # first reply failing with a TypeError or an AttributeError.
    with pytest.raises(InputError, match="solve"):
        strategy(naive_value_iteration(path_graph(4), 1, order))


def test_self_play_matches_capture_time():
    instances = [
        (path_graph(4), 1),
        (path_graph(5), 1),
        (star_graph(5), 1),
        (grid_graph(2, 2), 2),
        (grid_graph(3, 3), 2),
        (cycle_graph(4), 2),
        (random_tree(7, 99), 1),
    ]
    for g, k in instances:
        for order in MoveOrder:
            res = solve(g, k, order)
            trace = simulate(
                g,
                GameConfig(cop_count=k, move_order=order),
                OptimalCop(res),
                OptimalRobber(res),
            )
            assert trace.outcome.captured
            assert trace.outcome.round == res.capture_time


def test_robber_with_all_neighbors_covered_stays_until_caught():
    # Star: cop at the center covers everything; the robber's best reply
    # value is 1 and staying is as good as anything.
    g = star_graph(4)
    res = solve(g, 1)
    assert res.capture_time == 1
    robber = OptimalRobber(res)
    from treecops import GameState, Side

    state = GameState((0,), 2, 1, Side.ROBBER)
    move, _ = robber.respond(g, state, None)
    assert move in (1, 2, 3)  # anything uncovered does not exist; all give value 1


def test_value_table_dump_format():
    res = solve(path_graph(3), 1)
    lines = dump_value_table(res.table).splitlines()
    assert lines == sorted(lines)
    for line in lines:
        parts = line.split()
        assert len(parts) == 3
        int(parts[0]), int(parts[1])
        assert parts[2] == "ESC" or int(parts[2]) >= 1
    esced = dump_value_table(solve(cycle_graph(4), 1).table)
    assert "ESC" in esced


def test_sorted_tuples_match_unsorted_oracle_values():
    # Canonicalization soundness: the ordered-tuple oracle agrees for
    # every permutation of the cop tuple.
    g = grid_graph(2, 3)
    fast = solve(g, 2)
    slow = naive_value_iteration(g, 2)  # raises internally if permutations differ
    assert fast.table.value == slow.table.value


# --- one pass for both orders, and the paths a bitmask core adds ------------


@pytest.mark.parametrize(
    "g, k, want",
    [(path_graph(67), 1, 33), (grid_graph(9, 8), 2, 7)],
    ids=["path:67", "grid:9x8"],
)
def test_more_than_64_vertices_match_closed_forms(g, k, want):
    # n = 67 and 72: masks span several bytes and 64-bit words, and the
    # last byte of the dilation tables is partial for path:67.
    assert capture_time_both_orders(g, k) == (want, want)


@pytest.mark.parametrize(
    "order, prefix",
    [(MoveOrder.ROBBER_FIRST, "dc21483a0254db58"), (MoveOrder.COPS_FIRST, "7f69845cd1a0881a")],
    ids=["robber-first", "cops-first"],
)
def test_dump_grid4x4_is_byte_identical(order, prefix):
    # Digests of the dumps written by the queue-based solver.
    dump = dump_value_table(solve(grid_graph(4, 4), 2, order).table)
    assert hashlib.sha256(dump.encode()).hexdigest()[:16] == prefix


def test_one_pass_serves_both_orders():
    for g, k in [(grid_graph(3, 3), 2), (cycle_graph(6), 1), (grid_graph(2, 3), 3)]:
        rf = solve(g, k, MoveOrder.ROBBER_FIRST)
        cf = solve(g, k, MoveOrder.COPS_FIRST)
        assert rf.table.other == cf.table.value
        assert cf.table.other == rf.table.value
        for res in (rf, cf):
            assert res.table.half(Side.ROBBER) == rf.table.value
            assert res.table.half(Side.COPS) == cf.table.value


@pytest.mark.parametrize(
    "g, k",
    [(grid_graph(3, 3), 2), (grid_graph(2, 3), 3), (path_graph(5), 1), (_TREE4XTREE3, 2),
     (cycle_graph(5), 1), (cycle_graph(5), 2)],
    ids=["grid:3x3", "grid:2x3", "path:5", "tree4xtree3", "cycle:5-k1", "cycle:5-k2"],
)
def test_halves_satisfy_the_one_step_identities(g, k):
    # OptimalCop reads the best reply's value from the cops-to-move half
    # and looks for a reply attaining it in the robber-to-move half; both
    # halves, read through value_of, must obey the one-step recurrence.
    cops_to_move = solve(g, k, MoveOrder.COPS_FIRST).table
    robber_to_move = solve(g, k, MoveOrder.ROBBER_FIRST).table
    closed = [g.closed_neighborhood(v) for v in range(g.vertex_count)]
    for cops, r in robber_to_move.value:
        moves = itertools.product(*(closed[c] for c in cops))
        replies = [robber_to_move.value_of(mv, r) for mv in moves]
        finite = [v for v in replies if not is_escape(v)]
        if any(r in closed[c] for c in cops):
            want = 1
        else:
            want = 1 + min(finite) if finite else ESCAPE
        assert cops_to_move.value_of(cops, r) == want, (cops, r)

        after = [cops_to_move.value_of(cops, rp) for rp in closed[r] if rp not in cops]
        want = ESCAPE if any(is_escape(v) for v in after) else max(after)
        assert robber_to_move.value_of(cops, r) == want, (cops, r)


def test_value_table_is_a_read_only_mapping():
    value = solve(path_graph(4), 1).table.value
    assert isinstance(value, Mapping)
    assert len(value) == len(list(value)) == 4 * 3
    assert ((1,), 1) not in value  # captured states are not stored
    with pytest.raises(TypeError):
        value[((1,), 0)] = 5  # type: ignore[index]


def _argmin_cop(g, table, cops, r):
    # First minimum over ordered replies, values re-derived from the
    # recurrence over the stored half (None plays escape).
    closed = [g.closed_neighborhood(v) for v in range(g.vertex_count)]
    best_mv, best = tuple(cops), None
    for mv in itertools.product(*(closed[c] for c in cops)):
        if r in mv:
            v = 1
        elif table.move_order is MoveOrder.ROBBER_FIRST:
            tv = table.value_of(mv, r)
            v = None if is_escape(tv) else 1 + tv
        else:
            after = [table.value_of(mv, rp) for rp in closed[r] if rp not in mv]
            v = None if any(is_escape(a) for a in after) else 1 + max(after)
        if v is not None and (best is None or v < best):
            best_mv, best = mv, v
    return best_mv


def _argmax_robber(g, table, cops, r):
    closed = [g.closed_neighborhood(v) for v in range(g.vertex_count)]
    best_r, best = None, 0
    for rp in closed[r]:
        if rp in cops:
            continue
        if table.move_order is MoveOrder.COPS_FIRST:
            tv = table.value_of(cops, rp)
            v = None if is_escape(tv) else tv
        else:
            v = None
            for mv in itertools.product(*(closed[c] for c in cops)):
                if rp in mv:
                    cand = 1
                else:
                    tv = table.value_of(mv, rp)
                    cand = None if is_escape(tv) else 1 + tv
                if cand is not None and (v is None or cand < v):
                    v = cand
        if v is None:
            return rp  # escape beats any finite value
        if best_r is None or v > best:
            best_r, best = rp, v
    return r if best_r is None else best_r


@pytest.mark.parametrize(
    "g, k",
    [(grid_graph(3, 3), 2), (grid_graph(2, 3), 3), (_TREE4XTREE3, 2), (path_graph(5), 1)],
    ids=["grid:3x3", "grid:2x3", "tree4xtree3", "path:5"],
)
@pytest.mark.parametrize("order", list(MoveOrder), ids=lambda o: o.value)
def test_optimal_moves_are_the_recurrence_argmin(g, k, order):
    from treecops import GameState, Side

    res = solve(g, k, order)
    cop, robber = OptimalCop(res), OptimalRobber(res)
    n = g.vertex_count
    for cops in itertools.product(range(n), repeat=k):
        for r in range(n):
            if r in cops:
                continue
            state = GameState(cops, r, 1, Side.COPS)
            assert cop.respond(g, state, None)[0] == _argmin_cop(g, res.table, cops, r)
            assert robber.respond(g, state, None)[0] == _argmax_robber(g, res.table, cops, r)


@pytest.mark.parametrize("g", [cycle_graph(5), grid_graph(2, 2)], ids=["cycle:5", "grid:2x2"])
@pytest.mark.parametrize("order", list(MoveOrder), ids=lambda o: o.value)
def test_optimal_robber_is_the_recurrence_argmax_with_escapes(g, order):
    # One cop never catches the robber here, so the robber's ESCAPE
    # replies are played; OptimalCop refuses such graphs.
    from treecops import GameState

    res = solve(g, 1, order)
    assert is_escape(res.capture_time)
    robber = OptimalRobber(res)
    n = g.vertex_count
    escapes = 0
    for c in range(n):
        values = [res.table.value_of((c,), r) for r in range(n)]
        # max() keeps the first of equal keys; ESCAPE ranks above every int.
        first_max = max(range(n), key=lambda r: (1, 0) if is_escape(values[r]) else (0, values[r]))
        assert robber.place(g, (c,))[0] == first_max
        for r in range(n):
            if r == c:
                continue
            reply = robber.respond(g, GameState((c,), r, 1, Side.ROBBER), None)[0]
            assert reply == _argmax_robber(g, res.table, (c,), r)
            escapes += is_escape(res.table.half(Side.COPS)[((c,), reply)])
    assert escapes


_MOVE_GRAPHS = {
    "grid:1x1": grid_graph(1, 1),
    "path:3": path_graph(3),
    "grid:3x4": grid_graph(3, 4),
    "tree4xtree3": _TREE4XTREE3,
}


@pytest.mark.parametrize(
    "name, k",
    [(name, k) for name in _MOVE_GRAPHS for k in (1, 2, 3)] + [("path:3", 5)],
)
def test_cop_move_relation_matches_definition(name, k):
    g = _MOVE_GRAPHS[name]
    n = g.vertex_count
    closed = _closed_lists(g)
    tuples, index, masks, moves = _cop_configuration_space(g, k, closed)
    assert tuples == list(itertools.combinations_with_replacement(range(n), k))
    assert index == {t: i for i, t in enumerate(tuples)}
    assert masks == [sum(1 << v for v in set(t)) for t in tuples]
    for t, mv in zip(tuples, moves):
        want = {tuple(sorted(m)) for m in itertools.product(*(closed[c] for c in t))}
        assert len(mv) == len(set(mv))  # no duplicate moves
        assert {tuples[j] for j in mv} == want
    # Move lists double as predecessor lists in the retrograde pass.
    relation = {(i, j) for i, mv in enumerate(moves) for j in mv}
    assert relation == {(j, i) for i, j in relation}


_DILATION_GRAPHS = {
    "grid:3x4": grid_graph(3, 4),
    "path:3": path_graph(3),
    "tree4xtree3": _TREE4XTREE3,
    "shuffled grid:3x4": _relabelled(grid_graph(3, 4), 5)[0],
}


@pytest.mark.parametrize("name, k, encoding", [(name, k, encoding) for name in _DILATION_GRAPHS
                                                for k in (1, 2, 3) for encoding in ("bytes", "shifts")
                                                if k == 1 or encoding == "shifts"])
def test_dilation_matches_definition(name, k, encoding):
    # Bit p = sum of c_i * n**i stands for the ordered tuple c; one cop
    # move from c reaches exactly the product of the closed neighbourhoods.
    # Byte tables move one cop only.
    g = _DILATION_GRAPHS[name]
    n = g.vertex_count
    closed = _closed_lists(g)
    dilate = _byte_dilation(closed) if encoding == "bytes" else _dilation(closed, k)

    # weighted[i][x]: the positions' terms for vertex x at coordinate i.
    weighted = [[[y * n ** i for y in closed[x]] for x in range(n)] for i in range(k)]
    single = {}
    for c in itertools.product(range(n), repeat=k):
        p = sum(x * n ** i for i, x in enumerate(c))
        got = dilate(1 << p)
        want = sum(1 << sum(m) for m in itertools.product(*(weighted[i][x] for i, x in enumerate(c))))
        assert got == want, c
        single[p] = got
    # The dilation of a set is the union of its members' dilations.
    rng = SplitMix64(k)
    for _ in range(20):
        members = [rng.below(n ** k) for _ in range(1 + rng.below(6))]
        want = 0
        for p in members:
            want |= single[p]
        assert dilate(sum(1 << p for p in set(members))) == want


@pytest.mark.parametrize("g, k", [(grid_graph(3, 3), 1), (cycle_graph(5), 1), (grid_graph(2, 3), 2),
                                  (cycle_graph(5), 2), (_relabelled(grid_graph(3, 3), 4)[0], 2),
                                  (path_graph(4), 3), (grid_graph(2, 3), 3)],
                         ids=["grid:3x3-k1", "cycle:5-k1", "grid:2x3-k2", "cycle:5-k2",
                              "shuffled-grid:3x3-k2", "path:4-k3", "grid:2x3-k3"])
def test_half_items_equal_state_by_state_lookups(g, k):
    res = solve(g, k)
    for half in (res.table.value, res.table.other):
        items = dict(half.items())
        assert items == {key: half[key] for key in half}
        assert len(items) == len(half)
        assert all((key, v) in half.items() for key, v in items.items())
        # Keys are exactly the (sorted tuple, free robber) pairs.
        for (t, r) in items:
            assert (t[::-1], r) in half if t == t[::-1] else (t[::-1], r) not in half
            assert (t, g.vertex_count) not in half and (t, -1) not in half


_RELABEL_CASES = [
    (random_tree(9, 3), 1, 1),
    (cycle_graph(6), 1, 2),
    (grid_graph(3, 3), 2, 3),
    (_TREE4XTREE3, 2, 4),
    (cycle_graph(5), 2, 5),
    (path_graph(4), 3, 6),
    (grid_graph(2, 3), 3, 7),
    (cycle_graph(6), 3, 8),
]


@pytest.mark.parametrize("k", [1, 2, 3])
def test_solve_is_invariant_under_relabelling(k):
    relabelled_inside = 0
    for g, kk, seed in _RELABEL_CASES:
        if kk != k:
            continue
        h, perm = _relabelled(g, seed)
        relabelled_inside += _layout(h, k)[0] is not None
        for order in MoveOrder:
            a, b = solve(g, k, order), solve(h, k, order)
            assert a.capture_time == b.capture_time
            assert b.central_tuples == tuple(sorted({tuple(sorted(perm[c] for c in t))
                                                     for t in a.central_tuples}))
            for x, y in ((a.table.value, b.table.value), (a.table.other, b.table.other)):
                mapped = {(tuple(sorted(perm[c] for c in t)), perm[r]): v for (t, r), v in x.items()}
                assert mapped == dict(y.items())
            slow = naive_value_iteration(h, k, order)
            assert b.capture_time == slow.capture_time
            assert b.central_tuples == slow.central_tuples
            assert b.table.value == slow.table.value
            assert b.table.other == slow.table.other
    # At least one shuffled copy takes the pass's own BFS labels.
    assert k == 1 or relabelled_inside
