import hashlib

import pytest
from hypothesis import given, settings, strategies as st

from treecops import (
    GameConfig,
    build_graph,
    GameState,
    InputError,
    MoveOrder,
    Side,
    best_response_length,
    cartesian_product,
    center_start,
    diameter,
    is_escape,
    TreeChaseCop,
    OptimalRobber,
    path_graph,
    random_tree,
    simulate,
    solve,
    star_graph,
    ProductTwoCop,
    ResourceBudgetError,
    TwoPhaseMemory,
)
from treecops.engine import advance_round
from treecops.generators import SplitMix64
from treecops.tree_strategies import StrategyInvariantError


def test_center_start_on_paths():
    # Path on 5 vertices (diam 4): index ceil(4/2) = 2.
    assert center_start(path_graph(5)) == 2
    # Path on 4 vertices (diam 3): 1-based position 1 + ceil(3/2) = 3.
    path4_center = center_start(path_graph(4))
    p = path_graph(4)
    from treecops import diametral_path

    assert path4_center == diametral_path(p)[2]


def test_center_start_star_is_center():
    assert center_start(star_graph(5)) == 0


def test_one_cop_best_response_is_half_diameter():
    for n in (2, 3, 5, 6):
        t = path_graph(n)
        got = best_response_length(t, GameConfig(cop_count=1), TreeChaseCop(t))
        assert got == n // 2  # ceil((n-1)/2)


def test_one_cop_matches_solver_on_random_tree():
    t = random_tree(9, 3)
    want = solve(t, 1).capture_time
    got = best_response_length(t, GameConfig(cop_count=1), TreeChaseCop(t))
    assert got == want == (diameter(t) + 1) // 2


# Diameters (3, 2) kept as is, (2, 3) swapped, (2, 4) with the first
# tree extended and (1, 3) with the second extended by a leaf.
ARRANGEMENTS = [
    (path_graph(4), path_graph(3), ("t1", "t2")),
    (path_graph(3), path_graph(4), ("t2", "t1")),
    (path_graph(3), path_graph(5), ("t1+leaf", "t2")),
    (path_graph(2), path_graph(4), ("t1", "t2+leaf")),
]
ARRANGEMENT_IDS = ["kept", "swapped", "first-extended", "second-extended"]


@pytest.mark.parametrize("t1, t2, arranged", ARRANGEMENTS, ids=ARRANGEMENT_IDS)
def test_two_cop_arranges_odd_then_even_diameter(t1, t2, arranged):
    strategy = ProductTwoCop(cartesian_product(t1, t2))
    inputs = {"t1": t1, "t2": t2}
    for tree, name in zip((strategy.tree1, strategy.tree2), arranged):
        source = inputs[name.removesuffix("+leaf")]
        if name.endswith("+leaf"):
            assert tree.vertex_count == source.vertex_count + 1
            assert diameter(tree) == diameter(source) + 1
        else:
            assert tree is source
    d1, d2 = diameter(strategy.tree1), diameter(strategy.tree2)
    assert d1 % 2 == 1 and d2 % 2 == 0
    a, b, m, n = strategy.path1, strategy.path2, strategy.m, strategy.n
    assert (len(a), len(b)) == (d1 + 1, d2 + 1) == (2 * m + 2, 2 * n + 1)
    cops, _ = strategy.place(strategy.product.flat)
    assert [strategy._internal_of[c] for c in cops] == [(a[m], b[n]), (a[m + 1], b[n])]
    # The bound is unchanged by the extension.
    assert (d1 + d2) // 2 == (diameter(t1) + diameter(t2)) // 2


@pytest.mark.parametrize("t1, t2, arranged", ARRANGEMENTS, ids=ARRANGEMENT_IDS)
def test_two_cop_takes_one_diametral_path_per_tree(t1, t2, arranged, monkeypatch):
    # One per factor, and one more for the tree that gains a leaf.
    import treecops.tree_strategies as tree_strategies

    calls = []
    original = tree_strategies.diametral_path
    monkeypatch.setattr(tree_strategies, "diametral_path",
                        lambda t: calls.append(t) or original(t))
    ProductTwoCop(cartesian_product(t1, t2))
    assert len(calls) == 2 + any(name.endswith("+leaf") for name in arranged)


def test_normalize_parity_mixed_unchanged():
    t1, t2 = path_graph(4), path_graph(3)  # diameters 3, 2
    strategy = ProductTwoCop(cartesian_product(t1, t2))
    assert strategy.tree1 is t1 and strategy.tree2 is t2


def test_initial_placement_p4_p3():
    strategy = ProductTwoCop(cartesian_product(path_graph(4), path_graph(3)))
    assert strategy.m == 1 and strategy.n == 1
    a, b = strategy.path1, strategy.path2
    cops, _ = strategy.place(strategy.product.flat)
    assert [strategy._internal_of[c] for c in cops] == [(a[1], b[1]), (a[2], b[1])]


def test_two_cop_placement_avoids_virtual_vertices():
    # Both factors even diameter: the first gets a virtual leaf, but the
    # placed cops must stand on real product vertices.
    prod = cartesian_product(path_graph(3), path_graph(3))
    strategy = ProductTwoCop(prod)
    cops, _ = strategy.place(prod.flat)
    assert all(0 <= c < prod.flat.vertex_count for c in cops)


GRID_CASES = [(m, n) for m in range(2, 6) for n in range(m, 6)]


@pytest.mark.parametrize("m,n", GRID_CASES)
def test_two_cop_exact_on_grids(m, n):
    prod = cartesian_product(path_graph(m), path_graph(n))
    strategy = ProductTwoCop(prod)
    got = best_response_length(prod.flat, GameConfig(cop_count=2), strategy)
    assert got == (m + n) // 2 - 1
    assert strategy.stats["endgame_entries"] > 0


def test_two_cop_exhaustive_on_tiny_tree_pairs():
    # Every ordered pair of labeled trees on at most 4 vertices.
    import itertools

    from treecops import all_labeled_trees

    small = [t for n in (2, 3, 4) for t in all_labeled_trees(n)]
    config = GameConfig(cop_count=2)
    for t1, t2 in itertools.product(small, small):
        prod = cartesian_product(t1, t2)
        want = (diameter(t1) + diameter(t2)) // 2
        got = best_response_length(prod.flat, config, ProductTwoCop(prod))
        assert got == want, f"{t1.adjacency} x {t2.adjacency}"


def test_two_cop_exact_on_lopsided_shapes():
    # Stars, brooms, and spiders push the strategy through deep
    # single-branch descents and early endgame entries.
    def broom(handle, bristles):
        edges = [(i, i + 1) for i in range(handle)]
        edges += [(handle, handle + 1 + b) for b in range(bristles)]
        return build_graph(handle + 1 + bristles, edges)

    def spider(legs, leg_len):
        edges, nid = [], 1
        for _ in range(legs):
            prev = 0
            for _ in range(leg_len):
                edges.append((prev, nid))
                prev, nid = nid, nid + 1
        return build_graph(nid, edges)

    shapes = [star_graph(7), broom(3, 4), spider(3, 2), path_graph(8), path_graph(2)]
    config = GameConfig(cop_count=2)
    for t1 in shapes:
        for t2 in shapes:
            prod = cartesian_product(t1, t2)
            want = (diameter(t1) + diameter(t2)) // 2
            got = best_response_length(prod.flat, config, ProductTwoCop(prod))
            assert got == want


def test_two_cop_exact_on_seeded_pairs():
    rng = SplitMix64(1234)
    for _ in range(12):
        t1 = random_tree(2 + rng.below(5), rng.next_u64())
        t2 = random_tree(2 + rng.below(5), rng.next_u64())
        prod = cartesian_product(t1, t2)
        want = (diameter(t1) + diameter(t2)) // 2
        strategy = ProductTwoCop(prod)
        got = best_response_length(prod.flat, GameConfig(cop_count=2), strategy)
        assert got == want, f"factors {t1.adjacency} x {t2.adjacency}"
        assert got == solve(prod.flat, 2).capture_time


def test_two_cop_never_beaten_by_optimal_robber():
    prod = cartesian_product(random_tree(5, 8), random_tree(6, 9))
    res = solve(prod.flat, 2)
    trace = simulate(
        prod.flat,
        GameConfig(cop_count=2),
        ProductTwoCop(prod),
        OptimalRobber(res),
    )
    assert trace.outcome.captured
    assert trace.outcome.round <= (diameter(prod.factor1) + diameter(prod.factor2)) // 2


def _height_potential(strategy, cops, memory):
    # h(u1)+h(v1)+h(u2)+h(v2) under the current (or provisional) roots,
    # where h(x) is the greatest d(x, w) over the w below x, read from the
    # strategy's distance tables.
    root1 = memory.root1 if memory.root1 is not None else strategy.path1[strategy.m + 1]
    total = 0
    for coord, dist, root in ((0, strategy._dist1, root1), (1, strategy._dist2, strategy.root2)):
        top = dist[root]
        for c in cops:
            x = strategy._internal_of[c][coord]
            total += max(d for w, d in enumerate(dist[x]) if top[x] + d == top[w])
    return total


def test_height_potential_drops_two_per_cop_move():
    # Drive rounds by hand and watch the potential after every cop move.
    rng = SplitMix64(77)
    for _ in range(8):
        t1 = random_tree(2 + rng.below(5), rng.next_u64())
        t2 = random_tree(2 + rng.below(5), rng.next_u64())
        prod = cartesian_product(t1, t2)
        g = prod.flat
        strategy = ProductTwoCop(prod)
        robber = OptimalRobber(solve(g, 2))
        config = GameConfig(cop_count=2)
        cops0, cmem = strategy.place(g)
        r0, rmem = robber.place(g, cops0)
        state = GameState(tuple(cops0), r0, 0, Side.ROBBER)
        cmem = strategy.observe_placement(g, state, cmem)
        if state.captured:
            continue
        potential = _height_potential(strategy, state.cops, cmem)
        for _round in range(4 * g.vertex_count):
            state, rmem, cmem, _rec = advance_round(
                g, config, state, robber, rmem, strategy, cmem
            )
            if state.captured:
                break
            new_potential = _height_potential(strategy, state.cops, cmem)
            assert new_potential <= potential - 2
            potential = new_potential
        assert state.captured


def test_strategy_requires_observe_placement():
    prod = cartesian_product(path_graph(3), path_graph(4))
    strategy = ProductTwoCop(prod)
    cops, mem = strategy.place(prod.flat)
    state = GameState(cops, 0, 0, Side.COPS)
    with pytest.raises(StrategyInvariantError):
        strategy.respond(prod.flat, state, mem)


def test_two_cop_rejects_non_tree_factors():
    from treecops import cycle_graph

    prod = cartesian_product(cycle_graph(4), path_graph(3))
    with pytest.raises(InputError):
        ProductTwoCop(prod)


def test_tree_chase_rejects_a_non_tree():
    from treecops import cycle_graph

    with pytest.raises(InputError):
        TreeChaseCop(cycle_graph(4))


def test_tree_chase_builds_no_distance_rows(monkeypatch):
    # Stepping toward the robber needs hop rows only.
    from treecops import tree_strategies

    def no_distance_rows(*args):
        raise AssertionError("TreeChaseCop built distance rows")

    monkeypatch.setattr(tree_strategies, "dist_rows", no_distance_rows)
    t = random_tree(60, 4)
    got = best_response_length(t, GameConfig(cop_count=1), TreeChaseCop(t))
    assert got == (diameter(t) + 1) // 2


def test_two_cop_works_cops_first_order():
    # The guarantee is stated for robber-first play, but the responder
    # only looks at positions, so cops-first cannot be worse.
    prod = cartesian_product(path_graph(4), path_graph(3))
    config = GameConfig(cop_count=2, move_order=MoveOrder.COPS_FIRST)
    got = best_response_length(prod.flat, config, ProductTwoCop(prod))
    assert not is_escape(got)
    assert got <= (3 + 2) // 2 + 1


# Values and strategy counters of the exhaustive search on fixed inputs.
# A change that alters the explored states (or the strategy's moves)
# changes these counters, so a faster path must leave them as they are.
_PINNED_SEARCHES = [
    (lambda: cartesian_product(random_tree(12, 5), random_tree(15, 9)), MoveOrder.ROBBER_FIRST,
     7, {"endgame_entries": 1332, "invariant_checks": 3520, "responses": 3602}),
    (lambda: cartesian_product(random_tree(12, 5), random_tree(15, 9)), MoveOrder.COPS_FIRST,
     7, {"endgame_entries": 660, "invariant_checks": 2064, "responses": 2350}),
    (lambda: cartesian_product(path_graph(6), path_graph(7)), MoveOrder.ROBBER_FIRST,
     5, {"endgame_entries": 236, "invariant_checks": 536, "responses": 582}),
    (lambda: cartesian_product(path_graph(6), path_graph(7)), MoveOrder.COPS_FIRST,
     5, {"endgame_entries": 108, "invariant_checks": 276, "responses": 342}),
    # Seeded pairs of each parity: both diameters odd (5, 5), both even
    # (8, 6), and even and odd (10, 9).
    (lambda: cartesian_product(random_tree(9, 11), random_tree(7, 12)), MoveOrder.ROBBER_FIRST,
     5, {"endgame_entries": 386, "invariant_checks": 849, "responses": 873}),
    (lambda: cartesian_product(random_tree(9, 11), random_tree(7, 12)), MoveOrder.COPS_FIRST,
     5, {"endgame_entries": 148, "invariant_checks": 389, "responses": 481}),
    (lambda: cartesian_product(random_tree(17, 5), random_tree(13, 6)), MoveOrder.ROBBER_FIRST,
     7, {"endgame_entries": 1659, "invariant_checks": 4305, "responses": 4512}),
    (lambda: cartesian_product(random_tree(17, 5), random_tree(13, 6)), MoveOrder.COPS_FIRST,
     7, {"endgame_entries": 876, "invariant_checks": 2643, "responses": 3006}),
    (lambda: cartesian_product(random_tree(16, 51), random_tree(15, 52)), MoveOrder.ROBBER_FIRST,
     9, {"endgame_entries": 1887, "invariant_checks": 6261, "responses": 6795}),
    (lambda: cartesian_product(random_tree(16, 51), random_tree(15, 52)), MoveOrder.COPS_FIRST,
     9, {"endgame_entries": 1243, "invariant_checks": 4729, "responses": 5251}),
]


@pytest.mark.parametrize("make_product, order, value, stats", _PINNED_SEARCHES)
def test_best_response_search_is_pinned(make_product, order, value, stats):
    prod = make_product()
    strategy = ProductTwoCop(prod)
    got = best_response_length(prod.flat, GameConfig(cop_count=2, move_order=order), strategy)
    assert got == value
    assert strategy.stats == stats


# The first 16 hex digits of the sha256 over every ProductTwoCop reply of
# the exhaustive search, one line per reply in call order: state, memory,
# reply and new memory.  A change to the strategy's moves changes them.
_PINNED_REPLIES = [
    (lambda: cartesian_product(random_tree(12, 5), random_tree(15, 9)),
     {MoveOrder.ROBBER_FIRST: "7e7d751de77bef28", MoveOrder.COPS_FIRST: "c53746342dc066d3"}),
    (lambda: cartesian_product(random_tree(17, 5), random_tree(13, 6)),
     {MoveOrder.ROBBER_FIRST: "ea098cf04dd6a6f6", MoveOrder.COPS_FIRST: "d19cfd7461915750"}),
    (lambda: cartesian_product(path_graph(6), path_graph(7)),
     {MoveOrder.ROBBER_FIRST: "d61023c2e7ae33b3", MoveOrder.COPS_FIRST: "c718509a8183f4f3"}),
]


@pytest.mark.parametrize("order", list(MoveOrder))
@pytest.mark.parametrize("make_product, digests", _PINNED_REPLIES)
def test_every_reply_of_the_search_is_pinned(make_product, digests, order, monkeypatch):
    prod = make_product()
    strategy = ProductTwoCop(prod)
    respond = strategy.respond
    digest = hashlib.sha256()

    def recorded(g, state, memory):
        cops, new_memory = respond(g, state, memory)
        line = f"{state.cops} {state.robber} {tuple(memory)} -> {cops} {tuple(new_memory)}\n"
        digest.update(line.encode())
        return cops, new_memory

    monkeypatch.setattr(strategy, "respond", recorded)
    best_response_length(prod.flat, GameConfig(cop_count=2, move_order=order), strategy)
    assert digest.hexdigest()[:16] == digests[order]


small_trees = st.builds(
    random_tree,
    st.integers(min_value=2, max_value=10),
    st.integers(min_value=0, max_value=2**32),
)


@given(small_trees, small_trees)
@settings(max_examples=30, deadline=None)
def test_best_response_against_two_cops_is_half_the_product_diameter(t1, t2):
    # Mehrabian's theorem, constructively: the best robber survives the
    # two-cop strategy for exactly floor((d1 + d2) / 2) rounds.
    prod = cartesian_product(t1, t2)
    got = best_response_length(prod.flat, GameConfig(cop_count=2), ProductTwoCop(prod))
    assert got == (diameter(t1) + diameter(t2)) // 2


# The same digest over every TreeChaseCop reply of the search, whose
# memory is always None.  The next-hop rows it replies from are re-rooted
# from one BFS, so these pin that the rows, not only the value, are unchanged.
_PINNED_CHASE_REPLIES = [
    (lambda: random_tree(200, 1000),
     {MoveOrder.ROBBER_FIRST: "6a4de5bc7e3cae2e", MoveOrder.COPS_FIRST: "87de2a261661cb00"}),
    (lambda: path_graph(60),
     {MoveOrder.ROBBER_FIRST: "83ec44faeeffb0ce", MoveOrder.COPS_FIRST: "00418b443d5b8235"}),
    (lambda: star_graph(40),
     {MoveOrder.ROBBER_FIRST: "cc9df5cc5cada530", MoveOrder.COPS_FIRST: "cc9df5cc5cada530"}),
]


@pytest.mark.parametrize("order", list(MoveOrder))
@pytest.mark.parametrize("make_tree, digests", _PINNED_CHASE_REPLIES)
def test_every_tree_chase_reply_of_the_search_is_pinned(make_tree, digests, order, monkeypatch):
    t = make_tree()
    strategy = TreeChaseCop(t)
    respond = strategy.respond
    digest = hashlib.sha256()

    def recorded(g, state, memory):
        cops, new_memory = respond(g, state, memory)
        digest.update(f"{state.cops} {state.robber} {memory} -> {cops} {new_memory}\n".encode())
        return cops, new_memory

    monkeypatch.setattr(strategy, "respond", recorded)
    best_response_length(t, GameConfig(cop_count=1, move_order=order), strategy)
    assert digest.hexdigest()[:16] == digests[order]


@pytest.mark.parametrize("t1, t2", [(path_graph(3), path_graph(5)), (path_graph(2), path_graph(4)),
                                    (random_tree(20, 3), random_tree(9, 4)),
                                    (random_tree(41, 7), random_tree(30, 8))],
                         ids=["first-extended", "second-extended", "random-20-9", "random-41-30"])
def test_two_cop_rows_equal_bfs_rows_on_the_arranged_trees(t1, t2):
    # The rows the strategy reads, on the trees it arranged (one of them
    # possibly extended by the virtual leaf), are those of a BFS per source.
    from treecops.graphs import bfs_parents

    strategy = ProductTwoCop(cartesian_product(t1, t2))
    for tree, dist, hop in ((strategy.tree1, strategy._dist1, strategy._hop1),
                            (strategy.tree2, strategy._dist2, strategy._hop2)):
        assert len(dist) == len(hop) == tree.vertex_count
        for source in range(tree.vertex_count):
            want_dist, want_hop = bfs_parents(tree, source)
            want_hop[source] = source
            assert dist[source] == want_dist
            assert hop[source] == want_hop


def test_tree_chase_best_response_is_pinned():
    t = random_tree(200, 1000)
    assert best_response_length(t, GameConfig(cop_count=1), TreeChaseCop(t)) == 23


def _two_cop_game():
    prod = cartesian_product(random_tree(12, 5), random_tree(15, 9))
    return prod.flat, 2, ProductTwoCop(prod)


def _chase_game():
    t = random_tree(200, 1000)
    return t, 1, TreeChaseCop(t)


# The strategies return one object per distinct cop tuple and memory, so
# the search's memo keys share them instead of each holding its own copy.
@pytest.mark.parametrize("order", list(MoveOrder))
@pytest.mark.parametrize("make_game", [_two_cop_game, _chase_game], ids=["two-cop", "chase"])
def test_equal_replies_of_the_search_are_one_object(make_game, order, monkeypatch):
    g, k, strategy = make_game()
    respond = strategy.respond
    replies = []

    def recorded(g, state, memory):
        reply = respond(g, state, memory)
        replies.append(reply)
        return reply

    monkeypatch.setattr(strategy, "respond", recorded)
    best_response_length(g, GameConfig(cop_count=k, move_order=order), strategy)
    first_cops, first_memory = {}, {}
    for cops, memory in replies:
        assert first_cops.setdefault(cops, cops) is cops
        assert first_memory.setdefault(memory, memory) is memory
    assert len(first_cops) < len(replies) and len(first_memory) < len(replies)


# A search that runs out of budget: the states counted and the strategy's
# counters at that point.  Sharing replies must not change which states
# the budget counts.
_PINNED_BUDGET_ERRORS = [
    (lambda: cartesian_product(random_tree(12, 5), random_tree(15, 9)), MoveOrder.ROBBER_FIRST,
     100, 101, {"endgame_entries": 29, "invariant_checks": 202, "responses": 360}),
    (lambda: cartesian_product(random_tree(12, 5), random_tree(15, 9)), MoveOrder.COPS_FIRST,
     100, 101, {"endgame_entries": 11, "invariant_checks": 52, "responses": 101}),
    (lambda: cartesian_product(random_tree(12, 5), random_tree(15, 9)), MoveOrder.COPS_FIRST,
     1000, 1001, {"endgame_entries": 118, "invariant_checks": 684, "responses": 1001}),
    (lambda: cartesian_product(path_graph(6), path_graph(7)), MoveOrder.ROBBER_FIRST,
     100, 102, {"endgame_entries": 144, "invariant_checks": 325, "responses": 377}),
    (lambda: cartesian_product(path_graph(6), path_graph(7)), MoveOrder.COPS_FIRST,
     100, 101, {"endgame_entries": 22, "invariant_checks": 76, "responses": 101}),
]


@pytest.mark.parametrize("make_product, order, budget, count, stats", _PINNED_BUDGET_ERRORS)
def test_a_search_over_budget_is_pinned(make_product, order, budget, count, stats):
    prod = make_product()
    strategy = ProductTwoCop(prod)
    with pytest.raises(ResourceBudgetError) as exc:
        best_response_length(prod.flat, GameConfig(cop_count=2, move_order=order), strategy,
                             memo_budget=budget)
    assert exc.value.count == count
    assert strategy.stats == stats


def _virtual_leaf(strategy, t1, t2, extended):
    # The leaf takes the next free id of the extended tree (axis 0 or 1).
    tree = (strategy.tree1, strategy.tree2)[extended]
    assert tree.vertex_count == (t1, t2)[extended].vertex_count + 1
    return tree.vertex_count - 1


@pytest.mark.parametrize("t1, t2, extended", [(path_graph(3), path_graph(3), 0),
                                              (path_graph(2), path_graph(4), 1)],
                         ids=["t10-t20", "t11-t21"])
def test_flat_rejects_pairs_on_the_virtual_leaf(t1, t2, extended):
    # Both diameters even (first factor extended) or both odd (second).
    strategy = ProductTwoCop(cartesian_product(t1, t2))
    virtual = _virtual_leaf(strategy, t1, t2, extended)
    pair = (virtual, 0) if extended == 0 else (0, virtual)
    with pytest.raises(StrategyInvariantError, match="virtual vertex"):
        strategy._flat(pair)
    # Every real pair still maps back to its product vertex.
    for flat in range(strategy.product.flat.vertex_count):
        assert strategy._flat(strategy._internal_of[flat]) == flat


@pytest.mark.parametrize(
    "t1, t2, extended, robber",
    [(path_graph(3), path_graph(3), 0, 7), (path_graph(2), path_graph(4), 1, 3)],
    ids=["t10-t20-7", "t11-t21-3"],
)
def test_respond_rejects_a_move_onto_the_virtual_leaf(t1, t2, extended, robber, monkeypatch):
    # From this robber start the cops' first move descends in the extended
    # tree; a next-hop row that leads onto the virtual leaf there makes the
    # strategy raise its own error.
    strategy = ProductTwoCop(cartesian_product(t1, t2))
    g = strategy.product.flat
    virtual = _virtual_leaf(strategy, t1, t2, extended)
    cops, memory = strategy.place(g)
    memory = strategy.observe_placement(g, GameState(cops, robber, 0, Side.ROBBER), memory)
    state = GameState(cops, robber, 1, Side.COPS)
    assert all(0 <= c < g.vertex_count for c in strategy.respond(g, state, memory)[0])
    (a1, _), (b1, _) = (strategy._internal_of[c] for c in cops)
    r1, r2 = strategy._internal_of[robber]
    if extended == 0:
        # The near cop steps onto the leaf; the far cop still steps onto
        # the near cop's column, so the pair contracts.
        hop1 = list(strategy._hop1)
        row = hop1[r1] = list(hop1[r1])
        row[a1 if row[b1] == a1 else b1] = virtual
        monkeypatch.setattr(strategy, "_hop1", hop1)
    else:
        hop2 = list(strategy._hop2)
        hop2[r2] = [virtual] * len(hop2[r2])
        monkeypatch.setattr(strategy, "_hop2", hop2)
    with pytest.raises(StrategyInvariantError, match="virtual vertex"):
        strategy.respond(g, state, memory)


def _forged_endgame(robber_start, robber_now, cops=((1, 2), (2, 2)), root1=2):
    # P4 x P5: the odd tree is P4 (diameter 3), the even tree P5 (4). By
    # default the cops stand where they are placed, at (a2, b3) and
    # (a3, b3) in path labels, and the odd tree hangs from a3; cop 0 is near.
    strategy = ProductTwoCop(cartesian_product(path_graph(4), path_graph(5)))
    a, b = strategy.path1, strategy.path2
    g = strategy.product.flat
    flat = [strategy._flat((a[i], b[j])) for i, j in (robber_start, robber_now, *cops)]
    cops = tuple(flat[2:])
    memory = TwoPhaseMemory("endgame", flat[0], 0, a[root1])
    return lambda: strategy.respond(g, GameState(cops, flat[1], 1, Side.COPS), memory)


def test_endgame_rejects_a_round_that_starts_with_unmatched_distances():
    # Robber at (a1, b3): d(u1,r1) = 1, d(v1,r1) = 2, but d(u2,r2) = 0.
    with pytest.raises(StrategyInvariantError, match="unmatched distances"):
        _forged_endgame((0, 2), (0, 2))()


def test_endgame_rejects_a_robber_step_that_changes_both_coordinates():
    # Robber from (a1, b1), where the distances 1, 2 and 2 match, to (a2, b2).
    with pytest.raises(StrategyInvariantError, match="both coordinates"):
        _forged_endgame((0, 0), (1, 1))()
    # The matched start itself is a legal endgame round.
    _forged_endgame((0, 0), (0, 0))()


def test_endgame_rejects_a_robber_outside_the_near_cops_odd_subtree():
    # With the odd tree hung from a1, the robber at (a1, b1) is not below
    # u1 = a2; the distances still match, and the cops descend in T2.
    with pytest.raises(StrategyInvariantError, match="not a descendant of u1"):
        _forged_endgame((0, 0), (0, 0), root1=0)()


def test_endgame_rejects_a_robber_outside_the_cops_even_subtree():
    # Cops at (a3, b2) and (a4, b2), robber at (a1, b4): the distances
    # match and the cops descend in T1, but b4 is not below u2 = b2 when
    # the even tree hangs from its centre b3.
    with pytest.raises(StrategyInvariantError, match="not a descendant of u2"):
        _forged_endgame((0, 3), (0, 3), cops=((2, 1), (3, 1)), root1=3)()


# Mutants of a legal round on P4 x P5: the cops at (a2, b3) and (a3, b3),
# the robber from (a1, b1), where the distances 1, 2 and 2 match, and the
# odd tree hung from a1, so the robber is below neither cop.  In equalize
# the reply enters the endgame and its entry check fails; in the endgame
# the check after the cops' even-tree descent fails.  Each names the
# failure and the full state, and counts the failing check once.
_BROKEN_ROOT = [
    ("equalize", (0, 0), "invariants failed endgame entry: r1=3 not a descendant of u1=2; "
     "r1=3 not a descendant of v1=1 [u1=2 v1=1 u2=2 r=(3, 4) root1=3 root2=2]",
     {"endgame_entries": 1, "invariant_checks": 1, "responses": 1}),
    ("equalize", (1, 0), "invariants failed endgame entry: r1=3 not a descendant of u1=2; "
     "r1=3 not a descendant of v1=1 [u1=2 v1=1 u2=2 r=(3, 4) root1=3 root2=2]",
     {"endgame_entries": 1, "invariant_checks": 1, "responses": 1}),
    ("endgame", (0, 0), "invariants failed after endgame move: r1=3 not a descendant of u1=2; "
     "r1=3 not a descendant of v1=1 [u1=2 v1=1 u2=3 r=(3, 4) root1=3 root2=2]",
     {"endgame_entries": 0, "invariant_checks": 1, "responses": 1}),
    ("endgame", (1, 0), "invariants failed after endgame move: "
     "r1=2 not a descendant of v1=1 [u1=2 v1=1 u2=3 r=(2, 4) root1=3 root2=2]",
     {"endgame_entries": 0, "invariant_checks": 1, "responses": 1}),
]


@pytest.mark.parametrize("phase, robber_now, message, stats", _BROKEN_ROOT,
                         ids=["entry-stays", "entry-climbs", "move-stays", "move-climbs"])
def test_a_root_that_breaks_descendant_containment_fails_the_invariants(
        phase, robber_now, message, stats):
    strategy = ProductTwoCop(cartesian_product(path_graph(4), path_graph(5)))
    a, b = strategy.path1, strategy.path2
    flat = [strategy._flat((a[i], b[j])) for i, j in ((0, 0), robber_now, (1, 2), (2, 2))]
    memory = TwoPhaseMemory(phase, flat[0], 0, a[0])
    state = GameState(tuple(flat[2:]), flat[1], 1, Side.COPS)
    with pytest.raises(StrategyInvariantError) as caught:
        strategy.respond(strategy.product.flat, state, memory)
    assert str(caught.value) == message
    assert strategy.stats == stats


class _RootedAtAnEnd(ProductTwoCop):
    """A mutant that hangs the odd tree from an end of its diametral path
    from the placement on, instead of freezing a root at the first descent."""

    def observe_placement(self, g, state, memory):
        return memory._replace(prev_robber=state.robber, root1=self.path1[0])


def test_a_search_stops_at_the_first_failed_entry_check():
    # Cops first on P4 x P5, the search passes 22 invariant checks and 12
    # endgame entries before the 13th entry check fails.
    prod = cartesian_product(path_graph(4), path_graph(5))
    strategy = _RootedAtAnEnd(prod)
    config = GameConfig(cop_count=2, move_order=MoveOrder.COPS_FIRST)
    with pytest.raises(StrategyInvariantError) as caught:
        best_response_length(prod.flat, config, strategy)
    assert str(caught.value) == ("invariants failed endgame entry: r1=2 not a descendant of "
                                 "v1=1 [u1=2 v1=1 u2=1 r=(2, 0) root1=3 root2=2]")
    assert strategy.stats == {"endgame_entries": 13, "invariant_checks": 23, "responses": 33}


def test_two_phase_memory_compares_by_fields():
    a = TwoPhaseMemory("endgame", 7, 1, 3)
    b = TwoPhaseMemory("endgame", 7, 1, 3)
    assert a == b and hash(a) == hash(b)
    assert len({a, b}) == 1
    assert a != TwoPhaseMemory("endgame", 7, 0, 3)
    assert a._replace(prev_robber=9) == TwoPhaseMemory("endgame", 9, 1, 3)


# ProductTwoCop keeps the round-start part of its last reply and reuses it
# while the cops and the memory are the very same objects.  A fresh
# instance, asked once, has nothing to reuse: its reply is the reference.
def _reply_or_error(strategy, g, state, memory):
    try:
        return strategy.respond(g, state, memory)
    except StrategyInvariantError as exc:
        return f"raised: {exc}"


def _fresh(prod, g, state, memory):
    return _reply_or_error(ProductTwoCop(prod), g, state, memory)


@pytest.mark.parametrize("order", list(MoveOrder))
@pytest.mark.parametrize("sizes, seeds", [((5, 7), (1, 2)), ((8, 6), (3, 4)), ((7, 7), (5, 6)),
                                          ((9, 4), (7, 8))])
def test_every_reply_of_the_search_equals_a_fresh_strategys(sizes, seeds, order, monkeypatch):
    prod = cartesian_product(random_tree(sizes[0], seeds[0]), random_tree(sizes[1], seeds[1]))
    g = prod.flat
    strategy = ProductTwoCop(prod)
    respond = strategy.respond
    asked = []

    def recorded(g, state, memory):
        reply = respond(g, state, memory)
        asked.append((state, memory, reply))
        return reply

    monkeypatch.setattr(strategy, "respond", recorded)
    best_response_length(g, GameConfig(cop_count=2, move_order=order), strategy)
    assert len(asked) == strategy.stats["responses"] > 0
    for state, memory, reply in asked:
        assert _fresh(prod, g, state, memory) == reply


def _two_round_starts(prod):
    """Two states with their memories, after two different robber placements."""
    strategy = ProductTwoCop(prod)
    g = prod.flat
    cops, memory = strategy.place(g)
    starts = []
    for robber in (0, g.vertex_count - 1):
        placed = strategy.observe_placement(g, GameState(cops, robber, 0, Side.ROBBER), memory)
        starts.append((GameState(cops, robber, 1, Side.COPS), placed))
    return starts


def test_interleaved_replies_equal_fresh_replies():
    prod = cartesian_product(path_graph(4), path_graph(5))
    g = prod.flat
    (state_a, memory_a), (state_b, memory_b) = _two_round_starts(prod)
    strategy = ProductTwoCop(prod)
    want_a, want_b = _fresh(prod, g, state_a, memory_a), _fresh(prod, g, state_b, memory_b)
    assert want_a != want_b
    for state, memory, want in [(state_a, memory_a, want_a), (state_b, memory_b, want_b),
                                (state_a, memory_a, want_a)]:
        assert strategy.respond(g, state, memory) == want
    assert strategy.stats["responses"] == 3


def test_equal_but_distinct_objects_get_the_same_reply():
    prod = cartesian_product(path_graph(4), path_graph(5))
    g = prod.flat
    (state, memory), _ = _two_round_starts(prod)
    strategy = ProductTwoCop(prod)
    want = strategy.respond(g, state, memory)
    copy_state = GameState(tuple(list(state.cops)), state.robber, 1, Side.COPS)
    copy_memory = TwoPhaseMemory(*memory)
    assert copy_state.cops is not state.cops and copy_memory is not memory
    assert strategy.respond(g, copy_state, copy_memory) == want
    assert strategy.respond(g, copy_state, memory) == want
    assert _fresh(prod, g, copy_state, copy_memory) == want


def test_the_same_memory_with_other_cops_is_read_again():
    prod = cartesian_product(path_graph(4), path_graph(5))
    g = prod.flat
    (state, memory), _ = _two_round_starts(prod)
    moved, _ = ProductTwoCop(prod).respond(g, state, memory)
    other = GameState(moved, state.robber, 1, Side.COPS)
    want = _fresh(prod, g, other, memory)
    strategy = ProductTwoCop(prod)
    assert strategy.respond(g, state, memory) != want
    assert _reply_or_error(strategy, g, other, memory) == want


def test_a_cops_list_mutated_between_calls_is_read_again():
    prod = cartesian_product(path_graph(4), path_graph(5))
    g = prod.flat
    (state, memory), _ = _two_round_starts(prod)
    moved, _ = ProductTwoCop(prod).respond(g, state, memory)
    strategy = ProductTwoCop(prod)
    cops = list(state.cops)
    before = GameState(cops, state.robber, 1, Side.COPS)
    want_before = _fresh(prod, g, GameState(tuple(cops), state.robber, 1, Side.COPS), memory)
    assert _reply_or_error(strategy, g, before, memory) == want_before
    cops[:] = moved
    want_after = _fresh(prod, g, GameState(tuple(moved), state.robber, 1, Side.COPS), memory)
    assert want_after != want_before
    assert _reply_or_error(strategy, g, before, memory) == want_after


def test_a_round_start_that_raises_raises_on_every_reply():
    prod = cartesian_product(path_graph(4), path_graph(5))
    g = prod.flat
    (state, memory), _ = _two_round_starts(prod)
    strategy = ProductTwoCop(prod)
    unplaced = memory._replace(prev_robber=None)
    for _ in range(2):
        with pytest.raises(StrategyInvariantError, match="not shown the robber placement"):
            strategy.respond(g, state, unplaced)
    assert strategy.respond(g, state, memory) == _fresh(prod, g, state, memory)
