"""Acceptance criteria, one test per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
pass lines and timings.  Everything is exact integer arithmetic; there
are no tolerances anywhere.
"""
import itertools
import time

import pytest

from treecops import (
    ESCAPE,
    GameConfig,
    Graph,
    MoveOrder,
    best_response_length,
    capture_time_both_orders,
    cartesian_product,
    cycle_graph,
    diameter,
    grid_graph,
    is_escape,
    naive_value_iteration,
    TreeChaseCop,
    OptimalCop,
    OptimalRobber,
    path_graph,
    random_tree,
    simulate,
    solve,
    ProductTwoCop,
)
from treecops.bounds import check_lemma3, check_multi_tree_bounds
from treecops.generators import SplitMix64, all_labeled_trees
from treecops.graphs import bfs_distances
from treecops.suites import tree_pair_corpus

CORPUS_SEED = 42
CORPUS_COUNT = 50


def announce(criterion: int, name: str, started: float) -> None:
    print(f"\nACCEPTANCE criterion {criterion} ({name}): PASS [{time.time() - started:.1f}s]")


@pytest.fixture(scope="module")
def corpus():
    return tree_pair_corpus(CORPUS_SEED, CORPUS_COUNT, 2, 7)


@pytest.fixture(scope="module")
def corpus_solved(corpus):
    """(t1, t2, product, robber-first solve result) per corpus pair."""
    out = []
    for t1, t2, _desc in corpus:
        product = cartesian_product(t1, t2)
        out.append((t1, t2, product, solve(product.flat, 2)))
    return out


def test_criterion_1_grid_formula():
    started = time.time()
    for m in range(2, 7):
        for n in range(2, 7):
            want = (m + n) // 2 - 1
            rf, cf = capture_time_both_orders(grid_graph(m, n), 2)
            assert rf == want, f"grid {m}x{n} robber-first: {rf} != {want}"
            assert cf == want, f"grid {m}x{n} cops-first: {cf} != {want}"
    announce(1, "grid formula, both orders, 2..6", started)


def test_criterion_2_one_cop_tree_capture_time():
    started = time.time()
    checked = 0
    for n in range(2, 8):
        for tree in all_labeled_trees(n):
            want = (diameter(tree) + 1) // 2
            got = solve(tree, 1).capture_time
            assert got == want, f"tree on {n} vertices: {got} != {want}"
            checked += 1
    assert checked == 1 + 3 + 16 + 125 + 1296 + 16807
    rng = SplitMix64(2024)
    config = GameConfig(cop_count=1)
    for _ in range(100):
        tree = random_tree(2 + rng.below(6), rng.next_u64())
        want = (diameter(tree) + 1) // 2
        got = best_response_length(tree, config, TreeChaseCop(tree))
        assert got == want
    announce(2, "one-cop capture time, exhaustive to 7 + strategy sample", started)


def test_criterion_3_two_cop_product_capture_time(corpus_solved):
    started = time.time()
    for t1, t2, _product, result in corpus_solved:
        want = (diameter(t1) + diameter(t2)) // 2
        assert result.capture_time == want
    announce(3, "two-cop capture time on 50 tree pairs", started)


def test_criterion_4_constructive_strategy(corpus_solved):
    started = time.time()
    config = GameConfig(cop_count=2)
    worlds = [(p, diameter(t1) + diameter(t2)) for t1, t2, p, _ in corpus_solved]
    for m in range(2, 7):
        for n in range(2, 7):
            worlds.append(
                (cartesian_product(path_graph(m), path_graph(n)), m + n - 2)
            )
    for product, diam in worlds:
        strategy = ProductTwoCop(product)
        # Invariant violations and virtual-vertex moves raise; an
        # exception anywhere in the exhaustive search fails the test.
        got = best_response_length(product.flat, config, strategy)
        assert got == diam // 2
        assert strategy.stats["endgame_entries"] > 0
        assert strategy.stats["invariant_checks"] > 0
    announce(4, "constructive strategy exact on corpus + grids", started)


def test_criterion_5_lower_bound_machinery(corpus_solved):
    started = time.time()
    vacuous = 0
    checked = 0
    instances = [(p.flat, r) for _, _, p, r in corpus_solved]
    for m in range(2, 7):
        for n in range(2, 7):
            g = grid_graph(m, n)
            instances.append((g, solve(g, 2)))
    for g, result in instances:
        report = check_lemma3(g, result.capture_time, result.central_tuples)
        assert report.passed, report.instance
        if report.vacuous:
            vacuous += 1
        else:
            checked += len(report.claims)
        # Diameter chain: 2*diam <= 4*capt + 2 whenever capt is realized.
        assert 2 * diameter(g) <= 4 * result.capture_time + 2
    assert checked > 0
    print(f"  lemma3: {checked} inequalities checked, {vacuous} vacuous instances")
    announce(5, "central-tuple distance inequality + diameter chain", started)


def test_criterion_6_sandwich(corpus_solved):
    started = time.time()
    for t1, t2, _product, result in corpus_solved:
        c1 = solve(t1, 1).capture_time
        c2 = solve(t2, 1).capture_time
        assert c1 + c2 - 1 <= result.capture_time <= c1 + c2
    announce(6, "one-cop sandwich around capt2", started)


def test_criterion_7_move_order_equivalence():
    started = time.time()
    rng = SplitMix64(7)
    instances: list[tuple[Graph, int]] = [(cycle_graph(4), 2)]
    for m, n in [(2, 2), (2, 5), (3, 4), (4, 4), (5, 5)]:
        instances.append((grid_graph(m, n), 2))
    for _ in range(7):
        instances.append((random_tree(3 + rng.below(5), rng.next_u64()), 1))
    for _ in range(7):
        t1 = random_tree(2 + rng.below(4), rng.next_u64())
        t2 = random_tree(2 + rng.below(4), rng.next_u64())
        instances.append((cartesian_product(t1, t2).flat, 2))
    assert len(instances) == 20
    for g, k in instances:
        rf, cf = capture_time_both_orders(g, k)
        assert rf == cf
    announce(7, "move-order equivalence on 20 mixed instances", started)


def _connected_graphs_up_to(n_max: int):
    for n in range(1, n_max + 1):
        pairs = list(itertools.combinations(range(n), 2))
        for mask in range(1 << len(pairs)):
            adjacency = [[] for _ in range(n)]
            for bit, (u, v) in enumerate(pairs):
                if mask >> bit & 1:
                    adjacency[u].append(v)
                    adjacency[v].append(u)
            g = Graph(n, tuple(tuple(sorted(a)) for a in adjacency))
            if sum(1 for d in bfs_distances(g, 0) if d >= 0) == n:
                yield g


def _no_escape_state_if_captured(result) -> bool:
    # With a finite capture time the cops can first walk to a central
    # tuple, so no state of either half escapes; OptimalCop relies on it.
    if is_escape(result.capture_time):
        return True
    return all(ESCAPE not in half.values() for half in (result.table.value, result.table.other))


def _self_play_matches(g: Graph, result) -> bool:
    if is_escape(result.capture_time):
        return True
    trace = simulate(
        g,
        GameConfig(cop_count=result.table.cop_count, move_order=result.table.move_order),
        OptimalCop(result),
        OptimalRobber(result),
    )
    return trace.outcome.captured and trace.outcome.round == result.capture_time


def test_criterion_8_solver_self_consistency():
    started = time.time()
    graphs = list(_connected_graphs_up_to(6))
    assert len(graphs) == 1 + 1 + 4 + 38 + 728 + 26704
    for g in graphs:
        fast = solve(g, 1)
        slow = naive_value_iteration(g, 1)
        assert fast.capture_time == slow.capture_time
        assert fast.central_tuples == slow.central_tuples
        assert fast.table.value == slow.table.value
        assert fast.table.other == slow.table.other
        assert _no_escape_state_if_captured(fast)
        assert _self_play_matches(g, fast)
    rng = SplitMix64(88)
    sample = [graphs[rng.below(len(graphs))] for _ in range(30)]
    for g in sample:
        fast = solve(g, 2)
        slow = naive_value_iteration(g, 2)
        assert fast.capture_time == slow.capture_time
        assert fast.table.value == slow.table.value
        assert fast.table.other == slow.table.other
        assert _no_escape_state_if_captured(fast)
        assert _self_play_matches(g, fast)
    announce(8, "solve == naive oracle, exhaustive |V|<=6 + k=2 sample", started)


def test_criterion_9_three_tree_bounds():
    started = time.time()
    triples = [
        [path_graph(2), path_graph(2), path_graph(2)],
        [path_graph(2), path_graph(2), path_graph(3)],
        [path_graph(2), path_graph(3), path_graph(3)],
    ]
    for trees in triples:
        flat = cartesian_product(
            cartesian_product(trees[0], trees[1]).flat, trees[2]
        ).flat
        result = solve(flat, 2)
        total = sum(diameter(t) for t in trees)
        assert total // 2 <= result.capture_time <= 1 + total
        report = check_multi_tree_bounds(trees, result.capture_time)
        assert report.passed
    from treecops.bounds import n_tree_upper_bound

    assert n_tree_upper_bound([1, 1, 1, 1]) == 8
    announce(9, "three-tree bounds + n-tree formula hand value", started)
