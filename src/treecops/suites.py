"""Named verification suites over seeded corpora.

Each suite returns a SuiteResult whose reports are deterministic for a
fixed configuration, so identical runs emit byte-identical claim lines.

theorem2, sandwich and lemma3 check the same seeded tree products.  Within
one process they share three memos: the products of each corpus
configuration, built once; each graph's two-cop solve (capture time and
central tuples); and each graph's GraphFacts, the qualifying 4-cycle
vertices and BFS rows that theorem2 and lemma3 read, each computed once.
So suites run in one process (``scripts/run_all_suites.py``) build,
solve and measure each product once, in any order, with the same output;
``reset_memos`` empties all three, as a fresh process starts.  Separate
``treecops verify`` processes share nothing: each one builds and solves
its corpus.  The bound checks run no solve: each suite solves what its
checks compare, and the sandwich also solves each product's factors at
one cop, outside the memo; it reads no graph fact.
"""
from __future__ import annotations

import inspect
from collections import Counter
from dataclasses import dataclass, field
from typing import NamedTuple

from .bounds import (
    BoundReport,
    FAIL,
    GraphFacts,
    PASS,
    VACUOUS,
    check_corollaries,
    check_lemma3,
    check_multi_tree_bounds,
    check_theorem2,
    make_claim,
    n_tree_upper_bound,
)
from .engine import CaptureValue, GameConfig, MoveOrder, best_response_length
from .generators import (
    SplitMix64,
    all_labeled_trees,
    cycle_graph,
    grid_graph,
    path_graph,
    random_tree,
)
from .graphs import Graph, InputError, diameter
from .products import ProductGraph, cartesian_product
from .solver import capture_time_both_orders, solve
from .tree_strategies import ProductTwoCop, TreeChaseCop


class Counts(NamedTuple):
    npass: int
    nfail: int
    nvac: int

    @property
    def passed(self) -> bool:
        """No claim failed and one passed: checking nothing is no pass."""
        return self.nfail == 0 and self.npass > 0


@dataclass
class SuiteResult:
    name: str
    reports: list[BoundReport] = field(default_factory=list)

    def counts(self) -> Counts:
        tally = Counter(claim.status for report in self.reports for claim in report.claims)
        return Counts(tally[PASS], tally[FAIL], tally[VACUOUS])

    @property
    def passed(self) -> bool:
        return self.counts().passed

    def failing_reports(self) -> list[BoundReport]:
        return [r for r in self.reports if not r.passed]

    def summary(self, counts: Counts | None = None) -> str:
        npass, nfail, nvac = counts or self.counts()
        return (f"SUMMARY suite={self.name} reports={len(self.reports)} "
                f"pass={npass} fail={nfail} vacuous={nvac}")


def tree_pair_corpus(
    seed: int, count: int, min_size: int = 2, max_size: int = 7
) -> list[tuple[Graph, Graph, str]]:
    """Seeded random tree pairs; the description string pins the instance."""
    rng = SplitMix64(seed)
    span = max_size - min_size + 1
    corpus = []
    for i in range(count):
        n1 = min_size + rng.below(span)
        n2 = min_size + rng.below(span)
        s1 = rng.next_u64()
        s2 = rng.next_u64()
        corpus.append(
            (random_tree(n1, s1), random_tree(n2, s2), f"pair[{i}] n=({n1},{n2})")
        )
    return corpus


def suite_thm1(max_size: int = 7, count: int = 50, seed: int = 42) -> SuiteResult:
    """capt1 of every labeled tree up to max_size equals ceil(diam/2);
    the one-cop chase achieves the same value on a seeded sample."""
    result = SuiteResult("thm1")
    for n in range(2, max_size + 1):
        for idx, tree in enumerate(all_labeled_trees(n)):
            want = (diameter(tree) + 1) // 2
            got = solve(tree, 1).capture_time
            report = BoundReport(instance=f"tree[n={n},{idx}]")
            report.claims.append(make_claim("thm1-capt", got, "==", want))
            _record_solve(report, tree, 1)
            result.reports.append(report)
    rng = SplitMix64(seed)
    config = GameConfig(cop_count=1)
    for i in range(count):
        n = 2 + rng.below(max_size - 1)
        tree = random_tree(n, rng.next_u64())
        want = (diameter(tree) + 1) // 2
        got = best_response_length(tree, config, TreeChaseCop(tree))
        report = BoundReport(instance=f"thm1-strategy[{i}] n={n}")
        report.claims.append(make_claim("thm1-strategy", got, "==", want))
        # The tree the chase played on: a counterexample replays that game.
        report.provenance.update(graph=tree, tree=tree)
        result.reports.append(report)
    return result


# The products of each (seed, count, max_size) corpus, built once per
# process; _pair_products hands each caller a fresh list of them.
_PRODUCTS: dict[tuple[int, int, int], tuple[tuple[ProductGraph, str], ...]] = {}


def _pair_products(seed: int, count: int, max_size: int) -> list[tuple[ProductGraph, str]]:
    key = (seed, count, max_size)
    products = _PRODUCTS.get(key)
    if products is None:
        corpus = tree_pair_corpus(seed, count, 2, max_size)
        products = _PRODUCTS[key] = tuple(
            (cartesian_product(t1, t2), desc) for t1, t2, desc in corpus)
    return list(products)


_BOTH_ORDERS = (MoveOrder.ROBBER_FIRST, MoveOrder.COPS_FIRST)


def _record_solve(report: BoundReport, g: Graph, cops: int,
                  orders=(MoveOrder.ROBBER_FIRST,)) -> None:
    """Keep what a counterexample needs to re-run the solves the report
    checks: the graph, the cop count and the move orders."""
    report.provenance.update(graph=g, cops=cops, orders=orders)


# The k=2 solves of _solve_each, kept for the life of the process as
# (capture time, central tuples) only, never the value table, and keyed
# by the solver the call looked up as well as the graph, so a solver
# bound over ``solve`` never reads what another one returned.
_SOLVED: dict[tuple[object, Graph], tuple[CaptureValue, tuple[tuple[int, ...], ...]]] = {}
# The GraphFacts of each graph _solve_each checks, keyed by the graph
# alone: they hold no solver's output, only rows of the vertices asked for.
_FACTS: dict[Graph, GraphFacts] = {}


def reset_memos() -> None:
    """Empty every per-process memo of this module, as a fresh process starts."""
    for memo in (_PRODUCTS, _SOLVED, _FACTS):
        memo.clear()


def _solve_each(name: str, instances, check) -> SuiteResult:
    """Solve each (subject, desc) instance at two cops, check the subject
    against the capture time, central tuples and graph facts, and tag
    the report; a product is solved flat, and a graph solved or measured
    before in this process is not solved or measured again."""
    result = SuiteResult(name)
    for subject, desc in instances:
        g = subject.flat if isinstance(subject, ProductGraph) else subject
        key = (solve, g)
        solved = _SOLVED.get(key)
        if solved is None:
            full = solve(g, 2)
            solved = _SOLVED[key] = (full.capture_time, full.central_tuples)
        facts = _FACTS.get(g)
        if facts is None:
            facts = _FACTS[g] = GraphFacts(g)
        report = check(subject, *solved, facts)
        report.instance = f"{desc} {report.instance}"
        _record_solve(report, g, 2)
        result.reports.append(report)
    return result


def suite_theorem2(seed: int = 42, count: int = 50, max_size: int = 7) -> SuiteResult:
    """capt2 of random two-tree products equals floor(diam/2), plus the
    full diameter-chain checks."""
    return _solve_each("theorem2", _pair_products(seed, count, max_size), check_theorem2)


def suite_corollary_grid(max_mn: int = 5) -> SuiteResult:
    """Grid capture times match floor((m+n)/2)-1 under both move orders."""
    result = SuiteResult("corollary-grid")
    for m in range(2, max_mn + 1):
        for n in range(2, max_mn + 1):
            want = (m + n) // 2 - 1
            grid = grid_graph(m, n)
            rf, cf = capture_time_both_orders(grid, 2)
            report = BoundReport(instance=f"grid[{m}x{n}]")
            report.claims.append(make_claim("grid-robber-first", rf, "==", want))
            report.claims.append(make_claim("grid-cops-first", cf, "==", want))
            _record_solve(report, grid, 2, _BOTH_ORDERS)
            result.reports.append(report)
    return result


def suite_sandwich(seed: int = 42, count: int = 50, max_size: int = 7) -> SuiteResult:
    """The one-cop sandwich around capt2 of random two-tree products."""

    def check(product: ProductGraph, t: CaptureValue, _central, _facts) -> BoundReport:
        return check_corollaries(product, t, solve(product.factor1, 1).capture_time,
                                 solve(product.factor2, 1).capture_time)

    return _solve_each("sandwich", _pair_products(seed, count, max_size), check)


def suite_lemma3(seed: int = 42, count: int = 50, max_size: int = 7) -> SuiteResult:
    """The central-tuple distance inequality on products, grids, and the
    4-cycle."""
    instances: list[tuple[Graph, str]] = [
        (product.flat, desc) for product, desc in _pair_products(seed, count, max_size)
    ]
    for m, n in [(2, 2), (3, 3), (3, 4), (4, 5), (5, 5)]:
        instances.append((grid_graph(m, n), f"grid[{m}x{n}]"))
    instances.append((cycle_graph(4), "cycle4"))
    return _solve_each("lemma3", instances, check_lemma3)


def suite_constructive(seed: int = 42, count: int = 50, max_size: int = 7,
                       max_mn: int = 5) -> SuiteResult:
    """Exhaustive best response against the two-cop strategy equals
    floor((d1+d2)/2) on random pairs and grids; any internal invariant
    violation or virtual-vertex move raises and fails the suite run."""
    result = SuiteResult("constructive")
    config = GameConfig(cop_count=2)
    worlds = _pair_products(seed, count, max_size)
    for m in range(2, max_mn + 1):
        for n in range(2, max_mn + 1):
            worlds.append(
                (cartesian_product(path_graph(m), path_graph(n)), f"grid[{m}x{n}]")
            )
    for product, desc in worlds:
        want = (diameter(product.factor1) + diameter(product.factor2)) // 2
        got = best_response_length(product.flat, config, ProductTwoCop(product))
        report = BoundReport(instance=f"{desc} constructive")
        report.claims.append(make_claim("constructive-capture", got, "==", want))
        report.provenance.update(graph=product.flat, product=product)
        result.reports.append(report)
    return result


def suite_move_order(seed: int = 42, count: int = 50) -> SuiteResult:
    """Robber-first and cops-first capture times agree on a mixed corpus."""
    result = SuiteResult("move-order")
    rng = SplitMix64(seed)
    instances: list[tuple[Graph, int, str]] = []
    instances.append((cycle_graph(4), 2, "cycle4"))
    for m, n in [(2, 3), (3, 3), (2, 4), (3, 4), (4, 4)]:
        instances.append((grid_graph(m, n), 2, f"grid[{m}x{n}]"))
    while len(instances) < count:
        i = len(instances)
        if i % 2 == 0:
            n = 3 + rng.below(5)
            instances.append((random_tree(n, rng.next_u64()), 1, f"tree[{i}] n={n}"))
        else:
            n1 = 2 + rng.below(4)
            n2 = 2 + rng.below(4)
            product = cartesian_product(
                random_tree(n1, rng.next_u64()), random_tree(n2, rng.next_u64())
            )
            instances.append((product.flat, 2, f"product[{i}] n=({n1},{n2})"))
    for g, k, desc in instances[:count]:
        rf, cf = capture_time_both_orders(g, k)
        report = BoundReport(instance=f"{desc} k={k}")
        report.claims.append(make_claim("move-order-agreement", rf, "==", cf))
        _record_solve(report, g, k, _BOTH_ORDERS)
        result.reports.append(report)
    return result


def suite_three_trees() -> SuiteResult:
    """Capture bounds for tiny three-tree products, plus the n-tree
    upper-bound formula at a hand-checked value."""
    result = SuiteResult("three-trees")
    triples = [
        [path_graph(2), path_graph(2), path_graph(2)],
        [path_graph(2), path_graph(2), path_graph(3)],
        [path_graph(2), path_graph(3), path_graph(3)],
    ]
    for trees in triples:
        flat = cartesian_product(
            cartesian_product(trees[0], trees[1]).flat, trees[2]
        ).flat
        report = check_multi_tree_bounds(trees, solve(flat, 2).capture_time)
        _record_solve(report, flat, 2)
        result.reports.append(report)
    report = BoundReport(instance="n-tree-formula[4 single edges]")
    report.claims.append(
        make_claim("formula-hand-value", n_tree_upper_bound([1, 1, 1, 1]), "==", 8)
    )
    result.reports.append(report)
    return result


SUITES = {
    "thm1": suite_thm1,
    "theorem2": suite_theorem2,
    "corollary-grid": suite_corollary_grid,
    "sandwich": suite_sandwich,
    "lemma3": suite_lemma3,
    "three-trees": suite_three_trees,
    "move-order": suite_move_order,
    "constructive": suite_constructive,
}


# Least accepted value of each checked suite option, with its CLI flag;
# the corpora draw tree sizes from [2, max_size].
_OPTION_FLOORS = {"count": ("--count", 0), "max_size": ("--max-size", 2), "max_mn": ("--max", 1)}


def run_suite(name: str, **options) -> SuiteResult:
    """Run ``SUITES[name]`` with the options its signature names.

    The options are ``seed``, ``count``, ``max_size`` and ``max_mn``;
    those the suite does not take, or that are None, are ignored, so the
    suite's own defaults hold for anything unset; each one it takes is
    checked before any work runs (an InputError names the flag).  The
    entry is looked up per call and its signature read through any
    ``__wrapped__``, so a wrapper bound into ``SUITES`` still gets the
    options of the function it wraps.
    """
    suite = SUITES[name]
    params = inspect.signature(suite).parameters
    kwargs = {key: value for key, value in options.items()
              if key in params and value is not None}
    for key, (flag, least) in _OPTION_FLOORS.items():
        if key in kwargs and kwargs[key] < least:
            raise InputError(f"{flag} must be at least {least}, got {kwargs[key]}")
    return suite(**kwargs)
