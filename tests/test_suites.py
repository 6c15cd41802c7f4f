import functools

import pytest

from treecops.suites import (
    SUITES,
    SuiteResult,
    suite_constructive,
    suite_corollary_grid,
    suite_lemma3,
    suite_move_order,
    suite_sandwich,
    suite_theorem2,
    suite_thm1,
    suite_three_trees,
    run_suite,
    tree_pair_corpus,
)


def test_registry_names():
    assert set(SUITES) == {
        "thm1", "theorem2", "corollary-grid", "sandwich", "lemma3",
        "three-trees", "move-order", "constructive",
    }


def test_corpus_deterministic_and_sized():
    a = tree_pair_corpus(7, 5, 2, 6)
    b = tree_pair_corpus(7, 5, 2, 6)
    assert [(t1.adjacency, t2.adjacency) for t1, t2, _ in a] == [
        (t1.adjacency, t2.adjacency) for t1, t2, _ in b
    ]
    for t1, t2, desc in a:
        assert 2 <= t1.vertex_count <= 6
        assert 2 <= t2.vertex_count <= 6
        assert desc.startswith("pair[")


def test_thm1_small():
    result = suite_thm1(max_size=5, count=10, seed=2)
    assert result.passed
    npass, nfail, nvac = result.counts()
    assert nfail == 0 and nvac == 0
    # 1 + 3 + 16 + 125 trees plus the 10 strategy samples.
    assert len(result.reports) == 145 + 10


def test_theorem2_small():
    result = suite_theorem2(seed=4, count=5, max_size=5)
    assert result.passed and len(result.reports) == 5


def test_corollary_grid_small():
    result = suite_corollary_grid(max_mn=4)
    assert result.passed and len(result.reports) == 9


def test_sandwich_small():
    assert suite_sandwich(seed=4, count=5, max_size=5).passed


def test_lemma3_small():
    result = suite_lemma3(seed=4, count=4, max_size=5)
    assert result.passed
    assert result.counts()[2] >= 0  # vacuous instances are counted, not hidden


def test_move_order_small():
    assert suite_move_order(seed=1, count=10).passed


def test_three_trees():
    result = suite_three_trees()
    assert result.passed
    assert len(result.reports) == 4


def test_constructive_small():
    result = suite_constructive(seed=4, count=4, max_size=5, max_mn=3)
    assert result.passed
    assert len(result.reports) == 4 + 2 * 2  # four pairs, grids up to 3x3


def test_summary_line_format():
    result = suite_three_trees()
    line = result.summary()
    assert line.startswith("SUMMARY suite=three-trees reports=4 pass=")


# The options each suite takes, as the command line has always passed them.
_SUITE_OPTIONS = {
    "thm1": {"seed", "count", "max_size"},
    "theorem2": {"seed", "count", "max_size"},
    "sandwich": {"seed", "count", "max_size"},
    "lemma3": {"seed", "count", "max_size"},
    "constructive": {"seed", "count", "max_size", "max_mn"},
    "corollary-grid": {"max_mn"},
    "move-order": {"seed", "count"},
    "three-trees": set(),
}


@pytest.mark.parametrize("name", sorted(_SUITE_OPTIONS))
def test_run_suite_passes_exactly_the_options_the_signature_names(monkeypatch, name):
    # The stand-in wraps the real suite the way a tracing wrapper does, so
    # its signature is only reachable through __wrapped__.
    calls = []
    real = SUITES[name]

    @functools.wraps(real)
    def recording(*args, **kwargs):
        calls.append((args, kwargs))
        return SuiteResult(name)

    monkeypatch.setitem(SUITES, name, recording)
    options = {"seed": 5, "count": 3, "max_size": 4, "max_mn": 2}
    result = run_suite(name, **options)
    assert result.name == name
    assert calls == [((), {k: v for k, v in options.items() if k in _SUITE_OPTIONS[name]})]


def test_corpus_suites_solve_each_graph_once_per_process(monkeypatch):
    # theorem2, sandwich and lemma3 share their corpus, their two-cop
    # solves and the graph facts their checks read: one build of the
    # corpus, one solve and one qualifying-vertex search per distinct
    # graph and one BFS per (graph, vertex), whichever suite reaches it
    # first.  The sandwich also solves each product's two factors at one
    # cop, unshared, and reads no graph fact.
    import treecops.bounds as bounds
    import treecops.suites as suites
    from treecops import cycle_graph, grid_graph

    real_solve, real_corpus = suites.solve, suites.tree_pair_corpus
    real_c4, real_bfs = bounds.qualifying_c4_vertices, bounds.bfs_distances
    calls, corpora, c4, rows = [], [], [], []

    def counting(g, k, *args, **kwargs):
        calls.append((g, k))
        return real_solve(g, k, *args, **kwargs)

    def counting_corpus(*args):
        corpora.append(args)
        return real_corpus(*args)

    def counting_c4(g):
        c4.append(g)
        return real_c4(g)

    def counting_bfs(g, v):
        rows.append((g, v))
        return real_bfs(g, v)

    monkeypatch.setattr(suites, "solve", counting)
    monkeypatch.setattr(suites, "tree_pair_corpus", counting_corpus)
    monkeypatch.setattr(bounds, "qualifying_c4_vertices", counting_c4)
    monkeypatch.setattr(bounds, "bfs_distances", counting_bfs)
    suites.reset_memos()
    assert run_suite("sandwich").passed
    assert c4 == rows == []  # the sandwich alone computes no graph fact

    suites.reset_memos()
    del calls[:], corpora[:]
    for name in ("theorem2", "sandwich", "lemma3"):
        assert run_suite(name).passed
    assert corpora == [(42, 50, 2, 7)]  # the default corpus, built once
    products = [product for product, _ in suites._pair_products(42, 50, 7)]
    graphs = [product.flat for product in products]
    graphs += [grid_graph(m, n) for m, n in [(2, 2), (3, 3), (3, 4), (4, 5), (5, 5)]]
    graphs.append(cycle_graph(4))
    assert (len(graphs), len(set(graphs))) == (56, 54)  # pair[33] is pair[16]; grid 2x2 is pair[26]
    two = [g for g, k in calls if k == 2]
    assert len(two) == len(set(two))  # no graph solved twice
    assert set(two) == set(graphs)
    factors = [f for product in products for f in (product.factor1, product.factor2)]
    assert [(g, k) for g, k in calls if k != 2] == [(f, 1) for f in factors]
    # The memo keeps the two values the checks read, never the value table.
    kept = [solved for (solver, _), solved in suites._SOLVED.items() if solver is counting]
    assert len(kept) == len(two)
    for capture_time, central_tuples in kept:
        assert isinstance(capture_time, int) and isinstance(central_tuples, tuple)
    # One qualifying-vertex search per distinct graph, one BFS per
    # (graph, vertex); theorem2's diameter sweep covers every product vertex.
    assert len(c4) == len(set(c4)) and set(c4) == set(graphs)
    assert len(rows) == len(set(rows))
    assert {(p.flat, v) for p in products for v in range(p.flat.vertex_count)} <= set(rows)
    # Every kept fact equals a fresh computation.
    assert set(suites._FACTS) == set(graphs)
    computed = len(rows)
    for g, facts in suites._FACTS.items():
        assert facts.qualifying() == real_c4(g)
        assert facts._rows and all(row == real_bfs(g, v) for v, row in facts._rows.items())
    assert (len(c4), len(rows)) == (54, computed)  # the reads above computed nothing
