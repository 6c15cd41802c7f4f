import itertools

from treecops import (
    ESCAPE,
    cartesian_product,
    cycle_graph,
    diameter,
    grid_graph,
    path_graph,
    random_tree,
    solve,
    star_graph,
)
from treecops.bounds import (
    FAIL,
    PASS,
    VACUOUS,
    Claim,
    GraphFacts,
    check_corollaries,
    check_lemma3,
    check_multi_tree_bounds,
    check_theorem2,
    make_claim,
    n_tree_upper_bound,
    qualifying_c4_vertices,
    three_tree_bounds,
    vacuous_claim,
)
from treecops.graphs import bfs_distances
from treecops.suites import tree_pair_corpus


def _slim(result):
    """The two values a check reads from a solve."""
    return result.capture_time, result.central_tuples


def test_claim_statuses_and_lines():
    claim = make_claim("x", 2, "<=", 5)
    assert claim.status == PASS
    assert claim.line() == "CLAIM x 2 <= 5 PASS"
    assert make_claim("x", 6, "<=", 5).status == FAIL
    assert vacuous_claim("y").line() == "CLAIM y 0 <= 0 VACUOUS"


def test_make_claim_returns_a_claim_for_each_relation_and_escape():
    cases = [
        (2, "<=", 5, PASS), (6, "<=", 5, FAIL), (5, "<=", 5, PASS),
        (5, ">=", 2, PASS), (2, ">=", 5, FAIL), (3, ">=", 3, PASS),
        (4, "==", 4, PASS), (4, "==", 3, FAIL),
        (ESCAPE, ">=", 0, FAIL), (ESCAPE, "<=", 0, PASS), (ESCAPE, "==", -1, PASS),
        (0, ">=", ESCAPE, PASS), (3, "<=", ESCAPE, FAIL), (ESCAPE, "==", ESCAPE, PASS),
    ]
    for lhs, relation, rhs, status in cases:
        claim = make_claim("x[1]", lhs, relation, rhs)
        want = Claim("x[1]", -1 if lhs is ESCAPE else lhs, relation,
                     -1 if rhs is ESCAPE else rhs, status)
        assert type(claim) is Claim
        assert claim == want and claim._asdict() == want._asdict()
        assert (claim.claim_id, claim.lhs, claim.relation, claim.rhs, claim.status) == tuple(want)
        assert claim.line() == want.line() == (
            f"CLAIM x[1] {want.lhs} {relation} {want.rhs} {status}")


def _qualifying_by_subsets(g):
    # Independent 4-subset brute force used as the test oracle: the sorted
    # vertices of the qualifying cycles, each vertex once per cycle.
    out = []
    for sub in itertools.combinations(range(g.vertex_count), 4):
        degs = [sum(1 for w in sub if g.has_edge(v, w)) for v in sub]
        if degs != [2, 2, 2, 2]:
            continue
        if any(
            sum(1 for w in g.adjacency[v] if w in sub) > 2
            for v in range(g.vertex_count)
        ):
            continue
        out.extend(sub)
    return sorted(out)


def test_qualifying_c4_on_cycle4():
    assert qualifying_c4_vertices(cycle_graph(4)) == [0, 1, 2, 3]


def test_qualifying_c4_on_tree_is_empty():
    assert qualifying_c4_vertices(path_graph(5)) == []


def test_qualifying_c4_grid_corner_square():
    # The 3x3 grid's four unit squares all qualify: a corner lies on one
    # of them, and the centre on all four.
    got = qualifying_c4_vertices(grid_graph(3, 3))
    assert got.count(0) == 1
    assert got.count(4) == 4
    assert len(got) == 16


def test_qualifying_c4_matches_subset_oracle():
    for g in [
        cycle_graph(4),
        cycle_graph(5),
        grid_graph(2, 3),
        grid_graph(3, 3),
        cartesian_product(random_tree(4, 2), random_tree(3, 5)).flat,
        star_graph(5),
    ]:
        assert qualifying_c4_vertices(g) == _qualifying_by_subsets(g)


def test_qualifying_cycles_are_induced():
    # The induced 4-cycles of a grid are its unit squares, and each
    # qualifies: no vertex outside has more than one neighbor on it.
    rows = cols = 4
    squares = [
        (i * cols + j, i * cols + j + 1, (i + 1) * cols + j, (i + 1) * cols + j + 1)
        for i in range(rows - 1)
        for j in range(cols - 1)
    ]
    assert qualifying_c4_vertices(grid_graph(rows, cols)) == sorted(itertools.chain(*squares))


def test_lemma3_on_grid3x3():
    g = grid_graph(3, 3)
    report = check_lemma3(g, *_slim(solve(g, 2)))
    assert report.claims and report.passed and not report.vacuous


def test_lemma3_on_cycle4():
    g = cycle_graph(4)
    result = solve(g, 2)
    assert result.capture_time == 1
    report = check_lemma3(g, *_slim(result))
    assert report.passed
    # capt = 1: every distance sum is at most 3.
    for claim in report.claims:
        assert claim.rhs == 3


def test_lemma3_vacuous_on_tree_product_free_graph():
    t = random_tree(6, 4)
    report = check_lemma3(t, *_slim(solve(t, 2)))
    assert report.vacuous


def test_lemma3_explicit_corners_of_p4_x_p3():
    prod = cartesian_product(path_graph(4), path_graph(3))
    g = prod.flat
    report = check_lemma3(g, *_slim(solve(g, 2)))
    assert report.passed
    vertices = set(qualifying_c4_vertices(g))
    assert prod.flat_of(0, 0) in vertices
    assert prod.flat_of(3, 2) in vertices


def test_lemma3_equals_one_fresh_claim_per_pair_and_listed_vertex():
    corpus = tree_pair_corpus(42, 50, 2, 7)  # the suite's default corpus
    products = [cartesian_product(t1, t2).flat for t1, t2, _ in corpus[:3]]
    repeated = 0
    for g in [grid_graph(5, 5), cycle_graph(4), *products]:
        capt, central = _slim(solve(g, 2))
        want = []
        for c1, c2 in central:
            d1, d2 = bfs_distances(g, c1), bfs_distances(g, c2)
            for u in qualifying_c4_vertices(g):
                lhs, rhs = d1[u] + d2[u], 2 * capt + 1
                want.append(Claim(f"lemma3[c=({c1},{c2}),u={u}]", lhs, "<=", rhs,
                                  PASS if lhs <= rhs else FAIL))
        claims = check_lemma3(g, capt, central).claims
        assert claims == want  # order, multiplicity, ids and values
        assert [c.claim_id for c in claims] == [c.claim_id for c in want]
        for before, after in zip(claims, claims[1:]):
            if after.claim_id == before.claim_id:
                assert after is before
                repeated += 1
    assert repeated  # the grid's inner vertices lie on several squares


def test_theorem2_on_p4_x_p3():
    prod = cartesian_product(path_graph(4), path_graph(3))
    result = solve(prod.flat, 2)
    assert result.capture_time == 2
    report = check_theorem2(prod, *_slim(result))
    assert report.passed
    eq = [c for c in report.claims if c.claim_id == "theorem2-equality"][0]
    assert (eq.lhs, eq.rhs) == (2, 2)


def test_theorem2_on_star_x_edge():
    prod = cartesian_product(star_graph(4), path_graph(2))
    result = solve(prod.flat, 2)
    assert diameter(prod.flat) == 3
    assert result.capture_time == 1
    assert check_theorem2(prod, *_slim(result)).passed


def test_checks_sharing_graph_facts_match_fresh_ones_and_compute_each_once(monkeypatch):
    # One GraphFacts handed to both checks gives the claims of fresh ones;
    # theorem2's diameter sweep computes every row once, so lemma3 computes
    # none, and the qualifying vertices are searched for once.
    import treecops.bounds as bounds

    prod = cartesian_product(path_graph(4), star_graph(4))
    g = prod.flat
    capt, central = _slim(solve(g, 2))
    fresh = [check_theorem2(prod, capt, central).claims, check_lemma3(g, capt, central).claims]
    real_c4, real_bfs = bounds.qualifying_c4_vertices, bounds.bfs_distances
    c4, rows = [], []
    monkeypatch.setattr(bounds, "qualifying_c4_vertices", lambda h: c4.append(h) or real_c4(h))
    monkeypatch.setattr(bounds, "bfs_distances", lambda h, v: rows.append(v) or real_bfs(h, v))
    facts = GraphFacts(g)
    shared = [check_theorem2(prod, capt, central, facts).claims,
              check_lemma3(g, capt, central, facts).claims]
    assert shared == fresh
    assert c4 == [g]
    assert rows == list(range(g.vertex_count))
    assert [facts.row(v) for v in rows] == [real_bfs(g, v) for v in rows]


def _one_cop(product):
    """The factors' one-cop capture times, which check_corollaries takes."""
    return solve(product.factor1, 1).capture_time, solve(product.factor2, 1).capture_time


def test_corollaries_p3_x_p3():
    prod = cartesian_product(path_graph(3), path_graph(3))
    report = check_corollaries(prod, solve(prod.flat, 2).capture_time, *_one_cop(prod))
    assert report.passed
    lower, upper = report.claims[:2]
    assert (lower.claim_id, lower.lhs) == ("sandwich-lower", 1 + 1 - 1)
    assert (upper.claim_id, upper.rhs) == ("sandwich-upper", 1 + 1)
    ids = [c.claim_id for c in report.claims]
    assert "grid-formula" in ids


def test_corollaries_p2_x_p2():
    prod = cartesian_product(path_graph(2), path_graph(2))
    report = check_corollaries(prod, solve(prod.flat, 2).capture_time, *_one_cop(prod))
    assert report.passed


def test_corollaries_grid_4x5_formula():
    prod = cartesian_product(path_graph(4), path_graph(5))
    result = solve(prod.flat, 2)
    assert result.capture_time == (4 + 5) // 2 - 1 == 3
    assert _one_cop(prod) == (2, 2)
    assert check_corollaries(prod, result.capture_time, *_one_cop(prod)).passed


def test_corollaries_non_path_factors_skip_grid_formula():
    prod = cartesian_product(star_graph(4), path_graph(3))
    report = check_corollaries(prod, solve(prod.flat, 2).capture_time, *_one_cop(prod))
    assert report.passed
    assert "grid-formula" not in [c.claim_id for c in report.claims]


def test_corollaries_fail_sandwich_lower_on_factor_values_that_break_it():
    # capt2(P3 x P3) = 1 lies below 5 + 5 - 1: the check reads the values
    # it is given, so a wrong one-cop value fails the sandwich.
    prod = cartesian_product(path_graph(3), path_graph(3))
    report = check_corollaries(prod, 1, 5, 5)
    assert not report.passed
    assert report.lines()[:2] == ["CLAIM sandwich-lower 9 <= 1 FAIL",
                                  "CLAIM sandwich-upper 1 <= 10 PASS"]


def test_corollaries_fail_an_escaping_factor_value():
    prod = cartesian_product(path_graph(3), path_graph(3))
    report = check_corollaries(prod, 1, ESCAPE, 1)
    assert report.lines() == ["CLAIM capt1-finite -1 >= 0 FAIL"]


def test_n_tree_formula_hand_value():
    assert n_tree_upper_bound([1, 1, 1, 1]) == 8
    assert n_tree_upper_bound([1]) == 1
    assert n_tree_upper_bound([2, 3]) == 2 + 3


def test_three_tree_bounds_values():
    assert three_tree_bounds([1, 1, 1]) == (1, 4)
    assert three_tree_bounds([1, 1, 2]) == (2, 5)


def test_multi_tree_three_edges():
    trees = [path_graph(2)] * 3
    flat = cartesian_product(cartesian_product(trees[0], trees[1]).flat, trees[2]).flat
    capt = solve(flat, 2).capture_time
    assert 1 <= capt <= 4
    report = check_multi_tree_bounds(trees, capt)
    assert report.passed
    assert [c.claim_id for c in report.claims] == [
        "three-trees-lower", "three-trees-upper", "n-tree-formula-upper"]


def test_report_serialization_shape():
    # "CLAIM <id> <lhs> <rel> <rhs> <status>"
    g = grid_graph(3, 3)
    report = check_lemma3(g, *_slim(solve(g, 2)))
    for line in report.lines():
        parts = line.split()
        assert len(parts) == 6
        assert parts[0] == "CLAIM"
        int(parts[2])
        assert parts[3] in {"<=", "==", ">="}
        int(parts[4])
        assert parts[5] in {PASS, FAIL, VACUOUS}
