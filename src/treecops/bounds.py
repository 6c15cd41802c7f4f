"""Machine checks of the capture-time identities and inequalities.

Every check compares capture times that its caller supplies and runs
no solve.  The graph facts a check reads besides them (qualifying
4-cycle vertices, BFS distance rows) come from a GraphFacts its caller
may supply and keep; this module keeps none.  Every claim is an exact
integer comparison; reports carry PASS, FAIL, or VACUOUS per claim.
Vacuous means the hypothesis selected nothing to check (for example no
qualifying 4-cycle vertices exist), which is reported distinctly so
corpus bugs cannot hide behind empty checks.
"""
from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass, field
from typing import NamedTuple

from .engine import ESCAPE, CaptureValue, is_escape
from .graphs import Graph, bfs_distances, diameter
from .products import ProductGraph
from .trees import diametral_path

PASS = "PASS"
FAIL = "FAIL"
VACUOUS = "VACUOUS"

_RELATIONS = {"<=": operator.le, ">=": operator.ge, "==": operator.eq}


class Claim(NamedTuple):
    claim_id: str
    lhs: int
    relation: str
    rhs: int
    status: str

    def line(self) -> str:
        return f"CLAIM {self.claim_id} {self.lhs} {self.relation} {self.rhs} {self.status}"


def make_claim(claim_id: str, lhs: CaptureValue, relation: str, rhs: CaptureValue) -> Claim:
    """Compare two capture times, writing ESCAPE as -1 on either side.

    -1 lies below every capture time, so a claim that bounds a value
    from above checks for ESCAPE before it is made.
    """
    lhs = -1 if lhs is ESCAPE else lhs
    rhs = -1 if rhs is ESCAPE else rhs
    ok = _RELATIONS[relation](lhs, rhs)
    # tuple.__new__ skips the NamedTuple's Python-level constructor.
    return tuple.__new__(Claim, (claim_id, lhs, relation, rhs, PASS if ok else FAIL))


def vacuous_claim(claim_id: str) -> Claim:
    return Claim(claim_id, 0, "<=", 0, VACUOUS)


@dataclass
class BoundReport:
    instance: str
    claims: list[Claim] = field(default_factory=list)
    provenance: dict[str, object] = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(c.status != FAIL for c in self.claims)

    @property
    def vacuous(self) -> bool:
        return bool(self.claims) and all(c.status == VACUOUS for c in self.claims)

    def lines(self) -> list[str]:
        return [c.line() for c in self.claims]


def _escaped(report: BoundReport, claim_id: str) -> BoundReport:
    """Fail a report whose capture time should be finite but is ESCAPE.

    The claim line reads ``-1 >= 0 FAIL``; no other claim is checked
    without a capture time.
    """
    report.claims.append(make_claim(claim_id, ESCAPE, ">=", 0))
    return report


def qualifying_c4_vertices(g: Graph) -> list[int]:
    """Vertices of the induced 4-cycles C on which no vertex of the graph
    has more than two neighbors, sorted, each vertex once per such C.

    Each C is found once, from its diagonal through its smallest vertex
    u: two non-adjacent neighbors x, y of u above u, and a common
    neighbor w of x and y above u and not adjacent to u.
    """
    adj = [set(a) for a in g.adjacency]
    out = []
    for u, near in enumerate(adj):
        above = {x for x in near if x > u}
        for w in {z for x in above for z in adj[x] if z > u} - near:
            for x, y in itertools.combinations(above & adj[w], 2):
                if y in adj[x]:
                    continue
                cycle = {u, x, w, y}
                if all(len(adj[v] & cycle) <= 2 for v in near | adj[x] | adj[w] | adj[y]):
                    out.extend(cycle)
    return sorted(out)


class GraphFacts:
    """The facts of one graph that the checks read besides its solve:
    its qualifying 4-cycle vertices and the BFS distance row of each
    vertex asked for, each computed on first use and then kept.

    They depend on the graph alone, so a caller that checks one graph
    several times may hand every check the same GraphFacts; a check
    given none makes a fresh one.  Callers must not change what it
    returns.
    """

    __slots__ = ("graph", "_qualifying", "_rows")

    def __init__(self, g: Graph) -> None:
        self.graph = g
        self._qualifying: list[int] | None = None
        self._rows: dict[int, list[int]] = {}

    def qualifying(self) -> list[int]:
        if self._qualifying is None:
            self._qualifying = qualifying_c4_vertices(self.graph)
        return self._qualifying

    def row(self, v: int) -> list[int]:
        row = self._rows.get(v)
        if row is None:
            row = self._rows[v] = bfs_distances(self.graph, v)
        return row


def check_lemma3(g: Graph, capture_time: CaptureValue,
                 central_tuples: tuple[tuple[int, int], ...],
                 facts: GraphFacts | None = None) -> BoundReport:
    """d(u,c1) + d(u,c2) <= 2*capt + 1 for every central pair and every
    qualifying 4-cycle vertex u; a u listed again (the list is sorted, so
    repeats are adjacent) appends the same claim object again."""
    report = BoundReport(instance=f"lemma3[n={g.vertex_count}]")
    if is_escape(capture_time):
        return _escaped(report, "capt2-finite")
    facts = facts or GraphFacts(g)
    qualifying = facts.qualifying()
    if not qualifying:
        report.claims.append(vacuous_claim("lemma3"))
        return report
    bound, claims = 2 * capture_time + 1, report.claims
    for c1, c2 in central_tuples:
        d1, d2 = facts.row(c1), facts.row(c2)
        last = None
        for u in qualifying:
            if u != last:
                last = u
                claim = make_claim(f"lemma3[c=({c1},{c2}),u={u}]", d1[u] + d2[u], "<=", bound)
            claims.append(claim)
    return report


def check_theorem2(product: ProductGraph, capture_time: CaptureValue,
                   central_tuples: tuple[tuple[int, int], ...],
                   facts: GraphFacts | None = None) -> BoundReport:
    """capt2 of a two-tree product equals floor(diam/2), and the diameter
    chain through the corner vertices of the product holds.  The
    diameter and the central vertices' rows come from one all-sources
    sweep of the flat graph's rows."""
    g = product.flat
    report = BoundReport(instance=f"theorem2[n={g.vertex_count}]")
    if is_escape(capture_time):
        return _escaped(report, "capt2-finite")
    facts = facts or GraphFacts(g)
    d = max(max(facts.row(s)) for s in range(g.vertex_count))
    t = capture_time
    report.claims.append(make_claim("theorem2-equality", t, "==", d // 2))

    # Opposite ends of the product's diametral paths are qualifying
    # 4-cycle vertices; the distance chain squeezes the diameter.
    p1 = diametral_path(product.factor1)
    p2 = diametral_path(product.factor2)
    u = product.flat_of(p1[0], p2[0])
    v = product.flat_of(p1[-1], p2[-1])
    qualifying_vertices = set(facts.qualifying())
    report.claims.append(
        make_claim("lemma4-corner-u", int(u in qualifying_vertices), "==", 1)
    )
    report.claims.append(
        make_claim("lemma4-corner-v", int(v in qualifying_vertices), "==", 1)
    )
    for c1, c2 in central_tuples:
        d1, d2 = facts.row(c1), facts.row(c2)
        chain = d1[u] + d1[v] + d2[u] + d2[v]
        tag = f"[c=({c1},{c2})]"
        report.claims.append(make_claim(f"lemma4-chain-lower{tag}", 2 * d, "<=", chain))
        report.claims.append(make_claim(f"lemma4-chain-upper{tag}", chain, "<=", 4 * t + 2))
    return report


def check_corollaries(product: ProductGraph, capture_time: CaptureValue,
                      c1a: CaptureValue, c1b: CaptureValue) -> BoundReport:
    """The one-cop sandwich around capt2, given the factors' one-cop
    capture times c1a and c1b, and the grid closed form when both
    factors are paths."""
    report = BoundReport(instance=f"corollaries[n={product.flat.vertex_count}]")
    if is_escape(capture_time):
        return _escaped(report, "capt2-finite")
    if is_escape(c1a) or is_escape(c1b):
        return _escaped(report, "capt1-finite")
    t2 = capture_time
    report.claims.append(make_claim("sandwich-lower", c1a + c1b - 1, "<=", t2))
    report.claims.append(make_claim("sandwich-upper", t2, "<=", c1a + c1b))

    def is_path(g: Graph) -> bool:
        degs = sorted(g.degree(v) for v in range(g.vertex_count))
        return g.edge_count == g.vertex_count - 1 and degs[-1] <= 2

    if is_path(product.factor1) and is_path(product.factor2):
        m = product.factor1.vertex_count
        n = product.factor2.vertex_count
        report.claims.append(make_claim("grid-formula", t2, "==", (m + n) // 2 - 1))
    return report


def n_tree_upper_bound(diameters: list[int]) -> int:
    """sum over i (1-based) of (2^ceil(i/2) - 1) * diam_i."""
    return sum(
        (2 ** ((i + 1) // 2) - 1) * d for i, d in enumerate(diameters, start=1)
    )


def three_tree_bounds(diameters: list[int]) -> tuple[int, int]:
    total = sum(diameters)
    return total // 2, 1 + total


def check_multi_tree_bounds(trees: list[Graph], capture_time: CaptureValue) -> BoundReport:
    """The two-cop capture time of a product of three trees lies within
    the three-tree bounds and under the n-tree upper-bound formula."""
    diams = [diameter(t) for t in trees]
    report = BoundReport(instance=f"multi-tree[{len(trees)} trees, diams={diams}]")
    if is_escape(capture_time):
        return _escaped(report, "capt-finite")
    lo, hi = three_tree_bounds(diams)
    report.claims.append(make_claim("three-trees-lower", lo, "<=", capture_time))
    report.claims.append(make_claim("three-trees-upper", capture_time, "<=", hi))
    report.claims.append(make_claim("n-tree-formula-upper", capture_time, "<=",
                                    n_tree_upper_bound(diams)))
    return report
