"""Constructive cop strategies for trees and products of two trees.

One cop on a tree: start at the diametral-path center and walk toward
the robber every round; this captures within ceil(diam/2).

Two cops on a product of two trees capture within floor((d1+d2)/2)
rounds.  ProductTwoCop's constructor arranges the factors once, from one
diametral path of each: an odd-diameter tree (diam 2m+1) first and an
even-diameter tree (diam 2n) second, swapping them if needed and adding
a leaf at one end of a path when both diameters have the same parity.
The cops start on the middle edge of the first tree's diametral path,
both at the center of the second tree's, and play two phases:

* Equalize: while the robber's distance in the even tree differs from
  both of her distances to the cop pair in the odd tree, the cops
  descend toward her in whichever tree closes that gap.  The tree to
  descend is committed from the distances at the start of the round
  (her reply cannot flip the committed side, only close the gap, and a
  gap closed mid-round stays closed through the committed descent).

* Endgame: once the distances match at a round boundary, the cops fix
  their pair orientation and roots and answer each robber move from the
  distances after it: if she stands on the far cop's column, that cop
  steps onto her; if she stands on the cops' row, the near cop does.
  Otherwise both descend, in the even tree when its distance exceeds the
  near cop's odd-tree distance and in the odd tree when it does not,
  which restores the matching of distances, the descendant containment
  of the robber below both cops, and the off-by-one spacing of the pair.

Orientation (which physical cop plays the near side of the pair) is
left floating while the cops have not yet moved in the odd tree: until
then their odd-tree coordinates are the fixed center pair and the
robber may still cross from one side to the other, mirroring the
labels.  The orientation and the odd tree's root are frozen at the
first odd-tree descent or at endgame entry, whichever comes first.

Every endgame entry and every endgame move that does not capture
asserts the full state invariants; violations raise
StrategyInvariantError rather than guessing a repair.  The arrangement
may extend one factor by a virtual leaf; the strategy computes on the
extended tree but an assertion guarantees no cop is ever told to stand
on the virtual vertex.
"""
from __future__ import annotations

from typing import NamedTuple

from .engine import CopStrategy, GameState, Graph
from .graphs import InputError
from .products import ProductGraph
from .trees import add_leaf, diametral_path, dist_rows, hop_rows, is_tree

PHASE_EQUALIZE = "equalize"
PHASE_ENDGAME = "endgame"


_new_tuple = tuple.__new__


class StrategyInvariantError(RuntimeError):
    """A two-phase strategy invariant failed; carries the full state."""


def center_start(t: Graph) -> int:
    """Vertex at 1-based index 1 + ceil(d/2) on a diametral path.

    Its eccentricity is at most ceil(diam/2).
    """
    path = diametral_path(t)
    return path[len(path) // 2]


class TreeChaseCop(CopStrategy):
    """One cop: place centrally, then always step toward the robber.

    An instance keeps one (v,) per vertex and returns those, so equal
    replies are one object; like its rows, the table is per instance.
    """

    def __init__(self, tree: Graph):
        if not is_tree(tree):
            raise InputError("TreeChaseCop plays on a tree")
        self.tree = tree
        self.start = center_start(tree)
        # Stepping toward the robber reads only hop rows: no distance rows.
        self._hop = hop_rows(tree)
        self._single = tuple((v,) for v in range(tree.vertex_count))

    def place(self, g: Graph):
        return self._single[self.start], None

    def respond(self, g: Graph, state: GameState, memory):
        cop = state.cops[0]
        if cop == state.robber:
            return state.cops, memory
        return self._single[self._hop[state.robber][cop]], memory


class TwoPhaseMemory(NamedTuple):
    """Per-game state of the two-cop strategy.

    A named tuple, so the hashing and equality that the best-response
    memo runs on every state happen in C.
    """

    phase: str
    prev_robber: int | None  # flat vertex at the start of the coming round
    c1_slot: int | None      # physical slot playing the near cop; None = floating
    root1: int | None        # root of the odd tree once frozen


class ProductTwoCop(CopStrategy):
    """Two-phase two-cop strategy on the product of two trees.

    Construction arranges the factors (see the module docstring) and
    precomputes everything a response looks up: the next-hop rows of both
    arranged trees (`trees.hop_rows`) and the distance rows read from them
    (`trees.dist_rows`), the flat-to-internal coordinate table (factor
    swap applied) and its inverse, indexed [x][y], which holds None for
    pairs on the virtual leaf.  The distance tables are the only view of
    the trees: the invariant checks read which vertices lie below a root
    from them too.  `stats` counts responses, endgame entries and
    invariant checks, so an instance is per-thread state, not a shareable
    template.  The round-start part of a reply reads only the cops and the
    memory; its record (the outcome of its checks, and the distance rows of
    the round's cops and odd-tree root) is reused while a call passes the
    very same cops tuple and memory object as the last.  Every per-reply
    check runs on every reply: the endgame-entry invariants are tested by
    the same inline expression as those after an endgame move, and
    `_assert_invariants` runs only to name a failure.  The instance also
    keeps a table of the values it returns: one cop tuple per ordered pair
    of flat vertices, and one memory per value, found by robber in a row
    keyed by (phase, orientation, root), so equal replies are one object
    and the search's memo keys share them.
    """

    def __init__(self, product: ProductGraph):
        if not (is_tree(product.factor1) and is_tree(product.factor2)):
            raise InputError("two-cop product strategy needs tree factors")
        if product.factor1.vertex_count < 2 or product.factor2.vertex_count < 2:
            raise InputError("factors must have diameter > 0")
        self.product = product
        # One diametral path per factor fixes the arrangement: an
        # odd-diameter tree first (diam 2m+1, a path of even length) and an
        # even-diameter tree second (diam 2n).
        tree1, tree2 = product.factor1, product.factor2
        path1, path2 = diametral_path(tree1), diametral_path(tree2)
        swapped = len(path1) % 2 == 1 and len(path2) % 2 == 0
        if swapped:
            tree1, tree2, path1, path2 = tree2, tree1, path2, path1
        # Appending a leaf to a diametral endpoint raises the diameter by
        # exactly one and cannot lower the product's capture time, so the
        # capture bound computed on the extended tree is still valid.
        if len(path1) % 2 == 1:  # both even: the first tree gains the leaf
            tree1 = add_leaf(tree1, path1[-1])
            path1 = diametral_path(tree1)
        elif len(path2) % 2 == 0:  # both odd: the second tree gains the leaf
            tree2 = add_leaf(tree2, path2[-1])
            path2 = diametral_path(tree2)
        self.tree1, self.tree2, self.path1, self.path2 = tree1, tree2, path1, path2
        self.m, self.n = (len(path1) - 2) // 2, (len(path2) - 1) // 2
        self.root2 = path2[self.n]  # b_{n+1}, fixed for the game
        self._hop1, self._hop2 = hop_rows(tree1), hop_rows(tree2)
        self._dist1, self._dist2 = dist_rows(tree1, self._hop1), dist_rows(tree2, self._hop2)
        pairs = [product.pair_of(f) for f in range(product.flat.vertex_count)]
        if swapped:
            pairs = [(x2, x1) for x1, x2 in pairs]
        # Product vertices never involve the virtual leaf, so the internal
        # table has no pair on it and the flat table holds None there.
        self._internal_of: tuple[tuple[int, int], ...] = tuple(pairs)
        self._flat_of: list[list[int | None]] = [
            [None] * tree2.vertex_count for _ in range(tree1.vertex_count)]
        for f, (x, y) in enumerate(pairs):
            self._flat_of[x][y] = f
        self._top2 = self._dist2[self.root2]
        self._start: tuple = (object(), object())  # holds no caller's cops or memory
        # Returned values: cop tuples by [first][second] flat vertex,
        # memories by (phase, c1_out, root1) and then by robber.
        self._cop_pairs: list[dict[int, tuple[int, int]]] = [
            {} for _ in range(product.flat.vertex_count)]
        self._memories: dict[tuple, dict[int, TwoPhaseMemory]] = {}
        self.stats = {"endgame_entries": 0, "invariant_checks": 0, "responses": 0}

    # -- coordinate plumbing ------------------------------------------------

    def _flat(self, pair: tuple[int, int]) -> int:
        flat = self._flat_of[pair[0]][pair[1]]
        if flat is None:
            raise StrategyInvariantError(
                f"strategy prescribed a move onto virtual vertex: internal {pair}"
            )
        return flat

    # -- contract -------------------------------------------------------------

    def place(self, g: Graph):
        # (a_{m+1}, b_{n+1}) and (a_{m+2}, b_{n+1}) in 1-based path labels:
        # the middle edge of the first path, the centre of the second.
        a, b, m = self.path1, self.path2[self.n], self.m
        cops = (self._flat((a[m], b)), self._flat((a[m + 1], b)))
        return cops, TwoPhaseMemory(PHASE_EQUALIZE, None, None, None)

    def observe_placement(self, g: Graph, state: GameState, memory):
        return memory._replace(prev_robber=state.robber)

    def respond(self, g: Graph, state: GameState, memory: TwoPhaseMemory):
        stats = self.stats
        stats["responses"] += 1
        start = self._start
        if start[0] is not state.cops or start[1] is not memory:
            start = self._round_start(state.cops, memory)
        (_, _, phase, entering, descend, c1_slot, c1_out, memories, root1,
         u1, v1, u2, s1, s2, row_u1, row_v1, row_u2, top1) = start
        top2 = self._top2
        if entering:
            stats["endgame_entries"] += 1
            dU, dV, d2 = row_u1[s1], row_v1[s1], row_u2[s2]
            if not (top1[u1] + dU == top1[s1] == top1[v1] + dV and top2[u2] + d2 == top2[s2]
                    and dV == dU + 1 and (d2 == dU or d2 == dV)):
                self._assert_invariants(u1, v1, u2, (s1, s2), root1, "endgame entry")
            stats["invariant_checks"] += 1

        # Both phases pick the tree in which both cops step toward the robber;
        # only the endgame may capture instead.  Near cop to (n1, n2), far to (f1, f2).
        robber = state.robber
        r1, r2 = self._internal_of[robber]
        if phase == PHASE_ENDGAME:
            # The round start committed to no tree: her move decides it.
            if r1 != s1 and r2 != s2:
                raise StrategyInvariantError(
                    f"robber changed both coordinates: {(s1, s2)} -> {(r1, r2)}"
                )
            eU, e2 = row_u1[r1], row_u2[r2]
            if row_v1[r1] == 0:
                # She climbed onto the far cop's column: it steps onto her.
                if e2 != 1:
                    raise StrategyInvariantError(
                        "capture case (odd-tree ascent) without unit distance"
                    )
                n1, n2, f1, f2 = u1, u2, v1, r2
            elif e2 == 0:
                # She climbed onto the cops' row: the near cop steps onto her.
                if eU != 1:
                    raise StrategyInvariantError(
                        "capture case (even-tree ascent) without unit distance"
                    )
                n1, n2, f1, f2 = r1, u2, v1, u2
            else:
                descend = 2 if e2 > eU else 1

        if descend == 1:
            if u1 == r1:
                raise StrategyInvariantError(
                    f"odd-tree descent with cop already at robber column {r1}"
                )
            hop = self._hop1[r1]
            n1, n2, f1, f2 = hop[u1], u2, hop[v1], u2
            if f1 != u1:
                raise StrategyInvariantError(
                    f"pair did not contract while descending: {v1}->{f1}, expected {u1}"
                )
        elif descend == 2:
            if u2 == r2:
                raise StrategyInvariantError(
                    f"even-tree descent with cop already at robber row {r2}"
                )
            n1, f1 = u1, v1
            n2 = f2 = self._hop2[r2][u2]
        if phase == PHASE_ENDGAME and (r1 != n1 or r2 != n2) and (r1 != f1 or r2 != f2):
            # The five invariants; _assert_invariants runs only to name a failure.
            dU, dV, d2 = self._dist1[n1][r1], self._dist1[f1][r1], self._dist2[n2][r2]
            if not (top1[n1] + dU == top1[r1] == top1[f1] + dV and top2[n2] + d2 == top2[r2]
                    and dV == dU + 1 and (d2 == dU or d2 == dV)):
                self._assert_invariants(n1, f1, n2, (r1, r2), root1, "after endgame move")
            stats["invariant_checks"] += 1

        flat_of = self._flat_of
        near, far = flat_of[n1][n2], flat_of[f1][f2]
        if near is None or far is None:
            # A move onto the virtual leaf: _flat raises the error naming it.
            near, far = self._flat((n1, n2)), self._flat((f1, f2))
        first, second = (near, far) if c1_slot == 0 else (far, near)
        # Equal replies are one object: each value is built once, on first use.
        pairs = self._cop_pairs[first]
        new_cops = pairs.get(second)
        if new_cops is None:
            new_cops = pairs[second] = (first, second)
        new_memory = memories.get(robber)
        if new_memory is None:
            # tuple.__new__ fills the named tuple in C, with no Python frame.
            new_memory = memories[robber] = _new_tuple(
                TwoPhaseMemory, (phase, robber, c1_out, root1))
        return new_cops, new_memory

    def _round_start(self, cops, memory: TwoPhaseMemory) -> tuple:
        """The record of the part of a reply that reads only the cops and the
        memory; kept for reuse when both are immutable, and never on a raise."""
        phase, prev_robber, c1_slot, root1 = memory
        if prev_robber is None:
            raise StrategyInvariantError(
                "two-cop strategy was not shown the robber placement"
            )
        internal, dist1 = self._internal_of, self._dist1
        r1_start, r2_start = internal[prev_robber]
        cop_a, cop_b = cops
        (x1, w1), (y1, w2) = internal[cop_a], internal[cop_b]
        if w1 != w2 or dist1[x1][y1] != 1:
            raise StrategyInvariantError(
                f"cop pair structure broken: T1 coords {x1},{y1}, T2 coords {w1},{w2}"
            )
        u2 = w1

        # Orientation at the start of the round.
        if c1_slot is None:
            dx, dy = dist1[x1][r1_start], dist1[y1][r1_start]
            if dx == dy:
                raise StrategyInvariantError(
                    f"tied pair distances {dx} in a tree; parity violated"
                )
            c1_slot = 0 if dx < dy else 1
        u1, v1 = (x1, y1) if c1_slot == 0 else (y1, x1)
        row_u1, row_v1, row_u2 = dist1[u1], dist1[v1], self._dist2[u2]
        dU, dV, d2 = row_u1[r1_start], row_v1[r1_start], row_u2[r2_start]
        if dV != dU + 1:
            raise StrategyInvariantError(
                f"pair spacing broken at round start: d(u1,r1)={dU}, d(v1,r1)={dV}"
            )

        matched = d2 == dU or d2 == dV
        entering = phase == PHASE_EQUALIZE and matched
        if entering:
            # Endgame entry happens at a round boundary: the distances matched
            # with the robber to move, so her latest move gets the endgame
            # reply; respond asserts the invariants on every such reply.
            phase = PHASE_ENDGAME
            if root1 is None:
                root1 = v1
        descend = 0  # 1 or 2: the tree both cops step down in; 0: her move decides
        if phase == PHASE_EQUALIZE:
            # Committed from the round-start distances: close the gap in the
            # odd tree if d2 < dU, else (d2 > dV) in the even tree.
            descend = 1 if d2 < dU else 2
            if descend == 1 and root1 is None:
                # The first odd-tree descent freezes orientation and root.
                root1 = v1
        elif not matched:
            raise StrategyInvariantError(
                f"endgame round started with unmatched distances: d2={d2}, dU={dU}, dV={dV}"
            )
        # While the pair has not moved in the odd tree the orientation
        # floats (c1_out is None): the robber can legitimately cross sides.
        c1_out = None if root1 is None else c1_slot
        # The replies' memories, by robber; the other fields are this round's.
        memories = self._memories.get((phase, c1_out, root1))
        if memories is None:
            memories = self._memories[phase, c1_out, root1] = {}
        record = (cops, memory, phase, entering, descend, c1_slot, c1_out, memories, root1,
                  u1, v1, u2, r1_start, r2_start, row_u1, row_v1, row_u2,
                  None if root1 is None else dist1[root1])
        if type(cops) is tuple and type(memory) is TwoPhaseMemory:
            self._start = record
        return record

    # -- invariants -----------------------------------------------------------

    def _assert_invariants(self, u1, v1, u2, r, root1, where):
        self.stats["invariant_checks"] += 1
        r1, r2 = r
        dist1 = self._dist1
        dU, dV, d2 = dist1[u1][r1], dist1[v1][r1], self._dist2[u2][r2]
        # In a tree, a lies on the path from the root to v (v is a
        # descendant of a) exactly when d(root, a) + d(a, v) = d(root, v).
        top1, top2 = dist1[root1], self._top2
        problems = [text for holds, text in [
            (top1[u1] + dU == top1[r1], f"r1={r1} not a descendant of u1={u1}"),
            (top1[v1] + dV == top1[r1], f"r1={r1} not a descendant of v1={v1}"),
            (top2[u2] + d2 == top2[r2], f"r2={r2} not a descendant of u2={u2}"),
            (dV == dU + 1, f"d(v1,r1)={dV} != 1 + d(u1,r1)={dU}"),
            (d2 in (dU, dV), f"d(u2,r2)={d2} not in {{{dU}, {dV}}}")] if not holds]
        if problems:
            raise StrategyInvariantError(
                f"invariants failed {where}: "
                + "; ".join(problems)
                + f" [u1={u1} v1={v1} u2={u2} r={r} root1={root1} root2={self.root2}]"
            )
