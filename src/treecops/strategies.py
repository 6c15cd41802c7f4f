"""Simple players and the by-name strategy registry used by the CLI."""
from __future__ import annotations

from typing import Callable

from .engine import CopStrategy, GameState, Graph, RobberStrategy
from .generators import splitmix64_next
from .graphs import InputError, bfs_distances
from .products import ProductGraph
from .solver import OptimalCop, OptimalRobber, SolveResult
from .trees import is_tree
from .tree_strategies import ProductTwoCop, TreeChaseCop


class StationaryCop(CopStrategy):
    """Places at fixed positions and never moves."""

    def __init__(self, positions: tuple[int, ...]):
        self.positions = tuple(positions)

    def place(self, g: Graph):
        return self.positions, None

    def respond(self, g: Graph, state: GameState, memory):
        return state.cops, memory


class RandomCop(CopStrategy):
    """Seeded uniform placement and uniform legal moves."""

    def __init__(self, k: int, seed: int):
        self.k = k
        self.seed = seed

    def place(self, g: Graph):
        state = self.seed
        cops = []
        for _ in range(self.k):
            value, state = splitmix64_next(state)
            cops.append(value % g.vertex_count)
        return tuple(cops), state

    def respond(self, g: Graph, state: GameState, memory):
        rng_state = memory
        new = []
        for c in state.cops:
            options = g.closed_neighborhood(c)
            value, rng_state = splitmix64_next(rng_state)
            new.append(options[value % len(options)])
        return tuple(new), rng_state


class StationaryRobber(RobberStrategy):
    """Places as far from the cops as possible and stays there."""

    def place(self, g: Graph, cops):
        dists = [bfs_distances(g, c) for c in cops]
        # The farthest vertex from its nearest cop; ties go to the smallest id.
        values = [min(dist[v] for dist in dists) for v in range(g.vertex_count)]
        return values.index(max(values)), None

    def respond(self, g: Graph, state: GameState, memory):
        return state.robber, memory


# XORed into the seed to give the robber its own stream: with the cops'
# stream its first draw would equal cop 0's, placing it on that cop.
_ROBBER_STREAM = 0xD1B54A32D192ED03


class RandomRobber(RobberStrategy):
    """Seeded uniform placement and uniform moves, drawn from a stream
    apart from a RandomCop's of the same seed."""

    def __init__(self, seed: int):
        self.seed = seed

    def place(self, g: Graph, cops):
        value, state = splitmix64_next(self.seed ^ _ROBBER_STREAM)
        return value % g.vertex_count, state

    def respond(self, g: Graph, state: GameState, memory):
        options = g.closed_neighborhood(state.robber)
        value, state = splitmix64_next(memory)
        return options[value % len(options)], state


class StrategyMismatchError(InputError):
    """Strategy name incompatible with the given graph."""


def make_cop_strategy(
    name: str,
    g: Graph,
    k: int,
    *,
    solved: Callable[[], SolveResult],
    product: ProductGraph | None = None,
    seed: int = 0,
) -> CopStrategy:
    """The named cop strategy; ``solved()`` is the solve 'optimal' plays from."""
    if name == "thm1":
        if product is not None or not is_tree(g):
            raise StrategyMismatchError("'thm1' plays one cop on a single tree")
        if k != 1:
            raise StrategyMismatchError("'thm1' needs exactly one cop")
        return TreeChaseCop(g)
    if name == "lemma2":
        if product is None:
            raise StrategyMismatchError("'lemma2' plays on a product of two trees")
        if k != 2:
            raise StrategyMismatchError("'lemma2' needs exactly two cops")
        return ProductTwoCop(product)
    if name == "optimal":
        return OptimalCop(solved())
    if name == "random":
        return RandomCop(k, seed)
    if name == "stationary":
        return StationaryCop(tuple(0 for _ in range(k)))
    raise StrategyMismatchError(f"unknown cop strategy {name!r}")


def make_robber_strategy(
    name: str, *, solved: Callable[[], SolveResult], seed: int = 0
) -> RobberStrategy:
    if name == "optimal":
        return OptimalRobber(solved())
    if name == "random":
        return RandomRobber(seed)
    if name == "stationary":
        return StationaryRobber()
    raise StrategyMismatchError(f"unknown robber strategy {name!r}")
