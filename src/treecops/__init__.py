"""Pursuit-game laboratory: exact capture times, constructive strategies,
and machine-checked bounds on graphs and Cartesian products of trees."""

from .graphs import (
    Graph,
    GraphError,
    InputError,
    bfs_distances,
    build_graph,
    diameter,
    format_graph,
    parse_graph,
)
from .trees import (
    add_leaf,
    diametral_path,
    is_tree,
)
from .products import ProductGraph, cartesian_product
from .generators import (
    SplitMix64,
    all_labeled_trees,
    cycle_graph,
    grid_graph,
    path_graph,
    prufer_decode,
    random_tree,
    star_graph,
)
from .engine import (
    ESCAPE,
    CaptureValue,
    CopStrategy,
    GameConfig,
    GameState,
    IllegalMoveError,
    MoveOrder,
    Outcome,
    ResourceBudgetError,
    RobberStrategy,
    Side,
    Trace,
    advance_round,
    best_response_length,
    format_trace,
    is_escape,
    simulate,
)
from .solver import (
    OptimalCop,
    OptimalRobber,
    SolveResult,
    ValueTable,
    capture_time_both_orders,
    dump_value_table,
    solve,
)
from .oracle import naive_value_iteration
from .tree_strategies import (
    ProductTwoCop,
    StrategyInvariantError,
    TreeChaseCop,
    TwoPhaseMemory,
    center_start,
)

__version__ = "0.1.0"
