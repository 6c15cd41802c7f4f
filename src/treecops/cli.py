"""Command-line entry point: solve, verify, simulate, gen.

Exit codes: 0 success / all claims pass, 1 verification failure (a
strategy invariant tripped inside `verify` included), 2 input error (a
bad path included), 3 resource budget exceeded, 4 internal error with
its traceback on stderr (an illegal move by a built-in strategy, or a
tripped invariant outside `verify`, included).  Reports and traces are
byte-identical across runs for identical arguments; wall-clock timing
goes to stderr so it cannot perturb that.
"""
from __future__ import annotations

import argparse
import functools
import os
import re
import sys
import time
from pathlib import Path

from .engine import (
    GameConfig,
    MoveOrder,
    Outcome,
    ResourceBudgetError,
    format_trace,
    is_escape,
    simulate,
)
from .generators import grid_graph, path_graph, random_tree
from .graphs import Graph, GraphError, InputError, format_graph, parse_graph
from .products import ProductGraph, cartesian_product
from .solver import DEFAULT_STATE_BUDGET, dump_value_table, solve
from .strategies import make_cop_strategy, make_robber_strategy
from .suites import SUITES, run_suite
from .tree_strategies import StrategyInvariantError

BUDGET_ENV = "TREECOPS_STATE_BUDGET"

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_INPUT = 2
EXIT_BUDGET = 3
EXIT_INTERNAL = 4

_SPECS = (
    (re.compile(r"^path:(\d+)$"), path_graph),
    (re.compile(r"^grid:(\d+)x(\d+)$"), grid_graph),
    (re.compile(r"^tree:(\d+):(\d+)$"), random_tree),
)


def load_graph_source(source: str) -> Graph:
    """A file path, or an inline spec path:N | grid:MxN | tree:N:SEED."""
    for pattern, generate in _SPECS:
        m = pattern.match(source)
        if m:
            return generate(*map(int, m.groups()))
    path = Path(source)
    if not path.exists():
        raise GraphError(f"graph source {source!r}: no such file and not a generator spec")
    try:
        text = path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise GraphError(f"graph source {source!r}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None
    return parse_graph(text)


def _budget(args) -> int:
    if args.budget is not None:
        budget, source = args.budget, "--budget"
    else:
        env = os.environ.get(BUDGET_ENV)
        if not env:
            return DEFAULT_STATE_BUDGET
        try:
            budget, source = int(env), BUDGET_ENV
        except ValueError:
            raise InputError(f"{BUDGET_ENV} must be an integer, got {env!r}") from None
    if budget < 1:
        raise InputError(f"{source} must be at least 1, got {budget}")
    return budget


def cmd_solve(args) -> int:
    g = load_graph_source(args.graph)
    started = time.perf_counter()
    result = solve(g, args.cops, MoveOrder(args.order), state_budget=_budget(args))
    elapsed = time.perf_counter() - started
    if is_escape(result.capture_time):
        print("capt=ESCAPE")
    else:
        print(f"capt={result.capture_time}")
    print("central: " + " ".join("(" + ",".join(map(str, t)) + ")" for t in result.central_tuples))
    print(f"states={len(result.table.value)}")
    print(f"time={elapsed:.3f}s", file=sys.stderr)
    if args.dump_table:
        Path(args.dump_table).write_text(dump_value_table(result.table))
    return EXIT_OK


def cmd_verify(args) -> int:
    if args.suite not in SUITES:
        print(f"unknown suite {args.suite!r}; known: {', '.join(sorted(SUITES))}", file=sys.stderr)
        return EXIT_INPUT
    try:
        result = run_suite(args.suite, seed=args.seed, count=args.count,
                           max_size=args.max_size, max_mn=args.max)
    except StrategyInvariantError as exc:
        # A tripped strategy invariant is a failed verification, not bad input.
        print(f"suite {args.suite!r} aborted by invariant violation: {exc}", file=sys.stderr)
        return EXIT_VERIFY_FAIL
    for report in result.reports:
        if report.claims:  # one write per report, and no blank line
            tail = f"  # {report.instance}"
            # A claim appended again (lemma3 repeats) reuses its formatted line.
            lines, last = [], None
            for claim in report.claims:
                if claim is not last:
                    last, text = claim, claim.line() + tail
                lines.append(text)
            print("\n".join(lines))
    counts = result.counts()
    print(result.summary(counts))
    if not counts.passed:
        if counts.npass == counts.nfail == 0:
            print(f"suite {args.suite!r} checked no claim: nothing passed", file=sys.stderr)
        failing = result.failing_reports()
        if failing:
            out_dir = Path(args.out) / args.suite
            _write_counterexamples(out_dir, failing)
            print(f"counterexamples written to {out_dir}", file=sys.stderr)
        return EXIT_VERIFY_FAIL
    return EXIT_OK


def _write_counterexamples(out_dir: Path, failing) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    for i, report in enumerate(failing):
        stem = f"failure-{i}"
        lines = [f"# instance: {report.instance}"]
        g = report.provenance.get("graph")
        if isinstance(g, Graph):
            (out_dir / f"{stem}.g").write_text(format_graph(g))
            # A report that checks solved values names the solves to re-run.
            for order in report.provenance.get("orders", ()):
                lines.append(f"# replay: treecops solve --graph {stem}.g"
                             f" --cops {report.provenance['cops']} --order {order.value}")
        # A report on a constructive strategy names one game of it against
        # the optimal robber, played by the replay command itself on the
        # graphs as written.
        product, tree = report.provenance.get("product"), report.provenance.get("tree")
        if isinstance(product, ProductGraph):
            replay = f"simulate --t1 {stem}.t1.g --t2 {stem}.t2.g --cops lemma2 --robber optimal"
            graphs = (product.factor1, product.factor2)
        elif isinstance(tree, Graph):
            replay = f"simulate --t1 {stem}.g --cops thm1 --robber optimal"
            graphs = (tree,)
        else:
            replay = None
        if replay is not None:
            lines.append(f"# replay: treecops {replay}")
            args = build_parser().parse_args(replay.split())
            names = (args.t1, args.t2)[:len(graphs)]
            for name, graph in zip(names, graphs):
                (out_dir / name).write_text(format_graph(graph))
            read = [parse_graph((out_dir / name).read_text()) for name in names]
            try:
                trace_text = _play(args, *read)[1]
            except Exception as exc:  # the strategy itself may be what failed
                trace_text = f"# trace unavailable: {exc}\n"
            (out_dir / f"{stem}.trace").write_text(trace_text)
        lines.extend(report.lines())
        (out_dir / f"{stem}.txt").write_text("\n".join(lines) + "\n")


def _play(args, t1: Graph, t2: Graph | None = None) -> tuple[Outcome, str]:
    """Play a `simulate` command on t1, or on t1 x t2; return its trace text."""
    product = cartesian_product(t1, t2) if t2 is not None else None
    g = product.flat if product is not None else t1
    k = args.k if args.k is not None else (2 if product is not None else 1)
    order, budget = MoveOrder(args.order), _budget(args)
    config = GameConfig(cop_count=k, move_order=order, max_rounds=args.max_rounds)
    # Both optimal strategies play from one solve, made only if one asks.
    solved = functools.cache(lambda: solve(g, k, order, state_budget=budget))
    cop = make_cop_strategy(args.cops, g, k, solved=solved, product=product, seed=args.seed)
    robber = make_robber_strategy(args.robber, solved=solved, seed=args.seed)
    trace = simulate(g, config, cop, robber)
    label = f"{args.t1} x {args.t2}" if args.t2 else args.t1
    renderer = str if product is None else lambda v: "(%d,%d)" % product.pair_of(v)
    return trace.outcome, format_trace(trace, label, renderer)


def cmd_simulate(args) -> int:
    t1 = load_graph_source(args.t1)
    t2 = load_graph_source(args.t2) if args.t2 else None
    outcome, text = _play(args, t1, t2)
    if args.out:
        Path(args.out).write_text(text)
        print(outcome)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def cmd_gen(args) -> int:
    g = load_graph_source(args.t1)
    if args.t2:
        g = cartesian_product(g, load_graph_source(args.t2)).flat
    text = format_graph(g)
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="treecops",
        description="Pursuit-game solver, strategies, and verification suites.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="exact capture time of a graph")
    p.add_argument("--graph", required=True, help="graph file or spec (path:N, grid:MxN, tree:N:SEED)")
    p.add_argument("--cops", type=int, required=True)
    p.add_argument("--order", choices=[o.value for o in MoveOrder], default=MoveOrder.ROBBER_FIRST.value)
    p.add_argument("--dump-table", default=None, help="write the value table to this file")
    p.add_argument("--budget", type=int, default=None, help=f"state budget (or ${BUDGET_ENV})")
    p.set_defaults(fn=cmd_solve)

    p = sub.add_parser("verify", help="run a named verification suite")
    p.add_argument("--suite", required=True, help=", ".join(sorted(SUITES)))
    # Unset options fall back to the suite function's own defaults.
    p.add_argument("--seed", type=int, default=None, help="corpus seed")
    p.add_argument("--count", type=int, default=None, help="corpus size")
    p.add_argument("--max", type=int, default=None, help="max grid side")
    p.add_argument("--max-size", type=int, default=None, help="max tree size")
    p.add_argument("--out", default="verify-failures", help="counterexample directory")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("simulate", help="play two strategies and write the trace")
    p.add_argument("--t1", required=True, help="graph (or first factor) file or spec")
    p.add_argument("--t2", default=None, help="second factor: play on the product")
    p.add_argument("--cops", required=True, help="thm1 | lemma2 | optimal | random | stationary")
    p.add_argument("--robber", required=True, help="optimal | random | stationary")
    p.add_argument("--k", type=int, default=None, help="cop count (default 1, or 2 on a product)")
    p.add_argument("--order", choices=[o.value for o in MoveOrder], default=MoveOrder.ROBBER_FIRST.value)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-rounds", type=int, default=None)
    p.add_argument("--out", default=None, help="trace file (default: stdout)")
    p.add_argument("--budget", type=int, default=None)
    p.set_defaults(fn=cmd_simulate)

    p = sub.add_parser("gen", help="write a graph file")
    p.add_argument("--t1", required=True, help="graph (or first factor) file or spec")
    p.add_argument("--t2", default=None, help="second factor: write the product")
    p.add_argument("--out", default=None, help="graph file (default: stdout)")
    p.set_defaults(fn=cmd_gen)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_INPUT if exc.code not in (0, None) else EXIT_OK
    try:
        return args.fn(args)
    except ResourceBudgetError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (InputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except Exception:
        import traceback  # only a crash needs it; kept off every start-up
        traceback.print_exc()
        return EXIT_INTERNAL


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
