import dataclasses
import functools
import hashlib
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import treecops
from treecops.cli import (
    BUDGET_ENV,
    EXIT_BUDGET,
    EXIT_INPUT,
    EXIT_INTERNAL,
    EXIT_OK,
    EXIT_VERIFY_FAIL,
    load_graph_source,
    main,
)
from treecops import parse_graph


def run_cli(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


# A two-cop placement on a product, rendered as (i,j) pairs.
PRODUCT_PLACEMENT = re.compile(r"^P \(\d+,\d+\) \(\d+,\d+\) \(\d+,\d+\)$")


def test_gen_grid(tmp_path, capsys):
    out = tmp_path / "g.g"
    rc, _, _ = run_cli(capsys, "gen", "--t1", "grid:3x3", "--out", str(out))
    assert rc == EXIT_OK
    g = parse_graph(out.read_text())
    assert g.vertex_count == 9 and g.edge_count == 12


def test_gen_random_tree_deterministic(capsys):
    rc1, out1, _ = run_cli(capsys, "gen", "--t1", "tree:7:5")
    rc2, out2, _ = run_cli(capsys, "gen", "--t1", "tree:7:5")
    assert rc1 == rc2 == EXIT_OK
    assert out1 == out2
    g = parse_graph(out1)
    assert g.vertex_count == 7 and g.edge_count == 6


def test_gen_product(tmp_path, capsys):
    a = tmp_path / "a.g"
    b = tmp_path / "b.g"
    run_cli(capsys, "gen", "--t1", "path:4", "--out", str(a))
    run_cli(capsys, "gen", "--t1", "path:3", "--out", str(b))
    rc, out, _ = run_cli(capsys, "gen", "--t1", str(a), "--t2", str(b))
    assert rc == EXIT_OK
    assert parse_graph(out).vertex_count == 12


@pytest.mark.parametrize(
    "argv, message",
    [
        ([], "the following arguments are required: --t1"),
        # argparse names a missing required option before any leftovers.
        (["--t1", "path:3", "--kind", "path", "--n", "3"], "unrecognized arguments: --kind path --n 3"),
    ],
    ids=["no-t1", "old-flags"],
)
def test_gen_argument_errors_are_input_errors(capsys, argv, message):
    rc, out, err = run_cli(capsys, "gen", *argv)
    assert rc == EXIT_INPUT
    assert out == ""
    assert message in err


@pytest.mark.parametrize(
    "argv, prefix",
    [
        (["--t1", "grid:3x4"], "92eb3be708cc4b6e"),
        (["--t1", "path:5"], "750640d6ef4dfdea"),
        (["--t1", "tree:9:7"], "29fdaa156a46de5b"),
        (["--t1", "path:4", "--t2", "tree:5:3"], "3d4e2c3c9244fd9e"),
    ],
    ids=["grid", "path", "tree", "product"],
)
def test_gen_stdout_is_pinned(capsys, argv, prefix):
    # Digests of the files the earlier `gen --kind ...` form wrote.
    rc, out, _ = run_cli(capsys, "gen", *argv)
    assert rc == EXIT_OK
    assert hashlib.sha256(out.encode()).hexdigest()[:16] == prefix


def test_solve_grid(tmp_path, capsys):
    gfile = tmp_path / "grid.g"
    run_cli(capsys, "gen", "--t1", "grid:3x3", "--out", str(gfile))
    rc, out, err = run_cli(capsys, "solve", "--graph", str(gfile), "--cops", "2")
    assert rc == EXIT_OK
    assert "capt=2" in out
    assert "central:" in out
    assert "time=" in err  # wall time stays off stdout


def test_solve_escape(capsys):
    rc, out, _ = run_cli(capsys, "solve", "--graph", "grid:2x2", "--cops", "1")
    assert rc == EXIT_OK
    assert "capt=ESCAPE" in out


def test_solve_path4(capsys):
    rc, out, _ = run_cli(capsys, "solve", "--graph", "path:4", "--cops", "1")
    assert rc == EXIT_OK
    assert "capt=2" in out
    assert "(1) (2)" in out


def test_solve_dump_table(tmp_path, capsys):
    dump = tmp_path / "table.txt"
    rc, _, _ = run_cli(
        capsys, "solve", "--graph", "path:3", "--cops", "1", "--dump-table", str(dump)
    )
    assert rc == EXIT_OK
    lines = dump.read_text().splitlines()
    assert lines and all(len(line.split()) == 3 for line in lines)


def test_solve_dump_of_an_empty_table_is_empty(tmp_path, capsys):
    dump = tmp_path / "table.txt"
    rc, out, _ = run_cli(
        capsys, "solve", "--graph", "grid:1x1", "--cops", "1", "--dump-table", str(dump)
    )
    assert rc == EXIT_OK
    assert "states=0" in out
    assert dump.read_bytes() == b""


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("order", ["robber-first", "cops-first"])
def test_solve_one_vertex_dumps_an_empty_table_without_a_pass(tmp_path, capsys, monkeypatch, k, order):
    def no_pass(g, k):
        raise AssertionError("a one-vertex game needs no pass")

    monkeypatch.setattr(treecops.solver, "_retrograde", no_pass)
    graph, dump = tmp_path / "one.g", tmp_path / "table.txt"
    graph.write_text("1 0\n")
    rc, out, _ = run_cli(capsys, "solve", "--graph", str(graph), "--cops", str(k),
                         "--order", order, "--dump-table", str(dump))
    assert rc == EXIT_OK
    assert out == f"capt=0\ncentral: ({','.join(['0'] * k)})\nstates=0\n"
    assert dump.read_bytes() == b""


def test_solve_budget_exit_code(capsys):
    rc, _, err = run_cli(
        capsys, "solve", "--graph", "grid:3x3", "--cops", "2", "--budget", "10"
    )
    assert rc == EXIT_BUDGET
    assert "budget" in err


def test_solve_huge_cop_count_with_a_huge_budget_exits_budget(capsys):
    # (max degree + 1)^k >= 2^k passes the budget, so the power is never formed.
    rc, _, err = run_cli(
        capsys, "solve", "--graph", "path:3", "--cops", str(10**9), "--budget", str(10**30)
    )
    assert rc == EXIT_BUDGET
    assert "budget" in err


def test_solve_one_vertex_with_a_million_cops_exits_budget(capsys, tmp_path):
    graph = tmp_path / "one.g"
    graph.write_text("1 0\n")
    rc, out, err = run_cli(capsys, "solve", "--graph", str(graph), "--cops", str(10**6))
    assert rc == EXIT_BUDGET
    assert out == ""
    assert "budget" in err


def test_budget_env_override(capsys, monkeypatch):
    monkeypatch.setenv(BUDGET_ENV, "10")
    rc, _, _ = run_cli(capsys, "solve", "--graph", "grid:3x3", "--cops", "2")
    assert rc == EXIT_BUDGET
    monkeypatch.setenv(BUDGET_ENV, "100000000")
    rc, _, _ = run_cli(capsys, "solve", "--graph", "grid:3x3", "--cops", "2")
    assert rc == EXIT_OK


def test_gen_out_is_a_directory_is_input_error(capsys, tmp_path):
    rc, _, err = run_cli(capsys, "gen", "--t1", "path:3", "--out", str(tmp_path))
    assert rc == EXIT_INPUT
    assert err.startswith("error: ") and "Traceback" not in err


def test_solve_graph_is_a_directory_is_input_error(capsys, tmp_path):
    rc, _, err = run_cli(capsys, "solve", "--graph", str(tmp_path), "--cops", "1")
    assert rc == EXIT_INPUT
    assert err.startswith("error: ") and "Traceback" not in err


def test_solve_graph_file_not_utf8_is_input_error(capsys, tmp_path):
    gfile = tmp_path / "binary.g"
    gfile.write_bytes(b"3 2\n0 1\n\xff\xfe\x00\n")
    rc, out, err = run_cli(capsys, "solve", "--graph", str(gfile), "--cops", "1")
    assert rc == EXIT_INPUT
    assert out == ""
    assert err.startswith(f"error: graph source {str(gfile)!r}: not UTF-8") and "Traceback" not in err


def test_uncaught_exception_is_internal_error(capsys, monkeypatch):
    import treecops.cli as cli

    # A bare ValueError is a bug too: only InputError means bad input.
    for error in (RuntimeError, ValueError):
        def crashing(*args, **kwargs):
            raise error("synthetic crash")

        monkeypatch.setattr(cli, "solve", crashing)
        rc, out, err = run_cli(capsys, "solve", "--graph", "path:3", "--cops", "1")
        assert rc == EXIT_INTERNAL
        assert out == ""
        assert "Traceback" in err and f"{error.__name__}: synthetic crash" in err


def test_illegal_move_by_a_built_in_strategy_is_internal_error(capsys, monkeypatch):
    # Only the package's own strategies play in simulate, so an illegal
    # move is a bug in the package, not bad input.
    from treecops.solver import OptimalCop

    monkeypatch.setattr(OptimalCop, "respond", lambda self, g, state, memory: ((99,), memory))
    rc, out, err = run_cli(capsys, "simulate", "--t1", "path:5", "--cops", "optimal",
                           "--robber", "optimal")
    assert rc == EXIT_INTERNAL
    assert out == ""
    assert "Traceback" in err and "IllegalMoveError: cop 0 chose invalid vertex 99" in err


def test_strategy_invariant_outside_verify_is_internal_error(capsys, monkeypatch):
    from treecops.tree_strategies import ProductTwoCop, StrategyInvariantError

    def exploding(self, g, state, memory):
        raise StrategyInvariantError("synthetic violation")

    monkeypatch.setattr(ProductTwoCop, "respond", exploding)
    rc, out, err = run_cli(capsys, "simulate", "--t1", "path:4", "--t2", "path:3",
                           "--cops", "lemma2", "--robber", "optimal")
    assert rc == EXIT_INTERNAL
    assert out == ""
    assert "Traceback" in err and "StrategyInvariantError: synthetic violation" in err


@pytest.mark.parametrize("cops, robber, calls", [
    ("optimal", "optimal", 1), ("lemma2", "optimal", 1), ("random", "stationary", 0),
])
def test_simulate_solves_only_if_asked_and_at_most_once(capsys, monkeypatch, cops, robber,
                                                        calls):
    import treecops.cli as cli

    solves, original = [], cli.solve

    def counting(*args, **kwargs):
        solves.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(cli, "solve", counting)
    rc, _, _ = run_cli(capsys, "simulate", "--t1", "path:4", "--t2", "path:3",
                       "--cops", cops, "--robber", robber)
    assert rc == EXIT_OK
    assert len(solves) == calls


@pytest.mark.parametrize("argv, message", [
    (("solve", "--graph", "path:3", "--cops", "0"), "solve needs k >= 1"),
    (("simulate", "--t1", "path:3", "--cops", "stationary", "--robber", "stationary",
      "--k", "0"), "cop_count must be >= 1"),
    (("simulate", "--t1", "path:3", "--cops", "stationary", "--robber", "stationary",
      "--max-rounds", "0"), "max_rounds must be >= 1"),
    (("simulate", "--t1", "grid:2x2", "--cops", "optimal", "--robber", "optimal"),
     "no optimal cop strategy"),
], ids=["solve-k", "simulate-k", "max-rounds", "optimal-cop-escape"])
def test_rejected_values_are_input_errors(capsys, argv, message):
    rc, out, err = run_cli(capsys, *argv)
    assert rc == EXIT_INPUT
    assert out == ""
    assert f"error: {message}" in err and "Traceback" not in err


@pytest.mark.parametrize("text", ["3 x\n", "3 2\n0 1\n1 y\n"], ids=["header", "edge"])
def test_graph_file_with_a_non_integer_is_input_error(capsys, tmp_path, text):
    gfile = tmp_path / "bad.g"
    gfile.write_text(text)
    rc, _, err = run_cli(capsys, "solve", "--graph", str(gfile), "--cops", "1")
    assert rc == EXIT_INPUT
    assert err.startswith("error: bad ") and "Traceback" not in err


def test_budget_env_not_an_integer_is_input_error(capsys, monkeypatch):
    monkeypatch.setenv(BUDGET_ENV, "lots")
    rc, _, err = run_cli(capsys, "solve", "--graph", "grid:3x3", "--cops", "2")
    assert rc == EXIT_INPUT
    assert f"error: {BUDGET_ENV} must be an integer" in err


@pytest.mark.parametrize("budget", ["0", "-1"])
def test_non_positive_budget_is_input_error(capsys, budget):
    rc, _, err = run_cli(capsys, "solve", "--graph", "path:3", "--cops", "1", "--budget", budget)
    assert rc == EXIT_INPUT
    assert f"error: --budget must be at least 1, got {budget}" in err


def test_non_positive_budget_env_is_input_error(capsys, monkeypatch):
    monkeypatch.setenv(BUDGET_ENV, "-5")
    rc, _, err = run_cli(capsys, "solve", "--graph", "path:3", "--cops", "1")
    assert rc == EXIT_INPUT
    assert f"error: {BUDGET_ENV} must be at least 1, got -5" in err


def test_simulate_non_positive_budget_is_input_error(capsys):
    rc, _, err = run_cli(
        capsys, "simulate", "--t1", "path:3", "--cops", "optimal", "--robber", "optimal",
        "--budget", "-1",
    )
    assert rc == EXIT_INPUT
    assert "error: --budget must be at least 1, got -1" in err


def _readme_cli_lines():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    return [line for line in block.splitlines() if line.startswith("treecops ")]


def test_readme_cli_block_runs_as_written(capsys, monkeypatch, tmp_path):
    # The block is run top to bottom in one directory, so each file a
    # line reads must be written by an earlier line.
    monkeypatch.chdir(tmp_path)
    lines = _readme_cli_lines()
    assert len(lines) >= 5
    for line in lines:
        rc, _, err = run_cli(capsys, *shlex.split(line)[1:])
        assert rc == EXIT_OK, f"{line}: {err}"


def test_solve_missing_graph(capsys):
    rc, _, err = run_cli(capsys, "solve", "--graph", "missing.g", "--cops", "1")
    assert rc == EXIT_INPUT
    assert "missing.g" in err


def test_simulate_lemma2_vs_optimal(tmp_path, capsys):
    out = tmp_path / "trace.txt"
    rc, stdout, _ = run_cli(
        capsys,
        "simulate", "--t1", "path:4", "--t2", "path:3",
        "--cops", "lemma2", "--robber", "optimal", "--out", str(out),
    )
    assert rc == EXIT_OK
    assert stdout.strip().startswith("CAPTURED")
    round_taken = int(stdout.split()[1])
    assert round_taken <= 2
    lines = out.read_text().splitlines()
    assert "#cops 2" in lines
    assert any(PRODUCT_PLACEMENT.match(line) for line in lines)
    assert lines[-1].startswith("CAPTURED")


@pytest.mark.parametrize("order", ["robber-first", "cops-first"])
@pytest.mark.parametrize("argv, prefixes", [
    (("--t1", "grid:4x4", "--cops", "optimal", "--robber", "optimal", "--k", "2"),
     {"robber-first": "5471bd869954e1fc", "cops-first": "ab35af26603d600c"}),
    (("--t1", "grid:5x5", "--cops", "optimal", "--robber", "optimal", "--k", "3"),
     {"robber-first": "67da3c771cde1e6a", "cops-first": "a7d41e215f0a5e8d"}),
    (("--t1", "path:4", "--t2", "path:3", "--cops", "lemma2", "--robber", "optimal"),
     {"robber-first": "30d784c92781a747", "cops-first": "a1b115f4252ba9c4"}),
    (("--t1", "tree:9:3", "--cops", "random", "--robber", "random", "--seed", "5"),
     {"robber-first": "3d1811709bccd32b", "cops-first": "547c103b10766f70"}),
    (("--t1", "tree:9:3", "--cops", "random", "--robber", "optimal", "--seed", "5"),
     {"robber-first": "beb0069e9baade57", "cops-first": "88e55caa03eb9f7a"}),
    (("--t1", "path:5", "--cops", "stationary", "--robber", "stationary",
      "--max-rounds", "3"),
     {"robber-first": "f9591c8b9815ccdc", "cops-first": "1b3119ac35f193a2"}),
], ids=["grid-optimal", "grid-optimal-k3", "product-lemma2", "tree-random", "tree-random-cop",
        "survived"])
def test_simulate_stdout_is_pinned(capsys, argv, prefixes, order):
    # Digests of the stdout written while advance_round still kept one
    # branch per move order; tree-random's since the random robber draws
    # from a stream of its own; grid-optimal-k3's while OptimalCop still
    # decoded the value of every reply.
    rc, out, _ = run_cli(capsys, "simulate", *argv, "--order", order)
    assert rc == EXIT_OK
    assert hashlib.sha256(out.encode()).hexdigest()[:16] == prefixes[order]
    if "--max-rounds" in argv:
        assert out.endswith("SURVIVED 3\n")


def test_random_cops_and_random_robber_do_not_all_meet_at_placement(capsys):
    endings = set()
    for seed in range(1, 8):
        rc, out, _ = run_cli(capsys, "simulate", "--t1", "tree:9:3", "--cops", "random",
                             "--robber", "random", "--seed", str(seed))
        assert rc == EXIT_OK
        endings.add(out.splitlines()[-1])
    assert endings != {"CAPTURED 0"}


def test_simulate_thm1(capsys):
    rc, out, _ = run_cli(
        capsys, "simulate", "--t1", "path:5", "--cops", "thm1", "--robber", "optimal"
    )
    assert rc == EXIT_OK
    assert "CAPTURED 2" in out


def test_simulate_random_robber_reproducible(capsys):
    args = ("simulate", "--t1", "path:5", "--cops", "thm1", "--robber", "random", "--seed", "9")
    rc1, out1, _ = run_cli(capsys, *args)
    rc2, out2, _ = run_cli(capsys, *args)
    assert rc1 == rc2 == EXIT_OK
    assert out1 == out2


def test_simulate_strategy_mismatch(capsys):
    rc, _, err = run_cli(
        capsys, "simulate", "--t1", "grid:3x3", "--cops", "thm1", "--robber", "optimal"
    )
    assert rc == EXIT_INPUT
    assert "thm1" in err


def test_verify_corollary_grid_passes(capsys):
    rc, out, _ = run_cli(capsys, "verify", "--suite", "corollary-grid", "--max", "4")
    assert rc == EXIT_OK
    assert "SUMMARY suite=corollary-grid" in out
    assert "fail=0" in out
    assert "CLAIM grid-robber-first" in out


def test_verify_unknown_suite(capsys):
    rc, _, err = run_cli(capsys, "verify", "--suite", "nope")
    assert rc == EXIT_INPUT
    assert "unknown suite" in err


def test_verify_move_order_small(capsys):
    rc, out, _ = run_cli(capsys, "verify", "--suite", "move-order", "--count", "8", "--seed", "1")
    assert rc == EXIT_OK
    assert "fail=0" in out


def test_verify_three_trees(capsys):
    rc, out, _ = run_cli(capsys, "verify", "--suite", "three-trees")
    assert rc == EXIT_OK
    assert "formula-hand-value 8 == 8 PASS" in out


def test_verify_theorem2_tiny_run_deterministic(capsys, tmp_path):
    args = ("verify", "--suite", "theorem2", "--seed", "3", "--count", "4",
            "--max-size", "5", "--out", str(tmp_path / "f"))
    rc1, out1, _ = run_cli(capsys, *args)
    rc2, out2, _ = run_cli(capsys, *args)
    assert rc1 == rc2 == EXIT_OK
    assert out1 == out2


def test_verify_failure_writes_counterexample(capsys, tmp_path, monkeypatch):
    # Sabotage one suite through its claim builder to exercise the
    # failure path end to end.
    import treecops.suites as suites

    original = suites.make_claim

    def broken(claim_id, lhs, relation, rhs):
        if claim_id == "grid-robber-first":
            return original(claim_id, lhs + 1, relation, rhs)
        return original(claim_id, lhs, relation, rhs)

    monkeypatch.setattr(suites, "make_claim", broken)
    rc, out, err = run_cli(
        capsys, "verify", "--suite", "corollary-grid", "--max", "2",
        "--out", str(tmp_path / "fails"),
    )
    assert rc == EXIT_VERIFY_FAIL
    assert "fail=1" in out
    failure_dir = tmp_path / "fails" / "corollary-grid"
    files = sorted(p.name for p in failure_dir.iterdir())
    assert "failure-0.txt" in files
    assert "failure-0.g" in files
    parse_graph((failure_dir / "failure-0.g").read_text())


def test_verify_constructive_failure_writes_trace(capsys, tmp_path, monkeypatch):
    import treecops.suites as suites

    original = suites.make_claim

    def broken(claim_id, lhs, relation, rhs):
        if claim_id == "constructive-capture":
            return original(claim_id, lhs + 1, relation, rhs)
        return original(claim_id, lhs, relation, rhs)

    monkeypatch.setattr(suites, "make_claim", broken)
    rc, _, _ = run_cli(
        capsys, "verify", "--suite", "constructive", "--count", "1",
        "--max-size", "4", "--max", "2", "--out", str(tmp_path / "fails"),
    )
    assert rc == EXIT_VERIFY_FAIL
    failure_dir = tmp_path / "fails" / "constructive"
    traces = sorted(p.name for p in failure_dir.glob("*.trace"))
    assert traces, "expected a replayable trace next to the failing report"
    written = (failure_dir / "failure-0.trace").read_text()
    lines = written.splitlines()
    assert lines[0] == "#graph failure-0.t1.g x failure-0.t2.g"
    assert "#cops 2" in lines
    assert any(PRODUCT_PLACEMENT.match(line) for line in lines)
    assert lines[-1].startswith("CAPTURED")
    # The replay command recorded next to the claims reprints the trace.
    report = (failure_dir / "failure-0.txt").read_text().splitlines()
    replay = [line for line in report if line.startswith("# replay: ")]
    assert replay == ["# replay: treecops simulate --t1 failure-0.t1.g --t2 failure-0.t2.g"
                      " --cops lemma2 --robber optimal"]
    argv = shlex.split(replay[0][len("# replay: "):])
    assert argv[0] == "treecops"
    monkeypatch.chdir(failure_dir)
    rc, out, _ = run_cli(capsys, *argv[1:])
    assert rc == EXIT_OK
    assert out == written


def test_verify_invariant_violation_exits_one(capsys, monkeypatch):
    import treecops.suites as suites
    from treecops.tree_strategies import StrategyInvariantError

    def exploding(*args, **kwargs):
        raise StrategyInvariantError("synthetic violation")

    monkeypatch.setattr(suites, "best_response_length", exploding)
    rc, _, err = run_cli(
        capsys, "verify", "--suite", "constructive", "--count", "1",
        "--max-size", "3", "--max", "2",
    )
    assert rc == EXIT_VERIFY_FAIL
    assert "invariant violation" in err


def test_load_graph_source_specs():
    assert load_graph_source("path:5").vertex_count == 5
    assert load_graph_source("grid:2x3").vertex_count == 6
    assert load_graph_source("tree:6:9").vertex_count == 6


def test_python_dash_m_runs_the_cli(capsys):
    argv = ["solve", "--graph", "grid:3x3", "--cops", "2"]
    rc, out, _ = run_cli(capsys, *argv)
    src = Path(treecops.__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (str(src), os.environ.get("PYTHONPATH")) if p)}
    proc = subprocess.run([sys.executable, "-m", "treecops", *argv], env=env,
                          capture_output=True, text=True, timeout=120)
    assert rc == proc.returncode == EXIT_OK
    assert proc.stdout == out
    assert out.startswith("capt=2\n")


@pytest.mark.parametrize("max_side, rc, rows", [("1", 2, None), ("-3", 2, None), ("2", 0, 1)])
def test_grid_capture_table_needs_a_side_of_two(max_side, rc, rows):
    # A table with no row checked nothing, so it must not report agreement.
    root = Path(__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    proc = subprocess.run(
        [sys.executable, str(root / "scripts" / "grid_capture_table.py"), "--max-side", max_side],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == rc
    if rows is None:
        assert "all rows agree" not in proc.stdout
        assert "--max-side" in proc.stderr
    else:
        assert proc.stdout.splitlines()[-1] == "all rows agree"
        assert len(proc.stdout.splitlines()) == 1 + rows + 1


@pytest.mark.parametrize("argv", [
    ("verify", "--suite", "theorem2", "--count", "0"),
    ("verify", "--suite", "corollary-grid", "--max", "1"),
])
def test_verify_that_checks_nothing_fails(capsys, tmp_path, argv):
    rc, out, err = run_cli(capsys, *argv, "--out", str(tmp_path / "f"))
    assert rc == EXIT_VERIFY_FAIL
    assert "pass=0 fail=0" in out
    assert "checked no claim" in err
    assert not (tmp_path / "f").exists()  # nothing failed, so no counterexample


def test_verify_with_only_failing_claims_does_not_say_nothing_checked(
        capsys, tmp_path, monkeypatch):
    import treecops.suites as suites

    monkeypatch.setattr(suites, "capture_time_both_orders", lambda g, k: (99, 99))
    rc, out, err = run_cli(capsys, "verify", "--suite", "corollary-grid", "--max", "2",
                           "--out", str(tmp_path / "f"))
    assert rc == EXIT_VERIFY_FAIL
    assert "pass=0 fail=2" in out
    assert "checked no claim" not in err
    assert "counterexamples written" in err


@pytest.mark.parametrize(
    "suite, prefix",
    [("theorem2", "ef315043a622b2be"), ("sandwich", "2447b7968d45768c"),
     ("lemma3", "3205625952e6a840"), ("thm1", "dcc9efbb8b02dab2"),
     ("corollary-grid", "fa32bcc1655f706e"), ("three-trees", "a6ebfccf9e3f7722"),
     ("move-order", "c3e76d41bef9dc30"), ("constructive", "e634697cf0992a02")],
)
def test_verify_stdout_at_defaults_is_pinned(capsys, tmp_path, suite, prefix):
    # Digests of the stdout written before the rank-table move relation
    # (theorem2, sandwich, lemma3) and before options were mapped to suites
    # by their signatures (the others).
    rc, out, _ = run_cli(capsys, "verify", "--suite", suite, "--out", str(tmp_path / "f"))
    assert rc == EXIT_OK
    assert hashlib.sha256(out.encode()).hexdigest()[:16] == prefix


def _claims_then_summary(out, claims):
    lines = out.split("\n")
    assert lines.pop() == ""  # the output ends with one newline
    assert "" not in lines
    assert len(lines) == claims + 1 and lines[-1].startswith("SUMMARY ")
    assert all(line.startswith("CLAIM ") for line in lines[:-1])
    return lines


@pytest.mark.parametrize("argv", [
    ("--suite", "corollary-grid", "--max", "3"),
    ("--suite", "lemma3", "--count", "3", "--max-size", "4"),
    ("--suite", "three-trees"),
])
def test_verify_writes_one_line_per_claim_and_a_summary(capsys, tmp_path, argv):
    from treecops.suites import run_suite

    result = run_suite(argv[1], count=3, max_size=4, max_mn=3)  # each takes what argv sets
    rc, out, _ = run_cli(capsys, "verify", *argv, "--out", str(tmp_path / "f"))
    assert rc == EXIT_OK
    lines = _claims_then_summary(out, sum(len(r.claims) for r in result.reports))
    assert lines[:-1] == [f"{line}  # {r.instance}" for r in result.reports for line in r.lines()]


def test_verify_writes_nothing_for_a_report_without_claims(capsys, tmp_path, monkeypatch):
    import treecops.suites as suites
    from treecops.bounds import BoundReport, make_claim

    def fake():
        result = suites.SuiteResult("fake")
        result.reports = [
            BoundReport("a", [make_claim("x", 1, "<=", 2), make_claim("y", 3, "==", 3)]),
            BoundReport("empty"),
            BoundReport("b", [make_claim("z", 0, ">=", 0)]),
            BoundReport("empty-at-end"),
        ]
        return result

    monkeypatch.setitem(suites.SUITES, "three-trees", fake)
    rc, out, _ = run_cli(capsys, "verify", "--suite", "three-trees", "--out", str(tmp_path / "f"))
    assert rc == EXIT_OK
    assert _claims_then_summary(out, 3) == [
        "CLAIM x 1 <= 2 PASS  # a", "CLAIM y 3 == 3 PASS  # a", "CLAIM z 0 >= 0 PASS  # b",
        "SUMMARY suite=fake reports=4 pass=3 fail=0 vacuous=0"]


def test_verify_lemma3_at_defaults_repeats_its_claim_lines(capsys, tmp_path):
    # One claim per (central pair, qualifying cycle through u): a vertex on
    # several cycles repeats its line, and the pinned stdout keeps them.
    rc, out, _ = run_cli(capsys, "verify", "--suite", "lemma3", "--out", str(tmp_path / "f"))
    assert rc == EXIT_OK
    claims = [line for line in out.splitlines() if line.startswith("CLAIM ")]
    assert len(claims) == 35844
    assert len(set(claims)) == 14421


@pytest.mark.parametrize("argv, claim", [
    (("--suite", "theorem2", "--count", "2", "--max-size", "3"), "capt2-finite"),
    (("--suite", "sandwich", "--count", "2", "--max-size", "3"), "capt2-finite"),
    (("--suite", "lemma3", "--count", "2", "--max-size", "3"), "capt2-finite"),
    (("--suite", "three-trees",), "capt-finite"),
])
def test_verify_escape_is_a_failure_with_counterexample(capsys, tmp_path, monkeypatch,
                                                        argv, claim):
    # A solver that wrongly reports ESCAPE must fail the claim, not the input.
    force_solve_escape(monkeypatch)
    rc, out, err = run_cli(capsys, "verify", *argv, "--out", str(tmp_path / "f"))
    assert rc == EXIT_VERIFY_FAIL
    assert f"CLAIM {claim} -1 >= 0 FAIL" in out
    assert "counterexamples written" in err
    failure_dir = tmp_path / "f" / argv[1]
    assert (failure_dir / "failure-0.txt").is_file()
    parse_graph((failure_dir / "failure-0.g").read_text())
    assert_solve_replays(capsys, monkeypatch, failure_dir, ["robber-first"])


@pytest.mark.parametrize("suite", ["theorem2", "sandwich", "lemma3"])
def test_verify_escape_after_an_honest_run_still_fails(capsys, tmp_path, monkeypatch, suite):
    # The shared solves are kept per solver, so the honest run of the same
    # corpus does not hide a solver bound over it later in the process.
    argv = ("verify", "--suite", suite, "--count", "2", "--max-size", "3")
    rc, _, _ = run_cli(capsys, *argv, "--out", str(tmp_path / "honest"))
    assert rc == EXIT_OK
    force_solve_escape(monkeypatch)
    rc, out, _ = run_cli(capsys, *argv, "--out", str(tmp_path / "f"))
    assert rc == EXIT_VERIFY_FAIL
    assert "CLAIM capt2-finite -1 >= 0 FAIL" in out


def test_corpus_suites_print_the_same_in_any_order(capsys, tmp_path):
    # Each order starts from empty memos, as a fresh process does.
    import treecops.suites as suites

    outputs = []
    for order in (("theorem2", "sandwich", "lemma3"), ("lemma3", "sandwich", "theorem2")):
        suites.reset_memos()
        printed = {}
        for suite in order:
            rc, printed[suite], _ = run_cli(capsys, "verify", "--suite", suite,
                                            "--out", str(tmp_path / "f"))
            assert rc == EXIT_OK
        outputs.append(printed)
    assert outputs[0] == outputs[1]


def test_verify_thm1_capt_failure_replays_one_cop_solve(capsys, tmp_path, monkeypatch):
    force_solve_escape(monkeypatch)
    rc, out, _ = run_cli(capsys, "verify", "--suite", "thm1", "--max-size", "3",
                         "--count", "0", "--out", str(tmp_path / "f"))
    assert rc == EXIT_VERIFY_FAIL
    assert "CLAIM thm1-capt -1 == 1 FAIL" in out
    failure_dir = tmp_path / "f" / "thm1"
    assert parse_graph((failure_dir / "failure-0.g").read_text()).vertex_count == 2
    assert "--cops 1 --order robber-first" in (failure_dir / "failure-0.txt").read_text()
    assert_solve_replays(capsys, monkeypatch, failure_dir, ["robber-first"])


@pytest.mark.parametrize("argv, claim", [
    (("--suite", "corollary-grid", "--max", "2"), "grid-robber-first -1 == 1"),
    (("--suite", "move-order", "--count", "2"), "move-order-agreement -1 == 1"),
])
def test_verify_escape_in_one_order_replays_both(capsys, tmp_path, monkeypatch, argv, claim):
    # Suites that compare the two move orders name a solve for each.
    import treecops.suites as suites

    original = suites.capture_time_both_orders

    def escaping_robber_first(g, k):
        return treecops.ESCAPE, original(g, k)[1]

    monkeypatch.setattr(suites, "capture_time_both_orders", escaping_robber_first)
    rc, out, err = run_cli(capsys, "verify", *argv, "--out", str(tmp_path / "f"))
    assert rc == EXIT_VERIFY_FAIL
    assert f"CLAIM {claim} FAIL" in out
    failure_dir = tmp_path / "f" / argv[1]
    assert_solve_replays(capsys, monkeypatch, failure_dir, ["robber-first", "cops-first"])


@pytest.mark.parametrize("argv, claim", [
    (("--suite", "thm1", "--max-size", "3", "--count", "2"), "thm1-strategy"),
    (("--suite", "constructive", "--count", "2", "--max", "2"), "constructive-capture"),
])
def test_verify_strategy_escape_is_written_minus_one(capsys, tmp_path, monkeypatch, argv, claim):
    # A strategy that the best robber escapes fails its claim, read as -1.
    import treecops.suites as suites

    monkeypatch.setattr(suites, "best_response_length", lambda *args: treecops.ESCAPE)
    rc, out, err = run_cli(capsys, "verify", *argv, "--out", str(tmp_path / "f"))
    assert rc == EXIT_VERIFY_FAIL
    assert re.search(rf"^CLAIM {claim} -1 == \d+ FAIL  # ", out, re.M)
    parse_graph((tmp_path / "f" / argv[1] / "failure-0.g").read_text())


def test_verify_thm1_strategy_failure_replays_the_chase(capsys, tmp_path, monkeypatch):
    # A failing thm1-strategy report names one game of the one-cop chase on
    # the written tree, and that command, run in the directory, reprints
    # the trace written next to it.
    import treecops.suites as suites

    monkeypatch.setattr(suites, "best_response_length", lambda *args: treecops.ESCAPE)
    rc, out, _ = run_cli(capsys, "verify", "--suite", "thm1", "--max-size", "3",
                         "--count", "1", "--out", str(tmp_path / "f"))
    assert rc == EXIT_VERIFY_FAIL
    assert re.search(r"^CLAIM thm1-strategy -1 == \d+ FAIL  # ", out, re.M)
    failure_dir = tmp_path / "f" / "thm1"
    report = (failure_dir / "failure-0.txt").read_text().splitlines()
    replay = [line for line in report if line.startswith("# replay: ")]
    assert replay == ["# replay: treecops simulate --t1 failure-0.g --cops thm1 --robber optimal"]
    written = (failure_dir / "failure-0.trace").read_text()
    assert written.splitlines()[0] == "#graph failure-0.g"
    assert "#cops 1" in written.splitlines()
    assert written.splitlines()[-1].startswith("CAPTURED")
    argv = shlex.split(replay[0][len("# replay: "):])
    assert argv[0] == "treecops"
    monkeypatch.chdir(failure_dir)
    rc, out, _ = run_cli(capsys, *argv[1:])
    assert rc == EXIT_OK
    assert out == written


def force_solve_escape(monkeypatch):
    """Make every solve a suite runs report ESCAPE as its capture time."""
    import treecops.suites as suites

    original = suites.solve

    def escaping(g, k, *args, **kwargs):
        return dataclasses.replace(original(g, k, *args, **kwargs),
                                   capture_time=treecops.ESCAPE)

    monkeypatch.setattr(suites, "solve", escaping)


def assert_solve_replays(capsys, monkeypatch, failure_dir, orders):
    """failure-0.txt names one `treecops solve` per move order, and each
    one, run inside the directory, exits 0."""
    report = (failure_dir / "failure-0.txt").read_text().splitlines()
    replay = [line[len("# replay: "):] for line in report if line.startswith("# replay: ")]
    assert [shlex.split(line)[-1] for line in replay] == orders
    monkeypatch.chdir(failure_dir)
    for line in replay:
        argv = shlex.split(line)
        assert argv[:4] == ["treecops", "solve", "--graph", "failure-0.g"]
        rc, out, _ = run_cli(capsys, *argv[1:])
        assert rc == EXIT_OK
        assert out.startswith("capt=")


@pytest.mark.parametrize("suite", ["theorem2", "sandwich", "lemma3", "thm1", "constructive"])
@pytest.mark.parametrize("max_size", ["1", "0"])
def test_verify_rejects_max_size_below_two(capsys, tmp_path, suite, max_size):
    rc, out, err = run_cli(capsys, "verify", "--suite", suite, "--max-size", max_size,
                           "--out", str(tmp_path / "f"))
    assert rc == EXIT_INPUT
    assert out == ""
    assert "--max-size" in err and "below()" not in err


@pytest.mark.parametrize("argv, message", [
    (("--suite", "theorem2", "--count", "-1"), "--count must be at least 0, got -1"),
    (("--suite", "corollary-grid", "--max", "-2"), "--max must be at least 1, got -2"),
], ids=["count", "max"])
def test_verify_rejects_option_below_its_floor(capsys, tmp_path, argv, message):
    rc, out, err = run_cli(capsys, "verify", *argv, "--out", str(tmp_path / "f"))
    assert rc == EXIT_INPUT
    assert out == ""
    assert f"error: {message}" in err
    assert not (tmp_path / "f").exists()


def test_verify_checks_only_the_options_the_suite_takes(capsys, tmp_path):
    rc, out, _ = run_cli(capsys, "verify", "--suite", "three-trees", "--count", "-1",
                         "--max", "0", "--max-size", "0", "--out", str(tmp_path / "f"))
    assert rc == EXIT_OK
    assert "SUMMARY suite=three-trees reports=4" in out


def test_verify_maps_each_option_to_its_parameter(capsys, monkeypatch):
    import treecops.suites as suites

    seen = {}

    def stand_in(seed, count, max_size, max_mn):
        seen.update(seed=seed, count=count, max_size=max_size, max_mn=max_mn)
        return suites.SuiteResult("constructive")

    monkeypatch.setitem(suites.SUITES, "constructive", stand_in)
    rc, _, _ = run_cli(capsys, "verify", "--suite", "constructive", "--seed", "5",
                       "--count", "3", "--max-size", "4", "--max", "2")
    assert rc == EXIT_VERIFY_FAIL  # the stand-in checks nothing
    assert seen == {"seed": 5, "count": 3, "max_size": 4, "max_mn": 2}


@pytest.mark.parametrize("suite", sorted(treecops.suites.SUITES))
def test_verify_without_options_leaves_the_suite_defaults(capsys, monkeypatch, suite):
    import treecops.suites as suites

    calls = []
    real = suites.SUITES[suite]

    @functools.wraps(real)
    def recording(*args, **kwargs):
        calls.append((args, kwargs))
        return suites.SuiteResult(suite)

    monkeypatch.setitem(suites.SUITES, suite, recording)
    rc, _, _ = run_cli(capsys, "verify", "--suite", suite)
    assert rc == EXIT_VERIFY_FAIL  # the stand-in checks nothing
    assert calls == [((), {})]
