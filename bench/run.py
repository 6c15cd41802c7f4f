#!/usr/bin/env python3
"""The treecops benchmark: one workload, measured for a fixed time.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; BENCHMARK.json defines the workloads
and metrics.  Every measurement happens in a fresh single-threaded child
process (bench/child.py): one caller, a closed loop, no threads.

--trace 0  starts setup-only children and then whole-workload children
           until the time is used up, and reports the end-to-end
           metrics as medians over the children.
--trace 1  alternates untraced and traced children, checks that both
           give the same answers and counts, and reports the per-layer
           metrics (medians over the traced children) plus the tracing
           overhead.

The last stdout line is one JSON object with the keys correct,
attempted, failed and metrics.  The lines before it record the
environment, the input fingerprints, every child, every miss, and all
end-to-end metrics by name and unit.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 5
# A run must end within 180 s; no child may start past this point.
HARD_LIMIT_S = 170

THROUGHPUT = {
    "solve-large": "solve_states_per_s",
    "verify-corpus": "verified_instances_per_s",
    "best-response": "br_vertices_per_s",
}
# Counts that must be equal in every traced child of one run.
TRACE_COUNTS = (
    "solver.calls", "solver.states", "solver.tuples", "solver.cop_move_pairs",
    "bounds.c4_calls", "bounds.bfs_calls", "cli.lines", "engine.check_moves_calls",
    "tree_strategies.respond_calls", "tree_strategies.invariant_checks",
    "tree_strategies.endgame_entries",
)


def load_definition() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def environment() -> str:
    try:
        head = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            timeout=10, env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.TimeoutExpired):
        head = "unknown"
    load = " ".join(f"{x:.2f}" for x in os.getloadavg())
    return (f"# env nproc={os.cpu_count()} python={platform.python_version()} "
            f"platform={platform.platform()} head={head} loadavg={load}")


class ChildFailed(RuntimeError):
    pass


def spawn(args, *, trace: bool, setup_only: bool = False, timeout: float) -> dict:
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--trace", str(int(trace)), "--size", args.size]
    if setup_only:
        cmd.append("--setup-only")
    if args.inject_wrong_expected:
        cmd.append("--inject-wrong-expected")
    env = {**os.environ, "PYTHONHASHSEED": "0"}
    env.pop("PYTHONPATH", None)
    load1 = os.getloadavg()[0]
    spawned = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        raise ChildFailed(f"child timed out after {timeout:.0f}s: {' '.join(cmd)}")
    if proc.returncode != 0:
        raise ChildFailed(f"child exited {proc.returncode}: {' '.join(cmd)}\n{proc.stderr.strip()}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["setup_wall_s"] = result["ready"] - spawned
    result["elapsed_s"] = time.monotonic() - spawned
    result["load1"] = load1
    return result


def child_line(i, kind, r) -> str:
    parts = [f"# child {i} {kind} setup_s={r['setup_s']:.4f} setup_cpu_s={r['setup_cpu_s']:.4f} "
             f"setup_wall_s={r['setup_wall_s']:.4f}"]
    if "wall_s" in r:
        parts.append(f"body_s={r['body_s']:.4f} body_cpu_s={r['cpu_s']:.4f} wall_s={r['wall_s']:.4f} "
                     f"gauge_samples={r['gauge_samples']} peak_rss_mb={r['peak_rss_kb'] / 1024:.2f} "
                     f"attempted={r['attempted']} failed={r['failed']}")
    parts.append(f"load1={r['load1']:.2f}")
    return " ".join(parts)


def untraced(args, started, problems):
    deadline = started + args.seconds
    setups, fulls = [], []
    for i in range(SETUP_SAMPLES):
        r = spawn(args, trace=False, setup_only=True, timeout=HARD_LIMIT_S - (time.monotonic() - started))
        setups.append(r)
        print(child_line(i + 1, "setup-only", r))
    while True:
        r = spawn(args, trace=False, timeout=HARD_LIMIT_S - (time.monotonic() - started))
        fulls.append(r)
        print(child_line(len(setups) + len(fulls), "full", r))
        if time.monotonic() + r["elapsed_s"] > deadline:
            break
    for r in fulls[1:]:
        if (r["observed"], r["checks"]) != (fulls[0]["observed"], fulls[0]["checks"]):
            problems.append("two untraced children of one seed disagree on answers or counts")
    return setups + fulls, fulls


def traced(args, started, problems):
    deadline = started + args.seconds
    plain, traced_runs = [], []
    while True:
        for trace, bucket in ((False, plain), (True, traced_runs)):
            r = spawn(args, trace=trace, timeout=HARD_LIMIT_S - (time.monotonic() - started))
            bucket.append(r)
            print(child_line(len(plain) + len(traced_runs), "traced" if trace else "untraced", r))
        if time.monotonic() + plain[-1]["elapsed_s"] + traced_runs[-1]["elapsed_s"] > deadline:
            break
    base = plain[0]
    for r in plain[1:] + traced_runs:
        if (r["observed"], r["checks"]) != (base["observed"], base["checks"]):
            problems.append("traced and untraced children disagree on answers or counts")
            break
    for r in traced_runs:
        for key, value in r["wrapped_counts"].items():
            if key in base["observed"] and base["observed"][key] != value:
                problems.append(f"wrapped count {key}={value} but the workload saw "
                                f"{base['observed'][key]}")
        for key in TRACE_COUNTS:
            if r["layers"][key] != traced_runs[0]["layers"][key]:
                problems.append(f"per-layer count {key} differs between traced children")
    return plain, traced_runs


def median(values) -> float:
    return statistics.median(values) if values else 0.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full",
                        help="smoke: tiny inputs, for the benchmark's own test")
    parser.add_argument("--inject-wrong-expected", action="store_true",
                        help="make one expected value wrong, for the benchmark's own test")
    args = parser.parse_args(argv)
    started = time.monotonic()

    if not (ROOT / "src" / "treecops" / "__init__.py").is_file():
        print(f"benchmark: no treecops package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    definition = load_definition()
    if args.workload not in {w["name"] for w in definition["workloads"]}:
        print(f"benchmark: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    print(environment())
    print(f"# workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} size={args.size}")
    problems: list[str] = []
    try:
        if args.trace:
            plain, traced_runs = traced(args, started, problems)
            measured = plain + traced_runs
        else:
            everyone, fulls = untraced(args, started, problems)
            measured = fulls
    except ChildFailed as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 1

    for line in measured[0]["fingerprints"]:
        print(f"# input {line}")
    # A failed consistency check between children counts as one more failed operation.
    attempted = sum(r["attempted"] for r in measured) + len(problems)
    failed = sum(r["failed"] for r in measured) + len(problems)
    for r in measured:
        for message in r["failures"]:
            print(f"# FAIL {message}")
    for message in problems:
        print(f"# FAIL {message}")
    error_rate = failed / attempted

    if args.trace:
        layer_units = {m["name"]: m["unit"] for m in definition["per_layer"]}
        metrics = {}
        for name, unit in layer_units.items():
            if name == "trace.overhead_ratio":
                value = (median([r["body_s"] for r in traced_runs])
                         / median([r["body_s"] for r in plain]))
            else:
                value = median([r["layers"][name] for r in traced_runs])
            metrics[name] = {"value": value, "unit": unit}
        for layer, secs in traced_runs[0]["self_s_by_layer"].items():
            print(f"# exclusive_s layer={layer} {secs:.4f} s")
        for r in traced_runs:
            print(f"# spans {r['spans']} written to {r['spans_file']}")
    else:
        e2e_units = {m["name"]: m["unit"] for m in definition["end_to_end"]}
        values = {
            "setup_s": median([r["setup_s"] for r in everyone]),
            "body_s": median([r["body_s"] for r in fulls]),
            "peak_rss_mb": median([r["peak_rss_kb"] for r in fulls]) / 1024,
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in e2e_units.items()}
        own = THROUGHPUT[args.workload]
        n_all, n_full = f"median of {len(everyone)} children", f"median of {len(fulls)} children"
        report = [
            ("setup_s", values["setup_s"], "s", f"set-up CPU time at reference speed, {n_all}"),
            ("setup_cpu_s", median([r["setup_cpu_s"] for r in everyone]), "s",
             f"set-up CPU time, {n_all}"),
            ("setup_wall_s", median([r["setup_wall_s"] for r in everyone]), "s",
             f"wall time from spawn to inputs ready, {n_all}"),
            ("body_s", values["body_s"], "s", f"body CPU time at reference speed, {n_full}"),
            ("body_cpu_s", median([r["cpu_s"] for r in fulls]), "s", f"body CPU time, {n_full}"),
            ("wall_s", median([r["wall_s"] for r in fulls]), "s", f"body wall time, {n_full}"),
            ("peak_rss_mb", values["peak_rss_mb"], "MB", n_full),
            ("error_rate", error_rate, "ratio", f"{failed} of {attempted} operations failed"),
        ]
        for name, unit in (("solve_states_per_s", "1/s"), ("verified_instances_per_s", "1/s"),
                           ("br_vertices_per_s", "1/s")):
            if name == own:
                value = median([r["throughput"][name] for r in fulls])
                report.append((name, value, unit, f"per wall second, {n_full}"))
            else:
                report.append((name, None, unit, "not measured by this workload"))
        for name, value, unit, note in report:
            shown = "n/a" if value is None else f"{value:.6g}"
            print(f"metric {name} {shown} {unit}  # {note}")

    correct = failed == 0 and not problems
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
