#!/usr/bin/env python3
"""Record the benchmark's figures for a commit in one JSON file.

Runs ``bench/run.py`` for every workload in BENCHMARK.json, untraced
``--runs`` times and traced once, and writes:

- the env line and the seed;
- for each workload, every run's reported end-to-end figures, and the
  median and quartiles of each end-to-end metric over the child lines
  of all runs;
- the per-layer metrics of the ``--trace 1`` run;
- for each checkout, its ``git rev-parse HEAD`` and ``dirty``, true when
  tracked files differ from that commit (null for both outside git).

With ``--parent DIR`` (a checkout of the parent commit) both checkouts
are measured, in alternating order from run to run, and each metric
records how many runs of the change beat the parent run paired with it.
Each checkout runs its own ``bench/run.py`` on its own sources.

Usage: python3 scripts/bench.py --out BENCH_<n>.json [--runs N]
           [--parent DIR] [--size full|smoke]
"""
import argparse
import json
import os
import re
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CHILD_FIELD = re.compile(r"(\w+)=([-+.\w]+)")
# A smoke run checks that the recorder works, not how fast anything is.
SMOKE_SECONDS = 1
# One seed for every record, so the BENCH_<n>.json files compare.
SEED = 7


def bench_run(checkout: Path, workload: str, args, trace: bool) -> dict:
    """One bench/run.py invocation: its env line, child lines and result."""
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(SEED),
           "--seconds", str(args.seconds), "--trace", str(int(trace)), "--size", args.size]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"bench: {' '.join(cmd)} in {checkout} exited {proc.returncode}\n"
                         f"{proc.stderr.strip()}")
    lines = proc.stdout.strip().splitlines()
    children = [{key: float(value) for key, value in CHILD_FIELD.findall(line)}
                for line in lines if line.startswith("# child ")]
    return {"env": lines[0], "children": children, "result": json.loads(lines[-1])}


def revision(checkout: Path) -> dict:
    """The commit a checkout is at, and whether its tracked files differ from it."""
    def git(*args):
        return subprocess.run(["git", *args], cwd=checkout, capture_output=True, text=True,
                              env={**os.environ, "GIT_CEILING_DIRECTORIES": str(checkout.parent)})

    head = git("rev-parse", "HEAD")
    if head.returncode != 0:
        return {"head": None, "dirty": None}
    status = git("status", "--porcelain", "--untracked-files=no").stdout
    return {"head": head.stdout.strip(), "dirty": bool(status.strip())}


def spread(values: list) -> dict:
    """Median and quartiles (inclusive method) of the values."""
    if len(values) < 2:
        q1 = median = q3 = values[0] if values else None
    else:
        q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "samples": len(values)}


def beats(change: float, parent: float, better: str) -> bool:
    return change < parent if better == "lower" else change > parent


def summarise(runs: list, traced: dict, end_to_end: list) -> dict:
    pooled = {m["name"]: [c[m["name"]] for run in runs for c in run["children"]
                          if m["name"] in c] for m in end_to_end}
    return {
        "env": runs[0]["env"],
        "runs": [{**{name: m["value"] for name, m in run["result"]["metrics"].items()},
                  "attempted": run["result"]["attempted"], "failed": run["result"]["failed"]}
                 for run in runs],
        "end_to_end": {m["name"]: {"unit": m["unit"], **spread(pooled[m["name"]])}
                       for m in end_to_end},
        "per_layer": {"correct": traced["result"]["correct"],
                      **{name: m["value"] for name, m in traced["result"]["metrics"].items()}},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, help="the JSON file to write")
    parser.add_argument("--runs", type=int, default=1, help="untraced runs per checkout")
    parser.add_argument("--parent", type=Path, default=None,
                        help="a checkout of the parent commit, measured alternately")
    parser.add_argument("--size", choices=("full", "smoke"), default="full")
    args = parser.parse_args()
    if args.runs < 1:
        parser.error("--runs must be at least 1")
    definition = json.loads((ROOT / "BENCHMARK.json").read_text())
    args.seconds = definition["run_seconds"] if args.size == "full" else SMOKE_SECONDS

    sides = {"change": ROOT}
    if args.parent is not None:
        sides["parent"] = args.parent.resolve()
    revisions = {side: revision(path) for side, path in sides.items()}
    workloads = {}
    for workload in (w["name"] for w in definition["workloads"]):
        runs = {side: [] for side in sides}
        for i in range(args.runs):
            order = list(sides) if i % 2 == 0 else list(reversed(sides))
            for side in order:
                runs[side].append(bench_run(sides[side], workload, args, trace=False))
                print(f"{workload} run {i + 1} {side}: "
                      f"{runs[side][-1]['result']['metrics']['body_s']['value']:.3f} s",
                      file=sys.stderr)
        entry = {side: summarise(runs[side], bench_run(sides[side], workload, args, trace=True),
                                 definition["end_to_end"])
                 for side in sides}
        if "parent" in sides:
            # Ties count for neither side.
            entry["change_wins"] = {
                m["name"]: sum(beats(c[m["name"]], p[m["name"]], m["better"])
                               for c, p in zip(entry["change"]["runs"], entry["parent"]["runs"]))
                for m in definition["end_to_end"]}
        workloads[workload] = entry
    record = {"env": next(iter(workloads.values()))["change"]["env"], "seed": SEED,
              "seconds": args.seconds, "size": args.size, "runs": args.runs,
              "revisions": revisions, "workloads": workloads}
    Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
