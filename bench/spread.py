#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarise each end-to-end metric.

    python3 bench/spread.py --workloads solve-large,verify-corpus --seeds 1-10 [--out FILE]

For each workload and end-to-end metric it prints the median, the first
and third quartiles (statistics.quantiles(values, n=4)) and the spread
(q3 - q1) / median, and marks a spread above a third of the metric's
bound in BENCHMARK.json.  --out writes the same summary as JSON.  Runs
are sequential, so they never compete with each other for the CPUs.
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


def seed_list(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(x) for x in text.split(",")]


def main(argv=None) -> int:
    definition = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in definition["workloads"]))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, default=definition["run_seconds"])
    parser.add_argument("--out", default=None)
    args = parser.parse_args(argv)

    summary = {}
    ok = True
    seeds = seed_list(args.seeds)
    for workload in args.workloads.split(","):
        values: dict[str, list[float]] = {m["name"]: [] for m in definition["end_to_end"]}
        runs = []
        for seed in seeds:
            started = time.monotonic()
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
                 "--seconds", str(args.seconds), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, timeout=300)
            elapsed = time.monotonic() - started
            if proc.returncode != 0:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
                return 1
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            ok = ok and result["correct"]
            for name in values:
                values[name].append(result["metrics"][name]["value"])
            runs.append({"seed": seed, "run_s": round(elapsed, 1), "correct": result["correct"],
                         **{n: result["metrics"][n]["value"] for n in values}})
            print(f"{workload} seed={seed} run_s={elapsed:.1f} correct={result['correct']} "
                  + " ".join(f"{n}={v[-1]:.4f}" for n, v in values.items()), flush=True)
        summary[workload] = {"runs": runs, "metrics": {}}
        for m in definition["end_to_end"]:
            vals = values[m["name"]]
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            flag = "" if spread <= m["bound"] / 3 else "  <-- above a third of the bound"
            print(f"{workload} {m['name']}: median={med:.4f} q1={q1:.4f} q3={q3:.4f} "
                  f"spread={spread:.4f} bound={m['bound']}{flag}", flush=True)
            summary[workload]["metrics"][m["name"]] = {
                "unit": m["unit"], "median": med, "q1": q1, "q3": q3, "spread": spread,
                "n": len(vals)}
    if args.out:
        head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True).stdout.strip() or "unknown"
        record = {"commit": head, "nproc": os.cpu_count(), "python": platform.python_version(),
                  "run_seconds": args.seconds, "seeds": seeds, "workloads": summary}
        Path(args.out).write_text(json.dumps(record, indent=2) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
