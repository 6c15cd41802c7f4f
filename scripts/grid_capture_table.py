#!/usr/bin/env python3
"""Print the two-cop capture-time table for m x n grids.

For every grid up to the requested side length, shows the exact solver
value, the closed-form floor((m+n)/2)-1, and the exhaustive best
response against the constructive two-cop strategy.  All three columns
must agree.  Each row's wall time goes to stderr, so stdout is the same
on every run.

Usage: python3 scripts/grid_capture_table.py [--max-side 6]
"""
import argparse
import sys
import time

from treecops import (
    GameConfig,
    ProductTwoCop,
    best_response_length,
    cartesian_product,
    path_graph,
    solve,
)


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--max-side", type=int, default=6)
    args = parser.parse_args()
    if args.max_side < 2:
        parser.error(f"--max-side must be at least 2, got {args.max_side}")

    config = GameConfig(cop_count=2)
    print(f"{'grid':>8} {'solver':>7} {'formula':>8} {'strategy':>9}")
    disagreements = 0
    for m in range(2, args.max_side + 1):
        for n in range(m, args.max_side + 1):
            started = time.perf_counter()
            product = cartesian_product(path_graph(m), path_graph(n))
            exact = solve(product.flat, 2).capture_time
            formula = (m + n) // 2 - 1
            strategy = best_response_length(
                product.flat, config, ProductTwoCop(product)
            )
            elapsed = time.perf_counter() - started
            mark = "" if exact == formula == strategy else "  <-- DISAGREES"
            if mark:
                disagreements += 1
            label = f"{m}x{n}"
            print(f"{label:>8} {exact:>7} {formula:>8} {strategy:>9}{mark}")
            print(f"{label} time={elapsed:.2f}s", file=sys.stderr)
    if disagreements:
        print(f"{disagreements} disagreements", file=sys.stderr)
        return 1
    print("all rows agree")
    return 0


if __name__ == "__main__":
    sys.exit(main())
