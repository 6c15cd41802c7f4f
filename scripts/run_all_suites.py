#!/usr/bin/env python3
"""Run every verification suite and print one summary line per suite.

Exits nonzero if any claim fails or a suite has no passing claim.
Each suite's wall time goes to stderr, so stdout is the same on every
run.
`--quick` shrinks corpus sizes for a fast smoke run; the defaults match
the full verification configuration.

Usage: python3 scripts/run_all_suites.py [--quick]
"""
import argparse
import sys
import time

from treecops.suites import SUITES, run_suite

# One quick configuration for every suite; each takes the options its
# signature names.
QUICK_OPTIONS = dict(count=20, max_size=5, max_mn=4)


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--quick", action="store_true")
    args = parser.parse_args()

    failed = False
    for name in sorted(SUITES):
        options = QUICK_OPTIONS if args.quick else {}
        started = time.perf_counter()
        result = run_suite(name, **options)
        elapsed = time.perf_counter() - started
        counts = result.counts()
        print(result.summary(counts))
        print(f"suite={name} time={elapsed:.1f}s", file=sys.stderr)
        if not counts.passed:
            failed = True
            if counts.npass == counts.nfail == 0:
                print(f"  NO CLAIM PASSED: suite {name} checked nothing", file=sys.stderr)
            for report in result.failing_reports():
                print(f"  FAILING: {report.instance}", file=sys.stderr)
                for line in report.lines():
                    print(f"    {line}", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
