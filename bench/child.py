#!/usr/bin/env python3
"""One benchmark workload in a fresh, single-threaded Python process.

    python3 bench/child.py --workload NAME --seed N [--trace 0|1]
        [--setup-only] [--size full|smoke] [--inject-wrong-expected]

The child imports treecops from the checkout's ``src/``, builds its
inputs from the seed, runs the workload body once, checks every answer
against a closed form computed here (never against the solver), and
prints one JSON object on its last stdout line.  ``run.py`` starts it.
With ``--trace 1`` the wrappers of ``tracer.py`` are installed before
any input is built.
"""
from __future__ import annotations

import signal
import time


class Gauge:
    """Samples the host's speed all through the child's life.

    Other tenants of a shared host make the same CPU-bound code run up
    to half again as long from one second to the next, in CPU time as
    well as wall time.  Every INTERVAL_S of wall time a SIGALRM handler
    times a fixed dict loop on this thread's CPU clock.  `scaled` turns
    the CPU time between two marks into seconds at the reference speed,
    at which the loop takes REF_S: each stretch of CPU time between two
    samples is weighted by the speed the sample that ends it measured.
    The loop's own time is left out.
    """

    INTERVAL_S = 0.02
    REF_S = 0.00025  # the loop's CPU time on an idle 2-vCPU Xeon host

    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []  # (CPU clock at start, loop seconds)
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.INTERVAL_S, self.INTERVAL_S)

    def _sample(self, signum, frame) -> None:
        started = time.thread_time()
        table: dict = {}
        for i in range(1000):
            key = (i * 7919) % 401
            table[key] = table.get(key, 0) + i
        self.samples.append((started, max(time.thread_time() - started, 1e-6)))

    def mark(self) -> tuple[float, int]:
        return time.thread_time(), len(self.samples)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)

    def cpu(self, start, end) -> float:
        """CPU seconds from mark `start` to mark `end`, the loop's time left out."""
        return end[0] - start[0] - sum(g for _, g in self.samples[start[1]:end[1]])

    def scaled(self, start, end) -> float:
        """Reference-speed CPU seconds from mark `start` to mark `end`."""
        samples = self.samples[start[1]:end[1]]
        if not samples:
            return end[0] - start[0]
        total, since = 0.0, start[0]
        for at, spent in samples:
            total += (at - since) * self.REF_S / spent
            since = at + spent
        return total + (end[0] - since) * self.REF_S / spent


if __name__ == "__main__":
    GAUGE = Gauge()  # armed before the imports, so that it sees all of set-up

import argparse
import contextlib
import hashlib
import io
import json
import os
import random
import resource
import shutil
import sys
import tempfile
from pathlib import Path

from tracer import Tracer, install, layer_metrics

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"
MAX_REPORTED_FAILURES = 20


def import_package():
    """Import treecops from this checkout only, never from site-packages."""
    src = ROOT / "src"
    if not (src / "treecops" / "__init__.py").is_file():
        raise SystemExit(f"benchmark: no treecops package under {src}")
    sys.path.insert(0, str(src))
    import treecops

    if Path(treecops.__file__).resolve().parent != (src / "treecops").resolve():
        raise SystemExit(f"benchmark: imported treecops from {treecops.__file__}, not {src}")
    import treecops.cli  # noqa: F401  (the CLI is part of what verify-corpus sets up)
    return treecops


def peak_rss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def diameter(adjacency) -> int:
    """All-sources BFS, written here so the expected values do not reuse package code."""
    n = len(adjacency)
    best = 0
    for source in range(n):
        dist = [-1] * n
        dist[source] = 0
        queue = [source]
        for u in queue:
            for v in adjacency[u]:
                if dist[v] < 0:
                    dist[v] = dist[u] + 1
                    queue.append(v)
        best = max(best, max(dist))
    return best


class Run:
    """Operation counts, misses, and the tracer instance label of one child."""

    def __init__(self, tracer, inject_wrong: bool):
        self.tracer = tracer
        self.inject_pending = inject_wrong
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self._digest = hashlib.sha256()

    def begin(self, instance: str) -> None:
        if self.tracer is not None:
            self.tracer.instance = instance

    def _miss(self, message: str) -> None:
        self.failed += 1
        if len(self.failures) < MAX_REPORTED_FAILURES:
            self.failures.append(message)

    def expect(self, what: str, got, want) -> bool:
        """One operation whose answer must equal `want`."""
        self.attempted += 1
        ok = got == want
        if self.inject_pending:
            # Smoke-test hook: the first expectation is made wrong on purpose.
            self.inject_pending = False
            ok = not ok
            want = f"not {want!r} (injected)"
        if not ok:
            self._miss(f"{what}: got {got!r}, want {want!r}")
        self._digest.update(f"{what}={ok}\n".encode())
        return ok

    def error(self, what: str, exc: BaseException) -> None:
        """One operation that raised."""
        self.attempted += 1
        self._miss(f"{what}: {type(exc).__name__}: {exc}")
        self._digest.update(f"{what}=raised\n".encode())

    def checks_digest(self) -> str:
        """Names and outcomes of every check, so two children can be compared."""
        return self._digest.hexdigest()[:16]


def fingerprint(treecops, label, g) -> str:
    text = treecops.format_graph(g)
    digest = hashlib.sha256(text.encode()).hexdigest()[:16]
    return f"{label} n={g.vertex_count} m={g.edge_count} sha256={digest}"


# --- solve-large ---------------------------------------------------------------


class SolveLarge:
    """Few large solves in both move orders and at k=3, then optimal-strategy moves."""

    # (rows, cols, cops) of the two grids; the k=3 capture time of the 5x5
    # grid has no closed form, so it is pinned to the value this benchmark
    # was introduced with and cross-checked by an optimal-vs-optimal game.
    SIZES = {
        "full": {"grid": (10, 10, 2), "grid3": (5, 5, 3), "pinned3": 3, "tree": 9, "moves": 1000},
        "smoke": {"grid": (4, 4, 2), "grid3": (3, 3, 3), "pinned3": 1, "tree": 4, "moves": 50},
    }

    def setup(self, tc, seed, size):
        p = self.SIZES[size]
        rng = random.Random(seed)
        rf, cf = tc.MoveOrder.ROBBER_FIRST, tc.MoveOrder.COPS_FIRST
        m, n, k = p["grid"]
        m3, n3, k3 = p["grid3"]
        t1 = tc.generators.random_tree(p["tree"], rng.getrandbits(62))
        t2 = tc.generators.random_tree(p["tree"], rng.getrandbits(62))
        product = tc.products.cartesian_product(t1, t2)
        instances = [
            (f"grid:{m}x{n} k={k} robber-first", tc.generators.grid_graph(m, n), k, rf),
            (f"grid:{m3}x{n3} k={k3} robber-first", tc.generators.grid_graph(m3, n3), k3, rf),
            (f"tree{p['tree']}xtree{p['tree']} k=2 cops-first", product.flat, 2, cf),
        ]
        states = []
        for _, g, k, _ in instances:
            states.append([self._random_state(rng, g.vertex_count, k) for _ in range(2 * p["moves"])])
        return {"instances": instances, "states": states, "factors": (t1, t2), "p": p}

    @staticmethod
    def _random_state(rng, n, k):
        while True:
            cops = tuple(sorted(rng.randrange(n) for _ in range(k)))
            robber = rng.randrange(n)
            if robber not in cops:
                return cops, robber

    def fingerprints(self, tc, inputs):
        out = [fingerprint(tc, label, g) for label, g, _, _ in inputs["instances"]]
        out += [fingerprint(tc, f"factor{i}", t) for i, t in enumerate(inputs["factors"], 1)]
        return out

    def expected(self, tc, inputs):
        p = inputs["p"]
        t1, t2 = inputs["factors"]
        m, n, _ = p["grid"]
        return [
            (m + n) // 2 - 1,
            p["pinned3"],
            (diameter(t1.adjacency) + diameter(t2.adjacency)) // 2,
        ]

    def body(self, tc, inputs, wants, run):
        solver, engine = tc.solver, tc.engine
        solve_s = 0.0
        states_total = 0
        rss_per_state = 0.0
        captures = []
        moves = 0
        for index, ((label, g, k, order), want) in enumerate(zip(inputs["instances"], wants)):
            run.begin(label)
            rss_before = peak_rss_kb()
            started = time.perf_counter()
            try:
                result = solver.solve(g, k, order)
            except Exception as exc:
                run.error(f"{label} solve", exc)
                continue
            solve_s += time.perf_counter() - started
            states = len(result.table.value)
            if index == 0:
                rss_per_state = (peak_rss_kb() - rss_before) * 1024 / states
            states_total += states
            captures.append(result.capture_time if isinstance(result.capture_time, int) else -1)
            run.expect(f"{label} capture time", result.capture_time, want)
            moves += self._moves(tc, g, k, result, inputs["states"][index], run, label)
            if k == 3:
                cop, robber = solver.OptimalCop(result), solver.OptimalRobber(result)
                try:
                    trace = engine.simulate(g, engine.GameConfig(k, order), cop, robber)
                    outcome = (trace.outcome.captured, trace.outcome.round)
                except Exception as exc:
                    run.error(f"{label} optimal game", exc)
                else:
                    run.expect(f"{label} optimal game ends", outcome, (True, want))
            del result
        return {
            "observed": {"solver.calls": len(captures), "solver.states": states_total,
                         "capture_times": captures, "strategy_moves": moves},
            "throughput": {"solve_states_per_s": states_total / solve_s if solve_s else 0.0},
            "layers": {"solver.rss_bytes_per_state": rss_per_state},
        }

    @staticmethod
    def _moves(tc, g, k, result, states, run, label) -> int:
        """Half the states go to OptimalCop.respond, half to OptimalRobber.respond."""
        engine = tc.engine
        closed = [g.closed_neighborhood(v) for v in range(g.vertex_count)]
        cop, robber = tc.solver.OptimalCop(result), tc.solver.OptimalRobber(result)
        half = len(states) // 2
        for i, (cops, r) in enumerate(states):
            is_cop = i < half
            state = engine.GameState(cops, r, 1, engine.Side.COPS if is_cop else engine.Side.ROBBER)
            what = f"{label} {'cop' if is_cop else 'robber'} move {i}"
            try:
                if is_cop:
                    mv, _ = cop.respond(g, state, None)
                    legal = len(mv) == k and all(b in closed[a] for a, b in zip(cops, mv))
                else:
                    rp, _ = robber.respond(g, state, None)
                    trapped = all(x in cops for x in closed[r] if x != r)
                    legal = rp in closed[r] and (rp not in cops or trapped)
            except Exception as exc:
                run.error(what, exc)
                continue
            run.expect(what + " is legal", legal, True)
        return len(states)


# --- verify-corpus -----------------------------------------------------------


class VerifyCorpus:
    """`treecops verify` at CLI defaults for the three suites that solve the corpus.

    The corpus is the CLI default (seed 42), whatever the benchmark seed
    is: that is what users run, and corpora of other seeds differ in
    cost by up to a third, which would swamp the run-to-run spread.
    """

    SUITES = ("theorem2", "sandwich", "lemma3")
    CORPUS = {"full": {"seed": 42, "count": 50, "max_size": 7, "args": []},
              "smoke": {"seed": 42, "count": 5, "max_size": 5,
                        "args": ["--count", "5", "--max-size", "5"]}}

    def setup(self, tc, seed, size):
        p = self.CORPUS[size]
        corpus = tc.suites.tree_pair_corpus(p["seed"], p["count"], 2, p["max_size"])
        products = [(desc, tc.products.cartesian_product(t1, t2)) for t1, t2, desc in corpus]
        OUT_DIR.mkdir(exist_ok=True)
        return {"products": products, "p": p}

    def fingerprints(self, tc, inputs):
        return [fingerprint(tc, desc, prod.flat) for desc, prod in inputs["products"]]

    def expected(self, tc, inputs):
        # Exit code 0 with fail=0 and vacuous=0 for every suite.
        return [(0, 0, 0)] * len(self.SUITES)

    def body(self, tc, inputs, wants, run):
        out_dir = tempfile.mkdtemp(prefix="verify-out-", dir=OUT_DIR)
        summaries, claim_lines, reports = [], 0, 0
        try:
            for suite, want in zip(self.SUITES, wants):
                run.begin(f"verify {suite}")
                stdout, stderr = io.StringIO(), io.StringIO()
                try:
                    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                        code = tc.cli.main(["verify", "--suite", suite, "--out", out_dir]
                                           + inputs["p"]["args"])
                except Exception as exc:
                    run.error(f"verify {suite}", exc)
                    continue
                lines = stdout.getvalue().splitlines()
                summary = lines[-1] if lines and lines[-1].startswith("SUMMARY") else ""
                fields = dict(f.split("=", 1) for f in summary.split()[1:])
                got = (code, int(fields.get("fail", -1)), int(fields.get("vacuous", -1)))
                run.expect(f"verify {suite} (exit, fail, vacuous)", got, want)
                summaries.append(summary)
                claim_lines += sum(1 for line in lines if line.startswith("CLAIM "))
                reports += int(fields.get("reports", 0))
        finally:
            shutil.rmtree(out_dir, ignore_errors=True)
        return {
            "observed": {"summaries": summaries, "cli.lines": claim_lines},
            "reports": reports,
            "layers": {"cli.lines": claim_lines},
        }


# --- best-response -----------------------------------------------------------


class BestResponse:
    """Exhaustive best response against the constructive strategies."""

    # The tree shapes are random trees drawn once (generator seed = SHAPES
    # + position); the benchmark seed relabels their vertices.  The work
    # of a best-response search follows the shapes: with shapes drawn
    # from the benchmark seed, the strategy responses of the six pairs
    # varied by 10 % between seeds, with relabelled fixed shapes by 0.5 %.
    SHAPES = 1000
    SIZES = {
        "full": {"pairs": [(20, 60), (28, 52), (36, 44), (44, 36), (52, 28), (60, 20)],
                 "trees": [200, 300, 400, 500]},
        "smoke": {"pairs": [(5, 8), (8, 5)], "trees": [20, 30]},
    }

    def setup(self, tc, seed, size):
        p = self.SIZES[size]
        rng = random.Random(seed)
        sizes = [n for pair in p["pairs"] for n in pair] + p["trees"]
        trees = []
        for i, n in enumerate(sizes):
            shape = tc.generators.random_tree(n, self.SHAPES + i)
            perm = list(range(n))
            rng.shuffle(perm)
            trees.append(tc.graphs.build_graph(n, [(perm[u], perm[v]) for u, v in shape.edges()]))
        pairs = []
        for i, (n1, n2) in enumerate(p["pairs"]):
            product = tc.products.cartesian_product(trees[2 * i], trees[2 * i + 1])
            pairs.append((f"tree{n1}xtree{n2}", product))
        chase = [(f"tree{n}", t) for n, t in zip(p["trees"], trees[2 * len(p["pairs"]):])]
        return {"pairs": pairs, "trees": chase}

    def fingerprints(self, tc, inputs):
        return ([fingerprint(tc, label, prod.flat) for label, prod in inputs["pairs"]]
                + [fingerprint(tc, label, t) for label, t in inputs["trees"]])

    def expected(self, tc, inputs):
        wants = [(diameter(prod.factor1.adjacency) + diameter(prod.factor2.adjacency)) // 2
                 for _, prod in inputs["pairs"]]
        wants += [(diameter(t.adjacency) + 1) // 2 for _, t in inputs["trees"]]
        return wants

    def body(self, tc, inputs, wants, run):
        engine, ts = tc.engine, tc.tree_strategies
        games = ([(label, prod.flat, 2, lambda prod=prod: ts.ProductTwoCop(prod))
                  for label, prod in inputs["pairs"]]
                 + [(label, t, 1, lambda t=t: ts.TreeChaseCop(t)) for label, t in inputs["trees"]])
        values, vertices = [], 0
        stats = {"responses": 0, "invariant_checks": 0, "endgame_entries": 0}
        for (label, g, k, make), want in zip(games, wants):
            run.begin(f"best response {label}")
            try:
                strategy = make()
                value = engine.best_response_length(g, engine.GameConfig(k), strategy)
            except Exception as exc:
                run.error(f"best response {label}", exc)
                continue
            run.expect(f"best response {label}", value, want)
            values.append(value if isinstance(value, int) else -1)
            vertices += g.vertex_count
            for key in stats:
                stats[key] += getattr(strategy, "stats", {}).get(key, 0)
        return {
            "observed": {"values": values, "product_two_cop.responses": stats["responses"]},
            "vertices": vertices,
            "layers": {"tree_strategies.invariant_checks": stats["invariant_checks"],
                       "tree_strategies.endgame_entries": stats["endgame_entries"]},
        }


WORKLOADS = {"solve-large": SolveLarge, "verify-corpus": VerifyCorpus,
             "best-response": BestResponse}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--size", choices=("full", "smoke"), default="full")
    parser.add_argument("--inject-wrong-expected", action="store_true")
    args = parser.parse_args(argv)

    tc = import_package()
    tracer = None
    if args.trace:
        tracer = Tracer()
        install(tracer)
    workload = WORKLOADS[args.workload]()
    inputs = workload.setup(tc, args.seed, args.size)
    ready = time.monotonic()
    ready_mark = GAUGE.mark()
    result = {"ready": ready, "setup_s": GAUGE.scaled((0.0, 0), ready_mark),
              "setup_cpu_s": GAUGE.cpu((0.0, 0), ready_mark), "fingerprints": workload.fingerprints(tc, inputs)}
    if args.setup_only:
        print(json.dumps(result))
        return 0

    wants = workload.expected(tc, inputs)
    run = Run(tracer, args.inject_wrong_expected)
    started, start_mark = time.perf_counter(), GAUGE.mark()
    out = workload.body(tc, inputs, wants, run)
    wall, end_mark = time.perf_counter() - started, GAUGE.mark()
    cpu = GAUGE.cpu(start_mark, end_mark)

    throughput = out.get("throughput", {})
    if "reports" in out:
        throughput["verified_instances_per_s"] = out["reports"] / wall
    if "vertices" in out:
        throughput["br_vertices_per_s"] = out["vertices"] / wall
    result.update({
        "wall_s": wall,
        "cpu_s": cpu,
        "body_s": GAUGE.scaled(start_mark, end_mark),
        "gauge_samples": end_mark[1] - start_mark[1],
        "peak_rss_kb": peak_rss_kb(),
        "attempted": run.attempted,
        "failed": run.failed,
        "failures": run.failures,
        "checks": run.checks_digest(),
        "observed": out["observed"],
        "throughput": throughput,
    })
    if tracer is not None:
        layers = {"solver.rss_bytes_per_state": 0.0, "cli.lines": 0,
                  "tree_strategies.invariant_checks": 0, "tree_strategies.endgame_entries": 0}
        layers.update(layer_metrics(tracer))
        layers.update(out.get("layers", {}))
        spans_path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}-{os.getpid()}.jsonl"
        OUT_DIR.mkdir(exist_ok=True)
        tracer.write(spans_path)
        result.update({
            "layers": layers,
            "self_s_by_layer": tracer.self_s_by_layer(),
            "spans_file": str(spans_path.relative_to(ROOT)),
            "spans": len(tracer.spans),
            "wrapped_counts": {
                "solver.calls": layers["solver.calls"],
                "solver.states": layers["solver.states"],
                "product_two_cop.responses": tracer.leaf_calls("tree_strategies.ProductTwoCop.respond"),
            },
        })
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        code = main()
    finally:
        GAUGE.stop()  # a SIGALRM during interpreter shutdown would kill the process
    sys.exit(code)
