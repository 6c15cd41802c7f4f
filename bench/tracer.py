"""Spans at the package's layer boundaries, for the traced child only.

The wrappers replace module attributes (and methods of the strategy
classes) that the package looks up at call time, so nothing under
``src/`` changes.  Spans are kept in memory as
``[name, start, end, parent, instance, child_s, attrs]`` and written out
when the child ends.  Hot leaf calls (strategy moves, BFS, move checks)
are aggregated per (name, parent span name) instead of kept one by one,
which bounds the memory a traced run adds.
"""
from __future__ import annotations

import json
import time
from collections import defaultdict

NAME, START, END, PARENT, INSTANCE, CHILD_S, ATTRS = range(7)


class Tracer:
    def __init__(self) -> None:
        self.clock = time.perf_counter
        self.origin = self.clock()
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.instance = ""
        # (leaf name, parent span name) -> [calls, seconds]
        self.leaves: dict[tuple[str, str], list] = defaultdict(lambda: [0, 0.0])
        self.samples: dict[str, list[float]] = defaultdict(list)

    def span(self, name, fn, attrs=None):
        """Wrap fn so each call is one span; attrs(args, kwargs, result) -> dict."""
        spans, stack, clock = self.spans, self.stack, self.clock

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            rec = [name, 0.0, 0.0, parent, self.instance, 0.0, None]
            spans.append(rec)
            stack.append(len(spans) - 1)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                rec[START], rec[END] = start, end
                if parent >= 0:
                    spans[parent][CHILD_S] += end - start
            if attrs is not None:
                rec[ATTRS] = attrs(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def leaf(self, name, fn, keep_samples=False):
        """Wrap a frequently called function that calls no other wrapper."""
        spans, stack, clock = self.spans, self.stack, self.clock
        leaves, samples = self.leaves, self.samples[name]

        def traced(*args, **kwargs):
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = clock() - start
                if stack:
                    parent = spans[stack[-1]]
                    parent[CHILD_S] += dur
                    agg = leaves[(name, parent[NAME])]
                else:
                    agg = leaves[(name, "")]
                agg[0] += 1
                agg[1] += dur
                if keep_samples:
                    samples.append(dur)

        traced.__wrapped__ = fn
        return traced

    # -- queries -----------------------------------------------------------

    def named(self, name):
        return [s for s in self.spans if s[NAME] == name]

    def total_s(self, name) -> float:
        return sum(s[END] - s[START] for s in self.named(name))

    def leaf_calls(self, name, parent_layer=None) -> int:
        return sum(v[0] for (n, p), v in self.leaves.items()
                   if n == name and (parent_layer is None or layer_of(p) == parent_layer))

    def leaf_s(self, name, parent=None) -> float:
        return sum(v[1] for (n, p), v in self.leaves.items()
                   if n == name and (parent is None or p == parent))

    def direct_children_s(self, index, prefixes) -> float:
        return sum(s[END] - s[START] for s in self.spans
                   if s[PARENT] == index and s[NAME].startswith(prefixes))

    def self_s_by_layer(self) -> dict[str, float]:
        """Exclusive time per layer: span time minus traced child time."""
        out: dict[str, float] = defaultdict(float)
        for s in self.spans:
            out[layer_of(s[NAME])] += s[END] - s[START] - s[CHILD_S]
        for (name, _), (_, secs) in self.leaves.items():
            out[layer_of(name)] += secs
        return dict(sorted(out.items()))

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": s[NAME],
                    "start": s[START] - self.origin, "end": s[END] - self.origin,
                    "parent": s[PARENT], "instance": s[INSTANCE],
                    "self_s": s[END] - s[START] - s[CHILD_S],
                }) + "\n")
            for (name, parent), (calls, secs) in sorted(self.leaves.items()):
                fh.write(json.dumps({"leaf": name, "parent": parent,
                                     "calls": calls, "seconds": secs}) + "\n")


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def _replace_everywhere(modules, original, wrapper) -> None:
    """Rebind every module attribute that is `original` to `wrapper`."""
    for mod in modules:
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, wrapper)


def install(tracer: Tracer):
    """Wrap the layer boundaries of the imported treecops package."""
    import treecops
    from treecops import (bounds, cli, engine, generators, graphs, products,
                          solver, strategies, suites, tree_strategies, trees)

    modules = [treecops, bounds, cli, engine, generators, graphs, products,
               solver, strategies, suites, tree_strategies, trees]

    def rebind(name, original, wrap=tracer.span, **kw):
        _replace_everywhere(modules, original, wrap(name, original, **kw))

    def solve_attrs(args, kwargs, result):
        g, k = args[0], args[1]
        order = args[2] if len(args) > 2 else kwargs.get("order", engine.MoveOrder.ROBBER_FIRST)
        return {"states": len(result.table.value), "key": (g.adjacency, k, order.value)}

    estimate_pairs = solver._estimate_pairs

    def config_attrs(args, kwargs, result):
        g, k = args[0], args[1]
        pairs = sum(len(m) for m in result[3])
        return {"tuples": len(result[0]), "pairs": pairs,
                "n_pairs": g.vertex_count * pairs, "estimate": estimate_pairs(g, k)}

    rebind("solver.solve", solver.solve, attrs=solve_attrs)
    rebind("solver.config_space", solver._cop_configuration_space, attrs=config_attrs)
    for name in ("check_theorem2", "check_corollaries", "check_lemma3"):
        rebind(f"bounds.{name}", getattr(bounds, name))
    rebind("bounds.qualifying_c4_vertices", bounds.qualifying_c4_vertices)
    rebind("graphs.bfs_distances", graphs.bfs_distances, wrap=tracer.leaf)
    rebind("trees.diametral_path", trees.diametral_path)
    rebind("products.cartesian_product", products.cartesian_product)
    rebind("generators.random_tree", generators.random_tree)
    rebind("engine.best_response_length", engine.best_response_length)
    rebind("engine.simulate", engine.simulate)
    rebind("engine.check_cop_moves", engine._check_cop_moves, wrap=tracer.leaf)
    rebind("cli.main", cli.main)
    for name, fn in list(suites.SUITES.items()):
        suites.SUITES[name] = tracer.span(f"suites.{name}", fn)  # dict shared with cli
    for cls in (solver.OptimalCop, solver.OptimalRobber):
        cls.respond = tracer.leaf(f"solver.{cls.__name__}.respond", cls.respond,
                                  keep_samples=True)
    for cls in (tree_strategies.ProductTwoCop, tree_strategies.TreeChaseCop):
        cls.respond = tracer.leaf(f"tree_strategies.{cls.__name__}.respond", cls.respond)
        cls.__init__ = tracer.span(f"tree_strategies.{cls.__name__}.init", cls.__init__)


def _pct(values, q) -> float:
    """Nearest-rank percentile; 0 for no samples."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """The per-layer metrics of BENCHMARK.json that the spans give."""
    t = tracer
    solves = t.named("solver.solve")
    done = [s for s in solves if s[ATTRS] is not None]  # calls that returned
    configs = [s for s in t.named("solver.config_space") if s[ATTRS] is not None]
    solve_s = t.total_s("solver.solve")
    config_s = t.total_s("solver.config_space")
    n_pairs = sum(s[ATTRS]["n_pairs"] for s in configs)
    m: dict[str, float] = {
        "solver.solve_s": solve_s,
        "solver.calls": len(solves),
        "solver.states": sum(s[ATTRS]["states"] for s in done),
        "solver.tuples": sum(s[ATTRS]["tuples"] for s in configs),
        "solver.config_space_s": config_s,
        "solver.core_s": solve_s - config_s,
        "solver.cop_move_pairs": sum(s[ATTRS]["pairs"] for s in configs),
        "solver.distinct_ratio": (len({s[ATTRS]["key"] for s in done}) / len(done)
                                  if done else 0.0),
        "solver.estimate_over_actual": (sum(s[ATTRS]["estimate"] for s in configs) / n_pairs
                                        if n_pairs else 0.0),
    }
    for side in ("cop", "robber"):
        samples = t.samples[f"solver.Optimal{side.capitalize()}.respond"]
        m[f"solver.{side}_move_us_p50"] = _pct(samples, 50) * 1e6
        m[f"solver.{side}_move_us_p99"] = _pct(samples, 99) * 1e6

    m["bounds.theorem2_s"] = t.total_s("bounds.check_theorem2")
    m["bounds.lemma3_s"] = t.total_s("bounds.check_lemma3")
    m["bounds.corollaries_self_s"] = sum(
        s[END] - s[START] - s[CHILD_S] for s in t.named("bounds.check_corollaries"))
    m["bounds.c4_s"] = t.total_s("bounds.qualifying_c4_vertices")
    m["bounds.c4_calls"] = len(t.named("bounds.qualifying_c4_vertices"))
    m["bounds.bfs_calls"] = t.leaf_calls("graphs.bfs_distances", parent_layer="bounds")

    suite_self = cli_self = 0.0
    for i, s in enumerate(t.spans):
        if s[NAME].startswith("suites."):
            suite_self += s[END] - s[START] - t.direct_children_s(i, ("solver.solve", "bounds.check_"))
        elif s[NAME] == "cli.main":
            cli_self += s[END] - s[START] - t.direct_children_s(i, ("suites.",))
    m["suites.self_s"] = suite_self
    m["cli.self_s"] = cli_self

    br = "engine.best_response_length"
    respond_names = ("tree_strategies.ProductTwoCop.respond", "tree_strategies.TreeChaseCop.respond")
    br_s = t.total_s(br)
    m["engine.best_response_s"] = br_s
    m["engine.self_s"] = br_s - sum(t.leaf_s(n, parent=br)
                                    for n in respond_names + ("engine.check_cop_moves",))
    m["engine.check_moves_calls"] = t.leaf_calls("engine.check_cop_moves")
    m["tree_strategies.respond_s"] = sum(t.leaf_s(n) for n in respond_names)
    m["tree_strategies.respond_calls"] = sum(t.leaf_calls(n) for n in respond_names)
    m["tree_strategies.init_s"] = (t.total_s("tree_strategies.ProductTwoCop.init")
                                   + t.total_s("tree_strategies.TreeChaseCop.init"))
    m["products.build_s"] = t.total_s("products.cartesian_product")
    m["generators.random_tree_s"] = t.total_s("generators.random_tree")
    return m
