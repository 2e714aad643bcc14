"""Spans around the package's public functions, recorded from outside.

Each wrapper replaces a function where the flow looks it up: a module
attribute (``grouping.build_conflict_graph``), a name ``cli`` or
``costmodel`` imported with ``from ... import``, a ``cli.STAGES`` entry
or a ``costmodel._GROUPERS`` entry. A span records name, start, end,
parent span and instance id; spans stay in memory until the pass ends.
Count-only wrappers (switch lookups, memory bits) record no span.
"""

from __future__ import annotations

import resource
import time
from collections import Counter


def _maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1, instance]
        self.counts: Counter = Counter()
        self.instance = ""
        self._stack: list[int] = []

    def wrap(self, name, fn, after=None, before=None):
        """Span around fn; after(self, state, args, kwargs, result) adds counts,
        with state = before(self, args, kwargs) taken at entry."""
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            state = before(self, args, kwargs) if before else None
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.instance]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                stack.pop()
            if after:
                after(self, state, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def count_calls(self, name, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    def add_result(self, name, fn):
        """Count-only wrapper that sums fn's integer result under name."""
        counts = self.counts

        def summed(*args, **kwargs):
            result = fn(*args, **kwargs)
            counts[name] += result
            return result

        summed.__wrapped__ = fn
        return summed


# ---------------------------------------------------------------------------
# observers: counts taken at the same boundaries as the spans


def _parse(t, _s, _a, _k, _r):
    t.counts["appgraph.parse_calls"] += 1


def _anneal(t, _s, args, kwargs, _r):
    iters = kwargs.get("iters")
    # place_anneal's documented default
    t.counts["placement.anneal_iters"] += 200 * args[0].n_clusters if iters is None else iters


def _paths(t, _s, _a, _k, result):
    t.counts["routing.paths"] += len(result)


def _rss_before(_t, _a, _k):
    return _maxrss_mb()


def _conflict(t, rss0, _a, _k, g):
    t.counts["grouping.conflict_calls"] += 1
    t.counts["grouping.conflict_edges"] += g.m
    t.counts["grouping.conflict_pairs"] += g.n * (g.n - 1) // 2
    t.counts["grouping.conflict_rss_rise_mb"] += _maxrss_mb() - rss0


def _grouped(algo):
    def after(t, _s, _a, _k, sset):
        t.counts[f"grouping.scenarios_{algo}"] += sset.n_scenarios
        if sset.stats is not None:
            t.counts["grouping.clique_calls"] += sset.stats.clique_calls
            t.counts["grouping.clique_fallbacks"] += sset.stats.clique_fallbacks
    return after


def _lower_bound(t, _s, _a, _k, bound):
    t.counts["grouping.lower_bound"] += bound


def _sim(t, _s, args, _k, report):
    t.counts["sim.steps"] += report.steps
    t.counts["sim.collisions"] += report.collisions
    t.counts["sim.delivered"] += sum(report.delivered.values())
    t.counts["sim.deliveries_due"] += len(args[2]) * report.n_frames


def _sweep_instance(t, args, _k):
    n, density, seed = args[:3]
    t.instance = f"n{n}-d{density:g}-s{seed}"


def _lookup(owner, key):
    return owner.get(key) if isinstance(owner, dict) else getattr(owner, key, None)


def _replace(owner, key, value) -> None:
    if isinstance(owner, dict):
        owner[key] = value
    else:
        setattr(owner, key, value)


def install(tracer: Tracer) -> list[str]:
    """Patch the imported package in place; the traced process never unpatches.

    Returns the hooks whose function was not found, so that a package
    refactor leaves their metrics at 0 instead of breaking the run.
    """
    from ladderbus import cli, controlgen, costmodel, grouping, sim, topology

    groupers = getattr(costmodel, "_GROUPERS", {})  # the sweep's registry holds its own references
    stages = getattr(cli, "STAGES", {})
    spans = [  # (where the flow looks the function up, key, span name, after, before)
        (cli, "parse_cluster_graph", "appgraph.parse", _parse, None),
        (cli, "graph_metrics", "appgraph.metrics", None, None),
        (cli, "place_greedy", "placement.greedy", None, None),
        (cli, "place_anneal", "placement.anneal", _anneal, None),
        (cli, "placement_cost", "placement.cost", None, None),
        (cli, "extract_paths", "routing.extract", _paths, None),
        (costmodel, "generate_synthetic", "appgraph.generate", None, None),
        (costmodel, "place_greedy", "placement.greedy", None, None),
        (costmodel, "extract_paths", "routing.extract", _paths, None),
        (grouping, "build_conflict_graph", "grouping.conflict", _conflict, _rss_before),
        (grouping, "scenario_switch_vector", "grouping.switch_vector", None, None),
        (grouping, "validate_scenario_set", "grouping.validate", None, None),
        (grouping, "scenario_lower_bound", "grouping.lower_bound", _lower_bound, None),
        (grouping, "raw_scenario_bits", "grouping.bits", None, None),
        (grouping, "compressed_scenario_bits", "grouping.bits", None, None),
        (grouping, "group_greedy", "grouping.greedy", _grouped("greedy"), None),
        (grouping, "group_max_clique", "grouping.maxclique", _grouped("maxclique"), None),
        (groupers, "greedy", "grouping.greedy", _grouped("greedy"), None),
        (groupers, "maxclique", "grouping.maxclique", _grouped("maxclique"), None),
        (controlgen, "encode_scenarios", "controlgen.encode", None, None),
        (controlgen, "format_program", "controlgen.format", None, None),
        (controlgen, "parse_program", "controlgen.parse", None, None),
        (sim, "decode_programs", "controlgen.decode", None, None),
        (sim, "run_frames", "sim.run", _sim, None),
        (costmodel, "calibrate", "costmodel.calibrate", None, None),
        (costmodel, "cost_report", "costmodel.report", None, None),
        (costmodel, "sweep_instance", "costmodel.sweep_instance", None, _sweep_instance),
    ]
    spans += [(stages, stage, f"cli.stage.{stage}", None, None) for stage in list(stages)]
    topo = topology.LadderTopology
    counters = [
        (topo, "switch_index", "topology.switch_lookups", tracer.count_calls),
        (topo, "switch_id", "topology.switch_lookups", tracer.count_calls),
        (controlgen, "control_memory_bits", "controlgen.memory_bits", tracer.add_result),
    ]
    missing = []
    for owner, key, name, after, before in spans:
        fn = _lookup(owner, key)
        if fn is None:
            missing.append(f"{name} ({key})")
        else:
            _replace(owner, key, tracer.wrap(name, fn, after, before))
    for owner, key, name, make in counters:
        fn = _lookup(owner, key)
        if fn is None:
            missing.append(f"{name} ({key})")
        else:
            _replace(owner, key, make(name, fn))
    return missing


def span_totals(spans: list[list]) -> tuple[Counter, Counter, float]:
    """Per-name inclusive time, per-name self time, and top-level time.

    Self time is a span's duration minus its direct children's; spans
    nest strictly because the flow is single-threaded.
    """
    total: Counter = Counter()
    child: Counter = Counter()
    top = 0.0
    for name, start, end, parent, _inst in spans:
        total[name] += end - start
        if parent >= 0:
            child[parent] += end - start
        else:
            top += end - start
    selft: Counter = Counter()
    for i, (name, start, end, _p, _inst) in enumerate(spans):
        selft[name] += (end - start) - child[i]
    return total, selft, top
