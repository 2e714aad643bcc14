"""Pipeline driver: gen -> place -> group -> emit-ctrl -> sim -> cost.

Every stage persists its output in the run directory, so any stage can be
re-run from its predecessors' persisted state, and a finished directory is
a complete, reproducible record. A command reads each state file at most
once, and none it wrote itself: a stage keeps the value it writes in
RunState for the later stages (`run` parses only the program files, which
the simulator runs). The routed paths follow from graph.json, topology.json
and placement.json, so a command routes them once itself; group also writes
them to paths.json, which no stage reads. All randomness derives from the
single root seed in the config. Exit codes: 0 success, 2 config error,
3 stage failure, 4 invariant violation (e.g. simulated collision).

Usage:
    ladderbus run --config cfg.json --rundir out/
    ladderbus group --rundir out/            # re-run one stage on out/config.json
    ladderbus report --rundir out/ --format json
    ladderbus sweep --sizes 20,40 --densities 0.15 --seeds 0,1,2 --rundir out/ [--jobs N]

A sweep runs its instances on --jobs worker processes, by default one per
usable CPU and never more than there are instances; --jobs 1 runs them in
this process. Its rows are the same bytes for any worker count.

Config (JSON; any subset of DEFAULT_CONFIG; an unknown key or a value of
another JSON type than its default is a config error, and "graph" holds
one of "file" or "synthetic", as GRAPH_KEYS lays out; the generator draws
its n_edges from the root seed, and placement anneals on the schedule
fixed in ladderbus.placement):
    {"seed": 1,
     "graph": {"synthetic": {"n_clusters": 24, "n_edges": 128}},
     "topology": {"n_lanes": null, "lane_width_bits": 32},
     "grouping": {"algorithm": "iterated", "compare": true},
     "controllers": {"count": null},
     "sim": {"frames": 1}}
"""

from __future__ import annotations

import argparse
import copy
import json
import sys
from contextlib import nullcontext
from functools import cache, cached_property
from pathlib import Path

from . import controlgen, costmodel, grouping, sim
from .appgraph import (
    GraphFormatError,
    dump_cluster_graph,
    generate_synthetic,
    graph_metrics,
    parse_cluster_graph,
)
from .placement import TilePlacement, place_anneal, place_greedy, placement_cost
from .routing import extract_paths, path_record
from .topology import build_topology

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_STAGE = 3
EXIT_INVARIANT = 4

STAGE_ORDER = ["gen", "place", "group", "emit-ctrl", "sim", "cost"]

DEFAULT_CONFIG = {
    "name": "",
    "seed": 0,
    "graph": {},
    "topology": {"n_tiles": None, "n_lanes": None, "lane_width_bits": 32},
    "grouping": {"algorithm": "iterated", "compare": True},
    "controllers": {"count": None},
    "sim": {"frames": 1, "trace": False},
}


# the graph subtree's keys and their JSON types: a graph file, or the generator's
# cluster and edge counts (its seed is the root seed)
GRAPH_KEYS = {"file": "", "synthetic": {"n_clusters": 0, "n_edges": 0}}

# keys that take only integers, each with its least value; null keeps a key's default
_INTEGER_MIN = {"topology.n_tiles": 2, "topology.n_lanes": 1, "topology.lane_width_bits": 1,
                "controllers.count": 1, "sim.frames": 0, "graph.synthetic.n_clusters": 2,
                "graph.synthetic.n_edges": 0}


class ConfigError(Exception):
    pass


class InvariantViolation(Exception):
    pass


# ---------------------------------------------------------------------------
# config and state helpers


def _merge_into(base: dict, extra: dict) -> None:
    """Merge extra into base in place, object by object; extra's other values
    replace base's (no copy: it recurses only as deep as base's objects)."""
    for key, val in extra.items():
        if isinstance(val, dict) and isinstance(base.get(key), dict):
            _merge_into(base[key], val)
        else:
            base[key] = val


def _type_matches(value, default) -> bool:
    """JSON type check: booleans are never numbers, and a null default takes
    null or a number."""
    if value is None:
        return default is None
    if isinstance(value, bool) or isinstance(default, bool):
        return type(value) is type(default)
    if default is None:
        return isinstance(value, (int, float))
    return isinstance(value, type(default))


def _check_config(cfg: dict, defaults: dict = DEFAULT_CONFIG, prefix: str = "") -> None:
    """Reject keys DEFAULT_CONFIG (GRAPH_KEYS in the graph subtree) does not
    have, values whose JSON type differs from their default's, and a key of
    _INTEGER_MIN holding a fraction or less than its least value."""
    for key, val in cfg.items():
        dotted = prefix + key
        if key not in defaults:
            while isinstance(val, dict) and val:  # name the first key set under an unknown subtree
                key, val = next(iter(val.items()))
                dotted += "." + key
            raise ConfigError(f"unknown config key '{dotted}'")
        if not _type_matches(val, defaults[key]):
            raise ConfigError(f"config key '{dotted}' has value {json.dumps(val)}, "
                              f"not of the JSON type of {json.dumps(defaults[key])}")
        if dotted in _INTEGER_MIN and val is not None:
            if not isinstance(val, int):
                raise ConfigError(f"config key '{dotted}' has value {json.dumps(val)}, not an integer")
            if val < _INTEGER_MIN[dotted]:
                raise ConfigError(f"config key '{dotted}' has value {val}, "
                                  f"below its least value {_INTEGER_MIN[dotted]}")
        if isinstance(val, dict):
            _check_config(val, GRAPH_KEYS if dotted == "graph" else defaults[key], dotted + ".")


def _check_graph(graph: dict) -> None:
    """Reject both sources, a synthetic graph without n_clusters or n_edges, and
    more edges than its clusters have ordered pairs; gen rejects no source."""
    if len(graph) > 1:
        raise ConfigError("config key 'graph' holds both 'file' and 'synthetic'")
    syn = graph.get("synthetic")
    if syn is None:
        return
    for key in ("n_clusters", "n_edges"):
        if key not in syn:
            raise ConfigError(f"config key 'graph.synthetic' lacks '{key}'")
    n = syn["n_clusters"]
    if syn["n_edges"] > n * (n - 1):
        raise ConfigError(f"config key 'graph.synthetic.n_edges' has value {syn['n_edges']}, "
                          f"above the {n * (n - 1)} ordered pairs of {n} clusters")


def load_config(path: str | None, overrides: list[str] | None = None) -> dict:
    cfg = copy.deepcopy(DEFAULT_CONFIG)
    if path is not None:
        try:
            loaded = json.loads(Path(path).read_text())
        except (OSError, ValueError, RecursionError) as exc:  # RecursionError: nested too deeply
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        if not isinstance(loaded, dict):
            raise ConfigError("config must be a JSON object")
        _merge_into(cfg, loaded)
    for item in overrides or []:
        if "=" not in item:
            raise ConfigError(f"override '{item}' is not key=value")
        key, _, raw = item.partition("=")
        try:
            value = json.loads(raw)
        except (ValueError, RecursionError):  # not JSON (or nested too deeply): the raw string
            value = raw
        node = cfg
        parts = key.split(".")
        for part in parts[:-1]:
            node = node.setdefault(part, {})
            if not isinstance(node, dict):
                raise ConfigError(f"override '{key}' crosses a non-object value")
        node[parts[-1]] = value
    _check_config(cfg)
    _check_graph(cfg["graph"])
    return cfg


def _save_json(path: Path, obj) -> None:
    path.write_text(json.dumps(obj, separators=(",", ":"), sort_keys=True) + "\n")


def _read_state_text(rundir: Path, name: str, stage: str) -> str:
    path = rundir / name
    if not path.exists():
        raise ConfigError(f"missing state file {name}; run the '{stage}' stage first")
    return path.read_text()


_JSON_KINDS = {dict: "a JSON object", list: "a JSON array", int: "an integer", str: "a string",
               (int, float): "a number"}


def _read_state(rundir: Path, name: str, stage: str | None = None, kind: type = dict):
    """Parsed state file `name` (a JSON object, or array for kind=list). A file
    the run has not written is None for the report (no stage) and a config
    error naming the stage to run first for a stage."""
    if stage is None and not (rundir / name).exists():
        return None
    try:
        rec = json.loads(_read_state_text(rundir, name, stage))
    except (ValueError, RecursionError) as exc:  # RecursionError: nested too deeply
        raise ConfigError(f"state file {name} is not valid JSON: {exc}") from exc
    if not isinstance(rec, kind):
        raise ConfigError(f"state file {name} is not {_JSON_KINDS[kind]}")
    return rec


def _fields(rec, name: str, keys: tuple[str, ...], kind: type | tuple[type, ...] = object) -> dict:
    """rec's values under keys, in order. rec not being an object, a missing key
    or a value that is not a `kind` (booleans are no numbers) is a config
    error naming the file."""
    if not isinstance(rec, dict):
        raise ConfigError(f"state file {name} is not a JSON object")
    for key in keys:
        if key not in rec:
            raise ConfigError(f"state file {name} lacks key '{key}'")
        if not isinstance(rec[key], kind) or (kind is not object and isinstance(rec[key], bool)):
            raise ConfigError(f"state file {name}: '{key}' is {json.dumps(rec[key])}, not {_JSON_KINDS[kind]}")
    return {key: rec[key] for key in keys}


# ---------------------------------------------------------------------------
# stages


class RunState:
    """The run directory and one cached, checked reader per state file.

    A stage that writes graph.json, topology.json, placement.json,
    scenarios.json or controllers.json also assigns the value it wrote to
    the attribute that file's reader fills, so a command reads back only
    the files it did not write. The program files are always parsed: the
    simulator runs what emit-ctrl wrote. No stage writes a file an earlier
    stage of the command has read, so no value goes stale."""

    def __init__(self, rundir: Path):
        self.rundir = rundir

    @cached_property
    def graph(self):
        return parse_cluster_graph(_read_state_text(self.rundir, "graph.json", "gen"))

    @cached_property
    def topology(self):
        rec = _read_state(self.rundir, "topology.json", "place")
        return build_topology(**_fields(rec, "topology.json", ("n_tiles", "n_lanes", "lane_width_bits"), int))

    @cached_property
    def placement(self):
        """The placement, checked to put each cluster of graph.json on its own tile."""
        rec = _read_state(self.rundir, "placement.json", "place")
        assignment = _fields(rec, "placement.json", ("assignment",), list)["assignment"]
        if not all(type(t) is int for t in assignment):
            raise ConfigError("state file placement.json: 'assignment' holds a value that is not an integer")
        placement = TilePlacement(assignment=tuple(assignment))
        try:
            placement.validate(self.graph, self.topology)
        except ValueError as exc:
            raise ConfigError(f"state file placement.json: {exc}") from exc
        return placement

    @cached_property
    def paths(self):
        """The routed paths, one per edge of graph.json in edge-id order: all of
        them follow from graph.json, topology.json and placement.json."""
        return extract_paths(self.graph, self.topology, self.placement)

    @cached_property
    def partition(self):
        """The partition scenarios.json stores, its path ids checked against the routed paths."""
        rec = _read_state(self.rundir, "scenarios.json", "group")
        _fields(rec, "scenarios.json", ("scenarios",), list)
        try:
            return grouping.partition_from_record(rec, len(self.paths))
        except ValueError as exc:
            raise ConfigError(f"state file scenarios.json: {exc}") from exc

    @cached_property
    def controllers(self) -> dict:
        """The emitted controller count and their memory bits, from controllers.json."""
        rec = _read_state(self.rundir, "controllers.json", "emit-ctrl")
        return _fields(rec, "controllers.json", ("count", "memory_bits"), int)

    @cached_property
    def programs(self):
        """The parsed program files; a malformed one is a stage error naming it."""
        programs = []
        for i in range(self.controllers["count"]):
            name = f"programs/ctrl_{i:03d}.txt"
            try:
                programs.append(controlgen.parse_program(_read_state_text(self.rundir, name, "emit-ctrl")))
            except ValueError as exc:
                raise ValueError(f"{name}: {exc}") from exc
        return programs


def stage_gen(cfg: dict, state: RunState) -> None:
    """Write graph.json and, from the same graph, metrics.json."""
    spec = cfg["graph"]
    if "file" in spec:
        try:
            text = Path(spec["file"]).read_text()
        except OSError as exc:
            raise ConfigError(f"cannot read graph file: {exc}") from exc
        g = parse_cluster_graph(text)
    elif "synthetic" in spec:
        syn = spec["synthetic"]  # checked by load_config
        g = generate_synthetic(syn["n_clusters"], syn["n_edges"], cfg["seed"], name=cfg["name"])
    else:
        raise ConfigError("config needs graph.file or graph.synthetic")
    (state.rundir / "graph.json").write_text(dump_cluster_graph(g))
    state.graph = g
    m = graph_metrics(g)
    _save_json(state.rundir / "metrics.json", {
        "name": g.name,
        "n_clusters": g.n_clusters,
        "n_edges": g.n_edges,
        "avg_degree": m.avg_degree,
        "density": m.density,
        "max_total_degree": m.max_total_degree,
    })


def _controller_count(cfg: dict, topo) -> int:
    count = cfg["controllers"]["count"]
    if count is not None and count > topo.n_columns:
        raise ConfigError(f"config key 'controllers.count' has value {count}, "
                          f"above the ladder's {topo.n_columns} columns")
    return controlgen.default_controller_count(topo) if count is None else count


def stage_place(cfg: dict, state: RunState) -> None:
    g = state.graph
    tcfg = cfg["topology"]
    n_tiles = max(g.n_clusters, 2) if tcfg["n_tiles"] is None else tcfg["n_tiles"]
    if n_tiles < g.n_clusters:
        raise ConfigError(f"config key 'topology.n_tiles' has value {n_tiles}, "
                          f"below the graph's {g.n_clusters} clusters")
    topo = build_topology(n_tiles, tcfg["n_lanes"], tcfg["lane_width_bits"])
    _controller_count(cfg, topo)  # a count the ladder cannot hold stops the run before grouping
    _save_json(state.rundir / "topology.json", topo.summary())
    state.topology = topo

    greedy = place_greedy(g, topo)
    final = place_anneal(g, topo, seed=cfg["seed"] + 1, initial=greedy)
    _save_json(state.rundir / "placement.json", {
        "assignment": list(final.assignment),
        "greedy_cost": placement_cost(g, topo, greedy),
        "final_cost": placement_cost(g, topo, final),
    })
    state.placement = final


def _check_algorithms(names: list[str]) -> None:
    try:
        for name in names:
            grouping.check_algorithm(name)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def stage_group(cfg: dict, state: RunState) -> None:
    """Write paths.json, the routed paths no stage reads back, and scenarios.json."""
    topo, paths = state.topology, state.paths
    gcfg = cfg["grouping"]
    algo = gcfg["algorithm"]
    _check_algorithms([algo])
    _save_json(state.rundir / "paths.json", {"paths": [path_record(p) for p in paths]})
    bound = grouping.scenario_lower_bound(paths)
    names = [algo, "greedy" if algo == "iterated" else "iterated"] if gcfg["compare"] else [algo]
    partitions = grouping.group_paths(names, paths, bound)
    partition = partitions[algo]
    try:
        grouping.validate_scenario_set(partition.scenarios, paths)
    except ValueError as exc:
        raise InvariantViolation(f"grouping produced an invalid scenario set: {exc}") from exc
    counts = {name: part.n_scenarios for name, part in partitions.items()}
    matrix = grouping.scenario_switch_matrix(partition.scenarios, paths, topo)
    doc = grouping.scenario_set_record(partition, matrix)
    doc["counts"] = counts
    doc["lower_bound"] = bound
    doc["gap"] = partition.n_scenarios - bound
    doc["raw_bits"] = grouping.raw_scenario_bits(partition.n_scenarios, topo)
    doc["compressed_bits"] = grouping.compressed_scenario_bits(doc, topo)
    _save_json(state.rundir / "scenarios.json", doc)
    state.partition = partition


def stage_emit_ctrl(cfg: dict, state: RunState) -> None:
    """Write the program files and controllers.json from the stored
    memberships, rebuilding their switch matrix."""
    topo, paths, partition = state.topology, state.paths, state.partition
    matrix = grouping.scenario_switch_matrix(partition.scenarios, paths, topo)
    regions = controlgen.partition_regions(topo, _controller_count(cfg, topo))
    programs = controlgen.encode_scenarios(matrix, regions, topo)
    progdir = state.rundir / "programs"
    progdir.mkdir(exist_ok=True)
    written = set()
    for prog in programs:
        path = progdir / f"ctrl_{prog.region.controller_id:03d}.txt"
        path.write_text(controlgen.format_program(prog))
        written.add(path)
    for stale in set(progdir.glob("ctrl_*.txt")) - written:  # an earlier run's extra controllers
        stale.unlink()
    controllers = {"count": len(programs), "memory_bits": controlgen.control_memory_bits(programs)}
    _save_json(state.rundir / "controllers.json", {
        **controllers,
        "regions": [
            {"id": r.controller_id, "col_start": r.col_start, "col_end": r.col_end,
             "word_bits": r.word_bits}
            for r in (p.region for p in programs)
        ],
    })
    state.controllers = controllers


def stage_sim(cfg: dict, state: RunState) -> None:
    topo, paths = state.topology, state.paths
    scenarios, programs = state.partition.scenarios, state.programs
    n_frames = cfg["sim"]["frames"]
    with open(state.rundir / "trace.log", "w") if cfg["sim"]["trace"] else nullcontext() as trace:
        report = sim.run_frames(topo, programs, paths, scenarios, n_frames, trace=trace)
    _save_json(state.rundir / "sim_report.json", {
        "steps": report.steps,
        "n_frames": report.n_frames,
        "frame_length": report.frame_length,
        "delivered": {str(k): v for k, v in sorted(report.delivered.items())},
        "collisions": report.collisions,
        "collision_events": report.collision_events,
        "per_step_active": report.per_step_active,
        "energy": report.energy,
    })
    if report.collisions > 0:
        raise InvariantViolation(f"simulation detected {report.collisions} collision(s)")
    for edge, count in sorted(report.delivered.items()):
        if count != n_frames:
            raise InvariantViolation(f"connection {edge} delivered {count} time(s) in {n_frames} frame(s)")


def stage_cost(cfg: dict, state: RunState) -> None:
    """Price the controllers emit-ctrl wrote, not the config's count."""
    topo, ctrl = state.topology, state.controllers
    model = costmodel.reference_model()
    rep = costmodel.cost_report(topo, ctrl["memory_bits"], ctrl["count"], model)
    _save_json(state.rundir / "cost_report.json", {
        "data_plane_units": rep.data_plane_units,
        "control_plane_units": rep.control_plane_units,
        "control_fraction": rep.control_fraction,
        "coefficients": {"a": model.a, "b": model.b, "c": model.c, "d": model.d},
        "n_controllers": ctrl["count"],
    })


STAGES = {
    "gen": stage_gen,
    "place": stage_place,
    "group": stage_group,
    "emit-ctrl": stage_emit_ctrl,
    "sim": stage_sim,
    "cost": stage_cost,
}


# ---------------------------------------------------------------------------
# report


def build_report(rundir: Path) -> dict:
    out: dict = {}
    for section in ("metrics", "topology"):
        rec = _read_state(rundir, f"{section}.json")
        if rec is not None:
            out[section] = rec
    rec = _read_state(rundir, "placement.json")
    if rec is not None:
        out["placement"] = _fields(rec, "placement.json", ("greedy_cost", "final_cost"))
    rec = _read_state(rundir, "scenarios.json")
    if rec is not None:
        section = _fields(rec, "scenarios.json", ("lower_bound", "gap", "raw_bits", "compressed_bits", "algorithm"))
        counts = _fields(rec, "scenarios.json", ("counts",), dict)["counts"]
        stats = _fields({"stats": {}, **rec}, "scenarios.json", ("stats",), dict)["stats"]  # optional
        for algo, count in counts.items():
            section[f"scenarios_{algo}"] = count
        section.update(stats)
        out["grouping"] = section
    rec = _read_state(rundir, "sim_report.json")
    if rec is not None:
        out["sim"] = _fields(rec, "sim_report.json", ("steps", "frame_length", "collisions", "energy"))
    rec = _read_state(rundir, "cost_report.json")
    if rec is not None:
        out["cost"] = _fields(rec, "cost_report.json",
                              ("data_plane_units", "control_plane_units", "control_fraction"))
    rec = _read_state(rundir, "sweep.json", kind=list)
    if rec is not None:
        for i, row in enumerate(rec):
            for key, kind in costmodel.SWEEP_COLUMNS.items():
                _fields(row, f"sweep.json (row {i})", (key,), (int, float) if kind is float else kind)
        out["sweep_rows"] = rec
    return out


def render_report_text(report: dict) -> str:
    lines = []
    for section, content in report.items():
        if section == "sweep_rows":
            lines.append(f"[sweep] {len(content)} rows (use --format csv)")
            continue
        lines.append(f"[{section}]")
        for key, val in content.items():
            if isinstance(val, float):
                val = f"{val:.6g}"
            lines.append(f"  {key} = {val}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# entry point


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="JSON config file")
    p.add_argument("--rundir", required=True, help="run directory for state files")
    p.add_argument("--set", dest="overrides", action="append", default=[],
                   metavar="KEY=VALUE", help="config override, dotted path (repeatable)")


@cache
def _parser() -> argparse.ArgumentParser:
    """The command line's parser, built once per process: parse_args keeps no
    state between calls."""
    parser = argparse.ArgumentParser(prog="ladderbus",
                                     description="Segmented ladder bus mapping/scheduling flow")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in STAGE_ORDER + ["run"]:
        p = sub.add_parser(name, help=f"run the {name} stage" if name != "run" else "run all stages")
        _add_common(p)

    p_rep = sub.add_parser("report", help="summarize a run directory")
    p_rep.add_argument("--rundir", required=True)
    p_rep.add_argument("--format", choices=["text", "json", "csv"], default="text")

    p_sw = sub.add_parser("sweep", help="scaling sweep over synthetic instances")
    p_sw.add_argument("--rundir", required=True)
    p_sw.add_argument("--sizes", required=True, help="comma-separated cluster counts")
    p_sw.add_argument("--densities", required=True, help="comma-separated densities")
    p_sw.add_argument("--seeds", required=True, help="comma-separated seeds")
    p_sw.add_argument("--algorithms", default=",".join(grouping.GROUPING_ALGORITHMS))
    p_sw.add_argument("--jobs", type=int, default=None,
                      help="worker processes (default: all usable CPUs, capped at the instance count; "
                           "1 runs in-process)")

    return parser


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)

    try:
        if args.command == "report":
            rundir = Path(args.rundir)
            if not rundir.is_dir():
                raise ConfigError(f"run directory {rundir} does not exist")
            report = build_report(rundir)
            if args.format == "json":
                sys.stdout.write(json.dumps(report, indent=2, sort_keys=True) + "\n")
            elif args.format == "csv":
                rows = report.get("sweep_rows")
                if rows is None:
                    raise ConfigError("no sweep state in run directory")
                sys.stdout.write(costmodel.sweep_to_csv(rows))
            else:
                sys.stdout.write(render_report_text(report))
            return EXIT_OK

        if args.command == "sweep":
            try:
                sizes = [int(v) for v in args.sizes.split(",")]
                densities = [float(v) for v in args.densities.split(",")]
                seeds = [int(v) for v in args.seeds.split(",")]
            except ValueError as exc:
                raise ConfigError(f"bad sweep parameter: {exc}") from exc
            # what the generator and the ladder can build
            if min(sizes) < 2:
                raise ConfigError(f"bad sweep parameter --sizes: {min(sizes)} (a ladder needs at least 2 clusters)")
            for d in densities:
                if not 0 <= d <= 1:
                    raise ConfigError(f"bad sweep parameter --densities: {d:g} (a density lies in 0..1)")
            if args.jobs is not None and args.jobs < 1:
                raise ConfigError(f"bad sweep parameter --jobs: {args.jobs} (at least 1 worker process)")
            algos = args.algorithms.split(",")
            _check_algorithms(algos)
            for flag, values in (("--sizes", sizes), ("--densities", densities), ("--seeds", seeds),
                                 ("--algorithms", algos)):
                for i, value in enumerate(values):
                    if value in values[:i]:  # the instance or row would be computed and written twice
                        raise ConfigError(f"bad sweep parameter {flag}: {value} (named twice)")
            rundir = Path(args.rundir)
            rundir.mkdir(parents=True, exist_ok=True)
            rows = costmodel.scaling_sweep(sizes, densities, seeds, algos, jobs=args.jobs)
            _save_json(rundir / "sweep.json", rows)
            (rundir / "sweep.csv").write_text(costmodel.sweep_to_csv(rows))
            sys.stdout.write(f"sweep: {len(rows)} rows -> {rundir / 'sweep.csv'}\n")
            return EXIT_OK

        # pipeline stages
        rundir = Path(args.rundir)
        config = args.config
        if config is None and (rundir / "config.json").exists():
            config = str(rundir / "config.json")  # the run's own config, not the defaults
        cfg = load_config(config, args.overrides)
        rundir.mkdir(parents=True, exist_ok=True)
        _save_json(rundir / "config.json", cfg)
        stages = STAGE_ORDER if args.command == "run" else [args.command]
        state = RunState(rundir)
        for name in stages:
            try:
                STAGES[name](cfg, state)
            except (ConfigError, InvariantViolation):
                raise
            except (ValueError, GraphFormatError, OSError, KeyError) as exc:
                print(f"stage {name} failed: {exc}", file=sys.stderr)
                return EXIT_STAGE
            print(f"stage {name}: ok")
        return EXIT_OK

    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except InvariantViolation as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return EXIT_INVARIANT


if __name__ == "__main__":
    sys.exit(main())
