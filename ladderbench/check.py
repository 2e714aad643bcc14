"""Independent checker for the flow's outputs.

It re-derives everything from the documented file formats and the tile
geometry (tile t sits in column t // 2); the checks import nothing from
the package. Each check returns a list of problems; an empty list accepts.

    python3 ladderbench/check.py --self-test

runs a small instance through the package's CLI, checks that the
clean outputs pass, and checks that a corrupted scenario set and a
simulation report containing a collision are both rejected.
"""

from __future__ import annotations

import copy
import json
import math
import sys
from pathlib import Path

IDLE, LEFT_RIGHT, LEFT_RUNG, RIGHT_RUNG = 0, 1, 2, 3

RUN_STATE_FILES = ["graph.json", "topology.json", "placement.json", "paths.json",
                   "scenarios.json", "controllers.json", "sim_report.json"]


def load_run_docs(rundir: Path) -> dict:
    return {name: json.loads((rundir / name).read_text()) for name in RUN_STATE_FILES}


def path_resources(path: dict, n_lanes: int, n_columns: int) -> list[int]:
    """Rungs, switches and segments a path claims, as dense integer ids.

    Rung c -> c; switch (lane, c) -> C + lane*C + c; segment (lane, i)
    between columns i and i+1 -> C + L*C + lane*C + i.
    """
    col_a, col_b = path["src"] // 2, path["dst"] // 2
    lo, hi = min(col_a, col_b), max(col_a, col_b)
    sw = n_columns + path["lane"] * n_columns
    seg = n_columns + n_lanes * n_columns + path["lane"] * n_columns
    res = [col_a, col_b] if col_a != col_b else [col_a]
    res.extend(range(sw + lo, sw + hi + 1))
    res.extend(range(seg + lo, seg + hi))
    return res


def rle_decode(runs) -> list[int]:
    out: list[int] = []
    for state, run in runs:
        out.extend([state] * run)
    return out


def check_run_docs(docs: dict, graph_in: dict, n_frames: int) -> list[str]:
    """Check one `ladderbus run` directory's state documents."""
    problems: list[str] = []
    graph, topo, place = docs["graph.json"], docs["topology.json"], docs["placement.json"]
    paths = docs["paths.json"]["paths"]
    scen, ctrl, simrep = docs["scenarios.json"], docs["controllers.json"], docs["sim_report.json"]

    if graph["n_clusters"] != graph_in["n_clusters"] or graph["edges"] != graph_in["edges"]:
        problems.append("graph.json differs from the input graph")
    edges = graph_in["edges"]
    n_edges = len(edges)

    n_tiles, n_lanes = topo["n_tiles"], topo["n_lanes"]
    n_columns = (n_tiles + 1) // 2
    if topo["n_columns"] != n_columns or topo["n_switches"] != n_lanes * n_columns:
        problems.append("topology.json counts disagree with its tile and lane counts")
    assign = place["assignment"]
    if (len(assign) != graph_in["n_clusters"] or len(set(assign)) != len(assign)
            or not all(0 <= t < n_tiles for t in assign)):
        problems.append("placement is not an injective map of clusters onto tiles")
        return problems

    # paths: endpoints and intervals follow from graph + placement
    if len(paths) != n_edges:
        problems.append(f"{len(paths)} paths for {n_edges} edges")
        return problems
    for i, (p, (src, dst, _w)) in enumerate(zip(paths, edges)):
        cols = (assign[src] // 2, assign[dst] // 2)
        if (p["edge"] != i or p["src"] != assign[src] or p["dst"] != assign[dst]
                or p["cmin"] != min(cols) or p["cmax"] != max(cols)
                or not 0 <= p["lane"] < n_lanes):
            problems.append(f"path {i} does not match graph edge {i} under the placement")
            return problems

    # scenarios: a partition of the edge ids into resource-disjoint sets,
    # each with the switch vector that realizes exactly its paths
    members = [s["paths"] for s in scen["scenarios"]]
    flat = sorted(pid for s in members for pid in s)
    if flat != list(range(n_edges)):
        problems.append("scenarios do not partition the edge ids")
        return problems
    n_switches = n_lanes * n_columns
    for k, (ids, s) in enumerate(zip(members, scen["scenarios"])):
        owner: dict[int, int] = {}
        vec = [IDLE] * n_switches
        for pid in ids:
            p = paths[pid]
            for r in path_resources(p, n_lanes, n_columns):
                if r in owner:
                    problems.append(f"scenario {k}: paths {owner[r]} and {pid} share resource {r}")
                    return problems
                owner[r] = pid
            lo, hi, base = p["cmin"], p["cmax"], p["lane"] * n_columns
            if lo < hi:
                vec[base + lo] = RIGHT_RUNG
                vec[base + hi] = LEFT_RUNG
                vec[base + lo + 1:base + hi] = [LEFT_RIGHT] * (hi - lo - 1)
        if rle_decode(s["switches_rle"]) != vec:
            problems.append(f"scenario {k}: switch vector does not realize its paths")
            return problems
    n_scen = len(members)
    if scen["counts"].get(scen["algorithm"]) != n_scen:
        problems.append("scenarios.json counts disagree with its scenario list")
    if not 0 < scen["lower_bound"] <= n_scen:
        problems.append(f"lower bound {scen['lower_bound']} not in 1..{n_scen}")

    # controllers: regions tile the columns; memory = scenarios x word bits
    expect, bits = 0, 0
    for r in sorted(ctrl["regions"], key=lambda r: r["col_start"]):
        width = r["col_end"] - r["col_start"] + 1
        if r["col_start"] != expect or width < 1 or r["word_bits"] != 2 * n_lanes * width:
            problems.append(f"controller region {r['id']} is malformed")
            return problems
        expect = r["col_end"] + 1
        bits += n_scen * r["word_bits"]
    if expect != n_columns or ctrl["count"] != len(ctrl["regions"]):
        problems.append("controller regions do not partition the columns")
    if ctrl["memory_bits"] != bits:
        problems.append(f"memory_bits {ctrl['memory_bits']} != {bits}")

    # simulation: no collision, every edge delivered once per frame
    if simrep["collisions"] != 0 or simrep["collision_events"]:
        problems.append(f"simulation reports {simrep['collisions']} collision(s)")
    if simrep["n_frames"] != n_frames or simrep["steps"] != n_frames * n_scen:
        problems.append(f"simulation ran {simrep['steps']} steps, expected {n_frames * n_scen}")
    delivered = simrep["delivered"]
    if len(delivered) != n_edges or any(delivered.get(str(i)) != n_frames for i in range(n_edges)):
        problems.append(f"some edge was not delivered exactly once in each of {n_frames} frame(s)")
    return problems


def check_sweep_rows(rows: list[dict], manifest: dict) -> dict[str, list[str]]:
    """Problems per sweep instance id; every expected instance gets an entry."""
    out = {sweep_instance_id(n, d, s): [] for n in manifest["sizes"]
           for d in manifest["densities"] for s in manifest["seeds"]}
    algos: dict[str, list[str]] = {iid: [] for iid in out}
    for r in rows:
        iid = sweep_instance_id(r["n"], r["density"], r["seed"])
        probs = out.setdefault(iid, [])
        algos.setdefault(iid, []).append(r["algo"])
        n = r["n"]
        n_lanes = _round_half_up_sqrt(n)
        n_columns = (n + 1) // 2
        if r["E"] != round(r["density"] * n * (n - 1)):
            probs.append(f"E = {r['E']}, expected {round(r['density'] * n * (n - 1))}")
        # every connection touches two clusters, so some cluster has total
        # degree >= 2E/n, and that cluster's connections share its rung
        if not math.ceil(2 * r["E"] / n) <= r["lower_bound"] <= r["scenarios"]:
            probs.append(f"lower bound {r['lower_bound']} vs scenarios {r['scenarios']}")
        if r["ctrl_bits"] != r["scenarios"] * 2 * n_lanes * n_columns:
            probs.append(f"ctrl_bits {r['ctrl_bits']} inconsistent with the topology")
    for iid, have in algos.items():
        if sorted(have) != sorted(manifest["algorithms"]):
            out[iid].append(f"rows for algorithms {have}, expected {manifest['algorithms']}")
    return out


def sweep_instance_id(n: int, density: float, seed: int) -> str:
    return f"n{n}-d{density:g}-s{seed}"


def _round_half_up_sqrt(n: int) -> int:
    k = math.isqrt(n)
    return k + 1 if n > k * k + k else k


# ---------------------------------------------------------------------------
# injected faults: the checker must reject both


def corrupt_scenarios(docs: dict) -> dict:
    """Move a path into scenario 0 next to a member it shares a resource with."""
    bad = dict(docs)
    scen = copy.deepcopy(docs["scenarios.json"])
    topo, paths = docs["topology.json"], docs["paths.json"]["paths"]
    n_columns = (topo["n_tiles"] + 1) // 2
    claimed = set()
    for pid in scen["scenarios"][0]["paths"]:
        claimed.update(path_resources(paths[pid], topo["n_lanes"], n_columns))
    for s in scen["scenarios"][1:]:
        for pid in s["paths"]:
            if claimed & set(path_resources(paths[pid], topo["n_lanes"], n_columns)):
                s["paths"].remove(pid)
                scen["scenarios"][0]["paths"].append(pid)
                bad["scenarios.json"] = scen
                return bad
    raise ValueError("no conflicting pair to inject (instance too small)")


def inject_collision(docs: dict) -> dict:
    bad = dict(docs)
    rep = copy.deepcopy(docs["sim_report.json"])
    rep["collisions"] = 1
    rep["collision_events"] = [{"step": 0, "scenario": 0, "resource": ["rung", 0], "claims": 2}]
    bad["sim_report.json"] = rep
    return bad


def self_test(docs: dict, graph_in: dict, n_frames: int) -> list[str]:
    """Failures of the checker itself on one accepted instance (empty = sound)."""
    fails = []
    if check_run_docs(docs, graph_in, n_frames):
        fails.append("clean instance rejected")
    probs = check_run_docs(corrupt_scenarios(docs), graph_in, n_frames)
    if not any("share resource" in p for p in probs):
        fails.append(f"corrupted scenario set not rejected for a shared resource: {probs}")
    if not check_run_docs(inject_collision(docs), graph_in, n_frames):
        fails.append("report with a collision accepted")
    return fails


def self_test_sweep(rows: list[dict], manifest: dict) -> list[str]:
    bad = copy.deepcopy(rows)
    bad[0]["scenarios"] = bad[0]["lower_bound"] - 1
    if not any(check_sweep_rows(bad, manifest).values()):
        return ["sweep row with scenarios below its lower bound accepted"]
    return []


def main() -> int:
    if sys.argv[1:] != ["--self-test"]:
        print("usage: python3 ladderbench/check.py --self-test", file=sys.stderr)
        return 2
    import shutil

    from workloads import uniform_digraph

    root = Path(__file__).resolve().parent.parent
    sys.path.insert(0, str(root / "src"))
    from ladderbus import cli

    work = root / ".ladderbench" / "selftest"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        graph_in = uniform_digraph(24, 128, 7, "selftest")
        (work / "graph.json").write_text(json.dumps(graph_in))
        (work / "config.json").write_text(json.dumps({"seed": 7, "graph": {"file": str(work / "graph.json")}}))
        if cli.main(["run", "--config", str(work / "config.json"), "--rundir", str(work / "run")]) != 0:
            print("FAIL: the flow failed on the self-test instance")
            return 1
        docs = load_run_docs(work / "run")
        fails = self_test(docs, graph_in, 1)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for line in fails:
        print(f"FAIL: {line}")
    if not fails:
        print("PASS: clean instance accepted; corrupted scenario set and collision report rejected")
    return 1 if fails else 0


if __name__ == "__main__":
    sys.exit(main())
