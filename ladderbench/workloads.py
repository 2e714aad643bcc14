"""Workload inputs: seeded instance lists written as files for the flow.

Instances are generated here, not by the package, so a workload's
inputs stay the same when the package's own generator changes.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

SPEC_PATH = Path(__file__).with_name("workloads.json")


def load_spec() -> dict:
    return json.loads(SPEC_PATH.read_text())["workloads"]


def uniform_digraph(n: int, n_edges: int, seed: int, name: str) -> dict:
    """Cluster-graph document: exactly n_edges distinct (src, dst) pairs
    drawn uniformly without replacement, weights uniform in 1..16."""
    rng = random.Random(seed)
    edges = []
    for idx in sorted(rng.sample(range(n * (n - 1)), n_edges)):
        src, r = divmod(idx, n - 1)
        dst = r if r < src else r + 1
        edges.append([src, dst, rng.randint(1, 16)])
    return {"name": name, "n_clusters": n, "edges": edges}


def write_inputs(workload: str, spec: dict, seed: int, inputs: Path) -> dict:
    """Write the instance files for one run; return the manifest.

    Run-mode manifests list one (id, config path, graph path) per
    instance; sweep manifests carry the sweep's command-line arguments.
    Paths are relative to the checkout root, the flow's working directory.
    """
    inputs.mkdir(parents=True, exist_ok=True)
    rng = random.Random(f"{workload}:{seed}")
    if spec["mode"] == "sweep":
        seeds = [spec["seeds_per_run"] * seed + k for k in range(spec["seeds_per_run"])]
        return {
            "mode": "sweep",
            "sizes": spec["sizes"],
            "densities": spec["densities"],
            "seeds": seeds,
            "algorithms": spec["algorithms"],
        }
    instances = []
    for n, n_edges in spec["shapes"]:
        for _ in range(spec["instances_per_shape"]):
            graph_seed = rng.randrange(2**31)
            iid = f"i{len(instances):02d}-n{n}-e{n_edges}-g{graph_seed}"
            graph_path = inputs / f"{iid}.graph.json"
            graph_path.write_text(json.dumps(uniform_digraph(n, n_edges, graph_seed, iid)) + "\n")
            config = {"name": iid, "seed": graph_seed, "graph": {"file": str(graph_path)}}
            config.update(spec["config"])
            config_path = inputs / f"{iid}.config.json"
            config_path.write_text(json.dumps(config, indent=1, sort_keys=True) + "\n")
            instances.append({"id": iid, "config": str(config_path), "graph": str(graph_path)})
    frames = spec["config"].get("sim", {}).get("frames", 1)
    return {"mode": "run", "instances": instances, "frames": frames}
