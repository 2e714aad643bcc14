"""Analytic area model for the data vs control plane, plus scaling sweeps.

Both planes are linear models with non-negative coefficients fitted by
least squares against measured FPGA implementations (CLB counts) of
five small applications on this bus:

    data plane    = a * n_tiles + b * (n_lanes * lane_width_bits)
    control plane = c * scenario_memory_bits + d * n_controllers

Five calibration points support nothing richer; the model is a
calibration of this design's scaling shape, not a CLB predictor for
arbitrary FPGAs. The sweep runs the whole flow over synthetic cluster
graphs and tabulates connection counts, scenario counts, bounds, the
gap between the two and control-plane fractions.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy.optimize import nnls

from . import grouping
from .appgraph import generate_synthetic
from .controlgen import default_controller_count
from .placement import place_greedy
from .routing import extract_paths
from .topology import LadderTopology, build_topology


@dataclass(frozen=True)
class CalibrationObservation:
    """One implemented design point: its shape and measured unit counts."""

    name: str
    n_tiles: int
    n_scenarios: int
    data_plane_units: float
    control_plane_units: float


def reference_observations() -> list[CalibrationObservation]:
    """Measured CLB counts of the five FPGA-implemented applications."""
    rows = [
        ("mnist", 11, 8, 3277.0, 73.0),
        ("lenet", 14, 13, 3503.0, 204.0),
        ("fashion_mnist", 24, 24, 5722.0, 543.0),
        ("cifar10", 26, 23, 6416.0, 548.0),
        ("emnist", 30, 26, 7247.0, 645.0),
    ]
    return [CalibrationObservation(*row) for row in rows]


@dataclass(frozen=True)
class CostModel:
    a: float  # data plane, per tile
    b: float  # data plane, per lane wire bit
    c: float  # control plane, per scenario memory bit
    d: float  # control plane, per controller


@dataclass(frozen=True)
class CostReport:
    data_plane_units: float
    control_plane_units: float
    control_fraction: float
    coefficients: CostModel


def _observation_shape(obs: CalibrationObservation) -> tuple[LadderTopology, int, int]:
    topo = build_topology(obs.n_tiles)
    return topo, grouping.raw_scenario_bits(obs.n_scenarios, topo), default_controller_count(topo)


def calibrate(observations: list[CalibrationObservation]) -> CostModel:
    """Non-negative least squares per plane; deterministic."""
    if len(observations) < 2:
        raise ValueError(f"calibration needs at least 2 observations, got {len(observations)}")
    d_rows, d_targets, c_rows, c_targets = [], [], [], []
    for obs in observations:
        topo, scenario_bits, n_ctrl = _observation_shape(obs)
        d_rows.append([topo.n_tiles, topo.n_lanes * topo.lane_width_bits])
        d_targets.append(obs.data_plane_units)
        c_rows.append([scenario_bits, n_ctrl])
        c_targets.append(obs.control_plane_units)
    d_mat = np.asarray(d_rows, dtype=float)
    c_mat = np.asarray(c_rows, dtype=float)
    if np.linalg.matrix_rank(d_mat) < 2 or np.linalg.matrix_rank(c_mat) < 2:
        raise ValueError("degenerate calibration system (observations not independent)")
    (a, b), _ = nnls(d_mat, np.asarray(d_targets, dtype=float))
    (c, d), _ = nnls(c_mat, np.asarray(c_targets, dtype=float))
    return CostModel(a=float(a), b=float(b), c=float(c), d=float(d))


def data_plane_cost(topo: LadderTopology, model: CostModel) -> float:
    return model.a * topo.n_tiles + model.b * topo.n_lanes * topo.lane_width_bits


def control_plane_cost(scenario_bits: int, n_controllers: int, model: CostModel) -> float:
    return model.c * scenario_bits + model.d * n_controllers


def cost_report(
    topo: LadderTopology, scenario_bits: int, n_controllers: int, model: CostModel
) -> CostReport:
    d = data_plane_cost(topo, model)
    c = control_plane_cost(scenario_bits, n_controllers, model)
    frac = c / (c + d) if (c + d) > 0 else 0.0
    return CostReport(data_plane_units=d, control_plane_units=c,
                      control_fraction=frac, coefficients=model)


# ---------------------------------------------------------------------------
# scaling sweep

SWEEP_COLUMNS = ["n", "density", "seed", "algo", "E", "scenarios", "lower_bound", "gap", "ctrl_bits", "ctrl_frac"]


def sweep_instance(n: int, density: float, seed: int, algorithms: list[str],
                   model: CostModel) -> list[dict]:
    """Full flow on one synthetic instance; one row per algorithm, all coloring one conflict graph."""
    for algo in algorithms:
        grouping.check_algorithm(algo)
    n_edges = round(density * n * (n - 1))
    g = generate_synthetic(n, n_edges, seed)
    topo = build_topology(n)
    placement = place_greedy(g, topo)
    paths = extract_paths(g, topo, placement)
    lower = grouping.scenario_lower_bound(paths)
    n_ctrl = default_controller_count(topo)
    conflicts = grouping.build_conflict_graph(paths)
    rows = []
    for algo in algorithms:
        n_scenarios = grouping.group_paths(algo, conflicts).n_scenarios
        bits = grouping.raw_scenario_bits(n_scenarios, topo)
        frac = cost_report(topo, bits, n_ctrl, model).control_fraction
        rows.append({
            "n": n, "density": density, "seed": seed, "algo": algo,
            "E": n_edges, "scenarios": n_scenarios, "lower_bound": lower,
            "gap": n_scenarios - lower, "ctrl_bits": bits, "ctrl_frac": frac,
        })
    return rows


def _sweep_worker(args):
    return sweep_instance(*args)


def scaling_sweep(
    cluster_sizes: list[int],
    densities: list[float],
    seeds: list[int],
    algorithms: list[str] = grouping.GROUPING_ALGORITHMS,
    model: CostModel | None = None,
    jobs: int = 1,
) -> list[dict]:
    """Cross product of sizes x densities x seeds, merged in instance-key order."""
    if model is None:
        model = calibrate(reference_observations())
    tasks = [
        (n, density, seed, list(algorithms), model)
        for n in cluster_sizes
        for density in densities
        for seed in seeds
    ]
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            chunks = list(pool.map(_sweep_worker, tasks))
    else:
        chunks = [sweep_instance(*t) for t in tasks]
    rows = [row for chunk in chunks for row in chunk]
    rows.sort(key=lambda r: (r["n"], r["density"], r["seed"], r["algo"]))
    return rows


def sweep_to_csv(rows: list[dict]) -> str:
    """Stable column order, locale-independent numerals, newline-terminated."""
    lines = [",".join(SWEEP_COLUMNS)]
    for r in rows:
        lines.append(
            f"{r['n']},{r['density']:g},{r['seed']},{r['algo']},{r['E']},"
            f"{r['scenarios']},{r['lower_bound']},{r['gap']},{r['ctrl_bits']},{r['ctrl_frac']:.6f}"
        )
    return "\n".join(lines) + "\n"
