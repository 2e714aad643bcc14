"""Analytic area model for the data vs control plane, plus scaling sweeps.

Both planes are linear models with non-negative coefficients fitted by
least squares against measured FPGA implementations (CLB counts) of
five small applications on this bus:

    data plane    = a * n_tiles + b * (n_lanes * lane_width_bits)
    control plane = c * scenario_memory_bits + d * n_controllers

Each plane is a non-negative least-squares problem (Lawson & Hanson,
1974) in two unknowns, solved exactly in rationals over every support
and rounded to float once, so the coefficients are the correctly
rounded optimum, the same bits on any machine. Five calibration points
support nothing richer; the model is a calibration of this design's
scaling shape, not a CLB predictor for arbitrary FPGAs. The sweep runs
the whole flow over synthetic cluster graphs and tabulates connection
counts, scenario counts, bounds, the gap between the two and
control-plane fractions.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from fractions import Fraction
from functools import cache

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


def _observation_shape(obs: CalibrationObservation) -> tuple[LadderTopology, int, int]:
    topo = build_topology(obs.n_tiles)
    return topo, grouping.raw_scenario_bits(obs.n_scenarios, topo), default_controller_count(topo)


def _nnls2(rows: list[tuple[int, int]], targets: list[Fraction]) -> tuple[float, float]:
    """Exact min |A x - y|^2 over x >= 0 for integer rows A of two columns.

    G = A^T A is exact in int and h = A^T y in Fraction. The optimum is the
    unconstrained minimiser of the unknowns it leaves nonzero (both, the
    first, the second or none), so it is the feasible one of those four
    candidates with the least x^T G x - 2 h^T x. Each candidate solves
    G_S x_S = h_S on its support, where that objective is -h^T x, so the
    least objective is the largest h^T x. Each coefficient is then rounded
    to float once.
    """
    g11 = sum(p * p for p, _ in rows)
    g12 = sum(p * q for p, q in rows)
    g22 = sum(q * q for _, q in rows)
    det = g11 * g22 - g12 * g12
    if det == 0:
        raise ValueError("degenerate calibration system (observations not independent)")
    h1 = sum(p * y for (p, _), y in zip(rows, targets))
    h2 = sum(q * y for (_, q), y in zip(rows, targets))
    # det != 0 makes G positive definite, so g11 and g22 are positive
    candidates = [
        ((g22 * h1 - g12 * h2) / det, (g11 * h2 - g12 * h1) / det),
        (h1 / g11, 0),
        (0, h2 / g22),
        (0, 0),
    ]
    x1, x2 = max(
        (x for x in candidates if x[0] >= 0 and x[1] >= 0),
        key=lambda x: h1 * x[0] + h2 * x[1],
    )
    return float(x1), float(x2)


def calibrate(observations: list[CalibrationObservation]) -> CostModel:
    """Exact non-negative least squares per plane; the same floats on any machine."""
    if len(observations) < 2:
        raise ValueError(f"calibration needs at least 2 observations, got {len(observations)}")
    d_rows, d_targets, c_rows, c_targets = [], [], [], []
    for obs in observations:
        for field in ("data_plane_units", "control_plane_units"):
            value = getattr(obs, field)
            if not math.isfinite(value):
                raise ValueError(f"calibration observation {obs.name!r}: {field} must be finite, got {value}")
        topo, scenario_bits, n_ctrl = _observation_shape(obs)
        d_rows.append((topo.n_tiles, topo.n_lanes * topo.lane_width_bits))
        d_targets.append(Fraction(obs.data_plane_units))
        c_rows.append((scenario_bits, n_ctrl))
        c_targets.append(Fraction(obs.control_plane_units))
    a, b = _nnls2(d_rows, d_targets)
    c, d = _nnls2(c_rows, c_targets)
    return CostModel(a=a, b=b, c=c, d=d)


@cache
def reference_model() -> CostModel:
    """calibrate(reference_observations()), fitted once per process: the
    observations are constants and the model is frozen."""
    return calibrate(reference_observations())


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
    return CostReport(data_plane_units=d, control_plane_units=c, control_fraction=frac)


# ---------------------------------------------------------------------------
# scaling sweep

# column -> the type of its values (a float column also takes an integer)
SWEEP_COLUMNS = {"n": int, "density": float, "seed": int, "algo": str, "E": int, "scenarios": int,
                 "lower_bound": int, "gap": int, "ctrl_bits": int, "ctrl_frac": float}


def _edge_count(n: int, density: float) -> int:
    """Directed edges of the synthetic instance of n clusters at a density."""
    return round(density * n * (n - 1))


def sweep_instance(n: int, density: float, seed: int, algorithms: list[str],
                   model: CostModel) -> list[dict]:
    """Full flow on one synthetic instance; one row per algorithm, all grouping
    one set of routed paths."""
    for algo in algorithms:
        grouping.check_algorithm(algo)
    n_edges = _edge_count(n, density)
    g = generate_synthetic(n, n_edges, seed)
    topo = build_topology(n)
    placement = place_greedy(g, topo)
    paths = extract_paths(g, topo, placement)
    lower = grouping.scenario_lower_bound(paths)
    n_ctrl = default_controller_count(topo)
    partitions = grouping.group_paths(algorithms, paths, lower)
    rows = []
    for algo in algorithms:
        n_scenarios = partitions[algo].n_scenarios
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


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the platform has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def scaling_sweep(
    cluster_sizes: list[int],
    densities: list[float],
    seeds: list[int],
    algorithms: list[str] = grouping.GROUPING_ALGORITHMS,
    jobs: int | None = None,
) -> list[dict]:
    """Cross product of sizes x densities x seeds, merged in instance-key order.

    Runs on `jobs` worker processes (default: one per usable CPU), never more
    than there are instances; one worker runs every instance in this process.
    Instances go to the pool largest (most edges) first, so the longest ones
    do not start last; the rows do not depend on the order or the worker count.
    """
    model = reference_model()
    tasks = [
        (n, density, seed, list(algorithms), model)
        for n in cluster_sizes
        for density in densities
        for seed in seeds
    ]
    workers = min(_usable_cpus() if jobs is None else jobs, len(tasks))
    if workers > 1:
        # imported here: multiprocessing is start-up cost every other command would pay
        from concurrent.futures import ProcessPoolExecutor

        tasks.sort(key=lambda t: _edge_count(t[0], t[1]), reverse=True)  # stable: ties keep key order
        with ProcessPoolExecutor(max_workers=workers) as pool:
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
