import dataclasses
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ladderbus
from ladderbus import costmodel, grouping
from ladderbus.appgraph import generate_synthetic
from ladderbus.controlgen import default_controller_count
from ladderbus.costmodel import (
    CalibrationObservation,
    CostModel,
    calibrate,
    control_plane_cost,
    cost_report,
    data_plane_cost,
    reference_observations,
    scaling_sweep,
    sweep_instance,
    sweep_to_csv,
)
from ladderbus.topology import build_topology

from conftest import oracle_nnls


def synth_observation(name, n_tiles, n_scen, model):
    topo = build_topology(n_tiles)
    bits = n_scen * 2 * topo.n_switches
    n_ctrl = default_controller_count(topo)
    return CalibrationObservation(
        name=name,
        n_tiles=n_tiles,
        n_scenarios=n_scen,
        data_plane_units=data_plane_cost(topo, model),
        control_plane_units=control_plane_cost(bits, n_ctrl, model),
    )


def test_calibrate_recovers_known_coefficients():
    truth = CostModel(a=120.0, b=4.5, c=0.25, d=30.0)
    obs = [
        synth_observation("x1", 11, 8, truth),
        synth_observation("x2", 14, 13, truth),
        synth_observation("x3", 24, 20, truth),
        synth_observation("x4", 40, 30, truth),
    ]
    fitted = calibrate(obs)
    assert fitted.a == pytest.approx(truth.a, abs=1e-9)
    assert fitted.b == pytest.approx(truth.b, abs=1e-9)
    assert fitted.c == pytest.approx(truth.c, abs=1e-9)
    assert fitted.d == pytest.approx(truth.d, abs=1e-9)


def test_calibrate_rejects_single_row():
    with pytest.raises(ValueError):
        calibrate(reference_observations()[:1])


def test_calibrate_rejects_degenerate_rows():
    truth = CostModel(a=1.0, b=1.0, c=1.0, d=1.0)
    same = synth_observation("x", 14, 13, truth)
    with pytest.raises(ValueError, match="degenerate"):
        calibrate([same, same])


def test_calibrated_coefficients_non_negative():
    m = calibrate(reference_observations())
    assert m.a >= 0 and m.b >= 0 and m.c >= 0 and m.d >= 0


def test_calibrate_reference_is_the_correctly_rounded_optimum():
    d_rows, d_targets, c_rows, c_targets = [], [], [], []
    for obs in reference_observations():
        topo = build_topology(obs.n_tiles)
        d_rows.append((topo.n_tiles, topo.n_lanes * topo.lane_width_bits))
        d_targets.append(obs.data_plane_units)
        c_rows.append((grouping.raw_scenario_bits(obs.n_scenarios, topo), default_controller_count(topo)))
        c_targets.append(obs.control_plane_units)
    a, b = oracle_nnls(d_rows, d_targets)
    c, d = oracle_nnls(c_rows, c_targets)
    expected = CostModel(a=206.80653040236535, b=6.137377072888546,
                         c=0.1459651793690874, d=27.262900218154726)
    assert CostModel(a=a, b=b, c=c, d=d) == expected
    assert calibrate(reference_observations()) == expected


finite_targets = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False)


@settings(max_examples=300, deadline=None)
@given(st.lists(
    st.tuples(st.tuples(st.integers(-40, 40), st.integers(-40, 40)), finite_targets),
    min_size=2, max_size=6,
))
def test_nnls2_matches_exact_oracle(system):
    rows = [r for r, _ in system]
    targets = [t for _, t in system]
    expected = oracle_nnls(rows, targets)
    if expected is None:
        with pytest.raises(ValueError, match="degenerate"):
            costmodel._nnls2(rows, [Fraction(t) for t in targets])
    else:
        assert costmodel._nnls2(rows, [Fraction(t) for t in targets]) == expected


@pytest.mark.parametrize("targets, expected", [
    ([2.0, -1.0, 1.0], (1.5, 0.0)),  # unconstrained (2, -1): the second clamps to 0
    ([-1.0, 2.0, 1.0], (0.0, 1.5)),  # unconstrained (-1, 2): the first clamps to 0
    ([-1.0, -1.0, -1.0], (0.0, 0.0)),  # both clamp to 0
    ([1.0, 2.0, 3.0], (1.0, 2.0)),  # interior, exact fit
])
def test_nnls2_on_each_support(targets, expected):
    rows = [(1, 0), (0, 1), (1, 1)]
    assert oracle_nnls(rows, targets) == expected
    assert costmodel._nnls2(rows, [Fraction(t) for t in targets]) == expected


def test_calibrate_clamps_both_planes_to_zero():
    obs = [dataclasses.replace(o, data_plane_units=-1.0, control_plane_units=-5.0)
           for o in reference_observations()]
    assert calibrate(obs) == CostModel(a=0.0, b=0.0, c=0.0, d=0.0)


@pytest.mark.parametrize("field", ["data_plane_units", "control_plane_units"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_calibrate_rejects_non_finite_units(field, value):
    obs = reference_observations()
    bad = dataclasses.replace(obs[2], **{field: value})
    with pytest.raises(ValueError, match=f"'fashion_mnist'.*{field}"):
        calibrate(obs[:2] + [bad] + obs[3:])


def test_cli_import_loads_numpy_alone_and_no_process_pool():
    # top-level packages new after the import, outside the standard library
    # or among the process-pool modules
    code = ("import sys; before = set(sys.modules); import ladderbus.cli; "
            "loaded = {m.split('.')[0] for m in set(sys.modules) - before}; "
            "print(sorted(loaded - set(sys.stdlib_module_names) - {'ladderbus', 'numpy'}"
            " | loaded & {'multiprocessing', 'concurrent'}))")
    src = str(Path(ladderbus.__file__).resolve().parent.parent)
    out = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_data_plane_cost_formula():
    model = CostModel(a=1.0, b=0.0, c=0.0, d=0.0)
    topo = build_topology(8, 3)
    assert data_plane_cost(topo, model) == 8.0
    model2 = CostModel(a=0.0, b=2.0, c=0.0, d=0.0)
    assert data_plane_cost(topo, model2) == 2.0 * 3 * 32


def test_control_plane_cost_linearity():
    model = CostModel(a=0.0, b=0.0, c=0.5, d=0.0)
    assert control_plane_cost(0, 0, model) == 0.0
    assert control_plane_cost(1000, 4, model) * 2 == control_plane_cost(2000, 8, model)


def test_cost_report_fraction_bounds():
    model = calibrate(reference_observations())
    rep = cost_report(build_topology(24), 2880, 3, model)
    assert rep.data_plane_units >= 0
    assert rep.control_plane_units >= 0
    assert 0.0 <= rep.control_fraction <= 1.0


def test_sweep_instance_zero_density():
    model = calibrate(reference_observations())
    rows = sweep_instance(10, 0.0, 0, ["greedy", "iterated"], model)
    for row in rows:
        assert row["E"] == 0
        assert row["scenarios"] == 0
        assert row["lower_bound"] == 0


def test_sweep_rows_and_csv_format():
    rows = scaling_sweep([10, 14], [0.15], [0, 1], ["greedy", "iterated"])
    assert len(rows) == 2 * 2 * 2
    keys = [(r["n"], r["density"], r["seed"], r["algo"]) for r in rows]
    assert keys == sorted(keys)
    csv = sweep_to_csv(rows)
    lines = csv.splitlines()
    assert lines[0] == "n,density,seed,algo,E,scenarios,lower_bound,gap,ctrl_bits,ctrl_frac"
    assert len(lines) == 1 + len(rows)
    assert csv.endswith("\n")
    for row, line in zip(rows, lines[1:]):
        cells = line.split(",")
        assert cells[0] == str(row["n"])
        assert cells[3] == row["algo"]
        assert int(cells[4]) == row["E"]
        assert int(cells[7]) == row["gap"] == row["scenarios"] - row["lower_bound"]


def test_sweep_scenarios_respect_lower_bound():
    rows = scaling_sweep([12, 20], [0.2], [0], ["greedy", "iterated"])
    for row in rows:
        g = generate_synthetic(row["n"], row["E"], row["seed"])
        assert row["scenarios"] >= row["lower_bound"] >= max(g.total_degrees())


def test_sweep_complete_small_graph():
    # complete directed graph on 4 clusters (total degree 6) in 2 columns: all
    # 12 connections but the 2 inside the other column use a column's rung, so
    # B = 10; the exhaustive coloring oracle gives 10 scenarios on this
    # topology, and iterated first-fit attains it
    rows = sweep_instance(4, 1.0, 0, ["iterated"], calibrate(reference_observations()))
    row = rows[0]
    assert row["E"] == 12
    assert row["lower_bound"] == 10
    assert row["scenarios"] == 10
    assert row["gap"] == 0


def test_sweep_rejects_unknown_algorithm():
    with pytest.raises(ValueError):
        sweep_instance(8, 0.1, 0, ["magic"], calibrate(reference_observations()))


def test_sweep_checks_algorithm_names_before_generating(monkeypatch):
    def no_generation(*args):
        raise AssertionError("instance generated before the algorithm names were checked")

    monkeypatch.setattr(costmodel, "generate_synthetic", no_generation)
    with pytest.raises(ValueError, match="unknown grouping algorithm 'magic'.*greedy, iterated"):
        sweep_instance(8, 0.1, 0, ["greedy", "magic"], calibrate(reference_observations()))


def test_sweep_builds_no_switch_vectors(monkeypatch):
    def no_vectors(*args):
        raise AssertionError("the sweep built a switch vector")

    monkeypatch.setattr(grouping, "scenario_switch_matrix", no_vectors)
    rows = sweep_instance(12, 0.2, 0, ["greedy", "iterated"], calibrate(reference_observations()))
    assert [r["algo"] for r in rows] == ["greedy", "iterated"]
    assert rows[1]["lower_bound"] <= rows[1]["scenarios"] <= rows[0]["scenarios"]


def test_greedy_sweep_runs_first_fit_alone(monkeypatch):
    def no_iterated(*args):
        raise AssertionError("the greedy sweep ran the iterated grouper")

    monkeypatch.setattr(grouping, "group_iterated", no_iterated)
    rows = sweep_instance(12, 0.2, 0, ["greedy"], calibrate(reference_observations()))
    assert [r["algo"] for r in rows] == ["greedy"]


def test_sweep_runs_first_fit_once_for_both_groupers(monkeypatch):
    # greedy's partition is the iterated search's start: one first-fit for
    # both, then one per iterated round
    calls, rounds = [], []
    first_fit, iterate = grouping._first_fit, grouping.group_iterated

    def counted(paths, order):
        calls.append(len(paths))
        return first_fit(paths, order)

    def recorded(*args):
        rounds.append((part := iterate(*args)).stats.rounds)
        return part

    monkeypatch.setattr(grouping, "_first_fit", counted)
    monkeypatch.setattr(grouping, "group_iterated", recorded)
    rows = sweep_instance(40, 0.2, 0, ["greedy", "iterated"], calibrate(reference_observations()))
    assert len(rounds) == 1 and len(calls) == 1 + rounds[0]
    assert rows[1]["scenarios"] <= rows[0]["scenarios"]


def test_sweep_parallel_matches_serial():
    serial = scaling_sweep([10, 12], [0.15], [0, 1], ["greedy"], jobs=1)
    parallel = scaling_sweep([10, 12], [0.15], [0, 1], ["greedy"], jobs=2)
    assert serial == parallel


class PoolRecorder:
    """Stands in for ProcessPoolExecutor: starts no process, runs map's calls
    here and records the worker count and the submission order."""

    def __init__(self, built, max_workers):
        self.max_workers = max_workers
        self.submitted = []
        built.append(self)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, tasks):
        self.submitted = list(tasks)
        return [fn(t) for t in self.submitted]


@pytest.fixture
def pools(monkeypatch):
    """The pools a sweep builds, recorded instead of started."""
    import concurrent.futures

    built = []
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                        lambda max_workers: PoolRecorder(built, max_workers))
    return built


def set_cpus(monkeypatch, n):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)


def test_sweep_on_one_usable_cpu_builds_no_pool(monkeypatch, pools):
    set_cpus(monkeypatch, 1)
    rows = scaling_sweep([10, 12], [0.15], [0, 1], ["greedy"])
    assert pools == []
    assert rows == scaling_sweep([10, 12], [0.15], [0, 1], ["greedy"], jobs=1)


def test_sweep_workers_default_to_usable_cpus_capped_at_instances(monkeypatch, pools):
    set_cpus(monkeypatch, 3)
    scaling_sweep([10, 12], [0.15], [0], ["greedy"])
    scaling_sweep([10, 12], [0.15], [0, 1], ["greedy"])
    assert [p.max_workers for p in pools] == [2, 3]


def test_sweep_without_affinity_uses_cpu_count(monkeypatch, pools):
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    scaling_sweep([10, 12], [0.15], [0, 1], ["greedy"])
    assert [p.max_workers for p in pools] == [3]


def test_sweep_jobs_beyond_instances_start_no_extra_workers(pools):
    # a pool forks all of its max_workers at once, used or not
    scaling_sweep([10], [0.15], [0], ["greedy"], jobs=64)
    scaling_sweep([10, 12], [0.15], [0], ["greedy"], jobs=64)
    assert [p.max_workers for p in pools] == [2]


def test_sweep_submits_largest_instances_first(monkeypatch, pools):
    set_cpus(monkeypatch, 2)
    rows = scaling_sweep([10, 30, 20], [0.1, 0.2], [0, 1], ["greedy"])
    # E = 174, 87, 76, 38, 18, 9; the seeds of one size and density tie and keep their order
    by_size = [(30, 0.2), (30, 0.1), (20, 0.2), (20, 0.1), (10, 0.2), (10, 0.1)]
    assert [t[:3] for t in pools[0].submitted] == [(n, d, s) for n, d in by_size for s in (0, 1)]
    assert [(r["n"], r["density"], r["seed"]) for r in rows] == sorted(t[:3] for t in pools[0].submitted)


def test_sweep_default_matches_serial_when_submission_order_differs(monkeypatch):
    # two real worker processes; the largest-first order is not the key order
    set_cpus(monkeypatch, 2)
    grid = ([10, 30, 20], [0.1, 0.2], [0])
    assert scaling_sweep(*grid, ["greedy"]) == scaling_sweep(*grid, ["greedy"], jobs=1)


def test_cli_sweep_defaults_to_usable_cpus_with_the_serial_bytes(tmp_path, monkeypatch, pools):
    from ladderbus.cli import main

    set_cpus(monkeypatch, 3)
    args = ["--sizes", "10,12", "--densities", "0.15", "--seeds", "0", "--algorithms", "greedy"]
    assert main(["sweep", "--rundir", str(tmp_path / "default"), *args]) == 0
    assert [p.max_workers for p in pools] == [2]
    assert main(["sweep", "--rundir", str(tmp_path / "serial"), *args, "--jobs", "1"]) == 0
    assert len(pools) == 1
    for name in ("sweep.csv", "sweep.json"):
        assert (tmp_path / "default" / name).read_bytes() == (tmp_path / "serial" / name).read_bytes()


def test_serial_sweep_imports_no_process_pool():
    # one usable CPU: the default sweep runs in this process
    code = ("import os, sys; os.sched_getaffinity = lambda pid: {0}; from ladderbus import costmodel; "
            "costmodel.scaling_sweep([10, 12], [0.15], [0], ['greedy']); "
            "print(sorted({'multiprocessing', 'concurrent'} & {m.split('.')[0] for m in sys.modules}))")
    src = str(Path(ladderbus.__file__).resolve().parent.parent)
    out = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
