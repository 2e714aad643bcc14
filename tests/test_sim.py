import io

import pytest

from ladderbus.appgraph import generate_synthetic, make_cluster_graph
from ladderbus.controlgen import (
    build_schedule,
    default_controller_count,
    encode_scenarios,
    partition_regions,
)
from ladderbus.grouping import ScenarioSet, group_max_clique, scenario_switch_vector
from ladderbus.placement import place_anneal
from ladderbus.routing import extract_paths
from ladderbus.sim import run_frames
from ladderbus.topology import build_topology


def pipeline(g, seed=0, n_regions=None):
    topo = build_topology(max(g.n_clusters, 2))
    placement = place_anneal(g, topo, seed=seed)
    paths = extract_paths(g, topo, placement)
    sset = group_max_clique(paths, topo)
    regions = partition_regions(topo, n_regions or default_controller_count(topo))
    programs = encode_scenarios(sset, regions, topo)
    return topo, paths, sset, programs


def test_single_path_energy_counts_path_resources():
    g = make_cluster_graph(2, [(0, 1, 1)])
    topo, paths, sset, programs = pipeline(g)
    report = run_frames(topo, programs, paths, sset, n_frames=1)
    p = paths[0]
    segments = p.cmax - p.cmin
    rungs = len(p.rung_columns)
    assert report.steps == 1
    assert report.collisions == 0
    assert report.delivered == {0: 1}
    assert report.energy == segments + rungs


def test_same_column_path_one_rung_no_segments():
    # clusters land on tiles 0 and 1: same column, rung only
    g = make_cluster_graph(2, [(0, 1, 1)])
    topo = build_topology(2, 1)
    placement = place_anneal(g, topo, seed=0)
    paths = extract_paths(g, topo, placement)
    sset = group_max_clique(paths, topo)
    programs = encode_scenarios(sset, partition_regions(topo, 1), topo)
    report = run_frames(topo, programs, paths, sset, n_frames=1)
    assert report.energy == 1
    assert report.delivered == {0: 1}


def test_corrupted_scenario_detects_collision():
    # two connections out of one cluster, forced into one scenario
    g = make_cluster_graph(3, [(0, 1, 1), (0, 2, 1)])
    topo = build_topology(4, 2)
    placement = place_anneal(g, topo, seed=0)
    paths = extract_paths(g, topo, placement)
    merged = tuple(sorted(p.edge_id for p in paths))
    vec = scenario_switch_vector(merged, paths, topo)
    corrupted = ScenarioSet(scenarios=(merged,), switch_vectors=(vec,))
    programs = encode_scenarios(corrupted, partition_regions(topo, 1), topo)
    report = run_frames(topo, programs, paths, corrupted, n_frames=1)
    assert report.collisions >= 1
    assert any(ev["resource"][0] == "rung" for ev in report.collision_events)
    # neither connection is cleanly delivered over a doubly-driven chain
    assert all(v == 0 for v in report.delivered.values())


def test_end_to_end_three_frames():
    g = generate_synthetic(40, 160, seed=1)
    topo, paths, sset, programs = pipeline(g, seed=2)
    report = run_frames(topo, programs, paths, sset, n_frames=3)
    assert report.collisions == 0
    assert report.frame_length == sset.n_scenarios
    assert report.steps == 3 * sset.n_scenarios
    assert all(count == 3 for count in report.delivered.values())
    assert len(report.delivered) == 160


def test_deterministic_reports():
    g = generate_synthetic(14, 41, seed=3)
    topo, paths, sset, programs = pipeline(g, seed=3)
    r1 = run_frames(topo, programs, paths, sset, n_frames=2)
    r2 = run_frames(topo, programs, paths, sset, n_frames=2)
    assert r1 == r2


def test_trace_energy_recount():
    g = generate_synthetic(24, 100, seed=5)
    topo, paths, sset, programs = pipeline(g, seed=5)
    buf = io.StringIO()
    report = run_frames(topo, programs, paths, sset, n_frames=2, trace=buf)
    recount = 0
    for line in buf.getvalue().splitlines():
        fields = dict(part.split("=", 1) for part in line.split())
        recount += int(fields["active"])
    assert recount == report.energy
    assert report.per_step_active == [
        int(dict(part.split("=", 1) for part in line.split())["active"])
        for line in buf.getvalue().splitlines()
    ]


def test_conditional_step_executes_when_flag_raised():
    g = generate_synthetic(10, 20, seed=6)
    topo = build_topology(10)
    placement = place_anneal(g, topo, seed=6)
    paths = extract_paths(g, topo, placement)
    sset = group_max_clique(paths, topo)
    sched = build_schedule(sset, conditional=(0, 0))
    programs = encode_scenarios(sset, partition_regions(topo, 2), topo, schedule=sched)
    base = run_frames(topo, programs, paths, sset, n_frames=2, cond_flags=[False, False])
    raised = run_frames(topo, programs, paths, sset, n_frames=2, cond_flags=[False, True])
    assert base.steps == 2 * sset.n_scenarios
    assert raised.steps == 2 * sset.n_scenarios + 1
    # the guarded step re-delivers scenario 0's connections once more
    extra = set(sset.scenarios[0])
    for pid, count in raised.delivered.items():
        assert count == (3 if pid in extra else 2)
    assert raised.collisions == 0


def test_mismatched_schedules_rejected():
    g = generate_synthetic(10, 20, seed=7)
    topo, paths, sset, programs = pipeline(g, seed=7, n_regions=2)
    hacked = programs[1].__class__(
        region=programs[1].region,
        memory=programs[1].memory,
        schedule=build_schedule(sset, frame_order=list(reversed(range(sset.n_scenarios)))),
    )
    with pytest.raises(ValueError, match="lockstep"):
        run_frames(topo, [programs[0], hacked], paths, sset, n_frames=1)


def test_unknown_scenario_index_rejected():
    g = generate_synthetic(8, 12, seed=8)
    topo, paths, sset, programs = pipeline(g, seed=8)
    bad_sched = build_schedule(sset)
    bad_sched = bad_sched.__class__(entries=bad_sched.entries + ((sset.n_scenarios, 1),))
    bad = [p.__class__(region=p.region, memory=p.memory, schedule=bad_sched) for p in programs]
    with pytest.raises(ValueError, match="unknown scenario"):
        run_frames(topo, bad, paths, sset, n_frames=1)


def test_zero_scenarios_trivially_clean():
    g = make_cluster_graph(4, [])
    topo, paths, sset, programs = pipeline(g)
    assert sset.n_scenarios == 0
    report = run_frames(topo, programs, paths, sset, n_frames=2)
    assert report.steps == 0
    assert report.collisions == 0
    assert report.energy == 0
