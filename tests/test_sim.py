import dataclasses
import io
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import ladder_paths, oracle_sim_step

from ladderbus.appgraph import generate_synthetic, make_cluster_graph
from ladderbus.controlgen import (
    decode_programs,
    default_controller_count,
    encode_scenarios,
    partition_regions,
)
from ladderbus.grouping import group_greedy, group_iterated, scenario_lower_bound, scenario_switch_matrix
from ladderbus.placement import place_anneal, place_greedy
from ladderbus.routing import RoutedPath, extract_paths
from ladderbus.sim import SCAN_SWITCHES, run_frames
from ladderbus.topology import SwitchState, build_topology


def grouped(paths, topo):
    """Iterated first-fit scenarios of the paths and their switch-state matrix."""
    scenarios = group_iterated(paths, scenario_lower_bound(paths), group_greedy(paths)).scenarios
    return scenarios, scenario_switch_matrix(scenarios, paths, topo)


def pipeline(g, seed=0, n_regions=None):
    topo = build_topology(max(g.n_clusters, 2))
    placement = place_anneal(g, topo, seed=seed)
    paths = extract_paths(g, topo, placement)
    scenarios, vectors = grouped(paths, topo)
    regions = partition_regions(topo, n_regions or default_controller_count(topo))
    programs = encode_scenarios(vectors, regions, topo)
    return topo, paths, scenarios, programs


def test_single_path_energy_counts_path_resources():
    g = make_cluster_graph(2, [(0, 1, 1)])
    topo, paths, scenarios, programs = pipeline(g)
    report = run_frames(topo, programs, paths, scenarios, n_frames=1)
    p = paths[0]
    segments = p.cmax - p.cmin
    rungs = len({p.cmin, p.cmax})
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
    scenarios, vectors = grouped(paths, topo)
    programs = encode_scenarios(vectors, partition_regions(topo, 1), topo)
    report = run_frames(topo, programs, paths, scenarios, n_frames=1)
    assert report.energy == 1
    assert report.delivered == {0: 1}


def test_corrupted_scenario_detects_collision():
    # two connections out of one cluster, forced into one scenario
    g = make_cluster_graph(3, [(0, 1, 1), (0, 2, 1)])
    topo = build_topology(4, 2)
    placement = place_anneal(g, topo, seed=0)
    paths = extract_paths(g, topo, placement)
    merged = tuple(sorted(p.edge_id for p in paths))
    matrix = scenario_switch_matrix((merged,), paths, topo)
    programs = encode_scenarios(matrix, partition_regions(topo, 1), topo)
    report = run_frames(topo, programs, paths, (merged,), n_frames=1)
    assert report.collisions >= 1
    assert any(ev["resource"][0] == "rung" for ev in report.collision_events)
    # neither connection is cleanly delivered over a doubly-driven chain
    assert all(v == 0 for v in report.delivered.values())


def test_chain_with_two_drivers_delivers_neither():
    # members on columns 0-1 and on column 2 alone claim nothing in common;
    # idle switches of lane 1 then link rungs 1 and 2 into one chain
    topo = build_topology(6, 2)
    paths = [RoutedPath(0, 0, 2, lane=0, cmin=0, cmax=1), RoutedPath(1, 4, 5, lane=0, cmin=2, cmax=2)]
    matrix = scenario_switch_matrix(((0, 1),), paths, topo)
    delivered = []
    for linked in (False, True):
        if linked:
            topo.switch_grid(matrix)[0, 1, 1:3] = SwitchState.RIGHT_RUNG, SwitchState.LEFT_RUNG
        programs = encode_scenarios(matrix, partition_regions(topo, 1), topo)
        report = run_frames(topo, programs, paths, ((0, 1),), n_frames=1)
        assert report.collisions == 0
        delivered.append(report.delivered)
    assert delivered == [{0: 1, 1: 1}, {0: 0, 1: 0}]


def test_end_to_end_three_frames():
    g = generate_synthetic(40, 160, seed=1)
    topo, paths, scenarios, programs = pipeline(g, seed=2)
    report = run_frames(topo, programs, paths, scenarios, n_frames=3)
    assert report.collisions == 0
    assert report.frame_length == len(scenarios)
    assert report.steps == 3 * len(scenarios)
    assert all(count == 3 for count in report.delivered.values())
    assert len(report.delivered) == 160


def test_deterministic_reports():
    g = generate_synthetic(14, 41, seed=3)
    topo, paths, scenarios, programs = pipeline(g, seed=3)
    r1 = run_frames(topo, programs, paths, scenarios, n_frames=2)
    r2 = run_frames(topo, programs, paths, scenarios, n_frames=2)
    assert r1 == r2


def test_trace_energy_recount():
    g = generate_synthetic(24, 100, seed=5)
    topo, paths, scenarios, programs = pipeline(g, seed=5)
    buf = io.StringIO()
    report = run_frames(topo, programs, paths, scenarios, n_frames=2, trace=buf)
    recount = 0
    for line in buf.getvalue().splitlines():
        fields = dict(part.split("=", 1) for part in line.split())
        recount += int(fields["active"])
    assert recount == report.energy
    assert report.per_step_active == [
        int(dict(part.split("=", 1) for part in line.split())["active"])
        for line in buf.getvalue().splitlines()
    ]


def test_zero_scenarios_trivially_clean():
    g = make_cluster_graph(4, [])
    topo, paths, scenarios, programs = pipeline(g)
    assert scenarios == ()
    report = run_frames(topo, programs, paths, scenarios, n_frames=2)
    assert report.steps == 0
    assert report.collisions == 0
    assert report.energy == 0


def test_decode_rejects_disagreeing_memories_even_when_first_is_empty():
    g = generate_synthetic(10, 20, seed=7)
    topo, paths, scenarios, programs = pipeline(g, seed=7, n_regions=2)
    empty = dataclasses.replace(programs[0], memory=())
    with pytest.raises(ValueError, match="disagree"):
        decode_programs([empty, programs[1]], topo)


def test_left_rung_on_column_zero_rejected():
    g = make_cluster_graph(2, [(0, 1, 1)])
    topo = build_topology(4, 2)
    paths = extract_paths(g, topo, place_anneal(g, topo, seed=0))
    vec = np.zeros((1, topo.n_switches), dtype=np.int8)  # all IDLE
    topo.switch_grid(vec)[0, 1, 0] = SwitchState.LEFT_RUNG
    programs = encode_scenarios(vec, partition_regions(topo, 2), topo)
    with pytest.raises(ValueError, match="lane 1, column 0"):
        run_frames(topo, programs, paths, ((0,),), n_frames=1)


@pytest.mark.parametrize("bad, named", [
    ({(0, 1): SwitchState.RIGHT_RUNG, (1, 0): SwitchState.LEFT_RIGHT}, "lane 0, column 1"),
    ({(1, 0): SwitchState.LEFT_RUNG, (1, 1): SwitchState.LEFT_RIGHT}, "lane 1, column 0"),
])
def test_illegal_edge_state_names_lowest_lane_then_column_zero(bad, named):
    g = make_cluster_graph(2, [(0, 1, 1)])
    topo = build_topology(4, 2)
    paths = extract_paths(g, topo, place_anneal(g, topo, seed=0))
    vec = np.zeros((1, topo.n_switches), dtype=np.int8)  # all IDLE
    for (lane, column), state in bad.items():
        topo.switch_grid(vec)[0, lane, column] = state
    programs = encode_scenarios(vec, partition_regions(topo, 1), topo)
    with pytest.raises(ValueError, match=named):
        run_frames(topo, programs, paths, ((0,),), n_frames=1)


def _legal_states(column, n_columns):
    """Switch states whose ports all exist at this column."""
    states = set(SwitchState)
    if column == 0:
        states -= {SwitchState.LEFT_RIGHT, SwitchState.LEFT_RUNG}
    if column == n_columns - 1:
        states -= {SwitchState.LEFT_RIGHT, SwitchState.RIGHT_RUNG}
    return sorted(states)


@st.composite
def sim_instances(draw):
    """Paths on a ladder of 1-4 lanes, a random (often conflicting) partition
    into scenarios stored in a random order, and per scenario a vector
    realized from its members (later members overwrite earlier ones),
    arbitrary with legal edge columns, or realized with arbitrary legal
    states on the idle switches."""
    topo, paths = draw(ladder_paths())
    cols = topo.n_columns
    k = draw(st.integers(1, max(1, len(paths))))
    owner = draw(st.lists(st.integers(0, k - 1), min_size=len(paths), max_size=len(paths)))
    scenarios = tuple(tuple(pid for pid, s in enumerate(owner) if s == i) for i in range(k))
    vectors = []
    for members in scenarios:
        vec = [SwitchState.IDLE] * topo.n_switches
        realized = draw(st.booleans())
        if realized:
            for pid in members:
                p = paths[pid]
                if p.cmin < p.cmax:
                    base = p.lane * cols
                    vec[base + p.cmin] = SwitchState.RIGHT_RUNG
                    vec[base + p.cmax] = SwitchState.LEFT_RUNG
                    for c in range(p.cmin + 1, p.cmax):
                        vec[base + c] = SwitchState.LEFT_RIGHT
        if not realized or draw(st.booleans()):
            # arbitrary states on the idle switches, which can join members' chains
            vec = [draw(st.sampled_from(_legal_states(idx % cols, cols))) if state == SwitchState.IDLE else state
                   for idx, state in enumerate(vec)]
        vectors.append(tuple(int(state) for state in vec))
    # the partition in any order: a frame steps through it as stored
    order = draw(st.permutations(range(k)))
    scenarios, vectors = tuple(scenarios[i] for i in order), [vectors[i] for i in order]
    n_ctrl = draw(st.integers(1, cols))
    n_frames = draw(st.integers(0, 3))
    return topo, paths, scenarios, vectors, n_ctrl, n_frames


@settings(max_examples=200, deadline=None)
@given(sim_instances())
def test_run_frames_matches_step_oracle(instance):
    topo, paths, scenarios, vectors, n_ctrl, n_frames = instance
    programs = encode_scenarios(np.array(vectors, dtype=np.int8), partition_regions(topo, n_ctrl), topo)
    report = run_frames(topo, programs, paths, scenarios, n_frames)

    steps = list(range(len(scenarios))) * n_frames
    delivered = {p.edge_id: 0 for p in paths}
    events, active_per_step = [], []
    for step, scen in enumerate(steps):
        collided, delivered_ids, active = oracle_sim_step(topo, vectors[scen], scenarios[scen], paths)
        events += [{"step": step, "scenario": scen, "resource": list(res), "claims": n} for res, n in collided]
        for pid in delivered_ids:
            delivered[pid] += 1
        active_per_step.append(active)
    assert report.steps == len(steps)
    assert report.frame_length == len(scenarios)
    assert report.delivered == delivered
    assert report.collisions == len(events)
    assert report.collision_events == events
    assert report.per_step_active == active_per_step
    assert report.energy == sum(active_per_step)


@pytest.fixture(scope="module")
def large_frames():
    """A large-shaped instance (n=400, E=12000, first-fit scenarios) twice
    over: as grouped, and corrupted by merging scenarios pairwise (so
    members overlap) and setting 2.5% of the switches to random legal
    states. Each comes as (scenarios, switch-state matrix)."""
    g = generate_synthetic(400, 12000, seed=0)
    topo = build_topology(400)
    paths = extract_paths(g, topo, place_greedy(g, topo))
    scenarios = group_greedy(paths).scenarios
    merged = tuple(sum(scenarios[k:k + 2], ()) for k in range(0, len(scenarios), 2))
    corrupted = scenario_switch_matrix(merged, paths, topo)  # later members overwrite earlier ones
    rng = np.random.default_rng(0)
    cols = topo.n_columns
    for k, idx in zip(*np.nonzero(rng.random(corrupted.shape) < 0.025)):
        corrupted[k, idx] = rng.choice(_legal_states(idx % cols, cols))
    return topo, paths, {"realized": (scenarios, scenario_switch_matrix(scenarios, paths, topo)),
                         "corrupted": (merged, corrupted)}


@pytest.mark.parametrize("kind", ["realized", "corrupted"])
def test_large_frame_matches_step_oracle(large_frames, kind):
    topo, paths, frames = large_frames
    scenarios, matrix = frames[kind]
    assert len(scenarios) > 3 * (SCAN_SWITCHES // topo.n_switches)  # the link scan takes several blocks
    programs = encode_scenarios(matrix, partition_regions(topo, default_controller_count(topo)), topo)
    report = run_frames(topo, programs, paths, scenarios, n_frames=1)

    delivered = {p.edge_id: 0 for p in paths}
    events, active_per_step = [], []
    for k, members in enumerate(scenarios):
        collided, delivered_ids, active = oracle_sim_step(topo, matrix[k].tolist(), members, paths)
        events += [{"step": k, "scenario": k, "resource": list(res), "claims": n} for res, n in collided]
        for pid in delivered_ids:
            delivered[pid] += 1
        active_per_step.append(active)
    assert report.collision_events == events
    assert report.collisions == len(events)
    assert report.delivered == delivered
    assert report.per_step_active == active_per_step
    assert report.energy == sum(active_per_step)
    if kind == "realized":
        assert not events and all(delivered.values())
    else:  # the corruption reaches both outcomes
        assert events and 0 < sum(delivered.values()) < len(paths)


def test_run_frames_memory_at_large_size(large_frames):
    # three frames of the n=400, E=12000 instance (334 scenarios): the decoded
    # int8 matrix is 1.34 MB, and the whole run peaked at 3.80 MB of traced
    # memory, most of the rest being the report's per-path delivery counts.
    # Dense int64 (scenario x column) audit arrays or per-switch index arrays
    # would add megabytes.
    topo, paths, frames = large_frames
    scenarios, matrix = frames["realized"]
    programs = encode_scenarios(matrix, partition_regions(topo, default_controller_count(topo)), topo)
    tracemalloc.start()
    try:
        run_frames(topo, programs, paths, scenarios, n_frames=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4.4e6


def test_paths_out_of_edge_id_order_rejected():
    g = make_cluster_graph(3, [(0, 1, 1), (1, 2, 1)])
    topo, paths, scenarios, programs = pipeline(g)
    with pytest.raises(ValueError, match="edge-id order"):
        run_frames(topo, programs, paths[::-1], scenarios, n_frames=1)


def test_scenario_naming_an_unknown_path_rejected():
    g = make_cluster_graph(3, [(0, 1, 1), (1, 2, 1)])
    topo, paths, scenarios, programs = pipeline(g)
    with pytest.raises(ValueError, match=r"path id outside 0\.\.1"):
        run_frames(topo, programs, paths[:2], scenarios[:-1] + (scenarios[-1] + (2,),), n_frames=1)
