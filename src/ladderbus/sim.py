"""Discrete-time execution of controller programs on the ladder.

One simulator step applies one scenario: the global switch vector is
reassembled from every controller's memory word (exercising the
region encoding), and each of the scenario's connections is checked to
be delivered over a chain with exactly one driver. Any resource claimed
by two connections in the same step is a collision. Energy is a
structural proxy: the number of activated segments and rungs, summed
over steps.

A step's outcome depends only on its scenario (decoded vector and
members), so each scenario is audited once, the first time the schedule
reaches it, and every step replays that result. Chains only meet at
rungs: on one lane, a RIGHT_RUNG switch followed by a run of LEFT_RIGHT
switches and a LEFT_RUNG switch links the two rungs it turns onto, so
rung connectivity comes from one scan per lane.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import IO

from .controlgen import ControllerProgram, decode_programs
from .grouping import ScenarioSet
from .routing import RoutedPath, path_resources
from .topology import LadderTopology, SwitchState, tile_column


@dataclass
class SimReport:
    steps: int = 0
    n_frames: int = 0
    frame_length: int = 0
    delivered: dict[int, int] = field(default_factory=dict)  # edge id -> count
    collisions: int = 0
    collision_events: list[dict] = field(default_factory=list)
    per_step_active: list[int] = field(default_factory=list)
    energy: int = 0


def _audit(topo: LadderTopology, vector, members, resources: dict, ends: dict):
    """(collided (resource, claims) pairs sorted by resource, delivered ids,
    active segment and rung count) of one step applying this scenario."""
    cols = topo.n_columns
    parent = list(range(cols))  # union-find over rung columns

    def find(c: int) -> int:
        while parent[c] != c:
            parent[c] = parent[parent[c]]
            c = parent[c]
        return c

    for lane in range(topo.n_lanes):
        base = topo.switch_index(lane, 0)
        row = vector[base:base + cols]
        for c, uses in ((0, (SwitchState.LEFT_RIGHT, SwitchState.LEFT_RUNG)),
                        (cols - 1, (SwitchState.LEFT_RIGHT, SwitchState.RIGHT_RUNG))):
            if row[c] in uses:
                raise ValueError(f"switch (lane {lane}, column {c}) in state {SwitchState(row[c]).name} "
                                 "references a nonexistent segment")
        start = None  # rung the lane's open chain turned off, if any
        for c, state in enumerate(row):
            if state == SwitchState.RIGHT_RUNG:
                start = c
            elif state == SwitchState.LEFT_RUNG:
                if start is not None:
                    parent[find(start)] = find(c)
                start = None
            elif state == SwitchState.IDLE:
                start = None

    claims: Counter[tuple] = Counter()
    for pid in members:
        claims.update(resources[pid])
    collided = sorted((res, count) for res, count in claims.items() if count > 1)
    shared = {res for res, _count in collided}
    src_roots = [find(ends[pid][0]) for pid in members]
    drivers = Counter(src_roots)
    delivered = [
        pid for pid, root in zip(members, src_roots)
        if root == find(ends[pid][1]) and drivers[root] == 1
        and resources[pid].isdisjoint(shared)
    ]
    active = sum(1 for res in claims if res[0] in ("seg", "rung"))
    return collided, delivered, active


def run_frames(
    topo: LadderTopology,
    programs: list[ControllerProgram],
    paths: list[RoutedPath],
    sset: ScenarioSet,
    n_frames: int,
    cond_flags: list[bool] | None = None,
    trace: IO[str] | None = None,
) -> SimReport:
    """Execute n_frames of the replicated schedule and audit every step."""
    # reassemble from controller memories so the region encoding is on the
    # executed path; decoding rejects programs that do not cover the ladder
    vectors = decode_programs(programs, topo)
    schedule = programs[0].schedule
    for prog in programs[1:]:
        if prog.schedule != schedule:
            raise ValueError("inconsistent schedules across controllers (lockstep required)")
    n_scen = sset.n_scenarios
    if len(vectors) != n_scen:
        raise ValueError("program memory does not match scenario count")
    indices = [idx for idx, _rep in schedule.entries]
    if schedule.conditional is not None:
        indices.append(schedule.conditional[1])
    for idx in indices:
        if not (0 <= idx < n_scen):
            raise ValueError(f"unknown scenario index {idx} in schedule")
    if cond_flags is None:
        cond_flags = [False] * n_frames

    resources = {p.edge_id: path_resources(p, topo) for p in paths}
    ends = {p.edge_id: (tile_column(topo, p.src_tile), tile_column(topo, p.dst_tile)) for p in paths}

    report = SimReport(n_frames=n_frames, frame_length=schedule.frame_length,
                       delivered={p.edge_id: 0 for p in paths})
    outcomes: dict[int, tuple] = {}  # scenario index -> _audit result
    step_no = 0
    for frame in range(n_frames):
        flag = bool(cond_flags[frame]) if frame < len(cond_flags) else False
        for scen_idx in schedule.steps(flag_raised=flag):
            if scen_idx not in outcomes:
                outcomes[scen_idx] = _audit(topo, vectors[scen_idx], sset.scenarios[scen_idx], resources, ends)
            collided, delivered_ids, active = outcomes[scen_idx]
            report.collisions += len(collided)
            for res, count in collided:
                report.collision_events.append(
                    {"step": step_no, "scenario": scen_idx, "resource": list(res), "claims": count}
                )
            for pid in delivered_ids:
                report.delivered[pid] += 1
            report.per_step_active.append(active)
            report.energy += active
            if trace is not None:
                trace.write(
                    f"step={step_no} frame={frame} scenario={scen_idx} active={active} "
                    f"delivered={','.join(str(i) for i in delivered_ids)}\n"
                )
            step_no += 1
    report.steps = step_no
    return report
