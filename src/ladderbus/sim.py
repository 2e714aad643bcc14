"""Discrete-time execution of controller programs on the ladder.

One simulator step applies one scenario: the global switch vector is
reassembled from every controller's memory word (exercising the
region encoding), electrical chains are derived from the switch states,
and each of the scenario's connections is checked to be delivered over
a chain with exactly one driver. Any resource claimed by two
connections in the same step is a collision. Energy is a structural
proxy: the number of activated segments and rungs, summed over steps.
"""

from __future__ import annotations

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


class _UnionFind:
    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, x: int) -> int:
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, a: int, b: int) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[rb] = ra


def _chains(topo: LadderTopology, vector) -> _UnionFind:
    """Connected components over rungs and segments induced by switch states.

    Node ids: rung c -> c; segment (lane, i) -> n_columns + lane*(n_columns-1) + i.
    """
    cols = topo.n_columns
    uf = _UnionFind(cols + topo.n_segments)

    def seg(lane: int, i: int) -> int:
        if not (0 <= i < cols - 1):
            raise ValueError(f"switch state references nonexistent segment (lane {lane}, {i})")
        return cols + lane * (cols - 1) + i

    for idx, state in enumerate(vector):
        if state == SwitchState.IDLE:
            continue
        lane, c = topo.switch_id(idx)
        if state == SwitchState.LEFT_RIGHT:
            uf.union(seg(lane, c - 1), seg(lane, c))
        elif state == SwitchState.LEFT_RUNG:
            uf.union(seg(lane, c - 1), c)
        elif state == SwitchState.RIGHT_RUNG:
            uf.union(seg(lane, c), c)
        else:
            raise ValueError(f"unknown switch state {state}")
    return uf


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
    if not programs:
        raise ValueError("no controller programs")
    schedule = programs[0].schedule
    for prog in programs[1:]:
        if prog.schedule != schedule:
            raise ValueError("inconsistent schedules across controllers (lockstep required)")
    n_scen = sset.n_scenarios
    for prog in programs:
        if len(prog.memory) != n_scen:
            raise ValueError("program memory does not match scenario count")
    for idx, _rep in schedule.entries:
        if not (0 <= idx < n_scen):
            raise ValueError(f"unknown scenario index {idx} in schedule")
    if cond_flags is None:
        cond_flags = [False] * n_frames

    # reassemble from controller memories so the region encoding is on the
    # executed path, not just the generator
    vectors = decode_programs(programs, topo)
    resources = {p.edge_id: path_resources(p, topo) for p in paths}
    # endpoint columns per path; rung c is chain node c
    cols = {p.edge_id: (tile_column(topo, p.src_tile), tile_column(topo, p.dst_tile)) for p in paths}

    report = SimReport(n_frames=n_frames, frame_length=schedule.frame_length,
                       delivered={p.edge_id: 0 for p in paths})
    step_no = 0
    for frame in range(n_frames):
        flag = bool(cond_flags[frame]) if frame < len(cond_flags) else False
        for scen_idx in schedule.steps(flag_raised=flag):
            uf = _chains(topo, vectors[scen_idx])
            members = sset.scenarios[scen_idx]
            claims: dict[tuple, int] = {}
            for pid in members:
                for res in resources[pid]:
                    claims[res] = claims.get(res, 0) + 1
            for res, count in sorted(claims.items()):
                if count > 1:
                    report.collisions += 1
                    report.collision_events.append(
                        {"step": step_no, "scenario": scen_idx, "resource": list(res), "claims": count}
                    )
            drivers: dict[int, int] = {}  # chain root -> number of sources driving it
            for pid in members:
                root = uf.find(cols[pid][0])
                drivers[root] = drivers.get(root, 0) + 1
            delivered_ids = []
            for pid in members:
                src_root = uf.find(cols[pid][0])
                connected = src_root == uf.find(cols[pid][1])
                clean = all(claims[res] == 1 for res in resources[pid])
                if connected and drivers.get(src_root, 0) == 1 and clean:
                    report.delivered[pid] += 1
                    delivered_ids.append(pid)
            active = sum(1 for res in claims if res[0] in ("seg", "rung"))
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
