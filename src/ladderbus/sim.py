"""Discrete-time execution of controller programs on the ladder.

One simulator step applies one scenario: the global switch vector is
reassembled from every controller's memory word (exercising the
region encoding), and each of the scenario's connections is checked to
be delivered over a chain with exactly one driver. The simulator takes
only the scenarios' memberships (path ids per scenario); their switch
vectors come from the programs alone. Any resource claimed
by two connections in the same step is a collision. Energy is a
structural proxy: the number of activated segments and rungs, summed
over steps.

A frame steps through the scenarios in stored order, one per step. A
step's outcome depends only on its scenario (decoded vector and
members), so each scenario is audited once, in the first frame, and
every later step replays that result. The audit views the
scenario's row of the decoded int8 switch-state matrix as a lanes x
columns array (LadderTopology.switch_grid), without a copy. Chains only
meet at rungs: on one lane, a RIGHT_RUNG switch followed by a run of
LEFT_RIGHT switches and a LEFT_RUNG switch links the two rungs it turns
onto. A member (lane, cmin, cmax) claims the rungs of cmin and cmax,
the switches of its lane over [cmin, cmax] (a same-column member
reserves its one switch: bufferless switches cannot be time-multiplexed
within a scenario) and the segments over [cmin, cmax), so the claims
are counted per column and per lane from interval end counts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import IO

import numpy as np

from .controlgen import ControllerProgram, decode_programs
from .routing import RoutedPath
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


def _audit(topo: LadderTopology, vector: np.ndarray, members, geometry: dict):
    """(collided (resource, claims) pairs in rung, seg, sw order, each by lane
    and column; delivered ids; active segment and rung count) of one step
    applying this scenario. geometry maps a path id to (lane, cmin, cmax,
    source column, destination column)."""
    lanes, cols = topo.n_lanes, topo.n_columns
    state = topo.switch_grid(vector)
    bad_first = np.isin(state[:, 0], (SwitchState.LEFT_RIGHT, SwitchState.LEFT_RUNG))
    bad_last = np.isin(state[:, -1], (SwitchState.LEFT_RIGHT, SwitchState.RIGHT_RUNG))
    bad = np.flatnonzero(bad_first | bad_last)
    if bad.size:
        lane = int(bad[0])
        c = 0 if bad_first[lane] else cols - 1
        raise ValueError(f"switch (lane {lane}, column {c}) in state {SwitchState(state[lane, c]).name} "
                         "references a nonexistent segment")

    parent = list(range(cols))  # union-find over rung columns

    def find(c: int) -> int:
        while parent[c] != c:
            parent[c] = parent[parent[c]]
            c = parent[c]
        return c

    # a rung link: RIGHT_RUNG, then LEFT_RUNG as the lane's next non-LEFT_RIGHT switch;
    # a lane's last switch is neither (checked above), so no link crosses lanes
    turn_lane, turn_col = np.nonzero(state != SwitchState.LEFT_RIGHT)
    turns = state[turn_lane, turn_col]
    link = (turns[:-1] == SwitchState.RIGHT_RUNG) & (turns[1:] == SwitchState.LEFT_RUNG)
    for a, b in zip(turn_col[:-1][link].tolist(), turn_col[1:][link].tolist()):
        parent[find(a)] = find(b)
    root = np.array([find(c) for c in range(cols)])

    lane, cmin, cmax, src, dst = np.array([geometry[pid] for pid in members], dtype=np.intp).reshape(-1, 5).T
    rung = np.bincount(cmin, minlength=cols) + np.bincount(cmax[cmax != cmin], minlength=cols)
    starts = np.bincount(lane * cols + cmin, minlength=lanes * cols).reshape(lanes, cols)
    stops = np.bincount(lane * cols + cmax, minlength=lanes * cols).reshape(lanes, cols)
    seg = np.cumsum(starts - stops, axis=1)  # claims on the segment right of each switch; 0 in the last column
    sw = seg + stops
    collided = []
    for name, counts in (("rung", rung), ("seg", seg), ("sw", sw)):
        at = np.nonzero(counts > 1)  # (column,) or (lane, column) index arrays, row-major
        collided += [((name, *where), n) for *where, n in zip(*(a.tolist() for a in at), counts[at].tolist())]

    # a shared segment shares both its end switches, so rungs and switches decide
    shared_sw = np.pad(np.cumsum(sw > 1, axis=1), ((0, 0), (1, 0)))
    clean = (rung[cmin] == 1) & (rung[cmax] == 1) & (shared_sw[lane, cmax + 1] == shared_sw[lane, cmin])
    src_root = root[src]
    drivers = np.bincount(src_root, minlength=cols)
    ok = (src_root == root[dst]) & (drivers[src_root] == 1) & clean
    delivered = [pid for pid, hit in zip(members, ok.tolist()) if hit]
    active = int(np.count_nonzero(rung) + np.count_nonzero(seg))
    return collided, delivered, active


def run_frames(
    topo: LadderTopology,
    programs: list[ControllerProgram],
    paths: list[RoutedPath],
    scenarios: tuple[tuple[int, ...], ...],
    n_frames: int,
    trace: IO[str] | None = None,
) -> SimReport:
    """Execute n_frames, each one step per scenario in stored order, and audit
    every step; scenarios holds each scenario's path ids, in the programs'
    scenario order."""
    # reassemble from controller memories so the region encoding is on the
    # executed path; decoding rejects programs that do not cover the ladder
    matrix = decode_programs(programs, topo)
    n_scen = len(scenarios)
    if len(matrix) != n_scen:
        raise ValueError("program memory does not match scenario count")

    geometry = {p.edge_id: (p.lane, p.cmin, p.cmax, tile_column(topo, p.src_tile), tile_column(topo, p.dst_tile))
                for p in paths}

    report = SimReport(n_frames=n_frames, frame_length=n_scen, delivered={p.edge_id: 0 for p in paths})
    outcomes: list[tuple] = []  # _audit result of scenario k, from the first frame on
    step_no = 0
    for frame in range(n_frames):
        for scen_idx in range(n_scen):
            if frame == 0:
                outcomes.append(_audit(topo, matrix[scen_idx], scenarios[scen_idx], geometry))
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
