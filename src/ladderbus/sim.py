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
members), so the first frame is audited as a whole, in array passes
over all its scenarios at once, and every later frame replays that
result: energy, active counts and deliveries are multiplied out, and
only the scenarios that collided are looped over to list their events.

Chains only meet at rungs: on one lane, a RIGHT_RUNG switch whose next
switch that is not LEFT_RIGHT reads LEFT_RUNG links the two rungs it
turns onto. The scan finds those links from the two ends of each run of
LEFT_RIGHT switches, a block of whole scenarios of the decoded int8
switch-state matrix at a time, and connected rungs share a label found
by min-label propagation plus pointer jumping over (scenario, column)
nodes. A member (lane, cmin, cmax) claims the rungs of cmin and cmax
(one bincount over (scenario, column)), the switches of its lane over
[cmin, cmax] (a same-column member reserves its one switch: bufferless
switches cannot be time-multiplexed within a scenario) and the segments
over [cmin, cmax). Two members share a switch or a segment only if
their intervals on one (scenario, lane) overlap, so members are sorted
by cmin within each (scenario, lane) and neighbours compared; only the
rows with an overlap are counted column by column.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain
from typing import IO

import numpy as np

from .controlgen import ControllerProgram, decode_programs
from .routing import RoutedPath
from .topology import LEFT_RIGHT, LEFT_RUNG, RIGHT_RUNG, LadderTopology, SwitchState, tile_column

# switch states per block of the rung-link scan; a block is as many whole
# scenarios as fit, and at least one
SCAN_SWITCHES = 1 << 16


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


def _check_edge_states(topo: LadderTopology, matrix: np.ndarray) -> None:
    """Reject a switch whose state uses a segment left of column 0 or right of
    the last column: the lowest scenario's, then lane's, column 0 first."""
    grid = topo.switch_grid(matrix)
    first, last = grid[:, :, 0], grid[:, :, -1]
    bad_first = (first == LEFT_RIGHT) | (first == LEFT_RUNG)
    bad = np.flatnonzero(bad_first | (last == LEFT_RIGHT) | (last == RIGHT_RUNG))
    if bad.size:
        scen, lane = divmod(int(bad[0]), topo.n_lanes)
        c = 0 if bad_first[scen, lane] else topo.n_columns - 1
        raise ValueError(f"switch (lane {lane}, column {c}) in state {SwitchState(grid[scen, lane, c]).name} "
                         "references a nonexistent segment")


def _rung_links(topo: LadderTopology, matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The two rungs of every rung link in a frame, as (scenario, column)
    nodes scenario * n_columns + column. A lane's first switch is never
    LEFT_RIGHT and its last is neither LEFT_RIGHT nor RIGHT_RUNG (checked
    first), so in the row-major scan no run of LEFT_RIGHT switches and no
    link crosses a lane."""
    n_sw, cols = topo.n_switches, topo.n_columns
    per_block = max(1, SCAN_SWITCHES // n_sw)
    lefts, rights = [], []
    for first in range(0, len(matrix), per_block):
        x = matrix[first:first + per_block].ravel()
        turn = np.flatnonzero(x == RIGHT_RUNG)
        adjacent = turn[x[turn + 1] == LEFT_RUNG]  # links with no LEFT_RIGHT in between
        # the switches around each run of LEFT_RIGHT switches: before it, then its last one
        ends = np.flatnonzero(np.diff(x == LEFT_RIGHT))
        before, after = ends[0::2], ends[1::2] + 1
        linked = (x[before] == RIGHT_RUNG) & (x[after] == LEFT_RUNG)
        for side, at in ((lefts, np.concatenate((adjacent, before[linked]))),
                         (rights, np.concatenate((adjacent + 1, after[linked])))):
            side.append((at // n_sw + first) * cols + at % cols)
    return np.concatenate(lefts), np.concatenate(rights)


def _components(n_nodes: int, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Each node's component label (the least node of its component) for the
    undirected edges (u[i], v[i]): hook the larger root of every edge that
    spans two components onto the smaller, then point each node at its root."""
    label = np.arange(n_nodes, dtype=np.int32)
    while u.size:
        lu, lv = label[u], label[v]
        apart = lu != lv
        if not apart.any():
            break
        u, v, lu, lv = u[apart], v[apart], lu[apart], lv[apart]
        np.minimum.at(label, np.maximum(lu, lv), np.minimum(lu, lv))
        while True:
            up = label[label]
            if np.array_equal(up, label):
                break
            label = up
    return label


def _claims(n_scen: int, lanes: int, cols: int, scen, lane, cmin, cmax):
    """(members none of whose resources another member claims, active
    segment and rung count per scenario, {scenario: collided (resource,
    claims) pairs in rung, seg, sw order, each by lane and column}) of the
    members of a frame: member i of scenario scen[i] on lane[i] over
    [cmin[i], cmax[i]]."""
    lo_node, hi_node = scen * cols + cmin, scen * cols + cmax
    rung = np.bincount(np.concatenate((lo_node, hi_node[cmax != cmin])), minlength=n_scen * cols)
    clean = (rung[lo_node] == 1) & (rung[hi_node] == 1)
    active = np.count_nonzero(rung.reshape(n_scen, cols), axis=1)
    events: dict[int, list] = {}
    hot = np.flatnonzero(rung > 1)
    for k, c, n in zip((hot // cols).tolist(), (hot % cols).tolist(), rung[hot].tolist()):
        events.setdefault(k, []).append((("rung", c), n))

    # sorted by cmin within each (scenario, lane) row, a row holds two
    # overlapping members iff it holds two overlapping neighbours
    row = scen * lanes + lane
    order = np.argsort(row * cols + cmin)
    row_s, cmax_s = row[order], cmax[order]
    overlap = (row_s[1:] == row_s[:-1]) & (cmin[order[1:]] <= cmax_s[:-1])
    hit = np.zeros(n_scen * lanes, dtype=bool)
    hit[row_s[1:][overlap]] = True
    crowded = hit[row]
    span = cmax - cmin  # segments claimed: a member's own, on a row without overlap
    if crowded.any():
        rows = np.flatnonzero(hit)
        at = np.searchsorted(rows, row[crowded])
        lo, hi = cmin[crowded], cmax[crowded]
        starts = np.bincount(at * cols + lo, minlength=rows.size * cols).reshape(-1, cols)
        stops = np.bincount(at * cols + hi, minlength=rows.size * cols).reshape(-1, cols)
        seg = np.cumsum(starts - stops, axis=1)  # claims on the segment right of each switch; 0 in the last column
        sw = seg + stops
        for name, counts in (("seg", seg), ("sw", sw)):
            r, col = np.nonzero(counts > 1)  # row-major: by scenario, lane, column
            for k, ln, c, n in zip((rows[r] // lanes).tolist(), (rows[r] % lanes).tolist(), col.tolist(),
                                   counts[r, col].tolist()):
                events.setdefault(k, []).append(((name, ln, c), n))
        # a shared segment shares both its end switches, so rungs and switches decide
        shared = np.zeros((rows.size, cols + 1), dtype=np.intp)
        np.cumsum(sw > 1, axis=1, out=shared[:, 1:])
        clean[crowded] &= shared[at, hi + 1] == shared[at, lo]
        span[crowded] = 0
        np.add.at(active, rows // lanes, np.count_nonzero(seg, axis=1))
    np.add.at(active, scen, span)
    return clean, active, events


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
    scenario order, and path i has edge id i."""
    # reassemble from controller memories so the region encoding is on the
    # executed path; decoding rejects programs that do not cover the ladder
    matrix = decode_programs(programs, topo)
    n_scen, cols = len(scenarios), topo.n_columns
    if len(matrix) != n_scen:
        raise ValueError("program memory does not match scenario count")

    # one row per path: edge id, source and destination tile, lane, cmin, cmax
    table = np.fromiter(chain.from_iterable(paths), dtype=np.int32, count=6 * len(paths)).reshape(-1, 6)
    if not np.array_equal(table[:, 0], np.arange(len(paths))):
        raise ValueError("paths are not in edge-id order (path i has edge id i)")
    if table.size and not 0 <= table[:, 1:3].min() <= table[:, 1:3].max() < topo.n_tiles:
        for p in paths:  # raises naming the first tile out of range
            tile_column(topo, p.src_tile), tile_column(topo, p.dst_tile)
    table[:, 1:3] //= 2  # their columns: tile t sits in column t // 2

    report = SimReport(steps=n_frames * n_scen, n_frames=n_frames, frame_length=n_scen)
    counts = np.zeros(len(paths), dtype=np.intp)  # deliveries per path, all frames
    if n_frames and n_scen:
        _check_edge_states(topo, matrix)
        members = np.fromiter(chain.from_iterable(scenarios), dtype=np.int32)
        scen = np.repeat(np.arange(n_scen, dtype=np.int32), [len(m) for m in scenarios])
        if members.size and not 0 <= members.min() <= members.max() < len(paths):
            raise ValueError(f"scenarios name a path id outside 0..{len(paths) - 1}")
        src, dst, lane, cmin, cmax = table[members, 1:].T
        clean, active, events = _claims(n_scen, topo.n_lanes, cols, scen, lane, cmin, cmax)
        label = _components(n_scen * cols, *_rung_links(topo, matrix))
        src_root, dst_root = label[scen * cols + src], label[scen * cols + dst]
        delivered = (src_root == dst_root) & (np.bincount(src_root)[src_root] == 1) & clean  # one driver
        counts = np.bincount(members[delivered], minlength=len(paths)) * n_frames
        report.per_step_active = active.tolist() * n_frames
        report.energy = int(active.sum()) * n_frames
        for frame in range(n_frames):
            for k in sorted(events):
                report.collision_events += [{"step": frame * n_scen + k, "scenario": k, "resource": list(res),
                                             "claims": n} for res, n in events[k]]
        report.collisions = len(report.collision_events)
        if trace is not None:
            got = members[delivered].tolist()
            ends = np.cumsum(np.bincount(scen[delivered], minlength=n_scen)).tolist()
            tails = [f" scenario={k} active={n} delivered={','.join(map(str, got[lo:hi]))}\n"
                     for k, (n, lo, hi) in enumerate(zip(active.tolist(), [0] + ends, ends))]
            for frame in range(n_frames):
                for k, tail in enumerate(tails):
                    trace.write(f"step={frame * n_scen + k} frame={frame}{tail}")
    report.delivered = dict(enumerate(counts.tolist()))
    return report
