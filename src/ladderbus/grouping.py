"""Partitioning routed paths into non-intersecting switching scenarios.

Two routed paths intersect iff they share an endpoint column (its rung)
or run on one lane with overlapping column intervals. A scenario is a
set of pairwise non-intersecting paths, and a grouping is a Partition of
the paths into scenarios.

The groupers and scenario validation read that rule off the ladder's
structure and build no conflict graph. First-fit places each path, in a
given order, in the lowest scenario it does not intersect, found from
one mask of scenarios per rung column and one per (lane, column).
group_greedy runs it in id order. group_iterated is iterated greedy
(Culberson and Luo 1996): it re-runs first-fit over the paths whole
scenario by whole scenario, which never needs more scenarios than the
round before, and rotates the scenario order between reversed, largest
first and a seeded shuffle. It stops at the bound or after STALL_ROUNDS
rounds without a gain, so a grouping depends on its input alone. validate_scenario_set checks that no rung column is an endpoint
of two members of a scenario and that on each lane the members' closed
intervals are disjoint.
scenario_lower_bound is the structural bound B, the size of the largest
rung star or lane cover: every path of one pairwise intersects every
other, so every grouping needs at least B scenarios.
Partition is the one scenario-set type. Its switch vectors are one
(n_scenarios, n_switches) int8 matrix, row k the 2-bit states scenario k
sets, written by scenario_switch_matrix alone. The scenarios.json record
pairs the stored partition with each row run-length encoded;
compressed_scenario_bits counts that record's runs. Loading the record
gives back the partition alone: the controller compiler rebuilds the
matrix from its memberships, and the simulator takes the memberships.

First-fit's sets of scenarios are bitmasks (Python ints). No bitset
step takes a negative operand: CPython evaluates & and | with one by
two's-complement copies, so at 12,000 bits q & ~a costs three times
q ^ (q & a). The lowest non-member of q is (q ^ (q + 1)).bit_length() - 1.
"""

from __future__ import annotations

import random
from collections import defaultdict
from dataclasses import dataclass
from functools import reduce
from itertools import accumulate, chain, repeat
from operator import or_

import numpy as np

from .routing import RoutedPath
from .topology import LEFT_RIGHT, LEFT_RUNG, RIGHT_RUNG, LadderTopology


@dataclass(frozen=True)
class GroupingStats:
    """What group_iterated's search did."""

    rounds: int  # first-fit re-runs after the start


@dataclass(frozen=True)
class Partition:
    """A grouper's result: path ids per scenario, each sorted, in scenario order."""

    scenarios: tuple[tuple[int, ...], ...]
    algorithm: str
    stats: GroupingStats | None = None  # None for first-fit, which searches nothing

    @property
    def n_scenarios(self) -> int:
        return len(self.scenarios)


def _check_vertex_ids(paths: list[RoutedPath]) -> None:
    for i, p in enumerate(paths):
        if p.edge_id != i:
            raise ValueError(f"path at position {i} has edge id {p.edge_id}; pass paths in edge-id order")
        if not 0 <= p.cmin <= p.cmax:
            raise ValueError(f"path {i} has column interval [{p.cmin}, {p.cmax}]")


# ---------------------------------------------------------------------------
# scenario assembly


def scenario_switch_matrix(scenarios, paths: list[RoutedPath], topo: LadderTopology) -> np.ndarray:
    """(n_scenarios, n_switches) int8 matrix, row k the states scenario k sets:
    the one writer of a path's switch states. Each member writes its lane's
    columns cmin..cmax of row k's switch_grid view as one run, RIGHT_RUNG,
    LEFT_RIGHT inside, LEFT_RUNG; a same-column path travels over its rung
    alone and sets no switch, and every switch no member writes stays IDLE.

    Precondition: no two members of a scenario intersect
    (validate_scenario_set), so no two members write one switch; sim
    audits the realized chains on its own. Raises ValueError naming the first
    path whose lane or column interval lies off the ladder."""
    for pid, p in enumerate(paths):
        if not (0 <= p.lane < topo.n_lanes and 0 <= p.cmin <= p.cmax < topo.n_columns):
            raise ValueError(f"path {pid}: lane {p.lane}, columns [{p.cmin}, {p.cmax}] are not an interval "
                             f"of the {topo.n_lanes}-lane, {topo.n_columns}-column ladder")
    matrix = np.zeros((len(scenarios), topo.n_switches), dtype=np.int8)  # all IDLE
    grid = topo.switch_grid(matrix)
    for k, members in enumerate(scenarios):
        for pid in members:
            p = paths[pid]
            if p.cmin < p.cmax:
                run = grid[k, p.lane, p.cmin:p.cmax + 1]
                run[0] = RIGHT_RUNG
                run[1:-1] = LEFT_RIGHT
                run[-1] = LEFT_RUNG
    return matrix


def validate_scenario_set(scenarios, paths: list[RoutedPath]) -> None:
    """Raise ValueError unless scenarios partition the paths into sets of
    pairwise non-intersecting paths: within each scenario no rung column is an
    endpoint of two members, and on each lane the members' closed column
    intervals are disjoint. The error names the first such scenario and two of
    its members that intersect."""
    _check_vertex_ids(paths)
    flat = [pid for s in scenarios for pid in s]
    if sorted(flat) != list(range(len(paths))):
        raise ValueError("scenarios do not partition the path set")
    for k, s in enumerate(scenarios):
        rung: dict[int, int] = {}  # column -> the member with an endpoint there
        spans = sorted((paths[pid].lane, paths[pid].cmin, paths[pid].cmax, pid) for pid in s)
        for _lane, lo, hi, pid in spans:
            for c in (lo, hi) if lo < hi else (lo,):
                other = rung.setdefault(c, pid)
                if other != pid:
                    raise ValueError(f"scenario {k}: paths {other} and {pid} intersect")
        # sorted by cmin, a lane's intervals are disjoint iff each ends before the next starts
        for (lane, _lo, hi, a), (next_lane, next_lo, _hi, b) in zip(spans, spans[1:]):
            if lane == next_lane and next_lo <= hi:
                raise ValueError(f"scenario {k}: paths {a} and {b} intersect")


# ---------------------------------------------------------------------------
# grouping algorithms


def _first_fit(paths: list[RoutedPath], order) -> list[list[int]]:
    """First-fit: each path id of order joins the lowest scenario it does not
    intersect. A mask of scenarios per rung column and per (lane, column)
    records which scenarios already use it, so a path's blocked scenarios are
    the OR of its two rung masks and of its lane's masks over [cmin, cmax].
    Each scenario lists its members in the order they joined."""
    n_cols = max((p.cmax for p in paths), default=-1) + 1
    rung = [0] * n_cols  # per column, the scenarios with a member ending on its rung
    lanes: defaultdict[int, list[int]] = defaultdict(lambda: [0] * n_cols)  # per lane and column, covering
    scenarios: list[list[int]] = []
    for i in order:
        p = paths[i]
        lo, hi, occ = p.cmin, p.cmax, lanes[p.lane]
        span = occ[lo:hi + 1]
        blocked = reduce(or_, span, rung[lo] | rung[hi])
        k = (blocked ^ (blocked + 1)).bit_length() - 1
        bit = 1 << k
        rung[lo] |= bit
        rung[hi] |= bit
        occ[lo:hi + 1] = map(or_, span, repeat(bit))
        if k == len(scenarios):
            scenarios.append([])
        scenarios[k].append(i)
    return scenarios


def group_greedy(paths: list[RoutedPath]) -> Partition:
    """First-fit in id order; it searches nothing, so its Partition has no stats."""
    _check_vertex_ids(paths)
    return Partition(tuple(map(tuple, _first_fit(paths, range(len(paths))))), "greedy")


STALL_ROUNDS = 10  # rounds without a gain before group_iterated stops
SHUFFLE_SEED = 0  # of group_iterated's shuffled rounds


def group_iterated(paths: list[RoutedPath], bound: int, start: Partition) -> Partition:
    """Iterated first-fit from `start`, a partition whose scenarios' members
    do not intersect (group_paths passes group_greedy's). Round r re-runs
    first-fit over the paths scenario by scenario, in the previous round's
    scenario order reversed (r % 3 == 0), largest first (r % 3 == 1, ties in
    that order) or shuffled by a Random(SHUFFLE_SEED) made per call; each
    member keeps its place in its scenario. The members of one scenario do
    not intersect, so first-fit over whole scenarios opens at most one new
    scenario per scenario it takes: no round needs more than the last.
    Stops once `bound` scenarios remain (pass scenario_lower_bound(paths),
    which no grouping goes below) or after STALL_ROUNDS rounds in a row
    without a gain."""
    _check_vertex_ids(paths)
    scenarios = list(start.scenarios)
    rng = random.Random(SHUFFLE_SEED)
    rounds = stalled = 0
    while len(scenarios) > bound and stalled < STALL_ROUNDS:
        if rounds % 3 == 0:
            scenarios.reverse()
        elif rounds % 3 == 1:
            scenarios.sort(key=len, reverse=True)
        else:
            rng.shuffle(scenarios)
        again = _first_fit(paths, chain.from_iterable(scenarios))
        stalled = 0 if len(again) < len(scenarios) else stalled + 1
        scenarios = again
        rounds += 1
    return Partition(tuple(tuple(sorted(s)) for s in scenarios), "iterated", GroupingStats(rounds))


GROUPING_ALGORITHMS = ("greedy", "iterated")


def check_algorithm(algorithm: str) -> None:
    """Raise ValueError unless algorithm is one of GROUPING_ALGORITHMS."""
    if algorithm not in GROUPING_ALGORITHMS:
        raise ValueError(f"unknown grouping algorithm '{algorithm}' (choose from {', '.join(GROUPING_ALGORITHMS)})")


def group_paths(algorithms: list[str], paths: list[RoutedPath], bound: int) -> dict[str, Partition]:
    """Run the GROUPING_ALGORITHMS named in `algorithms` on the routed paths,
    whose scenario_lower_bound is `bound` (iterated stops there); their
    partitions by name, in the order named. First-fit runs once: its
    partition is greedy's and the iterated search's start. The functions are
    looked up in this module at call time, so rebinding (e.g. wrapping) one
    reaches every caller."""
    for algorithm in algorithms:
        check_algorithm(algorithm)
    greedy = group_greedy(paths)
    return {a: greedy if a == "greedy" else group_iterated(paths, bound, greedy) for a in algorithms}


def scenario_lower_bound(paths: list[RoutedPath]) -> int:
    """Bound B: the larger of the column star load (paths with an endpoint in
    one column share its rung) and the lane point cover (paths on one lane
    covering one column pairwise overlap). Either set's paths pairwise
    intersect, so every grouping needs B scenarios, and B is at least the
    largest total cluster degree."""
    n_cols = max((p.cmax for p in paths), default=-1) + 1
    star = [0] * n_cols
    cover: dict[int, list[int]] = {}  # lane -> +1 at cmin, -1 after cmax
    for p in paths:
        star[p.cmin] += 1
        if p.cmax != p.cmin:
            star[p.cmax] += 1
        ends = cover.setdefault(p.lane, [0] * (n_cols + 1))
        ends[p.cmin] += 1
        ends[p.cmax + 1] -= 1
    return max([*star, *(max(accumulate(ends)) for ends in cover.values())], default=0)


# ---------------------------------------------------------------------------
# serialization (run-length encoded switch vectors)


def rle_encode(vec) -> list[list[int]]:
    """[[state, run], ...] covering the vector in order."""
    vec = np.asarray(vec)
    if not vec.size:
        return []
    bounds = np.concatenate(([0], np.flatnonzero(vec[1:] != vec[:-1]) + 1, [vec.size]))  # run starts, then the end
    return [[state, run] for state, run in zip(vec[bounds[:-1]].tolist(), np.diff(bounds).tolist())]


def raw_scenario_bits(n_scenarios: int, topo: LadderTopology) -> int:
    """Uncompressed control memory: 2 bits per switch per scenario."""
    return n_scenarios * 2 * topo.n_switches


def compressed_scenario_bits(rec: dict, topo: LadderTopology) -> int:
    """Run-length encoded size of a scenario_set_record: each run costs 2
    state bits plus a length field wide enough to span the whole vector."""
    length_bits = max((topo.n_switches - 1).bit_length(), 1)
    return sum(len(s["switches_rle"]) for s in rec["scenarios"]) * (2 + length_bits)


def scenario_set_record(partition: Partition, matrix: np.ndarray) -> dict:
    """Serialized pipeline-state form of a partition and its switch-state
    matrix, one row per scenario, and of its stats if it has any."""
    rec = {
        "algorithm": partition.algorithm,
        "scenarios": [
            {"paths": list(s), "switches_rle": rle_encode(vec)}
            for s, vec in zip(partition.scenarios, matrix)
        ],
    }
    if partition.stats is not None:
        rec["stats"] = {"rounds": partition.stats.rounds}
    return rec


def partition_from_record(rec: dict, n_paths: int) -> Partition:
    """The partition a scenario_set_record stores, for n_paths routed paths;
    its switch runs are not read. Raises ValueError naming the first scenario
    whose path ids do not fit."""
    for k, s in enumerate(rec["scenarios"]):
        if not isinstance(s, dict) or not isinstance(s.get("paths"), list):
            raise ValueError(f"scenario {k}: needs the list 'paths'")
        for pid in s["paths"]:
            if type(pid) is not int or not 0 <= pid < n_paths:  # JSON true/false are not ids
                raise ValueError(f"scenario {k}: path id {pid!r} is not one of the {n_paths} routed paths")
    stats = rec.get("stats")
    if stats is not None:
        rounds = stats.get("rounds") if isinstance(stats, dict) else None
        if type(rounds) is not int:
            raise ValueError("'stats' needs the integer 'rounds'")
        stats = GroupingStats(rounds)
    return Partition(tuple(tuple(s["paths"]) for s in rec["scenarios"]), rec.get("algorithm", ""), stats)
