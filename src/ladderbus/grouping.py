"""Partitioning routed paths into non-intersecting switching scenarios.

Two routed paths intersect iff they share an endpoint column (its rung)
or run on one lane with overlapping column intervals. A scenario is a
set of pairwise non-intersecting paths, and a grouping is a Partition of
the paths into scenarios: a colouring of their conflict graph.

First-fit and scenario validation read that rule off the ladder's
structure and build no graph. group_greedy places each path, in id
order, in the lowest scenario it does not intersect, found from one
mask of scenarios per rung column and one per (lane, column): the same
partition as class-at-a-time colouring of the conflict graph
(_colour_classes over all paths). validate_scenario_set checks that no
rung column is an endpoint of two members of a scenario and that on
each lane the members' closed intervals are disjoint.

The conflict graph serves the iterated maximum-clique grouper alone
(each clique member must land in a distinct scenario). It is built from
the same structure, not from pairs: per-column buckets of the paths
ending on that column's rung, plus per-lane prefix masks over cmin and
suffix masks over cmax. The graph keeps the rung buckets
(ConflictGraph.rungs): each is a clique, and the largest one seeds the
clique search, which bounds its branches with _colour_classes. Each
clique is found in two passes, a colour-bounded branch and bound for
the clique number ω and then a member-by-member choice, in id order, of
the lexicographically first ω-clique; the search is exact within a
fixed count of search nodes, so a grouping depends on its input alone,
never on machine speed.
scenario_lower_bound is the structural bound B, the size of the largest
rung star or lane cover: both are cliques, so every grouping needs at
least B scenarios.
Partition is the one scenario-set type. Its switch vectors are one
(n_scenarios, n_switches) int8 matrix, row k the 2-bit states scenario k
sets, written by scenario_switch_matrix alone. The scenarios.json record
pairs the stored partition with each row run-length encoded;
compressed_scenario_bits counts that record's runs. Loading the record gives back (partition,
matrix): the controller compiler takes the matrix, the simulator the
memberships.

Sets of paths and of scenarios are bitmasks (Python ints): a graph's
adjacency per vertex, and first-fit's scenarios per rung and lane
column. No bitset step takes a negative operand: CPython evaluates &
and | with one by two's-complement copies, so at 12,000 bits q & ~a
costs three times q ^ (q & a). A set is cleared of a subset by ^, the
lowest member v of q is (q ^ (q - 1)).bit_length() - 1, and the lowest
non-member of q is (q ^ (q + 1)).bit_length() - 1.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from functools import reduce
from itertools import accumulate, repeat
from operator import or_

import numpy as np

from .routing import RoutedPath
from .topology import LadderTopology, SwitchState


@dataclass(frozen=True)
class ConflictGraph:
    """Symmetric intersection relation over paths (vertex i = edge id i)."""

    n: int
    m: int
    adj: tuple[int, ...]  # bitmask of neighbors per vertex
    rungs: tuple[int, ...] = ()  # per column, the paths ending on its rung: each a clique

    def has_edge(self, i: int, j: int) -> bool:
        return i != j and bool((self.adj[i] >> j) & 1)

    def degree(self, i: int) -> int:
        return self.adj[i].bit_count()


@dataclass(frozen=True)
class GroupingStats:
    algorithm: str
    clique_calls: int = 0
    clique_fallbacks: int = 0


@dataclass(frozen=True)
class Partition:
    """A grouper's result: path ids per scenario, each sorted, in scenario order."""

    scenarios: tuple[tuple[int, ...], ...]
    stats: GroupingStats

    @property
    def n_scenarios(self) -> int:
        return len(self.scenarios)


def _check_vertex_ids(paths: list[RoutedPath]) -> None:
    for i, p in enumerate(paths):
        if p.edge_id != i:
            raise ValueError(f"path at position {i} has edge id {p.edge_id}; pass paths in edge-id order")
        if not 0 <= p.cmin <= p.cmax:
            raise ValueError(f"path {i} has column interval [{p.cmin}, {p.cmax}]")


def build_conflict_graph(paths: list[RoutedPath]) -> ConflictGraph:
    """Intersection graph of the paths, from rung and lane buckets.

    Two paths conflict iff they share an endpoint column (its rung), or
    run on one lane with overlapping intervals: u overlaps v iff
    u.cmin <= v.cmax and u.cmax >= v.cmin.
    """
    _check_vertex_ids(paths)
    n_cols = max((p.cmax for p in paths), default=-1) + 1
    rung = [0] * n_cols  # paths with an endpoint at column c
    lanes: dict[int, list[RoutedPath]] = {}
    for p in paths:
        rung[p.cmin] |= 1 << p.edge_id
        rung[p.cmax] |= 1 << p.edge_id
        lanes.setdefault(p.lane, []).append(p)
    adj = [0] * len(paths)
    for members in lanes.values():  # one lane's masks live at a time
        starts, ends = [0] * n_cols, [0] * n_cols
        for p in members:
            starts[p.cmin] |= 1 << p.edge_id
            ends[p.cmax] |= 1 << p.edge_id
        starts = list(accumulate(starts, or_))  # lane paths with cmin <= c
        ends = list(accumulate(reversed(ends), or_))[::-1]  # lane paths with cmax >= c
        for p in members:
            own = 1 << p.edge_id
            adj[p.edge_id] = (rung[p.cmin] | rung[p.cmax] | (starts[p.cmax] & ends[p.cmin])) ^ own  # own is in its rung
    return ConflictGraph(n=len(paths), m=sum(a.bit_count() for a in adj) // 2, adj=tuple(adj), rungs=tuple(rung))


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
                run[0] = SwitchState.RIGHT_RUNG
                run[1:-1] = SwitchState.LEFT_RIGHT
                run[-1] = SwitchState.LEFT_RUNG
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


def _colour_classes(adj, p: int) -> list[int]:
    """Greedy colouring of the vertices p, one class at a time: each class is
    the greedy independent set, filled in bit order, of the vertices earlier
    classes left. Returns the colour classes as masks."""
    classes = []
    while p:
        c, q = 0, p
        while q:
            below = q - 1  # q with its lowest bit v cleared and the bits under v set
            v = (q ^ below).bit_length() - 1
            c |= 1 << v
            q &= below
            q ^= q & adj[v]
        classes.append(c)
        p ^= c
    return classes


def _members(mask: int) -> tuple[int, ...]:
    """The vertex ids of a bitmask, ascending: found from the top, where
    bit_length reads the highest one without a pass over the mask."""
    out = []
    while mask:
        v = mask.bit_length() - 1
        out.append(v)
        mask ^= 1 << v
    return tuple(reversed(out))


def group_greedy(paths: list[RoutedPath]) -> Partition:
    """First-fit: each path, in id order, joins the lowest scenario it does not
    intersect. A mask of scenarios per rung column and per (lane, column)
    records which scenarios already use it, so a path's blocked scenarios are
    the OR of its two rung masks and of its lane's masks over [cmin, cmax].
    The partition is _colour_classes over all paths of build_conflict_graph,
    which is not built."""
    _check_vertex_ids(paths)
    n_cols = max((p.cmax for p in paths), default=-1) + 1
    rung = [0] * n_cols  # per column, the scenarios with a member ending on its rung
    lanes: defaultdict[int, list[int]] = defaultdict(lambda: [0] * n_cols)  # per lane and column, covering
    scenarios: list[list[int]] = []
    for p in paths:
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
        scenarios[k].append(p.edge_id)
    return Partition(tuple(map(tuple, scenarios)), GroupingStats("greedy"))


class _BudgetExpired(Exception):
    pass


CLIQUE_TICK_LIMIT = 1 << 18  # search nodes per clique call


class _CliqueSearch:
    """Exact maximum-clique search in two passes over adjacency bitmasks.

    Pass 1 finds the clique number ω as in MCQ (Tomita and Seki 2003):
    seeded with the largest rung clique (the alive paths ending on one
    column's rung), it branches on the candidates in reverse greedy-colour
    order and stops at a candidate whose colour cannot lift the clique
    above the best. Pass 2 then builds the lexicographically
    smallest ω-clique member by member, in ascending-id order: the next
    member is the smallest candidate that still extends to an ω-clique,
    which a popcount, the colour classes of the remaining candidates and
    then the branch and bound decide. The best clique known already is
    such an extension, so no candidate past its next member is tried.
    A run stops after CLIQUE_TICK_LIMIT search nodes of both passes; it
    then returns the best clique found so far, marked non-exact, so the
    result never depends on machine speed.
    """

    def __init__(self, g: ConflictGraph):
        self.adj, self.rungs = g.adj, g.rungs
        self.ticks = 0
        self.best: tuple[int, ...] = ()
        self.floor = self.cap = 0

    def _tick(self) -> None:
        self.ticks += 1
        if self.ticks > CLIQUE_TICK_LIMIT:
            raise _BudgetExpired

    def _grow(self, r: list[int], p: int) -> bool:
        """Branch and bound: a clique of more than self.floor members that
        extends r by p becomes self.best and raises the floor to its size;
        True once the floor reaches self.cap."""
        self._tick()
        if not p:
            if len(r) > self.floor:
                self.best = tuple(sorted(r))
                self.floor = len(r)
            return self.floor >= self.cap
        classes = _colour_classes(self.adj, p)
        for k in range(len(classes), 0, -1):  # colour k, highest first
            m = classes[k - 1]
            while m:
                if len(r) + k <= self.floor:
                    return False
                v = m.bit_length() - 1
                m ^= 1 << v
                r.append(v)
                found = self._grow(r, p & self.adj[v])
                r.pop()
                if found:
                    return True
                p ^= 1 << v
        return False

    def _first(self, p: int) -> None:
        """Pass 2: replace self.best, an ω-clique of the vertices p, by the
        lexicographically smallest one."""
        omega = self.cap = len(self.best)
        r: list[int] = []  # the members chosen so far
        while len(r) < omega:
            need = omega - len(r) - 1  # members still to come after the next one
            classes = None  # of the remaining candidates, once one has failed
            while True:  # ends at self.best's next member at the latest
                below = p - 1
                v = (p ^ below).bit_length() - 1
                p &= below  # p now holds the candidates above v
                sub = p & self.adj[v]
                if v == self.best[len(r)]:
                    break
                if sub.bit_count() < need or (
                        classes is not None and sum(1 for c in classes if c & sub) < need):
                    continue
                self.floor = omega - 1
                if self._grow(r + [v], sub):
                    break  # self.best now starts with the members chosen and v
                if classes is None:
                    classes = _colour_classes(self.adj, p)
            r.append(v)
            p = sub

    def run(self, alive: int) -> tuple[tuple[int, ...], bool]:
        """(clique, exact) over the alive vertices."""
        if alive == 0:
            raise ValueError("max_clique on an empty graph")
        self.best = _members(max((r & alive for r in self.rungs), key=int.bit_count, default=0))
        self.floor, self.cap = len(self.best), len(self.adj) + 1
        try:
            self._grow([], alive)
            self._first(alive)
            return self.best, True
        except _BudgetExpired:
            return self.best, False


def max_clique(g: ConflictGraph) -> list[int]:
    """Maximum clique, lexicographically smallest among ties.

    Falls back to the largest clique found so far when the search reaches
    CLIQUE_TICK_LIMIT nodes (counted in GroupingStats.clique_fallbacks by
    group_max_clique); the fallback is still a valid clique, never smaller
    than the largest rung clique.
    """
    return list(_CliqueSearch(g).run((1 << g.n) - 1)[0])


def group_max_clique(g: ConflictGraph) -> Partition:
    """Iterated clique extraction: peel a maximum clique, spread its members
    over distinct scenarios, repeat until no path is left.

    Members (visited in descending conflict-degree order) prefer the
    compatible scenario whose conflict set grows least against the
    still-unassigned graph; members left over are fitted by augmenting-path
    matching, so a new scenario is created only when the clique genuinely
    cannot be accommodated in the existing ones.
    """
    scenario_ids: list[list[int]] = []
    conflict_masks: list[int] = []
    alive = (1 << g.n) - 1
    calls = fallbacks = 0
    while alive:
        clique, exact = _CliqueSearch(g).run(alive)
        calls += 1
        fallbacks += 0 if exact else 1
        clique_mask = sum(1 << v for v in clique)
        remaining = alive ^ clique_mask
        members = sorted(clique, key=lambda v: (-(g.adj[v] & alive).bit_count(), v))
        n_s = len(scenario_ids)

        owner: dict[int, int] = {}  # scenario -> member
        for v in members:
            best_s, best_grow = None, None
            near = g.adj[v] & remaining  # v's conflicts still to be placed
            n_near = near.bit_count()
            for s in range(n_s):
                if s in owner or (conflict_masks[s] >> v) & 1:
                    continue
                grow = n_near - (near & conflict_masks[s]).bit_count()
                if best_grow is None or grow < best_grow:
                    best_s, best_grow = s, grow
            if best_s is not None:
                owner[best_s] = v

        def augment(v: int, seen: set[int]) -> bool:
            for s in range(n_s):
                if s in seen or (conflict_masks[s] >> v) & 1:
                    continue
                seen.add(s)
                if s not in owner or augment(owner[s], seen):
                    owner[s] = v
                    return True
            return False

        for v in members:
            if v not in owner.values():
                augment(v, set())
        assigned = {v: s for s, v in owner.items()}
        for v in members:
            if v in assigned:
                scenario_ids[assigned[v]].append(v)
                conflict_masks[assigned[v]] |= g.adj[v]
            else:
                scenario_ids.append([v])
                conflict_masks.append(g.adj[v])
        alive = remaining
    stats = GroupingStats("maxclique", clique_calls=calls, clique_fallbacks=fallbacks)
    return Partition(tuple(tuple(sorted(s)) for s in scenario_ids), stats)


GROUPING_ALGORITHMS = ("greedy", "maxclique")


def check_algorithm(algorithm: str) -> None:
    """Raise ValueError unless algorithm is one of GROUPING_ALGORITHMS."""
    if algorithm not in GROUPING_ALGORITHMS:
        raise ValueError(f"unknown grouping algorithm '{algorithm}' (choose from {', '.join(GROUPING_ALGORITHMS)})")


def group_paths(algorithm: str, paths: list[RoutedPath]) -> Partition:
    """Run one of GROUPING_ALGORITHMS by name on the routed paths; only
    maxclique builds the conflict graph. The functions are looked up in this
    module at call time, so rebinding (e.g. wrapping) one reaches every caller."""
    check_algorithm(algorithm)
    if algorithm == "greedy":
        return group_greedy(paths)
    return group_max_clique(build_conflict_graph(paths))


def scenario_lower_bound(paths: list[RoutedPath]) -> int:
    """Bound B: the larger of the column star load (paths with an endpoint in
    one column share its rung) and the lane point cover (paths on one lane
    covering one column pairwise overlap). Both are cliques, so B is at most
    the clique number, and B is at least the largest total cluster degree."""
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


def rle_decode(runs) -> np.ndarray:
    """The int8 vector of [[state, run], ...] runs, by one np.repeat."""
    states, counts = np.array(runs, dtype=np.int64).reshape(-1, 2).T
    return np.repeat(states, counts).astype(np.int8)


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
    matrix, one row per scenario."""
    return {
        "algorithm": partition.stats.algorithm,
        "scenarios": [
            {"paths": list(s), "switches_rle": rle_encode(vec)}
            for s, vec in zip(partition.scenarios, matrix)
        ],
        "stats": {
            "clique_calls": partition.stats.clique_calls,
            "clique_fallbacks": partition.stats.clique_fallbacks,
        },
    }


def scenario_set_from_record(rec: dict, n_switches: int, n_paths: int) -> tuple[Partition, np.ndarray]:
    """Inverse of scenario_set_record for a ladder of n_switches switches and
    n_paths routed paths: (partition, switch-state matrix). Raises ValueError
    naming the first scenario that does not fit them."""
    for k, s in enumerate(rec["scenarios"]):
        if not isinstance(s, dict) or not all(isinstance(s.get(key), list) for key in ("paths", "switches_rle")):
            raise ValueError(f"scenario {k}: needs the lists 'paths' and 'switches_rle'")
        for pid in s["paths"]:
            if type(pid) is not int or not 0 <= pid < n_paths:  # JSON true/false are not ids
                raise ValueError(f"scenario {k}: path id {pid!r} is not one of the {n_paths} routed paths")
        for run in s["switches_rle"]:
            if not (isinstance(run, list) and len(run) == 2 and all(type(v) is int for v in run)
                    and 0 <= run[0] <= 3 and run[1] >= 1):
                raise ValueError(f"scenario {k}: switch run {run!r} is not [state 0..3, run length >= 1]")
        total = sum(count for _state, count in s["switches_rle"])
        if total != n_switches:
            raise ValueError(f"scenario {k}: switch runs cover {total} switches, not the ladder's {n_switches}")
    scenarios = tuple(tuple(s["paths"]) for s in rec["scenarios"])
    matrix = np.zeros((len(scenarios), n_switches), dtype=np.int8)
    for k, s in enumerate(rec["scenarios"]):
        matrix[k] = rle_decode(s["switches_rle"])
    stats = rec.get("stats", {"clique_calls": 0, "clique_fallbacks": 0})
    counts = [stats.get(key) if isinstance(stats, dict) else None for key in ("clique_calls", "clique_fallbacks")]
    if not all(type(c) is int for c in counts):
        raise ValueError("'stats' needs the integers 'clique_calls' and 'clique_fallbacks'")
    return Partition(scenarios, GroupingStats(rec.get("algorithm", ""), *counts)), matrix
