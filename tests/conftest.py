"""Shared fixtures, independent oracles and the max-clique reference.

The oracles here intentionally re-derive everything from first
principles (explicit resource sets, exhaustive subset enumeration,
plain backtracking coloring) rather than reusing the package's
predicates, so they can catch errors in the fast paths. The exception
is optimal_grouping_exact, a pruned coloring search over the conflict
graph below: the plain backtracking oracle is too slow for the 11-path
instances of acceptance criterion 3.

The conflict graph and the iterated max-clique grouper are references
the package no longer ships: acceptance criteria 3 and 4 bracket and
compare against group_max_clique. Each clique is found in two passes, a
colour-bounded branch and bound for the clique number and then a
member-by-member choice, in id order, of the lexicographically first
maximum clique; the search is exact within a fixed count of search
nodes (CLIQUE_TICK_LIMIT), so its result never depends on machine speed.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from operator import or_

import numpy as np
import pytest
from hypothesis import strategies as st

from ladderbus import build_topology, generate_synthetic, group_greedy, group_iterated, place_anneal
from ladderbus.appgraph import ClusterGraph
from ladderbus.grouping import Partition, _check_vertex_ids, scenario_lower_bound
from ladderbus.routing import RoutedPath, extract_paths
from ladderbus.topology import SwitchState, tile_column

# (n_clusters, n_edges, number of seeds): 200 instances shaped like the
# evaluated applications, spanning n 11..96 and density 0.10..0.23.
CORPUS_SHAPES = [
    (11, 18, 30),
    (14, 41, 30),
    (24, 128, 30),
    (26, 141, 30),
    (30, 161, 30),
    (40, 160, 15),
    (40, 292, 15),
    (60, 348, 10),
    (60, 772, 5),
    (96, 1068, 5),
]

CORPUS_SPECS = [
    (n, e, seed) for (n, e, n_seeds) in CORPUS_SHAPES for seed in range(n_seeds)
]

assert len(CORPUS_SPECS) == 200


# ---------------------------------------------------------------------------
# independent oracles


def oracle_path_resources(path: RoutedPath, topo) -> set[tuple]:
    """Explicit resource set, re-derived from tile geometry."""
    col_src = path.src_tile // 2
    col_dst = path.dst_tile // 2
    lo, hi = min(col_src, col_dst), max(col_src, col_dst)
    res = {("rung", col_src), ("rung", col_dst)}
    for c in range(lo, hi + 1):
        res.add(("sw", path.lane, c))
    for c in range(lo, hi):
        res.add(("seg", path.lane, c))
    return res


def oracle_synthetic(
    n_clusters: int,
    n_edges: int,
    seed: int,
    weight_range: tuple[int, int] = (1, 16),
    name: str = "",
) -> ClusterGraph:
    """generate_synthetic drawn from the explicit list of all n(n - 1)
    (src, dst) pairs, in (src, dst) order: the same sample and weight
    draws, so the same graph."""
    if n_clusters < 1:
        raise ValueError(f"n_clusters must be >= 1, got {n_clusters}")
    max_edges = n_clusters * (n_clusters - 1)
    if not (0 <= n_edges <= max_edges):
        raise ValueError(f"n_edges={n_edges} outside 0..{max_edges} for n={n_clusters}")
    rng = random.Random(seed)
    pairs = [(s, d) for s in range(n_clusters) for d in range(n_clusters) if s != d]
    chosen = sorted(rng.sample(pairs, n_edges))
    lo, hi = weight_range
    edges = tuple((s, d, rng.randint(lo, hi)) for s, d in chosen)
    if not name:
        name = f"synth_{n_clusters}_{n_edges}_s{seed}"
    return ClusterGraph(n_clusters=n_clusters, edges=edges, name=name)


def oracle_intersect(a: RoutedPath, b: RoutedPath, topo) -> bool:
    return bool(oracle_path_resources(a, topo) & oracle_path_resources(b, topo))


def oracle_sim_step(topo, vector, members, paths) -> tuple[list, list, int]:
    """One simulator step, re-derived from the topology docstring.

    Nodes are explicit rungs ("rung", c) and segments ("seg", lane, i);
    the switch at (lane, c) has ports left segment (lane, c - 1), right
    segment (lane, c) and rung c, and its state joins two of them. A
    member is delivered iff its source and destination rungs are joined,
    no other member drives (has its source rung in) that chain, and none
    of its resources is claimed twice. Returns (sorted (resource, claims)
    pairs claimed more than once, delivered ids in member order, number
    of distinct segments and rungs claimed).
    """
    joins = {
        SwitchState.LEFT_RIGHT: ("left", "right"),
        SwitchState.LEFT_RUNG: ("left", "rung"),
        SwitchState.RIGHT_RUNG: ("right", "rung"),
    }
    neighbors: dict[tuple, set] = {}
    for lane in range(topo.n_lanes):
        for c in range(topo.n_columns):
            state = vector[lane * topo.n_columns + c]
            if state == SwitchState.IDLE:
                continue
            ports = {"left": ("seg", lane, c - 1), "right": ("seg", lane, c), "rung": ("rung", c)}
            a, b = (ports[name] for name in joins[SwitchState(state)])
            neighbors.setdefault(a, set()).add(b)
            neighbors.setdefault(b, set()).add(a)

    def chain(node) -> frozenset:
        seen, todo = {node}, [node]
        while todo:
            for nxt in neighbors.get(todo.pop(), ()):
                if nxt not in seen:
                    seen.add(nxt)
                    todo.append(nxt)
        return frozenset(seen)

    claims: dict[tuple, int] = {}
    for pid in members:
        for res in oracle_path_resources(paths[pid], topo):
            claims[res] = claims.get(res, 0) + 1
    sources = [("rung", paths[pid].src_tile // 2) for pid in members]
    delivered = []
    for pid, src in zip(members, sources):
        reach = chain(src)
        drivers = sum(1 for other in sources if other in reach)
        clean = all(claims[res] == 1 for res in oracle_path_resources(paths[pid], topo))
        if ("rung", paths[pid].dst_tile // 2) in reach and drivers == 1 and clean:
            delivered.append(pid)
    collided = sorted((res, count) for res, count in claims.items() if count > 1)
    active = sum(1 for res in claims if res[0] in ("seg", "rung"))
    return collided, delivered, active


def oracle_switch_vector(topo, members, paths) -> tuple[int, ...]:
    """Switch vector of one scenario, re-derived from the topology docstring.

    Writes switch by switch at index lane * n_columns + column, with the
    columns taken from the tiles: a path between columns lo < hi sets
    (lane, lo) to RIGHT_RUNG, (lane, hi) to LEFT_RUNG and every column in
    between to LEFT_RIGHT; a same-column path sets nothing. Members are
    applied in the given order, columns in ascending order, and the first
    switch demanded in two different non-IDLE states raises ValueError.
    """
    vec = [SwitchState.IDLE] * topo.n_switches
    for pid in members:
        p = paths[pid]
        lo, hi = sorted((p.src_tile // 2, p.dst_tile // 2))
        for c in range(lo, hi + 1) if lo < hi else ():
            want = SwitchState.RIGHT_RUNG if c == lo else SwitchState.LEFT_RUNG if c == hi else SwitchState.LEFT_RIGHT
            idx = p.lane * topo.n_columns + c
            if vec[idx] not in (SwitchState.IDLE, want):
                raise ValueError(f"switch ({p.lane},{c}) demanded in states {int(vec[idx])} and {int(want)}")
            vec[idx] = want
    return tuple(int(state) for state in vec)


def decode_switch_runs(rec: dict) -> list[list[int]]:
    """The switch vectors a scenarios.json record's [[state, run], ...] runs
    spell, one per scenario, each expanded by one np.repeat."""
    return [np.repeat(*np.array(s["switches_rle"], dtype=np.int64).reshape(-1, 2).T).tolist()
            for s in rec["scenarios"]]


def oracle_region_words(topo, vectors, col_start: int, col_end: int) -> list[int]:
    """Memory words of the controller over columns col_start..col_end, one
    per switch vector, re-derived from the documented word layout: the
    region's switches in (lane, column) order, switch j of that order
    adding its 2-bit state shifted left by 2j."""
    words = []
    for vec in vectors:
        word, j = 0, 0
        for lane in range(topo.n_lanes):
            for col in range(col_start, col_end + 1):
                word += int(vec[lane * topo.n_columns + col]) << (2 * j)
                j += 1
        words.append(word)
    return words


def oracle_max_clique(n: int, edges: set[frozenset]) -> list[int]:
    """Lexicographically first maximum clique: subsets by descending size,
    each size in itertools.combinations' lexicographic order; n <= 14."""
    for size in range(n, 0, -1):
        for members in itertools.combinations(range(n), size):
            if all(frozenset(pair) in edges for pair in itertools.combinations(members, 2)):
                return list(members)
    return []


def oracle_chromatic_number(n: int, edges: set[frozenset]) -> int:
    """Plain backtracking over color counts; no ordering tricks."""
    if n == 0:
        return 0
    neighbors = [set() for _ in range(n)]
    for e in edges:
        u, v = tuple(e)
        neighbors[u].add(v)
        neighbors[v].add(u)
    colors = [-1] * n

    def backtrack(v: int, k: int) -> bool:
        if v == n:
            return True
        for c in range(k):
            if all(colors[u] != c for u in neighbors[v]):
                colors[v] = c
                if backtrack(v + 1, k):
                    return True
                colors[v] = -1
        return False

    for k in range(1, n + 1):
        if backtrack(0, k):
            return k
    return n


EXACT_GROUPING_MAX_PATHS = 15


def optimal_grouping_exact(g) -> Partition:
    """Minimum-cardinality coloring of a conflict graph by branch and bound,
    starting at the maximum clique size; small graphs only."""
    if g.n > EXACT_GROUPING_MAX_PATHS:
        raise ValueError(f"exact grouping limited to {EXACT_GROUPING_MAX_PATHS} paths, got {g.n}")
    if g.n == 0:
        return Partition((), "exact")
    order = sorted(range(g.n), key=lambda v: (-g.degree(v), v))
    coloring = [-1] * g.n

    def feasible(k: int) -> bool:
        def assign(pos: int, used: int) -> bool:
            if pos == g.n:
                return True
            v = order[pos]
            banned = 0
            for u in range(g.n):
                if coloring[u] >= 0 and g.has_edge(u, v):
                    banned |= 1 << coloring[u]
            limit = min(used + 1, k)  # new color allowed only once (symmetry)
            for c in range(limit):
                if (banned >> c) & 1:
                    continue
                coloring[v] = c
                if assign(pos + 1, max(used, c + 1)):
                    return True
                coloring[v] = -1
            return False

        for i in range(g.n):
            coloring[i] = -1
        return assign(0, 0)

    k = len(max_clique(g))
    while not feasible(k):
        k += 1
    scenario_ids: list[list[int]] = [[] for _ in range(k)]
    for v, c in enumerate(coloring):
        scenario_ids[c].append(v)
    scenario_ids = [s for s in scenario_ids if s]
    scenario_ids.sort(key=lambda s: min(s))
    return Partition(tuple(map(tuple, scenario_ids)), "exact")


def conflict_edges_from_oracle(paths, topo) -> set[frozenset]:
    edges = set()
    for i, j in itertools.combinations(range(len(paths)), 2):
        if oracle_intersect(paths[i], paths[j], topo):
            edges.add(frozenset((i, j)))
    return edges


def oracle_first_fit(paths, topo) -> tuple[tuple[int, ...], ...]:
    """Per-path first-fit over the oracle's conflict edges: each path, in id
    order, joins the first scenario none of whose members it intersects."""
    edges = conflict_edges_from_oracle(paths, topo)
    scenarios: list[list[int]] = []
    for v in range(len(paths)):
        for members in scenarios:
            if all(frozenset((u, v)) not in edges for u in members):
                members.append(v)
                break
        else:
            scenarios.append([v])
    return tuple(map(tuple, scenarios))


def oracle_route(edges, tiles, topo) -> list[tuple[int, int, int]]:
    """(lane, cmin, cmax) per connection, in edge order, with the columns
    taken from the tiles: the lane with the least summed load over the
    segments cmin..cmax-1, ties to the lowest lane; the chosen lane's
    segments then carry one more path. A same-column connection sums to 0
    everywhere, so it lands on lane 0 and loads nothing."""
    load = [[0] * (topo.n_columns - 1) for _ in range(topo.n_lanes)]
    routed = []
    for src, dst, _w in edges:
        lo, hi = sorted((tiles[src] // 2, tiles[dst] // 2))
        lane = min(range(topo.n_lanes), key=lambda k: (sum(load[k][lo:hi]), k))
        for i in range(lo, hi):
            load[lane][i] += 1
        routed.append((lane, lo, hi))
    return routed


def oracle_anneal(g, topo, seed, initial) -> tuple[int, ...]:
    """place_anneal's fixed schedule (75 moves per cluster, t0 = cost /
    (4 n_clusters), cooling by 0.947 per epoch of n_clusters moves), pricing
    each swap by walking the moved clusters' neighbours before and after a
    tentative move that a rejection undoes. Same RNG draws, so the same
    assignment."""
    adj = [[] for _ in range(g.n_clusters)]
    for src, dst, w in g.edges:
        adj[src].append((dst, w))
        adj[dst].append((src, w))
    slot = [-1] * topo.n_tiles
    for c, t in enumerate(initial):
        slot[t] = c
    tile_of = list(initial)

    def local_cost(c):
        return sum(w * (abs(tile_of[c] // 2 - tile_of[o] // 2) + 1) for o, w in adj[c])

    cost = sum(w * (abs(tile_of[s] // 2 - tile_of[d] // 2) + 1) for s, d, w in g.edges)
    best_cost, best = cost, list(tile_of)
    temp = 0.25 * cost / max(1, g.n_clusters)
    rng = random.Random(seed)
    for it in range(75 * g.n_clusters):
        t1, t2 = rng.randrange(topo.n_tiles), rng.randrange(topo.n_tiles)
        c1, c2 = slot[t1], slot[t2]
        movers = [c for c in (c1, c2) if c >= 0]
        if t1 != t2 and movers:
            before = sum(local_cost(c) for c in movers)
            slot[t1], slot[t2] = c2, c1
            for c, t in ((c1, t2), (c2, t1)):
                if c >= 0:
                    tile_of[c] = t
            delta = sum(local_cost(c) for c in movers) - before
            if delta <= 0 or (temp > 1e-12 and rng.random() < math.exp(-delta / temp)):
                cost += delta
                if cost < best_cost:
                    best_cost, best = cost, list(tile_of)
            else:
                slot[t1], slot[t2] = c1, c2
                for c, t in ((c1, t1), (c2, t2)):
                    if c >= 0:
                        tile_of[c] = t
        if (it + 1) % max(1, g.n_clusters) == 0:
            temp *= 0.947
    return tuple(best)


def oracle_nnls(rows, targets) -> tuple[float, ...] | None:
    """min |A x - y|^2 over x >= 0, exactly: the normal equations of every
    support (set of unknowns left nonzero) solved in Fraction by
    Gauss-Jordan elimination, the feasible solution with the least residual
    kept, each unknown rounded to float once. None when A^T A is singular."""
    a = [[Fraction(v) for v in row] for row in rows]
    y = [Fraction(v) for v in targets]
    k = len(a[0])
    if _oracle_normal_solve(a, y, tuple(range(k))) is None:
        return None
    best = None
    for m in range(k + 1):
        for support in itertools.combinations(range(k), m):
            x = _oracle_normal_solve(a, y, support)
            if x is None or min(x, default=0) < 0:
                continue
            resid = sum((sum(r[j] * x[j] for j in range(k)) - t) ** 2 for r, t in zip(a, y))
            if best is None or resid < best[0]:
                best = (resid, x)
    return tuple(float(v) for v in best[1])


def _oracle_normal_solve(a, y, support) -> list[Fraction] | None:
    """x with x_j = 0 off the support and (A_S^T A_S) x_S = A_S^T y on it;
    None when that system is singular."""
    m = len(support)
    aug = [
        [sum(r[i] * r[j] for r in a) for j in support] + [sum(r[i] * t for r, t in zip(a, y))]
        for i in support
    ]
    for col in range(m):
        pivot = next((i for i in range(col, m) if aug[i][col] != 0), None)
        if pivot is None:
            return None
        aug[col], aug[pivot] = aug[pivot], aug[col]
        for i in range(m):
            if i != col:
                f = aug[i][col] / aug[col][col]
                aug[i] = [u - f * v for u, v in zip(aug[i], aug[col])]
    x = [Fraction(0)] * len(a[0])
    for i, j in enumerate(support):
        x[j] = aug[i][m] / aug[i][i]
    return x


# ---------------------------------------------------------------------------
# max-clique reference grouper, over the conflict graph


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



def colour_classes(adj, p: int) -> list[int]:
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


def mask_members(mask: int) -> tuple[int, ...]:
    """The vertex ids of a bitmask, ascending: found from the top, where
    bit_length reads the highest one without a pass over the mask."""
    out = []
    while mask:
        v = mask.bit_length() - 1
        out.append(v)
        mask ^= 1 << v
    return tuple(reversed(out))


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
        classes = colour_classes(self.adj, p)
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
                    classes = colour_classes(self.adj, p)
            r.append(v)
            p = sub

    def run(self, alive: int) -> tuple[tuple[int, ...], bool]:
        """(clique, exact) over the alive vertices."""
        if alive == 0:
            raise ValueError("max_clique on an empty graph")
        self.best = mask_members(max((r & alive for r in self.rungs), key=int.bit_count, default=0))
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
    CLIQUE_TICK_LIMIT nodes (counted in CliqueStats.clique_fallbacks by
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
    return Partition(tuple(tuple(sorted(s)) for s in scenario_ids), "maxclique", CliqueStats(calls, fallbacks))


@dataclass(frozen=True)
class CliqueStats:
    clique_calls: int
    clique_fallbacks: int


# ---------------------------------------------------------------------------
# hypothesis strategies


@st.composite
def ladder_paths(draw):
    """A ladder of 1-4 lanes and up to 12 paths on it.

    Columns are drawn from a narrow range so that same-column paths,
    paths meeting at exactly one column and nested intervals are common.
    """
    n_lanes = draw(st.integers(1, 4))
    n_columns = draw(st.integers(1, 6))
    topo = build_topology(2 * n_columns, n_lanes)
    tile = st.integers(0, topo.n_tiles - 1)
    ends = draw(st.lists(
        st.tuples(tile, tile, st.integers(0, n_lanes - 1)).filter(lambda t: t[0] != t[1]),
        max_size=12,
    ))
    paths = []
    for i, (src, dst, lane) in enumerate(ends):
        c1, c2 = tile_column(topo, src), tile_column(topo, dst)
        paths.append(RoutedPath(i, src, dst, lane=lane, cmin=min(c1, c2), cmax=max(c1, c2)))
    return topo, paths


# ---------------------------------------------------------------------------
# corpus pipeline products (computed once per session)


class CorpusInstance:
    def __init__(self, n, n_edges, seed):
        self.n = n
        self.n_edges = n_edges
        self.seed = seed
        self.graph = generate_synthetic(n, n_edges, seed)
        self.topo = build_topology(n)
        self.placement = place_anneal(self.graph, self.topo, seed=seed + 1)
        self.paths = extract_paths(self.graph, self.topo, self.placement)
        self.sset_greedy = group_greedy(self.paths)
        self.sset_iterated = group_iterated(self.paths, scenario_lower_bound(self.paths), self.sset_greedy)
        self.sset_maxclique = group_max_clique(build_conflict_graph(self.paths))

    @property
    def key(self):
        return (self.n, self.n_edges, self.seed)


class Corpus(list):
    build_seconds: float = 0.0


@pytest.fixture(scope="session")
def corpus():
    import time

    start = time.perf_counter()
    out = Corpus(CorpusInstance(n, e, seed) for n, e, seed in CORPUS_SPECS)
    out.build_seconds = time.perf_counter() - start
    return out
