"""Cluster-to-tile mapping.

The objective is a proxy for dynamic communication energy: each
connection costs weight * (column distance between its endpoint tiles
+ 1), the +1 charging the rung hop. Placement is a greedy
descending-degree construction optionally refined by pairwise-swap
simulated annealing.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from .appgraph import ClusterGraph
from .topology import LadderTopology, tile_column


@dataclass(frozen=True)
class TilePlacement:
    """Injective map cluster id -> tile id covering every cluster."""

    assignment: tuple[int, ...]  # indexed by cluster id

    def tile_of(self, cluster: int) -> int:
        return self.assignment[cluster]

    def validate(self, g: ClusterGraph, topo: LadderTopology) -> None:
        if len(self.assignment) != g.n_clusters:
            raise ValueError("placement does not cover every cluster")
        if len(set(self.assignment)) != len(self.assignment):
            raise ValueError("placement is not injective")
        for c, t in enumerate(self.assignment):
            if not (0 <= t < topo.n_tiles):
                raise ValueError(f"cluster {c} assigned to tile {t} outside topology")


def placement_cost(g: ClusterGraph, topo: LadderTopology, p: TilePlacement) -> int:
    """Total weighted column distance (+1 per connection for the rung hop)."""
    cols = [tile_column(topo, t) for t in p.assignment]
    cost = 0
    for src, dst, w in g.edges:
        cost += w * (abs(cols[src] - cols[dst]) + 1)
    return cost


def place_greedy(g: ClusterGraph, topo: LadderTopology) -> TilePlacement:
    """Descending total-degree insertion, each cluster onto the cheapest free tile.

    A tile's price depends only on its column, so each column with a free
    tile is priced once. Ties break toward the lowest tile id: the lowest
    free tile of the first cheapest column. Equal-degree clusters are
    visited in id order.
    """
    if g.n_clusters > topo.n_tiles:
        raise ValueError(f"{g.n_clusters} clusters exceed {topo.n_tiles} tiles")
    adj: list[list[tuple[int, int]]] = [[] for _ in range(g.n_clusters)]
    for src, dst, w in g.edges:
        adj[src].append((dst, w))
        adj[dst].append((src, w))
    degrees = g.total_degrees()
    order = sorted(range(g.n_clusters), key=lambda c: (-degrees[c], c))

    cols = [tile_column(topo, t) for t in range(topo.n_tiles)]
    free: dict[int, list[int]] = {}  # column -> its free tiles, both ascending
    for t in range(topo.n_tiles):
        free.setdefault(cols[t], []).append(t)
    assignment = [-1] * g.n_clusters
    for c in order:
        placed = [(cols[assignment[other]], w) for other, w in adj[c] if assignment[other] >= 0]
        best_col = min(free, key=lambda col: sum(w * (abs(col - at) + 1) for at, w in placed))
        assignment[c] = free[best_col].pop(0)
        if not free[best_col]:
            del free[best_col]
    return TilePlacement(assignment=tuple(assignment))


def place_anneal(
    g: ClusterGraph,
    topo: LadderTopology,
    seed: int = 0,
    t0: float | None = None,
    cooling: float = 0.97,
    iters: int | None = None,
    initial: TilePlacement | None = None,
) -> TilePlacement:
    """Pairwise-swap simulated annealing seeded from place_greedy.

    Swaps exchange the contents of two tile slots (a slot may be
    empty), so clusters can migrate onto unused tiles. The temperature
    cools geometrically once per epoch of n_clusters moves. Returns the
    best placement seen; never worse than the initial one.
    Deterministic for a fixed seed. iters=0 returns the initial
    placement unchanged.
    """
    if initial is None:
        initial = place_greedy(g, topo)
    if iters is None:
        iters = 200 * g.n_clusters
    epoch = max(1, g.n_clusters)
    cols = [tile_column(topo, t) for t in range(topo.n_tiles)]
    adj: list[list[tuple[int, int]]] = [[] for _ in range(g.n_clusters)]
    for src, dst, w in g.edges:
        adj[src].append((dst, w))
        adj[dst].append((src, w))

    # slot view: tile -> cluster or -1
    slot = [-1] * topo.n_tiles
    for c, t in enumerate(initial.assignment):
        slot[t] = c
    tile_of = list(initial.assignment)

    def edge_cost_at(c: int, col: int) -> int:
        total = 0
        for other, w in adj[c]:
            total += w * (abs(col - cols[tile_of[other]]) + 1)
        return total

    cost = placement_cost(g, topo, initial)
    best_cost = cost
    best = list(tile_of)
    if t0 is None:
        t0 = cost / 10.0
    temp = t0
    rng = random.Random(seed)

    for it in range(iters):
        t1 = rng.randrange(topo.n_tiles)
        t2 = rng.randrange(topo.n_tiles)
        c1, c2 = slot[t1], slot[t2]
        if t1 != t2 and (c1 >= 0 or c2 >= 0):
            # delta over edges touching the moved clusters; an edge between
            # c1 and c2 is double-counted identically on both sides of the
            # swap, so it cancels.
            before = 0
            if c1 >= 0:
                before += edge_cost_at(c1, cols[t1])
            if c2 >= 0:
                before += edge_cost_at(c2, cols[t2])
            slot[t1], slot[t2] = c2, c1
            if c1 >= 0:
                tile_of[c1] = t2
            if c2 >= 0:
                tile_of[c2] = t1
            after = 0
            if c1 >= 0:
                after += edge_cost_at(c1, cols[t2])
            if c2 >= 0:
                after += edge_cost_at(c2, cols[t1])
            delta = after - before
            if delta <= 0 or (temp > 1e-12 and rng.random() < math.exp(-delta / temp)):
                cost += delta
                if cost < best_cost:
                    best_cost = cost
                    best = list(tile_of)
            else:
                slot[t1], slot[t2] = c1, c2
                if c1 >= 0:
                    tile_of[c1] = t1
                if c2 >= 0:
                    tile_of[c2] = t2
        if (it + 1) % epoch == 0:
            temp *= cooling
    return TilePlacement(assignment=tuple(best))
