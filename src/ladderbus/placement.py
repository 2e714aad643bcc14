"""Cluster-to-tile mapping.

The objective is a proxy for dynamic communication energy: each
connection costs weight * (column distance between its endpoint tiles
+ 1), the +1 charging the rung hop. Placement is a greedy
descending-degree construction refined by pairwise-swap simulated
annealing, on the fixed schedule of the module constants below. The
schedule starts from the size of one move's cost change, not of the
whole cost (Johnson, Aragon, McGeoch and Schevon 1989).

The annealer works on a symmetric (n+1) x (n+1) weight matrix, whose
extra row and column of zeros belong to a phantom cluster standing in
every empty tile slot. On a small ladder it prices a proposed swap from
four entries of a column price table, what each cluster would pay on
each column, which an accepted swap updates whole; on a larger one,
where that update costs more than it saves, with one dense dot product
of two row differences, of the weight matrix and of a column-distance
matrix kept with a column per cluster, so no move gathers. Both give
the same integer delta; see place_anneal for the formula.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

import numpy as np

from .appgraph import ClusterGraph
from .topology import LadderTopology, tile_column

# the annealing schedule, as place_anneal runs it
MOVES_PER_CLUSTER = 75
# t0 = T0_PER_CLUSTER * cost / n_clusters: half to all of the mean cost rise of
# an uphill swap at the greedy start (0.25-0.55 cost / n_clusters on uniform
# graphs, n 14..400)
T0_PER_CLUSTER = 0.25
COOLING = 0.947  # per epoch of n_clusters moves: 75 epochs end at about t0 / 59
# place_anneal prices swaps from the column price table while the table has at
# most this many cells, (n_clusters + 1) * n_columns; above it, an accepted
# swap's table update costs more than the table saves (n about 76 on a full ladder)
PRICE_TABLE_MAX_CELLS = 3000


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


def _check_int64_prices(g: ClusterGraph, topo: LadderTopology) -> None:
    """Both placers price in int64, which wraps where Python ints would grow.
    A column price or an annealing delta stays below 4 * total weight *
    column count, so a graph that could reach 2^63 is rejected, not priced
    wrongly."""
    if 4 * sum(w for _src, _dst, w in g.edges) * topo.n_columns >= 1 << 63:
        raise ValueError(f"edge weights too large to price exactly in int64 on {topo.n_columns} columns")


def place_greedy(g: ClusterGraph, topo: LadderTopology) -> TilePlacement:
    """Descending total-degree insertion, each cluster onto the cheapest free tile.

    A tile's price depends only on its column, so the columns with a free
    tile are priced together: (|free column - placed neighbour's column|
    + 1) times the neighbour's weight, summed by one matrix product. Ties
    break toward the lowest tile id: the lowest free tile of the first
    cheapest column. Equal-degree clusters are visited in id order.
    """
    if g.n_clusters > topo.n_tiles:
        raise ValueError(f"{g.n_clusters} clusters exceed {topo.n_tiles} tiles")
    _check_int64_prices(g, topo)
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
    free_cols = np.array(sorted(free), dtype=np.int64)
    assignment = [-1] * g.n_clusters
    for c in order:
        placed = [(cols[assignment[other]], w) for other, w in adj[c] if assignment[other] >= 0]
        at = np.array([col for col, _w in placed], dtype=np.int64)
        weights = np.array([w for _col, w in placed], dtype=np.int64)
        price = (np.abs(free_cols[:, None] - at) + 1) @ weights
        k = int(price.argmin())  # argmin: the first, so the lowest, cheapest column
        best_col = int(free_cols[k])
        assignment[c] = free[best_col].pop(0)
        if not free[best_col]:
            del free[best_col]
            free_cols = np.delete(free_cols, k)
    return TilePlacement(assignment=tuple(assignment))


def place_anneal(
    g: ClusterGraph,
    topo: LadderTopology,
    seed: int = 0,
    initial: TilePlacement | None = None,
) -> TilePlacement:
    """Pairwise-swap simulated annealing from `initial` (default place_greedy).

    Swaps exchange the contents of two tile slots, so clusters can
    migrate onto unused tiles: an empty slot holds the phantom cluster
    n_clusters, whose row and column of the weight matrix are zero. The
    schedule is fixed: MOVES_PER_CLUSTER * n_clusters moves, starting at
    T0_PER_CLUSTER * initial cost / n_clusters and cooling geometrically by
    COOLING once per epoch of n_clusters moves. Returns the best placement
    seen; never worse than the initial one. Deterministic for a fixed seed.

    Swapping cluster c1 on column a with c2 on column b changes the cost
    by (W[c1] - W[c2]) . (|col - b| - |col - a|) + 2 W[c1, c2] |a - b|,
    where W holds both directions of each cluster pair in one symmetric
    entry and col is every cluster's column. The rung hops cancel, and
    the c1-c2 edge, which keeps its length, is added back. A self-swap,
    a swap of two empty slots and a swap within one column all give 0.
    With price[c, k] = W[c] . |col - k|, what cluster c pays on column k,
    the dot product is price[c1, b] - price[c1, a] + price[c2, a] -
    price[c2, b]. While the table has at most PRICE_TABLE_MAX_CELLS
    cells, a move reads those four entries and an accepted swap across
    columns adds (W[c1] - W[c2]) outer (|b - k| - |a - k|) to it; on a
    larger ladder a move takes the dot product, from a matrix of the
    distances |col - k| whose two moved columns an accepted swap
    rewrites. The arithmetic is exact integer arithmetic, so both give
    the same delta and the same placement, and a swap is applied only
    once it is accepted.
    """
    _check_int64_prices(g, topo)
    if initial is None:
        initial = place_greedy(g, topo)
    n = g.n_clusters
    epoch = max(1, n)
    weight = np.zeros((n + 1, n + 1), dtype=np.int64)
    for src, dst, w in g.edges:
        weight[src, dst] += w
        weight[dst, src] += w
    w_row = list(weight)  # row views, indexed without numpy's dispatch
    w_pair = weight.tolist()  # the same entries as Python ints
    tile_col = [tile_column(topo, t) for t in range(topo.n_tiles)]
    n_cols = tile_col[-1] + 1
    dist = np.abs(np.subtract.outer(np.arange(n_cols), np.arange(n_cols)))  # dist[k][col] = |col - k|

    slot = [n] * topo.n_tiles  # tile -> cluster, n when empty
    for c, t in enumerate(initial.assignment):
        slot[t] = c
    tile_of = list(initial.assignment) + [0]  # the phantom's tile and column never matter
    away = dist[:, [tile_col[t] for t in tile_of]]  # away[k, x] = |k - col[x]|, (n_cols, n + 1)
    table = (n + 1) * n_cols <= PRICE_TABLE_MAX_CELLS
    if table:
        price = weight @ away.T  # price[c, k], (n + 1, n_cols)
        price_row = [memoryview(r) for r in price]  # an entry of a row's view reads as a Python int
    else:
        away_row = list(away)  # row views, as w_row

    cost = placement_cost(g, topo, initial)
    best_cost = cost
    best = tile_of[:n]
    temp = T0_PER_CLUSTER * cost / epoch
    rng = random.Random(seed)
    # a tile is drawn as randrange(n_tiles) draws it: k-bit words until one is
    # below n_tiles, the same stream without randrange's Python frames
    n_tiles = topo.n_tiles
    k = n_tiles.bit_length()
    getrandbits = rng.getrandbits

    for it in range(MOVES_PER_CLUSTER * n):
        t1 = getrandbits(k)
        while t1 >= n_tiles:
            t1 = getrandbits(k)
        t2 = getrandbits(k)
        while t2 >= n_tiles:
            t2 = getrandbits(k)
        c1, c2 = slot[t1], slot[t2]
        a, b = tile_col[t1], tile_col[t2]
        if table:
            p1, p2 = price_row[c1], price_row[c2]
            delta = p1[b] - p1[a] + p2[a] - p2[b]
        else:
            delta = int((w_row[c1] - w_row[c2]).dot(away_row[b] - away_row[a]))  # ndarray.dot skips np.dot's dispatch
        delta += 2 * w_pair[c1][c2] * abs(a - b)
        if delta <= 0 or (temp > 1e-12 and rng.random() < math.exp(-delta / temp)):
            slot[t1], slot[t2] = c2, c1
            tile_of[c1], tile_of[c2] = t2, t1
            if a != b:
                if table:
                    price += np.multiply.outer(w_row[c1] - w_row[c2], dist[b] - dist[a])
                else:
                    away[:, c1] = dist[b]
                    away[:, c2] = dist[a]
            cost += delta
            if cost < best_cost:
                best_cost = cost
                best = tile_of[:n]
        if (it + 1) % epoch == 0:
            temp *= COOLING
    return TilePlacement(assignment=tuple(best))
