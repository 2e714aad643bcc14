"""Connection routing on the ladder.

On a ladder the geometry of a connection is forced: it occupies the
column interval between its endpoint tiles, entering and leaving
through the shared rung of each endpoint column. The only routing
freedom is the lane, chosen least-loaded at routing time, so a routed
path is its lane and its column interval [cmin, cmax]. Which paths
contend is decided from those intervals in ``grouping``.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .appgraph import ClusterGraph
from .placement import TilePlacement
from .topology import LadderTopology, tile_column


class RoutedPath(NamedTuple):
    """One connection realized on the ladder."""

    edge_id: int
    src_tile: int
    dst_tile: int
    lane: int
    cmin: int  # interval [cmin, cmax] of traversed columns, inclusive
    cmax: int


def _route(edge_id: int, src_tile: int, dst_tile: int, c1: int, c2: int, lane_load: np.ndarray) -> RoutedPath:
    """Route one connection between the tiles' columns c1 and c2 on the
    least-loaded lane; updates lane_load.

    lane_load is an (n_lanes, n_columns - 1) integer array; lane_load[lane, i]
    counts paths already using the horizontal segment between columns i and
    i+1 on that lane. The chosen lane minimizes the summed load over the
    connection's interval, ties to the lowest lane id. Same-column
    connections use only the rung, stay on lane 0 and add no load.
    """
    if src_tile == dst_tile:
        raise ValueError(f"connection from tile {src_tile} to itself")
    cmin, cmax = (c1, c2) if c1 <= c2 else (c2, c1)
    lane = 0
    if cmin < cmax:
        lane = int(np.add.reduce(lane_load[:, cmin:cmax], 1).argmin())  # argmin: the first minimum
        lane_load[lane, cmin:cmax] += 1
    return RoutedPath(edge_id, src_tile, dst_tile, lane, cmin, cmax)  # positional: a third cheaper than by keyword


def extract_paths(g: ClusterGraph, topo: LadderTopology, p: TilePlacement) -> list[RoutedPath]:
    """One RoutedPath per cluster-graph edge, in edge-id order, each cluster's
    column worked out once."""
    p.validate(g, topo)
    lane_load = np.zeros((topo.n_lanes, max(topo.n_columns - 1, 0)), dtype=np.int64)
    tiles = p.assignment
    cols = [tile_column(topo, t) for t in tiles]
    return [
        _route(edge_id, tiles[src], tiles[dst], cols[src], cols[dst], lane_load)
        for edge_id, (src, dst, _w) in enumerate(g.edges)
    ]


def path_record(path: RoutedPath) -> dict:
    """A path as paths.json stores it."""
    return {
        "edge": path.edge_id,
        "src": path.src_tile,
        "dst": path.dst_tile,
        "lane": path.lane,
        "cmin": path.cmin,
        "cmax": path.cmax,
    }
