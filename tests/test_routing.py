import itertools
import json
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import build_conflict_graph, conflict_edges_from_oracle, oracle_intersect, oracle_route

from ladderbus.appgraph import ClusterGraph, generate_synthetic, make_cluster_graph
from ladderbus.grouping import scenario_switch_matrix
from ladderbus.placement import TilePlacement, place_anneal
from ladderbus.routing import RoutedPath, extract_paths, path_record
from ladderbus.topology import SwitchState, build_topology


def route(n_tiles, n_lanes, tiles, edges):
    """extract_paths on a hand-placed graph: cluster i sits on tiles[i]."""
    g = make_cluster_graph(len(tiles), [(src, dst, 1) for src, dst in edges])
    return extract_paths(g, build_topology(n_tiles, n_lanes), TilePlacement(assignment=tuple(tiles)))


def test_route_same_column_ties_to_lane_zero():
    (p,) = route(8, 3, [0, 1], [(0, 1)])
    assert (p.lane, p.cmin, p.cmax) == (0, 0, 0)


def test_route_prefers_least_loaded_lane():
    # two connections over columns 1 -> 4: the second finds lane 0 loaded
    paths = route(12, 3, [2, 8, 3, 9], [(0, 1), (2, 3)])
    assert [(p.lane, p.cmin, p.cmax) for p in paths] == [(0, 1, 4), (1, 1, 4)]


def test_route_ties_to_the_lowest_lane():
    # columns 3 -> 5 are free on every lane, so lane 0 although it carries
    # 0 -> 2; columns 1 -> 4 then load lanes 1 and 2 equally, so lane 1
    paths = route(12, 3, [0, 4, 6, 10, 2, 8], [(0, 1), (2, 3), (4, 5)])
    assert [(p.lane, p.cmin, p.cmax) for p in paths] == [(0, 0, 2), (0, 3, 5), (1, 1, 4)]


def test_route_rejects_self_connection():
    # make_cluster_graph rejects a self-loop; a graph built directly does not
    g = ClusterGraph(n_clusters=2, edges=((1, 1, 1),))
    with pytest.raises(ValueError, match="connection from tile 3 to itself"):
        extract_paths(g, build_topology(4, 2), TilePlacement(assignment=(0, 3)))


def test_route_updates_load_and_interval():
    # columns 4 -> 0 load lane 0 over [0, 4): its first and last segment are
    # then taken, so columns 3 -> 4 and 0 -> 1 go to lane 1
    paths = route(10, 2, [8, 0, 6, 9, 1, 2], [(0, 1), (2, 3), (4, 5)])
    assert [(p.lane, p.cmin, p.cmax) for p in paths] == [(0, 0, 4), (1, 3, 4), (1, 0, 1)]


def test_extract_paths_one_per_edge():
    g = make_cluster_graph(2, [(0, 1, 1)])
    topo = build_topology(4, 2)
    p = place_anneal(g, topo, seed=0)
    assert len(extract_paths(g, topo, p)) == 1

    g40 = generate_synthetic(40, 160, seed=1)
    topo40 = build_topology(40)
    p40 = place_anneal(g40, topo40, seed=1)
    paths = extract_paths(g40, topo40, p40)
    assert len(paths) == 160
    assert [p.edge_id for p in paths] == list(range(160))


def test_extract_lane_choices_match_independent_replay():
    # re-simulate least-loaded accounting from scratch and compare lane picks
    g = generate_synthetic(20, 90, seed=4)
    topo = build_topology(20)
    placement = place_anneal(g, topo, seed=2)
    paths = extract_paths(g, topo, placement)

    load = [[0] * (topo.n_columns - 1) for _ in range(topo.n_lanes)]
    for path, (src, dst, _w) in zip(paths, g.edges):
        ca = placement.tile_of(src) // 2
        cb = placement.tile_of(dst) // 2
        lo, hi = min(ca, cb), max(ca, cb)
        best = min(range(topo.n_lanes), key=lambda lane: (sum(load[lane][lo:hi]), lane))
        assert path.lane == best
        assert (path.cmin, path.cmax) == (lo, hi)
        for i in range(lo, hi):
            load[best][i] += 1


@settings(max_examples=200, deadline=None)
@given(st.integers(2, 12), st.integers(0, 6), st.integers(1, 4), st.integers(0, 10**6), st.data())
def test_extract_paths_matches_oracle_route(n, spare, n_lanes, seed, data):
    # random graphs on random injective placements, spare tiles included;
    # few lanes and columns make equal lane loads, so ties, common
    g = generate_synthetic(n, data.draw(st.integers(0, n * (n - 1))), seed=seed)
    topo = build_topology(n + spare, n_lanes)
    tiles = data.draw(st.permutations(range(topo.n_tiles)))[:n]
    paths = extract_paths(g, topo, TilePlacement(assignment=tuple(tiles)))
    assert [(p.lane, p.cmin, p.cmax) for p in paths] == oracle_route(g.edges, tiles, topo)
    assert [(p.edge_id, p.src_tile, p.dst_tile) for p in paths] == [
        (i, tiles[src], tiles[dst]) for i, (src, dst, _w) in enumerate(g.edges)]
    assert all(type(p.lane) is int for p in paths)  # numpy integers would not serialize


def intersect(a, b):
    """Conflict-graph edge between a and b, built with a as path 0 and b as path 1."""
    return build_conflict_graph([a._replace(edge_id=0), b._replace(edge_id=1)]).has_edge(0, 1)


def test_intersect_shared_source_any_lanes():
    a = RoutedPath(0, 0, 4, lane=0, cmin=0, cmax=2)
    b = RoutedPath(1, 0, 6, lane=1, cmin=0, cmax=3)
    assert intersect(a, b) and intersect(b, a)


def test_intersect_disjoint_resources_false():
    a = RoutedPath(0, 0, 4, lane=0, cmin=0, cmax=2)
    b = RoutedPath(1, 2, 7, lane=1, cmin=1, cmax=3)
    assert not intersect(a, b)
    assert not intersect(b, a)


def test_intersect_same_lane_touching_intervals():
    a = RoutedPath(0, 0, 6, lane=0, cmin=0, cmax=3)
    b = RoutedPath(1, 6, 10, lane=0, cmin=3, cmax=5)
    assert intersect(a, b)  # share the switch and rung at column 3


def test_intersect_matches_resource_set_oracle():
    topo = build_topology(20)
    g = generate_synthetic(20, 90, seed=8)
    placement = place_anneal(g, topo, seed=3)
    paths = extract_paths(g, topo, placement)
    conflicts = build_conflict_graph(paths)
    for a, b in itertools.combinations(paths, 2):
        assert conflicts.has_edge(a.edge_id, b.edge_id) == oracle_intersect(a, b, topo), (a, b)


def test_intersect_symmetric_random():
    rng = random.Random(17)
    cols = 8
    for _ in range(300):
        def rand_path(eid):
            ca, cb = rng.randrange(cols), rng.randrange(cols)
            return RoutedPath(eid, 2 * ca, 2 * cb + 1, lane=rng.randrange(3),
                              cmin=min(ca, cb), cmax=max(ca, cb))
        a, b = rand_path(0), rand_path(1)
        assert intersect(a, b) == intersect(b, a)


def test_connections_sharing_a_cluster_always_intersect():
    rng = random.Random(23)
    for _ in range(20):
        n = rng.randint(4, 16)
        g = generate_synthetic(n, rng.randint(2, n * (n - 1)), seed=rng.randint(0, 10**6))
        topo = build_topology(max(n, 2))
        placement = place_anneal(g, topo, seed=rng.randint(0, 10**6))
        conflicts = build_conflict_graph(extract_paths(g, topo, placement))
        for (i, ei), (j, ej) in itertools.combinations(enumerate(g.edges), 2):
            if {ei[0], ei[1]} & {ej[0], ej[1]}:
                assert conflicts.has_edge(i, j)


def test_conflict_edges_oracle_is_consistent():
    topo = build_topology(12)
    g = generate_synthetic(12, 40, seed=6)
    placement = place_anneal(g, topo, seed=6)
    paths = extract_paths(g, topo, placement)
    edges = conflict_edges_from_oracle(paths, topo)
    conflicts = build_conflict_graph(paths)
    for i, j in itertools.combinations(range(len(paths)), 2):
        assert (frozenset((i, j)) in edges) == conflicts.has_edge(i, j)


def test_switch_states_for_span_path():
    topo = build_topology(10, 2)  # 5 columns
    p = RoutedPath(0, 2, 9, lane=1, cmin=1, cmax=4)
    # one run over columns 1..4 of lane 1; lane 0 and column 0 stay idle
    row = scenario_switch_matrix(((0,),), [p], topo)[0]
    assert row.dtype == np.int8
    assert topo.switch_grid(row).tolist() == [
        [SwitchState.IDLE] * 5,
        [SwitchState.IDLE, SwitchState.RIGHT_RUNG, SwitchState.LEFT_RIGHT, SwitchState.LEFT_RIGHT,
         SwitchState.LEFT_RUNG],
    ]


def test_switch_states_same_column_empty():
    topo = build_topology(10, 2)
    row = scenario_switch_matrix(((0,),), [RoutedPath(0, 2, 3, lane=0, cmin=1, cmax=1)], topo)[0]
    assert not row.any()


def test_path_record_round_trip():
    # paths.json's records hold the six keys ladderbench/check.py reads, in RoutedPath's field order
    p = RoutedPath(3, 2, 9, lane=1, cmin=1, cmax=4)
    rec = json.loads(json.dumps(path_record(p)))
    assert list(rec) == ["edge", "src", "dst", "lane", "cmin", "cmax"]
    assert tuple(rec.values()) == p
