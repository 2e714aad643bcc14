"""Property tests: the structural conflict build agrees with the pairwise
predicate and the resource-set oracle, and validation reads its masks."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import oracle_intersect

from ladderbus.grouping import ScenarioSet, build_conflict_graph, group_greedy, validate_scenario_set
from ladderbus.routing import RoutedPath, paths_intersect
from ladderbus.topology import build_topology, tile_column


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


@settings(max_examples=300, deadline=None)
@given(ladder_paths())
def test_conflict_graph_matches_predicate_and_oracle(instance):
    topo, paths = instance
    g = build_conflict_graph(paths)
    assert g.n == len(paths)
    edges = 0
    for i, a in enumerate(paths):
        assert not g.has_edge(i, i)
        for j, b in enumerate(paths):
            if i != j:
                assert g.has_edge(i, j) == oracle_intersect(a, b, topo) == paths_intersect(a, b)
                edges += g.has_edge(i, j)
    assert g.m == edges // 2


@settings(max_examples=150, deadline=None)
@given(ladder_paths())
def test_validate_accepts_greedy_and_rejects_a_conflicting_move(instance):
    topo, paths = instance
    sset = group_greedy(paths, topo)
    validate_scenario_set(sset, paths, topo)
    if sset.n_scenarios < 2:
        return
    # first-fit put each member of scenario 1 there because it conflicts with scenario 0
    moved = sset.scenarios[1][0]
    scenarios = [list(s) for s in sset.scenarios]
    scenarios[1].remove(moved)
    scenarios[0].append(moved)
    bad = ScenarioSet(scenarios=tuple(tuple(s) for s in scenarios), switch_vectors=sset.switch_vectors)
    with pytest.raises(ValueError, match="intersect"):
        validate_scenario_set(bad, paths, topo)
