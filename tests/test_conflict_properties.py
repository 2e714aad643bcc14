"""Property tests: the reference's structural conflict build agrees with
the pairwise resource-set oracle, validation agrees with the oracle on
any assignment of paths to scenarios, the structural bound lies below
the oracle's clique number, group_greedy is the oracle's per-path
first-fit and the conflict graph's colour classes, group_iterated is a
valid grouping between the bound and first-fit and the same on every
run, the reference max_clique returns the oracle's lexicographically
first maximum clique and, cut short by its node budget, a clique no
smaller than the largest rung star, the switch-state matrix of either
grouper's partition agrees row by row with the per-switch oracle, and a
scenarios.json record gives back the partition and that matrix."""

import collections
import itertools
import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import conftest
from conftest import (
    build_conflict_graph,
    colour_classes,
    conflict_edges_from_oracle,
    decode_switch_runs,
    group_max_clique,
    ladder_paths,
    mask_members,
    max_clique,
    optimal_grouping_exact,
    oracle_first_fit,
    oracle_intersect,
    oracle_max_clique,
    oracle_path_resources,
    oracle_switch_vector,
)

from ladderbus.grouping import (
    GROUPING_ALGORITHMS,
    compressed_scenario_bits,
    group_greedy,
    group_iterated,
    group_paths,
    partition_from_record,
    scenario_lower_bound,
    scenario_set_record,
    scenario_switch_matrix,
    validate_scenario_set,
)


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
                assert g.has_edge(i, j) == oracle_intersect(a, b, topo)
                edges += g.has_edge(i, j)
    assert g.m == edges // 2


@settings(max_examples=150, deadline=None)
@given(ladder_paths())
def test_validate_accepts_greedy_and_rejects_a_conflicting_move(instance):
    topo, paths = instance
    g = build_conflict_graph(paths)
    sset = group_greedy(paths)
    for partition in (sset, group_iterated(paths, scenario_lower_bound(paths), sset), group_max_clique(g),
                      optimal_grouping_exact(g)):
        validate_scenario_set(partition.scenarios, paths)
    if not paths:
        return
    dropped = [list(s) for s in sset.scenarios]
    dropped[0].pop()
    with pytest.raises(ValueError, match="do not partition"):
        validate_scenario_set(dropped, paths)
    with pytest.raises(ValueError, match="do not partition"):
        validate_scenario_set([*sset.scenarios, (0,)], paths)
    if sset.n_scenarios < 2:
        return
    # first-fit put each member of scenario 1 there because it conflicts with scenario 0
    moved = sset.scenarios[1][0]
    scenarios = [list(s) for s in sset.scenarios]
    scenarios[1].remove(moved)
    scenarios[0].append(moved)
    with pytest.raises(ValueError, match=r"scenario 0: paths \d+ and \d+ intersect"):
        validate_scenario_set(scenarios, paths)


@settings(max_examples=300, deadline=None)
@given(ladder_paths(), st.data())
def test_validate_matches_oracle_on_any_assignment(instance, data):
    # any assignment of the paths to scenarios, in any member order, not only a grouper's
    topo, paths = instance
    labels = data.draw(st.lists(st.integers(0, 3), min_size=len(paths), max_size=len(paths)))
    scenarios = [data.draw(st.permutations([pid for pid, label in enumerate(labels) if label == k]))
                 for k in range(4)]
    bad = [k for k, s in enumerate(scenarios)
           if any(oracle_intersect(paths[a], paths[b], topo) for a, b in itertools.combinations(s, 2))]
    if not bad:
        validate_scenario_set(scenarios, paths)
        return
    with pytest.raises(ValueError, match=rf"scenario {bad[0]}: paths (\d+) and (\d+) intersect") as exc:
        validate_scenario_set(scenarios, paths)
    a, b = map(int, re.search(r"paths (\d+) and (\d+)", str(exc.value)).groups())
    assert a != b and {a, b} <= set(scenarios[bad[0]])
    assert oracle_intersect(paths[a], paths[b], topo)


@settings(max_examples=300, deadline=None)
@given(ladder_paths())
def test_greedy_is_per_path_first_fit(instance):
    topo, paths = instance
    partition = group_greedy(paths)
    assert partition.scenarios == oracle_first_fit(paths, topo)
    assert partition.algorithm == "greedy" and partition.stats is None


@settings(max_examples=300, deadline=None)
@given(ladder_paths())
def test_iterated_is_a_valid_grouping_between_bound_and_first_fit(instance):
    topo, paths = instance
    bound = scenario_lower_bound(paths)
    partition = group_iterated(paths, bound, group_greedy(paths))
    validate_scenario_set(partition.scenarios, paths)
    res = [oracle_path_resources(p, topo) for p in paths]
    assert sorted(pid for s in partition.scenarios for pid in s) == list(range(len(paths)))
    for members in partition.scenarios:
        assert list(members) == sorted(members)
        for a, b in itertools.combinations(members, 2):
            assert not res[a] & res[b]
    assert bound <= partition.n_scenarios <= group_greedy(paths).n_scenarios
    assert partition.algorithm == "iterated"
    assert group_iterated(list(paths), bound, group_greedy(list(paths))) == partition


@settings(max_examples=300, deadline=None)
@given(ladder_paths())
def test_greedy_is_the_colour_classes_of_the_conflict_graph(instance):
    # first-fit and the clique search's colouring stay one partition
    _topo, paths = instance
    classes = colour_classes(build_conflict_graph(paths).adj, (1 << len(paths)) - 1)
    assert group_greedy(paths).scenarios == tuple(mask_members(c) for c in classes)


@settings(max_examples=300, deadline=None)
@given(ladder_paths(), st.data())
def test_colour_classes_and_members_of_any_path_subset(instance, data):
    # the clique search colours subsets of the paths, not only all of them
    topo, paths = instance
    p = data.draw(st.integers(0, (1 << len(paths)) - 1))
    wide = data.draw(st.integers(0, (1 << 200) - 1))
    for mask in (p, wide):
        assert mask_members(mask) == tuple(v for v in range(mask.bit_length()) if (mask >> v) & 1)
    edges = conflict_edges_from_oracle(paths, topo)
    classes = [mask_members(c) for c in colour_classes(build_conflict_graph(paths).adj, p)]
    assert all(classes)
    assert sorted(v for c in classes for v in c) == list(mask_members(p))
    for k, members in enumerate(classes):
        assert not any(frozenset(pair) in edges for pair in itertools.combinations(members, 2))
        for v in members:  # greedy: v met a conflict in every earlier class
            assert all(any(frozenset((u, v)) in edges for u in earlier) for earlier in classes[:k])


@settings(max_examples=150, deadline=None)
@given(ladder_paths())
def test_lower_bound_below_clique_number_below_groupings(instance):
    topo, paths = instance
    omega = len(oracle_max_clique(len(paths), conflict_edges_from_oracle(paths, topo)))
    assert scenario_lower_bound(paths) <= omega
    assert omega <= group_greedy(paths).n_scenarios
    assert omega <= group_iterated(paths, scenario_lower_bound(paths), group_greedy(paths)).n_scenarios
    assert omega <= group_max_clique(build_conflict_graph(paths)).n_scenarios


@settings(max_examples=300, deadline=None)
@given(ladder_paths())
def test_max_clique_is_lexicographically_first_maximum(instance):
    topo, paths = instance
    if paths:
        expected = oracle_max_clique(len(paths), conflict_edges_from_oracle(paths, topo))
        assert max_clique(build_conflict_graph(paths)) == expected


@settings(max_examples=300, deadline=None)
@given(ladder_paths())
def test_budget_expired_clique_not_below_largest_rung(instance):
    topo, paths = instance
    if paths:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(conftest, "CLIQUE_TICK_LIMIT", 1)  # cut at the search's second node
            clique = max_clique(build_conflict_graph(paths))
        assert all(oracle_intersect(paths[u], paths[v], topo) for u, v in itertools.combinations(clique, 2))
        star = collections.Counter(c for p in paths for c in {p.cmin, p.cmax})
        assert len(clique) >= max(star.values())


@settings(max_examples=300, deadline=None)
@given(ladder_paths(), st.sampled_from(GROUPING_ALGORITHMS), st.data())
def test_scenario_switch_matrix_matches_oracle(instance, algorithm, data):
    topo, paths = instance
    partition = group_paths([algorithm], paths, scenario_lower_bound(paths))[algorithm]
    # the members of an independent set write disjoint switches, so their order is free
    scenarios = [data.draw(st.permutations(s)) for s in partition.scenarios]
    matrix = scenario_switch_matrix(scenarios, paths, topo)
    assert matrix.dtype == np.int8 and matrix.shape == (partition.n_scenarios, topo.n_switches)
    assert matrix.tolist() == [list(oracle_switch_vector(topo, s, paths)) for s in scenarios]


@settings(max_examples=200, deadline=None)
@given(ladder_paths(), st.sampled_from(GROUPING_ALGORITHMS))
def test_scenario_record_json_round_trip(instance, algorithm):
    topo, paths = instance
    partition = group_paths([algorithm], paths, scenario_lower_bound(paths))[algorithm]
    matrix = scenario_switch_matrix(partition.scenarios, paths, topo)
    rec = json.loads(json.dumps(scenario_set_record(partition, matrix)))
    assert partition_from_record(rec, len(paths)) == partition  # memberships and stats, algorithm included
    expected = [oracle_switch_vector(topo, s, paths) for s in partition.scenarios]
    assert decode_switch_runs(rec) == matrix.tolist() == [list(vec) for vec in expected]
    runs = sum(len(list(itertools.groupby(vec))) for vec in expected)
    length_bits = max((topo.n_switches - 1).bit_length(), 1)
    assert compressed_scenario_bits(rec, topo) == runs * (2 + length_bits)
