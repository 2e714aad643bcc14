import collections
import hashlib
import itertools
import json
import random
import time
import tracemalloc

import numpy as np
import pytest

import conftest
from conftest import (
    ConflictGraph,
    build_conflict_graph,
    colour_classes,
    conflict_edges_from_oracle,
    decode_switch_runs,
    group_max_clique,
    mask_members,
    max_clique,
    optimal_grouping_exact,
    oracle_chromatic_number,
    oracle_max_clique,
)

from ladderbus import grouping
from ladderbus.appgraph import generate_synthetic, make_cluster_graph
from ladderbus.grouping import (
    GroupingStats,
    compressed_scenario_bits,
    group_greedy,
    group_iterated,
    partition_from_record,
    raw_scenario_bits,
    rle_encode,
    scenario_lower_bound,
    scenario_set_record,
    scenario_switch_matrix,
    validate_scenario_set,
)
from ladderbus.placement import place_anneal, place_greedy
from ladderbus.routing import RoutedPath, extract_paths
from ladderbus.topology import SwitchState, build_topology


def graph_from_edges(n, edges):
    adj = [0] * n
    for u, v in edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return ConflictGraph(n=n, m=len(set(map(frozenset, edges))), adj=tuple(adj))


def star_paths(k, topo):
    """k connections out of one source tile: complete conflict graph."""
    return [RoutedPath(i, 0, 2 * (i + 1), lane=i % topo.n_lanes, cmin=0, cmax=i + 1)
            for i in range(k)]


def routed_instance(n, e, seed):
    g = generate_synthetic(n, e, seed)
    topo = build_topology(max(n, 2))
    placement = place_anneal(g, topo, seed=seed + 1)
    return g, topo, extract_paths(g, topo, placement)


def iterated(paths):
    return group_iterated(paths, scenario_lower_bound(paths), group_greedy(paths))


# ---------------------------------------------------------------------------
# conflict graph (the max-clique reference's, in conftest)


def test_conflict_graph_no_conflicts():
    # same-column paths in distinct columns never touch
    topo = build_topology(8, 2)
    paths = [RoutedPath(i, 2 * i, 2 * i + 1, lane=0, cmin=i, cmax=i) for i in range(4)]
    g = build_conflict_graph(paths)
    assert g.m == 0


def test_conflict_graph_shared_source_complete():
    topo = build_topology(12, 5)
    k = 5
    g = build_conflict_graph(star_paths(k, topo))
    assert g.m == k * (k - 1) // 2
    assert all(g.has_edge(i, j) for i, j in itertools.combinations(range(k), 2))


def test_conflict_graph_matches_oracle_count():
    _, topo, paths = routed_instance(12, 44, seed=3)
    paths = paths[:20]
    g = build_conflict_graph(paths)
    oracle_edges = conflict_edges_from_oracle(paths, topo)
    assert g.m == len(oracle_edges)
    for i, j in itertools.combinations(range(len(paths)), 2):
        assert g.has_edge(i, j) == (frozenset((i, j)) in oracle_edges)


def test_conflict_graph_requires_edge_id_order():
    topo = build_topology(6, 2)
    bad = [RoutedPath(1, 0, 2, lane=0, cmin=0, cmax=1)]
    with pytest.raises(ValueError):
        build_conflict_graph(bad)


# ---------------------------------------------------------------------------
# greedy grouping


def test_greedy_non_intersecting_single_scenario():
    topo = build_topology(8, 2)
    paths = [RoutedPath(i, 2 * i, 2 * i + 1, lane=0, cmin=i, cmax=i) for i in range(4)]
    assert group_greedy(paths).n_scenarios == 1


def test_greedy_mutually_intersecting_k_scenarios():
    topo = build_topology(12, 5)
    assert group_greedy(star_paths(5, topo)).n_scenarios == 5


def test_greedy_chain_conflicts_two_scenarios():
    # conflicts (0,1) and (1,2) only -> [{0,2},{1}]
    topo = build_topology(8, 3)
    paths = [
        RoutedPath(0, 0, 2, lane=0, cmin=0, cmax=1),
        RoutedPath(1, 2, 4, lane=1, cmin=1, cmax=2),
        RoutedPath(2, 4, 6, lane=2, cmin=2, cmax=3),
    ]
    sset = group_greedy(paths)
    assert sset.scenarios == ((0, 2), (1,))


def test_greedy_is_the_colour_classes_on_routed_instances():
    # scenario masks wider than one 30-bit int digit, which the property tests' 12 paths never reach
    for shape in [(60, 772, 0), (96, 1068, 0)]:
        _, topo, paths = routed_instance(*shape)
        classes = colour_classes(build_conflict_graph(paths).adj, (1 << len(paths)) - 1)
        partition = group_greedy(paths)
        assert partition.n_scenarios > 30
        assert partition.scenarios == tuple(mask_members(c) for c in classes)


def test_greedy_memory_is_far_below_the_conflict_graph():
    # n=200/E=4000: the conflict graph's adjacency masks alone would take E^2/8 bytes (2 MB)
    g = generate_synthetic(200, 4000, 0)
    topo = build_topology(200)
    paths = extract_paths(g, topo, place_greedy(g, topo))
    tracemalloc.start()
    try:
        group_greedy(paths)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < len(paths) ** 2 / 8 / 4


def test_greedy_first_fit_bound():
    for seed in range(10):
        _, topo, paths = routed_instance(14, 50, seed=seed)
        g = build_conflict_graph(paths)
        max_deg = max(g.degree(v) for v in range(g.n))
        assert group_greedy(paths).n_scenarios <= max_deg + 1


# ---------------------------------------------------------------------------
# iterated first-fit


def test_iterated_small_cases():
    topo = build_topology(12, 5)
    assert iterated([]) == grouping.Partition((), "iterated", GroupingStats(rounds=0))
    assert iterated(star_paths(5, topo)).n_scenarios == 5
    same_column = [RoutedPath(i, 2 * i, 2 * i + 1, lane=0, cmin=i, cmax=i) for i in range(4)]
    assert iterated(same_column).scenarios == ((0, 1, 2, 3),)


def test_iterated_reaches_the_bound_first_fit_misses():
    # conflicts 0-2, 2-3 and 3-1 only (shared rungs at columns 1, 2 and 3): a
    # chain that first-fit in id order splits [{0, 1}, {2}, {3}], and that the
    # reversed round packs into B = 2 scenarios
    paths = [RoutedPath(0, 0, 2, lane=0, cmin=0, cmax=1), RoutedPath(1, 6, 8, lane=1, cmin=3, cmax=4),
             RoutedPath(2, 3, 4, lane=1, cmin=1, cmax=2), RoutedPath(3, 4, 6, lane=0, cmin=2, cmax=3)]
    assert group_greedy(paths).n_scenarios == 3
    assert scenario_lower_bound(paths) == 2
    part = iterated(paths)
    validate_scenario_set(part.scenarios, paths)
    assert part.n_scenarios == 2 and part.stats == GroupingStats(rounds=1)


def test_iterated_starts_from_first_fit_and_stops_at_the_bound():
    # here first-fit already stores B scenarios, so no round runs
    _, _, paths = routed_instance(11, 18, seed=2)
    assert group_greedy(paths).n_scenarios == scenario_lower_bound(paths)
    part = iterated(paths)
    assert part.scenarios == group_greedy(paths).scenarios and part.stats.rounds == 0


def test_iterated_stops_after_stall_rounds(monkeypatch):
    # an unreachable bound: only the rounds without a gain stop the search
    _, _, paths = routed_instance(60, 772, seed=0)
    counts = []
    first_fit = grouping._first_fit

    def counted(paths, order):
        counts.append(len(result := first_fit(paths, order)))
        return result

    monkeypatch.setattr(grouping, "_first_fit", counted)
    part = group_iterated(paths, 0, group_greedy(paths))
    assert part.stats.rounds == len(counts) - 1 >= grouping.STALL_ROUNDS
    assert counts == sorted(counts, reverse=True) and counts[-1] == part.n_scenarios
    # the last STALL_ROUNDS rounds gained nothing, the one before them did
    assert counts[-grouping.STALL_ROUNDS - 1:] == [part.n_scenarios] * (grouping.STALL_ROUNDS + 1)
    assert len(counts) == grouping.STALL_ROUNDS + 1 or counts[-grouping.STALL_ROUNDS - 2] > part.n_scenarios


def test_iterated_never_above_first_fit_on_routed_instances():
    for shape in [(24, 128, 0), (40, 292, 1), (60, 772, 0), (96, 1068, 0)]:
        _, _, paths = routed_instance(*shape)
        part = iterated(paths)
        validate_scenario_set(part.scenarios, paths)
        assert scenario_lower_bound(paths) <= part.n_scenarios <= group_greedy(paths).n_scenarios
        assert all(list(s) == sorted(s) for s in part.scenarios)


# sha256 prefix of [scenarios, rounds] as JSON, on the instances whose max-clique
# partitions are pinned below, and on two more, (40, 160, 3) and (96, 1068, 1).
# Three stop above B after STALL_ROUNDS rounds without a gain and so run every
# order of the rotation: a change to the rotation or the stop rule must not
# move them silently
PINNED_ITERATED_PARTITIONS = {
    (24, 128, 0): "ed788b09b98f08d2",  # 27 scenarios = B, 0 rounds
    (40, 160, 3): "4edb069311773239",  # 20 scenarios, B = 19, 11 rounds
    (40, 292, 0): "2742d6f24132d292",  # 38 scenarios = B, 1 round
    (60, 772, 0): "960ff562ebe53d64",  # 71 scenarios = B, 1 round
    (96, 1068, 0): "9677141d83ea4797",  # 59 scenarios, B = 56, 16 rounds
    (96, 1068, 1): "7d03d2198600132d",  # 60 scenarios, B = 59, 14 rounds
}


@pytest.mark.parametrize("shape", sorted(PINNED_ITERATED_PARTITIONS))
def test_group_iterated_partitions_pinned(shape):
    _, topo, paths = routed_instance(*shape)
    part = iterated(paths)
    doc = json.dumps([part.scenarios, part.stats.rounds])
    assert hashlib.sha256(doc.encode()).hexdigest()[:16] == PINNED_ITERATED_PARTITIONS[shape]


# ---------------------------------------------------------------------------
# max clique (the reference in conftest)


def test_max_clique_triangle_with_pendant():
    g = graph_from_edges(4, [(0, 1), (1, 2), (0, 2), (2, 3)])
    assert max_clique(g) == [0, 1, 2]


def test_max_clique_edgeless_lexicographic():
    g = graph_from_edges(5, [])
    assert max_clique(g) == [0]


def test_max_clique_lexicographic_tie_break():
    # two maximum cliques {2,3} and {0,5}: sorted tuple (0,5) wins
    g = graph_from_edges(6, [(2, 3), (0, 5)])
    assert max_clique(g) == [0, 5]


def test_max_clique_empty_graph_rejected():
    with pytest.raises(ValueError):
        max_clique(ConflictGraph(n=0, m=0, adj=()))


def test_max_clique_random_matches_brute_force():
    rng = random.Random(123)
    for trial in range(25):
        n = 14 if trial < 3 else rng.randint(4, 12)
        edges = [(u, v) for u, v in itertools.combinations(range(n), 2) if rng.random() < 0.5]
        # the lexicographically first of the maximum cliques, not just one of them
        assert max_clique(graph_from_edges(n, edges)) == oracle_max_clique(n, set(map(frozenset, edges))), trial


def test_max_clique_deterministic():
    rng = random.Random(9)
    edges = [(u, v) for u, v in itertools.combinations(range(14), 2) if rng.random() < 0.4]
    g = graph_from_edges(14, edges)
    assert max_clique(g) == max_clique(g)


def test_max_clique_budget_fallback_counted(monkeypatch):
    rng = random.Random(77)
    n = 80
    edges = [(u, v) for u, v in itertools.combinations(range(n), 2) if rng.random() < 0.5]
    g = graph_from_edges(n, edges)
    monkeypatch.setattr(conftest, "CLIQUE_TICK_LIMIT", 100)
    stats = group_max_clique(g).stats
    assert 1 <= stats.clique_fallbacks <= stats.clique_calls
    clique = max_clique(g)
    # fallback still returns a valid clique, and the same one every time
    edge_set = {frozenset(e) for e in edges}
    assert all(frozenset((u, v)) in edge_set for u, v in itertools.combinations(clique, 2))
    assert len(clique) >= 1
    assert max_clique(g) == clique


def test_budget_expired_clique_not_below_largest_rung(monkeypatch):
    # here a greedy most-neighbours clique has 59 members, the largest rung 69
    _, _, paths = routed_instance(60, 772, seed=0)
    g = build_conflict_graph(paths)
    monkeypatch.setattr(conftest, "CLIQUE_TICK_LIMIT", 1)  # cut at the search's second node
    clique = max_clique(g)
    assert all(g.has_edge(u, v) for u, v in itertools.combinations(clique, 2))
    star = collections.Counter(c for p in paths for c in {p.cmin, p.cmax})
    assert len(clique) >= max(star.values())


# ---------------------------------------------------------------------------
# max-clique grouping (the reference in conftest)


def test_group_max_clique_complete_graph():
    topo = build_topology(12, 5)
    sset = group_max_clique(build_conflict_graph(star_paths(5, topo)))
    assert sset.n_scenarios == 5
    assert sset.stats.clique_fallbacks == 0


def test_group_max_clique_no_conflicts_single_scenario():
    topo = build_topology(8, 2)
    paths = [RoutedPath(i, 2 * i, 2 * i + 1, lane=0, cmin=i, cmax=i) for i in range(4)]
    assert group_max_clique(build_conflict_graph(paths)).n_scenarios == 1


def test_group_max_clique_empty_input():
    topo = build_topology(4, 2)
    assert group_max_clique(build_conflict_graph([])).n_scenarios == 0
    assert group_greedy([]).n_scenarios == 0


def test_group_max_clique_bounds_random():
    for seed in range(8):
        g, topo, paths = routed_instance(10, 24, seed=seed)
        paths = paths[:12]
        if not paths:
            continue
        cg = build_conflict_graph(paths)
        sset = group_max_clique(cg)
        validate_scenario_set(sset.scenarios, paths)
        omega = len(max_clique(cg))
        exact = optimal_grouping_exact(cg)
        assert omega <= exact.n_scenarios <= sset.n_scenarios
        max_deg = max(cg.degree(v) for v in range(cg.n))
        assert sset.n_scenarios <= max_deg + 1


def test_group_max_clique_ignores_wall_clock(monkeypatch):
    # a machine so slow that an hour passes between two clock reads
    _, topo, paths = routed_instance(60, 348, seed=0)
    cg = build_conflict_graph(paths)
    expected = group_max_clique(cg)
    clock = itertools.count(step=3600.0)
    monkeypatch.setattr(time, "monotonic", lambda: next(clock))
    slow = group_max_clique(cg)
    assert slow.scenarios == expected.scenarios
    assert slow.stats == expected.stats and slow.stats.clique_fallbacks == 0


# sha256 prefix of [scenarios, clique_calls, clique_fallbacks] as JSON
PINNED_MAX_CLIQUE_PARTITIONS = {
    (24, 128, 0): "19d385a4b8f77594",
    (40, 292, 0): "7871c36c1faf11c3",
    (60, 772, 0): "7780805d49d999ff",
    (96, 1068, 0): "827eaa0faa32969e",
}


@pytest.mark.parametrize("shape", sorted(PINNED_MAX_CLIQUE_PARTITIONS))
def test_group_max_clique_partitions_pinned(shape):
    # a change to the clique search must not move these partitions silently
    _, topo, paths = routed_instance(*shape)
    part = group_max_clique(build_conflict_graph(paths))
    doc = json.dumps([part.scenarios, part.stats.clique_calls, part.stats.clique_fallbacks])
    assert hashlib.sha256(doc.encode()).hexdigest()[:16] == PINNED_MAX_CLIQUE_PARTITIONS[shape]


def test_grouping_deterministic():
    _, topo, paths = routed_instance(24, 128, seed=5)
    first, second = build_conflict_graph(paths), build_conflict_graph(paths)
    assert group_max_clique(first).scenarios == group_max_clique(second).scenarios
    assert group_greedy(paths).scenarios == group_greedy(list(paths)).scenarios
    assert iterated(paths) == iterated(list(paths))


# ---------------------------------------------------------------------------
# lower bound


def test_lower_bound_star():
    # five connections out of cluster 0 all use the rung of its column
    g = make_cluster_graph(6, [(0, i, 1) for i in range(1, 6)])
    topo = build_topology(6)
    assert scenario_lower_bound(extract_paths(g, topo, place_greedy(g, topo))) == 5


def test_lower_bound_lane_cover():
    # three nested intervals on one lane share the switch at column 2; no
    # column has more than two path ends
    paths = [RoutedPath(0, 0, 8, lane=0, cmin=0, cmax=4), RoutedPath(1, 2, 6, lane=0, cmin=1, cmax=3),
             RoutedPath(2, 5, 4, lane=0, cmin=2, cmax=2), RoutedPath(3, 0, 2, lane=1, cmin=0, cmax=1)]
    assert scenario_lower_bound(paths) == 3
    assert len(max_clique(build_conflict_graph(paths))) == 3
    assert scenario_lower_bound([]) == 0


def test_lower_bound_reference_counts():
    # application-shaped fixture with largest total degree 6; the measured
    # implementation needed 8 scenarios, which the structural bound proves optimal
    g, topo, paths = routed_instance(11, 18, seed=2)
    assert max(g.total_degrees()) == 6
    assert scenario_lower_bound(paths) == 8


def test_lower_bound_holds_for_groupings():
    for n, e, seed in [(11, 18, 2), (60, 772, 1)]:
        g, topo, paths = routed_instance(n, e, seed)
        bound = scenario_lower_bound(paths)
        assert bound >= max(g.total_degrees())
        assert group_greedy(paths).n_scenarios >= bound
        assert group_iterated(paths, bound, group_greedy(paths)).n_scenarios >= bound
        assert group_max_clique(build_conflict_graph(paths)).n_scenarios >= bound


def test_lower_bound_synth60_772_paper_value_respected():
    g, topo, paths = routed_instance(60, 772, seed=1)
    # the published largest-degree figure for this shape
    assert iterated(paths).n_scenarios >= 21
    assert group_max_clique(build_conflict_graph(paths)).n_scenarios >= 21


# ---------------------------------------------------------------------------
# exact oracle


def test_exact_complete_graph():
    topo = build_topology(12, 5)
    assert optimal_grouping_exact(build_conflict_graph(star_paths(5, topo))).n_scenarios == 5


def test_exact_five_cycle_needs_three():
    # paths over column pairs (0,1),(1,2),(2,3),(3,4),(4,0), each on its own
    # lane: the conflict graph is a 5-cycle, chromatic number 3
    topo = build_topology(10, 5)
    cols = [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)]
    paths = [
        RoutedPath(i, 2 * a, 2 * b, lane=i, cmin=min(a, b), cmax=max(a, b))
        for i, (a, b) in enumerate(cols)
    ]
    cg = build_conflict_graph(paths)
    assert cg.m == 5
    sset = optimal_grouping_exact(cg)
    assert sset.n_scenarios == 3
    validate_scenario_set(sset.scenarios, paths)


def test_exact_matches_backtracking_oracle():
    for seed in range(10):
        _, topo, paths = routed_instance(8, 18, seed=seed)
        paths = paths[:10]
        edges = conflict_edges_from_oracle(paths, topo)
        assert optimal_grouping_exact(build_conflict_graph(paths)).n_scenarios == oracle_chromatic_number(
            len(paths), edges
        )


def test_exact_guards_instance_size():
    topo = build_topology(40, 2)
    paths = [RoutedPath(i, 2 * i, 2 * i + 1, lane=0, cmin=i, cmax=i) for i in range(16)]
    with pytest.raises(ValueError):
        optimal_grouping_exact(build_conflict_graph(paths))


# ---------------------------------------------------------------------------
# validity and serialization


def test_validate_rejects_non_partition():
    _, topo, paths = routed_instance(6, 8, seed=0)
    sset = group_greedy(paths)
    if sset.n_scenarios > 1:
        with pytest.raises(ValueError):
            validate_scenario_set(sset.scenarios[:-1], paths)


def test_validate_rejects_conflicting_scenario():
    topo = build_topology(12, 5)
    with pytest.raises(ValueError, match="scenario 0: paths 0 and 1 intersect"):
        validate_scenario_set(((0, 1), (2,)), star_paths(3, topo))


@pytest.mark.parametrize("lane, cmin, cmax", [(0, 3, 1), (-1, 0, 1), (2, 0, 1), (0, -1, 1), (0, 2, 4), (1, 4, 4)],
                         ids=["reversed", "lane-negative", "lane-past-last", "cmin-negative", "cmax-past-last",
                              "same-column"])
def test_switch_matrix_rejects_path_off_the_ladder(lane, cmin, cmax):
    topo = build_topology(8, 2)  # 2 lanes, 4 columns
    paths = [RoutedPath(0, 0, 2, lane=0, cmin=0, cmax=1), RoutedPath(1, 0, 2, lane=lane, cmin=cmin, cmax=cmax)]
    # numpy slicing would truncate the run of such a path, or wrap a negative index
    with pytest.raises(ValueError, match=rf"path 1: lane {lane}, columns \[{cmin}, {cmax}\] .* 2-lane, 4-column"):
        scenario_switch_matrix(((0,), (1,)), paths, topo)


def test_scenario_vectors_idle_elsewhere():
    _, topo, paths = routed_instance(10, 20, seed=1)
    scenarios = iterated(paths).scenarios
    matrix = scenario_switch_matrix(scenarios, paths, topo)
    assert matrix.shape == (len(scenarios), topo.n_switches) and matrix.dtype == np.int8
    for members, vec in zip(scenarios, matrix):
        expected = {}
        for pid in members:
            p = paths[pid]
            if p.cmin < p.cmax:  # RIGHT_RUNG, LEFT_RIGHT inside, LEFT_RUNG
                for c in range(p.cmin, p.cmax + 1):
                    state = (SwitchState.RIGHT_RUNG if c == p.cmin else SwitchState.LEFT_RUNG if c == p.cmax
                             else SwitchState.LEFT_RIGHT)
                    expected[p.lane * topo.n_columns + c] = state
        for idx, state in enumerate(vec):
            assert state == expected.get(idx, 0)


@pytest.mark.parametrize("vec, runs", [
    ((), []),
    ((2,) * 5, [[2, 5]]),
    ((1, 0) * 3, [[1, 1], [0, 1]] * 3),
    ((0, 0, 0, 1, 1, 2, 0, 0, 3), [[0, 3], [1, 2], [2, 1], [0, 2], [3, 1]]),
], ids=["empty", "one-run", "alternating", "all-four-states"])
def test_rle_round_trip(vec, runs):
    assert rle_encode(np.array(vec, dtype=np.int8)) == runs
    assert decode_switch_runs({"scenarios": [{"switches_rle": runs}]}) == [list(vec)]


def test_scenario_record_round_trip():
    _, topo, paths = routed_instance(12, 30, seed=2)
    for partition in (iterated(paths), group_greedy(paths)):
        matrix = scenario_switch_matrix(partition.scenarios, paths, topo)
        rec = scenario_set_record(partition, matrix)
        back = partition_from_record(rec, len(paths))
        assert back == partition and decode_switch_runs(rec) == matrix.tolist()
        assert scenario_set_record(back, scenario_switch_matrix(back.scenarios, paths, topo)) == rec
    # first-fit searches nothing, so its record has no stats
    assert "stats" not in rec and back.stats is None
    rec = scenario_set_record(iterated(paths), matrix)
    assert rec["algorithm"] == "iterated" and rec["stats"] == {"rounds": iterated(paths).stats.rounds}
    for stats in ({"clique_calls": 1}, {"rounds": True}, [0]):
        with pytest.raises(ValueError, match="'stats' needs the integer 'rounds'"):
            partition_from_record({**rec, "stats": stats}, len(paths))


def test_bit_accounting():
    _, topo, paths = routed_instance(12, 30, seed=2)
    partition = iterated(paths)
    rec = scenario_set_record(partition, scenario_switch_matrix(partition.scenarios, paths, topo))
    assert raw_scenario_bits(partition.n_scenarios, topo) == partition.n_scenarios * 2 * topo.n_switches
    assert 0 < compressed_scenario_bits(rec, topo)
