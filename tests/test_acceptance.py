"""Acceptance suite: one test per release criterion, one PASS line each.

Run with `pytest -s tests/test_acceptance.py` to see the PASS lines and
the reported per-cell statistics.
"""

import time
from collections import defaultdict

from conftest import (
    CORPUS_SHAPES,
    build_conflict_graph,
    group_max_clique,
    max_clique,
    optimal_grouping_exact,
    oracle_max_clique,
    oracle_path_resources,
)

from ladderbus.appgraph import generate_synthetic
from ladderbus.controlgen import (
    decode_programs,
    default_controller_count,
    encode_scenarios,
    partition_regions,
)
from ladderbus.costmodel import (
    calibrate,
    cost_report,
    data_plane_cost,
    reference_observations,
    scaling_sweep,
)
from ladderbus.grouping import group_greedy, group_iterated, scenario_lower_bound, scenario_switch_matrix
from ladderbus.placement import place_anneal
from ladderbus.routing import extract_paths
from ladderbus.sim import run_frames
from ladderbus.topology import build_topology


def test_criterion_1_grouping_validity_under_oracle(corpus):
    start = time.perf_counter()
    violations = 0
    for inst in corpus:
        res = {p.edge_id: oracle_path_resources(p, inst.topo) for p in inst.paths}
        for sset in (inst.sset_greedy, inst.sset_iterated, inst.sset_maxclique):
            flat = sorted(pid for s in sset.scenarios for pid in s)
            if flat != list(range(len(inst.paths))):
                violations += 1
            for members in sset.scenarios:
                for i, a in enumerate(members):
                    for b in members[i + 1:]:
                        if res[a] & res[b]:
                            violations += 1
    elapsed = time.perf_counter() - start + corpus.build_seconds
    assert violations == 0
    assert elapsed < 120.0, f"criterion-1 runtime {elapsed:.1f}s exceeds 2 min"
    print(f"\nPASS criterion 1: 200 instances, first-fit, iterated and max-clique conflict-free and "
          f"partitioning under the resource-set oracle ({elapsed:.1f}s incl. "
          f"{corpus.build_seconds:.1f}s pipeline)")


def test_criterion_2_degree_lower_bound(corpus):
    for inst in corpus:
        bound = scenario_lower_bound(inst.paths)
        assert bound >= max(inst.graph.total_degrees()), inst.key
        assert inst.sset_greedy.n_scenarios >= bound, inst.key
        assert inst.sset_iterated.n_scenarios >= bound, inst.key
        assert inst.sset_maxclique.n_scenarios >= bound, inst.key
    print("PASS criterion 2: scenario count >= structural bound B >= max total "
          "cluster degree on all 200 instances, first-fit, iterated and max-clique")


def test_criterion_3_oracle_bracketing():
    start = time.perf_counter()
    checked = 0
    trial = 0
    while checked < 100:
        n = 5 + (trial % 5)  # 5..9 clusters
        e = 4 + (trial % 9)  # up to 12 connections
        seed = trial
        trial += 1
        g = generate_synthetic(n, min(e, n * (n - 1)), seed)
        if g.n_edges == 0 or g.n_edges > 12:
            continue
        topo = build_topology(n)
        placement = place_anneal(g, topo, seed=seed + 1)
        paths = extract_paths(g, topo, placement)
        cg = build_conflict_graph(paths)

        exact = optimal_grouping_exact(cg).n_scenarios
        mc_count = group_max_clique(cg).n_scenarios
        it_count = group_iterated(paths, scenario_lower_bound(paths), group_greedy(paths)).n_scenarios
        max_deg = max(cg.degree(v) for v in range(cg.n))
        assert exact <= mc_count <= max_deg + 1, (n, e, seed)
        assert exact <= it_count <= max_deg + 1, (n, e, seed)

        clique = max_clique(cg)
        edge_set = {
            frozenset((i, j))
            for i in range(cg.n)
            for j in range(i + 1, cg.n)
            if cg.has_edge(i, j)
        }
        assert clique == oracle_max_clique(cg.n, edge_set), (n, e, seed)
        checked += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0
    print(f"PASS criterion 3: exact <= max-clique and iterated grouping <= first-fit bound and "
          f"clique size == brute force on {checked} instances ({elapsed:.1f}s)")


def test_criterion_4_algorithm_comparison(corpus):
    cells = defaultdict(lambda: {"greedy": 0, "iterated": 0, "maxclique": 0, "bound": 0, "k": 0})
    for inst in corpus:
        cell = cells[(inst.n, inst.n_edges)]
        cell["greedy"] += inst.sset_greedy.n_scenarios
        cell["iterated"] += inst.sset_iterated.n_scenarios
        cell["maxclique"] += inst.sset_maxclique.n_scenarios
        bound = scenario_lower_bound(inst.paths)
        assert bound >= max(inst.graph.total_degrees()), inst.key
        cell["bound"] += bound
        cell["k"] += 1
    print("\ncell (n, E): mean greedy / mean iterated / mean maxclique / mean lower bound / iterated gap")
    for (n, e), cell in sorted(cells.items()):
        k = cell["k"]
        mg, mi, mm, mb = (cell[key] / k for key in ("greedy", "iterated", "maxclique", "bound"))
        print(f"  n={n:3d} E={e:4d}: {mg:7.2f} / {mi:7.2f} / {mm:7.2f} / {mb:6.2f} / {mi - mb:+.2f}")
        assert mm <= mg, f"max-clique mean {mm} exceeds greedy mean {mg} at n={n} E={e}"
        assert mi <= mg, f"iterated mean {mi} exceeds greedy mean {mg} at n={n} E={e}"
    # lower-bound proximity in the lowest-density band: reported, not asserted
    low_band = sorted(cells.items(), key=lambda kv: kv[0][1] / (kv[0][0] * (kv[0][0] - 1)))[:2]
    for (n, e), cell in low_band:
        ratio = cell["iterated"] / cell["bound"]
        print(f"  lowest-density band n={n} E={e}: iterated count / lower bound = {ratio:.2f}x")
    print("PASS criterion 4: max-clique and iterated means <= greedy mean on every (n, density) cell")


def test_criterion_5_sublinear_scenario_scaling():
    sizes = [20, 40, 60, 80, 96]
    seeds = [0, 1, 2]
    rows = scaling_sweep(sizes, [0.15], seeds, ["iterated"])
    ratio = {}
    for n in sizes:
        cell = [r for r in rows if r["n"] == n]
        ratio[n] = sum(r["scenarios"] / r["E"] for r in cell) / len(cell)
    print("\nscenarios/connections by cluster count:",
          {n: round(v, 4) for n, v in ratio.items()})
    increases = []
    for a, b in zip(sizes, sizes[1:]):
        if ratio[b] > ratio[a]:
            increases.append((a, b, (ratio[b] - ratio[a]) / ratio[a]))
    assert len(increases) <= 1, increases
    assert all(rel <= 0.05 for *_pair, rel in increases), increases
    print("PASS criterion 5: seed-averaged scenarios/connections non-increasing "
          f"in n (violations: {increases})")


def test_criterion_6_lane_rule():
    lanes = {n: build_topology(n).n_lanes for n in (11, 14, 24, 26, 30)}
    assert lanes == {11: 3, 14: 4, 24: 5, 26: 5, 30: 5}
    print(f"PASS criterion 6: default lane counts {lanes}")


def test_criterion_7_cost_calibration():
    observations = reference_observations()
    model = calibrate(observations)
    fractions = []
    for obs in observations:
        topo = build_topology(obs.n_tiles)
        d_pred = data_plane_cost(topo, model)
        resid = abs(d_pred - obs.data_plane_units) / obs.data_plane_units
        assert resid <= 0.15, f"{obs.name}: data-plane residual {resid:.3f}"
        bits = obs.n_scenarios * 2 * topo.n_switches
        rep = cost_report(topo, bits, default_controller_count(topo), model)
        assert rep.control_fraction < 0.10, f"{obs.name}: fraction {rep.control_fraction:.3f}"
        fractions.append(rep.control_fraction)
    mean_pct = 100.0 * sum(fractions) / len(fractions)
    assert abs(mean_pct - 6.5) <= 2.0, f"mean fraction {mean_pct:.2f}%"
    print(f"PASS criterion 7: all control-plane fractions < 10%, mean "
          f"{mean_pct:.2f}% (target 6.5 +/- 2pp), data-plane residuals <= 15%")


def test_criterion_8_simulation_soundness(corpus):
    n_frames = 2
    for inst in corpus:
        for sset in (inst.sset_iterated, inst.sset_maxclique):
            matrix = scenario_switch_matrix(sset.scenarios, inst.paths, inst.topo)
            regions = partition_regions(inst.topo, default_controller_count(inst.topo))
            programs = encode_scenarios(matrix, regions, inst.topo)
            decoded = decode_programs(programs, inst.topo)
            assert decoded.tolist() == matrix.tolist(), inst.key
            report = run_frames(inst.topo, programs, inst.paths, sset.scenarios, n_frames=n_frames)
            assert report.collisions == 0, inst.key
            assert report.frame_length == sset.n_scenarios, inst.key
            assert all(c == n_frames for c in report.delivered.values()), inst.key
            assert len(report.delivered) == len(inst.paths)
    print("PASS criterion 8: zero collisions, one delivery per connection per frame, "
          "frame latency = |S|, controller round-trip bit-exact on all 200 instances, "
          "iterated and max-clique")


def test_criterion_9_performance_smoke():
    g = generate_synthetic(96, 1068, seed=0)
    topo = build_topology(96)
    placement = place_anneal(g, topo, seed=1)
    paths = extract_paths(g, topo, placement)
    bound = scenario_lower_bound(paths)
    assert bound >= max(g.total_degrees())
    res = {p.edge_id: oracle_path_resources(p, topo) for p in paths}
    for name, grouper in (("iterated", lambda: group_iterated(paths, bound, group_greedy(paths))),
                          ("max-clique", lambda: group_max_clique(build_conflict_graph(paths)))):
        start = time.perf_counter()
        sset = grouper()  # a fixed round or node budget, never a clock
        elapsed = time.perf_counter() - start
        assert elapsed < 120.0, f"{name} grouping took {elapsed:.1f}s"
        # validity and bound still hold on this instance
        for members in sset.scenarios:
            for i, a in enumerate(members):
                for b in members[i + 1:]:
                    assert not (res[a] & res[b])
        assert sorted(pid for s in sset.scenarios for pid in s) == list(range(len(paths)))
        assert sset.n_scenarios >= bound
        print(f"PASS criterion 9: 1068-connection instance grouped by {name} in {elapsed:.1f}s "
              f"({sset.stats}), validity and bound hold")


def test_corpus_shape_coverage():
    ns = [n for n, _e, _k in CORPUS_SHAPES]
    densities = [e / (n * (n - 1)) for n, e, _k in CORPUS_SHAPES]
    assert min(ns) == 11 and max(ns) == 96
    assert min(densities) >= 0.09 and max(densities) <= 0.24
    assert sum(k for *_s, k in CORPUS_SHAPES) == 200
