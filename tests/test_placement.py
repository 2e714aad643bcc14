import hashlib
import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import oracle_anneal
from ladderbus import placement
from ladderbus.appgraph import generate_synthetic, make_cluster_graph
from ladderbus.placement import TilePlacement, place_anneal, place_greedy, placement_cost
from ladderbus.topology import build_topology


def brute_force_min(g, topo):
    """Exhaustive oracle over every injective cluster->tile assignment."""
    return min(
        placement_cost(g, topo, TilePlacement(assignment=tiles))
        for tiles in itertools.permutations(range(topo.n_tiles), g.n_clusters)
    )


def test_cost_single_edge():
    # tiles in columns 2 and 4, weight 5 -> 5 * (2 + 1)
    g = make_cluster_graph(2, [(0, 1, 5)])
    topo = build_topology(10, 2)
    p = TilePlacement(assignment=(4, 8))  # columns 2 and 4
    assert placement_cost(g, topo, p) == 15


def test_cost_edgeless_zero():
    g = make_cluster_graph(3, [])
    topo = build_topology(4, 2)
    assert placement_cost(g, topo, TilePlacement(assignment=(0, 1, 2))) == 0


def test_cost_same_column_counts_rung_hop():
    g = make_cluster_graph(2, [(0, 1, 7)])
    topo = build_topology(4, 2)
    assert placement_cost(g, topo, TilePlacement(assignment=(0, 1))) == 7


def test_greedy_single_cluster_tile_zero():
    g = make_cluster_graph(1, [])
    topo = build_topology(6, 2)
    assert place_greedy(g, topo).assignment == (0,)


def test_greedy_chain_matches_brute_force():
    # A -> B -> C on 4 tiles: enumeration gives 3 (A,B share a column)
    g = make_cluster_graph(3, [(0, 1, 1), (1, 2, 1)])
    topo = build_topology(4, 2)
    p = place_greedy(g, topo)
    assert placement_cost(g, topo, p) == brute_force_min(g, topo) == 3


def test_greedy_complete_triangle_spans_two_columns():
    g = make_cluster_graph(3, [(a, b, 1) for a in range(3) for b in range(3) if a != b])
    topo = build_topology(6, 2)
    p = place_greedy(g, topo)
    assert placement_cost(g, topo, p) == brute_force_min(g, topo) == 10
    cols = {t // 2 for t in p.assignment}
    assert len(cols) <= 2


def test_greedy_rejects_too_many_clusters():
    g = make_cluster_graph(5, [])
    with pytest.raises(ValueError):
        place_greedy(g, build_topology(4, 2))


def column_pricing_placement(g, topo):
    """place_greedy as a plain loop: each column with a free tile priced by a
    Python sum, the first cheapest column in ascending order, its lowest
    free tile."""
    adj = [[] for _ in range(g.n_clusters)]
    for src, dst, w in g.edges:
        adj[src].append((dst, w))
        adj[dst].append((src, w))
    degrees = g.total_degrees()
    free = {}
    for t in range(topo.n_tiles):
        free.setdefault(t // 2, []).append(t)
    assignment = [-1] * g.n_clusters
    for c in sorted(range(g.n_clusters), key=lambda c: (-degrees[c], c)):
        placed = [(assignment[other] // 2, w) for other, w in adj[c] if assignment[other] >= 0]
        best_col = min(free, key=lambda col: sum(w * (abs(col - at) + 1) for at, w in placed))
        assignment[c] = free[best_col].pop(0)
        if not free[best_col]:
            del free[best_col]
    return tuple(assignment)


def test_greedy_matches_column_pricing_loop_on_corpus(corpus):
    for inst in corpus:
        assert place_greedy(inst.graph, inst.topo).assignment == column_pricing_placement(inst.graph, inst.topo), inst.key


@pytest.mark.parametrize("n, spare, seed", [(7, 3, 0), (13, 1, 1), (20, 9, 2), (33, 0, 3)])
def test_greedy_matches_column_pricing_loop_with_spare_tiles(n, spare, seed):
    g = generate_synthetic(n, n * (n - 1) // 4, seed=seed)
    topo = build_topology(n + spare)
    assert place_greedy(g, topo).assignment == column_pricing_placement(g, topo)


def test_anneal_n5_matches_exhaustive():
    g = generate_synthetic(5, 8, seed=0)
    topo = build_topology(6, 2)
    p = place_anneal(g, topo, seed=1)
    assert placement_cost(g, topo, p) == brute_force_min(g, topo)


def test_anneal_n6_hits_optimum_in_90_of_100_seeds():
    g = generate_synthetic(6, 12, seed=42)
    topo = build_topology(6, 2)
    opt = brute_force_min(g, topo)
    hits = sum(
        placement_cost(g, topo, place_anneal(g, topo, seed=s)) == opt for s in range(100)
    )
    assert hits >= 90


def test_anneal_never_worse_than_input():
    rng = random.Random(5)
    for _ in range(20):
        n = rng.randint(2, 14)
        e = rng.randint(0, n * (n - 1))
        g = generate_synthetic(n, e, seed=rng.randint(0, 10**6))
        topo = build_topology(max(n, 2))
        greedy = place_greedy(g, topo)
        annealed = place_anneal(g, topo, seed=rng.randint(0, 10**6), initial=greedy)
        assert placement_cost(g, topo, annealed) <= placement_cost(g, topo, greedy)
        annealed.validate(g, topo)


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 14), st.integers(0, 8), st.integers(0, 10**6), st.data())
def test_anneal_with_empty_slots_matches_neighbour_walk(n, spare, seed, data):
    # spare tiles, and odd tile counts whose last column has one tile, leave
    # empty slots that swaps move clusters into and out of; each kernel runs,
    # the dot product (no table fits in 0 cells) and the column price table
    e = data.draw(st.integers(0, n * (n - 1)))
    g = generate_synthetic(n, e, seed=seed)
    topo = build_topology(n + spare)
    greedy = place_greedy(g, topo)
    expected = oracle_anneal(g, topo, seed, greedy.assignment)
    for max_cells in (0, 1 << 62):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(placement, "PRICE_TABLE_MAX_CELLS", max_cells)
            annealed = place_anneal(g, topo, seed=seed, initial=greedy)
        annealed.validate(g, topo)
        assert placement_cost(g, topo, annealed) <= placement_cost(g, topo, greedy)
        assert annealed.assignment == expected, max_cells


@pytest.mark.parametrize("shape, n_tiles, seed, kwargs, digest", [
    ((24, 128), 24, 1, {}, "b632e1752a298bef"),
    ((96, 1068), 96, 1, {}, "6a24f2bcf79e8956"),
    ((33, 200), 33, 4, {}, "7d1c9180a153fd76"),  # odd tile count
    ((40, 292), 48, 2, {}, "ef0664299a6f0567"),  # spare tiles
])
def test_anneal_pinned_assignments(shape, n_tiles, seed, kwargs, digest):
    # sha256 prefixes of the assignments; any change to the move rule, the
    # RNG sequence, the accept test or the schedule changes them
    g = generate_synthetic(*shape, seed=0)
    p = place_anneal(g, build_topology(n_tiles), seed=seed, **kwargs)
    assert hashlib.sha256(repr(p.assignment).encode()).hexdigest()[:16] == digest


def test_anneal_deterministic():
    g = generate_synthetic(15, 60, seed=3)
    topo = build_topology(15)
    assert place_anneal(g, topo, seed=7) == place_anneal(g, topo, seed=7)


def test_cost_invariant_under_row_swap():
    rng = random.Random(13)
    for _ in range(10):
        n = rng.randint(2, 12)
        g = generate_synthetic(n, rng.randint(1, n * (n - 1)), seed=rng.randint(0, 10**6))
        topo = build_topology(12, 3)
        p = place_anneal(g, topo, seed=rng.randint(0, 10**6))
        # swap the two rows in every column simultaneously
        flipped = tuple(t + 1 if t % 2 == 0 else t - 1 for t in p.assignment)
        q = TilePlacement(assignment=flipped)
        assert placement_cost(g, topo, q) == placement_cost(g, topo, p)


def test_placement_validate_catches_bad_maps():
    g = make_cluster_graph(2, [(0, 1, 1)])
    topo = build_topology(4, 2)
    with pytest.raises(ValueError):
        TilePlacement(assignment=(0, 0)).validate(g, topo)  # not injective
    with pytest.raises(ValueError):
        TilePlacement(assignment=(0,)).validate(g, topo)  # missing cluster
    with pytest.raises(ValueError):
        TilePlacement(assignment=(0, 9)).validate(g, topo)  # tile out of range


@pytest.mark.parametrize("placer", [place_greedy, lambda g, topo: place_anneal(g, topo, initial=TilePlacement((0, 2)))],
                         ids=["greedy", "anneal"])
def test_weights_int64_cannot_price_exactly_are_rejected(placer):
    # 2 columns: a total weight of 2^60 could reach 2^63 in an annealing delta
    topo = build_topology(4, 2)
    with pytest.raises(ValueError, match="too large to price exactly in int64"):
        placer(make_cluster_graph(2, [(0, 1, 1 << 60)]), topo)
    g = make_cluster_graph(2, [(0, 1, (1 << 60) - 1)])
    assert placement_cost(g, topo, placer(g, topo)) == (1 << 60) - 1  # both clusters on column 0
