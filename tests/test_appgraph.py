import json
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import oracle_synthetic

from ladderbus.appgraph import (
    ClusterGraph,
    GraphFormatError,
    dump_cluster_graph,
    generate_synthetic,
    graph_metrics,
    make_cluster_graph,
    parse_cluster_graph,
)


def doc(n, edges, name="t", **extra):
    d = {"name": name, "n_clusters": n, "edges": [list(e) for e in edges]}
    d.update(extra)
    return json.dumps(d)


def test_parse_minimal():
    g = parse_cluster_graph(doc(2, [(0, 1, 5)]))
    assert g.n_clusters == 2
    assert g.n_edges == 1
    assert g.edges == ((0, 1, 5),)


def test_parse_rejects_self_loop():
    with pytest.raises(GraphFormatError, match="self-loop"):
        parse_cluster_graph(doc(4, [(3, 3, 1)]))


def test_parse_rejects_duplicate_edge():
    with pytest.raises(GraphFormatError, match="duplicate"):
        parse_cluster_graph(doc(3, [(0, 1, 1), (0, 1, 2)]))


def test_parse_rejects_out_of_range_id():
    with pytest.raises(GraphFormatError, match="out of range"):
        parse_cluster_graph(doc(3, [(0, 3, 1)]))


def test_parse_rejects_unknown_fields():
    with pytest.raises(GraphFormatError, match="unknown fields"):
        parse_cluster_graph(doc(2, [(0, 1, 1)], comment="nope"))


def test_parse_rejects_malformed_json():
    with pytest.raises(GraphFormatError, match="invalid JSON"):
        parse_cluster_graph("{not json")


def test_parse_error_reports_edge_location():
    with pytest.raises(GraphFormatError, match=r"edge 1 \(2,2\)"):
        parse_cluster_graph(doc(3, [(0, 1, 1), (2, 2, 1)]))


@pytest.mark.parametrize("name", [[1, 2], 7, None, {"a": 1}, True])
def test_parse_rejects_non_string_name(name):
    with pytest.raises(GraphFormatError, match="'name' must be a string"):
        parse_cluster_graph(doc(2, [(0, 1, 1)], name=name))


def test_parse_name_is_optional():
    assert parse_cluster_graph(json.dumps({"n_clusters": 2, "edges": [[0, 1, 1]]})).name == ""


@pytest.mark.parametrize("edges, message", [
    ([[0, 9, 1], [0, 1]], r"^edge 0 \(0,9\): cluster id out of range 0\.\.2$"),
    ([[0, 1, 1], [0, 1]], r"^edge 1: expected \[src, dst, weight\] integer triple, got \[0, 1\]$"),
    ([[0, 1, 1], [1, 2, True], [2, 2, 1]], r"^edge 1: expected \[src, dst, weight\] integer triple"),
    ([[0, 1, 1], [1, 0, -2], "x"], r"^edge 1 \(1,0\): negative weight -2$"),
])
def test_parse_reports_the_first_faulty_edge_of_any_kind(edges, message):
    # one pass over the edges: type, range, self-loop, duplicate and weight
    # faults are found in edge order
    with pytest.raises(GraphFormatError, match=message):
        parse_cluster_graph(json.dumps({"n_clusters": 3, "edges": edges}))


def test_make_cluster_graph_validates_like_parse():
    assert make_cluster_graph(3, [(0, 1, 2), (2, 1, 0)]).edges == ((0, 1, 2), (2, 1, 0))
    with pytest.raises(GraphFormatError, match=r"^edge 1 \(1,1\): self-loop$"):
        make_cluster_graph(3, [(0, 1, 1), (1, 1, 1)])
    with pytest.raises(GraphFormatError, match="integer triple"):
        make_cluster_graph(3, [(0, 1)])


def test_parse_synth40_shaped_file(tmp_path):
    g = generate_synthetic(40, 160, seed=1)
    text = dump_cluster_graph(g)
    back = parse_cluster_graph(text)
    assert back == g
    assert back.n_clusters == 40
    assert back.n_edges == 160


def test_generate_deterministic():
    a = generate_synthetic(40, 160, seed=1)
    b = generate_synthetic(40, 160, seed=1)
    assert a == b
    assert dump_cluster_graph(a) == dump_cluster_graph(b)
    assert a != generate_synthetic(40, 160, seed=2)


def test_generate_synth40_avg_degree():
    m = graph_metrics(generate_synthetic(40, 160, seed=1))
    assert m.avg_degree == pytest.approx(4.00)


def test_generate_synth60_avg_degree():
    m = graph_metrics(generate_synthetic(60, 772, seed=1))
    assert round(m.avg_degree, 2) == 12.87


def test_generate_complete_graph():
    g = generate_synthetic(5, 20, seed=7)
    assert g.n_edges == 20
    assert {(s, d) for s, d, _ in g.edges} == {(a, b) for a in range(5) for b in range(5) if a != b}


def test_generate_rejects_too_many_edges():
    with pytest.raises(ValueError):
        generate_synthetic(5, 21, seed=0)


def test_generate_weight_range():
    g = generate_synthetic(20, 80, seed=3)
    assert all(1 <= w <= 16 for _, _, w in g.edges)
    g2 = generate_synthetic(20, 80, seed=3, weight_range=(5, 5))
    assert all(w == 5 for _, _, w in g2.edges)


def test_generate_rejects_empty_weight_range():
    # no weight lies in 3..2: a draw from it would never end
    with pytest.raises(ValueError, match="empty"):
        generate_synthetic(5, 4, seed=0, weight_range=(3, 2))


def test_metrics_synth60_348():
    m = graph_metrics(generate_synthetic(60, 348, seed=1))
    assert m.avg_degree == pytest.approx(5.80)
    assert round(m.density, 4) == 0.0983


def test_metrics_tiny():
    m = graph_metrics(make_cluster_graph(2, [(0, 1, 3)]))
    assert m.avg_degree == 0.5
    assert m.density == 0.5
    assert m.max_total_degree == 1


def test_metrics_resnet_shaped_density():
    m = graph_metrics(generate_synthetic(96, 1068, seed=1))
    assert round(m.density, 4) == 0.1171


def test_metrics_rejects_single_cluster():
    with pytest.raises(ValueError):
        graph_metrics(make_cluster_graph(1, []))


def test_metrics_consistency_random():
    rng = random.Random(11)
    for _ in range(30):
        n = rng.randint(2, 25)
        e = rng.randint(0, n * (n - 1))
        g = generate_synthetic(n, e, seed=rng.randint(0, 10**6))
        m = graph_metrics(g)
        assert g.n_edges == e
        # density * n * (n-1) reproduces E
        assert abs(m.density * n * (n - 1) - e) < 1e-9
        assert m.avg_degree == pytest.approx(m.density * (n - 1))
        # recompute max degree from scratch
        deg = [0] * n
        for s, d, _ in g.edges:
            deg[s] += 1
            deg[d] += 1
        assert m.max_total_degree == max(deg, default=0)
        if e > 0:
            assert m.max_total_degree >= -(-2 * e // n)  # ceil(2E/n)
        assert 0.0 <= m.density <= 1.0


def test_roundtrip_preserves_edge_order():
    g = generate_synthetic(10, 30, seed=5)
    assert parse_cluster_graph(dump_cluster_graph(g)).edges == g.edges


@st.composite
def cluster_graphs(draw):
    """Valid cluster graphs: any n >= 1, distinct non-loop pairs, weights >= 0, any name."""
    n = draw(st.integers(1, 8))
    pairs = [(s, d) for s in range(n) for d in range(n) if s != d]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    weights = draw(st.lists(st.integers(0, 2**40), min_size=len(chosen), max_size=len(chosen)))
    name = draw(st.one_of(st.text(), st.sampled_from(['"quoted"', "back\\slash", "caf\u00e9 \u2192 \u30e9\u30c0\u30fc"])))
    return make_cluster_graph(n, [(s, d, w) for (s, d), w in zip(chosen, weights)], name=name)


@settings(max_examples=300, deadline=None)
@given(cluster_graphs())
@example(make_cluster_graph(1, [], name=""))
@example(make_cluster_graph(3, [(0, 1, 0), (2, 0, 0)], name='a "b" \\ c\u00e9'))
def test_dump_parse_round_trip(g):
    assert parse_cluster_graph(dump_cluster_graph(g)) == g


@st.composite
def graph_sizes(draw):
    n = draw(st.integers(1, 25))
    return n, draw(st.integers(0, n * (n - 1)))


@settings(max_examples=300, deadline=None)
@given(graph_sizes(), st.integers(), st.integers(-50, 50), st.integers(0, 50))
@example((1, 0), 0, 1, 15)  # n - 1 = 0: no pair to draw
@example((25, 600), 3, 1, 15)  # every pair
def test_generator_matches_pair_list_oracle(size, seed, lo, span):
    n, e = size
    weights = (lo, lo + span)
    assert generate_synthetic(n, e, seed, weights) == oracle_synthetic(n, e, seed, weights)


def test_generator_matches_pair_list_oracle_for_every_edge_count():
    for n in range(1, 8):
        for e in range(n * (n - 1) + 1):
            assert generate_synthetic(n, e, seed=n + e) == oracle_synthetic(n, e, seed=n + e)


_json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda kids: st.lists(kids, max_size=4)
    | st.dictionaries(st.sampled_from(["name", "n_clusters", "edges", "weight"]), kids, max_size=4),
    max_leaves=16,
)
_graph_like = st.fixed_dictionaries(
    {"n_clusters": st.integers(-1, 4), "edges": st.lists(st.lists(st.integers(-1, 4), max_size=4), max_size=4)},
    optional={"name": st.text(max_size=3) | st.integers()},
)


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.text(), _json_values.map(json.dumps), _graph_like.map(json.dumps)))
@example("[" * 100_000)  # nesting deeper than the JSON parser recurses
@example('{"n_clusters": 1' + "0" * 5000 + ', "edges": []}')  # an integer too long to convert
def test_parse_raises_only_graph_format_error(text):
    try:
        g = parse_cluster_graph(text)
    except GraphFormatError:
        return
    assert isinstance(g, ClusterGraph)
