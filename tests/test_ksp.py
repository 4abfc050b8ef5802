import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mcpaths.ksp
from mcpaths import (
    GraphError,
    build_graph,
    compute_layout,
    pack,
    yen_ksp,
)
from mcpaths.dijkstra import packed_weights, threshold_mask
from mcpaths.oracle import enumerate_simple_paths, oracle_ksp
from conftest import random_graph


def _key(p):
    return (p.criteria_length, p.nodes)


def test_table1_line_graph_is_exhausted_at_one(table1_graph):
    layout = compute_layout(table1_graph)
    result = yen_ksp(table1_graph, layout, 0, 4, 2)
    assert len(result.paths) == 1
    assert result.paths[0].ew_length == 6478
    assert result.exhausted


def test_diamond_two_paths():
    g = build_graph(False, 4, 1, [(0, 1, (1,)), (1, 3, (1,)), (0, 2, (1,)), (2, 3, (2,))])
    layout = compute_layout(g)
    result = yen_ksp(g, layout, 0, 3, 3)
    assert [p.ew_length for p in result.paths] == [2, 3]
    assert result.exhausted


def test_matches_oracle_on_random_instances():
    rng = random.Random(61)
    for _ in range(120):
        g = random_graph(rng, directed=False)
        layout = compute_layout(g)
        k = rng.randint(1, 5)
        got = yen_ksp(g, layout, 0, g.node_count - 1, k)
        want = oracle_ksp(enumerate_simple_paths(g, 0, g.node_count - 1), k)
        assert [_key(p) for p in got.paths] == [_key(p) for p in want.paths]
        assert got.exhausted == want.exhausted


def test_prefix_property():
    rng = random.Random(67)
    for _ in range(40):
        g = random_graph(rng, directed=False)
        layout = compute_layout(g)
        shorter = yen_ksp(g, layout, 0, g.node_count - 1, 3)
        longer = yen_ksp(g, layout, 0, g.node_count - 1, 4)
        assert [p.nodes for p in longer.paths][: len(shorter.paths)] == [
            p.nodes for p in shorter.paths
        ]


def test_threshold_is_respected():
    rng = random.Random(71)
    checked = 0
    for _ in range(60):
        g = random_graph(rng, directed=False)
        layout = compute_layout(g)
        weights = sorted(pack(layout, e.weights) for e in g.edges)
        if not weights:
            continue
        threshold = weights[len(weights) // 2] + 1
        result = yen_ksp(g, layout, 0, g.node_count - 1, 4, threshold)
        for p in result.paths:
            checked += 1
            assert all(pack(layout, g.edge(eid).weights) < threshold for eid in p.edges)
    assert checked > 10


def test_priority_soundness_of_returned_list():
    rng = random.Random(73)
    for _ in range(60):
        g = random_graph(rng, directed=False, q_lo=2, q_hi=3, weight_max=3)
        layout = compute_layout(g)
        result = yen_ksp(g, layout, 0, g.node_count - 1, 5)
        vectors = [p.criteria_length for p in result.paths]
        assert vectors == sorted(vectors)
        for a, b in zip(vectors, vectors[1:]):
            for i in range(len(a)):
                if a[i] != b[i]:
                    assert a[i] < b[i]
                    break


def test_source_equals_dest():
    g = build_graph(False, 2, 1, [(0, 1, (1,))])
    layout = compute_layout(g)
    result = yen_ksp(g, layout, 0, 0, 1)
    assert len(result.paths) == 1
    assert result.paths[0].nodes == (0,)
    assert not result.exhausted
    assert yen_ksp(g, layout, 0, 0, 2).exhausted


def test_no_path_yields_empty_exhausted_result():
    g = build_graph(False, 3, 1, [(0, 1, (1,))])
    layout = compute_layout(g)
    result = yen_ksp(g, layout, 0, 2, 2)
    assert result.paths == ()
    assert result.exhausted


def test_rejects_bad_k(table1_graph):
    layout = compute_layout(table1_graph)
    with pytest.raises(GraphError):
        yen_ksp(table1_graph, layout, 0, 4, 0)


def test_all_returned_paths_are_simple_and_distinct():
    rng = random.Random(79)
    for _ in range(40):
        g = random_graph(rng, directed=True)
        layout = compute_layout(g)
        result = yen_ksp(g, layout, 0, g.node_count - 1, 5)
        seen = set()
        for p in result.paths:
            assert len(set(p.nodes)) == len(p.nodes)
            assert p.edges not in seen
            seen.add(p.edges)


@st.composite
def zero_heavy_queries(draw):
    """Small graphs where a drawn share of the edges weighs zero on every
    criterion, so zero-weight cycles and all-zero graphs occur."""
    directed = draw(st.booleans())
    n = draw(st.integers(min_value=2, max_value=10))
    q = draw(st.integers(min_value=1, max_value=2))
    pairs = [(u, v) for u in range(n) for v in range(n) if u != v and (directed or u < v)]
    m = draw(st.integers(min_value=1, max_value=min(len(pairs), 3 * n)))
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True, min_size=m, max_size=m))
    zero_tenths = draw(st.sampled_from([0, 3, 6, 10]))
    weights = st.lists(st.integers(min_value=0, max_value=2), min_size=q, max_size=q)
    triples = [
        (u, v, (0,) * q if draw(st.integers(min_value=0, max_value=9)) < zero_tenths
         else tuple(draw(weights)))
        for u, v in chosen
    ]
    g = build_graph(directed, n, q, triples)
    layout = compute_layout(g)
    packed = sorted(pack(layout, e.weights) for e in g.edges)
    threshold = draw(st.sampled_from([None, packed[len(packed) // 2] + 1, 1]))
    s, t = (draw(st.integers(min_value=0, max_value=n - 1)) for _ in range(2))
    return g, layout, s, t, draw(st.integers(min_value=1, max_value=12)), threshold


@settings(max_examples=300, deadline=None)
@given(zero_heavy_queries())
def test_matches_oracle_on_zero_heavy_graphs(query):
    g, layout, s, t, k, threshold = query
    got = yen_ksp(g, layout, s, t, k, threshold)
    dropped = threshold_mask(packed_weights(g, layout), threshold)
    want = oracle_ksp(enumerate_simple_paths(g, s, t, banned_edges=dropped), k)
    assert [(p.ew_length, p.nodes) for p in got.paths] == [
        (p.ew_length, p.nodes) for p in want.paths
    ]
    assert got.exhausted == want.exhausted


@pytest.fixture
def search_calls(monkeypatch):
    """Sources of the Dijkstra runs yen_ksp makes, and its number of
    lexmin shortest-path searches."""
    searches: list[int] = []
    lexmin = [0]
    real_search = mcpaths.ksp.shortest_distances
    real_lexmin = mcpaths.ksp._lexmin_shortest

    def search(g, weights, source, **kwargs):
        searches.append(source)
        return real_search(g, weights, source, **kwargs)

    def counted_lexmin(*args):
        lexmin[0] += 1
        return real_lexmin(*args)

    monkeypatch.setattr(mcpaths.ksp, "shortest_distances", search)
    monkeypatch.setattr(mcpaths.ksp, "_lexmin_shortest", counted_lexmin)
    return searches, lexmin


def test_zero_weight_step_into_a_dead_end_pocket_is_skipped(search_calls):
    # Nodes 0, 1 and 2 share the level d(., 4) = 2; the pocket 1-2 is
    # reached over zero-weight edges and its only way out is back through
    # the walk's own node 0. The lexmin walk must pass it by, after one
    # backward search.
    g = build_graph(False, 5, 1, [(0, 1, (0,)), (1, 2, (0,)), (0, 3, (1,)), (3, 4, (1,))])
    result = yen_ksp(g, compute_layout(g), 0, 4, 1)
    assert [p.nodes for p in result.paths] == [(0, 3, 4)]
    searches, lexmin = search_calls
    assert searches == [4]
    assert lexmin == [1]


def test_one_backward_search_per_lexmin_search(search_calls):
    rng = random.Random(5)
    g = random_graph(rng, directed=False, n_lo=10, n_hi=10, q_lo=1, q_hi=1, weight_max=1)
    result = yen_ksp(g, compute_layout(g), 0, 9, 8)
    searches, lexmin = search_calls
    assert sum(1 for e in g.edges if e.weights == (0,)) >= g.edge_count // 3
    assert len(result.paths) == 8
    assert searches == [9] * lexmin[0]
    # The first search plus 26 spurs; spurring from every index takes 44.
    assert lexmin == [27]
