import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mcpaths import (
    GraphError,
    build_graph,
    compute_layout,
    pack,
    unpack,
)
from mcpaths.oracle import enumerate_simple_paths
from conftest import random_graph

TABLE1_PACKED = [1605, 2098, 613, 2162]


def test_layout_table1(table1_graph):
    layout = compute_layout(table1_graph)
    assert layout.totals == (12, 20, 14)
    assert layout.bits == (4, 5, 4)
    assert layout.offsets == (9, 4, 0)
    assert layout.budget == 13


def test_layout_single_criterion_is_identity():
    g = build_graph(False, 3, 1, [(0, 1, (5,)), (1, 2, (9,))])
    layout = compute_layout(g)
    assert layout.offsets == (0,)
    for e in g.edges:
        assert pack(layout, e.weights) == e.weights[0]


def test_layout_all_zero_weights():
    g = build_graph(False, 3, 3, [(0, 1, (0, 0, 0)), (1, 2, (0, 0, 0))])
    layout = compute_layout(g)
    assert layout.bits == (0, 0, 0)
    assert all(pack(layout, e.weights) == 0 for e in g.edges)


def test_pack_table1_edges(table1_graph):
    layout = compute_layout(table1_graph)
    assert [pack(layout, e.weights) for e in table1_graph.edges] == TABLE1_PACKED


def test_pack_zero_vector(table1_graph):
    layout = compute_layout(table1_graph)
    assert pack(layout, (0, 0, 0)) == 0


def test_pack_rejects_wrong_length(table1_graph):
    layout = compute_layout(table1_graph)
    with pytest.raises(GraphError):
        pack(layout, (1, 2))


def test_unpack_fig3_value(table1_graph):
    layout = compute_layout(table1_graph)
    assert unpack(layout, 6478) == (12, 20, 14)
    assert unpack(layout, 0) == (0, 0, 0)


def test_unpack_rejects_overflow(table1_graph):
    layout = compute_layout(table1_graph)
    with pytest.raises(GraphError, match="malformed"):
        unpack(layout, 1 << layout.budget)


def test_roundtrip_random_vectors(table1_graph):
    layout = compute_layout(table1_graph)
    rng = random.Random(5)
    for _ in range(1000):
        vec = tuple(rng.randint(0, total) for total in layout.totals)
        assert unpack(layout, pack(layout, vec)) == vec


def test_table1_path_order_matches_packed_order(table1_graph):
    layout = compute_layout(table1_graph)
    enum = enumerate_simple_paths(table1_graph, 0, 4)
    paths = sorted(enum.paths, key=lambda p: p.criteria_length)
    packed = sorted(enum.paths, key=lambda p: pack(layout, p.criteria_length))
    assert [p.nodes for p in paths] == [p.nodes for p in packed]


@settings(max_examples=200)
@given(
    st.lists(st.integers(min_value=0, max_value=50), min_size=1, max_size=5),
    st.data(),
)
def test_additivity_within_budget(totals, data):
    g = build_graph(False, 2, len(totals), [(0, 1, tuple(totals))])
    layout = compute_layout(g)
    u = tuple(data.draw(st.integers(min_value=0, max_value=t)) for t in totals)
    v = tuple(data.draw(st.integers(min_value=0, max_value=t - x)) for t, x in zip(totals, u))
    combined = tuple(a + b for a, b in zip(u, v))
    assert pack(layout, u) + pack(layout, v) == pack(layout, combined)


def test_order_embedding_on_random_graphs():
    rng = random.Random(31)
    comparisons = 0
    for _ in range(60):
        g = random_graph(rng, directed=False, q_hi=4, weight_max=7)
        layout = compute_layout(g)
        enum = enumerate_simple_paths(g, 0, g.node_count - 1)
        for i, a in enumerate(enum.paths):
            for b in enum.paths[i + 1 :]:
                packed_cmp = (pack(layout, a.criteria_length) > pack(layout, b.criteria_length)) - (
                    pack(layout, a.criteria_length) < pack(layout, b.criteria_length)
                )
                lex_cmp = (a.criteria_length > b.criteria_length) - (a.criteria_length < b.criteria_length)
                assert packed_cmp == lex_cmp
                comparisons += 1
    assert comparisons > 100


def test_simple_path_sums_stay_under_budget():
    rng = random.Random(37)
    for _ in range(40):
        g = random_graph(rng, directed=False)
        layout = compute_layout(g)
        enum = enumerate_simple_paths(g, 0, g.node_count - 1)
        for p in enum.paths:
            assert pack(layout, p.criteria_length) < (1 << layout.budget)
