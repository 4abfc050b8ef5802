import random

import networkx as nx
import pytest

from mcpaths import (
    GraphError,
    build_graph,
    compute_layout,
)
from mcpaths.oracle import (
    enumerate_simple_paths,
    max_edge_disjoint_count,
    oracle_disjoint,
    oracle_ksp,
)
from conftest import random_graph


def test_line_graph_single_path(table1_graph):
    enum = enumerate_simple_paths(table1_graph, 0, 4)
    assert len(enum.paths) == 1
    assert enum.paths[0].nodes == (0, 1, 2, 3, 4)


def test_diamond_two_paths():
    g = build_graph(False, 4, 1, [(0, 1, (1,)), (1, 3, (1,)), (0, 2, (1,)), (2, 3, (1,))])
    enum = enumerate_simple_paths(g, 0, 3)
    assert len(enum.paths) == 2


def test_complete_graph_k5_has_16_paths():
    edges = [(u, v, (1,)) for u in range(5) for v in range(u + 1, 5)]
    g = build_graph(False, 5, 1, edges)
    enum = enumerate_simple_paths(g, 0, 4)
    assert len(enum.paths) == 16


def test_count_matches_networkx_recount():
    rng = random.Random(83)
    for _ in range(40):
        g = random_graph(rng, directed=rng.random() < 0.5, n_lo=3, n_hi=8)
        s, t = 0, g.node_count - 1
        nxg = nx.DiGraph() if g.directed else nx.Graph()
        nxg.add_nodes_from(range(g.node_count))
        nxg.add_edges_from((e.u, e.v) for e in g.edges)
        expected = sorted(tuple(p) for p in nx.all_simple_paths(nxg, s, t))
        enum = enumerate_simple_paths(g, s, t)
        assert [p.nodes for p in enum.paths] == expected


def test_masked_enumeration_filters_the_unmasked_one():
    rng = random.Random(89)
    for _ in range(60):
        g = random_graph(rng, directed=rng.random() < 0.5, n_lo=2, n_hi=8)
        s, t = rng.randrange(g.node_count), rng.randrange(g.node_count)
        banned = set(rng.sample(range(g.node_count), rng.randint(0, g.node_count)))
        masked = enumerate_simple_paths(g, s, t, 12, banned)
        unmasked = enumerate_simple_paths(g, s, t)
        assert masked.paths == tuple(p for p in unmasked.paths if not banned & set(p.nodes))


def test_enumeration_bound_refusal():
    g = build_graph(False, 13, 1, [(0, 1, (1,))])
    with pytest.raises(GraphError, match="bound"):
        enumerate_simple_paths(g, 0, 1)


def test_enumeration_independent_of_insertion_order():
    triples = [(0, 1, (1,)), (1, 3, (2,)), (0, 2, (3,)), (2, 3, (4,))]
    a = build_graph(False, 4, 1, triples)
    b = build_graph(False, 4, 1, list(reversed(triples)))
    pa = [(p.nodes, p.criteria_length) for p in enumerate_simple_paths(a, 0, 3).paths]
    pb = [(p.nodes, p.criteria_length) for p in enumerate_simple_paths(b, 0, 3).paths]
    assert pa == pb


def test_oracle_ksp_exhausts_on_large_k(table1_graph):
    layout = compute_layout(table1_graph)
    enum = enumerate_simple_paths(table1_graph, 0, 4)
    result = oracle_ksp(enum, layout, 5)
    assert len(result.paths) == 1
    assert result.exhausted


def test_oracle_ksp_single_path(table1_graph):
    layout = compute_layout(table1_graph)
    enum = enumerate_simple_paths(table1_graph, 0, 4)
    result = oracle_ksp(enum, layout, 1)
    assert result.paths[0].nodes == (0, 1, 2, 3, 4)
    assert not result.exhausted


def test_oracle_disjoint_articulation_node_yields_none():
    # every route crosses node 1
    g = build_graph(
        False, 4, 1, [(0, 1, (1,)), (1, 2, (1,)), (1, 3, (1,)), (3, 2, (1,))]
    )
    enum = enumerate_simple_paths(g, 0, 2)
    assert oracle_disjoint(enum, "node") is None
    assert oracle_disjoint(enum, "edge") is None


def test_oracle_disjoint_diamond_pair():
    g = build_graph(False, 4, 1, [(0, 1, (1,)), (1, 3, (1,)), (0, 2, (1,)), (2, 3, (1,))])
    enum = enumerate_simple_paths(g, 0, 3)
    pair = oracle_disjoint(enum, "edge")
    assert pair is not None
    assert (pair[0].nodes, pair[1].nodes) == ((0, 1, 3), (0, 2, 3))


def test_max_edge_disjoint_count_diamond():
    g = build_graph(False, 4, 1, [(0, 1, (1,)), (1, 3, (1,)), (0, 2, (1,)), (2, 3, (1,))])
    enum = enumerate_simple_paths(g, 0, 3)
    assert max_edge_disjoint_count(enum) == 2


def test_max_edge_disjoint_count_line(table1_graph):
    enum = enumerate_simple_paths(table1_graph, 0, 4)
    assert max_edge_disjoint_count(enum) == 1
