import random
from unittest import mock

import networkx as nx
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mcpaths import (
    Graph,
    GraphError,
    build_graph,
)
from mcpaths.oracle import (
    enumerate_simple_paths,
    max_edge_disjoint_count,
    oracle_disjoint,
    oracle_ksp,
    simple_routes,
)
from conftest import random_graph


def test_line_graph_single_path(table1_graph):
    enum = tuple(enumerate_simple_paths(table1_graph, 0, 4))
    assert len(enum) == 1
    assert enum[0].nodes == (0, 1, 2, 3, 4)


def test_diamond_two_paths():
    g = build_graph(False, 4, 1, [(0, 1, (1,)), (1, 3, (1,)), (0, 2, (1,)), (2, 3, (1,))])
    enum = tuple(enumerate_simple_paths(g, 0, 3))
    assert len(enum) == 2


def test_complete_graph_k5_has_16_paths():
    edges = [(u, v, (1,)) for u in range(5) for v in range(u + 1, 5)]
    g = build_graph(False, 5, 1, edges)
    enum = tuple(enumerate_simple_paths(g, 0, 4))
    assert len(enum) == 16


def test_count_matches_networkx_recount():
    rng = random.Random(83)
    for _ in range(40):
        g = random_graph(rng, directed=rng.random() < 0.5, n_lo=3, n_hi=8)
        s, t = 0, g.node_count - 1
        nxg = nx.DiGraph() if g.directed else nx.Graph()
        nxg.add_nodes_from(range(g.node_count))
        nxg.add_edges_from((e.u, e.v) for e in g.edges)
        expected = sorted(tuple(p) for p in nx.all_simple_paths(nxg, s, t))
        enum = tuple(enumerate_simple_paths(g, s, t))
        assert [p.nodes for p in enum] == expected


def test_masked_enumeration_filters_the_unmasked_one():
    rng = random.Random(89)
    for _ in range(60):
        g = random_graph(rng, directed=rng.random() < 0.5, n_lo=2, n_hi=8)
        s, t = rng.randrange(g.node_count), rng.randrange(g.node_count)
        banned = set(rng.sample(range(g.node_count), rng.randint(0, g.node_count)))
        dropped = set(rng.sample(list(g.ids), rng.randint(0, g.edge_count)))
        masked = enumerate_simple_paths(g, s, t, banned_nodes=banned, banned_edges=dropped)
        unmasked = enumerate_simple_paths(g, s, t)
        assert tuple(masked) == tuple(
            p for p in unmasked if not banned & set(p.nodes) and not dropped & set(p.edges)
        )


def reference_routes(g, s, t, banned_nodes, banned_edges, cut):
    """The routes of a plain recursive depth-first search over sorted arcs,
    and the number of nodes it steps out of. With ``cut``, it steps into a
    node other than t only while some in-neighbour of t is off the path,
    not banned, and joined to t by an arc that is not banned. A banned s
    or t ends the search before its first step."""
    routes, stepped = [], [0]
    into_t = g.adjacency(incoming=True)[t].items()

    def walk(nodes, edges):
        if nodes[-1] == t:
            routes.append((tuple(nodes), tuple(edges)))
            return
        stepped[0] += 1
        for v, eid in sorted(g.adjacency()[nodes[-1]].items()):
            if v in nodes or v in banned_nodes or eid in banned_edges:
                continue
            if cut and v != t and not any(
                x not in nodes and x not in banned_nodes and e not in banned_edges for x, e in into_t
            ):
                continue
            walk(nodes + [v], edges + [eid])

    if s not in banned_nodes and t not in banned_nodes:
        walk([s], [])
    return routes, stepped[0]


@st.composite
def walk_queries(draw):
    directed = draw(st.booleans())
    n = draw(st.integers(min_value=1, max_value=9))
    pairs = [(u, v) for u in range(n) for v in range(n) if u < v or (directed and u != v)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    g = build_graph(directed, n, 1, [(u, v, (1,)) for u, v in chosen])
    nodes = st.integers(min_value=0, max_value=n - 1)
    s, t = draw(nodes), draw(nodes)
    banned_nodes = frozenset(draw(st.lists(nodes, max_size=3)))
    banned_edges = set(draw(st.lists(st.sampled_from(range(len(chosen))), max_size=4)) if chosen else ())
    if draw(st.booleans()):  # some arcs into t too
        banned_edges |= {eid for _, eid in g.in_arcs(t) if draw(st.booleans())}
    return g, s, t, banned_nodes, frozenset(banned_edges)


def _complete(directed, n):
    return build_graph(directed, n, 1, [(u, v, (1,)) for u in range(n) for v in range(n)
                                        if u < v or (directed and u != v)])


K5, K6, K6_DIRECTED = _complete(False, 5), _complete(False, 6), _complete(True, 6)


@settings(max_examples=300, deadline=None)
@given(walk_queries())
@example((K5, 0, 4, frozenset({4}), frozenset()))  # t banned
@example((K6_DIRECTED, 0, 5, frozenset(), frozenset(eid for _, eid in K6_DIRECTED.in_arcs(5) if eid % 2)))
@example((K6, 0, 1, frozenset({3}), frozenset()))  # s adjacent to t
@example((K5, 2, 2, frozenset(), frozenset()))  # s == t
def test_the_cut_changes_no_route(query):
    g, s, t, banned_nodes, banned_edges = query
    plain, _ = reference_routes(g, s, t, banned_nodes, banned_edges, cut=False)
    want, steps = reference_routes(g, s, t, banned_nodes, banned_edges, cut=True)
    assert want == plain
    stepped = []
    out_arcs = Graph.out_arcs
    with mock.patch.object(Graph, "out_arcs", lambda self, u: stepped.append(u) or out_arcs(self, u)):
        got = list(simple_routes(g, s, t, banned_nodes, banned_edges))
    assert got == plain
    # the walk cuts exactly where the reference does: no fewer steps, and
    # no more
    assert len(stepped) == steps


def test_enumeration_bound_refusal():
    g = build_graph(False, 13, 1, [(0, 1, (1,))])
    with pytest.raises(GraphError, match="bound"):
        enumerate_simple_paths(g, 0, 1)


def test_enumeration_independent_of_insertion_order():
    triples = [(0, 1, (1,)), (1, 3, (2,)), (0, 2, (3,)), (2, 3, (4,))]
    a = build_graph(False, 4, 1, triples)
    b = build_graph(False, 4, 1, list(reversed(triples)))
    pa = [(p.nodes, p.criteria_length) for p in enumerate_simple_paths(a, 0, 3)]
    pb = [(p.nodes, p.criteria_length) for p in enumerate_simple_paths(b, 0, 3)]
    assert pa == pb


def test_oracle_ksp_exhausts_on_large_k(table1_graph):
    enum = tuple(enumerate_simple_paths(table1_graph, 0, 4))
    result = oracle_ksp(enum, 5)
    assert len(result.paths) == 1
    assert result.exhausted


def test_oracle_ksp_single_path(table1_graph):
    enum = tuple(enumerate_simple_paths(table1_graph, 0, 4))
    result = oracle_ksp(enum, 1)
    assert result.paths[0].nodes == (0, 1, 2, 3, 4)
    assert not result.exhausted


def test_oracle_disjoint_articulation_node_yields_none():
    # every route crosses node 1
    g = build_graph(
        False, 4, 1, [(0, 1, (1,)), (1, 2, (1,)), (1, 3, (1,)), (3, 2, (1,))]
    )
    enum = tuple(enumerate_simple_paths(g, 0, 2))
    assert oracle_disjoint(enum, "node") is None
    assert oracle_disjoint(enum, "edge") is None


def test_oracle_disjoint_diamond_pair():
    g = build_graph(False, 4, 1, [(0, 1, (1,)), (1, 3, (1,)), (0, 2, (1,)), (2, 3, (1,))])
    enum = tuple(enumerate_simple_paths(g, 0, 3))
    pair = oracle_disjoint(enum, "edge")
    assert pair is not None
    assert (pair[0].nodes, pair[1].nodes) == ((0, 1, 3), (0, 2, 3))


def test_max_edge_disjoint_count_diamond():
    g = build_graph(False, 4, 1, [(0, 1, (1,)), (1, 3, (1,)), (0, 2, (1,)), (2, 3, (1,))])
    enum = tuple(enumerate_simple_paths(g, 0, 3))
    assert max_edge_disjoint_count(enum) == 2


def test_max_edge_disjoint_count_line(table1_graph):
    enum = tuple(enumerate_simple_paths(table1_graph, 0, 4))
    assert max_edge_disjoint_count(enum) == 1
