import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from mcpaths import (
    GraphError,
    build_graph,
    compute_layout,
    k_disjoint_all_criteria,
    two_disjoint_shortest,
    yen_ksp,
)
from mcpaths.allcriteria import aggregate_and_distances, build_subgraph, max_flow_unit
from mcpaths.graph import Edge, Graph, reverse
from mcpaths.oracle import dijkstra, enumerate_simple_paths, extract_path, oracle_ksp
from conftest import random_graph


@st.composite
def edge_lists(draw, max_nodes=8, max_q=3):
    n = draw(st.integers(min_value=2, max_value=max_nodes))
    q = draw(st.integers(min_value=1, max_value=max_q))
    pairs = draw(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=n - 1),
                st.integers(min_value=0, max_value=n - 1),
            ),
            max_size=12,
            unique=True,
        )
    )
    triples = []
    seen = set()
    for u, v in pairs:
        if u == v or (min(u, v), max(u, v)) in seen:
            continue
        seen.add((min(u, v), max(u, v)))
        weights = tuple(draw(st.integers(min_value=0, max_value=9)) for _ in range(q))
        triples.append((u, v, weights))
    return n, q, triples


def test_build_table1_graph(table1_graph):
    g = table1_graph
    assert not g.directed
    assert g.node_count == 5
    assert g.q == 3
    assert g.edge_count == 4
    assert g.edge(0).weights == (3, 4, 5)


def test_build_trivial_directed_graph():
    g = build_graph(True, 1, 1, [])
    assert g.edge_count == 0
    assert g.out_arcs(0) == ()


def test_build_rejects_parallel_edge():
    with pytest.raises(GraphError, match="parallel"):
        build_graph(False, 2, 2, [(0, 1, (1, 1)), (0, 1, (1, 1))])
    # reversed orientation is the same undirected edge
    with pytest.raises(GraphError, match="parallel"):
        build_graph(False, 2, 1, [(0, 1, (1,)), (1, 0, (2,))])
    # but a distinct directed arc pair is fine
    g = build_graph(True, 2, 1, [(0, 1, (1,)), (1, 0, (2,))])
    assert g.edge_count == 2


def test_build_rejects_self_loop():
    with pytest.raises(GraphError, match="self-loop"):
        build_graph(False, 2, 1, [(1, 1, (1,))])


def test_build_rejects_bad_vectors():
    with pytest.raises(GraphError, match="expected 2 weights"):
        build_graph(False, 2, 2, [(0, 1, (1,))])
    with pytest.raises(GraphError, match="negative"):
        build_graph(False, 2, 1, [(0, 1, (-1,))])
    with pytest.raises(GraphError, match="out of range"):
        build_graph(False, 2, 1, [(0, 2, (1,))])


@pytest.mark.parametrize(
    "triple, bad, entry",
    [
        ((0, 1, (2.7,)), "2.7", build_graph),
        ((0, 1, (True,)), "True", build_graph),
        ((0, 1, ("3",)), "'3'", build_graph),
        ((0.0, 1, (3,)), "0.0", build_graph),
        ((0, False, (3,)), "False", build_graph),
        ((0, "1", (3,)), "'1'", build_graph),
        ((None, 1, (3,)), "None", build_graph),
        ((None, 1, (3,)), "None", Graph.from_edges),
        ((0, "1", (3,)), "'1'", Graph.from_edges),
        ((0, 1, (None,)), "None", Graph.from_edges),
        ((True, 2, (1,)), "True", Graph.from_edges),
        ((0, 2, (1.5,)), "1.5", Graph.from_edges),
    ],
    ids=["float-weight", "bool-weight", "str-weight", "float-endpoint", "bool-endpoint", "str-endpoint",
         "none-endpoint", "from-edges-none-endpoint", "from-edges-str-endpoint", "from-edges-none-weight",
         "from-edges-bool-endpoint", "from-edges-float-weight"],
)
def test_build_rejects_non_int_endpoints_and_weights(triple, bad, entry):
    u, v, weights = triple
    with pytest.raises(GraphError) as info:
        if entry is build_graph:
            build_graph(False, 3, 1, [triple])
        else:
            Graph.from_edges(False, 3, 1, [Edge(u, v, weights, 0)])
    assert str(info.value) == f"edge 0 ({u}, {v}): endpoints and weights must be int, got {bad}"


def test_build_names_the_first_faulty_edge_whatever_its_fault():
    with pytest.raises(GraphError, match=r"^edge 0 \(0, 5\): endpoint out of range"):
        build_graph(False, 3, 1, [(0, 5, (1,)), (0, 1, (1.5,))])


@pytest.mark.parametrize(
    "eid",
    [-1, "x", 1.0, True, None],
    ids=["negative", "str", "float", "bool", "none"],
)
def test_graph_rejects_bad_edge_ids(eid):
    # A column indexed by edge id would read slot -1 as the last edge's.
    with pytest.raises(GraphError) as info:
        Graph.from_edges(True, 3, 1, [Edge(0, 2, (5,), 0), Edge(0, 1, (1,), eid)])
    assert str(info.value) == f"edge {eid} (0, 1): edge id must be a non-negative int"


@pytest.mark.parametrize(
    "tails, heads, weights",
    [([0], [1], [[]]), ([0, 1], [1, 0], [[1]]), ([0, 1], [1], [[1, 1]])],
    ids=["empty-weights", "short-weights", "short-heads"],
)
def test_graph_rejects_columns_of_different_lengths(tails, heads, weights):
    # Checked before anything else: an empty weight column used to fail
    # the bulk checks with a bare ValueError, and a short one passed them
    # and made searches index past its end.
    with pytest.raises(GraphError, match="^columns differ in length: "):
        Graph(True, 2, 1, tails, heads, weights)


@pytest.mark.parametrize(
    "node_count, q, message",
    [(2.0, 1, "node_count must be an int, got 2.0"), (True, 1, "node_count must be an int, got True"),
     (2, 1.0, "criterion count must be an int, got 1.0"), (2, True, "criterion count must be an int, got True")],
    ids=["float-nodes", "bool-nodes", "float-q", "bool-q"],
)
def test_graph_rejects_a_node_count_or_q_that_is_not_an_int(node_count, q, message):
    # A float q was accepted and then failed compute_layout with a bare
    # TypeError; a float node_count failed the adjacency build with one.
    # The type is checked before the columns, and build_graph names it too.
    for build in (lambda: Graph(True, node_count, q, [0], [1], [[1]]),
                  lambda: Graph(True, node_count, q, [0], [], [[1]]),
                  lambda: build_graph(True, node_count, q, [(0, 1, (1,))])):
        with pytest.raises(GraphError) as info:
            build()
        assert str(info.value) == message


@pytest.mark.parametrize("k", [2.5, True, "2", 0], ids=["float", "bool", "str", "zero"])
def test_k_must_be_an_int_of_at_least_one(k):
    # At 2.5, yen_ksp listed 3 paths and k_disjoint_all_criteria raised
    # TooFewPathsError; "2" in either, and 2.5 in oracle_ksp, raised a
    # bare TypeError.
    g = build_graph(True, 4, 1, [(0, 1, (1,)), (1, 3, (1,)), (0, 2, (1,)), (2, 3, (1,)), (0, 3, (5,))])
    message = f"k must be >= 1, got {k}" if type(k) is int else f"k must be an int, got {k!r}"
    queries = [
        lambda: yen_ksp(g, compute_layout(g), 0, 3, k),
        lambda: k_disjoint_all_criteria(g, 0, 3, k),
        lambda: max_flow_unit(build_subgraph(aggregate_and_distances(g, 0, 3)), k),
        lambda: oracle_ksp(enumerate_simple_paths(g, 0, 3), k),
    ]
    for query in queries:
        with pytest.raises(GraphError) as info:
            query()
        assert str(info.value) == message


def test_query_endpoints_are_checked_with_one_message():
    line = build_graph(False, 3, 1, [(0, 1, (1,)), (1, 2, (1,))])
    arcs = build_graph(True, 3, 1, [(0, 1, (1,)), (1, 2, (1,))])
    layout = compute_layout(line)
    queries = [
        lambda s, t: extract_path(dijkstra(line, layout, s), t),
        lambda s, t: dijkstra(line, layout, s, target=t, threshold=2),
        lambda s, t: yen_ksp(line, layout, s, t, 2),
        lambda s, t: two_disjoint_shortest(line, s, t, "edge"),
        lambda s, t: enumerate_simple_paths(line, s, t),
        lambda s, t: aggregate_and_distances(arcs, s, t),
        lambda s, t: k_disjoint_all_criteria(arcs, s, t, 1),
    ]
    for query in queries:
        with pytest.raises(GraphError) as info:
            query(3, -1)
        assert str(info.value) == "source 3 out of range [0, 3)"
        with pytest.raises(GraphError) as info:
            query(0, -1)
        assert str(info.value) == "dest -1 out of range [0, 3)"
        # The range is checked before s = t.
        with pytest.raises(GraphError) as info:
            query(5, 5)
        assert str(info.value) == "source 5 out of range [0, 3)"
    # And the graph's kind before either.
    with pytest.raises(GraphError) as info:
        k_disjoint_all_criteria(line, 0, 0, 1)
    assert str(info.value) == "all-criteria search requires a directed graph"
    # A bad objective is named before the graph's kind and the endpoints.
    for g, t in ((arcs, 2), (line, 5)):
        with pytest.raises(GraphError) as info:
            two_disjoint_shortest(g, 0, t, "edge", "bogus")
        assert str(info.value) == "unknown objective 'bogus'"


@given(edge_lists(), st.booleans())
def test_adjacency_is_consistent_with_edge_collection(spec, directed):
    n, q, triples = spec
    g = build_graph(directed, n, q, triples)
    from_adjacency = {
        (u, v, eid) for u in range(n) for v, eid in g.out_arcs(u)
    }
    expected = set()
    for e in g.edges:
        expected.add((e.u, e.v, e.eid))
        if not directed:
            expected.add((e.v, e.u, e.eid))
    assert from_adjacency == expected


def test_adjacency_enumerates_each_edge_once_per_direction():
    rng = random.Random(7)
    for directed in (False, True):
        for _ in range(30):
            g = random_graph(rng, directed=directed)
            seen = [
                eid for u in range(g.node_count) for _, eid in g.out_arcs(u)
            ]
            expected = 1 if directed else 2
            assert len(seen) == expected * g.edge_count
            for e in g.edges:
                assert seen.count(e.eid) == expected


def test_reverse_single_edge():
    g = build_graph(True, 2, 1, [(0, 1, (3,))])
    r = reverse(g)
    assert [(e.u, e.v, e.weights) for e in r.edges] == [(1, 0, (3,))]


def test_reverse_is_involution():
    rng = random.Random(11)
    for _ in range(20):
        g = random_graph(rng, directed=True)
        back = reverse(reverse(g))
        assert {(e.u, e.v, e.weights, e.eid) for e in back.edges} == {
            (e.u, e.v, e.weights, e.eid) for e in g.edges
        }


def test_reverse_three_cycle():
    g = build_graph(True, 3, 1, [(0, 1, (1,)), (1, 2, (1,)), (2, 0, (1,))])
    r = reverse(g)
    assert {(e.u, e.v) for e in r.edges} == {(1, 0), (2, 1), (0, 2)}


def test_reverse_rejects_undirected():
    g = build_graph(False, 2, 1, [(0, 1, (1,))])
    with pytest.raises(GraphError):
        reverse(g)
