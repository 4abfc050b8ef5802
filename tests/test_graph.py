import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from mcpaths import (
    GraphError,
    NoPathError,
    aggregate_and_distances,
    build_graph,
    compute_layout,
    dijkstra,
    enumerate_simple_paths,
    extract_path,
    reachability_prune,
    reverse,
    two_disjoint_shortest,
    yen_ksp,
)
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


def test_query_endpoints_are_checked_with_one_message():
    line = build_graph(False, 3, 1, [(0, 1, (1,)), (1, 2, (1,))])
    arcs = build_graph(True, 3, 1, [(0, 1, (1,)), (1, 2, (1,))])
    layout = compute_layout(line)
    queries = [
        lambda s, t: reachability_prune(line, s, t),
        lambda s, t: extract_path(dijkstra(line, layout, s), t),
        lambda s, t: dijkstra(line, layout, s, target=t, threshold=2),
        lambda s, t: yen_ksp(line, layout, s, t, 2),
        lambda s, t: two_disjoint_shortest(line, s, t, "edge"),
        lambda s, t: enumerate_simple_paths(line, s, t),
        lambda s, t: aggregate_and_distances(arcs, s, t),
    ]
    for query in queries:
        with pytest.raises(GraphError) as info:
            query(3, -1)
        assert str(info.value) == "source 3 out of range [0, 3)"
        with pytest.raises(GraphError) as info:
            query(0, -1)
        assert str(info.value) == "dest -1 out of range [0, 3)"


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


def test_prune_drops_isolated_node():
    g = build_graph(True, 4, 1, [(0, 1, (1,)), (1, 2, (1,))])
    res = reachability_prune(g, 0, 2)
    assert res.graph.node_count == 3
    assert res.to_original == (0, 1, 2)
    assert res.source == 0 and res.dest == 2


def test_prune_drops_dead_end_branch():
    # 0 -> 1 leads nowhere useful; 0 -> 2 is the direct route
    g = build_graph(True, 3, 1, [(0, 1, (1,)), (0, 2, (1,))])
    res = reachability_prune(g, 0, 2)
    assert res.graph.node_count == 2
    assert res.to_original == (0, 2)
    assert res.graph.edge_count == 1


def test_prune_keeps_strongly_connected_graph():
    g = build_graph(True, 3, 1, [(0, 1, (1,)), (1, 2, (1,)), (2, 0, (1,))])
    res = reachability_prune(g, 0, 2)
    assert res.graph.node_count == 3
    assert res.to_original == (0, 1, 2)


def test_prune_unreachable_raises():
    g = build_graph(True, 3, 1, [(1, 2, (1,))])
    with pytest.raises(NoPathError):
        reachability_prune(g, 0, 2)


def _dfs_reach(adj, start):
    seen = {start}
    todo = [start]
    while todo:
        u = todo.pop()
        for v in adj.get(u, ()):
            if v not in seen:
                seen.add(v)
                todo.append(v)
    return seen


def test_prune_matches_bruteforce_reachability():
    rng = random.Random(23)
    checked = 0
    for _ in range(120):
        g = random_graph(rng, directed=True, n_lo=3, n_hi=10, edge_prob=0.3)
        s, t = 0, g.node_count - 1
        fwd_adj = {}
        bwd_adj = {}
        for e in g.edges:
            fwd_adj.setdefault(e.u, []).append(e.v)
            bwd_adj.setdefault(e.v, []).append(e.u)
        expected = _dfs_reach(fwd_adj, s) & _dfs_reach(bwd_adj, t)
        try:
            res = reachability_prune(g, s, t)
        except NoPathError:
            assert t not in _dfs_reach(fwd_adj, s)
            continue
        checked += 1
        assert set(res.to_original) == expected
        assert s in res.to_original and t in res.to_original
    assert checked > 20
