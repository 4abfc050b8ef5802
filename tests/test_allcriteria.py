import random
import subprocess
import sys
import textwrap

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mcpaths import (
    GraphError,
    InfeasibleError,
    NoPathError,
    TooFewPathsError,
    build_graph,
    k_disjoint_all_criteria,
)
from mcpaths.allcriteria import (
    AggregatedWeights,
    FlowState,
    MSG_INFEASIBLE,
    MSG_TOO_FEW_PATHS,
    ShortestSubgraph,
    aggregate_and_distances,
    build_subgraph,
    decompose_flow,
    feasibility_check,
    max_flow_unit,
)
from mcpaths.dijkstra import shortest_distances
from mcpaths.graph import Edge, Graph, InvariantError
from mcpaths.oracle import all_criteria_shortest, enumerate_simple_paths, max_edge_disjoint_count
from conftest import random_connected_query, random_graph, subprocess_env


def conflicting_two_route_graph():
    # route via 1 optimal for the first criterion only, via 2 for the second
    return build_graph(
        True,
        4,
        2,
        [(0, 1, (1, 9)), (1, 3, (1, 9)), (0, 2, (9, 1)), (2, 3, (9, 1))],
    )


def aligned_two_route_graph():
    return build_graph(
        True,
        4,
        2,
        [(0, 1, (1, 1)), (1, 3, (1, 1)), (0, 2, (1, 1)), (2, 3, (1, 1))],
    )


def subgraph_as_graph(sub: ShortestSubgraph) -> Graph:
    return Graph.from_edges(True, sub.graph.node_count, sub.graph.q, sub.edges)


# ---- aggregation and feasibility -----------------------------------------


def test_single_edge_instance():
    g = build_graph(True, 2, 2, [(0, 1, (2, 3))])
    aw = aggregate_and_distances(g, 0, 1)
    assert aw.combined == (5,)
    assert aw.total_distance == 5
    assert aw.per_criterion_dist == (2, 3)
    assert feasibility_check(aw)


def test_conflicting_routes_are_infeasible():
    aw = aggregate_and_distances(conflicting_two_route_graph(), 0, 3)
    assert aw.total_distance == 20
    assert sum(aw.per_criterion_dist) == 4
    assert not feasibility_check(aw)


def test_table1_chain_is_feasible(table1_directed_chain):
    aw = aggregate_and_distances(table1_directed_chain, 0, 4)
    assert aw.total_distance == 46
    assert aw.per_criterion_dist == (12, 20, 14)
    assert feasibility_check(aw)


def test_single_criterion_always_feasible():
    rng = random.Random(131)
    for _ in range(30):
        g, s, t = random_connected_query(rng, directed=True, q_lo=1, q_hi=1)
        assert feasibility_check(aggregate_and_distances(g, s, t))


def test_unreachable_dest_raises():
    g = build_graph(True, 3, 1, [(0, 1, (1,))])
    with pytest.raises(NoPathError):
        aggregate_and_distances(g, 0, 2)


def test_requires_directed_graph():
    g = build_graph(False, 2, 1, [(0, 1, (1,))])
    with pytest.raises(GraphError):
        aggregate_and_distances(g, 0, 1)


def planted_chains_graph():
    # two unit chains 0->2->3->1 and 0->4->5->1, a tail past t, a heavy
    # spur out of s, and a heavy arc from a far node into t
    return build_graph(
        True,
        10,
        2,
        [
            (0, 2, (1, 1)), (2, 3, (1, 1)), (3, 1, (1, 1)),
            (0, 4, (1, 1)), (4, 5, (1, 1)), (5, 1, (1, 1)),
            (1, 6, (1, 1)), (6, 7, (1, 1)),
            (0, 8, (5, 5)), (9, 1, (4, 4)), (8, 9, (0, 0)),
        ],
    )


def test_distances_are_exact_up_to_the_span():
    g = planted_chains_graph()
    aw = aggregate_and_distances(g, 0, 1)
    span = aw.total_distance
    assert span == 6
    beyond = 0
    for got, incoming, start in (
        (aw.dist_from_source, False, 0),
        (aw.dist_to_dest, True, 1),
    ):
        full, _ = shortest_distances(g, aw.combined, start, incoming=incoming)
        for v in range(g.node_count):
            if full[v] is not None and full[v] <= span:
                assert got[v] == full[v]
            else:
                beyond += full[v] is not None
                assert got[v] is None
    assert beyond >= 4
    assert {e.eid for e in build_subgraph(aw).edges} == {0, 1, 2, 3, 4, 5}


def test_pipeline_builds_no_graph(monkeypatch):
    g = planted_chains_graph()
    builds = []
    original = Graph.__init__

    def counting_init(self, *args, **kwargs):
        builds.append(args)
        original(self, *args, **kwargs)

    monkeypatch.setattr(Graph, "__init__", counting_init)
    paths = k_disjoint_all_criteria(g, 0, 1, 2)
    assert [p.nodes for p in paths] == [(0, 2, 3, 1), (0, 4, 5, 1)]
    assert builds == []


def test_total_distance_of_unreached_dest_is_an_invariant_error():
    g = build_graph(True, 2, 1, [(0, 1, (1,))])
    aw = AggregatedWeights(g, 0, 1, (1,), (0, None), (None, 0), (1,))
    with pytest.raises(InvariantError):
        aw.total_distance


# ---- shortest-path subgraph -----------------------------------------------


def test_subgraph_keeps_both_equal_routes():
    g = aligned_two_route_graph()
    aw = aggregate_and_distances(g, 0, 3)
    sub = build_subgraph(aw)
    assert sub.nodes == frozenset({0, 1, 2, 3})
    assert len(sub.edges) == 4


def test_subgraph_drops_longer_route():
    g = build_graph(
        True, 4, 1, [(0, 1, (1,)), (1, 3, (1,)), (0, 2, (2,)), (2, 3, (2,))]
    )
    aw = aggregate_and_distances(g, 0, 3)
    sub = build_subgraph(aw)
    assert sub.nodes == frozenset({0, 1, 3})
    assert {e.eid for e in sub.edges} == {0, 1}


def test_subgraph_of_single_path_is_that_path(table1_directed_chain):
    aw = aggregate_and_distances(table1_directed_chain, 0, 4)
    sub = build_subgraph(aw)
    assert sub.nodes == frozenset(range(5))
    assert len(sub.edges) == 4


def test_every_shortest_path_lies_inside_subgraph():
    rng = random.Random(137)
    for _ in range(50):
        g, s, t = random_connected_query(rng, directed=True)
        aw = aggregate_and_distances(g, s, t)
        sub = build_subgraph(aw)
        enum = tuple(enumerate_simple_paths(g, s, t))
        span = aw.total_distance
        kept_edges = {e.eid for e in sub.edges}
        for p in enum:
            if sum(p.criteria_length) == span:
                assert set(p.nodes) <= sub.nodes
                assert set(p.edges) <= kept_edges


def test_every_subgraph_path_is_shortest():
    rng = random.Random(139)
    for _ in range(50):
        g, s, t = random_connected_query(rng, directed=True, n_hi=10)
        aw = aggregate_and_distances(g, s, t)
        sub = build_subgraph(aw)
        inner = tuple(enumerate_simple_paths(subgraph_as_graph(sub), s, t))
        assert inner
        for p in inner:
            assert sum(p.criteria_length) == aw.total_distance


@st.composite
def directed_edge_lists(draw):
    """Random directed graphs with zero weights and ties as (n, q, edges,
    s, t), the edges listed in id order, and s != t."""
    n = draw(st.integers(min_value=2, max_value=9))
    q = draw(st.integers(min_value=1, max_value=3))
    pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True, min_size=n, max_size=4 * n))
    weights = st.lists(st.integers(min_value=0, max_value=1), min_size=q, max_size=q)
    edges = [Edge(u, v, tuple(draw(weights)), eid) for eid, (u, v) in enumerate(chosen)]
    s, t = draw(st.sampled_from(pairs))
    return n, q, edges, s, t


@st.composite
def shuffled_directed_queries(draw):
    """Random directed queries; half of them list their edges out of id
    order, which the subgraph's id order must not depend on."""
    n, q, edges, s, t = draw(directed_edge_lists())
    if draw(st.booleans()):
        edges = draw(st.permutations(edges))
    return Graph.from_edges(True, n, q, edges), s, t


@settings(max_examples=200, deadline=None)
@given(shuffled_directed_queries())
def test_subgraph_equals_the_full_edge_scan(query):
    g, s, t = query
    try:
        aw = aggregate_and_distances(g, s, t)
    except NoPathError:
        return
    span, fwd, bwd = aw.total_distance, aw.dist_from_source, aw.dist_to_dest
    sub = build_subgraph(aw)
    assert sub.nodes == frozenset(
        u for u in range(g.node_count)
        if fwd[u] is not None and bwd[u] is not None and fwd[u] + bwd[u] == span
    )
    assert sub.edges == tuple(sorted(
        (
            e for e in g.edges
            if fwd[e.u] is not None and bwd[e.v] is not None
            and fwd[e.u] + sum(e.weights) + bwd[e.v] == span
        ),
        key=lambda e: e.eid,
    ))


# ---- unit-capacity max flow ------------------------------------------------


def test_flow_diamond_reaches_two():
    g = aligned_two_route_graph()
    aw = aggregate_and_distances(g, 0, 3)
    sub = build_subgraph(aw)
    assert max_flow_unit(sub, 2).value == 2


def test_flow_bottleneck_single_path(table1_directed_chain):
    aw = aggregate_and_distances(table1_directed_chain, 0, 4)
    sub = build_subgraph(aw)
    assert max_flow_unit(sub, 2).value == 1


def test_flow_early_stop_at_k():
    g = aligned_two_route_graph()
    aw = aggregate_and_distances(g, 0, 3)
    sub = build_subgraph(aw)
    assert max_flow_unit(sub, 1).value == 1


def test_flow_matches_bruteforce_disjoint_count():
    rng = random.Random(149)
    for _ in range(60):
        g, s, t = random_connected_query(rng, directed=True)
        sub = ShortestSubgraph(
            g, s, t, 0, frozenset(range(g.node_count)), g.edges
        )
        fs = max_flow_unit(sub, g.edge_count + 1)
        expected = max_edge_disjoint_count(enumerate_simple_paths(g, s, t))
        assert fs.value == expected


# ---- flow decomposition ----------------------------------------------------


def _assert_valid_flow(g: Graph, flow: dict[int, int], s: int, t: int, value: int):
    balance = [0] * g.node_count
    for e in g.edges:
        f = flow[e.eid]
        assert f in (0, 1)
        balance[e.u] -= f
        balance[e.v] += f
    for v in range(g.node_count):
        if v == s:
            assert balance[v] == -value
        elif v == t:
            assert balance[v] == value
        else:
            assert balance[v] == 0


def test_decompose_diamond():
    g = aligned_two_route_graph()
    aw = aggregate_and_distances(g, 0, 3)
    sub = build_subgraph(aw)
    fs = max_flow_unit(sub, 2)
    paths = decompose_flow(fs, 2)
    assert {p.nodes for p in paths} == {(0, 1, 3), (0, 2, 3)}
    assert fs.value == 0
    assert all(f == 0 for f in fs.flow.values())


def test_decompose_removes_planted_cycle():
    # flow path 0->1->2 plus cycle 1->3->4->1; the cycle's arc into node 1
    # carries the lowest edge id, so the backward walk enters it first
    g = build_graph(
        True,
        5,
        1,
        [
            (4, 1, (1,)),  # e0, cycle arc entering node 1
            (1, 2, (1,)),  # e1, path arc into t
            (0, 1, (1,)),  # e2, path arc out of s
            (1, 3, (1,)),  # e3
            (3, 4, (1,)),  # e4
        ],
    )
    sub = ShortestSubgraph(g, 0, 2, 0, frozenset(range(5)), g.edges)
    fs = FlowState(sub, {eid: 1 for eid in range(5)}, 1)
    paths = decompose_flow(fs, 1)
    assert [p.nodes for p in paths] == [(0, 1, 2)]
    assert fs.value == 0
    assert all(f == 0 for f in fs.flow.values())


def test_decompose_conserves_residual_flow():
    rng = random.Random(151)
    checked = 0
    for _ in range(40):
        g, s, t = random_connected_query(rng, directed=True)
        sub = ShortestSubgraph(g, s, t, 0, frozenset(range(g.node_count)), g.edges)
        fs = max_flow_unit(sub, g.edge_count + 1)
        total = fs.value
        if total < 2:
            continue
        checked += 1
        _assert_valid_flow(g, fs.flow, s, t, total)
        extracted = decompose_flow(fs, total - 1)
        assert len(extracted) == total - 1
        assert fs.value == 1
        _assert_valid_flow(g, fs.flow, s, t, 1)
        used = set()
        for p in extracted:
            assert not used & set(p.edges)
            used |= set(p.edges)
    assert checked > 5


def test_decompose_requires_enough_value():
    g = aligned_two_route_graph()
    aw = aggregate_and_distances(g, 0, 3)
    sub = build_subgraph(aw)
    fs = max_flow_unit(sub, 2)
    with pytest.raises(TooFewPathsError):
        decompose_flow(fs, 3)


def test_decompose_checks_conservation_under_python_O():
    # The arc into node 1 carries no flow, so the walk back from t stalls.
    script = textwrap.dedent(
        """
        from mcpaths.allcriteria import FlowState, ShortestSubgraph, decompose_flow
        from mcpaths.graph import InvariantError, build_graph

        assert False, "asserts must be stripped"
        g = build_graph(True, 3, 1, [(0, 1, (1,)), (1, 2, (1,))])
        sub = ShortestSubgraph(g, 0, 2, 2, frozenset(range(3)), g.edges)
        try:
            decompose_flow(FlowState(sub, {0: 0, 1: 1}, 1), 1)
        except InvariantError as exc:
            print("InvariantError:", exc)
        """
    )
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script], capture_output=True, text=True, env=subprocess_env()
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("InvariantError: flow conservation violated")


# ---- end-to-end pipeline ----------------------------------------------------


def test_pipeline_two_disjoint_all_criteria_routes():
    paths = k_disjoint_all_criteria(aligned_two_route_graph(), 0, 3, 2)
    assert {p.nodes for p in paths} == {(0, 1, 3), (0, 2, 3)}
    for p in paths:
        assert p.criteria_length == (2, 2)


def test_pipeline_single_path_any_feasible_instance():
    rng = random.Random(157)
    found = 0
    for _ in range(40):
        g, s, t = random_connected_query(rng, directed=True, q_lo=1, q_hi=1)
        paths = k_disjoint_all_criteria(g, s, t, 1)
        enum = tuple(enumerate_simple_paths(g, s, t))
        best = min(sum(p.criteria_length) for p in enum)
        assert sum(paths[0].criteria_length) == best
        found += 1
    assert found == 40


def test_pipeline_error_messages():
    with pytest.raises(InfeasibleError, match="^No path from s to t"):
        k_disjoint_all_criteria(conflicting_two_route_graph(), 0, 3, 1)
    with pytest.raises(TooFewPathsError, match="^There exist no k paths"):
        k_disjoint_all_criteria(aligned_two_route_graph(), 0, 3, 3)
    assert MSG_INFEASIBLE.startswith("No path from s to t shortest")
    assert MSG_TOO_FEW_PATHS.startswith("There exist no k paths from s to t shortest")


def test_pipeline_rejects_undirected_and_bad_k():
    undirected = build_graph(False, 2, 1, [(0, 1, (1,))])
    with pytest.raises(GraphError):
        k_disjoint_all_criteria(undirected, 0, 1, 1)
    directed = build_graph(True, 2, 1, [(0, 1, (1,))])
    with pytest.raises(GraphError):
        k_disjoint_all_criteria(directed, 0, 1, 0)


def test_pipeline_feasibility_matches_bruteforce():
    rng = random.Random(163)
    feasible = infeasible = 0
    for _ in range(60):
        g, s, t = random_connected_query(rng, directed=True, q_hi=2, weight_max=3)
        witnesses = all_criteria_shortest(enumerate_simple_paths(g, s, t))
        aw = aggregate_and_distances(g, s, t)
        assert feasibility_check(aw) == bool(witnesses)
        if witnesses:
            feasible += 1
            paths = k_disjoint_all_criteria(g, s, t, 1)
            assert paths[0].criteria_length == witnesses[0].criteria_length
        else:
            infeasible += 1
    assert feasible > 5 and infeasible > 5


def _pipeline_answer(g: Graph, s: int, t: int, k: int):
    try:
        return [p.edges for p in k_disjoint_all_criteria(g, s, t, k)]
    except (InfeasibleError, NoPathError, TooFewPathsError) as exc:
        return type(exc).__name__


@settings(max_examples=300, deadline=None)
@given(directed_edge_lists(), st.integers(min_value=1, max_value=4), st.data())
def test_pipeline_answer_ignores_edge_list_order(query, k, data):
    n, q, edges, s, t = query
    shuffled = data.draw(st.permutations(edges))
    assert _pipeline_answer(Graph.from_edges(True, n, q, shuffled), s, t, k) == _pipeline_answer(
        Graph.from_edges(True, n, q, edges), s, t, k
    )
