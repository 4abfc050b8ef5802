import random
import subprocess
import sys
import textwrap

import pytest

from mcpaths import (
    FlowState,
    GraphError,
    InfeasibleError,
    MSG_INFEASIBLE,
    MSG_TOO_FEW_PATHS,
    NoPathError,
    ShortestSubgraph,
    TooFewPathsError,
    aggregate_and_distances,
    all_criteria_shortest,
    build_graph,
    build_subgraph,
    decompose_flow,
    enumerate_simple_paths,
    feasibility_check,
    k_disjoint_all_criteria,
    max_edge_disjoint_count,
    max_flow_unit,
)
from mcpaths.allcriteria import AggregatedWeights
from mcpaths.dijkstra import shortest_distances
from mcpaths.graph import Graph, InvariantError
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
    return Graph(True, sub.graph.node_count, sub.graph.q, sub.edges)


# ---- aggregation and feasibility -----------------------------------------


def test_single_edge_instance():
    g = build_graph(True, 2, 2, [(0, 1, (2, 3))])
    aw = aggregate_and_distances(g, 0, 1)
    assert aw.combined == {0: 5}
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
    assert {e.eid for e in build_subgraph(g, aw).edges} == {0, 1, 2, 3, 4, 5}


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
    aw = AggregatedWeights(g, 0, 1, {0: 1}, (0, None), (None, 0), (1,))
    with pytest.raises(InvariantError):
        aw.total_distance


# ---- shortest-path subgraph -----------------------------------------------


def test_subgraph_keeps_both_equal_routes():
    g = aligned_two_route_graph()
    aw = aggregate_and_distances(g, 0, 3)
    sub = build_subgraph(g, aw)
    assert sub.nodes == frozenset({0, 1, 2, 3})
    assert len(sub.edges) == 4


def test_subgraph_drops_longer_route():
    g = build_graph(
        True, 4, 1, [(0, 1, (1,)), (1, 3, (1,)), (0, 2, (2,)), (2, 3, (2,))]
    )
    aw = aggregate_and_distances(g, 0, 3)
    sub = build_subgraph(g, aw)
    assert sub.nodes == frozenset({0, 1, 3})
    assert {e.eid for e in sub.edges} == {0, 1}


def test_subgraph_of_single_path_is_that_path(table1_directed_chain):
    aw = aggregate_and_distances(table1_directed_chain, 0, 4)
    sub = build_subgraph(table1_directed_chain, aw)
    assert sub.nodes == frozenset(range(5))
    assert len(sub.edges) == 4


def test_every_shortest_path_lies_inside_subgraph():
    rng = random.Random(137)
    for _ in range(50):
        g, s, t = random_connected_query(rng, directed=True)
        aw = aggregate_and_distances(g, s, t)
        sub = build_subgraph(g, aw)
        enum = enumerate_simple_paths(g, s, t)
        span = aw.total_distance
        kept_edges = {e.eid for e in sub.edges}
        for p in enum.paths:
            if sum(p.criteria_length) == span:
                assert set(p.nodes) <= sub.nodes
                assert set(p.edges) <= kept_edges


def test_every_subgraph_path_is_shortest():
    rng = random.Random(139)
    for _ in range(50):
        g, s, t = random_connected_query(rng, directed=True, n_hi=10)
        aw = aggregate_and_distances(g, s, t)
        sub = build_subgraph(g, aw)
        inner = enumerate_simple_paths(subgraph_as_graph(sub), s, t)
        assert inner.paths
        for p in inner.paths:
            assert sum(p.criteria_length) == aw.total_distance


# ---- unit-capacity max flow ------------------------------------------------


def test_flow_diamond_reaches_two():
    g = aligned_two_route_graph()
    aw = aggregate_and_distances(g, 0, 3)
    sub = build_subgraph(g, aw)
    assert max_flow_unit(sub, 0, 3, 2).value == 2


def test_flow_bottleneck_single_path(table1_directed_chain):
    aw = aggregate_and_distances(table1_directed_chain, 0, 4)
    sub = build_subgraph(table1_directed_chain, aw)
    assert max_flow_unit(sub, 0, 4, 2).value == 1


def test_flow_early_stop_at_k():
    g = aligned_two_route_graph()
    aw = aggregate_and_distances(g, 0, 3)
    sub = build_subgraph(g, aw)
    assert max_flow_unit(sub, 0, 3, 1).value == 1


def test_flow_matches_bruteforce_disjoint_count():
    rng = random.Random(149)
    for _ in range(60):
        g, s, t = random_connected_query(rng, directed=True)
        sub = ShortestSubgraph(
            g, s, t, 0, frozenset(range(g.node_count)), g.edges
        )
        fs = max_flow_unit(sub, s, t, g.edge_count + 1)
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
    sub = build_subgraph(g, aw)
    fs = max_flow_unit(sub, 0, 3, 2)
    paths = decompose_flow(fs, 0, 3, 2)
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
    paths = decompose_flow(fs, 0, 2, 1)
    assert [p.nodes for p in paths] == [(0, 1, 2)]
    assert fs.value == 0
    assert all(f == 0 for f in fs.flow.values())


def test_decompose_conserves_residual_flow():
    rng = random.Random(151)
    checked = 0
    for _ in range(40):
        g, s, t = random_connected_query(rng, directed=True)
        sub = ShortestSubgraph(g, s, t, 0, frozenset(range(g.node_count)), g.edges)
        fs = max_flow_unit(sub, s, t, g.edge_count + 1)
        total = fs.value
        if total < 2:
            continue
        checked += 1
        _assert_valid_flow(g, fs.flow, s, t, total)
        extracted = decompose_flow(fs, s, t, total - 1)
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
    sub = build_subgraph(g, aw)
    fs = max_flow_unit(sub, 0, 3, 2)
    with pytest.raises(TooFewPathsError):
        decompose_flow(fs, 0, 3, 3)


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
            decompose_flow(FlowState(sub, {0: 0, 1: 1}, 1), 0, 2, 1)
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
        enum = enumerate_simple_paths(g, s, t)
        best = min(sum(p.criteria_length) for p in enum.paths)
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
