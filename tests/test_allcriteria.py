import random
import subprocess
import sys
import textwrap

import networkx as nx
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
from mcpaths import allcriteria
from mcpaths.cli import run_cli
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
    return Graph.from_edges(True, sub.graph.node_count, sub.graph.q, map(sub.graph.edge, sub.edges))


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
    full, _ = shortest_distances(g, aw.combined, 0)
    for v in range(g.node_count):
        if full[v] is not None and full[v] <= span:
            assert aw.dist_from_source[v] == full[v]
        else:
            beyond += full[v] is not None
            assert aw.dist_from_source[v] is None
    assert beyond >= 4
    # The subgraph has no backward search of its own; check it against one.
    fwd = aw.dist_from_source
    bwd, _ = shortest_distances(g, aw.combined, 1, incoming=True)
    sub = build_subgraph(aw)
    assert sub.nodes == {u for u in range(g.node_count)
                         if fwd[u] is not None and bwd[u] is not None and fwd[u] + bwd[u] == span}
    assert sub.edges == (0, 1, 2, 3, 4, 5)


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


def test_a_query_runs_one_summed_search_and_one_bounded_search_per_criterion(monkeypatch):
    g = planted_chains_graph()
    summed = aggregate_and_distances(g, 0, 1).combined
    calls = []

    def recording(graph, weights, source, **options):
        calls.append((weights, source, options))
        return shortest_distances(graph, weights, source, **options)

    monkeypatch.setattr(allcriteria, "shortest_distances", recording)
    k_disjoint_all_criteria(g, 0, 1, 2)
    assert len(calls) == g.q + 1
    assert [weights for weights, _, _ in calls] == [summed, *g.weights]
    assert all(source == 0 and options.get("target") == 1 and not options.get("incoming")
               for _, source, options in calls)
    # Both criteria's distance is 3, the summed search's path's length under each.
    assert [options.get("bound") for _, _, options in calls] == [None, 3, 3]


def test_a_query_makes_no_edge_view(monkeypatch, tmp_path):
    g = planted_chains_graph()
    graph_file = tmp_path / "chains.mcg"
    graph_file.write_text(f"mcgraph directed {g.node_count} {g.q}\n" + "".join(
        f"{g.tails[eid]} {g.heads[eid]} {' '.join(str(c[eid]) for c in g.weights)}\n"
        for eid in g.ids))

    def refuse(self, eid):
        raise AssertionError(f"Graph.edge({eid}) called")

    monkeypatch.setattr(Graph, "edge", refuse)
    paths = k_disjoint_all_criteria(g, 0, 1, 2)
    assert [p.edges for p in paths] == [(0, 1, 2), (3, 4, 5)]
    code, doc = run_cli(["pack", "--graph", str(graph_file), "--verify"])
    assert code == 0 and doc["verify"] == "ok"
    assert [e["weights"] for e in doc["edges"]] == [list(c) for c in zip(*g.weights)]


def test_total_distance_of_unreached_dest_is_an_invariant_error():
    g = build_graph(True, 2, 1, [(0, 1, (1,))])
    aw = AggregatedWeights(g, 0, 1, (1,), (0, None), (1,))
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
    assert sub.edges == (0, 1)


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
        kept_edges = set(sub.edges)
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
    span, fwd = aw.total_distance, aw.dist_from_source
    bwd, _ = shortest_distances(g, aw.combined, t, incoming=True)
    sub = build_subgraph(aw)
    assert sub.nodes == frozenset(
        u for u in range(g.node_count)
        if fwd[u] is not None and bwd[u] is not None and fwd[u] + bwd[u] == span
    )
    assert sub.edges == tuple(
        e.eid for e in g.edges
        if fwd[e.u] is not None and bwd[e.v] is not None
        and fwd[e.u] + sum(e.weights) + bwd[e.v] == span
    )


def _nx_instance(rng: random.Random):
    """A directed graph of 30-300 nodes with weights in {0, 1, 2}, as a
    Graph and a networkx DiGraph, plus a reachable s-t pair. About half
    the graphs scale every criterion from one base weight, so that
    all-criteria paths exist, and then bump one criterion on about 2 %
    of their edges."""
    n = rng.randint(30, 300)
    q = rng.randint(1, 3)
    aligned = rng.random() < 0.5
    pairs = set()
    while len(pairs) < 3 * n:
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            pairs.add((u, v))
    triples = []
    for u, v in sorted(pairs):
        base = rng.choice((0, 1, 1, 2))
        if aligned:
            weights = [base * (i + 1) for i in range(q)]
            if rng.random() < 0.02:
                weights[rng.randrange(q)] += 1
        else:
            weights = [rng.choice((0, 1, 1, 2)) for _ in range(q)]
        triples.append((u, v, tuple(weights)))
    g = build_graph(True, n, q, triples)
    nxg = nx.DiGraph()
    nxg.add_nodes_from(range(n))
    for eid, (u, v, weights) in enumerate(triples):
        nxg.add_edge(u, v, eid=eid, summed=sum(weights), **{f"w{i}": w for i, w in enumerate(weights)})
    while not (reach := sorted(nx.descendants(nxg, s := rng.randrange(n)))):
        pass
    return g, nxg, s, rng.choice(reach)


def test_k_disjoint_matches_networkx_on_larger_graphs():
    # The 12-node oracle cannot reach these sizes; networkx distances and
    # max flow can. Zero weights and ties keep many equal shortest paths.
    rng = random.Random(167)
    feasible = infeasible = short = 0
    for _ in range(150):
        g, nxg, s, t = _nx_instance(rng)
        k = rng.randint(1, 4)
        fwd = nx.single_source_dijkstra_path_length(nxg, s, weight="summed")
        bwd = nx.single_source_dijkstra_path_length(nxg.reverse(copy=False), t, weight="summed")
        span = fwd[t]
        tight = nx.DiGraph()
        tight.add_nodes_from((s, t))
        tight.add_edges_from(
            (u, v, {"eid": data["eid"], "capacity": 1}) for u, v, data in nxg.edges(data=True)
            if u in fwd and v in bwd and fwd[u] + data["summed"] + bwd[v] == span
        )
        aw = aggregate_and_distances(g, s, t)
        sub = build_subgraph(aw)
        assert sub.edges == tuple(sorted(data["eid"] for _, _, data in tight.edges(data=True)))
        value = max_flow_unit(sub, k).value
        assert value == min(k, nx.maximum_flow_value(tight, s, t))
        best = [nx.dijkstra_path_length(nxg, s, t, weight=f"w{i}") for i in range(g.q)]
        assert aw.per_criterion_dist == tuple(best)
        if span != sum(best):
            infeasible += 1
            with pytest.raises(InfeasibleError):
                k_disjoint_all_criteria(g, s, t, k)
            continue
        feasible += 1
        paths = k_disjoint_all_criteria(g, s, t, value)
        used = set()
        for p in paths:
            assert list(p.criteria_length) == best
            assert not used & set(p.edges)
            used |= set(p.edges)
        if value < k:
            short += 1
            with pytest.raises(TooFewPathsError):
                k_disjoint_all_criteria(g, s, t, k)
    assert feasible > 80 and infeasible > 20 and short > 40, (feasible, infeasible, short)


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
        sub = ShortestSubgraph(g, s, t, frozenset(range(g.node_count)), tuple(g.ids))
        fs = max_flow_unit(sub, g.edge_count + 1)
        expected = max_edge_disjoint_count(enumerate_simple_paths(g, s, t))
        assert fs.value == expected


# ---- flow decomposition ----------------------------------------------------


def _flow(fs: FlowState) -> dict[int, int]:
    """Edge id -> the flow it carries, read off its twin arc's capacity."""
    assert all(fs.cap[a] + fs.cap[a + 1] == 1 for a in range(0, len(fs.cap), 2))
    return {eid: fs.cap[2 * i + 1] for i, eid in enumerate(fs.subgraph.edges)}


def _planted(sub: ShortestSubgraph, carrying: set[int], value: int) -> FlowState:
    """Residual arcs of ``sub`` with one unit on each edge of ``carrying``."""
    tails, heads = sub.graph.tails, sub.graph.heads
    head = [x for eid in sub.edges for x in (heads[eid], tails[eid])]
    cap = [c for eid in sub.edges for c in ((0, 1) if eid in carrying else (1, 0))]
    out = {v: [a for a in range(len(head)) if head[a ^ 1] == v] for v in sub.nodes}
    return FlowState(sub, head, cap, out, value)


def _assert_valid_flow(g: Graph, fs: FlowState, s: int, t: int, value: int):
    flow = _flow(fs)
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
    assert not any(_flow(fs).values())


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
    sub = ShortestSubgraph(g, 0, 2, frozenset(range(5)), tuple(g.ids))
    fs = _planted(sub, set(range(5)), 1)
    _assert_valid_flow(g, fs, 0, 2, 1)
    paths = decompose_flow(fs, 1)
    assert [p.nodes for p in paths] == [(0, 1, 2)]
    assert fs.value == 0
    assert not any(_flow(fs).values())


def test_decompose_cancels_a_cycle_that_max_flow_made():
    # All arcs weigh 0, so every arc from a node reached before 7 is tight
    # and the subgraph holds all 23. The flow of value 4 uses 13 arcs; the
    # four paths use 11, so peeling must cancel a cycle of the flow's own.
    arcs = [(3, 0), (3, 2), (2, 1), (6, 0), (0, 7), (0, 3), (1, 2), (7, 4), (7, 0), (2, 7),
            (0, 6), (3, 7), (5, 3), (6, 1), (4, 3), (1, 0), (4, 7), (2, 0), (5, 6), (0, 5),
            (4, 0), (4, 1), (1, 4)]
    g = build_graph(True, 8, 1, [(u, v, (0,)) for u, v in arcs])
    fs = max_flow_unit(build_subgraph(aggregate_and_distances(g, 0, 7)), 4)
    assert fs.value == 4 and sum(_flow(fs).values()) == 13
    _assert_valid_flow(g, fs, 0, 7, 4)
    paths = decompose_flow(fs, 4)
    assert [p.nodes for p in paths] == [(0, 7), (0, 3, 2, 7), (0, 5, 3, 7), (0, 6, 1, 4, 7)]
    assert [list(p.edges) for p in paths] == [[4], [5, 1, 9], [19, 12, 11], [10, 13, 22, 16]]
    assert fs.value == 0 and not any(_flow(fs).values())


def test_decompose_conserves_residual_flow():
    rng = random.Random(151)
    checked = 0
    for _ in range(40):
        g, s, t = random_connected_query(rng, directed=True)
        sub = ShortestSubgraph(g, s, t, frozenset(range(g.node_count)), tuple(g.ids))
        fs = max_flow_unit(sub, g.edge_count + 1)
        total = fs.value
        if total < 2:
            continue
        checked += 1
        _assert_valid_flow(g, fs, s, t, total)
        extracted = decompose_flow(fs, total - 1)
        assert len(extracted) == total - 1
        assert fs.value == 1
        _assert_valid_flow(g, fs, s, t, 1)
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
    # Edge 0 -> 1 carries no flow (its twin, arc 1, has no capacity) but
    # edge 1 -> 2 does, so the walk back from t stalls at node 1.
    script = textwrap.dedent(
        """
        from mcpaths.allcriteria import FlowState, ShortestSubgraph, decompose_flow
        from mcpaths.graph import InvariantError, build_graph

        assert False, "asserts must be stripped"
        g = build_graph(True, 3, 1, [(0, 1, (1,)), (1, 2, (1,))])
        sub = ShortestSubgraph(g, 0, 2, frozenset(range(3)), tuple(g.ids))
        fs = FlowState(sub, [1, 0, 2, 1], [1, 0, 0, 1], {0: [0], 1: [1, 2], 2: [3]}, 1)
        try:
            decompose_flow(fs, 1)
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
