import random
import subprocess
import sys
import textwrap

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mcpaths.disjoint as disjoint
from mcpaths import (
    Graph,
    GraphError,
    Path,
    SolverBoundError,
    build_graph,
    compute_layout,
    dijkstra,
    pack,
    two_disjoint_shortest,
)
from mcpaths.disjoint import (
    GadgetGraph,
    abridge,
    build_edge_disjoint_gadget,
    build_node_disjoint_gadget,
    check_not_rigid,
    solve_2dsp_exhaustive,
)
from mcpaths.oracle import enumerate_simple_paths, oracle_disjoint, simple_routes
from conftest import random_graph, subprocess_env


def four_cycle():
    # s=0, a=1, t=2, b=3
    return build_graph(False, 4, 1, [(0, 1, (1,)), (1, 2, (1,)), (2, 3, (1,)), (3, 0, (1,))])


def gadget_for(g, s, t, mode):
    builder = build_edge_disjoint_gadget if mode == "edge" else build_node_disjoint_gadget
    return builder(g, s, t)


# ---- gadget builders ----------------------------------------------------


def test_edge_gadget_structure():
    g = four_cycle()
    gg = gadget_for(g, 0, 2, "edge")
    assert gg.graph.node_count == 8
    assert gg.graph.edge_count == g.edge_count + 4
    assert len(gg.dummy_edges) == 4
    for eid in gg.dummy_edges:
        e = gg.graph.edge(eid)
        assert e.weights == (0,)
        assert {e.u, e.v} & set(gg.terminals)


def test_edge_gadget_edge_count_random():
    rng = random.Random(97)
    for _ in range(20):
        g = random_graph(rng, directed=False)
        gg = gadget_for(g, 0, g.node_count - 1, "edge")
        assert gg.graph.edge_count == g.edge_count + 4


def test_edge_gadget_preserves_terminal_distance():
    rng = random.Random(101)
    for _ in range(30):
        g = random_graph(rng, directed=False)
        s, t = 0, g.node_count - 1
        layout = compute_layout(g)
        gg = gadget_for(g, s, t, "edge")
        glayout = compute_layout(gg.graph)
        dm_orig = dijkstra(g, layout, s)
        dm_gadget = dijkstra(gg.graph, glayout, gg.terminals[0])
        assert dm_gadget.dist[gg.terminals[2]] == dm_orig.dist[t]


def test_node_gadget_structure_for_two_by_two_degree():
    # diamond: deg(s) = deg(t) = 2, no (s, t) edge
    g = build_graph(False, 4, 1, [(0, 1, (1,)), (0, 2, (1,)), (1, 3, (1,)), (2, 3, (1,))])
    gg = gadget_for(g, 0, 3, "node")
    assert gg.graph.node_count == g.node_count + 6
    assert len(gg.dummy_edges) == 8
    for eid in gg.dummy_edges:
        e = gg.graph.edge(eid)
        assert e.weights == (1,)
        assert {e.u, e.v} & set(gg.terminals)
    splits_s = [v for v, o in gg.node_origin.items() if o == 0]
    splits_t = [v for v, o in gg.node_origin.items() if o == 3]
    assert len(splits_s) == 2 and len(splits_t) == 2


def test_node_gadget_triangle_with_direct_edge():
    # edges: (s,t), (s,a), (a,t) with s=0, t=2, a=1
    g = build_graph(False, 3, 2, [(0, 2, (1, 1)), (0, 1, (1, 1)), (1, 2, (1, 1))])
    gg = gadget_for(g, 0, 2, "node")
    assert len(gg.dummy_edges) == 8
    direct = gg.graph.edge(0)
    assert {gg.node_origin[direct.u], gg.node_origin[direct.v]} == {0, 2}
    # every split node carries exactly one re-anchored edge and two dummies
    for v, origin in gg.node_origin.items():
        if origin in (0, 2):
            incident = [eid for _, eid in gg.graph.out_arcs(v)]
            assert sum(1 for eid in incident if eid in gg.dummy_edges) == 2
            assert sum(1 for eid in incident if eid not in gg.dummy_edges) == 1


def test_node_gadget_removes_original_endpoints():
    g = four_cycle()
    gg = gadget_for(g, 0, 2, "node")
    # no remaining node stands for s or t with more than one real edge
    for e in gg.graph.edges:
        if e.eid in gg.dummy_edges:
            continue
        for endpoint in (e.u, e.v):
            origin = gg.node_origin[endpoint]
            if origin in (0, 2):
                real = [
                    eid for _, eid in gg.graph.out_arcs(endpoint) if eid not in gg.dummy_edges
                ]
                assert len(real) == 1


# ---- corresponding-path soundness ---------------------------------------


def _gadget_image(gg: GadgetGraph, nodes, edge_ids, second: bool):
    """Rebuild the gadget path corresponding to an original s-t path."""
    s1, s2, t1, t2 = gg.terminals
    src = s2 if second else s1
    dst = t2 if second else t1
    if gg.mode == "edge":
        start_dummy = next(eid for x, eid in gg.graph.out_arcs(src) if x == nodes[0])
        end_dummy = next(eid for x, eid in gg.graph.out_arcs(dst) if x == nodes[-1])
        return [start_dummy, *edge_ids, end_dummy]
    first_edge = gg.graph.edge(edge_ids[0])
    last_edge = gg.graph.edge(edge_ids[-1])
    src_split = first_edge.u if gg.node_origin[first_edge.u] == nodes[0] else first_edge.v
    dst_split = last_edge.u if gg.node_origin[last_edge.u] == nodes[-1] else last_edge.v
    start_dummy = next(eid for x, eid in gg.graph.out_arcs(src) if x == src_split)
    end_dummy = next(eid for x, eid in gg.graph.out_arcs(dst) if x == dst_split)
    return [start_dummy, *edge_ids, end_dummy]


def _walk_nodes(gg, edge_ids, start):
    nodes = [start]
    at = start
    for eid in edge_ids:
        e = gg.graph.edge(eid)
        at = e.v if at == e.u else e.u
        nodes.append(at)
    return nodes


def test_gadget_pairs_mirror_disjoint_pairs_with_weight_shift():
    rng = random.Random(103)
    for _ in range(25):
        g = random_graph(rng, directed=False, n_lo=4, n_hi=7)
        s, t = 0, g.node_count - 1
        layout = compute_layout(g)
        enum = tuple(enumerate_simple_paths(g, s, t))
        if not enum:
            continue
        gg = gadget_for(g, s, t, "node")
        for i, a in enumerate(enum):
            image_a = _gadget_image(gg, a.nodes, a.edges, second=False)
            node_seq = _walk_nodes(gg, image_a, gg.terminals[0])
            weight = sum(gg.graph.edge(eid).weights[0] for eid in image_a)
            assert node_seq[0] == gg.terminals[0] and node_seq[-1] == gg.terminals[2]
            assert weight == pack(layout, a.criteria_length) + 2
            for b in enum[i + 1 :]:
                image_b = _gadget_image(gg, b.nodes, b.edges, second=True)
                seq_b = _walk_nodes(gg, image_b, gg.terminals[1])
                internally_disjoint = not (set(a.nodes[1:-1]) & set(b.nodes[1:-1]))
                gadget_disjoint = not (set(node_seq) & set(seq_b))
                assert gadget_disjoint == internally_disjoint


# ---- rigidity -----------------------------------------------------------


def test_node_gadgets_are_never_rigid():
    rng = random.Random(107)
    for _ in range(40):
        g = random_graph(rng, directed=False)
        gg = gadget_for(g, 0, g.node_count - 1, "node")
        assert check_not_rigid(gg)


def test_handbuilt_rigid_instance():
    # all four terminals on one geodesic line, via zero-weight end edges
    line = build_graph(False, 4, 1, [(0, 1, (0,)), (1, 2, (1,)), (2, 3, (0,))])
    gg = GadgetGraph(
        graph=line,
        terminals=(0, 1, 3, 2),
        dummy_edges=frozenset(),
        node_origin={},
        mode="node",
        source_graph=line,
        source=0,
        dest=3,
    )
    assert not check_not_rigid(gg)


def test_disconnected_terminals_not_rigid():
    g = build_graph(False, 3, 1, [(0, 1, (1,))])  # node 2 isolated
    gg = gadget_for(g, 0, 2, "node")
    assert check_not_rigid(gg)


def test_edge_gadget_is_rigid_under_distance_test():
    # Zero-weight dummies put every terminal inside every L-set, so the
    # distance-identity probe reports connected edge gadgets as rigid.
    g = four_cycle()
    gg = gadget_for(g, 0, 2, "edge")
    assert not check_not_rigid(gg)


# ---- exhaustive two-pair solver ------------------------------------------


def test_solver_four_cycle_edge_variant():
    g = four_cycle()
    gg = gadget_for(g, 0, 2, "edge")
    pair = solve_2dsp_exhaustive(gg)
    assert pair is not None
    left = abridge(gg, pair)
    assert (left.first.nodes, left.second.nodes) == ((0, 1, 2), (0, 3, 2))


def test_solver_none_on_articulation_node():
    g = build_graph(False, 4, 1, [(0, 1, (1,)), (1, 2, (1,)), (1, 3, (1,)), (3, 2, (1,))])
    for mode in ("edge", "node"):
        gg = gadget_for(g, 0, 2, mode)
        assert solve_2dsp_exhaustive(gg) is None


def _chains(gg, path):
    # consecutive nodes are joined by the listed edges, whose weights sum
    # to the path's length
    joined = all(
        {gg.graph.edge(eid).u, gg.graph.edge(eid).v} == {a, b}
        for a, b, eid in zip(path.nodes, path.nodes[1:], path.edges)
    )
    weight = sum(gg.graph.edge(eid).weights[0] for eid in path.edges)
    return joined and len(path.edges) == len(path.nodes) - 1 and weight == path.ew_length


def test_solver_outputs_are_disjoint():
    rng = random.Random(109)
    for _ in range(30):
        g = random_graph(rng, directed=False)
        for mode in ("edge", "node"):
            gg = gadget_for(g, 0, g.node_count - 1, mode)
            pair = solve_2dsp_exhaustive(gg)
            if pair is None:
                continue
            s1, s2, t1, t2 = gg.terminals
            assert (pair[0].nodes[0], pair[0].nodes[-1]) == (s1, t1)
            assert (pair[1].nodes[0], pair[1].nodes[-1]) == (s2, t2)
            assert _chains(gg, pair[0]) and _chains(gg, pair[1])
            if mode == "node":
                assert not set(pair[0].nodes) & set(pair[1].nodes)
            else:
                assert not set(pair[0].edges) & set(pair[1].edges)


def loose_edges(gg):
    """Gadget edges tight toward t1 in neither direction, by networkx
    distances from t1 over the gadget without s2 and t2."""
    _, s2, t1, t2 = gg.terminals
    g = gg.graph
    nxg = nx.Graph()
    nxg.add_edges_from((g.tails[eid], g.heads[eid], {"w": g.weights[0][eid]}) for eid in g.ids)
    nxg.remove_nodes_from((s2, t2))
    d = nx.single_source_dijkstra_path_length(nxg, t1, weight="w")
    return {
        eid for eid in g.ids
        if not any(a in d and b in d and d[a] == d[b] + g.weights[0][eid]
                   for a, b in ((g.tails[eid], g.heads[eid]), (g.heads[eid], g.tails[eid])))
    }


def test_solver_enumerates_routes_once(monkeypatch):
    calls = []

    def counting(*args):
        calls.append(args)
        return simple_routes(*args)

    monkeypatch.setattr(disjoint, "simple_routes", counting)
    diamond = build_graph(False, 4, 1, [(0, 1, (1,)), (0, 2, (1,)), (1, 3, (1,)), (2, 3, (1,))])
    line = build_graph(False, 3, 1, [(0, 1, (1,)), (1, 2, (1,))])
    # the chord 1-2, edge 4, is tight toward 3 in neither direction
    uneven = build_graph(False, 4, 1, [(0, 1, (1,)), (0, 2, (2,)), (1, 3, (1,)), (2, 3, (2,)), (1, 2, (3,))])
    for g, t in ((diamond, 3), (line, 2), (uneven, 3)):
        for mode in ("edge", "node"):
            for objective in ("min-total", "each-shortest"):
                calls.clear()
                gg = gadget_for(g, 0, t, mode)
                solve_2dsp_exhaustive(gg, objective)
                assert len(calls) == 1
                # routes through the other pair's terminals are never listed
                _, s2, _, t2 = gg.terminals
                assert len(calls[0]) == 5 and set(calls[0][3]) == {s2, t2}
                # each-shortest bans the loose edges, min-total no edge
                want = loose_edges(gg) if objective == "each-shortest" else set()
                assert set(calls[0][4]) == want
                if g is uneven and objective == "each-shortest":
                    assert 4 in want


def test_each_shortest_lists_only_the_shortest_route(monkeypatch):
    # A chain of k diamonds, each with arms weighing 1 + 1 and 1 + 2:
    # 2^k routes, and the all-light one is the only shortest.
    k = 3
    triples = []
    for i in range(k):
        j, light, heavy = 3 * i, 3 * i + 1, 3 * i + 2
        triples += [(j, light, (1,)), (light, j + 3, (1,)), (j, heavy, (1,)), (heavy, j + 3, (2,))]
    g = build_graph(False, 3 * k + 1, 1, triples)
    s, t = 0, 3 * k
    enum = tuple(enumerate_simple_paths(g, s, t))
    assert len(enum) == 2**k
    listed = []

    def counting(*args):
        for route in simple_routes(*args):
            listed.append(route)
            yield route

    monkeypatch.setattr(disjoint, "simple_routes", counting)
    for mode in ("edge", "node"):
        for objective, routes in (("each-shortest", 1), ("min-total", 2**k)):
            listed.clear()
            got = two_disjoint_shortest(g, s, t, mode, objective)
            assert len(listed) == routes
            want = oracle_disjoint(enum, mode, objective)
            assert (got and (got.first.nodes, got.second.nodes)) == (want and (want[0].nodes, want[1].nodes))


def test_tied_totals_end_the_pair_scan(monkeypatch):
    # All-zero K8: 1957 routes, every pair total ties at 0. Once the first
    # route has a partner, no later pair can beat it, so the scan makes at
    # most one disjointness test per listed route, not one per pair.
    from itertools import combinations

    n = 8
    g = build_graph(False, n, 1, [(u, v, (0,)) for u, v in combinations(range(n), 2)])
    enum = tuple(enumerate_simple_paths(g, 0, n - 1))
    tests = [0]

    class Counted(frozenset):
        def __and__(self, other):
            tests[0] += 1
            return frozenset.__and__(self, other)

    monkeypatch.setattr(disjoint, "frozenset", Counted, raising=False)
    for mode in ("edge", "node"):
        # Every route weighs 0, so each-shortest keeps every route and both
        # objectives ask the oracle the same question; one full scan per
        # mode checks the solver's early exit.
        want = oracle_disjoint(enum, mode)
        for objective in ("each-shortest", "min-total"):
            tests[0] = 0
            got = two_disjoint_shortest(g, 0, n - 1, mode, objective)
            assert tests[0] < len(enum), (mode, objective, tests[0])
            assert (got.first.nodes, got.second.nodes) == (want[0].nodes, want[1].nodes)


def test_solver_bound_refusal(monkeypatch):
    from itertools import combinations

    listed = []

    def counting(*args):
        for route in simple_routes(*args):
            listed.append(route)
            yield route

    monkeypatch.setattr(disjoint, "simple_routes", counting)
    # Past the oracle's 12 nodes the input is refused before any route is listed.
    g = build_graph(False, 13, 1, [(0, 1, (1,)), (1, 12, (1,))])
    for mode in ("edge", "node"):
        for objective in ("each-shortest", "min-total"):
            with pytest.raises(SolverBoundError, match="^exhaustive solver bound exceeded: 13 nodes > 12$"):
                two_disjoint_shortest(g, 0, 12, mode, objective)
    assert listed == []
    # Unit-weight K7 has 326 routes from 0 to 6: min-total lists one past
    # the cap and refuses; each-shortest lists only the direct edge.
    monkeypatch.setattr(disjoint, "VERIFY_PATH_CAP", 50)
    k7 = build_graph(False, 7, 1, [(u, v, (1,)) for u, v in combinations(range(7), 2)])
    for mode in ("edge", "node"):
        listed.clear()
        with pytest.raises(SolverBoundError, match="^exhaustive solver bound exceeded: more than 50 routes$"):
            two_disjoint_shortest(k7, 0, 6, mode, "min-total")
        assert len(listed) == 51
        listed.clear()
        assert two_disjoint_shortest(k7, 0, 6, mode, "each-shortest") is None
        assert len(listed) == 1


def test_the_edge_gadget_walk_stops_past_t(monkeypatch):
    # In the edge gadget t1's one in-neighbour is t, so once a route
    # reaches t the walk steps only into t1. Without that cut, min-total
    # on unit-weight K8 made 13,703 out_arcs calls: every branch past t
    # was a dead end. The node gadget enters t1 from every split node, so
    # the cut seldom fires there.
    from itertools import combinations

    steps = [0]
    out_arcs = Graph.out_arcs

    def counted(self, u):
        steps[0] += 1
        return out_arcs(self, u)

    monkeypatch.setattr(Graph, "out_arcs", counted)
    k8, k10 = (build_graph(False, n, 1, [(u, v, (1,)) for u, v in combinations(range(n), 2)]) for n in (8, 10))
    for mode, most in (("edge", 3917), ("node", 5876)):
        steps[0] = 0
        got = two_disjoint_shortest(k8, 0, 7, mode, "min-total")
        assert steps[0] <= most, (mode, steps[0])
        assert (got.first.nodes, got.second.nodes) == ((0, 7), (0, 1, 7))
    # past the route cap the cut saves steps, not the refusal
    for mode in ("edge", "node"):
        with pytest.raises(SolverBoundError, match="^exhaustive solver bound exceeded: more than 100000 routes$"):
            two_disjoint_shortest(k10, 0, 9, mode, "min-total")


# ---- abridgement ----------------------------------------------------------


def test_abridge_node_gadget_maps_back():
    g = build_graph(False, 4, 1, [(0, 1, (1,)), (0, 2, (1,)), (1, 3, (1,)), (2, 3, (1,))])
    gg = gadget_for(g, 0, 3, "node")
    pair = solve_2dsp_exhaustive(gg)
    assert pair is not None
    result = abridge(gg, pair)
    assert result.first.nodes == (0, 1, 3)
    assert result.second.nodes == (0, 2, 3)
    # abridged paths are lighter by exactly the two unit dummies
    assert result.first.ew_length == pair[0].ew_length - 2
    assert result.second.ew_length == pair[1].ew_length - 2


def test_abridge_edge_gadget_drops_zero_dummies():
    g = four_cycle()
    gg = gadget_for(g, 0, 2, "edge")
    pair = solve_2dsp_exhaustive(gg)
    result = abridge(gg, pair)
    assert result.first.ew_length == pair[0].ew_length
    assert not set(result.first.edges) & gg.dummy_edges


def test_abridge_rejects_terminal_crossing_path():
    g = build_graph(False, 3, 2, [(0, 2, (1, 1)), (0, 1, (1, 1)), (1, 2, (1, 1))])
    gg = gadget_for(g, 0, 2, "node")
    s1, s2, t1, _ = gg.terminals
    split_ids = sorted(v for v, o in gg.node_origin.items() if o == 0)
    s_a, s_prime = split_ids
    t_prime = next(
        v
        for v, o in gg.node_origin.items()
        if o == 2 and any(x == s_prime for x, eid in gg.graph.out_arcs(v) if eid not in gg.dummy_edges)
    )

    def dummy_between(a, b):
        return next(eid for x, eid in gg.graph.out_arcs(a) if x == b and eid in gg.dummy_edges)

    edges = (
        dummy_between(s1, s_a),
        dummy_between(s2, s_a),
        dummy_between(s2, s_prime),
        0,  # the relocated (s, t) edge
        dummy_between(t_prime, t1),
    )
    nodes = (s1, s_a, s2, s_prime, t_prime, t1)
    weight = sum(gg.graph.edge(eid).weights[0] for eid in edges)
    bad = Path(nodes, edges, weight, (weight,))
    good = solve_2dsp_exhaustive(gg)[0]
    with pytest.raises(GraphError, match="terminal"):
        abridge(gg, (bad, good))


# ---- end-to-end -----------------------------------------------------------


def test_two_equal_disjoint_routes_both_returned():
    g = build_graph(
        False,
        6,
        1,
        [(0, 1, (1,)), (1, 2, (1,)), (2, 5, (1,)), (0, 3, (1,)), (3, 4, (1,)), (4, 5, (1,))],
    )
    for mode in ("edge", "node"):
        pair = two_disjoint_shortest(g, 0, 5, mode)
        assert pair is not None
        assert {pair.first.nodes, pair.second.nodes} == {(0, 1, 2, 5), (0, 3, 4, 5)}
        assert pair.first.ew_length == pair.second.ew_length == 3


def test_single_route_graph_has_no_pair():
    g = build_graph(False, 3, 1, [(0, 1, (1,)), (1, 2, (1,))])
    assert two_disjoint_shortest(g, 0, 2, "edge") is None
    assert two_disjoint_shortest(g, 0, 2, "node") is None


def test_secondary_criterion_breaks_pair_ties():
    g = build_graph(
        False,
        6,
        2,
        [
            (0, 1, (1, 5)),
            (1, 3, (1, 5)),
            (0, 2, (1, 1)),
            (2, 3, (1, 1)),
            (0, 4, (2, 0)),
            (4, 3, (0, 1)),
            (0, 5, (1, 3)),
            (5, 3, (1, 3)),
        ],
    )
    pair = two_disjoint_shortest(g, 0, 3, "node", "min-total")
    assert pair is not None
    assert pair.first.nodes == (0, 4, 3)
    assert pair.second.nodes == (0, 2, 3)
    assert pair.first.criteria_length == (2, 1)
    assert pair.second.criteria_length == (2, 2)
    # the one lexicographically-best path cannot pair with itself
    assert two_disjoint_shortest(g, 0, 3, "node", "each-shortest") is None


def test_pipeline_matches_oracle_on_random_instances():
    rng = random.Random(113)
    nones = 0
    somes = 0
    for _ in range(60):
        g = random_graph(rng, directed=False, n_lo=4, n_hi=7)
        s, t = 0, g.node_count - 1
        enum = tuple(enumerate_simple_paths(g, s, t))
        for mode in ("edge", "node"):
            for objective in ("each-shortest", "min-total"):
                got = two_disjoint_shortest(g, s, t, mode, objective)
                want = oracle_disjoint(enum, mode, objective)
                if want is None:
                    nones += 1
                    assert got is None
                else:
                    somes += 1
                    assert got is not None
                    assert (got.first.nodes, got.second.nodes) == (
                        want[0].nodes,
                        want[1].nodes,
                    )
                    assert got.first.criteria_length == want[0].criteria_length
                    assert got.second.criteria_length == want[1].criteria_length
    assert nones > 5 and somes > 5


def test_abridged_outputs_contain_only_original_edges():
    rng = random.Random(127)
    for _ in range(25):
        g = random_graph(rng, directed=False, n_lo=4, n_hi=7)
        s, t = 0, g.node_count - 1
        for mode in ("edge", "node"):
            pair = two_disjoint_shortest(g, s, t, mode)
            if pair is None:
                continue
            valid = {e.eid for e in g.edges}
            for p in (pair.first, pair.second):
                assert set(p.edges) <= valid
                assert len(set(p.nodes)) == len(p.nodes)
                assert p.nodes[0] == s and p.nodes[-1] == t


@st.composite
def zero_heavy_pair_queries(draw):
    """Small undirected graphs whose 0/1 weights are mostly zero, so many
    routes tie and node gadgets fill with routes through the other pair's
    terminals."""
    n = draw(st.integers(min_value=2, max_value=10))
    q = draw(st.integers(min_value=1, max_value=2))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    m = draw(st.integers(min_value=1, max_value=min(len(pairs), 5 * n // 2)))
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True, min_size=m, max_size=m))
    weight = st.sampled_from((0, 0, 0, 1))
    triples = [(u, v, tuple(draw(weight) for _ in range(q))) for u, v in chosen]
    ends = st.lists(st.integers(min_value=0, max_value=n - 1), min_size=2, max_size=2, unique=True)
    s, t = draw(ends)
    return build_graph(False, n, q, triples), s, t


@settings(max_examples=150, deadline=None)
@given(zero_heavy_pair_queries())
def test_pipeline_matches_oracle_on_zero_heavy_graphs(query):
    g, s, t = query
    enum = tuple(enumerate_simple_paths(g, s, t))
    for mode in ("edge", "node"):
        for objective in ("each-shortest", "min-total"):
            got = two_disjoint_shortest(g, s, t, mode, objective)
            want = oracle_disjoint(enum, mode, objective)
            if want is None:
                assert got is None
            else:
                assert got is not None
                assert (got.first.nodes, got.first.edges, got.second.nodes, got.second.edges) == (
                    want[0].nodes, want[0].edges, want[1].nodes, want[1].edges
                )


@st.composite
def wide_endpoint_queries(draw):
    """Undirected graphs of 9 to 12 nodes and at most 2n edges where s and
    t each have degree 4 or more, so the node gadget has more than 16
    nodes. Weights are zero-heavy, or skewed: one light s-t path among
    heavy edges, so the lighter path weighs far less than half the total."""
    n = draw(st.integers(min_value=9, max_value=12))
    q = draw(st.integers(min_value=1, max_value=2))
    s, t = draw(st.lists(st.integers(min_value=0, max_value=n - 1), min_size=2, max_size=2, unique=True))
    others = [v for v in range(n) if v not in (s, t)]
    edges = {frozenset((s, t))} if draw(st.booleans()) else set()
    for end in (s, t):
        ends = draw(st.lists(st.sampled_from(others), unique=True, min_size=4, max_size=5))
        edges |= {frozenset((end, v)) for v in ends}
    light = set()
    if skewed := draw(st.booleans()):
        route = [s, *draw(st.lists(st.sampled_from(others), unique=True, min_size=1, max_size=3)), t]
        light = {frozenset(e) for e in zip(route, route[1:])}
    edges |= light
    rest = sorted({frozenset((u, v)) for u in range(n) for v in range(u + 1, n)} - edges, key=sorted)
    room = 2 * n - len(edges)
    extra = draw(st.integers(min_value=room // 2, max_value=room))
    edges |= set(draw(st.lists(st.sampled_from(rest), unique=True, min_size=extra, max_size=extra)))
    if skewed:
        heavy, cheap = st.integers(min_value=4, max_value=9), st.sampled_from((0, 1))
    else:
        heavy = cheap = st.sampled_from((0, 0, 0, 1))
    triples = [(*sorted(e), tuple(draw(cheap if e in light else heavy) for _ in range(q)))
               for e in sorted(edges, key=sorted)]
    return build_graph(False, n, q, triples), s, t


@settings(max_examples=60, deadline=None)
@given(wide_endpoint_queries())
def test_pipeline_matches_oracle_past_sixteen_gadget_nodes(query):
    g, s, t = query
    assert build_node_disjoint_gadget(g, s, t).graph.node_count > 16
    enum = tuple(enumerate_simple_paths(g, s, t))
    for mode in ("edge", "node"):
        for objective in ("each-shortest", "min-total"):
            got = two_disjoint_shortest(g, s, t, mode, objective)
            want = oracle_disjoint(enum, mode, objective)
            assert (got and (got.first.nodes, got.first.edges, got.second.nodes, got.second.edges)) == (
                want and (want[0].nodes, want[0].edges, want[1].nodes, want[1].edges)
            )


def test_disjointness_is_checked_under_python_O():
    # A solver that hands back one path twice must be caught in both modes.
    script = textwrap.dedent(
        """
        import mcpaths.disjoint as d
        from mcpaths.graph import InvariantError, build_graph

        assert False, "asserts must be stripped"
        g = build_graph(False, 4, 1, [(0, 1, (1,)), (1, 2, (1,)), (2, 3, (1,)), (3, 0, (1,))])
        real = d.abridge

        def doubled(gadget, pair):
            result = real(gadget, pair)
            return d.DisjointPair(result.first, result.first, result.mode)

        d.abridge = doubled
        for mode in ("node", "edge"):
            try:
                d.two_disjoint_shortest(g, 0, 2, mode)
            except InvariantError as exc:
                print("InvariantError:", exc)
        """
    )
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script], capture_output=True, text=True, env=subprocess_env()
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "InvariantError: node-disjoint result shares interior nodes",
        "InvariantError: edge-disjoint result shares an edge",
    ]
