"""Acceptance suite.

One test per acceptance criterion; each prints a single
``[acceptance] Cn ...: PASS|FAIL`` line (run with ``pytest -s`` to see
them alongside the pytest verdicts).
"""

import random
import time
from contextlib import contextmanager

from mcpaths import (
    Edge,
    TooFewPathsError,
    build_graph,
    compute_layout,
    dijkstra,
    k_disjoint_all_criteria,
    pack,
    two_disjoint_shortest,
    unpack,
    yen_ksp,
)
from mcpaths.allcriteria import (
    aggregate_and_distances,
    build_subgraph,
    feasibility_check,
    max_flow_unit,
)
from mcpaths.dijkstra import shortest_distances
from mcpaths.disjoint import build_node_disjoint_gadget, check_not_rigid
from mcpaths.graph import Graph
from mcpaths.oracle import (
    all_criteria_shortest,
    enumerate_simple_paths,
    max_edge_disjoint_count,
    oracle_disjoint,
    oracle_ksp,
)
from conftest import random_connected_query, random_graph


@contextmanager
def criterion(name):
    try:
        yield
    except BaseException:
        print(f"[acceptance] {name}: FAIL")
        raise
    print(f"[acceptance] {name}: PASS")


def table1():
    return build_graph(
        False,
        5,
        3,
        [(0, 1, (3, 4, 5)), (1, 2, (4, 3, 2)), (2, 3, (1, 6, 5)), (3, 4, (4, 7, 2))],
    )


def test_c1_table1_layout_and_packing():
    with criterion("C1 table reproduction (layout + packed weights)"):
        g = table1()
        best = float("inf")
        for _ in range(5):
            start = time.perf_counter()
            layout = compute_layout(g)
            packed = [pack(layout, e.weights) for e in g.edges]
            best = min(best, time.perf_counter() - start)
        assert layout.bits == (4, 5, 4)
        assert layout.offsets == (9, 4, 0)
        assert packed == [1605, 2098, 613, 2162]
        assert best < 1e-3, f"layout+pack took {best * 1e3:.3f} ms"


def test_c2_line_graph_distance():
    with criterion("C2 line-graph shortest distance 6478 -> (12, 20, 14)"):
        g = table1()
        layout = compute_layout(g)
        dm = dijkstra(g, layout, 0)
        assert dm.dist[4] == 6478
        assert unpack(layout, dm.dist[4]) == (12, 20, 14)


def test_c3_order_embedding():
    with criterion("C3 order embedding on 500 random graphs"):
        rng = random.Random(2024)
        compared = 0
        for _ in range(500):
            g = random_graph(rng, directed=False, n_lo=4, n_hi=8, q_lo=1, q_hi=4, weight_max=7)
            layout = compute_layout(g)
            enum = tuple(enumerate_simple_paths(g, 0, g.node_count - 1))
            packed = [pack(layout, p.criteria_length) for p in enum]
            for i in range(len(enum)):
                for j in range(i + 1, len(enum)):
                    a, b = enum[i].criteria_length, enum[j].criteria_length
                    lex = (a > b) - (a < b)
                    num = (packed[i] > packed[j]) - (packed[i] < packed[j])
                    assert num == lex
                    compared += 1
        assert compared > 10_000, f"only {compared} pair comparisons exercised"


def test_c4_ksp_matches_oracle():
    with criterion("C4 k-shortest-paths oracle equivalence on 500 instances"):
        rng = random.Random(2025)
        start = time.perf_counter()
        for _ in range(500):
            g = random_graph(rng, directed=False, n_lo=4, n_hi=8, q_lo=1, q_hi=3)
            layout = compute_layout(g)
            k = rng.randint(1, 5)
            s, t = 0, g.node_count - 1
            got = yen_ksp(g, layout, s, t, k)
            want = oracle_ksp(enumerate_simple_paths(g, s, t), k)
            assert [(p.nodes, p.criteria_length) for p in got.paths] == [
                (p.nodes, p.criteria_length) for p in want.paths
            ]
            assert got.exhausted == want.exhausted
        elapsed = time.perf_counter() - start
        assert elapsed < 10, f"500 instances took {elapsed:.1f} s"


def test_c5_two_disjoint_end_to_end():
    with criterion("C5 disjoint-pair pipeline vs oracle, 300 instances, both modes"):
        rng = random.Random(2026)
        nones = matches = 0
        for _ in range(300):
            g = random_graph(
                rng, directed=False, n_lo=4, n_hi=8, q_lo=1, q_hi=3,
                edge_prob=rng.uniform(0.25, 0.5),
            )
            s, t = 0, g.node_count - 1
            # the split construction is the one with the guaranteed
            # non-rigidity property; probe it on every instance
            assert check_not_rigid(build_node_disjoint_gadget(g, s, t))
            enum = tuple(enumerate_simple_paths(g, s, t))
            for mode in ("edge", "node"):
                for objective in ("each-shortest", "min-total"):
                    got = two_disjoint_shortest(g, s, t, mode, objective, node_bound=40)
                    want = oracle_disjoint(enum, mode, objective)
                    if want is None:
                        assert got is None
                        nones += 1
                    else:
                        assert got is not None
                        assert (got.first.nodes, got.second.nodes) == (
                            want[0].nodes,
                            want[1].nodes,
                        )
                        matches += 1
        assert nones > 20 and matches > 20


def test_c6_all_criteria_pipeline():
    with criterion("C6 feasibility, max-flow count, and decomposition checks"):
        rng = random.Random(2027)
        feasible = infeasible = 0
        for trial in range(300):
            aligned = trial % 3 == 0
            g, s, t = random_connected_query(
                rng, directed=True, n_lo=4, n_hi=8, q_lo=2, q_hi=3, weight_max=7
            )
            if aligned:
                # clone one criterion across all q so a common optimum exists
                g = Graph.from_edges(
                    True,
                    g.node_count,
                    g.q,
                    [Edge(e.u, e.v, (e.weights[0],) * g.q, e.eid) for e in g.edges],
                )
            enum = tuple(enumerate_simple_paths(g, s, t))
            witnesses = all_criteria_shortest(enum)
            aw = aggregate_and_distances(g, s, t)
            assert feasibility_check(aw) == bool(witnesses)
            if not witnesses:
                infeasible += 1
                continue
            feasible += 1
            sub = build_subgraph(aw)
            sub_graph = Graph.from_edges(True, g.node_count, g.q, map(g.edge, sub.edges))
            expected_count = max_edge_disjoint_count(enumerate_simple_paths(sub_graph, s, t))
            fs = max_flow_unit(sub, g.edge_count + 1)
            assert fs.value == expected_count
            per_criterion_best = tuple(
                min(p.criteria_length[i] for p in enum) for i in range(g.q)
            )
            for k in range(1, expected_count + 1):
                paths = k_disjoint_all_criteria(g, s, t, k)
                used = set()
                for p in paths:
                    assert p.criteria_length == per_criterion_best
                    assert not used & set(p.edges)
                    used |= set(p.edges)
            try:
                k_disjoint_all_criteria(g, s, t, expected_count + 1)
            except TooFewPathsError:
                pass
            else:
                raise AssertionError("expected the k-too-large failure")
        assert feasible > 50 and infeasible > 50


def test_c7_lemma_suite():
    with criterion("C7 subgraph membership lemmas on 300 instances"):
        rng = random.Random(2028)
        for _ in range(300):
            # strictly positive weights: with zero-weight cycles the
            # distance identity can name nodes no simple shortest path visits
            g, s, t = random_connected_query(
                rng, directed=True, n_lo=4, n_hi=8, q_lo=1, q_hi=3,
                weight_min=1, weight_max=7,
            )
            aw = aggregate_and_distances(g, s, t)
            span = aw.total_distance
            enum = tuple(enumerate_simple_paths(g, s, t))
            shortest = [p for p in enum if sum(p.criteria_length) == span]
            on_nodes = set().union(*(set(p.nodes) for p in shortest))
            on_edges = set().union(*(set(p.edges) for p in shortest))
            fwd = aw.dist_from_source
            bwd, _ = shortest_distances(g, aw.combined, t, incoming=True)
            for u in range(g.node_count):
                identity = (
                    fwd[u] is not None and bwd[u] is not None and fwd[u] + bwd[u] == span
                )
                assert identity == (u in on_nodes)
            for e in g.edges:
                identity = (
                    fwd[e.u] is not None
                    and bwd[e.v] is not None
                    and fwd[e.u] + aw.combined[e.eid] + bwd[e.v] == span
                )
                assert identity == (e.eid in on_edges)
            sub = build_subgraph(aw)
            kept_edges = set(sub.edges)
            for p in shortest:  # every shortest path stays inside
                assert set(p.nodes) <= sub.nodes and set(p.edges) <= kept_edges
            sub_graph = Graph.from_edges(True, g.node_count, g.q, map(g.edge, sub.edges))
            inner = tuple(enumerate_simple_paths(sub_graph, s, t))
            for p in inner:  # and everything inside is shortest
                assert sum(p.criteria_length) == span


def _scale_instance(rng, chains=4, chain_len=100, nodes=10_000, edges=50_000, q=3):
    triples = []
    s, t = 0, 1
    nxt = 2
    for _ in range(chains):
        prev = s
        for step in range(chain_len):
            node = t if step == chain_len - 1 else nxt
            triples.append((prev, node, (1,) * q))
            prev = node
            if node != t:
                nxt += 1
    seen = {(u, v) for u, v, _ in triples}
    while len(triples) < edges:
        u = rng.randrange(nodes)
        v = rng.randrange(nodes)
        if u == v or (u, v) in seen:
            continue
        seen.add((u, v))
        triples.append((u, v, tuple(rng.randint(301, 999) for _ in range(q))))
    return build_graph(True, nodes, q, triples), s, t


def test_c8_scale_check():
    with criterion("C8 scale run: 10^4 nodes, 5*10^4 edges, q=3, k=4 in < 10 s"):
        rng = random.Random(2029)
        g, s, t = _scale_instance(rng)
        assert g.node_count == 10_000 and g.edge_count == 50_000
        start = time.perf_counter()
        paths = k_disjoint_all_criteria(g, s, t, 4)
        elapsed = time.perf_counter() - start
        assert len(paths) == 4
        used = set()
        for p in paths:
            assert p.criteria_length == (100, 100, 100)
            assert not used & set(p.edges)
            used |= set(p.edges)
        assert elapsed < 10, f"pipeline took {elapsed:.1f} s"
