import random

import pytest

from mcpaths import (
    GraphError,
    NoPathError,
    build_graph,
    compute_layout,
    dijkstra,
    extract_path,
    pack,
)
from mcpaths.dijkstra import filter_by_threshold, packed_weights, shortest_distances
from mcpaths.oracle import enumerate_simple_paths
from conftest import random_graph


def test_threshold_removes_heavy_table1_edges(table1_graph):
    layout = compute_layout(table1_graph)
    filtered = filter_by_threshold(table1_graph, layout, 1606)
    assert {e.eid for e in filtered.edges} == {0, 2}


def test_threshold_none_keeps_graph(table1_graph):
    layout = compute_layout(table1_graph)
    assert filter_by_threshold(table1_graph, layout, None) is table1_graph


def test_threshold_zero_removes_everything(table1_graph):
    layout = compute_layout(table1_graph)
    assert filter_by_threshold(table1_graph, layout, 0).edge_count == 0


def test_dijkstra_fig3_distance(table1_graph):
    layout = compute_layout(table1_graph)
    dm = dijkstra(table1_graph, layout, 0)
    assert dm.dist[4] == 6478
    assert dm.dist[0] == 0


def test_dijkstra_matches_enumeration():
    rng = random.Random(41)
    for _ in range(80):
        g = random_graph(rng, directed=False)
        layout = compute_layout(g)
        dm = dijkstra(g, layout, 0)
        enum = tuple(enumerate_simple_paths(g, 0, g.node_count - 1))
        t = g.node_count - 1
        if not enum:
            assert dm.dist[t] is None
            continue
        assert dm.dist[t] == min(pack(layout, p.criteria_length) for p in enum)


def test_extract_path_table1(table1_graph):
    layout = compute_layout(table1_graph)
    dm = dijkstra(table1_graph, layout, 0)
    path = extract_path(dm, 4)
    assert path.nodes == (0, 1, 2, 3, 4)
    assert len(path.edges) == 4
    assert path.criteria_length == (12, 20, 14)


def test_extract_path_trivial_at_source(table1_graph):
    layout = compute_layout(table1_graph)
    dm = dijkstra(table1_graph, layout, 0)
    path = extract_path(dm, 0)
    assert path.nodes == (0,)
    assert path.edges == ()
    assert path.ew_length == 0


def test_extract_path_unreached_raises():
    g = build_graph(True, 3, 1, [(0, 1, (1,))])
    dm = dijkstra(g, compute_layout(g), 0)
    with pytest.raises(NoPathError):
        extract_path(dm, 2)


def test_extract_path_past_the_map_target_is_not_a_missing_path():
    g = build_graph(True, 4, 1, [(0, 1, (1,)), (1, 2, (5,)), (2, 3, (1,))])
    layout = compute_layout(g)
    cut = dijkstra(g, layout, 0, target=1)
    with pytest.raises(GraphError, match="stops at target 1, before node 3"):
        extract_path(cut, 3)
    assert extract_path(cut, 1).nodes == (0, 1)
    assert extract_path(dijkstra(g, layout, 0), 3).nodes == (0, 1, 2, 3)
    # An unreached target leaves the search complete: no path is no path.
    with pytest.raises(NoPathError):
        extract_path(dijkstra(g, layout, 3, target=0), 0)


def test_extracted_path_recosts_to_distance():
    rng = random.Random(43)
    for _ in range(60):
        g = random_graph(rng, directed=True)
        layout = compute_layout(g)
        dm = dijkstra(g, layout, 0)
        for t in range(g.node_count):
            if dm.dist[t] is None:
                continue
            path = extract_path(dm, t)
            recost = sum(
                (pack(layout, g.edge(eid).weights) for eid in path.edges), start=0
            )
            assert recost == dm.dist[t] == path.ew_length


def test_extracted_path_is_lexicographically_optimal():
    rng = random.Random(47)
    for _ in range(60):
        g = random_graph(rng, directed=False)
        layout = compute_layout(g)
        dm = dijkstra(g, layout, 0)
        enum = tuple(enumerate_simple_paths(g, 0, g.node_count - 1))
        if not enum:
            continue
        path = extract_path(dm, g.node_count - 1)
        assert path.criteria_length == min(p.criteria_length for p in enum)


def test_triangle_inequality_after_termination():
    rng = random.Random(53)
    for _ in range(40):
        g = random_graph(rng, directed=True)
        layout = compute_layout(g)
        dm = dijkstra(g, layout, 0)
        for e in g.edges:
            if dm.dist[e.u] is not None:
                assert dm.dist[e.v] is not None
                assert dm.dist[e.v] <= dm.dist[e.u] + pack(layout, e.weights)


def test_dijkstra_is_deterministic():
    rng = random.Random(59)
    for _ in range(20):
        g = random_graph(rng, directed=False, weight_max=2)
        layout = compute_layout(g)
        a = dijkstra(g, layout, 0)
        b = dijkstra(g, layout, 0)
        assert a.dist == b.dist
        assert a.pred == b.pred


def test_target_bound_settles_exactly_the_ball():
    # Zero weights, ties and masks; every node of every graph as the target.
    rng = random.Random(61)
    bounded = unreachable = 0
    for _ in range(120):
        g = random_graph(rng, directed=rng.random() < 0.5, q_hi=2, weight_max=2, edge_prob=0.35)
        weights = packed_weights(g, compute_layout(g))
        nodes = range(g.node_count)
        masks = {
            "banned_nodes": frozenset(v for v in nodes if v and rng.random() < 0.15),
            "banned_edges": frozenset(e.eid for e in g.edges if rng.random() < 0.15),
        }
        for incoming in (False, True):
            full_dist, full_pred = shortest_distances(g, weights, 0, incoming=incoming, **masks)
            for target in nodes:
                dist, pred = shortest_distances(
                    g, weights, 0, incoming=incoming, target=target, **masks
                )
                horizon = full_dist[target]
                if horizon is None:
                    unreachable += 1
                    assert (dist, pred) == (full_dist, full_pred)
                    continue
                for v in nodes:
                    if full_dist[v] is not None and full_dist[v] <= horizon:
                        assert (dist[v], pred[v]) == (full_dist[v], full_pred[v])
                    else:
                        bounded += full_dist[v] is not None
                        assert (dist[v], pred[v]) == (None, None)
    assert bounded > 100 and unreachable > 100
