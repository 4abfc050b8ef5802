import random

import pytest

from mcpaths import (
    GraphError,
    build_graph,
    compute_layout,
    pack,
    yen_ksp,
)
from mcpaths.oracle import enumerate_simple_paths, oracle_ksp
from conftest import random_graph


def _key(p):
    return (p.criteria_length, p.nodes)


def test_table1_line_graph_is_exhausted_at_one(table1_graph):
    layout = compute_layout(table1_graph)
    result = yen_ksp(table1_graph, layout, 0, 4, 2)
    assert len(result.paths) == 1
    assert result.paths[0].ew_length == 6478
    assert result.exhausted


def test_diamond_two_paths():
    g = build_graph(False, 4, 1, [(0, 1, (1,)), (1, 3, (1,)), (0, 2, (1,)), (2, 3, (2,))])
    layout = compute_layout(g)
    result = yen_ksp(g, layout, 0, 3, 3)
    assert [p.ew_length for p in result.paths] == [2, 3]
    assert result.exhausted


def test_matches_oracle_on_random_instances():
    rng = random.Random(61)
    for _ in range(120):
        g = random_graph(rng, directed=False)
        layout = compute_layout(g)
        k = rng.randint(1, 5)
        got = yen_ksp(g, layout, 0, g.node_count - 1, k)
        want = oracle_ksp(enumerate_simple_paths(g, 0, g.node_count - 1), layout, k)
        assert [_key(p) for p in got.paths] == [_key(p) for p in want.paths]
        assert got.exhausted == want.exhausted


def test_prefix_property():
    rng = random.Random(67)
    for _ in range(40):
        g = random_graph(rng, directed=False)
        layout = compute_layout(g)
        shorter = yen_ksp(g, layout, 0, g.node_count - 1, 3)
        longer = yen_ksp(g, layout, 0, g.node_count - 1, 4)
        assert [p.nodes for p in longer.paths][: len(shorter.paths)] == [
            p.nodes for p in shorter.paths
        ]


def test_threshold_is_respected():
    rng = random.Random(71)
    checked = 0
    for _ in range(60):
        g = random_graph(rng, directed=False)
        layout = compute_layout(g)
        weights = sorted(pack(layout, e.weights) for e in g.edges)
        if not weights:
            continue
        threshold = weights[len(weights) // 2] + 1
        result = yen_ksp(g, layout, 0, g.node_count - 1, 4, threshold)
        for p in result.paths:
            checked += 1
            assert all(pack(layout, g.edge(eid).weights) < threshold for eid in p.edges)
    assert checked > 10


def test_priority_soundness_of_returned_list():
    rng = random.Random(73)
    for _ in range(60):
        g = random_graph(rng, directed=False, q_lo=2, q_hi=3, weight_max=3)
        layout = compute_layout(g)
        result = yen_ksp(g, layout, 0, g.node_count - 1, 5)
        vectors = [p.criteria_length for p in result.paths]
        assert vectors == sorted(vectors)
        for a, b in zip(vectors, vectors[1:]):
            for i in range(len(a)):
                if a[i] != b[i]:
                    assert a[i] < b[i]
                    break


def test_source_equals_dest():
    g = build_graph(False, 2, 1, [(0, 1, (1,))])
    layout = compute_layout(g)
    result = yen_ksp(g, layout, 0, 0, 1)
    assert len(result.paths) == 1
    assert result.paths[0].nodes == (0,)
    assert not result.exhausted
    assert yen_ksp(g, layout, 0, 0, 2).exhausted


def test_no_path_yields_empty_exhausted_result():
    g = build_graph(False, 3, 1, [(0, 1, (1,))])
    layout = compute_layout(g)
    result = yen_ksp(g, layout, 0, 2, 2)
    assert result.paths == ()
    assert result.exhausted


def test_rejects_bad_k(table1_graph):
    layout = compute_layout(table1_graph)
    with pytest.raises(GraphError):
        yen_ksp(table1_graph, layout, 0, 4, 0)


def test_all_returned_paths_are_simple_and_distinct():
    rng = random.Random(79)
    for _ in range(40):
        g = random_graph(rng, directed=True)
        layout = compute_layout(g)
        result = yen_ksp(g, layout, 0, g.node_count - 1, 5)
        seen = set()
        for p in result.paths:
            assert len(set(p.nodes)) == len(p.nodes)
            assert p.edges not in seen
            seen.add(p.edges)
