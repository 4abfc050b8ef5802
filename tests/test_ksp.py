import heapq
import random
import tracemalloc
from itertools import islice
from unittest import mock

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mcpaths.ksp
from mcpaths import (
    GraphError,
    InvariantError,
    build_graph,
    compute_layout,
    pack,
    yen_ksp,
)
from mcpaths.dijkstra import packed_weights, shortest_distances, threshold_column, tight_subgraph
from mcpaths.fileio import parse_graph_file
from mcpaths.oracle import enumerate_simple_paths, oracle_ksp
from conftest import large_packed_instance, random_graph


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
        want = oracle_ksp(enumerate_simple_paths(g, 0, g.node_count - 1), k)
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


@st.composite
def zero_heavy_queries(draw):
    """Small graphs where a drawn share of the edges weighs zero on every
    criterion, so zero-weight cycles and all-zero graphs occur."""
    directed = draw(st.booleans())
    n = draw(st.integers(min_value=2, max_value=10))
    q = draw(st.integers(min_value=1, max_value=2))
    pairs = [(u, v) for u in range(n) for v in range(n) if u != v and (directed or u < v)]
    m = draw(st.integers(min_value=1, max_value=min(len(pairs), 3 * n)))
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True, min_size=m, max_size=m))
    zero_tenths = draw(st.sampled_from([0, 3, 6, 10]))
    weights = st.lists(st.integers(min_value=0, max_value=2), min_size=q, max_size=q)
    triples = [
        (u, v, (0,) * q if draw(st.integers(min_value=0, max_value=9)) < zero_tenths
         else tuple(draw(weights)))
        for u, v in chosen
    ]
    g = build_graph(directed, n, q, triples)
    layout = compute_layout(g)
    packed = sorted(pack(layout, e.weights) for e in g.edges)
    threshold = draw(st.sampled_from([None, packed[len(packed) // 2] + 1, 1]))
    s, t = (draw(st.integers(min_value=0, max_value=n - 1)) for _ in range(2))
    return g, layout, s, t, draw(st.integers(min_value=1, max_value=12)), threshold


@settings(max_examples=300, deadline=None)
@given(zero_heavy_queries())
def test_matches_oracle_on_zero_heavy_graphs(query):
    g, layout, s, t, k, threshold = query
    got = yen_ksp(g, layout, s, t, k, threshold)
    column = threshold_column(packed_weights(g, layout), threshold)
    dropped = {eid for eid, w in enumerate(column) if w is None}
    want = oracle_ksp(enumerate_simple_paths(g, s, t, banned_edges=dropped), k)
    assert [(p.ew_length, p.nodes) for p in got.paths] == [
        (p.ew_length, p.nodes) for p in want.paths
    ]
    assert got.exhausted == want.exhausted


@st.composite
def spur_queries(draw):
    """A reverse tree's graph, packed column, threshold column and
    destination, plus the banned nodes, cut edges and spur of one spur
    search, on graphs with many zero-weight and tied edges. As in a KSP
    spur, the spur itself is never banned."""
    directed = draw(st.booleans())
    n = draw(st.integers(min_value=1, max_value=12))
    q = draw(st.integers(min_value=1, max_value=2))
    pairs = [(u, v) for u in range(n) for v in range(n) if u != v and (directed or u < v)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=3 * n)) if pairs else []
    weight = st.sampled_from([0, 0, 0, 1, 1, 2])
    g = build_graph(directed, n, q, [(u, v, tuple(draw(weight) for _ in range(q)))
                                     for u, v in chosen])
    weights = packed_weights(g, compute_layout(g))
    present = sorted(w for w in weights if w is not None)
    threshold = draw(st.sampled_from([None, 1, present[len(present) // 2] + 1]) if present
                     else st.none())
    nodes = st.integers(min_value=0, max_value=n - 1)
    edges = st.lists(st.sampled_from(range(len(chosen))), max_size=4) if chosen else st.just([])
    dest, spur = draw(nodes), draw(nodes)
    banned_nodes = frozenset(draw(st.lists(nodes, max_size=3))) - {spur}
    return (g, weights, threshold_column(weights, threshold), dest, spur, banned_nodes,
            frozenset(draw(edges)))


@settings(max_examples=400, deadline=None)
@given(spur_queries())
def test_spur_search_reads_exact_distances_on_its_shortest_paths(query):
    g, weights, column, dest, spur, banned_nodes, cut = query
    tree = mcpaths.ksp._ReverseTree(g, column, dest)
    # The reference is the other edge rule: the plain packed column, with
    # the ids the threshold drops banned as a set alongside the cut, and
    # two fresh searches with the bans, forward from the spur and backward
    # from dest. A node is on a shortest spur-dest path when its distances
    # sum to the span.
    dropped = frozenset(eid for eid, w in enumerate(column) if w is None)
    bans = {"banned_nodes": banned_nodes, "banned_edges": dropped | cut}
    from_spur, _ = shortest_distances(g, weights, spur, **bans)
    to_dest, _ = shortest_distances(g, weights, dest, incoming=True, **bans)
    span = from_spur[dest]
    want = [b if a is not None and b is not None and a + b == span else None
            for a, b in zip(from_spur, to_dest)]
    got = tree.distances(spur, banned_nodes, cut)
    if banned_nodes or cut:
        assert got == want
    else:
        # With no bans the tree's own list serves, exact on every node.
        assert got is tree.dist and got == to_dest
    # Cutting the dropped edges as well changes nothing.
    if banned_nodes or dropped | cut:
        assert tree.distances(spur, banned_nodes, dropped | cut) == want
    # A tree cut at the spur, asked with no bans, reads the fresh cut
    # search; it is no potential for a search with bans.
    plain, _ = shortest_distances(g, weights, dest, banned_edges=dropped, incoming=True,
                                  target=spur)
    cut_tree = mcpaths.ksp._ReverseTree(g, column, dest, cut_at=spur)
    got = cut_tree.distances(spur, frozenset(), ())
    assert all(got[v] == d for v, d in enumerate(plain) if d is not None)
    if banned_nodes or cut:
        with pytest.raises(InvariantError):
            cut_tree.distances(spur, banned_nodes, cut)
    # A spur search leaves the tree as it was.
    assert tree.dist == shortest_distances(g, weights, dest, banned_edges=dropped, incoming=True)[0]


def test_a_cut_edge_tight_through_a_tie_keeps_its_tail_off_the_path():
    # 0-1-2 and 0-2 both reach 2 at 2, so with 1-2 cut the arc 1->2 is
    # still tight over the spur search's distances, and node 1 is keyed
    # at the span (1 + h(1) = 3). Only 0-2-3 remains, and 1 must read None.
    g = build_graph(True, 4, 1, [(0, 1, (1,)), (1, 2, (1,)), (0, 2, (2,)), (2, 3, (1,))])
    column = packed_weights(g, compute_layout(g))
    tree = mcpaths.ksp._ReverseTree(g, column, 3)
    assert tree.distances(0, frozenset(), {1}) == [3, None, 1, 0]
    dist, _ = shortest_distances(g, column, 0, banned_edges={1}, target=3)
    assert tight_subgraph(g, column, dist, 3, {1}) == ([3, 2, 0], {2, 3})
    assert tight_subgraph(g, column, dist, 3) == ([3, 2, 1, 0], {0, 1, 2, 3})


@pytest.mark.parametrize("directed", [True, False], ids=["directed", "undirected"])
def test_the_tight_walk_skips_arcs_the_threshold_drops(directed):
    # Over the threshold column the arc 0-2 reads None. The walk used to
    # add its weight untested and raise TypeError.
    g = build_graph(directed, 3, 1, [(0, 1, (1,)), (1, 2, (1,)), (0, 2, (5,))])
    layout = compute_layout(g)
    column = threshold_column(packed_weights(g, layout), 5)
    dist, _ = shortest_distances(g, column, 0, target=2)
    assert dist == [0, 1, 2] and column[2] is None
    assert tight_subgraph(g, column, dist, 2) == ([2, 1, 0], {0, 1})
    assert [p.nodes for p in yen_ksp(g, layout, 0, 2, 2, 5).paths] == [(0, 1, 2)]


def _yen_peak_bytes_per_node(directed: bool) -> float:
    n = 100_000
    edges = ((0, 1, 1), (1, 2, 1), (0, 3, 2), (3, 2, 0), (0, 4, 1), (4, 2, 1))
    text = f"mcgraph {'directed' if directed else 'undirected'} {n} 1\n"
    text += "".join(f"{u} {v} {w}\n" for u, v, w in edges)
    g = parse_graph_file(text)
    layout = compute_layout(g)
    packed_weights(g, layout)
    tracemalloc.start()
    try:
        result = yen_ksp(g, layout, 0, 2, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(result.paths) == 3
    return peak / n


def test_a_ksp_query_costs_a_few_pointers_per_declared_node():
    # The tree keeps one distance list; a spur search adds three more,
    # its distances, their queue bounds and the distances to dest it hands
    # the walk. Nothing else is kept per node the searches did not reach.
    assert _yen_peak_bytes_per_node(directed=False) <= 48
    assert _yen_peak_bytes_per_node(directed=True) <= 48


@pytest.fixture
def search_calls(monkeypatch):
    """Sources and keyword arguments of the Dijkstra runs yen_ksp makes,
    and its number of lexmin shortest-path searches."""
    searches: list[tuple[int, dict]] = []
    lexmin = [0]
    real_search = mcpaths.ksp.shortest_distances
    real_lexmin = mcpaths.ksp._lexmin_shortest

    def search(g, weights, source, **kwargs):
        searches.append((source, kwargs))
        return real_search(g, weights, source, **kwargs)

    def counted_lexmin(*args):
        lexmin[0] += 1
        return real_lexmin(*args)

    monkeypatch.setattr(mcpaths.ksp, "shortest_distances", search)
    monkeypatch.setattr(mcpaths.ksp, "_lexmin_shortest", counted_lexmin)
    return searches, lexmin


def test_zero_weight_step_into_a_dead_end_pocket_is_skipped(search_calls):
    # Nodes 0, 1 and 2 share the level d(., 4) = 2; the pocket 1-2 is
    # reached over zero-weight edges and its only way out is back through
    # the walk's own node 0. The lexmin walk must pass it by, after one
    # backward search, cut at the source.
    g = build_graph(False, 5, 1, [(0, 1, (0,)), (1, 2, (0,)), (0, 3, (1,)), (3, 4, (1,))])
    result = yen_ksp(g, compute_layout(g), 0, 4, 1)
    assert [p.nodes for p in result.paths] == [(0, 3, 4)]
    searches, lexmin = search_calls
    [(source, options)] = searches
    assert (source, options.get("incoming"), options.get("target")) == (4, True, 0)
    assert lexmin == [1]


def test_one_backward_search_per_query(search_calls):
    # Past k=1 the query makes one full backward search from the
    # destination, and each spur's lexmin search runs A* forward over
    # that tree instead of searching backward again.
    rng = random.Random(5)
    g = random_graph(rng, directed=False, n_lo=10, n_hi=10, q_lo=1, q_hi=1, weight_max=1)
    result = yen_ksp(g, compute_layout(g), 0, 9, 8)
    searches, lexmin = search_calls
    assert sum(1 for e in g.edges if e.weights == (0,)) >= g.edge_count // 3
    assert len(result.paths) == 8
    [(source, options)] = searches
    assert (source, options.get("incoming"), options.get("target")) == (9, True, None)
    # The first search plus 26 spurs; spurring from every index takes 44.
    assert lexmin == [27]


def test_spur_searches_settle_only_their_own_detours():
    # A seeded 2,000-node, 8,000-edge undirected query, q=3, weights
    # 1-100 and a tenth of the edges all-zero, k=16. Heap pops outside
    # the one backward search are the spur searches' (stale pops and the
    # 15 candidate pops included). Repairing the reverse tree for each
    # spur's bans popped 63,067; A* over the tree pops 10,899.
    rng = random.Random(1)
    n = 2000
    pairs: set[tuple[int, int]] = set()
    while len(pairs) < 8000:
        u, v = rng.sample(range(n), 2)
        pairs.add((min(u, v), max(u, v)))
    g = build_graph(False, n, 3, [
        (u, v, (0, 0, 0) if rng.random() < 0.1 else tuple(rng.randint(1, 100) for _ in range(3)))
        for u, v in sorted(pairs)])
    pops = [0, 0]  # all, and those of the backward search
    real_pop, real_search = heapq.heappop, mcpaths.ksp.shortest_distances

    def pop(heap):
        pops[0] += 1
        return real_pop(heap)

    def search(*args, **kwargs):
        before = pops[0]
        try:
            return real_search(*args, **kwargs)
        finally:
            pops[1] += pops[0] - before

    with mock.patch.object(heapq, "heappop", pop), mock.patch.object(mcpaths.ksp, "shortest_distances", search):
        result = yen_ksp(g, compute_layout(g), 0, n - 1, 16)
    assert len(result.paths) == 16
    assert pops[0] - pops[1] <= 63_067 // 2, pops


def test_ksp_costs_match_networkx_on_larger_graphs():
    # Past the 12-node oracle, on zero-heavy undirected graphs: the first
    # k costs are unique even where the order among equal costs differs.
    rng = random.Random(191)
    short = 0
    for _ in range(100):
        g, layout, nxg, threshold = large_packed_instance(rng, directed=False, n_lo=30, n_hi=150)
        s, t = rng.sample(range(g.node_count), 2)
        k = rng.randint(1, 8)
        got = yen_ksp(g, layout, s, t, k, threshold)
        try:
            want = [nx.path_weight(nxg, p, "w") for p in islice(nx.shortest_simple_paths(nxg, s, t, "w"), k)]
        except nx.NetworkXNoPath:
            want = []
        assert [p.ew_length for p in got.paths] == want
        assert got.exhausted == (len(want) < k)
        short += got.exhausted
        assert len({p.edges for p in got.paths}) == len(got.paths)
        for p in got.paths:
            assert len(set(p.nodes)) == len(p.nodes) and (p.nodes[0], p.nodes[-1]) == (s, t)
            hops = list(zip(p.nodes, p.nodes[1:]))
            assert p.edges == tuple(nxg.edges[u, v]["eid"] for u, v in hops)
            assert p.ew_length == nx.path_weight(nxg, p.nodes, "w")
    assert 0 < short < 50, short
