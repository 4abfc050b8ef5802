import heapq
import random
import sys
import tracemalloc
from unittest import mock

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mcpaths
import mcpaths.cli
import mcpaths.oracle
from mcpaths import (
    GraphError,
    NoPathError,
    build_graph,
    compute_layout,
    pack,
)
from mcpaths.dijkstra import filter_by_threshold, packed_weights, shortest_distances, shortest_path, tight_subgraph
from mcpaths.graph import Edge, Graph
from mcpaths.oracle import dijkstra, enumerate_simple_paths, extract_path
from conftest import large_packed_instance, random_graph


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


def test_a_cut_search_pushes_no_key_past_the_target(monkeypatch):
    # A hub: t is queued at once, then many heavy arcs leave the settled
    # ball, first from s and again after t's distance drops through a.
    s, t, a, hubs = 0, 1, 2, range(3, 13)
    edges = [(s, t, (10,)), (s, a, (1,))] + [(s, h, (20,)) for h in hubs]
    edges += [(a, t, (1,))] + [(a, h, (5,)) for h in hubs]
    g = build_graph(True, 13, 1, edges)
    pushed = []
    push = heapq.heappush

    def record(heap, item):
        pushed.append(item)
        push(heap, item)

    monkeypatch.setattr(heapq, "heappush", record)
    dm = dijkstra(g, compute_layout(g), s, target=t)
    monkeypatch.undo()

    assert extract_path(dm, t).nodes == (s, a, t)
    tentative = None
    for key, node in pushed:
        assert tentative is None or key <= tentative, (key, node)
        if node == t:
            tentative = key
    assert pushed == [(10, t), (1, a), (2, t)]


@st.composite
def bounded_searches(draw):
    """A graph with zero weights and ties, a search on it (direction,
    banned edges drawn as the union of two sets, source, target), and
    how far above d(target) to bound it."""
    directed = draw(st.booleans())
    n = draw(st.integers(min_value=2, max_value=9))
    q = draw(st.integers(min_value=1, max_value=2))
    pairs = [(u, v) for u in range(n) for v in range(n) if u != v and (directed or u < v)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=3 * n))
    weights = st.lists(st.integers(min_value=0, max_value=2), min_size=q, max_size=q)
    g = Graph.from_edges(directed, n, q, [Edge(u, v, tuple(draw(weights)), eid)
                                          for eid, (u, v) in enumerate(chosen)])
    ids = st.sets(st.sampled_from(range(len(chosen)))) if chosen else st.just(set())
    search = {
        "incoming": draw(st.booleans()),
        "banned_edges": frozenset(draw(ids)) | frozenset(draw(ids)),
        "target": draw(st.integers(min_value=0, max_value=n - 1)),
    }
    return g, draw(st.integers(min_value=0, max_value=n - 1)), search, draw(st.integers(0, 3))


@settings(max_examples=300, deadline=None)
@given(bounded_searches())
def test_a_bound_at_or_above_the_target_changes_nothing(case):
    g, source, search, slack = case
    weights = packed_weights(g, compute_layout(g))
    cut = shortest_distances(g, weights, source, **search)
    horizon = cut[0][search["target"]]
    if horizon is None:
        return
    bound = horizon + slack
    pushed = []
    push = heapq.heappush

    def record(heap, item):
        pushed.append(item[0])
        push(heap, item)

    with mock.patch.object(heapq, "heappush", record):
        got = shortest_distances(g, weights, source, bound=bound, **search)
    assert got == cut
    assert all(key <= bound for key in pushed)


@pytest.mark.parametrize("directed", [True, False], ids=["directed", "undirected"])
def test_tight_subgraph_is_every_shortest_path(directed):
    # networkx's reading, with zero weights and ties: the nodes u with
    # d(s, u) + d(u, t) = d(s, t), and the edges with an orientation (a, b)
    # such that d(s, a) + w + d(b, t) = d(s, t). The cut search settles
    # all the walk reads.
    rng = random.Random(113)
    for _ in range(80):
        g = random_graph(rng, directed=directed, q_hi=1, weight_max=2, edge_prob=0.5)
        s, t, column = 0, g.node_count - 1, g.weights[0]
        dist, _ = shortest_distances(g, column, s, target=t)
        if dist[t] is None:
            continue
        nxg = (nx.DiGraph if directed else nx.Graph)()
        nxg.add_edges_from((g.tails[eid], g.heads[eid], {"w": column[eid]}) for eid in g.ids)
        from_s = nx.single_source_dijkstra_path_length(nxg, s, weight="w")
        to_t = nx.single_source_dijkstra_path_length(nxg.reverse() if directed else nxg, t, weight="w")
        span = from_s[t]
        nodes = {u for u in from_s if u in to_t and from_s[u] + to_t[u] == span}

        def on_a_shortest_path(eid):
            a, b, w = g.tails[eid], g.heads[eid], column[eid]
            arcs = [(a, b)] if directed else [(a, b), (b, a)]
            return any(x in from_s and y in to_t and from_s[x] + w + to_t[y] == span for x, y in arcs)

        edges = tuple(filter(on_a_shortest_path, g.ids))
        assert tight_subgraph(g, column, dist, t) == (frozenset(nodes), edges)


def test_sp_matches_networkx_on_larger_graphs():
    # Past the 12-node oracle: every distance against networkx over the
    # packed weights, with the threshold's edges removed on that side.
    rng = random.Random(181)
    unreached = 0
    for _ in range(120):
        g, layout, nxg, threshold = large_packed_instance(rng, directed=rng.random() < 0.5, n_lo=30, n_hi=300)
        s = rng.randrange(g.node_count)
        want = nx.single_source_dijkstra_path_length(nxg, s, weight="w")
        dm = dijkstra(g, layout, s, threshold=threshold)
        assert dm.dist == [want.get(v) for v in range(g.node_count)]
        t = rng.randrange(g.node_count)
        if t not in want:
            unreached += 1
            with pytest.raises(NoPathError):
                extract_path(dm, t)
            continue
        assert dijkstra(g, layout, s, target=t, threshold=threshold).dist[t] == want[t]
        path = extract_path(dm, t)
        hops = list(zip(path.nodes, path.nodes[1:]))
        assert path.edges == tuple(nxg.edges[u, v]["eid"] for u, v in hops)
        assert path.ew_length == sum(nxg.edges[u, v]["w"] for u, v in hops) == want[t]
    assert unreached > 5, unreached


def _full_search_path(g, layout, s, t, threshold):
    """The path the uncut search from ``s`` reads, or its no-path message."""
    try:
        return extract_path(dijkstra(g, layout, s, threshold=threshold), t)
    except NoPathError as exc:
        return str(exc)


def _three_phase_path(g, layout, s, t, threshold):
    try:
        return shortest_path(g, layout, s, t, threshold=threshold)
    except NoPathError as exc:
        return str(exc)


@st.composite
def sp_queries(draw):
    """A graph of up to 12 nodes with zero-weight edges and tied packed
    weights, a threshold (None or near a packed weight), and an (s, t)
    pair drawn freely, so s = t and unreachable pairs both come up."""
    directed = draw(st.booleans())
    n = draw(st.integers(min_value=1, max_value=12))
    q = draw(st.integers(min_value=1, max_value=2))
    pairs = [(u, v) for u in range(n) for v in range(n) if u != v and (directed or u < v)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=3 * n)) if pairs else []
    weights = st.one_of(st.just((0,) * q), st.tuples(*[st.integers(min_value=0, max_value=2)] * q))
    g = build_graph(directed, n, q, [(u, v, draw(weights)) for u, v in chosen])
    layout = compute_layout(g)
    packed = [w for w in packed_weights(g, layout) if w is not None]
    threshold = None
    if packed and draw(st.booleans()):
        threshold = draw(st.sampled_from(packed)) + draw(st.integers(min_value=0, max_value=1))
    node = st.integers(min_value=0, max_value=n - 1)
    return g, layout, draw(node), draw(node), threshold


@settings(max_examples=400, deadline=None)
@given(sp_queries())
def test_three_phase_sp_reads_the_full_search_path(query):
    g, layout, s, t, threshold = query
    want = _full_search_path(g, layout, s, t, threshold)
    got = _three_phase_path(g, layout, s, t, threshold)
    if isinstance(want, str):
        assert got == want
    else:
        assert (got.edges, got.ew_length) == (want.edges, want.ew_length)


def test_three_phase_sp_meets_on_tentative_distances():
    # All zero: the forward side settles 1, 2 and 3 before the backward
    # side pops t = 3, so a meeting test over settled nodes alone finds
    # nothing; the tentative distance at 3 gives the meeting.
    g = build_graph(False, 4, 1, [(2, 3, (0,)), (2, 1, (0,))])
    layout = compute_layout(g)
    assert shortest_path(g, layout, 1, 3).edges == (1, 0)
    assert shortest_path(g, layout, 3, 3).edges == ()
    with pytest.raises(NoPathError, match="no path from 0 to 3"):
        shortest_path(g, layout, 0, 3)
    with pytest.raises(GraphError, match="source 4"):
        shortest_path(g, layout, 4, 9)


def test_the_package_exports_the_single_pair_search():
    assert mcpaths.shortest_path is shortest_path and "shortest_path" in mcpaths.__all__
    # The full-map search is the oracle's reference, not a second query.
    assert "dijkstra" not in mcpaths.__all__ and "extract_path" not in mcpaths.__all__
    assert len(mcpaths.__all__) == 25
    assert mcpaths.dijkstra is sys.modules["mcpaths.dijkstra"]
    assert not hasattr(mcpaths.dijkstra, "dijkstra") and not hasattr(mcpaths.dijkstra, "DistanceMap")
    assert mcpaths.oracle.dijkstra is dijkstra and mcpaths.oracle.extract_path is extract_path
    assert mcpaths.cli.dijkstra is mcpaths.oracle.dijkstra and mcpaths.cli.extract_path is mcpaths.oracle.extract_path


def test_three_phase_sp_matches_networkx_on_larger_graphs():
    rng = random.Random(191)
    unreached = 0
    for _ in range(120):
        g, layout, nxg, threshold = large_packed_instance(rng, directed=rng.random() < 0.5, n_lo=30, n_hi=300)
        s, t = rng.randrange(g.node_count), rng.randrange(g.node_count)
        want = _full_search_path(g, layout, s, t, threshold)
        got = _three_phase_path(g, layout, s, t, threshold)
        if isinstance(want, str):
            unreached += 1
            assert got == want and not nx.has_path(nxg, s, t)
            continue
        assert (got.edges, got.ew_length) == (want.edges, want.ew_length)
        assert got.ew_length == nx.dijkstra_path_length(nxg, s, t, weight="w")
        hops = list(zip(got.nodes, got.nodes[1:]))
        assert got.edges == tuple(nxg.edges[u, v]["eid"] for u, v in hops)
    assert unreached > 5, unreached


def _pops(search):
    """Heap pops one call of ``search`` makes."""
    count = [0]
    pop = heapq.heappop

    def counted(heap):
        count[0] += 1
        return pop(heap)

    with mock.patch.object(heapq, "heappop", counted):
        result = search()
    return result, count[0]


def test_three_phase_sp_pops_a_fifth_of_the_one_sided_search():
    # The benchmark's sp shape, scaled down: undirected, 3n edges, three
    # criteria of 0-999, on a random spanning chain so every pair is
    # joined. Pops count stale heap entries too.
    rng = random.Random(2000)
    n = 2000
    chain = rng.sample(range(n), n)
    pairs = {(min(u, v), max(u, v)) for u, v in zip(chain, chain[1:])}
    while len(pairs) < 3 * n:
        u, v = sorted(rng.sample(range(n), 2))
        pairs.add((u, v))
    weights = [tuple(rng.randint(0, 999) for _ in range(3)) for _ in pairs]
    g = build_graph(False, n, 3, [(u, v, w) for (u, v), w in zip(sorted(pairs), weights)])
    layout = compute_layout(g)
    one_sided = three_phase = 0
    for _ in range(10):
        s, t = rng.sample(range(n), 2)
        want, pops = _pops(lambda: extract_path(dijkstra(g, layout, s, target=t), t))
        one_sided += pops
        got, pops = _pops(lambda: shortest_path(g, layout, s, t))
        three_phase += pops
        assert got == want
    assert 5 * three_phase < one_sided, (three_phase, one_sided)


def test_three_phase_sp_allocates_nothing_per_declared_node():
    # Both phases keep their state in dicts: a node the searches never
    # touch costs nothing, where one list of n entries costs 8 bytes each.
    n = 100_000
    g = build_graph(False, n, 1, [(0, 1, (5,)), (2, 3, (1,))])
    layout = compute_layout(g)
    packed_weights(g, layout)
    tracemalloc.start()
    try:
        assert shortest_path(g, layout, 0, 1).edges == (0,)
        with pytest.raises(NoPathError):
            shortest_path(g, layout, 0, n - 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < n, peak
