"""Per-node adjacency maps: what the Dijkstra core reads, the sorted arc
views the order-dependent walks read, and what a header's node count costs."""

import pickle
import random
import tracemalloc

from hypothesis import given, settings
from hypothesis import strategies as st

from mcpaths import build_graph, compute_layout
from mcpaths.cli import run_cli
from mcpaths.dijkstra import packed_weights, shortest_distances
from mcpaths.fileio import parse_graph_file
from mcpaths.graph import Graph
from mcpaths.oracle import dijkstra


def reference_distances(g, weights, source, banned_nodes, banned_edges, incoming, target):
    """Dijkstra without a heap over the sorted arc views: settle the
    unsettled node of least (distance, id), and move a predecessor only
    on a strictly shorter distance. With ``target`` reached, nodes
    farther than it read None, as ``shortest_distances`` documents."""

    def arcs(u):
        return sorted(g.adjacency(incoming=True)[u].items()) if incoming else g.out_arcs(u)

    dist = [None] * g.node_count
    pred = [None] * g.node_count
    if source in banned_nodes:
        return dist, pred
    best = {source: 0}
    while True:
        frontier = [(d, v) for v, d in best.items() if dist[v] is None]
        if not frontier:
            break
        d, u = min(frontier)
        dist[u] = d
        for v, eid in arcs(u):
            if dist[v] is not None or v in banned_nodes or eid in banned_edges:
                continue
            if v not in best or d + weights[eid] < best[v]:
                best[v] = d + weights[eid]
                pred[v] = eid
    if target is not None and dist[target] is not None:
        for v in range(g.node_count):
            if dist[v] is not None and dist[v] > dist[target]:
                dist[v] = pred[v] = None
    return dist, pred


@st.composite
def search_queries(draw):
    """Graphs whose edge ids run in random order against the neighbours,
    with mostly-zero and tied weights, plus the masks, cut and direction
    of one search. Node counts include the powers of two, whose top id
    fills the bits a queue entry keeps for the node, and the cut may be
    the source itself."""
    directed = draw(st.booleans())
    n = draw(st.integers(min_value=1, max_value=9) | st.sampled_from([1, 2, 4, 8, 16]))
    q = draw(st.integers(min_value=1, max_value=2))
    pairs = [(u, v) for u in range(n) for v in range(n) if u != v and (directed or u < v)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=20)) if pairs else []
    weight = st.sampled_from([0, 0, 0, 1, 1, 2])
    triples = []
    for u, v in chosen:
        if not directed and draw(st.booleans()):
            u, v = v, u
        triples.append((u, v, tuple(draw(weight) for _ in range(q))))
    g = build_graph(directed, n, q, triples)
    nodes = st.integers(min_value=0, max_value=n - 1)
    source = draw(nodes)
    banned_nodes = frozenset(draw(st.lists(nodes, max_size=2)))
    banned_edges = frozenset(draw(st.lists(st.sampled_from(range(len(triples))), max_size=3))
                             if triples else ())
    target = draw(st.none() | nodes | st.just(source))
    return g, source, banned_nodes, banned_edges, draw(st.booleans()), target


@settings(max_examples=400, deadline=None)
@given(search_queries())
def test_shortest_distances_equals_a_reference_over_sorted_arcs(query):
    g, source, banned_nodes, banned_edges, incoming, target = query
    weights = packed_weights(g, compute_layout(g))
    got = shortest_distances(g, weights, source, banned_nodes=banned_nodes,
                             banned_edges=banned_edges, incoming=incoming, target=target)
    assert got == reference_distances(g, weights, source, banned_nodes, banned_edges,
                                      incoming, target)


def _file_of_2000_edges(tmp_path):
    rng = random.Random(2000)
    n, m = 400, 2000
    pairs: set[tuple[int, int]] = set()
    while len(pairs) < m:
        pairs.add(tuple(rng.sample(range(n), 2)))
    lines = [f"mcgraph directed {n} 2"]
    lines += [f"{u} {v} {rng.randint(0, 9)} {rng.randint(0, 9)}" for u, v in pairs]
    path = tmp_path / "g.mcg"
    path.write_text("\n".join(lines) + "\n")
    return path, n


def test_sp_queries_build_no_sorted_arc_view(tmp_path, monkeypatch):
    path, n = _file_of_2000_edges(tmp_path)
    calls = []
    original = Graph.out_arcs

    def counted(self, u):
        calls.append(u)
        return original(self, u)

    monkeypatch.setattr(Graph, "out_arcs", counted)
    g = parse_graph_file(path.read_text())
    dm = dijkstra(g, compute_layout(g), 0, target=n - 1)
    assert dm.dist[n - 1] is not None
    code, doc = run_cli(["sp", "--graph", str(path), "--source", "0", "--dest", str(n - 1),
                         "--threshold", str(1 << 20)])
    assert code == 0 and len(doc["paths"]) == 1
    assert calls == []
    # The patch does count calls, so the check above would have seen any.
    g.out_arcs(0)
    assert calls == [0]


def test_arc_views_are_sorted_and_built_once(tmp_path):
    path, n = _file_of_2000_edges(tmp_path)
    for g in (parse_graph_file(path.read_text()),
              build_graph(False, 5, 1, [(3, 0, (1,)), (0, 4, (2,)), (2, 0, (0,)), (0, 1, (5,))])):
        out = {u: [] for u in range(g.node_count)}
        into = {u: [] for u in range(g.node_count)}
        for eid in g.ids:
            u, v = g.tails[eid], g.heads[eid]
            out[u].append((v, eid))
            into[v].append((u, eid))
            if not g.directed:
                out[v].append((u, eid))
                into[u].append((v, eid))
        for u in range(g.node_count):
            assert g.out_arcs(u) == tuple(sorted(out[u]))
            assert sorted(g.adjacency(incoming=True)[u].items()) == sorted(into[u])
            assert g.out_arcs(u) is g.out_arcs(u)
    assert g.out_arcs(0) == ((1, 3), (2, 2), (3, 0), (4, 1))
    assert g.adjacency(incoming=True) is g.adjacency()


def _parse_memory(text):
    """Bytes the parsed graph keeps, and the peak while parsing, under tracemalloc."""
    tracemalloc.start()
    try:
        g = parse_graph_file(text)  # noqa: F841 (kept alive for the count)
        return tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()


def test_a_header_costs_a_few_pointers_per_declared_node():
    # Nodes without an arc share one empty map: a list of pointers when
    # undirected, two when directed (out- and in-maps), 8 and 16 bytes.
    assert _parse_memory("mcgraph undirected 100000 1\n")[1] / 100_000 <= 32
    assert _parse_memory("mcgraph directed 100000 1\n0 1 5\n")[1] / 100_000 <= 32
    # With no edge line, a criterion costs a pointer in the graph's weight
    # tuple and one in the parser's list of shared empty columns: no third
    # list of q entries.
    assert _parse_memory("mcgraph directed 2 300000")[1] / 300_000 <= 20


def test_the_parse_peaks_near_the_graph_it_builds():
    # Edge lines are split a bounded piece at a time, so the transient is
    # one piece's lines and tokens, not the whole body's, whatever breaks
    # the lines.
    rng = random.Random(21)
    pairs = rng.sample([(u, v) for u in range(400) for v in range(u + 1, 400)], 20_000)
    rows = [" ".join(map(str, (u, v, *rng.choices(range(1000), k=3)))) for u, v in pairs]
    for end in ("\n", "\r\n", "\r", "\x0b", "\u2028"):
        kept, peak = _parse_memory(f"mcgraph undirected 400 3{end}" + end.join(rows) + end)
        assert peak <= 1.25 * kept, repr(end)


def test_a_graph_round_trips_through_pickle():
    g = build_graph(True, 5, 1, [(3, 0, (1,)), (0, 4, (2,)), (2, 0, (0,))])
    g.out_arcs(0)
    h = pickle.loads(pickle.dumps(g))
    assert [h.out_arcs(u) for u in range(5)] == [g.out_arcs(u) for u in range(5)]
    assert list(h.adjacency(incoming=True)) == list(g.adjacency(incoming=True))
