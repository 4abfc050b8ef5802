"""Per-graph weight columns: values, sharing, and what repeat queries read."""

import random
import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mcpaths import (
    BitLayout,
    GraphError,
    build_graph,
    compute_layout,
    k_disjoint_all_criteria,
    pack,
    shortest_path,
    yen_ksp,
)
from mcpaths.allcriteria import _summed_column
from mcpaths.cli import run_cli
from mcpaths.dijkstra import _PackedOnRead, filter_by_threshold, packed_weights, threshold_column
from mcpaths.fileio import parse_graph_file
from mcpaths.graph import Edge, Graph
from mcpaths.oracle import dijkstra, extract_path


@st.composite
def column_graphs(draw):
    """Directed or undirected graphs with zero weights and ties, half of
    them thinned by a threshold so that their edge ids have gaps."""
    directed = draw(st.booleans())
    n = draw(st.integers(min_value=1, max_value=9))
    q = draw(st.integers(min_value=1, max_value=3))
    pairs = [(u, v) for u in range(n) for v in range(n) if u != v and (directed or u < v)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=16)) if pairs else []
    weights = st.lists(st.integers(min_value=0, max_value=2), min_size=q, max_size=q)
    g = build_graph(directed, n, q, [(u, v, tuple(draw(weights))) for u, v in chosen])
    if draw(st.booleans()):
        cut = draw(st.sampled_from([0, 1, *(pack(compute_layout(g), e.weights) for e in g.edges)]))
        g = filter_by_threshold(g, compute_layout(g), cut)
    return g


@settings(max_examples=150, deadline=None)
@given(column_graphs(), st.data())
def test_columns_equal_a_fresh_computation(g, data):
    layout = compute_layout(g)
    assert compute_layout(g) is layout
    carried = {e.eid for e in g.edges}
    columns = {
        "packed": (packed_weights(g, layout), lambda w: pack(layout, w)),
        "summed": (_summed_column(g), sum),
        **{i: (g.weights[i], lambda w, i=i: w[i]) for i in range(g.q)},
    }
    for column, fresh in columns.values():
        assert type(column) is tuple and len(column) == len(g.tails)
        for eid, value in enumerate(column):
            assert value == (fresh(g.edge(eid).weights) if eid in carried else None)
    assert packed_weights(g, layout) is columns["packed"][0]
    assert _summed_column(g) is columns["summed"][0]

    # A layout from another graph packs correctly and is never stored if it
    # fits g: every segment at least as wide as g's own. A narrower one is
    # refused.
    wider = tuple(total + data.draw(st.integers(0, 9)) for total in layout.totals)
    foreign = compute_layout(build_graph(True, 2, g.q, [(0, 1, wider)]))
    got = packed_weights(g, foreign)
    assert got == tuple(pack(foreign, g.edge(eid).weights) if eid in carried else None
                        for eid in range(len(g.tails)))
    if foreign != layout and carried:  # () is a singleton
        assert packed_weights(g, foreign) is not got
    assert packed_weights(g, layout) is columns["packed"][0]
    # Threshold 0 drops every edge, and the holes stay None.
    assert threshold_column(got, 0) == (None,) * len(got)
    if any(layout.bits):
        i = data.draw(st.sampled_from([i for i, bits in enumerate(layout.bits) if bits]))
        narrower = tuple(total >> (j == i) for j, total in enumerate(layout.totals))
        with pytest.raises(GraphError, match="layout does not fit the graph"):
            packed_weights(g, compute_layout(build_graph(True, 2, g.q, [(0, 1, narrower)])))


@st.composite
def sparse_id_graphs(draw):
    """Directed or undirected graphs with zero weights and ties, their edge
    ids sparse, so a column has holes between and after the edges."""
    directed = draw(st.booleans())
    n = draw(st.integers(min_value=1, max_value=8))
    q = draw(st.integers(min_value=1, max_value=3))
    pairs = [(u, v) for u in range(n) for v in range(n) if u != v and (directed or u < v)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=12)) if pairs else []
    eids = draw(st.lists(st.integers(min_value=0, max_value=3 * len(chosen) + 2), unique=True,
                         min_size=len(chosen), max_size=len(chosen)))
    weights = st.lists(st.integers(min_value=0, max_value=2), min_size=q, max_size=q)
    return Graph.from_edges(directed, n, q, [Edge(u, v, tuple(draw(weights)), eid)
                                             for eid, (u, v) in zip(eids, chosen)])


@settings(max_examples=150, deadline=None)
@given(sparse_id_graphs(), st.data())
def test_a_threshold_column_reads_none_exactly_at_the_dropped_ids(g, data):
    packed = packed_weights(g, compute_layout(g))
    assert threshold_column(packed, None) is packed
    present = sorted({w for w in packed if w is not None})
    threshold = data.draw(st.sampled_from([0, 1, *present, present[-1] + 1] if present else [0, 1]))
    got = threshold_column(packed, threshold)
    assert type(got) is tuple and len(got) == len(packed)
    for eid, w in enumerate(packed):
        if w is None:
            assert got[eid] is None  # a hole stays one
        else:
            assert got[eid] == (None if w >= threshold else w)


@settings(max_examples=150, deadline=None)
@given(sparse_id_graphs(), st.data())
def test_packing_on_read_reads_the_threshold_column(g, data):
    # What sp searches, under the graph's own layout or a wider one that
    # fits it.
    layout = compute_layout(g)
    if data.draw(st.booleans()):
        wider = tuple(total + data.draw(st.integers(0, 9)) for total in layout.totals)
        layout = compute_layout(build_graph(True, 2, g.q, [(0, 1, wider)]))
    packed = packed_weights(g, layout)
    present = [w for w in packed if w is not None]
    near = [w + data.draw(st.integers(0, 1)) for w in present]
    for threshold in (None, 0, *near):
        want = threshold_column(packed, threshold)
        memo = _PackedOnRead(g, layout, threshold)
        read = data.draw(st.lists(st.sampled_from(list(g.ids)), unique=True)) if g.ids else []
        assert [memo[eid] for eid in read] == [want[eid] for eid in read]
        assert set(memo) == set(read)  # an id never read is never packed
        # Every present id reads its value, and a second read the same one.
        assert [memo[eid] for eid in g.ids] == [want[eid] for eid in g.ids]
        assert [memo[eid] for eid in read] == [want[eid] for eid in read]


def test_a_layout_that_does_not_fit_the_graph_is_refused():
    # Criteria (1, 0) then (0, 5): 0->2->3 comes first. Packed with the
    # 1-bit segments of a smaller graph, 0->2->3 weighs 5, carries into
    # the first criterion's bit and would rank behind 0->1->3 (weight 2).
    g = build_graph(True, 4, 2, [(0, 1, (1, 0)), (1, 3, (0, 0)), (0, 2, (0, 5)), (2, 3, (0, 0))])
    tiny = compute_layout(build_graph(True, 2, 2, [(0, 1, (1, 1))]))
    for query in (lambda: yen_ksp(g, tiny, 0, 3, 2), lambda: shortest_path(g, tiny, 0, 3)):
        with pytest.raises(GraphError, match="layout does not fit the graph"):
            query()
    own = compute_layout(g)
    for bits, offsets in (((1,), (0,)), ((1, 3), (2, 0)), ((1, 3), (0, 1)), ((1, 3, 1), (4, 1, 0))):
        with pytest.raises(GraphError, match="layout does not fit the graph"):
            packed_weights(g, BitLayout(own.totals[: len(bits)], bits, offsets))
    # A wider layout, with a gap between the segments, keeps the order.
    wide = BitLayout(own.totals, (2, 4), (6, 0))
    for layout in (own, wide):
        assert [p.nodes for p in yen_ksp(g, layout, 0, 3, 2).paths] == [(0, 2, 3), (0, 1, 3)]
        assert shortest_path(g, layout, 0, 3).nodes == (0, 2, 3)


def _grid(n: int = 12):
    """A directed n x n grid from one corner to the other: many tied
    all-criteria-shortest paths, and a heavier middle column of (1, 2)
    arcs for a threshold to drop."""
    arcs = []
    for r in range(n):
        for c in range(n):
            if c + 1 < n:
                arcs.append((r * n + c, r * n + c + 1, (1, 1)))
            if r + 1 < n:
                arcs.append((r * n + c, (r + 1) * n + c, (1, 2) if c == n // 2 else (1, 1)))
    return build_graph(True, n * n, 2, arcs), 0, n * n - 1


def _queries(g, s, t):
    layout = compute_layout(g)
    heavy = pack(layout, (1, 2))
    return (
        k_disjoint_all_criteria(g, s, t, 2),
        yen_ksp(g, layout, s, t, 3),
        yen_ksp(g, layout, s, t, 3, threshold=heavy),
        extract_path(dijkstra(g, layout, s, target=t, threshold=heavy), t),
    )


class _Tripwire(dict):
    def setdefault(self, key, default=None):
        raise AssertionError(f"a repeat query built {key!r}")


def test_repeat_queries_scan_no_edge_list():
    g, s, t = _grid()
    first = _queries(g, s, t)
    # No query makes the Edge views, and a repeat query builds no column.
    assert "edges" not in g._derived
    g._derived = _Tripwire(g._derived)
    assert _queries(g, s, t) == first


def test_first_queries_from_several_threads_agree():
    g, s, t = _grid()
    want = _queries(g, s, t)
    fresh, _, _ = _grid()
    workers = 4
    start = threading.Barrier(workers)
    results: list = [None] * workers

    def work(i: int) -> None:
        start.wait(timeout=30)
        results[i] = (_queries(fresh, s, t), compute_layout(fresh))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(i,)) for i in range(workers)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(th.is_alive() for th in threads)
    assert all(r is not None and r[0] == want for r in results)
    # Every thread got the one layout the graph kept.
    assert all(r[1] is compute_layout(fresh) for r in results)


def test_sp_query_on_a_parsed_graph_makes_no_edge(tmp_path, monkeypatch):
    rng = random.Random(2000)
    n, m = 400, 2000
    pairs: set[tuple[int, int]] = set()
    while len(pairs) < m:
        u, v = sorted(rng.sample(range(n), 2))
        pairs.add((u, v))
    lines = [f"mcgraph undirected {n} 3"]
    lines += [f"{u} {v} {rng.randint(0, 9)} {rng.randint(0, 9)} {rng.randint(0, 9)}" for u, v in sorted(pairs)]
    path = tmp_path / "g.mcg"
    path.write_text("\n".join(lines) + "\n")

    made = []
    init = Edge.__init__

    def counted(self, *args, **kwargs):
        made.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Edge, "__init__", counted)
    code, doc = run_cli(["sp", "--graph", str(path), "--source", "0", "--dest", str(n - 1),
                         "--threshold", str(1 << 40)])
    assert code == 0 and len(doc["paths"]) == 1
    assert made == []
    # The views do make Edges, so the count above would have seen any.
    assert len(parse_graph_file(path.read_text()).edges) == m == len(made)
