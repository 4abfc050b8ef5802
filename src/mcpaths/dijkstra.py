"""The search core over packed weights, plus the threshold column.

The search is plain Dijkstra; the only twist is that distances are the
arbitrary-precision packed integers from :mod:`mcpaths.lexweight`, so one
run minimizes every criterion simultaneously in priority order. Queue
ties are popped lowest node id first, which makes distance maps and the
paths reconstructed from them reproducible. Every search runs one loop,
``settle``, from one source: ``shortest_distances`` runs it afresh, and
each KSP spur search runs it as A*, keyed by the reverse tree's
distances to the destination. The loop allocates nothing per queue
entry or predecessor link. A queue entry is the one int ``key << shift
| node``, with ``shift`` the bit length of the node count; ints order
as the (key, node) pairs would, lowest id first on a tie. ``pred[v]``
is the id of the edge the search reached ``v`` by, and the node before
``v`` is that edge's other end, ``tails[e] ^ heads[e] ^ v``, which
``pred_edges`` follows back; ``Graph`` rejects self-loops, so the
other end is never ``v`` itself.
Every search skips an arc whose column weight is None, which is how a
threshold query leaves edges out: ``threshold_column`` marks them in the
packed column, and ``shortest_path`` packs each edge when its searches
first read it, None at or above the threshold, so it builds no column
of the whole graph.

``shortest_path``, the one single-pair query, answers (source, dest) in
three phases and returns the very path the oracle's full-map reference
``extract_path(mcpaths.oracle.dijkstra(...), dest)`` reads:

1. A bidirectional search finds the distance D. A forward side grows
   from the source over out-arcs, a backward side from the destination
   over in-arcs, and each arc scanned offers the meeting length
   ``d + w + best`` against the other side's tentative distance, so
   ``mu`` is the least s-t length seen. The search stops once the two
   heap tops sum to ``mu`` or more; then ``mu`` is D.
2. ``settle`` runs the forward search from the source again, cut at
   the destination and bound by D, but pushes no node ``v`` at a
   distance ``nd`` with ``nd + lb(v) > D``. ``lb(v)`` is ``v``'s
   distance to the destination when the backward side settled ``v``,
   and the backward heap's top otherwise, a lower bound on it; with the
   backward heap empty, no node it left unsettled reaches the
   destination, and none is pushed.
3. This is exact. A node is on a shortest s-t path when its distances
   from the source and to the destination sum to D; every tight
   in-neighbour of such a node is on one too, and the prune never
   skips a push at a node's true distance when the node is on one. So
   those nodes reach their exact distances, pop in the order the full
   search pops them (other nodes push none of them at its distance),
   and take their ``pred`` link from the same first-popped tight
   in-neighbour.
"""

from __future__ import annotations

import heapq
from collections import defaultdict
from dataclasses import dataclass
from functools import partial, reduce
from itertools import repeat
from operator import add, ge, lshift
from typing import Collection, Mapping, MutableMapping, MutableSequence, Sequence

from .graph import Graph, GraphError, InvariantError, NoPathError, check_endpoints
from .lexweight import BitLayout, compute_layout, pack

__all__ = [
    "Path",
    "packed_weights",
    "shortest_distances",
    "settle",
    "tight_subgraph",
    "threshold_column",
    "filter_by_threshold",
    "shortest_path",
    "pred_edges",
    "trace_path",
]


@dataclass(frozen=True, slots=True)
class Path:
    """A simple path with cached packed and per-criterion lengths."""

    nodes: tuple[int, ...]
    edges: tuple[int, ...]
    ew_length: int
    criteria_length: tuple[int, ...]

    @property
    def source(self) -> int:
        return self.nodes[0]

    @property
    def dest(self) -> int:
        return self.nodes[-1]

    def __len__(self) -> int:
        return len(self.edges)


def trace_path(g: Graph, layout: BitLayout, edge_ids: Sequence[int], start: int) -> Path:
    """Build a Path from consecutive edge ids beginning at ``start``.

    Orientation of undirected edges is inferred by chaining endpoints;
    per-criterion sums are read straight from the weight columns.
    """
    nodes = [start]
    at = start
    for eid in edge_ids:
        u, v = g.tails[eid], g.heads[eid]
        if at == u:
            at = v
        elif at == v and not g.directed:
            at = u
        else:
            raise GraphError(f"edge {eid} does not continue the path at node {at}")
        nodes.append(at)
    if len(set(nodes)) != len(nodes):
        raise GraphError("path repeats a node")
    criteria = tuple(sum(map(column.__getitem__, edge_ids)) for column in g.weights)
    return Path(tuple(nodes), tuple(edge_ids), pack(layout, criteria), criteria)


def packed_weights(g: Graph, layout: BitLayout) -> tuple[int | None, ...]:
    """Packed integer weight per edge id, a column of ``g``.

    Each weight column is shifted to its segment as a whole and the
    shifted columns are added id by id, one column onto the running
    sum, all in chained ``map`` calls. The column for the graph's own
    layout (``compute_layout(g)``) is built on first use and stored with
    the graph, so every later query reads the same tuple; any other
    layout gets a fresh column, and must fit the graph as
    ``_check_layout`` says.
    """

    def build(g: Graph) -> tuple[int | None, ...]:
        shifted = [map(lshift, g.present(column), repeat(offset))
                   for column, offset in zip(g.weights, layout.offsets)]
        return g.column(reduce(partial(map, add), shifted))

    if _check_layout(g, layout):
        return g.derived("packed", build)
    return build(g)


def _check_layout(g: Graph, layout: BitLayout) -> bool:
    """Whether ``layout`` is the graph's own, ``compute_layout(g)``, in O(q).

    Any other layout must fit the graph: one segment per criterion, each
    at least as wide as the graph's own, and each above the next one's
    top, or a path sum could carry into the segment above and reorder the
    answers. GraphError refuses one that does not.
    """
    own = compute_layout(g)
    if layout == own:
        return True
    tops = [*map(add, layout.offsets[1:], layout.bits[1:]), 0]
    if not (len(layout.bits) == len(layout.offsets) == g.q
            and all(map(ge, layout.bits, own.bits)) and all(map(ge, layout.offsets, tops))):
        raise GraphError(f"layout does not fit the graph: needs {g.q} segments at least {list(own.bits)} bits wide, "
                         f"in priority order; got bits {list(layout.bits)} at offsets {list(layout.offsets)}")
    return False


class _PackedOnRead(dict):
    """The threshold column of one ``shortest_path`` query, filled as the
    searches read it.

    The first read of an edge id packs that edge's weights by ``pack``,
    keeps None instead when the packed weight is at or above the
    threshold, and stores the value; later reads find it. Ids the
    searches never read are never packed.
    """

    __slots__ = ("g", "layout", "threshold")

    def __init__(self, g: Graph, layout: BitLayout, threshold: int | None):
        super().__init__()
        self.g = g
        self.layout = layout
        self.threshold = threshold

    def __missing__(self, eid: int) -> int | None:
        w = pack(self.layout, [column[eid] for column in self.g.weights])
        if self.threshold is not None and w >= self.threshold:
            w = None
        self[eid] = w
        return w


def shortest_distances(
    g: Graph,
    weight_by_eid: Sequence[int | None],
    source: int,
    *,
    banned_nodes: Collection[int] = (),
    banned_edges: Collection[int] = (),
    incoming: bool = False,
    target: int | None = None,
    bound: int | None = None,
) -> tuple[list[int | None], list[int | None]]:
    """One fresh Dijkstra search from ``source``, run by ``settle``.

    ``weight_by_eid`` is a column of ``g``: the weight of edge ``eid``
    sits at index ``eid``, and an edge reading None is skipped. Returns
    (dist, pred) where ``pred[v]`` is the id of the last edge on one
    shortest path to ``v``, or None; ``pred_edges`` walks the links back.
    ``banned_nodes`` and ``banned_edges`` mask parts of the graph without
    copying it; with ``incoming=True`` the search walks arcs backwards
    (distance to a destination, not from a source).

    With ``target`` set, the search stops at the first pop farther than
    ``dist[target]``: every node at distance <= d(target) is settled
    exactly as in a full run (same ``dist`` and ``pred``, ties and
    zero-weight arcs included), and every other node reads None in both
    lists. An unreachable target leaves the search running to completion.
    ``bound``, when at least d(target), changes neither list and only
    saves heap work, as ``settle`` says.
    """
    n = g.node_count
    dist: list[int | None] = [None] * n
    pred: list[int | None] = [None] * n
    if source in banned_nodes:
        return dist, pred
    settle(g, weight_by_eid, dist, [None] * n, pred, source, banned_nodes=banned_nodes,
           banned_edges=banned_edges, incoming=incoming, target=target, bound=bound)
    return dist, pred


def settle(
    g: Graph,
    weight_by_eid: Sequence[int | None] | Mapping[int, int | None],
    dist: MutableMapping[int, int | None] | MutableSequence[int | None],
    best: MutableMapping[int, int | None] | MutableSequence[int | None],
    pred: MutableMapping[int, int | None] | MutableSequence[int | None] | None,
    source: int,
    *,
    banned_nodes: Collection[int] = (),
    banned_edges: Collection[int] = (),
    incoming: bool = False,
    target: int | None = None,
    bound: int | None = None,
    potential: Sequence[int | None] | None = None,
) -> None:
    """The Dijkstra loop every search runs, from ``source``, over prefilled state.

    A node whose ``dist`` is set is final: it is never queued or relaxed
    again, and its value is taken as exact. ``best[v]`` is the least
    distance queued for ``v`` so far. The loop sets ``best[source]`` to 0
    and queues the source first, at key 0 whatever its potential; each
    queue entry is the one int ``key << shift | v``, ``shift`` the bit
    length of the node count, so the loop pops in (key, id) order and
    fills ``dist`` in place. Whenever ``best[v]`` drops, ``pred[v]`` is
    set to the id of the edge that reached ``v``, unless ``pred`` is
    None. Arcs are read from ``g.adjacency`` in edge-id order, not by
    neighbour; ``dist`` and ``pred`` do not depend on that order,
    because ``pred[v]`` moves only on a strictly shorter distance and no
    node has two arcs to one neighbour. An arc is skipped when its
    column weight is None or its edge is in ``banned_edges``. Weights
    are read only as ``weight_by_eid[eid]``, so a mapping that packs an
    edge on its first read serves as well as a column. A ``best[v]``
    prefilled with no queued entry behind it caps ``v``: no push reaches
    ``v`` at that distance or more. ``shortest_path`` prunes that way, at
    no cost to the loop, with ``dist`` and ``best`` as defaultdicts, so
    only the nodes it touches take memory.

    A node's key is its distance, or with a ``potential`` h its distance
    plus h(v): the search is then A* (Hart, Nilsson and Raphael 1968). A
    node whose h is None is never queued. With h consistent, h(u) <= w +
    h(v) on every arc the search may take, and 0 at the target, each node
    still settles at its exact distance, and the search settles only the
    nodes keyed at most d(target).

    With ``target`` set, the loop keeps a horizon: the key of
    ``dist[target]`` when that is final, else of ``best[target]`` once
    the target is queued, which the source is from the start. It stops
    at the first pop keyed above the horizon; nodes still queued then
    read None in ``pred``. No key above the horizon is pushed either,
    and that is exact: the target's own entry sits in the heap at the
    horizon or below it, so such a key would never be popped before the
    stop, and its ``pred`` would be cleared there. A skipped node's
    ``best`` and ``pred`` are left as they were, both either unset or
    above the horizon too.

    ``bound`` caps the starting horizon: given the length of some path
    to the target, the search prunes from its first pop instead of from
    the target's first push. A bound at or above d(target) changes
    neither ``dist`` nor ``pred``; a lower one leaves the target unreached.
    """
    adjacency = g.adjacency(incoming)
    shift = g.node_count.bit_length()
    mask = (1 << shift) - 1
    best[source] = 0
    heap = [source]
    horizon = None
    if target is not None:
        horizon = best[target] if dist[target] is None else dist[target]
    if bound is not None and (horizon is None or bound < horizon):
        horizon = bound
    while heap:
        entry = heapq.heappop(heap)
        u = entry & mask
        if horizon is not None and entry >> shift > horizon:
            if pred is not None:
                # Nodes still queued were relaxed but never settled.
                heap.append(entry)
                for entry in heap:
                    if dist[v := entry & mask] is None:
                        pred[v] = None
            break
        if dist[u] is not None:
            continue
        # The first entry of ``u`` popped is its least, the one ``best`` holds.
        dist[u] = d = best[u]
        for v, eid in adjacency[u].items():
            w = weight_by_eid[eid]
            if dist[v] is not None or w is None:
                continue
            nd = key = d + w
            if potential is not None:
                h = potential[v]
                if h is None:
                    continue
                key += h
            # The bans are tested last, on the few arcs that would push.
            if ((best[v] is None or nd < best[v]) and (horizon is None or key <= horizon)
                    and v not in banned_nodes and eid not in banned_edges):
                best[v] = nd
                if pred is not None:
                    pred[v] = eid
                heapq.heappush(heap, key << shift | v)
                if v == target:
                    horizon = key


def tight_subgraph(
    g: Graph, weight_by_eid: Sequence[int | None], dist: Sequence[int | None], t: int,
    banned_edges: Collection[int] = (),
) -> tuple[list[int], set[int]]:
    """The nodes and arcs on at least one shortest path to ``t``: the nodes
    in the order the walk reaches them, ``t`` first, and the edge ids.

    ``dist`` holds one search's distances over ``weight_by_eid`` from its
    source s, and ``t`` must be reached. The walk goes back from ``t``
    over tight arcs, dist(u) + w(u, v) = dist(v): every such arc into a
    kept node is kept, and its tail is kept and walked from in turn. An
    arc reading None, an edge in ``banned_edges`` and an arc from a node
    ``dist`` reads None at are never tight. These are exactly the nodes
    u with d(s, u) + d(u, t) = d(s, t) and the arcs the search could take
    with d(s, u) + w(u, v) + d(v, t) = d(s, t). A tight arc's tail is no
    farther from s than its head, so a search cut at ``t`` has settled
    all the walk reads.
    """
    into = g.adjacency(incoming=True)
    nodes = {t}
    queue = [t]
    kept: set[int] = set()  # an undirected zero-weight edge is tight both ways
    for v in queue:
        dv = dist[v]
        for u, eid in into[v].items():
            du = dist[u]
            if (du is not None and (w := weight_by_eid[eid]) is not None and du + w == dv
                    and eid not in banned_edges):
                kept.add(eid)
                if u not in nodes:
                    nodes.add(u)
                    queue.append(u)
    return queue, kept


def threshold_column(weight_by_eid: Sequence[int | None], threshold: int | None) -> Sequence[int | None]:
    """The column ``weight_by_eid`` with None at each id whose weight is at
    or above ``threshold``; holes stay None, and with no threshold the
    column itself is returned. A search over it sees exactly the graph
    ``filter_by_threshold`` builds. KSP and the oracle search it;
    ``shortest_path`` reads the same values packed edge by edge.
    """
    if threshold is None:
        return weight_by_eid
    return tuple(None if w is None or w >= threshold else w for w in weight_by_eid)


def filter_by_threshold(g: Graph, layout: BitLayout, threshold: int | None) -> Graph:
    """Drop every edge whose packed weight is at or above the threshold.

    ``None`` disables filtering. Edge ids of the survivors are preserved.
    May disconnect the graph. Queries and the oracle search the
    ``threshold_column`` instead, so nothing in ``src/`` calls this; it
    stays only for ``bench/tracer.py`` and the tests.
    """
    if threshold is None:
        return g
    kept = threshold_column(packed_weights(g, layout), threshold)

    def keep(column: Sequence) -> list:
        return [None if w is None else x for x, w in zip(column, kept)]

    return Graph(g.directed, g.node_count, g.q, keep(g.tails), keep(g.heads), map(keep, g.weights))


def pred_edges(g: Graph, pred: Sequence[int | None] | Mapping[int, int | None], source: int, t: int) -> list[int]:
    """The edge ids of the ``pred`` links from ``source`` to a settled ``t``, in path order.

    ``pred[v]`` is the id of the edge a search of ``g`` reached ``v`` by;
    the node before ``v`` is that edge's other end, ``tails[e] ^ heads[e]
    ^ v``, since ``Graph`` has no self-loops.
    """
    tails, heads = g.tails, g.heads
    edge_ids: list[int] = []
    while t != source:
        eid = pred[t]
        edge_ids.append(eid)
        t ^= tails[eid] ^ heads[eid]
    edge_ids.reverse()
    return edge_ids


def shortest_path(
    g: Graph, layout: BitLayout, source: int, dest: int, *, threshold: int | None = None
) -> Path:
    """The shortest path the oracle's reference ``extract_path(dijkstra(g,
    layout, source, target=dest, threshold=threshold), dest)`` returns,
    found in the three phases the module docstring gives, with the same
    errors in the same order: the source checked before the destination,
    the layout, and NoPathError when no kept path joins them.

    The query packs only the edges its phases read, each once, and stores
    nothing with the graph.
    """
    check_endpoints(g, source=source, dest=dest)
    _check_layout(g, layout)
    weights = _PackedOnRead(g, layout, threshold)
    # Phase 1: the distance D, as ``mu``, from a bidirectional search.
    # Its state is kept in dicts, so it costs nothing per node it never
    # reaches.
    dist_f: dict[int, int] = {}
    dist_b: dict[int, int] = {}
    best_f, best_b = {source: 0}, {dest: 0}
    # Heap entries are ``d << shift | node``, as in ``settle``.
    shift = g.node_count.bit_length()
    mask = (1 << shift) - 1
    heap_f, heap_b = [source], [dest]
    forward, backward = g.adjacency(), g.adjacency(incoming=True)
    mu = 0 if source == dest else None
    while heap_f and heap_b:
        if mu is not None and (heap_f[0] >> shift) + (heap_b[0] >> shift) >= mu:
            break
        # The side with the shorter heap steps, the forward one on a tie.
        if len(heap_f) <= len(heap_b):
            heap, dist, best, other, adjacency = heap_f, dist_f, best_f, best_b, forward
        else:
            heap, dist, best, other, adjacency = heap_b, dist_b, best_b, best_f, backward
        entry = heapq.heappop(heap)
        u = entry & mask
        if u in dist:
            continue
        dist[u] = d = entry >> shift
        for v, eid in adjacency[u].items():
            w = weights[eid]
            if w is None:
                continue
            nd = d + w
            # The meeting test reads the other side's tentative distance,
            # and runs on every kept arc, settled ends included.
            meet = other.get(v)
            if meet is not None and (mu is None or nd + meet < mu):
                mu = nd + meet
            known = best.get(v)
            if (known is None or nd < known) and v not in dist:
                best[v] = nd
                heapq.heappush(heap, nd << shift | v)
    if mu is None:
        raise NoPathError(f"no path from {source} to {dest}")
    # Phase 2: ``best`` prefilled one above each node's push cap D - lb(v),
    # so settle's own ``nd < best[v]`` test is the prune.
    cap = mu - (heap_b[0] >> shift) + 1 if heap_b else 0
    best = defaultdict(lambda: cap, {v: mu - d + 1 for v, d in dist_b.items()})
    dist = defaultdict(lambda: None)
    pred: dict[int, int | None] = {}
    settle(g, weights, dist, best, pred, source, target=dest, bound=mu)
    if dist[dest] != mu:
        raise InvariantError(f"the pruned search reads {dist[dest]} at {dest}, not {mu}")
    path = trace_path(g, layout, pred_edges(g, pred, source, dest), source)
    if path.ew_length != mu:
        raise InvariantError(f"path to {dest} recosts to {path.ew_length}, not {mu}")
    return path
