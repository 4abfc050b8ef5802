"""The search core over packed weights, plus threshold edge masks.

The search is plain Dijkstra; the only twist is that distances are the
arbitrary-precision packed integers from :mod:`mcpaths.lexweight`, so one
run minimizes every criterion simultaneously in priority order. Queue
ties are popped lowest node id first, which makes distance maps and the
paths reconstructed from them reproducible. Every search runs one loop,
``settle``: ``shortest_distances`` seeds it with a single source, and
the KSP reverse-tree repair seeds it with the nodes it searches again.

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
from typing import Collection, MutableMapping, MutableSequence, Sequence

from .graph import Graph, GraphError, InvariantError, NoPathError, check_endpoints
from .lexweight import BitLayout, compute_layout, pack

__all__ = [
    "Path",
    "packed_weights",
    "shortest_distances",
    "settle",
    "tight_subgraph",
    "threshold_mask",
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
    layout gets a fresh column. That layout must fit the graph: one
    segment per criterion, each at least as wide as the graph's own, and
    each above the next one's top, or a path sum could carry into the
    segment above and reorder the answers.
    """

    def build(g: Graph) -> tuple[int | None, ...]:
        shifted = [map(lshift, g.present(column), repeat(offset))
                   for column, offset in zip(g.weights, layout.offsets)]
        return g.column(reduce(partial(map, add), shifted))

    own = compute_layout(g)
    if layout == own:
        return g.derived("packed", build)
    tops = [*map(add, layout.offsets[1:], layout.bits[1:]), 0]
    if not (len(layout.bits) == len(layout.offsets) == g.q
            and all(map(ge, layout.bits, own.bits)) and all(map(ge, layout.offsets, tops))):
        raise GraphError(f"layout does not fit the graph: needs {g.q} segments at least {list(own.bits)} bits wide, "
                         f"in priority order; got bits {list(layout.bits)} at offsets {list(layout.offsets)}")
    return build(g)


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
) -> tuple[list[int | None], list[tuple[int, int] | None]]:
    """One fresh Dijkstra search from ``source``, run by ``settle``.

    ``weight_by_eid`` is a column of ``g``: the weight of edge ``eid``
    sits at index ``eid``. Returns (dist, pred) where ``pred[v]`` is
    ``(edge_id, previous_node)`` on one shortest path to ``v``, or None.
    ``banned_nodes`` and ``banned_edges`` mask parts of the graph without
    copying it; with ``incoming=True`` the search walks arcs backwards
    (distance to a destination instead of from a source).

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
    pred: list[tuple[int, int] | None] = [None] * n
    if source in banned_nodes:
        return dist, pred
    best: list[int | None] = [None] * n
    best[source] = 0
    settle(g, weight_by_eid, dist, best, pred, [(0, source)], banned_nodes=banned_nodes,
           banned_edges=banned_edges, incoming=incoming, target=target, bound=bound)
    return dist, pred


def settle(
    g: Graph,
    weight_by_eid: Sequence[int | None],
    dist: MutableMapping[int, int | None] | MutableSequence[int | None],
    best: MutableMapping[int, int | None] | MutableSequence[int | None],
    pred: MutableMapping[int, tuple[int, int] | None] | MutableSequence[tuple[int, int] | None],
    heap: list[tuple[int, int]],
    *,
    banned_nodes: Collection[int] = (),
    banned_edges: Collection[int] = (),
    mask: Collection[int] = (),
    incoming: bool = False,
    target: int | None = None,
    bound: int | None = None,
) -> None:
    """The Dijkstra loop every search runs, over prefilled state.

    A node whose ``dist`` is set is final: it is never queued or relaxed
    again, and its value is taken as exact. ``heap`` holds the seeded
    ``(distance, node)`` pairs, ``best[v]`` the least distance queued for
    ``v`` so far; ``pred[v]`` is written as ``(edge_id, previous_node)``
    whenever ``best[v]`` drops. The loop pops in (distance, id) order
    and fills ``dist`` in place. Arcs are read from ``g.adjacency`` in
    edge-id order, not by neighbour; ``dist`` and ``pred`` do not depend
    on that order, because ``pred[v]`` moves only on a strictly shorter
    distance and no node has two arcs to one neighbour. Edges in
    ``banned_edges`` or in ``mask`` are skipped alike; the two are apart
    so that the KSP tree repair, banning a few edges on top of a shared
    threshold mask, need not copy the mask. A ``best[v]`` prefilled with
    no queued entry behind it caps ``v``: no push reaches ``v`` at that
    distance or more. ``shortest_path`` prunes that way, at no cost to
    the loop, with ``dist`` and ``best`` as defaultdicts, so only the
    nodes it touches take memory.

    With ``target`` set, the loop keeps a horizon: ``dist[target]`` when
    that is final, else ``best[target]`` once the target is queued. It
    stops at the first pop farther than the horizon; nodes still queued
    then read None in ``pred``. No key above the horizon is pushed
    either, and that is exact: the target's own entry sits in the heap
    at the horizon or below it, so such a key would never be popped
    before the stop, and its ``pred`` would be cleared there. A skipped
    node's ``best`` and ``pred`` are left as they were, both either
    unset or above the horizon too.

    ``bound`` caps the starting horizon: given the length of some path
    to the target, the search prunes from its first pop instead of from
    the target's first push. A bound at or above d(target) changes
    neither ``dist`` nor ``pred``; a lower one leaves the target unreached.
    """
    adjacency = g.adjacency(incoming)
    horizon = None
    if target is not None:
        horizon = best[target] if dist[target] is None else dist[target]
    if bound is not None and (horizon is None or bound < horizon):
        horizon = bound
    while heap:
        d, u = heapq.heappop(heap)
        if horizon is not None and d > horizon:
            # Nodes still queued were relaxed but never settled.
            heap.append((d, u))
            for _, v in heap:
                if dist[v] is None:
                    pred[v] = None
            break
        if dist[u] is not None:
            continue
        dist[u] = d
        for v, eid in adjacency[u].items():
            if dist[v] is not None:
                continue
            nd = d + weight_by_eid[eid]
            # The bans are tested last, on the few arcs that would push.
            if ((best[v] is None or nd < best[v]) and (horizon is None or nd <= horizon)
                    and v not in banned_nodes and eid not in banned_edges and eid not in mask):
                best[v] = nd
                pred[v] = (eid, u)
                heapq.heappush(heap, (nd, v))
                if v == target:
                    horizon = nd


def tight_subgraph(
    g: Graph, weight_by_eid: Sequence[int | None], dist: Sequence[int | None], t: int
) -> tuple[frozenset[int], tuple[int, ...]]:
    """The nodes and arcs on at least one shortest path to ``t``, arcs as
    edge ids in id order.

    ``dist`` holds one search's distances over ``weight_by_eid`` from its
    source s, and ``t`` must be reached. The walk goes back from ``t``
    over tight arcs, dist(u) + w(u, v) = dist(v): every such arc into a
    kept node is kept, and its tail is kept and walked from in turn.
    These are exactly the nodes u with d(s, u) + d(u, t) = d(s, t) and
    the arcs with d(s, u) + w(u, v) + d(v, t) = d(s, t). A tight arc's
    tail is no farther from s than its head, so a search cut at ``t``
    has settled all the walk reads.
    """
    into = g.adjacency(incoming=True)
    nodes = {t}
    queue = [t]
    kept: set[int] = set()  # an undirected zero-weight edge is tight both ways
    for v in queue:
        dv = dist[v]
        for u, eid in into[v].items():
            du = dist[u]
            if du is not None and du + weight_by_eid[eid] == dv:
                kept.add(eid)
                if u not in nodes:
                    nodes.add(u)
                    queue.append(u)
    return frozenset(nodes), tuple(sorted(kept))


def threshold_mask(weight_by_eid: Sequence[int | None], threshold: int | None) -> frozenset[int]:
    """Ids of the edges a threshold drops: packed weight at or above it.

    ``weight_by_eid`` is a column indexed by edge id; its None holes are
    ids no edge carries and are never dropped. ``None`` drops nothing.
    Passed as ``banned_edges``, the mask makes a search see exactly the
    graph ``filter_by_threshold`` would build.
    """
    if threshold is None:
        return frozenset()
    return frozenset(
        eid for eid, w in enumerate(weight_by_eid) if w is not None and w >= threshold
    )


def filter_by_threshold(g: Graph, layout: BitLayout, threshold: int | None) -> Graph:
    """Drop every edge whose packed weight is at or above the threshold.

    ``None`` disables filtering. Edge ids of the survivors are preserved.
    May disconnect the graph. Queries and the brute-force oracle mask
    edges with ``threshold_mask`` instead, so nothing in ``src/`` calls
    this; it stays only for ``bench/tracer.py`` and the tests.
    """
    if threshold is None:
        return g
    dropped = threshold_mask(packed_weights(g, layout), threshold)

    def keep(column: Sequence) -> list:
        return [None if eid in dropped else x for eid, x in enumerate(column)]

    return Graph(g.directed, g.node_count, g.q, keep(g.tails), keep(g.heads), map(keep, g.weights))


def pred_edges(pred: Sequence[tuple[int, int] | None], source: int, t: int) -> list[int]:
    """The edge ids of the ``pred`` links from ``source`` to a settled ``t``, in path order."""
    edge_ids: list[int] = []
    while t != source:
        eid, t = pred[t]
        edge_ids.append(eid)
    edge_ids.reverse()
    return edge_ids


def shortest_path(
    g: Graph, layout: BitLayout, source: int, dest: int, *, threshold: int | None = None
) -> Path:
    """The shortest path the oracle's reference ``extract_path(dijkstra(g,
    layout, source, target=dest, threshold=threshold), dest)`` returns,
    found in the three phases the module docstring gives, with the same
    errors in the same order: the source checked before the destination,
    and NoPathError when no kept path joins them.
    """
    check_endpoints(g, source=source, dest=dest)
    weights = packed_weights(g, layout)
    mask = threshold_mask(weights, threshold)
    # Phase 1: the distance D, as ``mu``, from a bidirectional search.
    # Its state is kept in dicts, so it costs nothing per node it never
    # reaches.
    dist_f: dict[int, int] = {}
    dist_b: dict[int, int] = {}
    best_f, best_b = {source: 0}, {dest: 0}
    heap_f, heap_b = [(0, source)], [(0, dest)]
    forward, backward = g.adjacency(), g.adjacency(incoming=True)
    mu = 0 if source == dest else None
    while heap_f and heap_b:
        top_f, top_b = heap_f[0][0], heap_b[0][0]
        if mu is not None and top_f + top_b >= mu:
            break
        # The side with the shorter heap steps, the forward one on a tie.
        if len(heap_f) <= len(heap_b):
            heap, dist, best, other, adjacency = heap_f, dist_f, best_f, best_b, forward
        else:
            heap, dist, best, other, adjacency = heap_b, dist_b, best_b, best_f, backward
        d, u = heapq.heappop(heap)
        if u in dist:
            continue
        dist[u] = d
        for v, eid in adjacency[u].items():
            nd = d + weights[eid]
            # The meeting test reads the other side's tentative distance,
            # and runs on every kept arc, settled ends included.
            meet = other.get(v)
            if meet is not None and (mu is None or nd + meet < mu) and eid not in mask:
                mu = nd + meet
            known = best.get(v)
            if (known is None or nd < known) and v not in dist and eid not in mask:
                best[v] = nd
                heapq.heappush(heap, (nd, v))
    if mu is None:
        raise NoPathError(f"no path from {source} to {dest}")
    # Phase 2: ``best`` prefilled one above each node's push cap D - lb(v),
    # so settle's own ``nd < best[v]`` test is the prune.
    cap = mu - heap_b[0][0] + 1 if heap_b else 0
    best = defaultdict(lambda: cap, {v: mu - d + 1 for v, d in dist_b.items()})
    best[source] = 0
    dist = defaultdict(lambda: None)
    pred: dict[int, tuple[int, int] | None] = {}
    settle(g, weights, dist, best, pred, [(0, source)], mask=mask, target=dest, bound=mu)
    if dist[dest] != mu:
        raise InvariantError(f"the pruned search reads {dist[dest]} at {dest}, not {mu}")
    path = trace_path(g, layout, pred_edges(pred, source, dest), source)
    if path.ew_length != mu:
        raise InvariantError(f"path to {dest} recosts to {path.ew_length}, not {mu}")
    return path
