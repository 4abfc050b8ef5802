"""Single-source search over packed weights, plus threshold edge masks.

The search is plain Dijkstra; the only twist is that distances are the
arbitrary-precision packed integers from :mod:`mcpaths.lexweight`, so one
run minimizes every criterion simultaneously in priority order. Queue
ties are popped lowest node id first, which makes distance maps and the
paths reconstructed from them reproducible.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from itertools import repeat
from operator import lshift
from typing import Collection, Sequence

from .graph import Graph, GraphError, InvariantError, NoPathError, check_endpoints
from .lexweight import BitLayout, compute_layout, pack

__all__ = [
    "Path",
    "DistanceMap",
    "packed_weights",
    "shortest_distances",
    "threshold_mask",
    "filter_by_threshold",
    "dijkstra",
    "extract_path",
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
    shifted columns are summed id by id. The column for the graph's own
    layout (``compute_layout(g)``) is built on first use and stored with
    the graph, so every later query reads the same tuple; any other
    layout gets a fresh column.
    """

    def build(g: Graph) -> tuple[int | None, ...]:
        shifted = [map(lshift, g.present(column), repeat(offset))
                   for column, offset in zip(g.weights, layout.offsets)]
        return g.column(map(sum, zip(*shifted)))

    if layout == compute_layout(g):
        return g.derived("packed", build)
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
) -> tuple[list[int | None], list[tuple[int, int] | None]]:
    """Dijkstra core shared by every module.

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
    """
    n = g.node_count
    dist: list[int | None] = [None] * n
    pred: list[tuple[int, int] | None] = [None] * n
    if source in banned_nodes:
        return dist, pred
    best: list[int | None] = [None] * n
    best[source] = 0
    heap: list[tuple[int, int]] = [(0, source)]
    arcs = g.in_arcs if incoming else g.out_arcs
    horizon: int | None = None
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
        if u == target:
            horizon = d
        for v, eid in arcs(u):
            if dist[v] is not None or v in banned_nodes or eid in banned_edges:
                continue
            nd = d + weight_by_eid[eid]
            if best[v] is None or nd < best[v]:
                best[v] = nd
                pred[v] = (eid, u)
                heapq.heappush(heap, (nd, v))
    return dist, pred


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


@dataclass
class DistanceMap:
    """Distances and predecessor links from one source.

    ``target`` is the node the search was cut at, if any: once it is
    reached, nodes farther than it are missing from the map.
    """

    graph: Graph
    layout: BitLayout
    source: int
    dist: list[int | None]
    pred: list[tuple[int, int] | None]
    target: int | None


def dijkstra(
    g: Graph,
    layout: BitLayout,
    source: int,
    *,
    target: int | None = None,
    threshold: int | None = None,
) -> DistanceMap:
    """Shortest packed distance from ``source`` to every node.

    ``threshold`` masks every edge whose packed weight is at or above it,
    so the map equals one over ``filter_by_threshold(g, layout,
    threshold)`` without building that graph. With ``target`` set the
    search stops once it passes the target, as in ``shortest_distances``:
    only nodes no farther than the target are reached in the map.
    """
    check_endpoints(g, source=source)
    if target is not None:
        check_endpoints(g, dest=target)
    weights = packed_weights(g, layout)
    dist, pred = shortest_distances(
        g, weights, source, banned_edges=threshold_mask(weights, threshold), target=target
    )
    return DistanceMap(g, layout, source, dist, pred, target)


def extract_path(dm: DistanceMap, t: int) -> Path:
    """Reconstruct one shortest path from the map's source to ``t``.

    Raises NoPathError when ``t`` is unreachable, and GraphError when the
    map was cut at a reached target before the search settled ``t``.
    """
    check_endpoints(dm.graph, dest=t)
    if dm.dist[t] is None:
        if dm.target is not None and dm.dist[dm.target] is not None:
            raise GraphError(f"the distance map stops at target {dm.target}, before node {t}")
        raise NoPathError(f"no path from {dm.source} to {t}")
    edge_ids: list[int] = []
    at = t
    while at != dm.source:
        eid, prev = dm.pred[at]
        edge_ids.append(eid)
        at = prev
    edge_ids.reverse()
    path = trace_path(dm.graph, dm.layout, edge_ids, dm.source)
    if path.ew_length != dm.dist[t]:
        raise InvariantError(f"path to {t} recosts to {path.ew_length}, not {dm.dist[t]}")
    return path
