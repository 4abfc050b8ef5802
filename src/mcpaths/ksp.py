"""K shortest simple paths by root-and-spur deviation search.

Paths are ordered by (packed length, node sequence). The node-sequence
tie-break pins a unique top-k whenever several simple paths share one
packed length, which keeps results reproducible and directly checkable
against exhaustive enumeration.

To honour that order exactly, every shortest-path subcall here returns
the lexicographically smallest node sequence among equally short paths:
one backward search gives every node's distance to the destination, and
a greedy walk takes the smallest neighbour down that gradient. A step
over a positive-weight edge always leads on to the destination. A
zero-weight step stays on its distance level, where the walk's own
earlier nodes may cut it off, so it is taken only when a search within
that level, avoiding the walk, reaches the destination or an edge down
to a lower level.

Spurs follow Lawler's deviation rule: an accepted path spurs only from
the node where it left the path it was found from. Candidates wait in
one heap ordered like the answers, (packed length, node sequence); the
rule never finds a route twice, so the heap needs no dedup.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import NamedTuple, Sequence

from .dijkstra import Path, packed_weights, shortest_distances, threshold_mask, trace_path
# ``filter_by_threshold`` is unused here but stays importable: bench/tracer.py
# wraps ``mcpaths.ksp.filter_by_threshold`` by name (ROADMAP, benchmark upkeep).
from .dijkstra import filter_by_threshold  # noqa: F401
from .graph import Graph, GraphError, InvariantError, check_endpoints
from .lexweight import BitLayout

__all__ = ["KspResult", "yen_ksp"]


@dataclass(frozen=True, slots=True)
class KspResult:
    """At most k distinct simple paths in non-decreasing packed order.

    ``exhausted`` is set when the graph holds fewer simple s-t paths than
    were requested.
    """

    paths: tuple[Path, ...]
    exhausted: bool


class _Route(NamedTuple):
    """Ordered as a tuple: by cost, then node sequence, the answer order."""

    cost: int
    nodes: tuple[int, ...]
    edges: tuple[int, ...]
    # Spur index at which this route left the accepted route it was found
    # from; the two share their nodes up to and including it.
    deviation: int = 0


def _lexmin_shortest(
    g: Graph,
    weights: Sequence[int | None],
    source: int,
    dest: int,
    banned_nodes: frozenset[int],
    banned_edges: frozenset[int],
) -> _Route | None:
    """Shortest path with the lexicographically smallest node sequence.

    Runs one search: the backward one from ``dest``. Every step of the
    walk is tight (``w + to_dest[v] == remaining``), so ``to_dest`` never
    rises along it and every visited node lies on the current level
    ``remaining`` or above. A shortest path from a step that drops below
    that level therefore meets no visited node, while a zero-weight step
    is checked by ``leaves_level``.
    """
    # The walk only steps onto nodes with to_dest <= d(source, dest), so the
    # backward search may stop at source.
    to_dest, _ = shortest_distances(
        g,
        weights,
        dest,
        banned_nodes=banned_nodes,
        banned_edges=banned_edges,
        incoming=True,
        target=source,
    )
    remaining = to_dest[source]
    if remaining is None:
        return None
    total = remaining
    nodes = [source]
    edges: list[int] = []
    visited = {source}

    def leaves_level(start: int) -> bool:
        """Whether zero-weight tight arcs lead from ``start`` around the
        visited nodes to ``dest`` or to a tight arc down a level."""
        seen = {start}
        stack = [start]
        while stack:
            u = stack.pop()
            if u == dest:
                return True
            for x, eid in g.out_arcs(u):
                if x in visited or x in seen or x in banned_nodes or eid in banned_edges:
                    continue
                w = weights[eid]
                if to_dest[x] is None or w + to_dest[x] != remaining:
                    continue
                if w > 0:
                    return True
                seen.add(x)
                stack.append(x)
        return False

    at = source
    while at != dest:
        chosen = None
        for v, eid in g.out_arcs(at):
            if v in visited or v in banned_nodes or eid in banned_edges:
                continue
            w = weights[eid]
            if to_dest[v] is None or w + to_dest[v] != remaining:
                continue
            if w == 0 and not leaves_level(v):
                continue
            chosen = (v, eid, w)
            break
        if chosen is None:
            raise InvariantError(f"gradient walk lost the shortest path at node {at}")
        v, eid, w = chosen
        nodes.append(v)
        edges.append(eid)
        visited.add(v)
        remaining -= w
        at = v
    return _Route(total, tuple(nodes), tuple(edges))


def yen_ksp(
    g: Graph,
    layout: BitLayout,
    s: int,
    t: int,
    k: int,
    threshold: int | None = None,
) -> KspResult:
    """The k smallest simple s-t paths under (packed length, node sequence).

    The threshold masks every edge whose packed weight is at or above it,
    so every returned path survives it; the mask joins every search's
    banned edges, the zero-level check included. Returns all existing
    paths with ``exhausted=True`` when fewer than k exist; ``s == t``
    yields the single empty path.

    A spur's search space is the simple paths that start with its root
    and avoid its banned edges, the next edge of every accepted path that
    shares the root. Accepting a candidate splits its space into the
    candidate itself and the spaces of its spurs, which Lawler's rule
    takes only from its deviation index on: a shorter root lies outside
    its space. So the accepted paths and the live candidates' spaces
    partition the s-t paths, no route is generated twice, and the
    smallest candidate on the heap is the next answer.
    """
    if k < 1:
        raise GraphError(f"k must be >= 1, got {k}")
    check_endpoints(g, source=s, dest=t)
    if s == t:
        trivial = trace_path(g, layout, [], s)
        return KspResult((trivial,), exhausted=k > 1)
    weights = packed_weights(g, layout)
    masked = threshold_mask(weights, threshold)

    first = _lexmin_shortest(g, weights, s, t, frozenset(), masked)
    if first is None:
        return KspResult((), exhausted=True)
    accepted: list[_Route] = [first]
    candidates: list[_Route] = []

    while len(accepted) < k:
        prev = accepted[-1]
        prefix_cost = sum(weights[eid] for eid in prev.edges[: prev.deviation])
        for i in range(prev.deviation, len(prev.nodes) - 1):
            spur = prev.nodes[i]
            root_nodes = prev.nodes[: i + 1]
            # A root never holds t, so every path sharing it has an edge i.
            banned_edges = {p.edges[i] for p in accepted if p.nodes[: i + 1] == root_nodes}
            spur_route = _lexmin_shortest(
                g, weights, spur, t, frozenset(root_nodes[:-1]), masked.union(banned_edges)
            )
            if spur_route is not None:
                heapq.heappush(
                    candidates,
                    _Route(
                        prefix_cost + spur_route.cost,
                        root_nodes + spur_route.nodes[1:],
                        prev.edges[:i] + spur_route.edges,
                        i,
                    ),
                )
            prefix_cost += weights[prev.edges[i]]
        if not candidates:
            break
        accepted.append(heapq.heappop(candidates))

    paths = tuple(trace_path(g, layout, r.edges, s) for r in accepted)
    return KspResult(paths, exhausted=len(paths) < k)
