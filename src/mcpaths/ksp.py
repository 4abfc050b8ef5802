"""K shortest simple paths by root-and-spur deviation search.

Paths are ordered by (packed length, node sequence). The node-sequence
tie-break pins a unique top-k whenever several simple paths share one
packed length, which keeps results reproducible and directly checkable
against exhaustive enumeration.

To honour that order exactly, every shortest-path subcall here returns
the lexicographically smallest node sequence among equally short paths:
a search gives the distance to the destination of every node on a
shortest path, and a greedy walk takes the smallest neighbour down that
gradient. A step over a positive-weight edge always leads on to the
destination. A zero-weight step stays on its distance level, where the
walk's own earlier nodes may cut it off, so it is taken only when a
search within that level, avoiding the walk, reaches the destination or
an edge down to a lower level.

Every search reads that backward search's reverse shortest-path tree
(Yen 1971). A query for more than one path runs it once in full; the
first search reads it as it stands, and each spur's runs A* forward
from the spur with its bans, keyed by the tree's distances (Hart,
Nilsson and Raphael 1968). Bans only lengthen paths, so those distances
never overestimate and the search settles little more than the spur's
own detour; the tight arcs back from the destination then give the
distances the walk needs. A query for one path makes the one search it
needs, with no bans, so its tree is cut at the source.

Spurs follow Lawler's deviation rule: an accepted path spurs only from
the node where it left the path it was found from. Candidates wait in
one heap ordered like the answers, (packed length, node sequence); the
rule never finds a route twice, so the heap needs no dedup.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Collection, NamedTuple, Sequence

from .dijkstra import (Path, packed_weights, settle, shortest_distances, threshold_column, tight_subgraph,
                       trace_path)
# ``filter_by_threshold`` is unused here but stays importable: bench/tracer.py
# wraps ``mcpaths.ksp.filter_by_threshold`` by name (ROADMAP, benchmark upkeep).
from .dijkstra import filter_by_threshold  # noqa: F401
from .graph import Graph, InvariantError, check_endpoints, check_k
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


class _ReverseTree:
    """Shortest distances to ``dest`` over the query's threshold column,
    from one backward search, and the spur searches that read them.

    A tree ``cut_at`` a node is that search cut at it, as a fresh search
    from there would be. It serves only the search from that node with
    no bans.
    """

    def __init__(self, g: Graph, weights: Sequence[int | None], dest: int,
                 cut_at: int | None = None):
        self.g, self.weights, self.dest, self.cut_at = g, weights, dest, cut_at
        self.dist = shortest_distances(g, weights, dest, incoming=True, target=cut_at)[0]

    def distances(
        self, source: int, banned_nodes: frozenset[int], cut: Collection[int]
    ) -> list[int | None]:
        """Distances to ``dest`` with the bans, ``cut`` the banned edges:
        exact on every node of a shortest ``source``-``dest`` path, None
        on every other node.

        With no bans the tree's own list serves, which the caller must
        not mutate; it is exact on those nodes too. Otherwise an A*
        search runs forward from ``source`` to ``dest`` with the bans,
        keyed by the tree's distances: bans only lengthen paths, so those
        are a consistent potential, and the search settles only the nodes
        keyed at most D, the banned distance of ``source``. The
        ``tight_subgraph`` back from ``dest`` over its distances g, with
        the cut banned, holds exactly the nodes of a shortest path, and
        each reads D - g(v).
        """
        if not banned_nodes and not cut:
            return self.dist
        if self.cut_at is not None:
            raise InvariantError("a cut reverse tree is no potential for a search with bans")
        g, weights, dest = self.g, self.weights, self.dest
        to_dest: list[int | None] = [None] * len(self.dist)
        dist, best = to_dest.copy(), to_dest.copy()
        # The seed pops first whatever its key; from a source the tree
        # does not reach, no arc leads to a node it does.
        settle(g, weights, dist, best, None, source, banned_nodes=banned_nodes,
               banned_edges=cut, target=dest, potential=self.dist)
        span = dist[dest]
        if span is not None:
            for v in tight_subgraph(g, weights, dist, dest, cut)[0]:
                to_dest[v] = span - dist[v]
        return to_dest


def _lexmin_shortest(
    tree: _ReverseTree, source: int, banned_nodes: frozenset[int], cut: Collection[int]
) -> _Route | None:
    """Shortest path to the tree's ``dest`` with the lexicographically
    smallest node sequence.

    Reads the distances to ``dest`` with the bans from ``tree``: exact on
    every node of a shortest ``source``-``dest`` path; every other node
    reads None, or with no bans its exact distance, which no tight step
    from such a path reaches. Every step of the walk is tight (``w +
    to_dest[v] == remaining``), which no arc reading None in the tree's
    column and no arc into a banned node is, so of the bans only ``cut``
    is tested apart. ``to_dest`` never rises along the walk, and every
    visited node lies on the current level ``remaining`` or above. A
    shortest path from a step that drops below that level therefore
    meets no visited node, while a zero-weight step is checked by
    ``leaves_level``.
    """
    g, weights, dest = tree.g, tree.weights, tree.dest
    to_dest = tree.distances(source, banned_nodes, cut)
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
                w = weights[eid]
                if w is None or to_dest[x] is None or w + to_dest[x] != remaining:
                    continue
                if x in visited or x in seen or eid in cut:
                    continue
                if w > 0:
                    return True
                seen.add(x)
                stack.append(x)
        return False

    # Both walks test the cut last, on the few tight arcs.
    at = source
    while at != dest:
        chosen = None
        for v, eid in g.out_arcs(at):
            w = weights[eid]
            if w is None or to_dest[v] is None or w + to_dest[v] != remaining:
                continue
            if v in visited or eid in cut:
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

    The threshold drops every edge whose packed weight is at or above it,
    so every returned path survives it: every search and walk reads the
    ``threshold_column``, the zero-level check included. Returns all existing
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
    check_k(k)
    check_endpoints(g, source=s, dest=t)
    if s == t:
        trivial = trace_path(g, layout, [], s)
        return KspResult((trivial,), exhausted=k > 1)
    weights = threshold_column(packed_weights(g, layout), threshold)

    # A single search, with no bans, needs the tree only as far as s.
    tree = _ReverseTree(g, weights, t, cut_at=s if k == 1 else None)
    first = _lexmin_shortest(tree, s, frozenset(), frozenset())
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
            cut = {p.edges[i] for p in accepted if p.nodes[: i + 1] == root_nodes}
            spur_route = _lexmin_shortest(tree, spur, frozenset(root_nodes[:-1]), cut)
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
