"""k edge-disjoint paths that are shortest under every criterion at once.

For directed graphs only. The multi-criteria question collapses to a
single summed weight per edge: a path can be simultaneously shortest
under all q criteria exactly when the summed-weight distance equals the
sum of the per-criterion distances. When that holds, the edges lying on
some summed-shortest path form a subgraph in which *every* s-t path is
such a path, so k disjoint witnesses exist precisely when a unit-capacity
max flow on that subgraph reaches k. Paths are then peeled off the flow
one at a time, discarding any flow cycles met along the way.

Every search stops at its target's distance: no node farther than d(s,t)
from s (or from t, walking arcs backwards) can lie on a shortest s-t
path, so none is settled, and the backward search walks the graph's
incoming arcs instead of a reversed copy.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .dijkstra import Path, shortest_distances, trace_path
# ``reverse`` is unused here but stays importable: bench/tracer.py wraps
# ``mcpaths.allcriteria.reverse`` by name.
from .graph import Edge, Graph, GraphError, InvariantError, NoPathError, check_endpoints, reverse  # noqa: F401
from .lexweight import BitLayout, compute_layout

__all__ = [
    "MSG_INFEASIBLE",
    "MSG_TOO_FEW_PATHS",
    "InfeasibleError",
    "TooFewPathsError",
    "AggregatedWeights",
    "ShortestSubgraph",
    "FlowState",
    "aggregate_and_distances",
    "feasibility_check",
    "build_subgraph",
    "max_flow_unit",
    "decompose_flow",
    "k_disjoint_all_criteria",
]

MSG_INFEASIBLE = "No path from s to t shortest w.r.t. each criterion c_i exist"
MSG_TOO_FEW_PATHS = "There exist no k paths from s to t shortest w.r.t. each criterion c_i"


class InfeasibleError(Exception):
    """No s-t path is shortest under every criterion simultaneously."""

    def __init__(self) -> None:
        super().__init__(MSG_INFEASIBLE)


class TooFewPathsError(Exception):
    """Fewer than k disjoint all-criteria-shortest paths exist."""

    def __init__(self) -> None:
        super().__init__(MSG_TOO_FEW_PATHS)


@dataclass(frozen=True)
class AggregatedWeights:
    """Summed edge weights and the distances built on them.

    ``dist_from_source[v]`` and ``dist_to_dest[v]`` are the exact
    summed-weight distances s->v and v->t when they are at most
    d(s,t) = ``total_distance``, and None beyond it or when unreachable.
    ``per_criterion_dist[i]`` is d(s,t) under criterion i alone.
    """

    graph: Graph
    source: int
    dest: int
    combined: dict[int, int]
    dist_from_source: tuple[int | None, ...]
    dist_to_dest: tuple[int | None, ...]
    per_criterion_dist: tuple[int, ...]

    @property
    def total_distance(self) -> int:
        d = self.dist_from_source[self.dest]
        if d is None:
            raise InvariantError(f"dest {self.dest} was not reached from {self.source}")
        return d


def aggregate_and_distances(g: Graph, s: int, t: int) -> AggregatedWeights:
    """Summed weights plus distances from s, to t, and per criterion to t.

    All q+2 searches stop once they pass their target, so only the nodes
    within d(s,t) are settled. Raises NoPathError when t is unreachable
    from s.
    """
    if not g.directed:
        raise GraphError("all-criteria search requires a directed graph")
    check_endpoints(g, source=s, dest=t)
    combined = {e.eid: sum(e.weights) for e in g.edges}
    dist_fwd, _ = shortest_distances(g, combined, s, target=t)
    if dist_fwd[t] is None:
        raise NoPathError(f"no path from {s} to {t}")
    dist_bwd, _ = shortest_distances(g, combined, t, incoming=True, target=s)
    per_criterion = []
    for i in range(g.q):
        weights_i = {e.eid: e.weights[i] for e in g.edges}
        dist_i, _ = shortest_distances(g, weights_i, s, target=t)
        if dist_i[t] is None:
            raise InvariantError(f"criterion {i} cannot reach {t} from {s}")
        per_criterion.append(dist_i[t])
    return AggregatedWeights(
        g, s, t, combined, tuple(dist_fwd), tuple(dist_bwd), tuple(per_criterion)
    )


def feasibility_check(aw: AggregatedWeights) -> bool:
    """Whether a single path can be shortest under every criterion."""
    return aw.total_distance == sum(aw.per_criterion_dist)


@dataclass(frozen=True)
class ShortestSubgraph:
    """Nodes and arcs lying on at least one summed-shortest s-t path."""

    graph: Graph
    source: int
    dest: int
    total_distance: int
    nodes: frozenset[int]
    edges: tuple[Edge, ...]


def build_subgraph(g: Graph, aw: AggregatedWeights) -> ShortestSubgraph:
    """Keep node u when d(s,u) + d(u,t) = d(s,t), and arc (u,v) when
    d(s,u) + w(u,v) + d(v,t) = d(s,t)."""
    span = aw.total_distance
    fwd, bwd = aw.dist_from_source, aw.dist_to_dest
    nodes = frozenset(
        u
        for u in range(g.node_count)
        if fwd[u] is not None and bwd[u] is not None and fwd[u] + bwd[u] == span
    )
    edges = tuple(
        e
        for e in g.edges
        if fwd[e.u] is not None
        and bwd[e.v] is not None
        and fwd[e.u] + aw.combined[e.eid] + bwd[e.v] == span
    )
    return ShortestSubgraph(g, aw.source, aw.dest, span, nodes, edges)


@dataclass
class FlowState:
    """0/1 flow over the shortest-path subgraph, keyed by edge id."""

    subgraph: ShortestSubgraph
    flow: dict[int, int]
    value: int


def max_flow_unit(sub: ShortestSubgraph, s: int, t: int, k: int) -> FlowState:
    """Blocking-flow max flow with unit capacities, stopping at value k.

    Augmentation halts as soon as k units arrive, so the reported value is
    min(k, max flow).
    """
    if k < 1:
        raise GraphError(f"k must be >= 1, got {k}")
    # Compact arc arrays: arc 2i is sub.edges[i], arc 2i+1 its residual twin.
    arc_to: list[int] = []
    arc_cap: list[int] = []
    out: dict[int, list[int]] = {v: [] for v in sub.nodes}
    for e in sub.edges:
        out[e.u].append(len(arc_to))
        arc_to.append(e.v)
        arc_cap.append(1)
        out[e.v].append(len(arc_to))
        arc_to.append(e.u)
        arc_cap.append(0)

    value = 0
    if s in sub.nodes and t in sub.nodes and s != t:
        while value < k:
            level = {s: 0}
            queue = deque([s])
            while queue:
                u = queue.popleft()
                for a in out[u]:
                    v = arc_to[a]
                    if arc_cap[a] > 0 and v not in level:
                        level[v] = level[u] + 1
                        queue.append(v)
            if t not in level:
                break
            # Iterative blocking-flow sweep; per-node arc pointers make
            # each arc inspection O(1) amortized within the phase.
            it = {v: 0 for v in sub.nodes}
            path: list[int] = []
            u = s
            while value < k:
                if u == t:
                    for a in path:
                        arc_cap[a] -= 1
                        arc_cap[a ^ 1] += 1
                    value += 1
                    path.clear()
                    u = s
                    continue
                advanced = False
                while it[u] < len(out[u]):
                    a = out[u][it[u]]
                    v = arc_to[a]
                    if arc_cap[a] > 0 and level.get(v) == level[u] + 1:
                        path.append(a)
                        u = v
                        advanced = True
                        break
                    it[u] += 1
                if not advanced:
                    if u == s:
                        break
                    dead = path.pop()
                    u = arc_to[dead ^ 1]
                    it[u] += 1

    flow = {e.eid: 1 - arc_cap[2 * i] for i, e in enumerate(sub.edges)}
    return FlowState(sub, flow, value)


def decompose_flow(
    fs: FlowState, s: int, t: int, k: int, layout: BitLayout | None = None
) -> tuple[Path, ...]:
    """Peel k edge-disjoint s-t paths off a 0/1 flow.

    Each round walks flow arcs backwards from t. Revisiting a node means
    the walk ran around a flow cycle, which is zeroed out on the spot
    (the flow value is unchanged); reaching s empties the walk stack into
    a path and lowers the flow value by one. Arc choices follow the lowest
    edge id, so decompositions are reproducible.
    """
    if fs.value < k:
        raise TooFewPathsError()
    sub = fs.subgraph
    if layout is None:
        layout = compute_layout(sub.graph)
    flow = fs.flow
    incoming: dict[int, list[tuple[int, int]]] = {v: [] for v in sub.nodes}
    for e in sub.edges:
        if flow[e.eid] == 1:
            incoming[e.v].append((e.eid, e.u))
    for arcs in incoming.values():
        arcs.sort(reverse=True)  # pop() then yields lowest edge id first

    def next_arc(v: int) -> tuple[int, int]:
        arcs = incoming[v]
        while arcs and flow[arcs[-1][0]] == 0:
            arcs.pop()
        if not arcs:
            raise InvariantError(f"flow conservation violated: no live arc enters node {v}")
        return arcs[-1]

    paths: list[Path] = []
    for _ in range(k):
        stack: list[tuple[int, int, int]] = []  # (tail, head, eid) of walked arcs
        marked = {t}
        v = t
        while v != s:
            eid, u = next_arc(v)
            stack.append((u, v, eid))
            v = u
            if v == s:
                break
            if v in marked:
                # Zero the whole cycle: every arc back through the one
                # entering the repeated node.
                while True:
                    tail, head, ce = stack.pop()
                    flow[ce] = 0
                    marked.discard(head)
                    if head == v:
                        break
                marked.add(v)
            else:
                marked.add(v)
        edge_ids: list[int] = []
        while stack:
            tail, head, eid = stack.pop()
            flow[eid] = 0
            edge_ids.append(eid)
        paths.append(trace_path(sub.graph, layout, edge_ids, s))
        fs.value -= 1
    return tuple(paths)


def k_disjoint_all_criteria(g: Graph, s: int, t: int, k: int) -> tuple[Path, ...]:
    """Full pipeline: feasibility test, subgraph, max flow, decomposition.

    Raises InfeasibleError when no all-criteria-shortest path exists and
    TooFewPathsError when fewer than k disjoint ones do.
    """
    if k < 1:
        raise GraphError(f"k must be >= 1, got {k}")
    if s == t:
        raise GraphError("source and destination must differ")
    aw = aggregate_and_distances(g, s, t)
    if not feasibility_check(aw):
        raise InfeasibleError()
    sub = build_subgraph(g, aw)
    fs = max_flow_unit(sub, s, t, k)
    if fs.value < k:
        raise TooFewPathsError()
    return decompose_flow(fs, s, t, k, compute_layout(g))
