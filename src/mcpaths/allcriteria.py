"""k edge-disjoint paths that are shortest under every criterion at once.

For directed graphs only. The multi-criteria question collapses to a
single summed weight per edge: a path can be simultaneously shortest
under all q criteria exactly when the summed-weight distance equals the
sum of the per-criterion distances. When that holds, the edges lying on
some summed-shortest path form a subgraph in which *every* s-t path is
such a path, so k disjoint witnesses exist precisely when a unit-capacity
max flow on that subgraph reaches k. Paths are then peeled off the flow
one at a time, cancelling any flow cycles met along the way; the flow
and the peeling read one residual arc array. Both take arcs in edge-id
order, so answers do not depend on the order in which a graph lists its
edges.

One forward search on the summed weights, cut at t, settles every node
within d(s,t) of s exactly, and that is all the subgraph needs: a node
lies on a shortest s-t path exactly when a chain of tight arcs (d(s,u)
+ w(u,v) = d(s,v)) leads from it to t. The path that search finds also
bounds every criterion's distance, so each per-criterion search prunes
from its first pop. The searches read the graph's weight columns and a
summed column stored with the graph by its first query. The subgraph
holds edge ids and the flow arc ids; no ``Edge`` is made.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .dijkstra import Path, pred_edges, shortest_distances, trace_path
from .graph import Graph, GraphError, InvariantError, NoPathError, check_endpoints
# ``reverse`` is unused here but stays importable: bench/tracer.py wraps
# ``mcpaths.allcriteria.reverse`` by name.
from .graph import reverse  # noqa: F401
from .lexweight import compute_layout

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

    ``combined`` is the graph's summed-weight column, indexed by edge id.
    ``dist_from_source[v]`` is the exact summed-weight distance s->v when
    it is at most d(s,t) = ``total_distance``, and None beyond it or when
    unreachable. ``per_criterion_dist[i]`` is d(s,t) under criterion i
    alone.
    """

    graph: Graph
    source: int
    dest: int
    combined: tuple[int | None, ...]
    dist_from_source: tuple[int | None, ...]
    per_criterion_dist: tuple[int, ...]

    @property
    def total_distance(self) -> int:
        d = self.dist_from_source[self.dest]
        if d is None:
            raise InvariantError(f"dest {self.dest} was not reached from {self.source}")
        return d


def _summed_column(g: Graph) -> tuple[int | None, ...]:
    return g.derived("summed", lambda g: g.column(map(sum, zip(*map(g.present, g.weights)))))


def aggregate_and_distances(g: Graph, s: int, t: int) -> AggregatedWeights:
    """Summed weights plus distances from s, and per criterion to t.

    All q+1 searches stop once they pass t, so only the nodes within
    d(s,t) are settled. Each per-criterion search is also bounded by
    that criterion's length of the summed search's s-t path, which is
    at least its distance, so it prunes from its first pop. The weights
    are the graph's columns. Raises GraphError on an undirected graph,
    an endpoint out of range or s = t, checked in that order, and
    NoPathError when t is unreachable from s.
    """
    if not g.directed:
        raise GraphError("all-criteria search requires a directed graph")
    check_endpoints(g, source=s, dest=t)
    if s == t:
        raise GraphError("source and destination must differ")
    combined = _summed_column(g)
    dist_fwd, pred = shortest_distances(g, combined, s, target=t)
    if dist_fwd[t] is None:
        raise NoPathError(f"no path from {s} to {t}")
    path = pred_edges(pred, s, t)
    per_criterion = []
    for i, column in enumerate(g.weights):
        dist_i, _ = shortest_distances(
            g, column, s, target=t, bound=sum(map(column.__getitem__, path))
        )
        if dist_i[t] is None:
            raise InvariantError(f"criterion {i} cannot reach {t} from {s}")
        per_criterion.append(dist_i[t])
    return AggregatedWeights(g, s, t, combined, tuple(dist_fwd), tuple(per_criterion))


def feasibility_check(aw: AggregatedWeights) -> bool:
    """Whether a single path can be shortest under every criterion."""
    return aw.total_distance == sum(aw.per_criterion_dist)


@dataclass(frozen=True)
class ShortestSubgraph:
    """Nodes and arcs (edge ids, in id order) on at least one
    summed-shortest s-t path."""

    graph: Graph
    source: int
    dest: int
    nodes: frozenset[int]
    edges: tuple[int, ...]


def build_subgraph(aw: AggregatedWeights) -> ShortestSubgraph:
    """Walk back from t over tight arcs, d(s,u) + w(u,v) = d(s,v).

    Every such arc into a kept node is kept, and its tail is kept and
    walked from in turn; these are exactly the nodes u with d(s,u) +
    d(u,t) = d(s,t) and the arcs with d(s,u) + w(u,v) + d(v,t) = d(s,t).
    A tight arc's tail lies within d(s,t) of s, so the cut forward
    search has settled it. ``edges`` are in edge-id order, which fixes
    the order in which ``max_flow_unit`` tries arcs and so the paths it
    finds, whatever the order in which the graph lists its edges.
    """
    g = aw.graph
    fwd, combined = aw.dist_from_source, aw.combined
    into = g.adjacency(incoming=True)
    nodes = {aw.dest}
    queue = [aw.dest]
    kept: list[int] = []
    for v in queue:
        dv = fwd[v]
        for u, eid in into[v].items():
            du = fwd[u]
            if du is not None and du + combined[eid] == dv:
                kept.append(eid)
                if u not in nodes:
                    nodes.add(u)
                    queue.append(u)
    kept.sort()
    return ShortestSubgraph(g, aw.source, aw.dest, frozenset(nodes), tuple(kept))


@dataclass
class FlowState:
    """A 0/1 flow over the shortest-path subgraph, as its residual arcs.

    Arc 2i is ``subgraph.edges[i]`` and arc 2i+1 its twin, pointing back;
    ``head[a]`` is where arc a leads and ``cap[a]`` its residual capacity,
    so edge i carries flow exactly when ``cap[2i + 1] == 1``. ``out[v]``
    lists the arcs leaving v, its out-edges and the twins of its
    in-edges, in edge-id order.
    """

    subgraph: ShortestSubgraph
    head: list[int]
    cap: list[int]
    out: dict[int, list[int]]
    value: int


def max_flow_unit(sub: ShortestSubgraph, k: int) -> FlowState:
    """Blocking-flow max flow with unit capacities, stopping at value k.

    Augmentation halts as soon as k units arrive, so the reported value is
    min(k, max flow). Each node tries its arcs in edge-id order, the order
    of ``sub.edges``.
    """
    if k < 1:
        raise GraphError(f"k must be >= 1, got {k}")
    s, t = sub.source, sub.dest
    tails, heads = sub.graph.tails, sub.graph.heads
    head = [x for eid in sub.edges for x in (heads[eid], tails[eid])]
    cap = [1, 0] * len(sub.edges)
    out: dict[int, list[int]] = {v: [] for v in sub.nodes}
    for a in range(len(head)):
        out[head[a ^ 1]].append(a)  # arc a leaves the head of its twin

    value = 0
    if s in sub.nodes and t in sub.nodes and s != t:
        while value < k:
            level = {s: 0}
            queue = deque([s])
            while queue:
                u = queue.popleft()
                for a in out[u]:
                    v = head[a]
                    if cap[a] > 0 and v not in level:
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
                        cap[a] -= 1
                        cap[a ^ 1] += 1
                    value += 1
                    path.clear()
                    u = s
                    continue
                advanced = False
                while it[u] < len(out[u]):
                    a = out[u][it[u]]
                    v = head[a]
                    if cap[a] > 0 and level.get(v) == level[u] + 1:
                        path.append(a)
                        u = v
                        advanced = True
                        break
                    it[u] += 1
                if not advanced:
                    if u == s:
                        break
                    dead = path.pop()
                    u = head[dead ^ 1]
                    it[u] += 1
    return FlowState(sub, head, cap, out, value)


def decompose_flow(fs: FlowState, k: int) -> tuple[Path, ...]:
    """Peel k edge-disjoint s-t paths off a 0/1 flow.

    Each round walks flow arcs backwards from t: at node v, the lowest
    twin arc of ``fs.out[v]`` with capacity 1, that is the lowest-id edge
    into v that carries flow. Revisiting a node means the walk ran around
    a flow cycle, which is cancelled on the spot (the flow value is
    unchanged); reaching s cancels the walked arcs as a path and lowers
    the flow value by one. Cancelled arcs never carry flow again, so each
    node's pointer into ``fs.out[v]`` only moves forward.
    """
    if fs.value < k:
        raise TooFewPathsError()
    sub = fs.subgraph
    s, t = sub.source, sub.dest
    layout = compute_layout(sub.graph)
    head, cap, out = fs.head, fs.cap, fs.out
    at = dict.fromkeys(out, 0)

    paths: list[Path] = []
    for _ in range(k):
        stack: list[int] = []  # twins of the walked arcs, from t back
        marked = {t}
        v = t
        while v != s:
            arcs, i = out[v], at[v]
            while i < len(arcs) and not (arcs[i] & 1 and cap[arcs[i]]):
                i += 1
            if i == len(arcs):
                raise InvariantError(f"flow conservation violated: no live arc enters node {v}")
            at[v], a = i, arcs[i]
            stack.append(a)
            v = head[a]
            if v in marked:
                # Cancel the whole cycle: every arc back through the one
                # entering the repeated node. s never repeats: the walk
                # ends on reaching it.
                while True:
                    a = stack.pop()
                    cap[a], cap[a ^ 1] = 0, 1
                    entered = head[a ^ 1]
                    marked.discard(entered)
                    if entered == v:
                        break
            marked.add(v)
        for a in stack:
            cap[a], cap[a ^ 1] = 0, 1
        edge_ids = [sub.edges[a >> 1] for a in reversed(stack)]
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
    aw = aggregate_and_distances(g, s, t)
    if not feasibility_check(aw):
        raise InfeasibleError()
    return decompose_flow(max_flow_unit(build_subgraph(aw), k), k)
