"""Reference implementations for desk-scale verification.

``simple_routes`` walks every simple s-t path of a small graph as id
tuples, masked rather than copied, ``enumerate_simple_paths`` streams
them as ``Path``s, and each brute-force query answers by direct search
over any iterable of such paths: slow but transparently correct. They
back the property tests and the CLI ``--verify`` flag, which stops
reading at its path cap, and compare raw criteria vectors, not packed
integers, so they stay independent of the bit-packing they check. The
full-map ``dijkstra`` and ``extract_path``, which ``shortest_path`` is
tested against, read the packed column.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from itertools import starmap
from typing import Collection, Iterable, Iterator

from .dijkstra import Path, packed_weights, pred_edges, shortest_distances, threshold_mask, trace_path
from .graph import Graph, GraphError, InvariantError, NoPathError, check_endpoints, check_k
from .lexweight import BitLayout, compute_layout, pack
from .ksp import KspResult

__all__ = [
    "simple_routes",
    "enumerate_simple_paths",
    "oracle_ksp",
    "oracle_disjoint",
    "max_edge_disjoint_count",
    "all_criteria_shortest",
    "DistanceMap",
    "dijkstra",
    "extract_path",
]

DEFAULT_NODE_BOUND = 12
# ``--verify`` skips, and the exhaustive 2dsp solver refuses, past this
# many simple paths.
VERIFY_PATH_CAP = 100_000


def simple_routes(g: Graph, s: int, t: int, banned_nodes: Collection[int] = (),
                  banned_edges: Collection[int] = ()) -> Iterator[tuple[tuple[int, ...], tuple[int, ...]]]:
    """``enumerate_simple_paths`` without its checks, each path as ``(nodes, edge ids)``.

    The walk counts the in-neighbours of t still off the path whose arc
    into t is not banned. Any simple continuation enters t through one of
    them, so once none is left the walk takes no step but the one into t
    (Read and Tarjan, 1975), and lists the same routes.
    """
    if s in banned_nodes or t in banned_nodes:
        return
    if s == t:
        yield (s,), ()
        return
    nodes, edge_ids = [s], []
    # Banned nodes count as already on the path, so no route enters one.
    on_path = {s, *banned_nodes}
    entries = {u for u, eid in g.adjacency(incoming=True)[t].items()
               if u not in on_path and eid not in banned_edges}
    live = len(entries)
    # Per node on the path, an iterator over the arcs still to try.
    arcs = [iter(g.out_arcs(s))]
    while arcs:
        for v, eid in arcs[-1]:
            if v in on_path or eid in banned_edges:
                continue
            if v == t:
                yield (*nodes, t), (*edge_ids, eid)
            elif live:
                on_path.add(v)
                nodes.append(v)
                edge_ids.append(eid)
                live -= v in entries
                arcs.append(iter(g.out_arcs(v)))
                break
        else:
            arcs.pop()
            v = nodes.pop()
            on_path.discard(v)
            live += v in entries
            del edge_ids[-1:]  # already empty when the walk backs out of s


def enumerate_simple_paths(
    g: Graph,
    s: int,
    t: int,
    banned_nodes: Collection[int] = (),
    banned_edges: Collection[int] = (),
) -> Iterator[Path]:
    """Every simple s-t path, by depth-first search, in node-sequence order.

    Refuses graphs above ``DEFAULT_NODE_BOUND`` nodes, and bad
    endpoints, before the first path is asked for; enumeration is
    exponential and meant for verification only. ``s == t`` yields the empty path. The order
    needs no sort: ``out_arcs`` lists neighbours in ascending order and
    no two edges join the same pair. ``banned_nodes`` and
    ``banned_edges`` mask the graph as in ``shortest_distances``: no path
    uses one, and a banned ``s`` or ``t`` yields nothing. The walk is ``simple_routes``.
    """
    if g.node_count > DEFAULT_NODE_BOUND:
        raise GraphError(f"graph has {g.node_count} nodes, enumeration bound is {DEFAULT_NODE_BOUND}")
    check_endpoints(g, source=s, dest=t)
    layout = compute_layout(g)

    def path(nodes: tuple[int, ...], edge_ids: tuple[int, ...]) -> Path:
        criteria = tuple(sum(map(column.__getitem__, edge_ids)) for column in g.weights)
        return Path(nodes, edge_ids, pack(layout, criteria), criteria)

    return starmap(path, simple_routes(g, s, t, banned_nodes, banned_edges))


def _path_key(p: Path) -> tuple[tuple[int, ...], tuple[int, ...]]:
    # Criteria-vector comparison equals packed comparison for simple paths.
    return (p.criteria_length, p.nodes)


def oracle_ksp(paths: Iterable[Path], k: int) -> KspResult:
    """Top k paths under (length, node sequence), straight from the list."""
    check_k(k)
    top = heapq.nsmallest(k, paths, key=_path_key)
    return KspResult(tuple(top), exhausted=len(top) < k)


def oracle_disjoint(
    paths: Iterable[Path], mode: str, objective: str = "min-total"
) -> tuple[Path, Path] | None:
    """Best disjoint s-t pair by exhaustive scan, or None.

    Node mode admits pairs sharing nothing but the endpoints; edge mode
    pairs sharing no edge id. ``each-shortest`` additionally requires both
    paths to be globally shortest, while ``min-total`` minimizes the
    summed length vector. Pairs are canonically ordered (smaller path
    first) and ties resolve by node sequences, matching the production
    pipeline's declared order.
    """
    if objective not in ("each-shortest", "min-total"):
        raise GraphError(f"unknown objective {objective!r}")
    if mode not in ("node", "edge"):
        raise GraphError(f"unknown disjointness mode {mode!r}")
    node_mode = mode == "node"
    # (length, node sequence, what a partner must not share, path), in
    # answer order: without parallel edges no two paths share a sequence.
    infos = sorted(
        ((p.criteria_length, p.nodes, frozenset(p.nodes[1:-1] if node_mode else p.edges), p) for p in paths),
        key=lambda x: x[:2],
    )
    if objective == "each-shortest":
        infos = [x for x in infos if x[0] == infos[0][0]]

    def total(u, v):
        return tuple(x + y for x, y in zip(u, v))

    best: tuple[Path, Path] | None = None
    best_key = None
    for i, (a_vec, a_nodes, a_used, a_path) in enumerate(infos[:-1]):
        # weight-sorted scan: lexicographic order is addition-monotone,
        # so once the lightest available partner overshoots, stop
        if best_key is not None and total(a_vec, infos[i + 1][0]) > best_key[0]:
            break
        for b_vec, b_nodes, b_used, b_path in infos[i + 1 :]:
            pair_total = total(a_vec, b_vec)
            if best_key is not None and pair_total > best_key[0]:
                break
            if a_used & b_used:
                continue
            key = (pair_total, a_vec, a_nodes, b_nodes)
            if best_key is None or key < best_key:
                best_key = key
                best = (a_path, b_path)
    return best


def _flow_bound(paths: tuple[Path, ...]) -> int:
    """Unit-capacity max flow from source to dest, read off the first path,
    over the arcs the paths traverse. Edge-disjoint paths among them form
    a feasible flow, so no more of them exist than this. Kept apart from
    ``allcriteria.max_flow_unit``, which this oracle checks."""
    if not paths:
        return 0
    source, dest = paths[0].source, paths[0].dest
    if source == dest:
        return len(paths)
    residual: dict[int, dict[int, int]] = {}
    for p in paths:
        for u, v in zip(p.nodes, p.nodes[1:]):
            residual.setdefault(u, {})[v] = 1
            residual.setdefault(v, {}).setdefault(u, 0)
    flow = 0
    while True:
        parent: dict[int, int | None] = {source: None}
        queue = [source]
        for u in queue:
            for v, cap in residual.get(u, {}).items():
                if cap and v not in parent:
                    parent[v] = u
                    queue.append(v)
        if dest not in parent:
            return flow
        v = dest
        while (u := parent[v]) is not None:
            residual[u][v] -= 1
            residual[v][u] += 1
            v = u
        flow += 1


def max_edge_disjoint_count(paths: Iterable[Path]) -> int:
    """Largest number of pairwise edge-disjoint paths, by backtracking.

    The search stops once it reaches the flow bound; below it, it tries
    every subset of paths.
    """
    paths = tuple(paths)
    edge_sets = sorted({p.edges for p in paths}, key=lambda es: (len(es), es))
    sets = [frozenset(es) for es in edge_sets]
    bound = _flow_bound(paths)
    best = 0

    def grow(start: int, used: frozenset[int], count: int) -> None:
        nonlocal best
        best = max(best, count)
        if count + (len(sets) - start) <= best:
            return
        for i in range(start, len(sets)):
            if best == bound:
                return
            if not sets[i] & used:
                grow(i + 1, used | sets[i], count + 1)

    grow(0, frozenset(), 0)
    return best


def all_criteria_shortest(paths: Iterable[Path]) -> tuple[Path, ...]:
    """Paths simultaneously shortest under every criterion, if any."""
    paths = tuple(paths)
    minima = tuple(map(min, zip(*(p.criteria_length for p in paths))))
    return tuple(p for p in paths if p.criteria_length == minima)


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
    only nodes no farther than the target are reached in the map. For one
    path to one node, ``shortest_path`` returns what ``extract_path``
    reads here after searching far fewer nodes.
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
    path = trace_path(dm.graph, dm.layout, pred_edges(dm.pred, dm.source, t), dm.source)
    if path.ew_length != dm.dist[t]:
        raise InvariantError(f"path to {t} recosts to {path.ew_length}, not {dm.dist[t]}")
    return path
