"""Brute-force reference implementations for desk-scale verification.

These enumerate every simple path outright and answer queries by direct
search over the enumeration, so they are slow but transparently correct.
They back the property tests and the CLI ``--verify`` flag. Comparisons
run on raw criteria vectors, not packed integers, so the oracle route
stays independent of the bit-packing it is used to check.
"""

from __future__ import annotations

from dataclasses import dataclass

from .dijkstra import Path, trace_path
from .graph import Graph, GraphError, check_endpoints
from .lexweight import BitLayout, compute_layout
from .ksp import KspResult

__all__ = [
    "PathEnumeration",
    "enumerate_simple_paths",
    "oracle_ksp",
    "oracle_disjoint",
    "max_edge_disjoint_count",
    "all_criteria_shortest",
]

DEFAULT_NODE_BOUND = 12


@dataclass(frozen=True)
class PathEnumeration:
    """Every simple s-t path of a small graph, sorted by node sequence."""

    graph: Graph
    source: int
    dest: int
    paths: tuple[Path, ...]


def enumerate_simple_paths(
    g: Graph, s: int, t: int, node_bound: int = DEFAULT_NODE_BOUND
) -> PathEnumeration:
    """List all simple s-t paths by depth-first search.

    Refuses graphs above ``node_bound`` nodes; enumeration is exponential
    and meant for verification only. ``s == t`` yields the empty path.
    """
    if g.node_count > node_bound:
        raise GraphError(
            f"graph has {g.node_count} nodes, enumeration bound is {node_bound}"
        )
    check_endpoints(g, source=s, dest=t)
    layout = compute_layout(g)
    found: list[Path] = []
    if s == t:
        found.append(trace_path(g, layout, [], s))
        return PathEnumeration(g, s, t, tuple(found))

    edge_ids: list[int] = []
    on_path = {s}

    def visit(u: int) -> None:
        for v, eid in g.out_arcs(u):
            if v in on_path:
                continue
            edge_ids.append(eid)
            if v == t:
                found.append(trace_path(g, layout, list(edge_ids), s))
            else:
                on_path.add(v)
                visit(v)
                on_path.discard(v)
            edge_ids.pop()

    visit(s)
    found.sort(key=lambda p: p.nodes)
    return PathEnumeration(g, s, t, tuple(found))


def _path_key(p: Path) -> tuple[tuple[int, ...], tuple[int, ...]]:
    # Criteria-vector comparison equals packed comparison for simple paths.
    return (p.criteria_length, p.nodes)


def oracle_ksp(enum: PathEnumeration, layout: BitLayout, k: int) -> KspResult:
    """Top k paths under (length, node sequence), straight from the list."""
    if k < 1:
        raise GraphError(f"k must be >= 1, got {k}")
    ordered = sorted(enum.paths, key=_path_key)
    top = [
        trace_path(enum.graph, layout, p.edges, enum.source) for p in ordered[:k]
    ]
    return KspResult(tuple(top), exhausted=len(ordered) < k)


def oracle_disjoint(
    enum: PathEnumeration, mode: str, objective: str = "min-total"
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
    paths = enum.paths
    if objective == "each-shortest" and paths:
        best_vec = min(p.criteria_length for p in paths)
        paths = tuple(p for p in paths if p.criteria_length == best_vec)
    infos = sorted(
        (
            (p.criteria_length, p.nodes, frozenset(p.nodes[1:-1]), frozenset(p.edges), p)
            for p in paths
        ),
        key=lambda x: (x[0], x[1]),
    )
    node_mode = mode == "node"

    def total(u, v):
        return tuple(x + y for x, y in zip(u, v))

    best: tuple[Path, Path] | None = None
    best_key = None
    for i, (a_vec, a_nodes, a_int, a_edges, a_path) in enumerate(infos):
        if i + 1 == len(infos):
            break
        # weight-sorted scan: lexicographic order is addition-monotone,
        # so once the lightest available partner overshoots, stop
        if best_key is not None and total(a_vec, infos[i + 1][0]) > best_key[0]:
            break
        for b_vec, b_nodes, b_int, b_edges, b_path in infos[i + 1 :]:
            pair_total = total(a_vec, b_vec)
            if best_key is not None and pair_total > best_key[0]:
                break
            if node_mode:
                if a_int & b_int:
                    continue
            elif a_edges & b_edges:
                continue
            key = (pair_total, a_vec, a_nodes, b_nodes)
            if best_key is None or key < best_key:
                best_key = key
                best = (a_path, b_path)
    return best


def _flow_bound(enum: PathEnumeration) -> int:
    """Unit-capacity max flow from source to dest over the arcs the paths
    traverse. Edge-disjoint paths among them form a feasible flow, so no
    more of them exist than this. Kept apart from
    ``allcriteria.max_flow_unit``, which this oracle checks."""
    if enum.source == enum.dest:
        return len(enum.paths)
    residual: dict[int, dict[int, int]] = {}
    for p in enum.paths:
        for u, v in zip(p.nodes, p.nodes[1:]):
            residual.setdefault(u, {})[v] = 1
            residual.setdefault(v, {}).setdefault(u, 0)
    flow = 0
    while True:
        parent: dict[int, int | None] = {enum.source: None}
        queue = [enum.source]
        for u in queue:
            for v, cap in residual.get(u, {}).items():
                if cap and v not in parent:
                    parent[v] = u
                    queue.append(v)
        if enum.dest not in parent:
            return flow
        v = enum.dest
        while (u := parent[v]) is not None:
            residual[u][v] -= 1
            residual[v][u] += 1
            v = u
        flow += 1


def max_edge_disjoint_count(enum: PathEnumeration) -> int:
    """Largest number of pairwise edge-disjoint paths, by backtracking.

    The search stops once it reaches the flow bound; below it, it tries
    every subset of paths.
    """
    edge_sets = sorted({p.edges for p in enum.paths}, key=lambda es: (len(es), es))
    sets = [frozenset(es) for es in edge_sets]
    bound = _flow_bound(enum)
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


def all_criteria_shortest(enum: PathEnumeration) -> tuple[Path, ...]:
    """Paths simultaneously shortest under every criterion, if any."""
    if not enum.paths:
        return ()
    minima = [
        min(p.criteria_length[i] for p in enum.paths) for i in range(enum.graph.q)
    ]
    return tuple(
        p
        for p in enum.paths
        if all(p.criteria_length[i] == minima[i] for i in range(enum.graph.q))
    )
