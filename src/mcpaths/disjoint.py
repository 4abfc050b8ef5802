"""Two disjoint shortest s-t paths in an undirected multi-criteria graph.

The query is rewritten over a single packed weight, then the one-source
one-destination instance is rebuilt with two fresh sources and two fresh
destinations so that a two-pair disjoint-shortest-paths solver applies:

* edge-disjoint variant: pendant terminals s1, s2 hang off s and t1, t2
  off t through zero-weight dummy edges, leaving path weights unchanged;
* node-disjoint variant: s and t are deleted and every edge (s, v) is
  re-anchored at a fresh split node s_v (symmetrically t_v, and a direct
  (s, t) edge becomes (s', t')), with weight-1 dummy edges from both
  sources to every split node. Fully node-disjoint terminal paths in the
  rebuilt graph then correspond exactly to internally node-disjoint s-t
  paths, each 2 units heavier than its original.

The two-pair solver here is an exhaustive stand-in kept behind a small
interface so a polynomial algorithm can replace it later; desk-scale
verification needs the exhaustive search anyway.
"""

from __future__ import annotations

from dataclasses import dataclass

from .dijkstra import Path, shortest_distances, trace_path
from .graph import Edge, Graph, GraphError, InvariantError, check_endpoints
from .lexweight import BitLayout, compute_layout, pack

__all__ = [
    "MODE_EDGE",
    "MODE_NODE",
    "OBJECTIVE_EACH_SHORTEST",
    "OBJECTIVE_MIN_TOTAL",
    "GadgetGraph",
    "DisjointPair",
    "SolverBoundError",
    "build_edge_disjoint_gadget",
    "build_node_disjoint_gadget",
    "check_not_rigid",
    "solve_2dsp_exhaustive",
    "abridge",
    "two_disjoint_shortest",
]

MODE_EDGE = "edge"
MODE_NODE = "node"
OBJECTIVE_EACH_SHORTEST = "each-shortest"
OBJECTIVE_MIN_TOTAL = "min-total"

DEFAULT_SOLVER_BOUND = 16


class SolverBoundError(GraphError):
    """Instance too large for the exhaustive two-pair solver."""


@dataclass(frozen=True)
class GadgetGraph:
    """Rewritten two-source/two-destination instance.

    ``graph`` holds single-criterion packed weights. ``node_origin`` maps
    every non-terminal node back to the original node it stands for, which
    is what shrinking a solution back to the input graph relies on.
    """

    graph: Graph
    terminals: tuple[int, int, int, int]
    dummy_edges: frozenset[int]
    node_origin: dict[int, int]
    mode: str
    source_graph: Graph
    layout: BitLayout
    source: int
    dest: int


@dataclass(frozen=True)
class DisjointPair:
    """Two disjoint s-t paths in the original graph, smaller path first."""

    first: Path
    second: Path
    mode: str


def _require_undirected_query(g: Graph, s: int, t: int) -> None:
    if g.directed:
        raise GraphError("disjoint-pair search requires an undirected graph")
    check_endpoints(g, source=s, dest=t)
    if s == t:
        raise GraphError("source and destination must differ")


def build_edge_disjoint_gadget(g: Graph, layout: BitLayout, s: int, t: int) -> GadgetGraph:
    """Attach pendant terminals through zero-weight dummy edges."""
    _require_undirected_query(g, s, t)
    n = g.node_count
    s1, s2, t1, t2 = n, n + 1, n + 2, n + 3
    edges = [Edge(e.u, e.v, (pack(layout, e.weights),), e.eid) for e in g.edges]
    base = g.next_edge_id()
    edges += [
        Edge(s1, s, (0,), base),
        Edge(s2, s, (0,), base + 1),
        Edge(t, t1, (0,), base + 2),
        Edge(t, t2, (0,), base + 3),
    ]
    gadget = Graph(False, n + 4, 1, edges)
    return GadgetGraph(
        graph=gadget,
        terminals=(s1, s2, t1, t2),
        dummy_edges=frozenset(range(base, base + 4)),
        node_origin={v: v for v in range(n)},
        mode=MODE_EDGE,
        source_graph=g,
        layout=layout,
        source=s,
        dest=t,
    )


def build_node_disjoint_gadget(g: Graph, layout: BitLayout, s: int, t: int) -> GadgetGraph:
    """Split the endpoints so node-disjointness becomes checkable at terminals.

    Original s and t disappear; each neighbour v of s gets a split node
    s_v carrying the re-anchored edge (s_v, v), and both sources attach to
    every split node with a weight-1 dummy. The destination side mirrors
    this, and a direct (s, t) edge turns into (s', t') with dummies on
    both sides. Interior nodes and surviving edges keep their identity.
    """
    _require_undirected_query(g, s, t)
    interiors = [v for v in range(g.node_count) if v not in (s, t)]
    remap = {old: new for new, old in enumerate(interiors)}
    origin = {new: old for old, new in remap.items()}
    next_id = len(interiors)

    s_split: dict[int, int] = {}
    for v, _ in g.out_arcs(s):
        if v != t:
            s_split[v] = next_id
            origin[next_id] = s
            next_id += 1
    st_source = st_dest = None
    if any(v == t for v, _ in g.out_arcs(s)):
        st_source, st_dest = next_id, next_id + 1
        origin[st_source] = s
        origin[st_dest] = t
        next_id += 2
    t_split: dict[int, int] = {}
    for v, _ in g.out_arcs(t):
        if v != s:
            t_split[v] = next_id
            origin[next_id] = t
            next_id += 1
    s1, s2, t1, t2 = next_id, next_id + 1, next_id + 2, next_id + 3
    node_total = next_id + 4

    edges: list[Edge] = []
    for e in g.edges:
        w = (pack(layout, e.weights),)
        a, b = e.u, e.v
        if {a, b} == {s, t}:
            edges.append(Edge(st_source, st_dest, w, e.eid))
        elif s in (a, b):
            v = b if a == s else a
            edges.append(Edge(s_split[v], remap[v], w, e.eid))
        elif t in (a, b):
            v = b if a == t else a
            edges.append(Edge(remap[v], t_split[v], w, e.eid))
        else:
            edges.append(Edge(remap[a], remap[b], w, e.eid))

    base = g.next_edge_id()
    dummies: list[Edge] = []
    source_side = sorted(s_split.values()) + ([st_source] if st_source is not None else [])
    dest_side = sorted(t_split.values()) + ([st_dest] if st_dest is not None else [])
    for x in source_side:
        dummies.append(Edge(s1, x, (1,), base + len(dummies)))
        dummies.append(Edge(s2, x, (1,), base + len(dummies)))
    for x in dest_side:
        dummies.append(Edge(x, t1, (1,), base + len(dummies)))
        dummies.append(Edge(x, t2, (1,), base + len(dummies)))

    gadget = Graph(False, node_total, 1, edges + dummies)
    return GadgetGraph(
        graph=gadget,
        terminals=(s1, s2, t1, t2),
        dummy_edges=frozenset(d.eid for d in dummies),
        node_origin=origin,
        mode=MODE_NODE,
        source_graph=g,
        layout=layout,
        source=s,
        dest=t,
    )


def check_not_rigid(gg: GadgetGraph) -> bool:
    """True unless each terminal pair lies on the other pair's shortest paths.

    Membership in L(x, y), the nodes on at least one shortest x-y path, is
    decided by the distance identity d(x, u) + d(u, y) = d(x, y).
    Disconnected terminal pairs have empty L-sets and are never rigid.
    """
    weights = {e.eid: e.weights[0] for e in gg.graph.edges}
    s1, s2, t1, t2 = gg.terminals

    def l_set_contains(a: int, b: int, members: tuple[int, ...]) -> bool:
        from_a, _ = shortest_distances(gg.graph, weights, a)
        from_b, _ = shortest_distances(gg.graph, weights, b)
        span = from_a[b]
        if span is None:
            return False
        return all(
            from_a[u] is not None
            and from_b[u] is not None
            and from_a[u] + from_b[u] == span
            for u in members
        )

    rigid = l_set_contains(s2, t2, (s1, t1)) and l_set_contains(s1, t1, (s2, t2))
    return not rigid


def _terminal_paths(g: Graph, source: int, dest: int) -> list[tuple[tuple[int, ...], tuple[int, ...], int]]:
    """All simple source-dest paths as (nodes, edge ids, weight)."""
    results: list[tuple[tuple[int, ...], tuple[int, ...], int]] = []
    # Iterative DFS; each stack frame remembers which arc to try next.
    stack: list[tuple[int, int]] = [(source, 0)]
    nodes = [source]
    eids: list[int] = []
    weight = [0]
    on_path = {source}
    while stack:
        u, idx = stack[-1]
        arcs = g.out_arcs(u)
        if idx >= len(arcs):
            stack.pop()
            if len(nodes) > 1:
                on_path.discard(nodes.pop())
                weight[0] -= g.edge(eids.pop()).weights[0]
            continue
        stack[-1] = (u, idx + 1)
        v, eid = arcs[idx]
        if v in on_path:
            continue
        if v == dest:
            results.append(
                (tuple(nodes) + (v,), tuple(eids) + (eid,), weight[0] + g.edge(eid).weights[0])
            )
            continue
        stack.append((v, 0))
        nodes.append(v)
        eids.append(eid)
        weight[0] += g.edge(eid).weights[0]
        on_path.add(v)
    return results


def solve_2dsp_exhaustive(
    gg: GadgetGraph,
    objective: str = OBJECTIVE_MIN_TOTAL,
    node_bound: int = DEFAULT_SOLVER_BOUND,
) -> tuple[Path, Path] | None:
    """Best disjoint terminal pair by full enumeration, or None.

    Disjointness follows the gadget's mode: node-disjoint pairs share no
    node at all, edge-disjoint pairs no edge id. With ``each-shortest``
    both paths must individually be shortest between their terminals;
    ``min-total`` minimizes the summed weight. Ties resolve by the pair's
    weights and original-graph node sequences, smaller path first, so the
    answer is unique and matches the exhaustive oracle's order.
    """
    if objective not in (OBJECTIVE_EACH_SHORTEST, OBJECTIVE_MIN_TOTAL):
        raise GraphError(f"unknown objective {objective!r}")
    if gg.graph.node_count > node_bound:
        raise SolverBoundError(
            f"exhaustive solver bound exceeded: {gg.graph.node_count} nodes > {node_bound}"
        )
    s1, s2, t1, t2 = gg.terminals
    first_routes = _terminal_paths(gg.graph, s1, t1)
    second_routes = _terminal_paths(gg.graph, s2, t2)
    if objective == OBJECTIVE_EACH_SHORTEST:
        if not first_routes or not second_routes:
            return None
        d1 = min(w for _, _, w in first_routes)
        d2 = min(w for _, _, w in second_routes)
        first_routes = [r for r in first_routes if r[2] == d1]
        second_routes = [r for r in second_routes if r[2] == d2]

    terminal_set = set(gg.terminals)
    dummy = gg.dummy_edges

    def route_info(route):
        nodes, eids, w = route
        orig_nodes = tuple(gg.node_origin[v] for v in nodes if v not in terminal_set)
        orig_w = w - sum(gg.graph.edge(eid).weights[0] for eid in eids if eid in dummy)
        return (orig_w, orig_nodes, frozenset(nodes), frozenset(eids), route)

    firsts = sorted((route_info(r) for r in first_routes), key=lambda x: (x[0], x[1]))
    seconds = sorted((route_info(r) for r in second_routes), key=lambda x: (x[0], x[1]))
    if not firsts or not seconds:
        return None
    node_mode = gg.mode == MODE_NODE
    min_second = seconds[0][0]
    best = None
    best_key = None
    for a_w, a_nodes, a_node_set, a_edge_set, a_route in firsts:
        # routes are weight-sorted, so once even the lightest partner
        # cannot tie the incumbent total, nothing later can either
        if best_key is not None and a_w + min_second > best_key[0]:
            break
        for b_w, b_nodes, b_node_set, b_edge_set, b_route in seconds:
            if best_key is not None and a_w + b_w > best_key[0]:
                break
            if node_mode:
                if a_node_set & b_node_set:
                    continue
            elif a_edge_set & b_edge_set:
                continue
            if (a_w, a_nodes) <= (b_w, b_nodes):
                key = (a_w + b_w, a_w, a_nodes, b_nodes)
                pair = (a_route, b_route)
            else:
                key = (a_w + b_w, b_w, b_nodes, a_nodes)
                pair = (b_route, a_route)
            if best_key is None or key < best_key:
                best_key = key
                best = pair
    if best is None:
        return None
    return tuple(Path(nodes, eids, w, (w,)) for nodes, eids, w in best)  # type: ignore[return-value]


def abridge(gg: GadgetGraph, pair: tuple[Path, Path]) -> DisjointPair:
    """Shrink a gadget solution back onto the original graph.

    Strips the dummy edges at both ends of each path and rereads the
    surviving edges, which kept their original ids, as an s-t path. A
    dummy edge anywhere else means the input was not a legal terminal
    path and is rejected.
    """
    s1, s2, t1, t2 = gg.terminals
    originals: list[Path] = []
    for path in pair:
        if path.nodes[0] not in (s1, s2) or path.nodes[-1] not in (t1, t2):
            raise GraphError("gadget path must run terminal to terminal")
        if any(v in (s1, s2, t1, t2) for v in path.nodes[1:-1]):
            raise GraphError("gadget path visits a terminal as an intermediate node")
        for eid in path.edges[1:-1]:
            if eid in gg.dummy_edges:
                raise GraphError(f"dummy edge {eid} used away from a terminal")
        kept = [eid for eid in path.edges if eid not in gg.dummy_edges]
        originals.append(trace_path(gg.source_graph, gg.layout, kept, gg.source))
    first, second = originals
    if first.dest != gg.dest or second.dest != gg.dest:
        raise GraphError("abridged path does not end at the destination")
    return DisjointPair(first, second, gg.mode)


def two_disjoint_shortest(
    g: Graph,
    s: int,
    t: int,
    mode: str,
    objective: str = OBJECTIVE_MIN_TOTAL,
    node_bound: int = DEFAULT_SOLVER_BOUND,
) -> DisjointPair | None:
    """End-to-end disjoint-pair pipeline; None when no disjoint pair exists.

    Packs the criteria, builds the mode's gadget, records the rigidity
    probe, solves the two-pair instance, and shrinks the answer back to
    the input graph.
    """
    if mode not in (MODE_EDGE, MODE_NODE):
        raise GraphError(f"unknown disjointness mode {mode!r}")
    layout = compute_layout(g)
    builder = build_edge_disjoint_gadget if mode == MODE_EDGE else build_node_disjoint_gadget
    gadget = builder(g, layout, s, t)
    # The exhaustive solver has no rigidity precondition; the probe runs
    # for pipeline parity and is exercised directly by the test suite.
    check_not_rigid(gadget)
    solution = solve_2dsp_exhaustive(gadget, objective, node_bound)
    if solution is None:
        return None
    result = abridge(gadget, solution)
    if mode == MODE_NODE:
        if set(result.first.nodes) & set(result.second.nodes) != {s, t}:
            raise InvariantError("node-disjoint result shares interior nodes")
    elif set(result.first.edges) & set(result.second.edges):
        raise InvariantError("edge-disjoint result shares an edge")
    return result
