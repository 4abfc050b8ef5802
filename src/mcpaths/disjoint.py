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
interface so a polynomial algorithm can replace it later. It answers what
the oracle checks, inputs of at most 12 nodes and 100,000 s-t paths, and
refuses the rest with ``SolverBoundError``. Both gadgets treat s1 like s2
and t1 like t2 (same neighbours, dummy edges of equal weight), so the
solver enumerates the s1-t1 routes once and reads every s2-t2 route as
the mirror of one of them. Routes through the other pair's terminal
never pair with anything and are masked out of the enumeration. When
both paths must each be shortest, so is every edge outside the
shortest s1-t1 subgraph, ``tight_subgraph``. Routes are id tuples, and
only the answer's two become ``Path``s.

One assembler builds both gadgets: it numbers the terminals after every
other gadget node, appends the dummy edges right after the input's own
edge ids, and packs the weights into one criterion. The node gadget's
nodes come from one ordered list of keys, an interior node standing for
itself and a split node for the (end, other end) of the edge it carries;
every original edge is re-anchored by the one rule of orienting it s
side first and t side last and looking both ends up by key.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice

from .dijkstra import Path, packed_weights, shortest_distances, tight_subgraph, trace_path
from .graph import Graph, GraphError, InvariantError, check_endpoints
from .lexweight import compute_layout
from .oracle import DEFAULT_NODE_BOUND, VERIFY_PATH_CAP, simple_routes

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


class SolverBoundError(GraphError):
    """Instance past the exhaustive solver's bounds, which are the oracle's:
    more than 12 input nodes (``DEFAULT_NODE_BOUND``) or 100,000 routes."""


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


def _assemble(g: Graph, s: int, t: int, mode: str, origin: dict[int, int], tails: list[int | None],
              heads: list[int | None], attach: list[tuple[int, int]], dummy_weight: int) -> GadgetGraph:
    """The gadget over ``g``'s edges re-anchored at ``tails``/``heads``.

    ``origin`` maps each gadget node other than the terminals to the
    original node it stands for, and the terminals s1, s2, t1, t2 are
    numbered right after them. Each ``(end, x)`` in ``attach`` adds two
    dummy edges, s1-x and s2-x when ``end`` is s, x-t1 and x-t2 when it
    is t, numbered in that order right after ``g``'s own edge ids.
    """
    n = len(origin)
    s1, s2, t1, t2 = n, n + 1, n + 2, n + 3
    base = len(tails)
    for end, x in attach:
        tails += (s1, s2) if end == s else (x, x)
        heads += (x, x) if end == s else (t1, t2)
    weights = packed_weights(g, compute_layout(g)) + (dummy_weight,) * (len(tails) - base)
    return GadgetGraph(
        graph=Graph(False, n + 4, 1, tails, heads, [weights]),
        terminals=(s1, s2, t1, t2),
        dummy_edges=frozenset(range(base, len(tails))),
        node_origin=origin,
        mode=mode,
        source_graph=g,
        source=s,
        dest=t,
    )


def build_edge_disjoint_gadget(g: Graph, s: int, t: int) -> GadgetGraph:
    """Attach pendant terminals through zero-weight dummy edges."""
    _require_undirected_query(g, s, t)
    origin = {v: v for v in range(g.node_count)}
    return _assemble(g, s, t, MODE_EDGE, origin, list(g.tails), list(g.heads), [(s, s), (t, t)], 0)


def build_node_disjoint_gadget(g: Graph, s: int, t: int) -> GadgetGraph:
    """Split the endpoints so node-disjointness becomes checkable at terminals.

    Original s and t disappear; each neighbour v of s gets a split node
    s_v carrying the re-anchored edge (s_v, v), and both sources attach to
    every split node with a weight-1 dummy. The destination side mirrors
    this, and a direct (s, t) edge turns into (s', t') with dummies on
    both sides. Interior nodes and surviving edges keep their identity.
    """
    _require_undirected_query(g, s, t)
    # One key per gadget node: (v, v) for an interior node v, and
    # (end, other end) for the split node that carries an edge at s or t.
    # Numbered in this order: interiors, s's splits, s' and t', t's splits.
    direct = [(s, t), (t, s)] if any(v == t for v, _ in g.out_arcs(s)) else []
    splits = (
        [(s, v) for v, _ in g.out_arcs(s) if v != t]
        + direct
        + [(t, v) for v, _ in g.out_arcs(t) if v != s]
    )
    keys = [(v, v) for v in range(g.node_count) if v not in (s, t)] + splits
    number = {key: i for i, key in enumerate(keys)}
    tails, heads = list(g.tails), list(g.heads)
    for eid in g.ids:
        a, b = tails[eid], heads[eid]
        if a == t or b == s:  # s side first, t side last
            a, b = b, a
        tails[eid] = number[(a, b) if a == s else (a, a)]
        heads[eid] = number[(b, a) if b == t else (b, b)]
    # Each side's dummies in split order, the (s', t') pair's last.
    attach = [(end, number[end, v]) for end, v in sorted(splits, key=lambda k: (k[0] == t, k in direct))]
    origin = {i: key[0] for i, key in enumerate(keys)}
    return _assemble(g, s, t, MODE_NODE, origin, tails, heads, attach, 1)


def check_not_rigid(gg: GadgetGraph) -> bool:
    """True unless each terminal pair lies on the other pair's shortest paths.

    L(x, y), the nodes on at least one shortest x-y path, is the node set
    of ``tight_subgraph`` over a search from x cut at y. Disconnected
    terminal pairs have empty L-sets and are never rigid.
    ``two_disjoint_shortest`` does not call it: the exhaustive solver has
    no rigidity precondition.
    """
    g = gg.graph
    weights = g.weights[0]
    s1, s2, t1, t2 = gg.terminals

    def l_set_contains(x: int, y: int, members: set[int]) -> bool:
        dist, _ = shortest_distances(g, weights, x, target=y)
        return dist[y] is not None and members <= tight_subgraph(g, weights, dist, y)[0]

    return not (l_set_contains(s2, t2, {s1, t1}) and l_set_contains(s1, t1, {s2, t2}))


def solve_2dsp_exhaustive(gg: GadgetGraph, objective: str = OBJECTIVE_MIN_TOTAL) -> tuple[Path, Path] | None:
    """Best disjoint terminal pair by full enumeration, or None.

    Refuses an input above ``DEFAULT_NODE_BOUND`` nodes before listing a
    route, and an enumeration of more than ``VERIFY_PATH_CAP`` routes (one
    per input s-t path): past either, ``--verify`` cannot check the answer.

    Both gadgets treat s1 like s2 and t1 like t2, so the s2-t2 routes are
    the s1-t1 routes with the terminals swapped, and one enumeration
    serves both pairs: the answer is an s1-t1 route and the mirror of
    another. A route through s2 or t2 (only node gadgets have them) shares
    a terminal with every partner and weighs at least 2 more than the
    route it shortcuts, so the enumeration masks both out. Every listed
    route carries the same dummy weight, so gadget weights order routes
    as their originals: a route scores its edges' sum on the packed
    column. The walk, ``simple_routes``, steps only into t1 once every
    in-neighbour of t1 is on the route, so no edge-gadget branch passes t.

    Disjointness follows the gadget's mode: node-disjoint pairs share no
    node at all, edge-disjoint pairs no edge id. With ``each-shortest``
    both paths must individually be shortest between their terminals;
    ``min-total`` minimizes the summed weight. Ties resolve by the pair's
    weights and original-graph node sequences, smaller path first, so the
    answer is unique and matches the exhaustive oracle's order.

    ``each-shortest`` enumerates only routes over the ``tight_subgraph``
    of one search from s1 cut at t1, with s2 and t2 banned: every edge on
    no shortest s1-t1 path is banned. A route may still cross a kept edge
    against its tight direction, so only the lightest routes are kept.
    ``min-total`` enumerates every route.
    """
    if objective not in (OBJECTIVE_EACH_SHORTEST, OBJECTIVE_MIN_TOTAL):
        raise GraphError(f"unknown objective {objective!r}")
    n = gg.source_graph.node_count
    if n > DEFAULT_NODE_BOUND:
        raise SolverBoundError(f"exhaustive solver bound exceeded: {n} nodes > {DEFAULT_NODE_BOUND}")
    s1, s2, t1, t2 = gg.terminals
    g = gg.graph
    weights = g.weights[0]
    banned: set[int] = set()
    if objective == OBJECTIVE_EACH_SHORTEST:
        d, _ = shortest_distances(g, weights, s1, banned_nodes={s2, t2}, target=t1)
        if d[t1] is None:
            return None
        banned = set(g.ids).difference(tight_subgraph(g, weights, d, t1)[1])
    listed = list(islice(simple_routes(g, s1, t1, {s2, t2}, banned), VERIFY_PATH_CAP + 1))
    if len(listed) > VERIFY_PATH_CAP:
        raise SolverBoundError(f"exhaustive solver bound exceeded: more than {VERIFY_PATH_CAP} routes")
    # (gadget weight, original node sequence, nodes, edges): without parallel
    # edges the sequence names the route, so the sort never compares the rest.
    origin = gg.node_origin.__getitem__
    routes = sorted((sum(map(weights.__getitem__, edges)), tuple(map(origin, nodes[1:-1])), nodes, edges)
                    for nodes, edges in listed)
    if objective == OBJECTIVE_EACH_SHORTEST:
        routes = [r for r in routes if r[0] == routes[0][0]]
    node_mode = gg.mode == MODE_NODE
    # A mirror keeps its original's interior, and the end terminals differ.
    interiors = [frozenset(nodes[1:-1] if node_mode else edges[1:-1]) for _, _, nodes, edges in routes]
    best = None
    best_key = None
    for i, (w_i, nodes_i, _, _) in enumerate(routes[:-1]):
        # routes sort by (weight, nodes), so a later pair that ties the
        # incumbent total has a larger key; once even the next route cannot
        # beat that total, no later pair can either
        if best_key is not None and w_i + routes[i + 1][0] >= best_key[0]:
            break
        for j in range(i + 1, len(routes)):
            w_j, nodes_j, _, _ = routes[j]
            if best_key is not None and w_i + w_j >= best_key[0]:
                break
            if interiors[i] & interiors[j]:
                continue
            key = (w_i + w_j, w_i, nodes_i, nodes_j)
            if best_key is None or key < best_key:
                best_key = key
                best = (i, j)
            break  # later partners of route i come in key order
    if best is None:
        return None
    (_, _, _, first), (_, _, nodes, edges) = routes[best[0]], routes[best[1]]
    # The mirror's end dummies are the twins at s2 and t2 of the route's.
    start = next(eid for v, eid in g.out_arcs(s2) if v == nodes[1])
    end = next(eid for v, eid in g.out_arcs(t2) if v == nodes[-2])
    layout = compute_layout(g)
    return trace_path(g, layout, first, s1), trace_path(g, layout, (start, *edges[1:-1], end), s2)


def abridge(gg: GadgetGraph, pair: tuple[Path, Path]) -> DisjointPair:
    """Shrink a gadget solution back onto the original graph.

    Strips the dummy edges at both ends of each path and rereads the
    surviving edges, which kept their original ids, as an s-t path. A
    dummy edge anywhere else means the input was not a legal terminal
    path and is rejected.
    """
    s1, s2, t1, t2 = gg.terminals
    layout = compute_layout(gg.source_graph)
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
        originals.append(trace_path(gg.source_graph, layout, kept, gg.source))
    first, second = originals
    if first.dest != gg.dest or second.dest != gg.dest:
        raise GraphError("abridged path does not end at the destination")
    return DisjointPair(first, second, gg.mode)


def two_disjoint_shortest(
    g: Graph, s: int, t: int, mode: str, objective: str = OBJECTIVE_MIN_TOTAL
) -> DisjointPair | None:
    """End-to-end disjoint-pair pipeline; None when no disjoint pair exists.

    Packs the criteria, builds the mode's gadget, solves the two-pair
    instance, and shrinks the answer back to the input graph. Raises
    ``SolverBoundError`` past the solver's bounds.
    """
    if mode not in (MODE_EDGE, MODE_NODE):
        raise GraphError(f"unknown disjointness mode {mode!r}")
    if objective not in (OBJECTIVE_EACH_SHORTEST, OBJECTIVE_MIN_TOTAL):
        raise GraphError(f"unknown objective {objective!r}")
    builder = build_edge_disjoint_gadget if mode == MODE_EDGE else build_node_disjoint_gadget
    gadget = builder(g, s, t)
    solution = solve_2dsp_exhaustive(gadget, objective)
    if solution is None:
        return None
    result = abridge(gadget, solution)
    if mode == MODE_NODE:
        if set(result.first.nodes) & set(result.second.nodes) != {s, t}:
            raise InvariantError("node-disjoint result shares interior nodes")
    elif set(result.first.edges) & set(result.second.edges):
        raise InvariantError("edge-disjoint result shares an edge")
    return result
