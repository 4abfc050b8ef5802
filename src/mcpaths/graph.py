"""Core graph container shared by all routing algorithms.

Nodes are dense integer ids in [0, node_count). Every edge carries a
vector of q non-negative integer weights, one per criterion, ordered by
descending priority (position 0 is the most important criterion).

Undirected edges are stored once and exposed as two directed arcs that
share a single edge id, so disjointness checks treat both directions as
the same physical link. Graphs are immutable after construction and safe
to share across concurrent queries.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

__all__ = [
    "Edge",
    "Graph",
    "GraphError",
    "InvariantError",
    "NoPathError",
    "build_graph",
    "check_endpoints",
    "reverse",
]


class GraphError(ValueError):
    """Rejected input: malformed graph, edge, or query parameter."""


class NoPathError(Exception):
    """No path exists between the queried endpoints."""


class InvariantError(RuntimeError):
    """An internal invariant failed: a bug in mcpaths, not bad input.

    Raised explicitly rather than through ``assert`` so the checks still
    run under ``python -O``.
    """


@dataclass(frozen=True, slots=True)
class Edge:
    """One weighted link; (u, v) is the stored orientation."""

    u: int
    v: int
    weights: tuple[int, ...]
    eid: int

    def other(self, node: int) -> int:
        return self.v if node == self.u else self.u


def _edge_error(e: Edge, reason: str) -> GraphError:
    return GraphError(f"edge {e.eid} ({e.u}, {e.v}): {reason}")


class Graph:
    """Adjacency-list graph over integer node ids.

    Adjacency is exposed as ``out_arcs``/``in_arcs`` lists of
    ``(neighbor, edge_id)`` pairs sorted by neighbor id, which keeps every
    traversal in this package deterministic regardless of edge insertion
    order. For undirected graphs the two views are identical.
    """

    __slots__ = ("directed", "node_count", "q", "edges", "_adj", "_radj", "_by_id")

    def __init__(self, directed: bool, node_count: int, q: int, edges: Sequence[Edge]):
        if node_count < 0:
            raise GraphError(f"node_count must be >= 0, got {node_count}")
        if q < 1:
            raise GraphError(f"criterion count must be >= 1, got {q}")
        self.directed = bool(directed)
        self.node_count = node_count
        self.q = q
        self.edges: tuple[Edge, ...] = tuple(edges)

        by_id: dict[int, Edge] = {}
        seen_pairs: set[tuple[int, int]] = set()
        adj: list[list[tuple[int, int]]] = [[] for _ in range(node_count)]
        radj: list[list[tuple[int, int]]] = [[] for _ in range(node_count)] if directed else adj

        for e in self.edges:
            u, v, eid = e.u, e.v, e.eid
            if not (0 <= u < node_count and 0 <= v < node_count):
                raise _edge_error(e, f"endpoint out of range [0, {node_count})")
            if u == v:
                raise _edge_error(e, "self-loops are not allowed")
            if len(e.weights) != q:
                raise _edge_error(e, f"expected {q} weights, got {len(e.weights)}")
            if min(e.weights) < 0:
                raise _edge_error(e, "negative weight")
            key = (u, v) if directed or u < v else (v, u)
            if key in seen_pairs:
                raise _edge_error(e, "parallel edge")
            seen_pairs.add(key)
            if eid in by_id:
                raise _edge_error(e, "duplicate edge id")
            by_id[eid] = e
            adj[u].append((v, eid))
            radj[v].append((u, eid))

        self._by_id = by_id
        self._adj = tuple(tuple(sorted(arcs)) for arcs in adj)
        self._radj = self._adj if not directed else tuple(tuple(sorted(arcs)) for arcs in radj)

    def out_arcs(self, u: int) -> tuple[tuple[int, int], ...]:
        """Arcs leaving ``u`` as (neighbor, edge_id), sorted by neighbor."""
        return self._adj[u]

    def in_arcs(self, u: int) -> tuple[tuple[int, int], ...]:
        """Arcs entering ``u``; identical to ``out_arcs`` when undirected."""
        return self._radj[u]

    def edge(self, eid: int) -> Edge:
        return self._by_id[eid]

    def has_node(self, u: int) -> bool:
        return 0 <= u < self.node_count

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def next_edge_id(self) -> int:
        """Smallest id strictly above every existing edge id."""
        return max(self._by_id, default=-1) + 1

    def __repr__(self) -> str:
        kind = "directed" if self.directed else "undirected"
        return f"Graph({kind}, nodes={self.node_count}, edges={self.edge_count}, q={self.q})"


def check_endpoints(g: Graph, **nodes: int) -> None:
    """Reject query endpoints outside the graph, named by their keyword.

    ``check_endpoints(g, source=s, dest=t)`` checks ``s`` before ``t``.
    """
    for name, node in nodes.items():
        if not g.has_node(node):
            raise GraphError(f"{name} {node} out of range [0, {g.node_count})")


def build_graph(
    directed: bool,
    node_count: int,
    q: int,
    edge_list: Iterable[tuple[int, int, Sequence[int]]],
) -> Graph:
    """Validate and assemble a graph from (u, v, weights) triples.

    Edge ids are assigned in input order starting at 0. Rejects
    endpoints and weights that are not ``int`` (so ``bool``, ``float`` and
    ``str`` too), self-loops, parallel edges, wrong-length weight vectors,
    and negative weights, naming the offending edge in the diagnostic.
    """
    edges = []
    for eid, (u, v, weights) in enumerate(edge_list):
        e = Edge(u, v, tuple(weights), eid)
        bad = next((x for x in (u, v, *e.weights) if type(x) is not int), None)
        if bad is not None:
            raise _edge_error(e, f"endpoints and weights must be int, got {bad!r}")
        edges.append(e)
    return Graph(directed, node_count, q, edges)


def reverse(g: Graph) -> Graph:
    """Flip every arc of a directed graph, keeping weights and edge ids."""
    if not g.directed:
        raise GraphError("reverse() requires a directed graph")
    flipped = [Edge(e.v, e.u, e.weights, e.eid) for e in g.edges]
    return Graph(True, g.node_count, g.q, flipped)
