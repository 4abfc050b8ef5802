"""Core graph container shared by all routing algorithms.

Nodes are dense integer ids in [0, node_count). Every edge carries a
vector of q non-negative integer weights, one per criterion, ordered by
descending priority (position 0 is the most important criterion).

A graph stores its edges as columns indexed by edge id: the tails, the
heads, and one weight column per criterion, each holding None at ids no
edge carries. Queries read only these columns and the adjacency.
An ``Edge`` is a view of one id across the columns, made only when a
caller asks for one (``g.edge(eid)``, ``g.edges``); no query does.

Undirected edges are stored once and exposed as two directed arcs that
share a single edge id, so disjointness checks treat both directions as
the same physical link. Graphs are immutable after construction and safe
to share across concurrent queries. The one thing a graph fills in later
is its store of values derived from it alone, such as packed weight
columns, sorted arc views and the ``edges`` tuple: each is computed on
the first call that reads it and read-only from then on.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, compress, repeat
from operator import attrgetter, eq, is_not, itemgetter
from typing import Callable, Hashable, Iterable, Mapping, Sequence, TypeVar

__all__ = [
    "Edge",
    "Graph",
    "GraphError",
    "InvariantError",
    "NoPathError",
    "build_graph",
    "check_endpoints",
    "check_k",
    "reverse",
]

T = TypeVar("T")


class GraphError(ValueError):
    """Rejected input: malformed graph, edge, or query parameter."""

    # The faulty edge's position among the edges checked, when one edge is
    # at fault: the parser reads the edge's line from it.
    _edge_index: int | None = None


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


def _first_fault(directed: bool, node_count: int, q: int, rows: Iterable[tuple]) -> GraphError | None:
    """The error naming the first faulty edge among ``(eid, u, v, weights)`` rows, or None.

    ``node_count`` and ``q`` come first, each checked for a type other
    than ``int``, then for its range. Each edge is checked for, in order:
    its id, endpoints and weights that are not ``int``, its endpoints'
    range, a self-loop, its weight count, a negative weight, a parallel
    edge met earlier, and a repeated id.
    """
    for name, value, least in (("node_count", node_count, 0), ("criterion count", q, 1)):
        if type(value) is not int:
            return GraphError(f"{name} must be an int, got {value!r}")
        if value < least:
            return GraphError(f"{name} must be >= {least}, got {value}")
    seen_pairs: set[tuple[int, int]] = set()
    seen_ids: set[int] = set()
    for index, (eid, u, v, weights) in enumerate(rows):
        if type(eid) is not int or eid < 0:
            reason = "edge id must be a non-negative int"
        elif bad := [x for x in (u, v, *weights) if type(x) is not int]:
            reason = f"endpoints and weights must be int, got {bad[0]!r}"
        elif not (0 <= u < node_count and 0 <= v < node_count):
            reason = f"endpoint out of range [0, {node_count})"
        elif u == v:
            reason = "self-loops are not allowed"
        elif len(weights) != q:
            reason = f"expected {q} weights, got {len(weights)}"
        elif min(weights) < 0:
            reason = "negative weight"
        elif (key := (u, v) if directed or u < v else (v, u)) in seen_pairs:
            reason = "parallel edge"
        elif eid in seen_ids:
            reason = "duplicate edge id"
        else:
            seen_pairs.add(key)
            seen_ids.add(eid)
            continue
        fault = GraphError(f"edge {eid} ({u}, {v}): {reason}")
        fault._edge_index = index
        return fault
    return None


class Graph:
    """Adjacency-list graph over integer node ids, its edges held in columns.

    ``tails[eid]`` and ``heads[eid]`` are the stored orientation of edge
    ``eid`` and ``weights[i][eid]`` its weight under criterion i; every
    column is a tuple of length ``len(tails)`` with None at ids no
    edge carries. ``ids`` lists the ids that carry an edge, in id order.
    Edge ids are non-negative ``int``s, so the columns' memory grows with
    the largest id rather than with the edge count. The parser and
    ``build_graph`` number edges from 0, and the graphs mcpaths derives
    (threshold copies, gadgets) keep those ids and number any new edges
    right after them.

    The adjacency is filled in one pass over the edges in id order, with
    no per-arc pair and no sort: each node gets a dict from neighbour to
    edge id (out- and in-maps apart when directed), whose order is edge-id
    order, and a node with no arc holds one shared empty map. Holding
    only ints, the dicts are not tracked by the garbage collector.
    ``adjacency`` hands these maps to searches whose result does not
    depend on arc order. Walks that do depend on it read ``out_arcs``:
    ``(neighbor, edge_id)`` pairs sorted by neighbor id, each view built
    on the first call for its node and stored under the first-writer
    rule of ``derived``.

    The constructor rejects a ``node_count`` or ``q`` that is not an
    ``int`` first, then validates the columns in bulk, value types
    included; only when a check fails are the edges walked one by one,
    in id order, to name the first faulty one. Callers whose values are
    ints by construction pass ``_ints=True`` to skip the type screen:
    the parser, the 2dsp gadget and ``Graph.from_edges``, which builds
    a graph from ``Edge`` objects and screens them itself.
    """

    __slots__ = ("directed", "node_count", "q", "tails", "heads", "weights", "ids",
                 "_out", "_in", "_out_views", "_derived")

    def __init__(self, directed: bool, node_count: int, q: int, tails: Sequence[int | None],
                 heads: Sequence[int | None], weights: Sequence[Sequence[int | None]], *,
                 _ints: bool = False):
        if type(node_count) is not int or type(q) is not int:
            raise _first_fault(directed, node_count, q, ())
        self.directed = directed = bool(directed)
        self.node_count = node_count
        self.q = q
        tails, heads, weights = tuple(tails), tuple(heads), tuple(map(tuple, weights))
        if len(heads) != len(tails) or any(len(column) != len(tails) for column in weights):
            raise GraphError(f"columns differ in length: {len(tails)} tails, {len(heads)} heads, "
                             f"weight columns of {list(map(len, weights))}")
        if None in tails:
            ids = tuple(compress(range(len(tails)), map(is_not, tails, repeat(None))))
            size = ids[-1] + 1 if ids else 0
            tails, heads, weights = tails[:size], heads[:size], tuple(c[:size] for c in weights)
        else:
            ids = range(len(tails))
        self.tails, self.heads, self.weights, self.ids = tails, heads, weights, ids
        us, vs = self.present(tails), self.present(heads)

        valid = node_count >= 0 and q >= 1 and len(weights) == q
        if valid and ids and not _ints:
            valid = {*map(type, chain(us, vs, *map(self.present, weights)))} <= {int}
        if valid and ids:
            valid = (
                min(us) >= 0 and min(vs) >= 0 and max(us) < node_count and max(vs) < node_count
                and not any(map(eq, us, vs))
                and all(min(self.present(c)) >= 0 for c in weights)
            )
        if valid:
            no_arcs: dict[int, int] = {}  # shared by every node without arcs
            out = [no_arcs] * node_count
            into = [no_arcs] * node_count if directed else out
            for u in set(us):
                out[u] = {}
            for v in set(vs):
                into[v] = {}
            for eid, u, v in zip(ids, us, vs):
                out[u][v] = eid
                into[v][u] = eid
            # A parallel edge overwrites its twin's entry instead of adding one.
            valid = sum(map(len, out)) == len(ids) * (1 if directed else 2)
        if not valid:
            rows = zip(ids, us, vs, zip(*map(self.present, weights)))
            raise _first_fault(directed, node_count, q, rows) or InvariantError(
                "a bulk edge check failed, but no edge is at fault")
        self._out, self._in = out, into
        self._out_views: dict[int, tuple[tuple[int, int], ...]] = {}
        self._derived: dict[Hashable, object] = {}

    @classmethod
    def from_edges(cls, directed: bool, node_count: int, q: int, edges: Iterable[Edge]) -> Graph:
        """The graph of ``edges``, each stored at its own id.

        Ids (distinct non-negative ``int``s), value types (``int``) and
        weight counts are screened in bulk and the constructor checks the
        rest; only when either fails are the edges walked one by one, in
        list order, to name the first faulty one.
        """
        edges = list(edges)
        eids, us, vs, ws = (list(map(attrgetter(name), edges)) for name in ("eid", "u", "v", "weights"))
        if (set(map(type, chain(eids, us, vs, chain.from_iterable(ws)))) <= {int}
                and min(eids, default=0) >= 0 and len(set(eids)) == len(eids)
                and type(q) is int and set(map(len, ws)) <= {q}):
            columns = [us, vs, *(tuple(map(itemgetter(i), ws)) for i in range(q))]
            if eids != list(range(len(eids))):
                columns = [list(map(dict(zip(eids, c)).get, range(max(eids) + 1))) for c in columns]
            try:
                return cls(directed, node_count, q, columns[0], columns[1], columns[2:], _ints=True)
            except GraphError:
                pass
        raise _first_fault(directed, node_count, q, zip(eids, us, vs, ws)) or InvariantError(
            "a bulk edge check failed, but no edge is at fault")

    def present(self, column: Sequence[T | None]) -> Sequence[T]:
        """An id-indexed column's values at ``ids``, in id order."""
        return column if type(self.ids) is range else list(map(column.__getitem__, self.ids))

    def column(self, values: Iterable[T]) -> tuple[T | None, ...]:
        """Values given for ``ids`` in id order, as a column indexed by edge id."""
        if type(self.ids) is range:
            return tuple(values)
        column: list[T | None] = [None] * len(self.tails)
        for eid, value in zip(self.ids, values):
            column[eid] = value
        return tuple(column)

    def adjacency(self, incoming: bool = False) -> Sequence[Mapping[int, int]]:
        """Per node, a map from each neighbour to the joining edge's id, in edge-id order.

        Arcs leave the node, or enter it with ``incoming=True``. The maps
        are the graph's own and must not be mutated.
        """
        return self._in if incoming else self._out

    def out_arcs(self, u: int) -> tuple[tuple[int, int], ...]:
        """Arcs leaving ``u`` as (neighbor, edge_id), sorted by neighbor."""
        try:
            return self._out_views[u]
        except KeyError:
            return self._out_views.setdefault(u, tuple(sorted(self._out[u].items())))

    def edge(self, eid: int) -> Edge:
        """A view of edge ``eid``, made from the columns on each call;
        KeyError if no edge has that id."""
        if not 0 <= eid < len(self.tails) or self.tails[eid] is None:
            raise KeyError(eid)
        return Edge(self.tails[eid], self.heads[eid], tuple(c[eid] for c in self.weights), eid)

    @property
    def edges(self) -> tuple[Edge, ...]:
        """Every edge in id order; the views are made on first use and stored."""
        return self.derived("edges", lambda g: tuple(map(g.edge, g.ids)))

    @property
    def edge_count(self) -> int:
        return len(self.ids)

    def derived(self, key: Hashable, build: Callable[[Graph], T]) -> T:
        """The value ``build(self)`` stored under ``key``, built on first use.

        Only values that depend on this graph alone belong here, never
        anything keyed by a query. Stored values are shared by every
        caller and must not be mutated. Two threads that fill one key at
        once both build it, and ``setdefault`` hands both the value that
        was stored first, so no lock is needed.
        """
        try:
            return self._derived[key]  # type: ignore[return-value]
        except KeyError:
            return self._derived.setdefault(key, build(self))  # type: ignore[return-value]

    def __repr__(self) -> str:
        kind = "directed" if self.directed else "undirected"
        return f"Graph({kind}, nodes={self.node_count}, edges={self.edge_count}, q={self.q})"


def check_endpoints(g: Graph, **nodes: int) -> None:
    """Reject query endpoints that are not an ``int`` (``bool`` is not one)
    or lie outside the graph, named by their keyword.

    ``check_endpoints(g, source=s, dest=t)`` checks ``s`` before ``t``.
    """
    for name, node in nodes.items():
        if type(node) is not int:
            raise GraphError(f"{name} must be an int, got {node!r}")
        if not 0 <= node < g.node_count:
            raise GraphError(f"{name} {node} out of range [0, {g.node_count})")


def check_k(k: int) -> None:
    """Reject a path count that is not an ``int`` (``bool`` is not one) or is below 1."""
    if type(k) is not int:
        raise GraphError(f"k must be an int, got {k!r}")
    if k < 1:
        raise GraphError(f"k must be >= 1, got {k}")


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
    edges = [Edge(u, v, tuple(weights), eid) for eid, (u, v, weights) in enumerate(edge_list)]
    return Graph.from_edges(directed, node_count, q, edges)


def reverse(g: Graph) -> Graph:
    """Flip every arc of a directed graph, keeping weights and edge ids."""
    if not g.directed:
        raise GraphError("reverse() requires a directed graph")
    return Graph(True, g.node_count, g.q, g.heads, g.tails, g.weights)
