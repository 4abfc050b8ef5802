"""One pinned hash over both disjoint-pair gadgets of seeded graphs.

Each graph is undirected with 2 to 12 nodes, q from 1 to 3, zero weights
and ties; each edge is stored in a random orientation, and some graphs
leave holes among their edge ids. For every graph the hash takes, for the
edge gadget and the node gadget of one random (s, t) pair, the gadget's
columns (``tails``, ``heads``, ``weights``), its ``ids``, terminals,
sorted dummy ids and ``node_origin``. A rewrite of the gadget builders
meant to leave every gadget alone must leave ``GADGETS_SHA256`` alone.
"""

import hashlib
import random

from mcpaths import Edge, Graph
from mcpaths.disjoint import build_edge_disjoint_gadget, build_node_disjoint_gadget

SEED = 20261020
GRAPHS = 300
GADGETS_SHA256 = "4bb0b856510b05cd6afb056967550c363c4e9f21a7ce767136a2a909d1f75ea8"


def _graph(rng: random.Random) -> tuple[Graph, int, int]:
    n = rng.randint(2, 12)
    q = rng.randint(1, 3)
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    chosen = rng.sample(pairs, rng.randint(0, min(len(pairs), 3 * n)))
    # Half the graphs number their edges with gaps between ids.
    ids = sorted(rng.sample(range(2 * len(chosen)), len(chosen))) if rng.random() < 0.5 else range(len(chosen))
    edges = [
        Edge(*((u, v) if rng.random() < 0.5 else (v, u)), tuple(rng.randint(0, 3) for _ in range(q)), eid)
        for (u, v), eid in zip(chosen, ids)
    ]
    s, t = rng.sample(range(n), 2)
    return Graph.from_edges(False, n, q, edges), s, t


def test_gadget_columns_hash_is_pinned():
    rng = random.Random(SEED)
    digest = hashlib.sha256()
    for i in range(GRAPHS):
        g, s, t = _graph(rng)
        for build in (build_edge_disjoint_gadget, build_node_disjoint_gadget):
            gg = build(g, s, t)
            text = (
                f"{i} {gg.mode} {gg.graph.node_count}\n{gg.graph.tails}\n{gg.graph.heads}\n"
                f"{gg.graph.weights}\n{tuple(gg.graph.ids)}\n{gg.terminals}\n"
                f"{sorted(gg.dummy_edges)}\n{sorted(gg.node_origin.items())}\n\0"
            )
            digest.update(text.encode())
    assert digest.hexdigest() == GADGETS_SHA256
