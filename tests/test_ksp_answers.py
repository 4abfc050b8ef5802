"""One pinned hash over a fixed, seeded set of k-shortest-path and
k-disjoint all-criteria answers.

Random ``build_graph`` graphs of 2 to 12 nodes, directed and undirected,
q from 1 to 3, with 0 to 100 % all-zero edges and ties. Each graph gets
three ``yen_ksp`` queries, k from 1 to 40, under no threshold, threshold
1 (only all-zero edges survive) and the median packed weight plus one;
the hash takes every returned path's nodes, edges and packed length and
the ``exhausted`` flag. Each directed graph also gets one
``k_disjoint_all_criteria`` query, hashed as its paths' edge ids or the
class of the error it raises. A change meant to leave every answer alone
must leave ``ANSWERS_SHA256`` alone; a change that alters answers on
purpose recomputes it and says why.
"""

import hashlib
import random

from mcpaths import (
    InfeasibleError,
    NoPathError,
    TooFewPathsError,
    build_graph,
    compute_layout,
    k_disjoint_all_criteria,
    yen_ksp,
)
from mcpaths.dijkstra import packed_weights

SEED = 20261020
GRAPHS = 300
ANSWERS = 1059
ANSWERS_SHA256 = "9715131721a242d7ca9272c37eb6a2a5a334a98afc61d32e975dfedf3d902b86"


def _graph(rng: random.Random):
    directed = rng.random() < 0.5
    n = rng.randint(2, 12)
    q = rng.randint(1, 3)
    if directed:
        pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
    else:
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    m = min(len(pairs), rng.randint(n - 1, 3 * n))
    zero_share = rng.choice((0.0, 0.1, 0.3, 0.7, 1.0))
    triples = [
        (u, v, (0,) * q if rng.random() < zero_share else tuple(rng.randint(0, 4) for _ in range(q)))
        for u, v in rng.sample(pairs, m)
    ]
    s, t = rng.sample(range(n), 2)
    return build_graph(directed, n, q, triples), s, t


def test_ksp_answers_hash_is_pinned():
    rng = random.Random(SEED)
    digest = hashlib.sha256()
    count = 0
    for i in range(GRAPHS):
        g, s, t = _graph(rng)
        layout = compute_layout(g)
        packed = sorted(w for w in packed_weights(g, layout) if w is not None)
        median = packed[len(packed) // 2] + 1 if packed else None
        for threshold in (None, 1, median):
            k = rng.randint(1, 40)
            result = yen_ksp(g, layout, s, t, k, threshold)
            paths = " | ".join(f"{p.nodes} {p.edges} {p.ew_length}" for p in result.paths)
            digest.update(f"{i} ksp {k} {threshold}\n{paths}\n{result.exhausted}\n\0".encode())
            count += 1
        if g.directed:
            k = rng.randint(1, 4)
            try:
                answer = " | ".join(str(p.edges) for p in k_disjoint_all_criteria(g, s, t, k))
            except (InfeasibleError, NoPathError, TooFewPathsError) as exc:
                answer = type(exc).__name__
            digest.update(f"{i} kdisjoint {k}\n{answer}\n\0".encode())
            count += 1
    assert count == ANSWERS
    assert digest.hexdigest() == ANSWERS_SHA256
