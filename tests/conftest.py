"""Shared fixtures and random-instance generators."""

from __future__ import annotations

import os
import random
from pathlib import Path

import networkx as nx
import pytest

import mcpaths
from mcpaths import BitLayout, Graph, build_graph, compute_layout, pack
from mcpaths.oracle import dijkstra


def subprocess_env() -> dict[str, str]:
    """The current environment, with the imported ``mcpaths`` importable by
    child interpreters even when it is not installed."""
    src = str(Path(mcpaths.__file__).resolve().parents[1])
    inherited = os.environ.get("PYTHONPATH")
    return {**os.environ, "PYTHONPATH": src + (os.pathsep + inherited if inherited else "")}


def random_graph(
    rng: random.Random,
    *,
    directed: bool,
    n_lo: int = 4,
    n_hi: int = 8,
    q_lo: int = 1,
    q_hi: int = 3,
    weight_max: int = 7,
    weight_min: int = 0,
    edge_prob: float = 0.45,
) -> Graph:
    n = rng.randint(n_lo, n_hi)
    q = rng.randint(q_lo, q_hi)
    triples = []
    if directed:
        pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
    else:
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    for u, v in pairs:
        if rng.random() < edge_prob:
            triples.append((u, v, tuple(rng.randint(weight_min, weight_max) for _ in range(q))))
    return build_graph(directed, n, q, triples)


def random_connected_query(
    rng: random.Random, *, directed: bool, **kwargs
) -> tuple[Graph, int, int]:
    """A random graph plus an s-t pair with at least one s-t path."""
    while True:
        g = random_graph(rng, directed=directed, **kwargs)
        if g.node_count < 2:
            continue
        s, t = 0, g.node_count - 1
        if dijkstra(g, compute_layout(g), s).dist[t] is not None:
            return g, s, t


@pytest.fixture
def table1_graph() -> Graph:
    return build_graph(
        False,
        5,
        3,
        [
            (0, 1, (3, 4, 5)),
            (1, 2, (4, 3, 2)),
            (2, 3, (1, 6, 5)),
            (3, 4, (4, 7, 2)),
        ],
    )


@pytest.fixture
def table1_directed_chain() -> Graph:
    return build_graph(
        True,
        5,
        3,
        [
            (0, 1, (3, 4, 5)),
            (1, 2, (4, 3, 2)),
            (2, 3, (1, 6, 5)),
            (3, 4, (4, 7, 2)),
        ],
    )


def large_packed_instance(
    rng: random.Random, *, directed: bool, n_lo: int, n_hi: int
) -> tuple[Graph, BitLayout, nx.Graph, int | None]:
    """A graph of ``n_lo``-``n_hi`` nodes and 3n edges for checks against
    networkx, past the oracle's reach.

    Weights are 0-2 on 1-3 criteria, so packed weights tie often, and
    10-30 % of the edges weigh zero on every criterion. The threshold is
    None or a packed weight some edges carry exactly. The networkx copy
    holds every node and only the edges the threshold keeps, each with
    its id and its packed weight ``w``, packed here from its criteria.
    """
    n = rng.randint(n_lo, n_hi)
    q = rng.randint(1, 3)
    zero = rng.uniform(0.1, 0.3)
    pairs: set[tuple[int, int]] = set()
    while len(pairs) < 3 * n:
        u, v = rng.sample(range(n), 2)
        pairs.add((u, v) if directed or u < v else (v, u))
    triples = [
        (u, v, (0,) * q if rng.random() < zero else tuple(rng.randint(0, 2) for _ in range(q)))
        for u, v in sorted(pairs)
    ]
    g = build_graph(directed, n, q, triples)
    layout = compute_layout(g)
    packed = [pack(layout, weights) for _, _, weights in triples]
    threshold = rng.choice((None, *sorted(packed)[len(packed) // 2 :: len(packed) // 5]))
    nxg = nx.DiGraph() if directed else nx.Graph()
    nxg.add_nodes_from(range(n))
    nxg.add_edges_from(
        (u, v, {"eid": eid, "w": w})
        for eid, ((u, v, _), w) in enumerate(zip(triples, packed))
        if threshold is None or w < threshold
    )
    return g, layout, nxg, threshold
