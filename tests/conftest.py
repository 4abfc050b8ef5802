"""Shared fixtures and random-instance generators."""

from __future__ import annotations

import os
import random
from pathlib import Path

import pytest

import mcpaths
from mcpaths import Graph, build_graph


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
    from mcpaths import NoPathError, reachability_prune

    while True:
        g = random_graph(rng, directed=directed, **kwargs)
        if g.node_count < 2:
            continue
        s, t = 0, g.node_count - 1
        try:
            reachability_prune(g, s, t)
        except NoPathError:
            continue
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
