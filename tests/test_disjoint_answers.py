"""One pinned hash over a fixed, seeded set of disjoint-pair answers.

Every query runs through ``two_disjoint_shortest`` at the default solver
bound, in both modes and under both objectives, on random undirected
graphs of 3 to 12 nodes with zero weights and ties. For each query the
hash takes the raw two-pair solution on the gadget (node and edge
sequences, read by wrapping ``solve_2dsp_exhaustive`` from outside), the
abridged pair on the input graph, or the refusal. A change to the solver
that is meant to leave every answer alone must leave ``ANSWERS_SHA256``
alone; a change that alters answers on purpose recomputes it and says
why.
"""

import hashlib
import random

import mcpaths.disjoint as disjoint
from mcpaths import SolverBoundError, build_graph, two_disjoint_shortest

SEED = 20261019
GRAPHS = 150
ANSWERS = 600
ANSWERS_SHA256 = "d37075336f38dddbd5ca8e4fcc83e349c53bbcd9c55e4ec2bfb2fc5b37ee1e4b"
COMBOS = [(mode, objective) for mode in ("edge", "node") for objective in ("min-total", "each-shortest")]


def _graph(rng: random.Random):
    n = rng.randint(3, 12)
    q = rng.randint(1, 3)
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    m = min(len(pairs), rng.randint(n - 1, 2 * n))
    zero_share = rng.choice((0.0, 0.3, 0.7, 1.0))
    triples = [
        (u, v, (0,) * q if rng.random() < zero_share else tuple(rng.randint(0, 3) for _ in range(q)))
        for u, v in rng.sample(pairs, m)
    ]
    s, t = rng.sample(range(n), 2)
    return build_graph(False, n, q, triples), s, t


def _path_text(p) -> str:
    return f"{p.nodes} {p.edges} {p.criteria_length}"


def test_disjoint_answers_hash_is_pinned(monkeypatch):
    raw = []
    solve = disjoint.solve_2dsp_exhaustive

    def recording(gg, objective, node_bound):
        raw.append(solve(gg, objective, node_bound))
        return raw[-1]

    monkeypatch.setattr(disjoint, "solve_2dsp_exhaustive", recording)
    rng = random.Random(SEED)
    digest = hashlib.sha256()
    count = 0
    for i in range(GRAPHS):
        g, s, t = _graph(rng)
        for mode, objective in COMBOS:
            raw.clear()
            try:
                pair = two_disjoint_shortest(g, s, t, mode, objective)
            except SolverBoundError as exc:
                answer = f"refused: {exc}"
            else:
                answer = "none" if pair is None else f"{_path_text(pair.first)} | {_path_text(pair.second)}"
            gadget = " | ".join(f"{p.nodes} {p.edges}" for p in raw[0]) if raw and raw[0] else "-"
            digest.update(f"{i} {mode} {objective}\n{gadget}\n{answer}\n\0".encode())
            count += 1
    assert count == ANSWERS
    assert digest.hexdigest() == ANSWERS_SHA256
