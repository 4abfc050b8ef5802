"""One pinned hash over a fixed, seeded set of CLI result documents.

The documents cover every subcommand, text and JSON output, ``--verify``,
``sp``/``ksp`` thresholds, both ``2dsp`` modes and objectives, and error
documents (``2dsp`` on directed and ``kdisjoint`` on undirected graphs),
on random graphs of up to 12 nodes with zero weights and ties. A change
that is meant to leave every answer and every byte of output alone must
leave ``DOCUMENTS_SHA256`` alone; a change that alters documents on
purpose recomputes it and says why.
"""

import hashlib
import random

from mcpaths.cli import render, run_cli

SEED = 20261018
GRAPHS = 16
DOCUMENTS = 306
DOCUMENTS_SHA256 = "c81cd854fd6c8734822cfccaeabc1401cf1d77fcac8c92e1364fba5fff3f31d2"


def _graph_text(rng: random.Random) -> tuple[str, int, int, bool]:
    directed = rng.random() < 0.5
    n = rng.randint(2, 12)
    q = rng.randint(1, 3)
    pairs = [(u, v) for u in range(n) for v in range(n) if u != v and (directed or u < v)]
    m = min(len(pairs), rng.randint(n, 2 * n))
    zero_share = rng.choice((0.0, 0.3, 1.0))
    lines = [f"mcgraph {'directed' if directed else 'undirected'} {n} {q}"]
    for u, v in rng.sample(pairs, m):
        w = (0,) * q if rng.random() < zero_share else tuple(rng.randint(0, 3) for _ in range(q))
        lines.append(" ".join(map(str, (u, v, *w))))
    s, t = rng.sample(range(n), 2)
    return "\n".join(lines) + "\n", s, t, directed


def _argvs(path: str, s: int, t: int, directed: bool, rng: random.Random) -> list[list[str]]:
    """Every subcommand; 2dsp on a directed and kdisjoint on an undirected
    graph give error documents, so each graph gets one of those."""
    ends = ["--graph", path, "--source", str(s), "--dest", str(t)]
    cut = str(1 << rng.randint(0, 10))
    k = str(rng.randint(1, 4))
    argvs = [
        ["pack", "--graph", path],
        ["sp", *ends],
        ["sp", *ends, "--threshold", cut],
        ["ksp", *ends, "-k", k],
        ["ksp", *ends, "-k", k, "--threshold", cut],
    ]
    if directed:
        argvs += [["2dsp", *ends], *(["kdisjoint", *ends, "-k", str(j)] for j in (1, 2, 3))]
    else:
        argvs += [["2dsp", *ends, "--mode", mode, "--objective", objective]
                  for mode in ("node", "edge") for objective in ("min-total", "each-shortest")]
        argvs.append(["kdisjoint", *ends, "-k", k])
    return argvs


def test_documents_hash_is_pinned(tmp_path):
    rng = random.Random(SEED)
    digest = hashlib.sha256()
    count = 0
    for i in range(GRAPHS):
        text, s, t, directed = _graph_text(rng)
        path = tmp_path / f"g{i}.mcg"
        path.write_text(text)
        for argv in _argvs(str(path), s, t, directed, rng):
            for fmt in ("text", "json"):
                code, doc = run_cli([*argv, "--format", fmt, *(["--verify"] if i % 2 else [])])
                digest.update(f"{code}\n{render(doc)}\n\0".encode())
                count += 1
    assert count == DOCUMENTS
    assert digest.hexdigest() == DOCUMENTS_SHA256
