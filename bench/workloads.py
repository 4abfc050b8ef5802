"""Seeded inputs, queries and answer checks for the benchmark workloads.

Each workload turns ``(seed, tiny)`` into mcgraph text plus a list of
queries, without touching the library, so the library only ever sees the
generated text and the query arguments. ``load`` is the set-up the
``setup_s`` metric times, ``run`` is one timed query, and ``check``
decides afterwards, outside every timed span, whether its answer is
right. Checks use networkx or :mod:`mcpaths.oracle` plus arithmetic done
here, never the code path under test.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any


@dataclass(frozen=True)
class GraphSpec:
    """One generated graph: its text and the triples it was written from."""

    directed: bool
    node_count: int
    q: int
    triples: tuple[tuple[int, int, tuple[int, ...]], ...]

    def text(self) -> str:
        kind = "directed" if self.directed else "undirected"
        lines = [f"mcgraph {kind} {self.node_count} {self.q}"]
        lines += [f"{u} {v} " + " ".join(map(str, w)) for u, v, w in self.triples]
        return "\n".join(lines) + "\n"

    def packed(self) -> list[int]:
        """Packed weight per edge id, from the paper's bit-segment rule."""
        totals = [sum(w[i] for _, _, w in self.triples) for i in range(self.q)]
        offsets = [0] * self.q
        for i in range(self.q - 2, -1, -1):
            offsets[i] = offsets[i + 1] + totals[i + 1].bit_length()
        return [sum(x << off for x, off in zip(w, offsets)) for _, _, w in self.triples]


@dataclass(frozen=True)
class Inputs:
    """Everything a run needs, derived from the seed alone."""

    graphs: tuple[GraphSpec, ...]
    ops: tuple[tuple, ...]
    texts: tuple[str, ...] = field(init=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "texts", tuple(g.text() for g in self.graphs))


def _rng(name: str, seed: int) -> random.Random:
    return random.Random(f"{name}:{seed}")


def _random_triples(rng, n, m, directed, weights, start=()):
    """``start`` plus random simple edges up to ``m`` in total."""
    triples = list(start)
    seen = {(u, v) if directed else (min(u, v), max(u, v)) for u, v, _ in triples}
    while len(triples) < m:
        u, v = rng.randrange(n), rng.randrange(n)
        key = (u, v) if directed else (min(u, v), max(u, v))
        if u == v or key in seen:
            continue
        seen.add(key)
        triples.append((u, v, weights(rng)))
    return triples


def _component(spec: GraphSpec, start: int) -> set[int]:
    adj: list[list[int]] = [[] for _ in range(spec.node_count)]
    for u, v, _ in spec.triples:
        adj[u].append(v)
        adj[v].append(u)
    seen = {start}
    stack = [start]
    while stack:
        for v in adj[stack.pop()]:
            if v not in seen:
                seen.add(v)
                stack.append(v)
    return seen


def _walk(spec: GraphSpec, nodes, edges, allowed=None) -> str | None:
    """Why (nodes, edges) is not a simple path of ``spec``, or None."""
    if len(nodes) != len(edges) + 1 or len(set(nodes)) != len(nodes):
        return "not a simple node sequence"
    for a, b, eid in zip(nodes, nodes[1:], edges):
        if not 0 <= eid < len(spec.triples) or (allowed is not None and eid not in allowed):
            return f"edge {eid} is not in the graph"
        u, v, _ = spec.triples[eid]
        if (a, b) != (u, v) and (spec.directed or (a, b) != (v, u)):
            return f"edge {eid} does not join {a} and {b}"
    return None


def _criteria(spec: GraphSpec, edges) -> tuple[int, ...]:
    return tuple(sum(spec.triples[e][2][i] for e in edges) for i in range(spec.q))


def _nx_graph(spec: GraphSpec):
    import networkx as nx

    g = nx.DiGraph() if spec.directed else nx.Graph()
    g.add_nodes_from(range(spec.node_count))
    for eid, ((u, v, _), w) in enumerate(zip(spec.triples, spec.packed())):
        g.add_edge(u, v, w=w, eid=eid)
    return g


class Workload:
    name = ""
    setup_repeats = 5
    # Name of the library exception that counts as a refusal, not a failure.
    refusal: str | None = None

    def generate(self, seed: int, tiny: bool) -> Inputs:
        raise NotImplementedError

    def prepare(self, inputs: Inputs, workdir: Path) -> None:
        """Untimed staging of inputs that queries read from disk."""

    def load(self, lib, inputs: Inputs, workdir: Path) -> Any:
        """Parse and lay out every graph the queries use."""
        return [(g, lib.compute_layout(g)) for g in map(lib.parse_graph_file, inputs.texts)]

    def run(self, lib, state, op) -> Any:
        raise NotImplementedError

    def checker(self, lib, inputs: Inputs, state):
        """A function (op, answer) -> reason or None; built once per check phase."""
        raise NotImplementedError

    def check_refusal(self, inputs: Inputs, op) -> str | None:
        return "unexpected refusal"


class KDisjointScale(Workload):
    """The C8 instance: planted chains of unit weights among heavy random arcs."""

    name = "kdisjoint-scale"
    setup_repeats = 5
    K = 4

    def generate(self, seed, tiny):
        rng = _rng(self.name, seed)
        n, m, q, chains, chain_len = (300, 1500, 3, 4, 10) if tiny else (10_000, 50_000, 3, 4, 100)
        ids = list(range(n))
        rng.shuffle(ids)
        s, t = ids[0], ids[1]
        planted = []
        nxt = 2
        for _ in range(chains):
            prev = s
            for step in range(chain_len):
                node = t if step == chain_len - 1 else ids[nxt]
                nxt += node != t
                planted.append((prev, node, (1,) * q))
                prev = node
        # Every random arc outweighs a whole chain in every criterion, so the
        # chains are exactly the all-criteria-shortest s-t paths.
        lo, hi = 3 * chain_len + 1, 10 * chain_len - 1
        triples = _random_triples(
            rng, n, m, True, lambda r: tuple(r.randint(lo, hi) for _ in range(q)), planted
        )
        rng.shuffle(triples)
        spec = GraphSpec(True, n, q, tuple(triples))
        return Inputs((spec,), ((s, t, self.K, (chain_len,) * q),))

    def run(self, lib, state, op):
        g, _ = state[0]
        s, t, k, _ = op
        return lib.k_disjoint_all_criteria(g, s, t, k)

    def checker(self, lib, inputs, state):
        spec = inputs.graphs[0]

        def check(op, paths):
            s, t, k, want = op
            if len(paths) != k:
                return f"{len(paths)} paths, wanted {k}"
            used: set[int] = set()
            for p in paths:
                why = _walk(spec, p.nodes, p.edges)
                if why or p.nodes[0] != s or p.nodes[-1] != t:
                    return why or "path does not run from s to t"
                if _criteria(spec, p.edges) != want:
                    return f"criteria {_criteria(spec, p.edges)}, wanted {want}"
                if used & set(p.edges):
                    return "paths share an edge"
                used |= set(p.edges)
            return None

        return check


class CliSpThreshold(Workload):
    """``mcpaths sp --threshold``: file in, rendered document out, per query."""

    name = "cli-sp-threshold"
    setup_repeats = 25
    # A run gets through about two passes of these, so every run times the
    # same queries and its median does not hang on which ones it reached.
    OPS = 16

    def generate(self, seed, tiny):
        rng = _rng(self.name, seed)
        n, m, q = (200, 1000, 3) if tiny else (10_000, 50_000, 3)
        triples = _random_triples(rng, n, m, False, lambda r: tuple(r.randint(0, 999) for _ in range(q)))
        spec = GraphSpec(False, n, q, tuple(triples))
        ranked = sorted(spec.packed())
        ops = []
        for i in range(self.OPS):
            s, t = rng.sample(range(n), 2)
            # One query per stratum of 5-30 % dropped, the same mix every seed.
            share = 0.05 + 0.25 * (i + rng.random()) / self.OPS
            ops.append((s, t, ranked[m - round(share * m)]))
        return Inputs((spec,), tuple(ops))

    def prepare(self, inputs, workdir):
        (workdir / f"{self.name}.mcg").write_text(inputs.texts[0], encoding="ascii")

    def load(self, lib, inputs, workdir):
        return workdir / f"{self.name}.mcg"

    def run(self, lib, state, op):
        s, t, threshold = op
        argv = ["sp", "--graph", str(state), "--source", str(s), "--dest", str(t),
                "--threshold", str(threshold)]
        code, doc = lib.cli.run_cli(argv)
        return code, doc, lib.cli.render(doc)

    def checker(self, lib, inputs, state):
        import networkx as nx

        spec = inputs.graphs[0]
        g = _nx_graph(spec)
        packed = spec.packed()

        expected: dict[tuple, int | None] = {}

        def reference(op):
            s, t, threshold = op
            kept = lambda u, v, d: d["w"] if d["w"] < threshold else None  # noqa: E731
            try:
                return nx.bidirectional_dijkstra(g, s, t, weight=kept)[0]
            except nx.NetworkXNoPath:
                return None

        def check(op, answer):
            s, t, threshold = op
            code, doc, text = answer
            if op not in expected:
                expected[op] = reference(op)
            want = expected[op]
            if not text.startswith(f"status: {doc['status']}\n"):
                return "rendered document does not match the result"
            if want is None:
                return None if code == 2 and doc["paths"] == [] else "missed the no-path answer"
            if code != 0 or len(doc["paths"]) != 1:
                return f"exit {code} with {len(doc['paths'])} paths, wanted one path"
            p = doc["paths"][0]
            allowed = {e for e, w in enumerate(packed) if w < threshold}
            why = _walk(spec, p["nodes"], p["edges"], allowed)
            if why or (p["nodes"][0], p["nodes"][-1]) != (s, t):
                return why or "path does not run from s to t"
            length = sum(packed[e] for e in p["edges"])
            if int(p["ensembled"]) != length or length != want:
                return f"length {p['ensembled']}, networkx says {want}"
            if tuple(p["criteria"]) != _criteria(spec, p["edges"]):
                return "criteria sums do not match the edges"
            return None

        return check


class KspZero(Workload):
    """``yen_ksp`` over seeded (s, t) pairs on many small undirected graphs
    in which a tenth of the edges weigh zero in every criterion."""

    name = "ksp-zero"
    setup_repeats = 5
    K = 4
    ZERO_SHARE = 0.1
    # Two pairs on each of many graphs, so a run's median is not set by a
    # few graphs; a run gets through several passes, so every run times the
    # same queries.
    GRAPHS = 32
    PAIRS_PER_GRAPH = 2

    def generate(self, seed, tiny):
        rng = _rng(self.name, seed)
        n, m = (40, 160) if tiny else (150, 600)
        q = 3
        specs, giants = [], []
        for _ in range(self.GRAPHS):
            triples = _random_triples(rng, n, m, False, lambda r: tuple(r.randint(1, 100) for _ in range(q)))
            for eid in rng.sample(range(m), round(self.ZERO_SHARE * m)):
                u, v, _ = triples[eid]
                triples[eid] = (u, v, (0,) * q)
            specs.append(GraphSpec(False, n, q, tuple(triples)))
            giant = sorted(_component(specs[-1], rng.randrange(n)))
            while len(giant) < n // 2:
                giant = sorted(_component(specs[-1], rng.randrange(n)))
            giants.append(giant)
        ops = tuple((i % self.GRAPHS, *rng.sample(giants[i % self.GRAPHS], 2), self.K)
                    for i in range(self.PAIRS_PER_GRAPH * self.GRAPHS))
        return Inputs(tuple(specs), ops)

    def run(self, lib, state, op):
        gi, s, t, k = op
        g, layout = state[gi]
        return lib.yen_ksp(g, layout, s, t, k)

    def checker(self, lib, inputs, state):
        import itertools

        import networkx as nx

        graphs = [_nx_graph(spec) for spec in inputs.graphs]
        packed = [spec.packed() for spec in inputs.graphs]

        expected: dict[tuple, list[int]] = {}

        def check(op, result):
            gi, s, t, k = op
            if op not in expected:
                expected[op] = [
                    nx.path_weight(graphs[gi], p, "w")
                    for p in itertools.islice(nx.shortest_simple_paths(graphs[gi], s, t, weight="w"), k)
                ]
            want = expected[op]
            got = [p.ew_length for p in result.paths]
            if got != want:
                return f"packed lengths {got}, networkx says {want}"
            for p in result.paths:
                why = _walk(inputs.graphs[gi], p.nodes, p.edges)
                if why or (p.nodes[0], p.nodes[-1]) != (s, t):
                    return why or "path does not run from s to t"
                if sum(packed[gi][e] for e in p.edges) != p.ew_length:
                    return "packed length does not match the edges"
            if len({p.nodes for p in result.paths}) != len(result.paths):
                return "a path is repeated"
            return None

        return check


class TwoDspDesk(Workload):
    """``two_disjoint_shortest`` on desk-size graphs, every mode and objective."""

    name = "2dsp-desk"
    setup_repeats = 7
    refusal = "SolverBoundError"
    GRAPHS = 400
    # The library's default exhaustive-solver bound on gadget nodes.
    SOLVER_BOUND = 16
    COMBOS = (("edge", "min-total"), ("node", "min-total"),
              ("edge", "each-shortest"), ("node", "each-shortest"))

    def generate(self, seed, tiny):
        rng = _rng(self.name, seed)
        graphs, ops = [], []
        for gi in range(6 if tiny else self.GRAPHS):
            # Sizes are stratified rather than drawn, so every seed holds the
            # same mix of small and large instances. Nodes and edges grow
            # together over eleven strata of many graphs each: a query's cost
            # spans two orders of magnitude with the size, and with few
            # graphs per size a seed's median query would hang on the
            # structure of a handful of them.
            stratum = gi % 11
            n = 8 + stratum * 4 // 10
            m = 14 + stratum
            order = list(range(n))
            rng.shuffle(order)
            weights = lambda r: tuple(r.randint(0, 7) for _ in range(3))  # noqa: E731
            tree = [(order[rng.randrange(i)], order[i], weights(rng)) for i in range(1, n)]
            graphs.append(GraphSpec(False, n, 3, tuple(_random_triples(rng, n, m, False, weights, tree))))
            s, t = rng.sample(range(n), 2)
            ops += [(gi, s, t, mode, objective) for mode, objective in self.COMBOS]
        return Inputs(tuple(graphs), tuple(ops))

    def run(self, lib, state, op):
        gi, s, t, mode, objective = op
        pair = lib.two_disjoint_shortest(state[gi][0], s, t, mode, objective)
        # Keep only what the check reads, so memory does not grow with the
        # number of queries a run gets through.
        return None if pair is None else (pair.first.nodes, pair.second.nodes)

    def check_refusal(self, inputs, op):
        gi, s, t, mode, _ = op
        spec = inputs.graphs[gi]
        if mode == "edge":
            size = spec.node_count + 4
        else:
            ends = [(u, v) for u, v, _ in spec.triples if s in (u, v) or t in (u, v)]
            direct = sum({u, v} == {s, t} for u, v in ends)
            # interiors + one split node per edge at s or t (two for a
            # direct s-t edge) + four terminals
            size = spec.node_count - 2 + len(ends) + direct + 4
        if size <= self.SOLVER_BOUND:
            return f"refused a gadget of {size} nodes, within the bound {self.SOLVER_BOUND}"
        return None

    def checker(self, lib, inputs, state):
        expected: dict[tuple, Any] = {}

        def check(op, got):
            gi, s, t, mode, objective = op
            if op not in expected:
                enum = lib.oracle.enumerate_simple_paths(state[gi][0], s, t)
                want = lib.oracle.oracle_disjoint(enum, mode, objective)
                expected[op] = None if want is None else (want[0].nodes, want[1].nodes)
            want = expected[op]
            return None if got == want else f"pair {got}, oracle says {want}"

        return check


WORKLOADS = {
    w.name: w
    for w in (
        KDisjointScale(),
        CliSpThreshold(),
        KspZero(),
        TwoDspDesk(),
    )
}
