"""Command-line interface.

Subcommands: ``pack``, ``sp``, ``ksp``, ``2dsp``, ``kdisjoint``. Every run
prints one machine-readable result document (text or JSON) and exits 0 on
success, 2 when the query has a legitimate negative answer (no such
paths), and 1 on bad input. Identical inputs produce byte-identical
output; packed lengths are serialized as decimal strings because they
outgrow fixed-width integers.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import partial
from itertools import islice
from typing import Sequence

from .allcriteria import InfeasibleError, TooFewPathsError, k_disjoint_all_criteria
from .dijkstra import Path, packed_weights, shortest_path, threshold_mask
from .disjoint import MODE_EDGE, MODE_NODE, OBJECTIVE_EACH_SHORTEST, OBJECTIVE_MIN_TOTAL, two_disjoint_shortest
from .fileio import parse_graph_file
from .graph import Graph, GraphError, NoPathError
from .ksp import yen_ksp
from .lexweight import BitLayout, compute_layout, unpack
from .oracle import (
    DEFAULT_NODE_BOUND,
    VERIFY_PATH_CAP,
    all_criteria_shortest,
    enumerate_simple_paths,
    max_edge_disjoint_count,
    oracle_disjoint,
    oracle_ksp,
)
# These three are unused here but stay importable: bench/tracer.py wraps
# them in ``mcpaths.cli`` by name (ROADMAP, benchmark upkeep).
from .dijkstra import filter_by_threshold  # noqa: F401
from .oracle import dijkstra, extract_path  # noqa: F401

__all__ = ["run_cli", "main"]

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_NO_SOLUTION = 2


class _Stop(Exception):
    """Parsing ends in a document, not a query: (exit code, status, message)."""


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # type: ignore[override]
        raise _Stop(EXIT_ERROR, "error", f"{message}\n{self.format_usage()}")

    def print_help(self, file=None) -> None:
        raise _Stop(EXIT_OK, "ok", self.format_help())


def _build_parser() -> _Parser:
    # The width argparse picks on an 80-column terminal, fixed so that no
    # document depends on the terminal it is made in.
    formatter = partial(argparse.HelpFormatter, width=78)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--graph", required=True, help="path to an mcgraph file")
    common.add_argument("--format", choices=("text", "json"), default="text")
    common.add_argument("--verify", action="store_true", help="cross-check against the brute-force oracle (small graphs only)")

    endpoints = argparse.ArgumentParser(add_help=False)
    endpoints.add_argument("--source", type=int, required=True)
    endpoints.add_argument("--dest", type=int, required=True)

    parser = _Parser(prog="mcpaths", description="prioritized multi-criteria path queries",
                     formatter_class=formatter)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, flags, _, _) in _COMMANDS.items():
        parents = [common] if flags is None else [common, endpoints]
        command = sub.add_parser(name, parents=parents, help=help_text, formatter_class=formatter)
        for flag, options in flags or ():
            command.add_argument(flag, **options)
    return parser


def _layout_doc(layout: BitLayout) -> dict:
    return {
        "totals": list(layout.totals),
        "bits": list(layout.bits),
        "offsets": list(layout.offsets),
    }


def _path_doc(p: Path) -> dict:
    return {
        "nodes": list(p.nodes),
        "edges": list(p.edges),
        "ensembled": str(p.ew_length),
        "criteria": list(p.criteria_length),
    }


def _graph_doc(g: Graph) -> dict:
    return {
        "directed": g.directed,
        "nodes": g.node_count,
        "edges": g.edge_count,
        "criteria": g.q,
    }


def _pack(g: Graph, layout: BitLayout):
    packed = packed_weights(g, layout)
    edges = [
        {
            "id": eid,
            "u": g.tails[eid],
            "v": g.heads[eid],
            "weights": [column[eid] for column in g.weights],
            "ensembled": str(packed[eid]),
        }
        for eid in g.ids
    ]
    return {"edges": edges}, g


def _check_pack(paths: None, g: Graph) -> str:
    """Whether the graph's stored packed column unpacks to every edge's weights."""
    layout = compute_layout(g)
    packed = packed_weights(g, layout)
    for eid in g.ids:
        if unpack(layout, packed[eid]) != tuple(column[eid] for column in g.weights):
            return f"mismatch: edge {eid} does not round-trip"
    return "ok"


def _sp(g: Graph, layout: BitLayout, source: int, dest: int, threshold: int | None):
    try:
        path = shortest_path(g, layout, source, dest, threshold=threshold)
    except NoPathError as exc:
        return {"status": "no-path", "message": str(exc), "paths": []}, None
    return {"paths": [_path_doc(path)]}, path


def _check_sp(paths: tuple[Path, ...], path: Path | None, **query) -> str:
    if not paths:
        return "ok" if path is None else "mismatch: oracle found no path"
    if path is None:
        return "mismatch: oracle found a path"
    best = min(p.criteria_length for p in paths)
    if path.criteria_length != best:
        return f"mismatch: oracle lengths {best}, got {path.criteria_length}"
    return "ok"


def _ksp(g: Graph, layout: BitLayout, source: int, dest: int, k: int, threshold: int | None):
    result = yen_ksp(g, layout, source, dest, k, threshold)
    fields = {"paths": [_path_doc(p) for p in result.paths], "exhausted": result.exhausted}
    if not result.paths:
        fields.update(status="no-path", message=f"no path from {source} to {dest}")
    return fields, result


def _check_ksp(paths: tuple[Path, ...], result, *, k: int, **query) -> str:
    want = oracle_ksp(paths, k)
    got = [(p.nodes, p.criteria_length) for p in result.paths]
    expected = [(p.nodes, p.criteria_length) for p in want.paths]
    if got != expected or result.exhausted != want.exhausted:
        return "mismatch: oracle top-k differs"
    return "ok"


def _2dsp(g: Graph, layout: BitLayout, source: int, dest: int, mode: str, objective: str):
    pair = two_disjoint_shortest(g, source, dest, mode, objective)
    if pair is None:
        message = f"no {mode}-disjoint pair of paths from {source} to {dest}"
        return {"status": "no-disjoint-pair", "message": message, "paths": []}, None
    return {"paths": [_path_doc(pair.first), _path_doc(pair.second)]}, pair


def _check_2dsp(paths: tuple[Path, ...], pair, *, mode: str, objective: str, **query) -> str:
    want = oracle_disjoint(paths, mode, objective)
    if want is None or pair is None:
        return "ok" if (want is None) == (pair is None) else "mismatch: disjoint pair existence"
    got = (pair.first.nodes, pair.second.nodes)
    expected = (want[0].nodes, want[1].nodes)
    return "ok" if got == expected else "mismatch: oracle pair differs"


_KDISJOINT_STATUS = {NoPathError: "no-path", InfeasibleError: "infeasible", TooFewPathsError: "too-few-paths"}


def _kdisjoint(g: Graph, layout: BitLayout, source: int, dest: int, k: int):
    """The paths, or the exception that names the negative answer."""
    try:
        paths = k_disjoint_all_criteria(g, source, dest, k)
    except tuple(_KDISJOINT_STATUS) as exc:
        return {"status": _KDISJOINT_STATUS[type(exc)], "message": str(exc), "paths": []}, exc
    return {"paths": [_path_doc(p) for p in paths]}, paths


def _check_kdisjoint(paths: tuple[Path, ...], answer, *, k: int, **query) -> str:
    witnesses = all_criteria_shortest(paths)
    got = _KDISJOINT_STATUS.get(type(answer), "ok")
    if not paths:
        expected = "no-path"
    elif not witnesses:
        expected = "infeasible"
    elif got == "too-few-paths" and max_edge_disjoint_count(witnesses) < k:
        expected = "too-few-paths"
    else:
        # Backtracking over every witness is exponential; k disjoint
        # witnesses in a positive answer, checked below, already prove it.
        expected = "ok"
    if got != expected:
        return f"mismatch: oracle answer is {expected}"
    if got != "ok":
        return "ok"
    if len(answer) != k:
        return f"mismatch: {len(answer)} paths, not {k}"
    best = witnesses[0].criteria_length
    used: set[int] = set()
    for p in answer:
        if p.criteria_length != best:
            return "mismatch: path not all-criteria shortest"
        if used & set(p.edges):
            return "mismatch: paths share an edge"
        used.update(p.edges)
    return "ok"


_K = ("-k", {"type": int, "default": 1})
_THRESHOLD = ("--threshold", {"type": int, "default": None, "help": "drop edges with packed weight >= this value"})

# Subcommand -> (help, flags after the endpoints, answer, check); ``pack``
# takes no endpoints, so its flags are None. ``answer(g, layout, **query)``
# returns the document fields and the raw answer; ``check(paths, answer,
# **query)`` compares that answer with the oracle's simple paths.
_COMMANDS = {
    "pack": ("print the bit layout and per-edge packed weights", None, _pack, _check_pack),
    "sp": ("single shortest path", (_THRESHOLD,), _sp, _check_sp),
    "ksp": ("k shortest simple paths", (_K, _THRESHOLD), _ksp, _check_ksp),
    "2dsp": ("two disjoint shortest paths", (
        ("--mode", {"choices": (MODE_NODE, MODE_EDGE), "default": MODE_NODE}),
        ("--objective", {"choices": (OBJECTIVE_EACH_SHORTEST, OBJECTIVE_MIN_TOTAL), "default": OBJECTIVE_MIN_TOTAL}),
    ), _2dsp, _check_2dsp),
    "kdisjoint": ("k disjoint all-criteria-shortest paths", (_K,), _kdisjoint, _check_kdisjoint),
}
# Flags every subcommand takes; the rest of the parsed arguments is the query.
_COMMON_FLAGS = ("command", "graph", "format", "verify")


def _verify(g: Graph, layout: BitLayout, query: dict, check, answer) -> str:
    """The oracle's verdict on one answer.

    A query with endpoints is checked against the simple paths of ``g``
    with its threshold's edges masked, within the oracle's node bound and
    path cap; ``pack`` has no endpoints and checks its edges alone.
    """
    paths = None
    if "source" in query:
        if g.node_count > DEFAULT_NODE_BOUND:
            return f"skipped: graph exceeds oracle bound ({DEFAULT_NODE_BOUND} nodes)"
        dropped = threshold_mask(packed_weights(g, layout), query.get("threshold"))
        found = enumerate_simple_paths(g, query["source"], query["dest"], banned_edges=dropped)
        paths = tuple(islice(found, VERIFY_PATH_CAP + 1))
        if len(paths) > VERIFY_PATH_CAP:
            return f"skipped: more than {VERIFY_PATH_CAP} simple paths"
    return check(paths, answer, **query)


def _run_query(args: argparse.Namespace) -> tuple[int, dict]:
    with open(args.graph, "r", encoding="utf-8") as fh:
        g = parse_graph_file(fh.read())
    layout = compute_layout(g)
    doc: dict = {
        "command": args.command,
        "format": args.format,
        "graph": _graph_doc(g),
        "layout": _layout_doc(layout),
        "status": "ok",
    }
    query = {k: v for k, v in vars(args).items() if k not in _COMMON_FLAGS}
    if query:
        doc["query"] = query
    _, _, answer_fn, check = _COMMANDS[args.command]
    fields, answer = answer_fn(g, layout, **query)
    doc.update(fields)
    if args.verify:
        doc["verify"] = _verify(g, layout, query, check, answer)
        if doc["verify"].startswith("mismatch"):
            doc["status"] = "verify-failed"
            return EXIT_ERROR, doc
    code = EXIT_OK if doc["status"] == "ok" else EXIT_NO_SOLUTION
    return code, doc


def run_cli(argv: Sequence[str]) -> tuple[int, dict]:
    """Execute one query; returns (exit code, result document)."""
    parser = _build_parser()
    try:
        args = parser.parse_args(list(argv))
    except _Stop as stop:
        code, status, message = stop.args
        return code, {"status": status, "message": message, "format": "text"}
    try:
        return _run_query(args)
    except (GraphError, OSError, UnicodeDecodeError) as exc:
        message = str(exc) if isinstance(exc, GraphError) else f"cannot read {args.graph}: {exc}"
        return EXIT_ERROR, {"command": args.command, "format": args.format, "status": "error", "message": message}


def render(doc: dict) -> str:
    """Format a result document for printing."""
    if doc.get("format") == "json":
        return json.dumps(doc, sort_keys=True, indent=2)
    lines = [f"status: {doc['status']}"]
    if "message" in doc:
        lines.append(f"message: {doc['message']}")
    if "graph" in doc:
        gd = doc["graph"]
        kind = "directed" if gd["directed"] else "undirected"
        lines.append(
            f"graph: {kind} nodes={gd['nodes']} edges={gd['edges']} criteria={gd['criteria']}"
        )
    if "query" in doc:
        q = doc["query"]
        lines.append("query: " + " ".join(f"{k}={q[k]}" for k in sorted(q)))
    if "layout" in doc:
        ld = doc["layout"]
        lines.append("layout totals: " + " ".join(map(str, ld["totals"])))
        lines.append("layout bits: " + " ".join(map(str, ld["bits"])))
        lines.append("layout offsets: " + " ".join(map(str, ld["offsets"])))
    for e in doc.get("edges", []):
        lines.append(
            f"edge {e['id']}: ({e['u']},{e['v']}) "
            f"weights={','.join(map(str, e['weights']))} ensembled={e['ensembled']}"
        )
    for i, p in enumerate(doc.get("paths", []), start=1):
        lines.append(
            f"path {i}: nodes={'->'.join(map(str, p['nodes']))} "
            f"edges={','.join(map(str, p['edges']))} "
            f"ensembled={p['ensembled']} criteria={','.join(map(str, p['criteria']))}"
        )
    if "exhausted" in doc:
        lines.append(f"exhausted: {str(doc['exhausted']).lower()}")
    if "verify" in doc:
        lines.append(f"verify: {doc['verify']}")
    return "\n".join(lines)


def main(argv: Sequence[str] | None = None) -> int:
    code, doc = run_cli(sys.argv[1:] if argv is None else argv)
    print(render(doc))
    return code


if __name__ == "__main__":
    sys.exit(main())
