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
from typing import Sequence

from .allcriteria import InfeasibleError, TooFewPathsError, k_disjoint_all_criteria
from .dijkstra import Path, dijkstra, extract_path, filter_by_threshold
from .disjoint import (
    MODE_EDGE,
    MODE_NODE,
    OBJECTIVE_EACH_SHORTEST,
    OBJECTIVE_MIN_TOTAL,
    two_disjoint_shortest,
)
from .fileio import parse_graph_file
from .graph import Graph, GraphError, NoPathError
from .ksp import yen_ksp
from .lexweight import BitLayout, compute_layout, pack, unpack
from .oracle import (
    DEFAULT_NODE_BOUND,
    all_criteria_shortest,
    enumerate_simple_paths,
    oracle_disjoint,
    oracle_ksp,
)

__all__ = ["run_cli", "main"]

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_NO_SOLUTION = 2


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # type: ignore[override]
        raise _UsageError(f"{message}\n{self.format_usage()}")


def _build_parser() -> _Parser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--graph", required=True, help="path to an mcgraph file")
    common.add_argument("--format", choices=("text", "json"), default="text")
    common.add_argument("--verify", action="store_true", help="cross-check against the brute-force oracle (small graphs only)")

    endpoints = argparse.ArgumentParser(add_help=False)
    endpoints.add_argument("--source", type=int, required=True)
    endpoints.add_argument("--dest", type=int, required=True)

    parser = _Parser(prog="mcpaths", description="prioritized multi-criteria path queries")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("pack", parents=[common], help="print the bit layout and per-edge packed weights")

    p_sp = sub.add_parser("sp", parents=[common, endpoints], help="single shortest path")
    p_sp.add_argument("--threshold", type=int, default=None, help="drop edges with packed weight >= this value")

    p_ksp = sub.add_parser("ksp", parents=[common, endpoints], help="k shortest simple paths")
    p_ksp.add_argument("-k", type=int, default=1)
    p_ksp.add_argument("--threshold", type=int, default=None, help="drop edges with packed weight >= this value")

    p_2dsp = sub.add_parser("2dsp", parents=[common, endpoints], help="two disjoint shortest paths")
    p_2dsp.add_argument("--mode", choices=(MODE_NODE, MODE_EDGE), default=MODE_NODE)
    p_2dsp.add_argument(
        "--objective",
        choices=(OBJECTIVE_EACH_SHORTEST, OBJECTIVE_MIN_TOTAL),
        default=OBJECTIVE_MIN_TOTAL,
    )

    p_kd = sub.add_parser("kdisjoint", parents=[common, endpoints], help="k disjoint all-criteria-shortest paths")
    p_kd.add_argument("-k", type=int, default=1)

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


def _verify_sp(g: Graph, s: int, t: int, threshold, result: Path | None) -> str:
    layout = compute_layout(g)
    enum = enumerate_simple_paths(filter_by_threshold(g, layout, threshold), s, t)
    if not enum.paths:
        return "ok" if result is None else "mismatch: oracle found no path"
    if result is None:
        return "mismatch: oracle found a path"
    best = min(p.criteria_length for p in enum.paths)
    if result.criteria_length != best:
        return f"mismatch: oracle lengths {best}, got {result.criteria_length}"
    return "ok"


def _verify_ksp(g: Graph, s: int, t: int, k: int, threshold, result) -> str:
    layout = compute_layout(g)
    enum = enumerate_simple_paths(filter_by_threshold(g, layout, threshold), s, t)
    want = oracle_ksp(enum, layout, k)
    got = [(p.nodes, p.criteria_length) for p in result.paths]
    expected = [(p.nodes, p.criteria_length) for p in want.paths]
    if got != expected or result.exhausted != want.exhausted:
        return "mismatch: oracle top-k differs"
    return "ok"


def _verify_2dsp(g: Graph, s: int, t: int, mode: str, objective: str, result) -> str:
    enum = enumerate_simple_paths(g, s, t)
    want = oracle_disjoint(enum, mode, objective)
    if want is None or result is None:
        return "ok" if (want is None) == (result is None) else "mismatch: disjoint pair existence"
    got = (result.first.nodes, result.second.nodes)
    expected = (want[0].nodes, want[1].nodes)
    return "ok" if got == expected else "mismatch: oracle pair differs"


def _verify_kdisjoint(g: Graph, s: int, t: int, paths) -> str:
    enum = enumerate_simple_paths(g, s, t)
    witnesses = all_criteria_shortest(enum)
    if not witnesses:
        return "mismatch: oracle says infeasible"
    best = witnesses[0].criteria_length
    used: set[int] = set()
    for p in paths:
        if p.criteria_length != best:
            return "mismatch: path not all-criteria shortest"
        if used & set(p.edges):
            return "mismatch: paths share an edge"
        used.update(p.edges)
    return "ok"


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
    verify_wanted = args.verify
    oracle_fits = g.node_count <= DEFAULT_NODE_BOUND
    verify: str | None = None

    if args.command == "pack":
        doc["edges"] = [
            {
                "id": e.eid,
                "u": e.u,
                "v": e.v,
                "weights": list(e.weights),
                "ensembled": str(pack(layout, e.weights)),
            }
            for e in g.edges
        ]
        if verify_wanted:
            verify = "ok"
            for e in g.edges:
                if unpack(layout, pack(layout, e.weights)) != e.weights:
                    verify = f"mismatch: edge {e.eid} does not round-trip"
                    break
    elif args.command == "sp":
        doc["query"] = {"source": args.source, "dest": args.dest, "threshold": args.threshold}
        dm = dijkstra(g, layout, args.source, target=args.dest, threshold=args.threshold)
        try:
            path = extract_path(dm, args.dest)
        except NoPathError as exc:
            doc["status"] = "no-path"
            doc["message"] = str(exc)
            doc["paths"] = []
            if verify_wanted and oracle_fits:
                verify = _verify_sp(g, args.source, args.dest, args.threshold, None)
            path = None
        if path is not None:
            doc["paths"] = [_path_doc(path)]
            if verify_wanted and oracle_fits:
                verify = _verify_sp(g, args.source, args.dest, args.threshold, path)
    elif args.command == "ksp":
        doc["query"] = {
            "source": args.source,
            "dest": args.dest,
            "k": args.k,
            "threshold": args.threshold,
        }
        result = yen_ksp(g, layout, args.source, args.dest, args.k, args.threshold)
        doc["paths"] = [_path_doc(p) for p in result.paths]
        doc["exhausted"] = result.exhausted
        if not result.paths:
            doc["status"] = "no-path"
            doc["message"] = f"no path from {args.source} to {args.dest}"
        if verify_wanted and oracle_fits:
            verify = _verify_ksp(g, args.source, args.dest, args.k, args.threshold, result)
    elif args.command == "2dsp":
        doc["query"] = {
            "source": args.source,
            "dest": args.dest,
            "mode": args.mode,
            "objective": args.objective,
        }
        pair = two_disjoint_shortest(g, args.source, args.dest, args.mode, args.objective)
        if pair is None:
            doc["status"] = "no-disjoint-pair"
            doc["message"] = (
                f"no {args.mode}-disjoint pair of paths from {args.source} to {args.dest}"
            )
            doc["paths"] = []
        else:
            doc["paths"] = [_path_doc(pair.first), _path_doc(pair.second)]
        if verify_wanted and oracle_fits:
            verify = _verify_2dsp(g, args.source, args.dest, args.mode, args.objective, pair)
    elif args.command == "kdisjoint":
        doc["query"] = {"source": args.source, "dest": args.dest, "k": args.k}
        try:
            paths = k_disjoint_all_criteria(g, args.source, args.dest, args.k)
        except NoPathError as exc:
            doc["status"] = "no-path"
            doc["message"] = str(exc)
            doc["paths"] = []
            paths = None
        except InfeasibleError as exc:
            doc["status"] = "infeasible"
            doc["message"] = str(exc)
            doc["paths"] = []
            paths = None
        except TooFewPathsError as exc:
            doc["status"] = "too-few-paths"
            doc["message"] = str(exc)
            doc["paths"] = []
            paths = None
        if paths is not None:
            doc["paths"] = [_path_doc(p) for p in paths]
            if verify_wanted and oracle_fits:
                verify = _verify_kdisjoint(g, args.source, args.dest, paths)

    if verify_wanted:
        if verify is None:
            verify = f"skipped: graph exceeds oracle bound ({DEFAULT_NODE_BOUND} nodes)"
        doc["verify"] = verify
        if verify.startswith("mismatch"):
            doc["status"] = "verify-failed"
            return EXIT_ERROR, doc

    code = EXIT_OK if doc["status"] == "ok" else EXIT_NO_SOLUTION
    return code, doc


def run_cli(argv: Sequence[str]) -> tuple[int, dict]:
    """Execute one query; returns (exit code, result document)."""
    parser = _build_parser()
    try:
        args = parser.parse_args(list(argv))
    except _UsageError as exc:
        return EXIT_ERROR, {"status": "error", "message": str(exc), "format": "text"}
    try:
        return _run_query(args)
    except GraphError as exc:
        return EXIT_ERROR, {
            "command": args.command,
            "format": args.format,
            "status": "error",
            "message": str(exc),
        }
    except (OSError, UnicodeDecodeError) as exc:
        return EXIT_ERROR, {
            "command": args.command,
            "format": args.format,
            "status": "error",
            "message": f"cannot read {args.graph}: {exc}",
        }


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
