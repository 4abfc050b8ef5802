"""Layer spans recorded from outside the library.

``Tracer.install`` replaces, in every module that imports it, each public
function a module calls across a layer boundary with a wrapper that
records a span: name, start, end, parent span and a few counters read off
the call's arguments or result. ``uninstall`` puts the originals back, so
untraced queries run the library exactly as shipped. Nothing here wraps a
per-edge call such as ``pack``, ``out_arcs`` or ``edge``: their cost would
swamp the work being measured.
"""

from __future__ import annotations

import statistics
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

# Module -> names that module looks up at call time. The package entry
# covers the calls the benchmark itself makes. ``mcpaths.dijkstra`` must be
# found through ``sys.modules``: the package attribute of that name is the
# function, which shadows the submodule.
TARGETS = {
    ("mcpaths", None): ("parse_graph_file", "compute_layout", "yen_ksp",
                        "two_disjoint_shortest", "k_disjoint_all_criteria"),
    ("mcpaths.cli", None): ("run_cli", "render", "parse_graph_file", "compute_layout",
                            "filter_by_threshold", "dijkstra", "extract_path"),
    ("mcpaths.dijkstra", None): ("packed_weights", "shortest_distances"),
    ("mcpaths.ksp", None): ("filter_by_threshold", "packed_weights", "shortest_distances"),
    ("mcpaths.disjoint", None): ("compute_layout", "build_edge_disjoint_gadget",
                                 "build_node_disjoint_gadget", "check_not_rigid",
                                 "solve_2dsp_exhaustive", "abridge", "shortest_distances"),
    ("mcpaths.allcriteria", None): ("compute_layout", "reverse", "shortest_distances",
                                    "aggregate_and_distances", "build_subgraph",
                                    "max_flow_unit", "decompose_flow"),
    # Every Graph construction: parse, reverse, threshold and gadget builds.
    ("mcpaths.graph", "Graph"): ("__init__",),
}
PER_EDGE = frozenset({"pack", "unpack", "out_arcs", "in_arcs", "edge"})


def _counters(name: str, args: tuple, result) -> dict:
    """Work counts read off one call; cheap enough to take inside a span."""
    if name == "fileio.parse_graph_file":
        return {"bytes": len(args[0])}  # the text is ASCII
    if name == "lexweight.compute_layout":
        return {"budget": result.budget}
    if name == "dijkstra.filter_by_threshold":
        offered = args[0].edge_count
        return {"offered": offered if args[2] is not None else 0,
                "dropped": offered - result.edge_count}
    if name == "ksp.yen_ksp":
        return {"paths": len(result.paths)}
    if name.startswith("disjoint.build_"):
        return {"nodes": result.graph.node_count}
    if name == "allcriteria.build_subgraph":
        return {"edges": len(result.edges)}
    if name == "cli.render":
        return {"bytes": len(result)}
    return {}


@dataclass
class Span:
    name: str
    parent: int | None
    start: float
    end: float = 0.0
    counters: dict = field(default_factory=dict)
    error: str | None = None


class Tracer:
    """Spans of one benchmark run, kept in memory."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._originals: list[tuple[object, str, object]] = []

    def _open(self, name: str) -> Span:
        span = Span(name, self._stack[-1] if self._stack else None, 0.0)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span.start = time.perf_counter()
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def root(self, name: str):
        """One query, or the set-up, as a root span."""
        span = self._open(name)
        try:
            yield
        finally:
            self._close(span)

    def _wrap(self, fn):
        name = fn.__module__.removeprefix("mcpaths.") + "." + fn.__qualname__.removesuffix(".__init__")
        tracer = self

        def traced(*args, **kwargs):
            span = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.error = type(exc).__name__
                raise
            finally:
                tracer._close(span)
            span.counters = _counters(name, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Wrap every target; raise if any is missing, so no layer goes unseen."""
        if self._originals:
            raise RuntimeError("tracer already installed")
        found = []
        for (module_name, cls), names in TARGETS.items():
            owner = sys.modules.get(module_name)
            if owner is None:
                raise RuntimeError(f"trace target module {module_name} is not imported")
            if cls is not None:
                owner = vars(owner)[cls]
            for attr in names:
                if attr in PER_EDGE:
                    raise RuntimeError(f"refusing to trace per-edge call {attr}")
                fn = vars(owner).get(attr)
                if not callable(fn):
                    where = ".".join(filter(None, (module_name, cls, attr)))
                    raise RuntimeError(f"trace target {where} is missing")
                found.append((owner, attr, fn))
        for owner, attr, fn in found:
            setattr(owner, attr, self._wrap(fn))
        self._originals = found

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._originals):
            setattr(owner, attr, fn)
        self._originals = []


def layer_metrics(spans: list[Span]) -> dict[str, tuple[float, str]]:
    """Per-layer figures over the ``query`` roots (per query unless noted)."""
    children: dict[int, float] = {}
    root_of: list[int] = []
    for i, sp in enumerate(spans):
        root_of.append(i if sp.parent is None else root_of[sp.parent])
        if sp.parent is not None:
            children[sp.parent] = children.get(sp.parent, 0.0) + (sp.end - sp.start)
    in_query = {i for i, r in enumerate(root_of) if spans[r].name == "query" and i != r}
    nq = max(sum(sp.parent is None and sp.name == "query" for sp in spans), 1)

    def picked(name, everywhere=False):
        return [i for i, sp in enumerate(spans)
                if sp.name == name and (everywhere or i in in_query)]

    def ms(name, self_time=False):
        total = sum(spans[i].end - spans[i].start - (children.get(i, 0.0) if self_time else 0.0)
                    for i in picked(name))
        return 1e3 * total / nq

    def per_query(name):
        return len(picked(name)) / nq

    def mean(name, key, everywhere=False):
        vals = [spans[i].counters[key] for i in picked(name, everywhere) if key in spans[i].counters]
        return statistics.fmean(vals) if vals else 0.0

    def count(name, key, everywhere=False):
        return sum(spans[i].counters.get(key, 0) for i in picked(name, everywhere))

    parses = picked("fileio.parse_graph_file", everywhere=True)
    parse_self = [spans[i].end - spans[i].start - children.get(i, 0.0) for i in parses]
    offered = count("dijkstra.filter_by_threshold", "offered")
    ksp_spans = set(picked("ksp.yen_ksp"))
    ksp_runs = sum(1 for i in picked("dijkstra.shortest_distances")
                   if _has_ancestor(spans, i, ksp_spans))
    ksp_paths = count("ksp.yen_ksp", "paths")
    pairs = picked("disjoint.two_disjoint_shortest")
    refused = sum(spans[i].error == "SolverBoundError" for i in pairs)
    gadget_ms = ms("disjoint.build_edge_disjoint_gadget") + ms("disjoint.build_node_disjoint_gadget")
    gadget_nodes = [spans[i].counters["nodes"]
                    for name in ("disjoint.build_edge_disjoint_gadget", "disjoint.build_node_disjoint_gadget")
                    for i in picked(name) if "nodes" in spans[i].counters]

    return {
        "fileio.parse_ms": (1e3 * statistics.fmean(parse_self) if parses else 0.0, "ms"),
        "fileio.input_bytes": (mean("fileio.parse_graph_file", "bytes", everywhere=True), "bytes"),
        "graph.build_ms": (ms("graph.Graph"), "ms"),
        "graph.builds_per_query": (per_query("graph.Graph"), "count"),
        "graph.reverse_ms": (ms("graph.reverse"), "ms"),
        "lexweight.layout_ms": (ms("lexweight.compute_layout"), "ms"),
        "lexweight.layout_calls_per_query": (per_query("lexweight.compute_layout"), "count"),
        "lexweight.budget_bits": (mean("lexweight.compute_layout", "budget", everywhere=True), "bits"),
        "dijkstra.runs_per_query": (per_query("dijkstra.shortest_distances"), "count"),
        "dijkstra.search_ms": (ms("dijkstra.shortest_distances", self_time=True), "ms"),
        "dijkstra.weights_ms": (ms("dijkstra.packed_weights"), "ms"),
        "dijkstra.threshold_ms": (ms("dijkstra.filter_by_threshold"), "ms"),
        "dijkstra.dropped_edge_ratio": (
            count("dijkstra.filter_by_threshold", "dropped") / offered if offered else 0.0, "ratio"),
        "ksp.self_ms": (ms("ksp.yen_ksp", self_time=True), "ms"),
        "ksp.paths_per_query": (ksp_paths / nq, "count"),
        "ksp.dijkstra_runs_per_path": (ksp_runs / ksp_paths if ksp_paths else 0.0, "count"),
        "disjoint.gadget_ms": (gadget_ms, "ms"),
        "disjoint.gadget_nodes": (statistics.fmean(gadget_nodes) if gadget_nodes else 0.0, "count"),
        "disjoint.rigidity_ms": (ms("disjoint.check_not_rigid"), "ms"),
        "disjoint.solve_ms": (ms("disjoint.solve_2dsp_exhaustive"), "ms"),
        "disjoint.abridge_ms": (ms("disjoint.abridge"), "ms"),
        "disjoint.refused_ratio": (refused / len(pairs) if pairs else 0.0, "ratio"),
        "allcriteria.aggregate_ms": (ms("allcriteria.aggregate_and_distances", self_time=True), "ms"),
        "allcriteria.subgraph_ms": (ms("allcriteria.build_subgraph"), "ms"),
        "allcriteria.maxflow_ms": (ms("allcriteria.max_flow_unit"), "ms"),
        "allcriteria.decompose_ms": (ms("allcriteria.decompose_flow"), "ms"),
        "allcriteria.subgraph_edges": (mean("allcriteria.build_subgraph", "edges"), "count"),
        "cli.run_ms": (ms("cli.run_cli", self_time=True), "ms"),
        "cli.render_ms": (ms("cli.render"), "ms"),
        "cli.doc_bytes": (mean("cli.render", "bytes"), "bytes"),
    }


def _has_ancestor(spans: list[Span], i: int, ancestors: set[int]) -> bool:
    parent = spans[i].parent
    while parent is not None:
        if parent in ancestors:
            return True
        parent = spans[parent].parent
    return False
