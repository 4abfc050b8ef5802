"""Prioritized multi-criteria path queries on weighted graphs.

Three query families share one graph model:

* k shortest simple paths under a strict criterion priority, via
  bit-segment packing of the weight vectors and deviation search;
* two disjoint (node- or edge-) shortest paths, via a two-source
  two-destination rewrite of the instance;
* k edge-disjoint paths simultaneously shortest under every criterion,
  via a shortest-path subgraph and unit-capacity max flow.

The package exports the query API. Pipeline stages stay in their
submodules. Reference implementations live in :mod:`mcpaths.oracle`:
the brute-force queries behind the tests and the CLI ``--verify`` flag,
and the full-map Dijkstra that ``shortest_path`` is tested against.
"""

from .allcriteria import InfeasibleError, TooFewPathsError, k_disjoint_all_criteria
from .dijkstra import Path, shortest_path
from .disjoint import (
    MODE_EDGE,
    MODE_NODE,
    OBJECTIVE_EACH_SHORTEST,
    OBJECTIVE_MIN_TOTAL,
    DisjointPair,
    SolverBoundError,
    two_disjoint_shortest,
)
from .fileio import parse_graph_file
from .graph import Edge, Graph, GraphError, InvariantError, NoPathError, build_graph
from .ksp import KspResult, yen_ksp
from .lexweight import BitLayout, compute_layout, pack, unpack

__all__ = [
    "Edge",
    "Graph",
    "GraphError",
    "InvariantError",
    "NoPathError",
    "build_graph",
    "parse_graph_file",
    "BitLayout",
    "compute_layout",
    "pack",
    "unpack",
    "Path",
    "shortest_path",
    "KspResult",
    "yen_ksp",
    "DisjointPair",
    "MODE_EDGE",
    "MODE_NODE",
    "OBJECTIVE_EACH_SHORTEST",
    "OBJECTIVE_MIN_TOTAL",
    "SolverBoundError",
    "two_disjoint_shortest",
    "InfeasibleError",
    "TooFewPathsError",
    "k_disjoint_all_criteria",
]

__version__ = "0.1.0"
