"""Text format for multi-criteria graphs.

Header line:  ``mcgraph <directed|undirected> <node_count> <q>``
Edge lines:   ``u v w_1 w_2 ... w_q`` (exactly q weights, whitespace split)
Lines whose first non-blank character is ``#`` are comments; blank lines
are ignored. All tokens are non-negative integers in ASCII digits.
"""

from __future__ import annotations

from .graph import Edge, Graph, GraphError

__all__ = ["HEADER_MAGIC", "parse_graph_file"]

HEADER_MAGIC = "mcgraph"


def _nonneg_int(token: str, what: str, line_no: int) -> int:
    # ``str.isdigit`` alone admits digits such as '²' that int() rejects.
    if not (token.isascii() and token.isdigit()):
        raise GraphError(f"line {line_no}: {what} must be a non-negative integer, got {token!r}")
    try:
        return int(token)
    except ValueError as exc:  # more digits than int() converts
        raise GraphError(f"line {line_no}: {what} is too large: {exc}") from None


def _edge_ints(tokens: list[str], line_no: int) -> list[int]:
    """The tokens of one edge line as integers; names the first bad token."""
    digits = "".join(tokens)
    if digits.isascii() and digits.isdigit():
        try:
            return list(map(int, tokens))
        except ValueError:
            pass  # a token too long for int(); found and named below
    return [
        _nonneg_int(tok, "endpoint" if i < 2 else "weight", line_no)
        for i, tok in enumerate(tokens)
    ]


def parse_graph_file(text: str) -> Graph:
    """Parse the mcgraph format, reporting the offending line on failure.

    Each token is converted once and the ``Edge``s are made from those
    integers with no ``build_graph`` round trip; ``Graph`` validates the
    edges while it builds adjacency.
    """
    header: tuple[bool, int, int] | None = None
    rows: list[list[int]] = []
    edge_lines: list[int] = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        tokens = raw.split()
        if not tokens or tokens[0].startswith("#"):
            continue
        if header is None:
            if len(tokens) != 4 or tokens[0] != HEADER_MAGIC:
                raise GraphError(
                    f"line {line_no}: expected header '{HEADER_MAGIC} "
                    f"<directed|undirected> <node_count> <q>'"
                )
            if tokens[1] not in ("directed", "undirected"):
                raise GraphError(
                    f"line {line_no}: directedness must be 'directed' or 'undirected', "
                    f"got {tokens[1]!r}"
                )
            header = (
                tokens[1] == "directed",
                _nonneg_int(tokens[2], "node count", line_no),
                _nonneg_int(tokens[3], "criterion count", line_no),
            )
            q = header[2]
            continue
        if len(tokens) != 2 + q:
            raise GraphError(
                f"line {line_no}: expected 'u v' plus {q} weights, got {len(tokens)} tokens"
            )
        rows.append(_edge_ints(tokens, line_no))
        edge_lines.append(line_no)
    if header is None:
        raise GraphError("empty input: missing header line")
    directed, node_count, q = header
    # The Edges are made in a pass of their own once every line is read.
    # Made as each line was read, or from one flat list of integers, they
    # gave graphs whose later edge scans ran 20-40 % slower at 5e4 edges
    # (k_disjoint_all_criteria): an effect of where the allocator put the
    # objects, not of more work.
    edges = [Edge(r[0], r[1], tuple(r[2:]), eid) for eid, r in enumerate(rows)]
    try:
        return Graph(directed, node_count, q, edges)
    except GraphError as exc:
        # Point validation failures back at the input line.
        msg = str(exc)
        for idx, line_no in enumerate(edge_lines):
            if msg.startswith(f"edge {idx} "):
                raise GraphError(f"line {line_no}: {msg}") from None
        raise
