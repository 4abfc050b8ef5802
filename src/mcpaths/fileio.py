"""Text format for multi-criteria graphs.

Header line:  ``mcgraph <directed|undirected> <node_count> <q>``
Edge lines:   ``u v w_1 w_2 ... w_q`` (exactly q weights, whitespace split)
Lines whose first non-blank character is ``#`` are comments; blank lines
are ignored. All tokens are non-negative integers in ASCII digits.

The parser hands ``Graph`` its edge columns straight from the text: edge
ids follow line order, and no ``Edge`` object is made.
"""

from __future__ import annotations

from itertools import islice
from typing import Iterator, NoReturn

from .graph import Graph, GraphError, InvariantError

__all__ = ["HEADER_MAGIC", "parse_graph_file"]

HEADER_MAGIC = "mcgraph"


def _digits(token: str) -> bool:
    # ``str.isdigit`` alone admits digits such as '²' that int() rejects.
    return token.isascii() and token.isdigit()


def _nonneg_int(token: str, what: str, line_no: int) -> int:
    if not _digits(token):
        raise GraphError(f"line {line_no}: {what} must be a non-negative integer, got {token!r}")
    try:
        return int(token)
    except ValueError as exc:  # more digits than int() converts
        raise GraphError(f"line {line_no}: {what} is too large: {exc}") from None


def _numbered_rows(text: str) -> Iterator[tuple[int, list[str]]]:
    """(line number, tokens) of every line that is neither blank nor a comment."""
    for line_no, raw in enumerate(text.splitlines(), start=1):
        tokens = raw.split()
        if tokens and not tokens[0].startswith("#"):
            yield line_no, tokens


def _reject(text: str) -> NoReturn:
    """Raise the error for the first bad line, reading one line at a time.

    Called only for text the bulk checks refused. Header faults come
    first, then each edge line's token count and tokens in line order.
    """
    q = None
    for line_no, tokens in _numbered_rows(text):
        if q is None:
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
            _nonneg_int(tokens[2], "node count", line_no)
            q = _nonneg_int(tokens[3], "criterion count", line_no)
            continue
        if len(tokens) != 2 + q:
            raise GraphError(
                f"line {line_no}: expected 'u v' plus {q} weights, got {len(tokens)} tokens"
            )
        for i, tok in enumerate(tokens):
            _nonneg_int(tok, "endpoint" if i < 2 else "weight", line_no)
    if q is None:
        raise GraphError("empty input: missing header line")
    raise InvariantError("the bulk token checks refused text that reads line by line")


def _columns(counts: list[int], tokens: list[str]) -> tuple[bool, int, int, list[list[int]]] | None:
    """Header fields and the integer columns u, v, w_1..w_q, or None if any line is bad.

    ``counts`` holds the token count of each line that is neither blank
    nor a comment, and ``tokens`` all of those lines' tokens in order.
    """
    if not counts or counts[0] != 4:
        return None
    magic, kind, node_count, q = tokens[:4]
    del tokens[:4]
    if magic != HEADER_MAGIC or kind not in ("directed", "undirected") or not _digits(node_count + q):
        return None
    try:
        node_count, q = int(node_count), int(q)
        width = 2 + q
        if any(map(width.__ne__, islice(counts, 1, None))):
            return None
        if tokens and not _digits("".join(tokens)):
            return None
        ints = list(map(int, tokens))
    except ValueError:  # a token with more digits than int() converts
        return None
    if not ints:  # q comes from the header alone: share one empty column
        return kind == "directed", node_count, q, [ints] * width
    return kind == "directed", node_count, q, [ints[i::width] for i in range(width)]


def parse_graph_file(text: str) -> Graph:
    """Parse the mcgraph format, reporting the offending line on failure.

    One pass counts each line's tokens and one split takes them all,
    with comment lines dropped first; then one check covers the token
    counts, one every token's digits, and one ``map(int, ...)`` converts
    them all, sliced into the columns. Only when a check fails is the
    text read again line by line to name the first bad line, so token
    errors still come before graph errors.
    """
    lines = text.splitlines()
    if "#" in text:
        # A comment's first token starts with '#': its first non-blank
        # character, as split() and lstrip() agree on what is blank.
        lines = [line for line in lines if not line.lstrip().startswith("#")]
    counts = list(filter(None, map(len, map(str.split, lines))))
    parsed = _columns(counts, " ".join(lines).split())
    if parsed is None:
        _reject(text)
    directed, node_count, q, (tails, heads, *weights) = parsed
    try:
        return Graph(directed, node_count, q, tails, heads, weights)
    except GraphError as exc:
        # Point validation failures back at the input line; edge ids
        # follow the order of the edge lines.
        msg = str(exc)
        edge_lines = [line_no for line_no, _ in _numbered_rows(text)][1:]
        for idx, line_no in enumerate(edge_lines):
            if msg.startswith(f"edge {idx} "):
                raise GraphError(f"line {line_no}: {msg}") from None
        raise
