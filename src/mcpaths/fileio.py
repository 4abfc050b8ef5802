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


def _numbered_rows(lines: list[str]) -> Iterator[tuple[int, list[str]]]:
    """(line number, tokens) of every line that is neither blank nor a comment."""
    for line_no, raw in enumerate(lines, start=1):
        tokens = raw.split()
        if tokens and not tokens[0].startswith("#"):
            yield line_no, tokens


def _header(line_no: int, tokens: list[str]) -> tuple[bool, int, int]:
    """Directedness, node count and criterion count from the header's tokens."""
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
    node_count = _nonneg_int(tokens[2], "node count", line_no)
    return tokens[1] == "directed", node_count, _nonneg_int(tokens[3], "criterion count", line_no)


def _reject(rows: Iterator[tuple[int, list[str]]], q: int) -> NoReturn:
    """Raise the error for the first bad edge line among ``rows``, read one at a time.

    Called only for a body the bulk checks refused: each line's token
    count, then its tokens, in line order.
    """
    for line_no, tokens in rows:
        if len(tokens) != 2 + q:
            raise GraphError(
                f"line {line_no}: expected 'u v' plus {q} weights, got {len(tokens)} tokens"
            )
        for i, tok in enumerate(tokens):
            _nonneg_int(tok, "endpoint" if i < 2 else "weight", line_no)
    raise InvariantError("the bulk token checks refused text that reads line by line")


def _columns(counts: list[int], tokens: list[str], q: int) -> list[list[int]] | None:
    """The integer columns u, v, w_1..w_q of the edge lines, or None if any line is bad.

    ``counts`` holds the token count of each edge line, and ``tokens``
    all of those lines' tokens in order.
    """
    width = 2 + q
    if any(map(width.__ne__, counts)):
        return None
    if tokens and not _digits("".join(tokens)):
        return None
    try:
        ints = list(map(int, tokens))
    except ValueError:  # a token with more digits than int() converts
        return None
    if not ints:  # q comes from the header alone: share one empty column
        return [ints] * width
    return [ints[i::width] for i in range(width)]


def parse_graph_file(text: str) -> Graph:
    """Parse the mcgraph format, reporting the offending line on failure.

    The header is read first. Below it, one pass counts each line's
    tokens and one split takes them all, with comment lines dropped
    first; then one check covers the token counts, one every token's
    digits, and one ``map(int, ...)`` converts them all, sliced into the
    columns. Only when a check fails are the edge lines read again one
    by one to name the first bad line, so token errors still come before
    graph errors.
    """
    lines = text.splitlines()
    rows = _numbered_rows(lines)
    header_no, header = next(rows, (0, None))
    if header is None:
        raise GraphError("empty input: missing header line")
    directed, node_count, q = _header(header_no, header)
    body = lines[header_no:]
    if "#" in text:
        # A comment's first token starts with '#': its first non-blank
        # character, as split() and lstrip() agree on what is blank.
        body = [line for line in body if not line.lstrip().startswith("#")]
    counts = list(filter(None, map(len, map(str.split, body))))
    columns = _columns(counts, " ".join(body).split(), q)
    if columns is None:
        _reject(rows, q)
    tails, heads, *weights = columns
    try:
        return Graph(directed, node_count, q, tails, heads, weights)
    except GraphError as exc:
        if exc._edge_index is None:
            raise
        # Edge ids follow the order of the edge lines, which ``rows`` holds.
        line_no, _ = next(islice(rows, exc._edge_index, None))
        raise GraphError(f"line {line_no}: {exc}") from None
