"""Text format for multi-criteria graphs.

Header line:  ``mcgraph <directed|undirected> <node_count> <q>``
Edge lines:   ``u v w_1 w_2 ... w_q`` (exactly q weights, whitespace split)
Lines whose first non-blank character is ``#`` are comments; blank lines
are ignored. All tokens are non-negative integers in ASCII digits.

The parser hands ``Graph`` its edge columns straight from the text: edge
ids follow line order, and no ``Edge`` object is made. It reads the text
in pieces of about 128 KB, each cut right after a line break (a text with
none is one piece), and appends each piece's edge lines to the columns,
so it holds the graph plus one piece's lines and tokens at a time. A
piece's edge lines are joined with a marker token between them and split
once; where the markers fall gives every line's token count, one
``str.translate`` checks every token's digits, and strided slices of the
token list extend the columns. Lines are read one at a time only to name
a bad line, from the whole text again.
"""

from __future__ import annotations

import re
from itertools import chain, islice
from typing import Iterator, NoReturn

from .graph import Graph, GraphError, InvariantError

__all__ = ["HEADER_MAGIC", "parse_graph_file"]

HEADER_MAGIC = "mcgraph"

# Every character str.split() splits on, which is every one str.isspace() admits.
_BLANKS = ("\t\n\x0b\x0c\r\x1c\x1d\x1e\x1f \x85\xa0\u1680\u2000\u2001\u2002\u2003\u2004"
           "\u2005\u2006\u2007\u2008\u2009\u200a\u2028\u2029\u202f\u205f\u3000")
_DIGITS_AND_BLANKS = str.maketrans("", "", "0123456789" + _BLANKS)
# Separates the edge lines once they are joined: a token no edge line holds.
_MARK = ";"
# About how many characters of the text are split into lines and tokens at once.
_PIECE = 1 << 17
# Every line break str.splitlines() splits at, '\r\n' as one.
_BREAK = re.compile("\r\n?|[\n\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029]")


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


def _numbered_rows(lines: list[str], start: int = 1) -> Iterator[tuple[int, list[str]]]:
    """(line number, tokens) of every line that is neither blank nor a comment."""
    for line_no, raw in enumerate(lines, start=start):
        tokens = raw.split()
        if tokens and not tokens[0].startswith("#"):
            yield line_no, tokens


def _pieces(text: str) -> Iterator[list[str]]:
    """The lines of ``text.splitlines()``, in lists of about ``_PIECE`` characters.

    Each piece ends right after the first line break that ends at or past
    ``_PIECE`` characters, '\\r\\n' kept whole, so no line is cut.
    """
    start = 0
    while start < len(text):
        cut = _BREAK.search(text, start + _PIECE - 1)
        end = cut.end() if cut else len(text)
        yield text[start:end].splitlines()
        start = end


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


def _reject(text: str, q: int) -> NoReturn:
    """Raise the error for the first bad edge line of ``text``, read one at a time.

    Called only for a body the bulk checks refused: each line's token
    count, then its tokens, in line order.
    """
    for line_no, tokens in islice(_numbered_rows(text.splitlines()), 1, None):
        if len(tokens) != 2 + q:
            raise GraphError(
                f"line {line_no}: expected 'u v' plus {q} weights, got {len(tokens)} tokens"
            )
        for i, tok in enumerate(tokens):
            _nonneg_int(tok, "endpoint" if i < 2 else "weight", line_no)
    raise InvariantError("the bulk token checks refused text that reads line by line")


def _extend(columns: list[list[int]], body: list[str], q: int) -> bool:
    """Append the integers u, v, w_1..w_q of the edge lines ``body`` to ``columns``.

    Returns False, leaving ``columns`` in any state, if a line is bad.
    ``body`` holds edge lines, none of them blank. They are joined with
    a marker token between lines and split once. Left over after deleting
    ASCII digits and whitespace, the joined text must be just the
    markers: then no line holds a marker of its own and every other token
    is digits. A line holds ``2 + q`` tokens exactly when a marker
    follows every ``2 + q`` tokens, so the columns are strided slices.
    """
    width = 2 + q
    joined = f" {_MARK} ".join(body)
    if joined.translate(_DIGITS_AND_BLANKS) != _MARK * (len(body) - 1):
        return False
    tokens = joined.split()
    stride = width + 1
    if len(tokens) != stride * len(body) - 1 or tokens[width::stride].count(_MARK) != len(body) - 1:
        return False
    if not columns:
        columns.extend([] for _ in range(width))
    try:
        for i, column in enumerate(columns):
            column.extend(map(int, tokens[i::stride]))
    except ValueError:  # a token with more digits than int() converts
        return False
    return True


def parse_graph_file(text: str) -> Graph:
    """Parse the mcgraph format, reporting the offending line on failure.

    The header is the first line that is neither blank nor a comment,
    found piece by piece (``_pieces``). Below it, each piece's lines,
    stripped, with blank and comment lines dropped, are edge lines that
    ``_extend`` checks and appends to the columns. So the parse holds the
    graph's columns plus one piece's lines and tokens at a time. Only
    when a check fails is the whole text split again, to name the first
    bad line, so token errors still come before graph errors.
    """
    pieces = _pieces(text)
    seen = 0  # lines in the pieces before ``lines``
    for lines in pieces:
        header_no, header = next(_numbered_rows(lines, seen + 1), (0, None))
        if header is not None:
            break
        seen += len(lines)
    else:
        raise GraphError("empty input: missing header line")
    directed, node_count, q = _header(header_no, header)
    comments = "#" in text
    columns: list[list[int]] = []
    for lines in chain([lines[header_no - seen:]], pieces):
        # strip() and split() agree on what is blank, so a stripped line is
        # empty exactly when it has no token, and starts with '#' exactly
        # when its first token does.
        body = list(filter(None, map(str.strip, lines)))
        if comments:
            body = [line for line in body if line[0] != "#"]
        if body and not _extend(columns, body, q):
            _reject(text, q)
    # With no edge line, q comes from the header alone: share one empty column.
    tails, heads, *weights = map(tuple, columns) if columns else [()] * (2 + q)
    del columns  # the lists go before Graph() builds the adjacency
    try:
        return Graph(directed, node_count, q, tails, heads, weights)
    except GraphError as exc:
        if exc._edge_index is None:
            raise
        # Edge ids follow the order of the edge lines, which follow the header.
        line_no, _ = next(islice(_numbered_rows(text.splitlines()), exc._edge_index + 1, None))
        raise GraphError(f"line {line_no}: {exc}") from None
