"""One pinned hash over the CLI's documents for seeded hostile graph files.

Each file is a small valid graph with one to three faults spliced in: bad
headers, wrong token counts, signed, non-ASCII and oversized tokens,
self-loops, out-of-range endpoints, parallel edges in both orientations,
duplicate lines, interleaved comments and blanks, ``\\r\\n``, ``\\x0c`` and
ideographic spaces, and empty bodies. Files with several faults pin which
fault is reported first. ``sp`` and ``pack`` run on every file; a change
meant to leave every message alone must leave ``PARSE_ERRORS_SHA256``
alone. Every node count stays small, so no file allocates more than a
desk-sized graph.
"""

import hashlib
import random
import sys

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from mcpaths import GraphError, build_graph, fileio, parse_graph_file
from mcpaths.cli import render, run_cli

SEED = 20261019
FILES = 200
PARSE_ERRORS_SHA256 = "7a0d3e2f2407dad1214bd7fd935b0fb330677bb2a99247e0939d8d1a425878f6"


def _valid_lines(rng: random.Random) -> tuple[list[str], list[tuple[int, int]], int, int]:
    directed = rng.random() < 0.5
    n = rng.randint(2, 8)
    q = rng.randint(1, 3)
    pairs = [(u, v) for u in range(n) for v in range(n) if u != v and (directed or u < v)]
    chosen = rng.sample(pairs, min(len(pairs), rng.randint(1, 2 * n)))
    lines = [f"mcgraph {'directed' if directed else 'undirected'} {n} {q}"]
    lines += [" ".join(map(str, (u, v, *(rng.randint(0, 9) for _ in range(q))))) for u, v in chosen]
    return lines, chosen, n, q


def _edge_line(rng: random.Random, n: int, q: int, u: int | None = None, v: int | None = None) -> str:
    u = rng.randrange(n) if u is None else u
    v = rng.randrange(n) if v is None else v
    return " ".join(map(str, (u, v, *(rng.randint(0, 9) for _ in range(q)))))


def _bad_token(rng: random.Random) -> str:
    return rng.choice(("+3", "-1", "²", "４", "٣", "3.0", "x", "0x1", "9" * 5000, "1_0"))


def _fault(rng: random.Random, lines: list[str], pairs: list[tuple[int, int]], n: int, q: int) -> None:
    """Splice one fault into ``lines``, the header and the edge lines of ``pairs``."""
    kind = rng.randrange(16)
    at = rng.randint(1, len(lines))  # an insertion point after the header
    if kind == 0:  # bad header
        lines[0] = rng.choice((
            f"mcgraph directed {n}",
            f"mcgrap undirected {n} {q}",
            f"mcgraph both {n} {q}",
            f"mcgraph directed -{n} {q}",
            f"mcgraph directed {n} 0",
            f"mcgraph undirected ４ {q}",
            f"mcgraph directed {n} +{q}",
            f"mcgraph directed {'9' * 5000} {q}",
            f"MCGRAPH directed {n} {q}",
            f"mcgraph directed {n} {q} extra",
        ))
    elif kind == 1:  # too few or too many tokens
        tokens = _edge_line(rng, n, q).split()
        tokens = tokens[:-1] if rng.random() < 0.5 else tokens + ["1"]
        lines.insert(at, " ".join(tokens))
    elif kind == 2:  # a token int() would take or choke on, but the format does not
        tokens = _edge_line(rng, n, q).split()
        tokens[rng.randrange(len(tokens))] = _bad_token(rng)
        lines.insert(at, " ".join(tokens))
    elif kind == 3:  # self-loop
        u = rng.randrange(n)
        lines.insert(at, _edge_line(rng, n, q, u, u))
    elif kind == 4:  # endpoint out of range
        far = rng.choice((n, n + 1, 10**12))
        lines.insert(at, _edge_line(rng, n, q, *((far, 0) if rng.random() < 0.5 else (0, far))))
    elif kind == 5:  # parallel edge, same orientation
        u, v = rng.choice(pairs)
        lines.insert(at, _edge_line(rng, n, q, u, v))
    elif kind == 6:  # the reverse orientation: parallel only if undirected
        u, v = rng.choice(pairs)
        lines.insert(at, _edge_line(rng, n, q, v, u))
    elif kind == 7 and len(lines) > 1:  # a duplicated line
        lines.insert(at, lines[rng.randint(1, len(lines) - 1)])
    elif kind == 8:  # comments and blanks, anywhere, even before the header
        lines.insert(rng.randint(0, len(lines)), rng.choice(("# note", "", "   ", "\t# x 1 2", "#", "  #0 1 2")))
    elif kind == 9:  # a form feed: a line break to the reader, whitespace to split()
        i = rng.randrange(len(lines))
        lines[i] = lines[i].replace(" ", "\x0c", 1) if rng.random() < 0.5 else lines[i] + "\x0c"
    elif kind == 10:  # an ideographic space: whitespace to split(), not a line break
        i = rng.randrange(len(lines))
        lines[i] = lines[i].replace(" ", "　", rng.randint(1, 2))
    elif kind == 11:  # an empty body
        del lines[1:]
    elif kind == 12:  # a huge but well-formed weight
        tokens = _edge_line(rng, n, q).split()
        tokens[-1] = str(rng.randint(1, 9)) + "0" * rng.randint(20, 60)
        lines.insert(at, " ".join(tokens))
    elif kind == 13:  # a valid edge in the other orientation (parallel when undirected)
        lines.insert(at, _edge_line(rng, n, q, n - 1, 0))
    elif kind == 14:  # tabs and runs of spaces between tokens
        i = rng.randint(1, len(lines) - 1) if len(lines) > 1 else 0
        lines[i] = "\t " + lines[i].replace(" ", "  \t", 1) + "  "
    else:  # a stray non-numeric line
        lines.insert(at, rng.choice(("garbage", "0 1 a", "mcgraph directed 3 1", " ")))


def _file(rng: random.Random) -> tuple[str, int, int]:
    lines, pairs, n, q = _valid_lines(rng)
    for _ in range(rng.choice((1, 1, 2, 3))):
        _fault(rng, lines, pairs, n, q)
    eol = rng.choice(("\n", "\n", "\r\n"))
    text = eol.join(lines) + rng.choice(("", eol))
    s, t = rng.randrange(n), rng.randrange(n)
    return text, s, t


def test_parse_error_documents_hash_is_pinned(tmp_path):
    rng = random.Random(SEED)
    digest = hashlib.sha256()
    codes = set()
    for i in range(FILES):
        text, s, t = _file(rng)
        path = tmp_path / f"h{i}.mcg"
        path.write_bytes(text.encode("utf-8"))
        for argv in (["sp", "--graph", str(path), "--source", str(s), "--dest", str(t)],
                     ["pack", "--graph", str(path)]):
            code, doc = run_cli(argv)
            codes.add(code)
            digest.update(f"{code}\n{render(doc)}\n\0".encode())
    assert codes == {0, 1, 2}
    assert digest.hexdigest() == PARSE_ERRORS_SHA256


# Tokens and separators for random lines. "mcgraph" is left out, so no
# line but the drawn header can read as one, and every node count a
# header names stays at most 64.
_TOKENS = st.one_of(
    st.integers(0, 70).map(str),
    st.integers(0, 10**30).map(str),
    st.sampled_from(("+3", "-1", "²", "４", "٣", "3.0", "x", "#", "#7", "0x1", "00", "9" * 5000,
                     "directed", "undirected")),
)
_BLANKS = st.sampled_from((" ", "  ", "\t", "\x0b", "\x0c", "\x1c", "\x85", "\u2028", "　"))
_EOLS = st.sampled_from(("\n", "\r\n", "\r", "\x0c", "\n\n"))


@st.composite
def _line(draw) -> str:
    tokens = draw(st.lists(_TOKENS, max_size=6))
    return "".join(tok + draw(_BLANKS) for tok in tokens)


@st.composite
def _digit_line(draw) -> str:
    return " ".join(map(str, draw(st.lists(st.integers(0, 9), min_size=2, max_size=5))))


@st.composite
def _header(draw) -> str:
    kind = draw(st.sampled_from(("directed", "undirected", "both")))
    return f"mcgraph {kind} {draw(st.integers(0, 64))} {draw(st.integers(0, 3))}"


@st.composite
def _random_text(draw) -> str:
    lines = [draw(st.one_of(_header(), _line()))]
    lines += draw(st.lists(st.one_of(_digit_line(), _line()), max_size=12))
    return "".join(line + draw(_EOLS) for line in lines)


# Characters a mutation inserts: digits, separators and bad tokens; as
# often, a character that one of str.splitlines() and str.split() breaks
# on and the other does not, or ';', which the parser puts between lines.
_INSERTED = st.one_of(st.sampled_from("0123456789 #\t\n\r\x0c　²+-x"),
                      st.sampled_from("\r\x0b\x1c\x1d\x1e\x1f\x85\xa0\u2028\u2029;"))


@st.composite
def _mutated_text(draw) -> str:
    """A valid graph's text with characters deleted or inserted after its header line."""
    directed = draw(st.booleans())
    n = draw(st.integers(2, 8))
    q = draw(st.integers(1, 3))
    pairs = [(u, v) for u in range(n) for v in range(n) if u != v and (directed or u < v)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True, min_size=1, max_size=12))
    weight = st.integers(0, 20)
    body = "".join(f"\n{u} {v} " + " ".join(str(draw(weight)) for _ in range(q)) for u, v in chosen)
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(1, len(body)))  # past the newline that ends the header
        if draw(st.booleans()) and at < len(body):
            body = body[:at] + body[at + 1:]
        else:
            body = body[:at] + draw(_INSERTED) + body[at:]
    return f"mcgraph {'directed' if directed else 'undirected'} {n} {q}" + body


def _read_lines(text: str):
    """The graph a plain line-by-line reading of ``text`` gives, or None."""
    header, triples = None, []
    for raw in text.splitlines():
        tokens = raw.split()
        if not tokens or tokens[0].startswith("#"):
            continue
        numbers = tokens[2:] if header is None else tokens
        if not all(tok.isascii() and tok.isdigit() for tok in numbers):
            return None
        try:
            ints = list(map(int, numbers))
        except ValueError:  # too many digits
            return None
        if header is None:
            if len(tokens) != 4 or tokens[0] != "mcgraph" or tokens[1] not in ("directed", "undirected"):
                return None
            header = (tokens[1] == "directed", *ints)
        elif len(tokens) != 2 + header[2]:
            return None
        else:
            triples.append((ints[0], ints[1], tuple(ints[2:])))
    try:
        return None if header is None else build_graph(*header, triples)
    except GraphError:
        return None


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow])
@given(st.one_of(_random_text(), _mutated_text()), st.integers(0, 9), st.integers(0, 9))
def test_hostile_text_always_ends_in_a_document(tmp_path, text, s, t):
    path = tmp_path / "g.mcg"
    path.write_bytes(text.encode("utf-8"))
    for argv in (["sp", "--graph", str(path), "--source", str(s), "--dest", str(t)],
                 ["pack", "--graph", str(path)]):
        code, doc = run_cli(argv)
        assert code in (0, 1, 2) and doc["status"]
        render(doc)

    want = _read_lines(text)
    try:
        g = parse_graph_file(text)
    except GraphError:
        assert want is None
        return
    assert want is not None
    assert (g.directed, g.node_count, g.q) == (want.directed, want.node_count, want.q)
    assert g.edges == want.edges
    for u in range(g.node_count):
        assert g.out_arcs(u) == want.out_arcs(u)
        assert g.adjacency(incoming=True)[u] == want.adjacency(incoming=True)[u]


def test_the_parser_deletes_exactly_what_split_splits_on():
    blanks = "".join(c for c in map(chr, range(sys.maxunicode + 1)) if c.isspace())
    assert fileio._BLANKS == blanks
    assert all(len(f"1{c}2".split()) == 2 for c in blanks)


# Every line break of str.splitlines(); the parser may cut a piece after
# any of them, but never inside '\r\n'.
_BREAKS = st.sampled_from(("\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85",
                           "\u2028", "\u2029"))
_FILLERS = st.sampled_from(("", "  ", "# note", "#", "\t# 0 1 2"))


@st.composite
def _pieced_text(draw) -> str:
    """A graph's text with blank and comment lines, some before the header,
    mixed line breaks, and at times a bad header, a parallel edge on the
    first edge line and a bad token on the last."""
    directed = draw(st.booleans())
    n = draw(st.integers(2, 8))
    q = draw(st.integers(1, 3))
    pairs = [(u, v) for u in range(n) for v in range(n) if u != v and (directed or u < v)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=12))
    weight = st.integers(0, 300)
    edges = [f"{u} {v} " + " ".join(str(draw(weight)) for _ in range(q)) for u, v in chosen]
    if edges and draw(st.booleans()):
        edges.insert(1, edges[0])
    if draw(st.booleans()):
        bad = draw(st.sampled_from(("x", "-1", "²", "٣", "3.0", ";", "9" * 5000)))
        edges.append(" ".join(["0", "1", *["1"] * (q - 1), bad]))
    lines = draw(st.lists(_FILLERS, max_size=3))
    kind = draw(st.sampled_from(("directed" if directed else "undirected",) * 3 + ("both",)))
    lines.append(f"mcgraph {kind} {n} {q}")  # named by its line number when bad
    for edge in edges:
        lines += draw(st.lists(_FILLERS, max_size=2)) + [edge]
    last = draw(st.one_of(st.just(""), _BREAKS))
    return "".join(line + draw(_BREAKS) for line in lines[:-1]) + lines[-1] + last


def _parsed(text: str):
    """What ``parse_graph_file`` makes of ``text``: its columns and adjacency, or its error."""
    try:
        g = parse_graph_file(text)
    except GraphError as exc:
        return str(exc)
    adjacency = [[list(m.items()) for m in g.adjacency(incoming)] for incoming in (False, True)]
    return g.directed, g.node_count, g.q, g.tails, g.heads, g.weights, adjacency


@settings(max_examples=300, deadline=None)
@given(_pieced_text(), st.integers(1, 64))
# A parallel edge in the first piece, a bad token in the last: the token wins.
@example("mcgraph directed 30 1\n0 1 5\n0 1 6\n" + "".join(f"{i} {i + 1} 3\n" for i in range(1, 21))
         + "2 0 x\n", 40)
def test_pieces_of_any_size_parse_as_one(text, piece):
    want = _parsed(text)
    default, fileio._PIECE = fileio._PIECE, piece
    try:
        assert [line for lines in fileio._pieces(text) for line in lines] == text.splitlines()
        assert _parsed(text) == want
    finally:
        fileio._PIECE = default
