import hashlib
import json
import subprocess
import sys
from itertools import islice

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mcpaths.cli
import mcpaths.graph
from mcpaths import (
    GraphError,
    InfeasibleError,
    NoPathError,
    TooFewPathsError,
    build_graph,
    compute_layout,
    dijkstra,
    extract_path,
    pack,
    parse_graph_file,
    yen_ksp,
)
from mcpaths.cli import _graph_doc, _layout_doc, _path_doc, render, run_cli
from mcpaths.dijkstra import filter_by_threshold
from mcpaths.oracle import VERIFY_PATH_CAP, enumerate_simple_paths
from conftest import subprocess_env

TABLE1 = """\
# four-edge line, three criteria
mcgraph undirected 5 3
0 1 3 4 5
1 2 4 3 2
2 3 1 6 5
3 4 4 7 2
"""

TWO_ROUTE_DIRECTED = """\
mcgraph directed 4 2
0 1 1 1
1 3 1 1
0 2 1 1
2 3 1 1
"""


@pytest.fixture
def table1_file(tmp_path):
    p = tmp_path / "table1.mcg"
    p.write_text(TABLE1)
    return str(p)


@pytest.fixture
def two_route_file(tmp_path):
    p = tmp_path / "routes.mcg"
    p.write_text(TWO_ROUTE_DIRECTED)
    return str(p)


# ---- graph file parsing ----------------------------------------------------


def test_parse_table1():
    g = parse_graph_file(TABLE1)
    assert not g.directed
    assert g.node_count == 5
    assert g.q == 3
    assert g.edge(3).weights == (4, 7, 2)


def test_parse_empty_body():
    g = parse_graph_file("mcgraph directed 3 2\n")
    assert g.node_count == 3
    assert g.edge_count == 0


def test_parse_errors_name_the_line():
    with pytest.raises(GraphError, match="line 2"):
        parse_graph_file("mcgraph undirected 3 2\n0 1 7\n")
    with pytest.raises(GraphError, match="line 1"):
        parse_graph_file("graph undirected 3 2\n")
    with pytest.raises(GraphError, match="line 3"):
        parse_graph_file("mcgraph undirected 3 1\n0 1 2\n0 1 5\n")
    with pytest.raises(GraphError, match="non-negative"):
        parse_graph_file("mcgraph undirected 3 1\n0 1 -2\n")
    with pytest.raises(GraphError, match="header"):
        parse_graph_file("# nothing\n")


@pytest.mark.parametrize(
    "text, message",
    [
        ("mcgraph undirected 3 1\n0 3 2\n",
         "line 2: edge 0 (0, 3): endpoint out of range [0, 3)"),
        ("mcgraph directed 3 1\n\n# c\n1 1 2\n",
         "line 4: edge 0 (1, 1): self-loops are not allowed"),
        ("mcgraph undirected 3 2\n0 1 2\n",
         "line 2: expected 'u v' plus 2 weights, got 3 tokens"),
        ("mcgraph directed 3 1\n0 1 2\n1 0 2\n0 1 4\n",
         "line 4: edge 2 (0, 1): parallel edge"),
        ("mcgraph undirected 3 1\n0 1 2\n  1 0 2\n",
         "line 3: edge 1 (1, 0): parallel edge"),
        ("mcgraph undirected 3 0\n0 1\n", "criterion count must be >= 1, got 0"),
        ("mcgraph undirected 3 1\n0 b 2\n",
         "line 2: endpoint must be a non-negative integer, got 'b'"),
        ("mcgraph undirected 3 2\n0 1 2 +3\n",
         "line 2: weight must be a non-negative integer, got '+3'"),
        ("mcgraph undirected 3 1\n0 1 \u00b2\n",
         "line 2: weight must be a non-negative integer, got '\u00b2'"),
        ("mcgraph undirected \u0663 1\n",
         "line 1: node count must be a non-negative integer, got '\u0663'"),
    ],
)
def test_parse_error_messages_are_pinned(text, message):
    with pytest.raises(GraphError) as info:
        parse_graph_file(text)
    assert str(info.value) == message


def test_parse_rejects_integers_too_long_to_convert():
    with pytest.raises(GraphError, match=r"^line 3: weight is too large: "):
        parse_graph_file("mcgraph undirected 3 1\n0 1 2\n1 2 " + "9" * 5000 + "\n")


# ---- subcommands -------------------------------------------------------------


def test_sp_reproduces_line_graph_route(table1_file):
    code, doc = run_cli(["sp", "--graph", table1_file, "--source", "0", "--dest", "4"])
    assert code == 0
    assert doc["status"] == "ok"
    assert doc["layout"] == {"totals": [12, 20, 14], "bits": [4, 5, 4], "offsets": [9, 4, 0]}
    (path,) = doc["paths"]
    assert path["nodes"] == [0, 1, 2, 3, 4]
    assert path["ensembled"] == "6478"
    assert path["criteria"] == [12, 20, 14]


def test_pack_lists_layout_and_edges(table1_file):
    code, doc = run_cli(["pack", "--graph", table1_file])
    assert code == 0
    assert [e["ensembled"] for e in doc["edges"]] == ["1605", "2098", "613", "2162"]


def test_ksp_exhausts_line_graph(table1_file):
    code, doc = run_cli(
        ["ksp", "--graph", table1_file, "--source", "0", "--dest", "4", "-k", "3"]
    )
    assert code == 0
    assert doc["exhausted"] is True
    assert len(doc["paths"]) == 1


def test_threshold_can_disconnect(table1_file):
    code, doc = run_cli(
        ["sp", "--graph", table1_file, "--source", "0", "--dest", "4", "--threshold", "1606"]
    )
    assert code == 2
    assert doc["status"] == "no-path"


def test_2dsp_subcommand(tmp_path):
    p = tmp_path / "cycle.mcg"
    p.write_text("mcgraph undirected 4 1\n0 1 1\n1 2 1\n2 3 1\n3 0 1\n")
    code, doc = run_cli(
        ["2dsp", "--graph", str(p), "--source", "0", "--dest", "2", "--mode", "edge"]
    )
    assert code == 0
    assert [q["nodes"] for q in doc["paths"]] == [[0, 1, 2], [0, 3, 2]]

    line = tmp_path / "line.mcg"
    line.write_text("mcgraph undirected 3 1\n0 1 1\n1 2 1\n")
    code, doc = run_cli(
        ["2dsp", "--graph", str(line), "--source", "0", "--dest", "2", "--mode", "node"]
    )
    assert code == 2
    assert doc["status"] == "no-disjoint-pair"


def test_kdisjoint_success_and_exhaustion(two_route_file):
    code, doc = run_cli(
        ["kdisjoint", "--graph", two_route_file, "--source", "0", "--dest", "3", "-k", "2"]
    )
    assert code == 0
    assert [q["nodes"] for q in doc["paths"]] == [[0, 1, 3], [0, 2, 3]]

    code, doc = run_cli(
        ["kdisjoint", "--graph", two_route_file, "--source", "0", "--dest", "3", "-k", "3"]
    )
    assert code == 2
    assert doc["status"] == "too-few-paths"
    assert doc["message"] == "There exist no k paths from s to t shortest w.r.t. each criterion c_i"


def test_kdisjoint_infeasible_message(tmp_path):
    p = tmp_path / "conflict.mcg"
    p.write_text("mcgraph directed 4 2\n0 1 1 9\n1 3 1 9\n0 2 9 1\n2 3 9 1\n")
    code, doc = run_cli(["kdisjoint", "--graph", str(p), "--source", "0", "--dest", "3"])
    assert code == 2
    assert doc["status"] == "infeasible"
    assert doc["message"] == "No path from s to t shortest w.r.t. each criterion c_i exist"


# ---- exit codes, determinism, verification -----------------------------------


def test_unknown_subcommand_is_usage_error():
    code, doc = run_cli(["frobnicate"])
    assert code == 1
    assert doc["status"] == "error"


def _usage_error_argvs(graph):
    """Argument vectors the parser refuses, plus a graph file that cannot
    be read and one that is malformed."""
    argvs = [[], ["frobnicate"], ["--graph", "g.mcg"], ["--format", "json"]]
    extras = {
        "pack": [],
        "sp": [["--threshold", "x"], ["-k", "2"]],
        "ksp": [["-k", "x"], ["--threshold", "x"], ["-k"]],
        "2dsp": [["--mode", "both"], ["--objective", "shortest"], ["-k", "2"]],
        "kdisjoint": [["-k", "x"], ["--threshold", "5"]],
    }
    for command, flags in extras.items():
        argvs += [
            [command],
            [command, "--graph"],
            [command, "--graph", "g.mcg", "--format", "xml"],
            [command, "--graph", "g.mcg", "--bogus"],
            [command, "--graph", "g.mcg", "--source", "0"],
        ]
        if command == "pack":
            continue
        ends = ["--graph", "g.mcg", "--source", "0", "--dest", "1"]
        argvs += [
            [command, "--graph", "g.mcg"],
            [command, "--graph", "g.mcg", "--source", "x", "--dest", "1"],
            [command, "--graph", "g.mcg", "--source", "0", "--dest", "-"],
            [command, *ends, "--bogus"],
            *([command, *ends, *flag] for flag in flags),
        ]
    for command in ("pack", "sp"):
        tail = [] if command == "pack" else ["--source", "0", "--dest", "1"]
        for path in ("/nonexistent/g.mcg", graph):
            argvs += [[command, "--graph", path, *tail, "--format", fmt] for fmt in ("text", "json")]
    return argvs


# Computed before the parser was built from the subcommand table, so the
# table-built parser is shown to refuse every argument vector with the
# same bytes. argparse's wording may change between Python releases, so
# the hash is pinned for the release it was computed on.
USAGE_ERRORS = 63
USAGE_ERRORS_SHA256 = {(3, 11): "a57e69e360a1e776e0e7cf96b67555d89568996e70634b54abb6155a4aacaf29"}


def test_usage_error_documents_are_pinned(monkeypatch, tmp_path):
    if sys.version_info[:2] not in USAGE_ERRORS_SHA256:
        pytest.skip("argparse messages are pinned for Python 3.11 only")
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps usage lines at the terminal width
    graph = tmp_path / "bad.mcg"
    graph.write_text("mcgraph undirected 3 2\n0 1 7\n")
    digest = hashlib.sha256()
    argvs = _usage_error_argvs(str(graph))
    for argv in argvs:
        code, doc = run_cli(argv)
        assert code == 1 and doc["status"] == "error", argv
        digest.update(f"{code}\n{render(doc)}\n\0".encode())
    assert len(argvs) == USAGE_ERRORS
    assert digest.hexdigest() == USAGE_ERRORS_SHA256[sys.version_info[:2]]


@pytest.mark.parametrize("argv", [["--help"], *([command, "-h"] for command in mcpaths.cli._COMMANDS)], ids=" ".join)
def test_help_is_a_document(argv):
    code, doc = run_cli(argv)
    assert (code, doc["status"], doc["format"]) == (0, "ok", "text")
    assert doc["message"].startswith(f"usage: mcpaths {argv[0] if len(argv) == 2 else '['}")
    if argv == ["--help"]:
        assert "{pack,sp,ksp,2dsp,kdisjoint}" in doc["message"]


def test_missing_file_is_input_error():
    code, doc = run_cli(["pack", "--graph", "/nonexistent/g.mcg"])
    assert code == 1
    assert doc["status"] == "error"


def test_malformed_file_is_input_error(tmp_path):
    p = tmp_path / "bad.mcg"
    p.write_text("mcgraph undirected 3 2\n0 1 7\n")
    code, doc = run_cli(["sp", "--graph", str(p), "--source", "0", "--dest", "2"])
    assert code == 1
    assert doc["status"] == "error"
    assert "line 2" in doc["message"]


@pytest.mark.parametrize(
    "body, message",
    [
        ("mcgraph undirected 3 1\n0 1 \u00b2\n".encode(),
         "line 2: weight must be a non-negative integer, got '\u00b2'"),
        (b"mcgraph undirected 3 1\n0 1 " + b"7" * 5000 + b"\n", "line 2: weight is too large: "),
        (b"mcgraph undirected 3 1\n0 1 \xff\n", "cannot read "),
    ],
    ids=["superscript-digit", "5000-digit-weight", "not-utf8"],
)
def test_hostile_file_is_input_error(tmp_path, body, message):
    p = tmp_path / "hostile.mcg"
    p.write_bytes(body)
    code, doc = run_cli(["sp", "--graph", str(p), "--source", "0", "--dest", "2"])
    assert code == 1
    assert doc["status"] == "error"
    assert doc["message"].startswith(message)
    assert render(doc).startswith("status: error\nmessage: ")


def test_output_is_deterministic(table1_file):
    args = ["ksp", "--graph", table1_file, "--source", "0", "--dest", "4", "-k", "2",
            "--format", "json"]
    first = render(run_cli(args)[1])
    second = render(run_cli(args)[1])
    assert first == second
    parsed = json.loads(first)
    assert parsed["paths"][0]["ensembled"] == "6478"


def test_reported_paths_validate_against_graph(table1_file):
    g = parse_graph_file(TABLE1)
    _, doc = run_cli(["sp", "--graph", table1_file, "--source", "0", "--dest", "4"])
    for rec in doc["paths"]:
        nodes, edges = rec["nodes"], rec["edges"]
        assert len(nodes) == len(edges) + 1
        for (a, b), eid in zip(zip(nodes, nodes[1:]), edges):
            e = g.edge(eid)
            assert {a, b} == {e.u, e.v}


def test_verify_flag_passes_on_small_graphs(table1_file, two_route_file):
    checks = [
        ["pack", "--graph", table1_file, "--verify"],
        ["sp", "--graph", table1_file, "--source", "0", "--dest", "4", "--verify"],
        ["ksp", "--graph", table1_file, "--source", "0", "--dest", "4", "-k", "2", "--verify"],
        ["kdisjoint", "--graph", two_route_file, "--source", "0", "--dest", "3", "-k", "2",
         "--verify"],
    ]
    for args in checks:
        code, doc = run_cli(args)
        assert code == 0, doc
        assert doc["verify"] == "ok"


@pytest.mark.parametrize(
    "edges, k, status",
    [
        ("0 1 1 5\n", 1, "no-path"),
        ("0 1 1 5\n1 2 1 5\n0 2 5 1\n", 1, "infeasible"),
        ("0 1 1 5\n1 2 1 5\n", 2, "too-few-paths"),
    ],
    ids=["no-path", "infeasible", "too-few-paths"],
)
def test_verify_kdisjoint_negative_answers(tmp_path, edges, k, status):
    p = tmp_path / "g.mcg"
    p.write_text("mcgraph directed 3 2\n" + edges)
    code, doc = run_cli(
        ["kdisjoint", "--graph", str(p), "--source", "0", "--dest", "2", "-k", str(k), "--verify"]
    )
    assert (code, doc["status"], doc["verify"]) == (2, status, "ok")


# Directed, 12 nodes, 59 all-zero arcs: all 2290 simple 5-10 paths are
# all-criteria shortest, and at most 5 of them are edge-disjoint. Plain
# backtracking over every subset of those witnesses runs for minutes.
DENSE_ZERO_ARCS = (
    "0>3 0>5 1>2 1>3 1>7 1>10 1>11 2>3 2>4 2>5 2>6 3>0 3>1 3>4 3>5 3>8 3>9 3>11 4>0 "
    "4>5 4>6 4>8 4>11 5>0 5>3 5>9 5>10 5>11 6>4 6>5 6>7 6>8 6>10 7>1 7>2 7>9 7>10 "
    "8>1 8>2 8>10 9>0 9>5 9>6 9>7 9>8 9>10 10>1 10>2 10>3 10>4 10>5 10>8 10>11 11>0 "
    "11>1 11>2 11>6 11>8 11>9"
)


def test_verify_too_few_paths_on_dense_zero_graph(tmp_path):
    arcs = [arc.split(">") for arc in DENSE_ZERO_ARCS.split()]
    p = tmp_path / "dense.mcg"
    p.write_text("mcgraph directed 12 1\n" + "".join(f"{u} {v} 0\n" for u, v in arcs))
    code, doc = run_cli(
        ["kdisjoint", "--graph", str(p), "--source", "5", "--dest", "10", "-k", "6", "--verify"]
    )
    assert (code, doc["status"], doc["verify"]) == (2, "too-few-paths", "ok")


@pytest.mark.parametrize("error", [NoPathError, InfeasibleError, TooFewPathsError])
def test_verify_kdisjoint_catches_a_wrong_negative_answer(monkeypatch, two_route_file, error):
    def refuse(*args):
        raise error()

    monkeypatch.setattr(mcpaths.cli, "k_disjoint_all_criteria", refuse)
    code, doc = run_cli(
        ["kdisjoint", "--graph", two_route_file, "--source", "0", "--dest", "3", "-k", "2",
         "--verify"]
    )
    assert (code, doc["status"], doc["verify"]) == (1, "verify-failed", "mismatch: oracle answer is ok")


def test_verify_2dsp(tmp_path):
    p = tmp_path / "cycle.mcg"
    p.write_text("mcgraph undirected 4 1\n0 1 1\n1 2 1\n2 3 1\n3 0 1\n")
    code, doc = run_cli(
        ["2dsp", "--graph", str(p), "--source", "0", "--dest", "2", "--mode", "node",
         "--verify"]
    )
    assert code == 0
    assert doc["verify"] == "ok"


def _complete_graph_file(tmp_path, n):
    p = tmp_path / f"k{n}.mcg"
    p.write_text(f"mcgraph undirected {n} 1\n"
                 + "".join(f"{u} {v} {1 + (u + v) % 3}\n" for u in range(n) for v in range(u + 1, n)))
    return str(p)


@pytest.mark.parametrize("cap, verdict", [(16, "ok"), (15, "skipped: more than 15 simple paths")])
def test_verify_stops_at_the_path_cap(monkeypatch, tmp_path, cap, verdict):
    # K5 has exactly 16 simple paths between any two nodes.
    monkeypatch.setattr(mcpaths.cli, "VERIFY_PATH_CAP", cap)
    graph = _complete_graph_file(tmp_path, 5)
    for extra in (["sp"], ["ksp", "-k", "3"]):
        code, doc = run_cli([*extra, "--graph", graph, "--source", "0", "--dest", "4", "--verify"])
        assert (code, doc["status"], doc["verify"]) == (0, "ok", verdict)


def test_verify_skips_a_complete_graph_at_the_node_bound(tmp_path):
    # K12 holds 9,864,101 simple paths between two nodes; none past the
    # cap is enumerated.
    graph = _complete_graph_file(tmp_path, 12)
    for extra in (["sp"], ["ksp", "-k", "4"]):
        code, doc = run_cli([*extra, "--graph", graph, "--source", "0", "--dest", "11", "--verify"])
        assert code == 0
        assert doc["verify"] == f"skipped: more than {mcpaths.cli.VERIFY_PATH_CAP} simple paths"


def test_verify_builds_no_graph_beyond_the_parse(monkeypatch, tmp_path):
    p = tmp_path / "g.mcg"
    p.write_text("mcgraph directed 4 1\n0 1 1\n1 3 1\n0 2 1\n2 3 5\n")
    built = []
    init = mcpaths.graph.Graph.__init__

    def counting(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(mcpaths.graph.Graph, "__init__", counting)
    common = ["--graph", str(p), "--source", "0", "--dest", "3", "--threshold", "5", "--verify"]
    for argv in (["sp", *common], ["ksp", *common, "-k", "2"]):
        built.clear()
        code, doc = run_cli(argv)
        assert (code, doc["verify"], len(doc["paths"])) == (0, "ok", 1)
        assert len(built) == 1


def test_ensembled_strings_roundtrip_to_criteria(table1_file):
    from mcpaths import compute_layout, unpack

    g = parse_graph_file(TABLE1)
    layout = compute_layout(g)
    _, doc = run_cli(["sp", "--graph", table1_file, "--source", "0", "--dest", "4"])
    for rec in doc["paths"]:
        assert list(unpack(layout, int(rec["ensembled"]))) == rec["criteria"]


def test_console_entry_point(table1_file):
    proc = subprocess.run(
        [sys.executable, "-m", "mcpaths.cli", "sp", "--graph", table1_file,
         "--source", "0", "--dest", "4"],
        capture_output=True,
        text=True,
        env=subprocess_env(),
    )
    assert proc.returncode == 0
    assert "ensembled=6478" in proc.stdout


# ---- threshold masks equal the filtered graph --------------------------------


@st.composite
def threshold_queries(draw):
    directed = draw(st.booleans())
    n = draw(st.integers(min_value=1, max_value=12))
    q = draw(st.integers(min_value=1, max_value=3))
    pairs = [(u, v) for u in range(n) for v in range(n) if u != v and (directed or u < v)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=18)) if pairs else []
    weights = st.lists(st.integers(min_value=0, max_value=3), min_size=q, max_size=q)
    g = build_graph(directed, n, q, [(u, v, tuple(draw(weights))) for u, v in chosen])
    packed = sorted({pack(compute_layout(g), e.weights) for e in g.edges})
    # None and 0 drop nothing and everything; the rest cut at or just past
    # an edge weight, where ties decide which edges survive.
    cut = draw(st.sampled_from([None, 0, *packed, *(w + 1 for w in packed)]))
    s, t = (draw(st.integers(min_value=0, max_value=n - 1)) for _ in range(2))
    return g, s, t, cut, draw(st.integers(min_value=1, max_value=4))


def _graph_text(g):
    lines = [f"mcgraph {'directed' if g.directed else 'undirected'} {g.node_count} {g.q}"]
    lines += [" ".join(map(str, (e.u, e.v, *e.weights))) for e in g.edges]
    return "\n".join(lines) + "\n"


def _filtered_docs(g, s, t, cut, k):
    """The sp and ksp documents built by searching the filtered graph."""
    layout = compute_layout(g)
    work = filter_by_threshold(g, layout, cut)
    base = {"graph": _graph_doc(g), "layout": _layout_doc(layout), "status": "ok", "verify": "ok"}
    sp = {**base, "command": "sp", "query": {"source": s, "dest": t, "threshold": cut}}
    try:
        sp["paths"] = [_path_doc(extract_path(dijkstra(work, layout, s), t))]
    except NoPathError as exc:
        sp.update(status="no-path", message=str(exc), paths=[])
    result = yen_ksp(work, layout, s, t, k)
    ksp = {**base, "command": "ksp", "query": {"source": s, "dest": t, "k": k, "threshold": cut},
           "paths": [_path_doc(p) for p in result.paths], "exhausted": result.exhausted}
    if not result.paths:
        ksp.update(status="no-path", message=f"no path from {s} to {t}")
    return sp, ksp


@settings(max_examples=60, deadline=None)
@given(threshold_queries())
def test_threshold_mask_matches_filtered_graph(tmp_path_factory, query):
    g, s, t, cut, k = query
    path = tmp_path_factory.mktemp("mask") / "g.mcg"
    path.write_text(_graph_text(g))
    sp, ksp = _filtered_docs(g, s, t, cut, k)
    common = ["--graph", str(path), "--source", str(s), "--dest", str(t), "--verify"]
    if cut is not None:
        common += ["--threshold", str(cut)]
    for want, argv in ((sp, ["sp", *common]), (ksp, ["ksp", *common, "-k", str(k)])):
        for fmt in ("text", "json"):
            code, doc = run_cli([*argv, "--format", fmt])
            assert doc["verify"] == "ok"
            assert code == (0 if want["status"] == "ok" else 2)
            assert render(doc) == render({**want, "format": fmt})


@st.composite
def verify_queries(draw):
    """Denser graphs than ``threshold_queries``, so that disjoint pairs and
    all-criteria witnesses occur, with weights 0-2 for zeros and ties."""
    directed = draw(st.booleans())
    n = draw(st.integers(min_value=2, max_value=12))
    q = draw(st.integers(min_value=1, max_value=3))
    pairs = [(u, v) for u in range(n) for v in range(n) if u != v and (directed or u < v)]
    m = draw(st.integers(min_value=min(len(pairs), n), max_value=min(len(pairs), 3 * n)))
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True, min_size=m, max_size=m))
    weights = st.lists(st.integers(min_value=0, max_value=2), min_size=q, max_size=q)
    g = build_graph(directed, n, q, [(u, v, tuple(draw(weights))) for u, v in chosen])
    s = draw(st.integers(min_value=0, max_value=n - 1))
    t = draw(st.integers(min_value=0, max_value=n - 1).filter(lambda v: v != s))
    cut = draw(st.sampled_from([None, 1 << 8, 1 << 16]))
    return g, s, t, cut, draw(st.integers(min_value=1, max_value=3))


@settings(max_examples=100, deadline=None)
@given(verify_queries())
def test_verify_agrees_with_oracle(tmp_path_factory, query):
    """``--verify`` reads ok on every answer, positive or negative."""
    g, s, t, cut, k = query
    path = tmp_path_factory.mktemp("verify") / "g.mcg"
    path.write_text(_graph_text(g))
    common = ["--graph", str(path), "--source", str(s), "--dest", str(t), "--verify"]
    threshold = [] if cut is None else ["--threshold", str(cut)]
    runs = [(["sp", *common, *threshold], False), (["ksp", *common, *threshold, "-k", str(k)], False)]
    runs += [
        (["2dsp", *common, "--mode", mode, "--objective", objective], g.directed)
        for mode in ("node", "edge")
        for objective in ("min-total", "each-shortest")
    ]
    runs.append((["kdisjoint", *common, "-k", str(k)], not g.directed))
    for argv, refused in runs:
        code, doc = run_cli(argv)
        if refused or doc["status"] == "error":
            # Within 12 nodes the 2dsp solver refuses only past the path cap.
            if not refused:
                assert doc["message"] == f"exhaustive solver bound exceeded: more than {VERIFY_PATH_CAP} routes"
                assert len(tuple(islice(enumerate_simple_paths(g, s, t), VERIFY_PATH_CAP + 1))) > VERIFY_PATH_CAP
            assert (code, doc["status"]) == (1, "error")
            continue
        assert doc["verify"] == "ok", (argv, doc)
        assert code == (0 if doc["status"] == "ok" else 2)
