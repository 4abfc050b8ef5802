import json
import subprocess
import sys

import pytest

from mcpaths import GraphError, parse_graph_file
from mcpaths.cli import render, run_cli
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


def test_verify_2dsp(tmp_path):
    p = tmp_path / "cycle.mcg"
    p.write_text("mcgraph undirected 4 1\n0 1 1\n1 2 1\n2 3 1\n3 0 1\n")
    code, doc = run_cli(
        ["2dsp", "--graph", str(p), "--source", "0", "--dest", "2", "--mode", "node",
         "--verify"]
    )
    assert code == 0
    assert doc["verify"] == "ok"


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
