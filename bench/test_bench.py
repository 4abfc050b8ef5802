"""Tests of the benchmark itself: seeded inputs, answer checks, tracing, output."""

from __future__ import annotations

import dataclasses
import hashlib
import importlib
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import compare  # noqa: E402
import reference  # noqa: E402
import tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

mcpaths = importlib.import_module("mcpaths")
importlib.import_module("mcpaths.cli")


def _digest(seed: int) -> str:
    h = hashlib.sha256()
    for wl in WORKLOADS.values():
        inputs = wl.generate(seed, True)
        for text in inputs.texts:
            h.update(repr((text, inputs.ops)).encode())
    return h.hexdigest()


def test_same_seed_gives_identical_inputs():
    for wl in WORKLOADS.values():
        a, b = wl.generate(3, True), wl.generate(3, True)
        assert a.texts == b.texts and a.ops == b.ops, wl.name
        assert wl.generate(4, True).texts != a.texts, wl.name
    # and in another process with another string-hash seed
    env = dict(os.environ, PYTHONHASHSEED="12345")
    code = "import test_bench; print(test_bench._digest(5))"
    out = subprocess.run([sys.executable, "-c", code], cwd=HERE, env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == _digest(5)


def _answered(wl, inputs, state, want=lambda answer: True):
    for op in inputs.ops:
        answer = wl.run(mcpaths, state, op)
        if want(answer):
            return op, answer
    raise AssertionError(f"no suitable op in {wl.name}")


def _setup(name, tmp_path):
    wl = WORKLOADS[name]
    inputs = wl.generate(2, True)
    wl.prepare(inputs, tmp_path)
    state = wl.load(mcpaths, inputs, tmp_path)
    return wl, inputs, state, wl.checker(mcpaths, inputs, state)


def test_kdisjoint_check_rejects_shared_edges(tmp_path):
    wl, inputs, state, check = _setup("kdisjoint-scale", tmp_path)
    op, paths = _answered(wl, inputs, state)
    assert check(op, paths) is None
    assert check(op, paths[:-1] + paths[:1]) == "paths share an edge"
    assert check(op, paths[:-1]) is not None


def test_cli_check_rejects_wrong_length(tmp_path):
    wl, inputs, state, check = _setup("cli-sp-threshold", tmp_path)
    op, (code, doc, text) = _answered(wl, inputs, state, lambda a: a[0] == 0)
    assert check(op, (code, doc, text)) is None
    bad = json.loads(json.dumps(doc))
    bad["paths"][0]["ensembled"] = str(int(bad["paths"][0]["ensembled"]) + 1)
    assert check(op, (code, bad, text)) is not None
    assert check(op, (2, dict(doc, paths=[]), text)) is not None


def test_ksp_check_rejects_repeated_path(tmp_path):
    wl, inputs, state, check = _setup("ksp-zero", tmp_path)
    op, result = _answered(wl, inputs, state, lambda r: len(r.paths) > 1)
    assert check(op, result) is None
    bad = dataclasses.replace(result, paths=result.paths[:-1] + result.paths[:1])
    assert check(op, bad) is not None


def test_2dsp_check_rejects_swapped_pair_and_needless_refusal(tmp_path):
    wl, inputs, state, check = _setup("2dsp-desk", tmp_path)

    def solved(op):
        try:
            return wl.run(mcpaths, state, op)
        except mcpaths.SolverBoundError:
            return None

    op = next(op for op in inputs.ops if solved(op) is not None)
    first, second = solved(op)
    assert check(op, (first, second)) is None
    assert check(op, (second, first)) is not None
    assert check(op, None) is not None
    edge_op = next(op for op in inputs.ops if op[3] == "edge")
    assert wl.check_refusal(inputs, edge_op) is not None


def test_tracer_restores_originals_and_fails_on_missing_target(monkeypatch):
    original = sys.modules["mcpaths.ksp"].shortest_distances
    t = tracer.Tracer()
    t.install()
    try:
        assert sys.modules["mcpaths.ksp"].shortest_distances is not original
        with t.root("query"):
            g = mcpaths.build_graph(False, 3, 1, [(0, 1, (1,)), (1, 2, (2,))])
            mcpaths.yen_ksp(g, mcpaths.compute_layout(g), 0, 2, 2)
    finally:
        t.uninstall()
    assert sys.modules["mcpaths.ksp"].shortest_distances is original
    metrics = tracer.layer_metrics(t.spans)
    assert metrics["ksp.paths_per_query"][0] == 1
    assert metrics["dijkstra.runs_per_query"][0] >= 1

    monkeypatch.setitem(tracer.TARGETS, ("mcpaths.ksp", None), ("no_such_function",))
    with pytest.raises(RuntimeError, match="no_such_function"):
        tracer.Tracer().install()
    assert sys.modules["mcpaths.ksp"].shortest_distances is original


def test_host_clock_times_the_kernel_and_stops_its_helper():
    with reference.HostClock() as clock:
        clock.sample()
        clock.sample()
        helper = clock._proc
    assert helper.returncode == 0
    assert len(clock.samples) == 2 and min(clock.samples) > 0
    assert clock.factor() == reference.NOMINAL_S / statistics.median(clock.samples)


def test_compare_verdicts():
    parent = [100.0 + i for i in range(10)]
    assert compare.verdict(parent, [80.0 + i for i in range(10)], True, 0.1) == "better"
    assert compare.verdict(parent, [130.0 + i for i in range(10)], True, 0.1) == "worse"
    assert compare.verdict(parent, [101.0 + i for i in range(10)], True, 0.1) == "within bound"
    noisy = [50.0, 150.0] * 5
    assert compare.verdict(noisy, [160.0, 40.0] * 5, True, 0.1) == "unresolved"


def test_tiny_smoke_run_prints_every_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", "all", "--seed", "1",
             "--seconds", "0.2", "--trace", str(trace), "--tiny"],
            capture_output=True, text=True, timeout=300, check=False,
        )
        assert proc.returncode == 0, proc.stderr
        results = [json.loads(line) for line in proc.stdout.splitlines() if line.startswith("{")]
        assert len(results) == len(spec["workloads"])
        for result in results:
            assert result["correct"] and result["attempted"] >= 1 and result["failed"] == 0
            assert sorted(result["metrics"]) == sorted(m["name"] for m in spec[key])
            units = {m["name"]: m["unit"] for m in spec[key]}
            assert all(v["unit"] == units[name] for name, v in result["metrics"].items())
