"""Seeded, closed-loop benchmark for mcpaths.

One run measures one workload in this process, with one client and no
extra threads: each query starts when the one before it has returned.
With ``--trace 0`` a helper process times a fixed reference kernel
between queries, never during one, and the time metrics are scaled by
how fast it ran against its nominal time (see ``reference.py``), so that
slow spells of a shared host do not read as changes of the program.

    python3 bench/run.py --workload ksp-zero --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30 --record runs.jsonl
    python3 bench/run.py --compare parent.jsonl change.jsonl

The last line of a single run is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``. ``--trace 0`` reports the
end-to-end metrics named in ``BENCHMARK.json``; ``--trace 1`` reports the
per-layer metrics from spans taken by wrappers installed from outside
the library (see ``tracer.py``). Every answer is checked after the timed
phase. A documented refusal (``SolverBoundError`` on ``2dsp-desk``) that
the check confirms is counted as ``refused``: it lowers
``answered_ratio`` and counts in the printed ``failed_ratio``, but not in
``failed``, which counts errors and wrong answers only. The program is
imported from ``src/`` of the checkout this file sits in; the run fails
without printing a result if it is not there.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "_work"
# A percentile is reported only with at least ten samples beyond it.
P90_MIN_OPS = 100
# How often the host clock times its kernel: often enough to follow slow
# spells of the host, which last seconds or more.
CLOCK_EVERY_S = 0.5


@dataclass(slots=True)
class Outcome:
    op: tuple
    status: str  # "answer", "refused" or "error"
    answer: object
    seconds: float
    problem: str | None = None


def import_library():
    """Import the checkout's mcpaths afresh, as a new process would."""
    for name in [m for m in sys.modules if m == "mcpaths" or m.startswith("mcpaths.")]:
        del sys.modules[name]
    lib = importlib.import_module("mcpaths")
    importlib.import_module("mcpaths.cli")
    if Path(lib.__file__).resolve().parent != SRC / "mcpaths":
        raise ImportError(f"mcpaths came from {lib.__file__}, not from {SRC}")
    return lib


def timed(wl, lib, state, op) -> Outcome:
    refusal = getattr(lib, wl.refusal) if wl.refusal else ()
    start = time.perf_counter()
    try:
        answer, status = wl.run(lib, state, op), "answer"
    except refusal:
        # Keep nothing: the exception's frames hold the solver's working set.
        answer, status = None, "refused"
    except Exception:  # counted as a failed op and reported after the run
        answer, status = traceback.format_exc(), "error"
    return Outcome(op, status, answer, time.perf_counter() - start)


def closed_loop(wl, lib, state, ops, seconds, tracer=None, clock=None):
    """Run ops back to back until ``seconds`` have passed (at least one op).

    With a tracer, every op runs twice in a row, untraced then traced, so
    both sides of ``trace.overhead_ratio`` cover the same ops. With a
    clock, the reference kernel is timed between ops every
    ``CLOCK_EVERY_S``. Returns the outcomes and the wall time of the loop
    spent on ops.
    """
    plain, traced = [], []
    # Warm-up, untimed and not counted: lazy imports and first-touch
    # allocations are paid once per process, not by the first timed query.
    timed(wl, lib, state, ops[0])
    start = last_sample = time.perf_counter()
    paused = 0.0
    i = 0
    while True:
        op = ops[i % len(ops)]
        i += 1
        plain.append(timed(wl, lib, state, op))
        if tracer is not None:
            tracer.install()
            try:
                with tracer.root("query"):
                    traced.append(timed(wl, lib, state, op))
            finally:
                tracer.uninstall()
        now = time.perf_counter()
        if now - start >= seconds:
            return plain, traced, now - start - paused
        if clock is not None and now - last_sample >= CLOCK_EVERY_S:
            clock.sample()
            last_sample = time.perf_counter()
            paused += last_sample - now


def check(wl, lib, inputs, state, outcomes) -> None:
    verdict = wl.checker(lib, inputs, state)
    for o in outcomes:
        if o.status == "answer":
            o.problem = verdict(o.op, o.answer)
        elif o.status == "refused":
            o.problem = wl.check_refusal(inputs, o.op)
        else:
            o.problem = o.answer


def answered_seconds(outcomes) -> list[float]:
    return sorted(o.seconds for o in outcomes if o.status == "answer" and o.problem is None)


def p50_ms(outcomes) -> float:
    times = answered_seconds(outcomes)
    return 1e3 * statistics.median(times) if times else 0.0


def measure(wl, seed: int, seconds: float, trace: bool, tiny: bool):
    """Returns (result object, human-readable lines)."""
    from reference import NOMINAL_S, HostClock
    from tracer import Tracer, layer_metrics

    # One CPU for this process and the host clock's helper, which inherits
    # the mask: the two never run at once, and the kernel must see the
    # same CPU the queries ran on, since the host slows each one apart.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    inputs = wl.generate(seed, tiny)
    workdir = WORK / f"{wl.name}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        wl.prepare(inputs, workdir)
        if trace:
            lib = import_library()
            tracer = Tracer()
            tracer.install()
            try:
                with tracer.root("setup"):
                    state = wl.load(lib, inputs, workdir)
            finally:
                tracer.uninstall()
            plain, traced, _ = closed_loop(wl, lib, state, inputs.ops, seconds, tracer)
            outcomes = plain + traced
        else:
            setups = []
            with HostClock() as clock:
                for _ in range(1 if tiny else wl.setup_repeats):
                    lib = state = None
                    gc.collect()
                    clock.sample()
                    start = time.perf_counter()
                    lib = import_library()
                    state = wl.load(lib, inputs, workdir)
                    setups.append(time.perf_counter() - start)
                outcomes, _, wall = closed_loop(wl, lib, state, inputs.ops, seconds, clock=clock)
            rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        check(wl, lib, inputs, state, outcomes)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = len(outcomes)
    failed = [o for o in outcomes if o.problem is not None]
    refused = sum(o.status == "refused" and o.problem is None for o in outcomes)
    answered = attempted - len(failed) - refused
    lines = [
        f"workload {wl.name} seed {seed} trace {int(trace)}: attempted {attempted}, "
        f"answered {answered}, refused {refused}, failed {len(failed)}, "
        f"failed_ratio {(len(failed) + refused) / attempted} (refusals included)"
    ]
    lines += [f"failed op {o.op}: {str(o.problem).strip().splitlines()[-1]}" for o in failed[:5]]

    if trace:
        metrics = layer_metrics(tracer.spans)
        untraced = p50_ms(plain)
        metrics["trace.overhead_ratio"] = (p50_ms(traced) / untraced if untraced else 0.0, "ratio")
    else:
        factor = clock.factor()
        lines.append(
            f"host factor {factor} (reference kernel median {statistics.median(clock.samples)} s "
            f"over {len(clock.samples)} samples, nominal {NOMINAL_S} s); raw setup_s "
            f"{statistics.median(setups)} s, query_p50_ms {p50_ms(outcomes)} ms, "
            f"queries_per_s {answered / wall} 1/s"
        )
        metrics = {
            "setup_s": (statistics.median(setups) * factor, "s"),
            "query_p50_ms": (p50_ms(outcomes) * factor, "ms"),
            "queries_per_s": (answered / wall / factor, "1/s"),
            "answered_ratio": (answered / attempted, "ratio"),
            "peak_rss_mb": (rss_mb, "MB"),
        }
        ok_times = answered_seconds(outcomes)
        if len(ok_times) >= P90_MIN_OPS:
            p90 = statistics.quantiles(ok_times, n=10)[-1] * factor
            lines.append(f"query_p90_ms {1e3 * p90} ms (over {len(ok_times)} answered ops)")
        else:
            lines.append(f"query_p90_ms not reported: {len(ok_times)} answered ops < {P90_MIN_OPS}")
    lines += [f"{name} {value} {unit}" for name, (value, unit) in metrics.items()]
    result = {
        "correct": not failed,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    return result, lines


def run_all(args) -> int:
    """Each workload in its own process, so peak RSS is its own."""
    from workloads import WORKLOADS

    code = 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        cmd += ["--tiny"] * args.tiny + (["--record", args.record] if args.record else [])
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        sys.stdout.write(proc.stdout)
        code = code or proc.returncode
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", help="a workload name, or 'all'")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="small inputs, for the benchmark's tests")
    parser.add_argument("--record", help="append each result, with its workload and seed, to this JSON-lines file")
    parser.add_argument("--compare", nargs=2, metavar=("PARENT", "CHANGE"),
                        help="print a verdict per workload and end-to-end metric for two recorded sets")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(HERE))

    if args.compare:
        from compare import compare_files

        print("\n".join(compare_files(*args.compare, ROOT / "BENCHMARK.json")))
        return 0
    if not (SRC / "mcpaths" / "__init__.py").is_file():
        print(f"error: no mcpaths sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args)

    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)} or all")
    result, lines = measure(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), args.tiny)
    print("\n".join(lines))
    if args.record:
        record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                  "trace": args.trace, "tiny": args.tiny, **result}
        with open(args.record, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(record) + "\n")
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
