"""A fixed reference kernel, timed in a helper process, that tracks host speed.

The benchmark shares its host with other machines' work: the same queries
run up to 50 % slower for seconds or minutes at a time, in every process
of the machine at once, and CPU time rises with wall time, so the guest
cannot tell. ``HostClock`` starts this file as a helper process and,
between queries, has it time one run of a fixed pure-Python graph kernel
(parse an 8000-edge text into adjacency lists, then a heap Dijkstra over
packed integer weights, the same kinds of work the library does). The
helper has its own heap and garbage collector, so nothing the library
does in the benchmark's process changes the kernel's time; only the host
does. ``factor`` turns a run's raw times into times at the host speed on
which the kernel's median was ``NOMINAL_S``.

    python3 bench/reference.py   # times the kernel once per line read
"""

from __future__ import annotations

import heapq
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

# The kernel's median time on the 2-vCPU VM the bounds were set on.
NOMINAL_S = 0.040


def _text() -> str:
    rng = random.Random(0)
    return "\n".join(
        f"{rng.randrange(2000)} {rng.randrange(2000)} "
        f"{rng.randrange(1000)} {rng.randrange(1000)} {rng.randrange(1000)}"
        for _ in range(8000)
    )


def kernel(text: str) -> int:
    adj: dict[int, list[tuple[int, int]]] = {}
    for line in text.split("\n"):
        u, v, a, b, c = map(int, line.split())
        w = (a << 40) | (b << 20) | c
        adj.setdefault(u, []).append((v, w))
        adj.setdefault(v, []).append((u, w))
    dist = {0: 0}
    heap = [(0, 0)]
    while heap:
        d, u = heapq.heappop(heap)
        if d > dist[u]:
            continue
        for v, w in adj.get(u, ()):
            if v not in dist or d + w < dist[v]:
                dist[v] = d + w
                heapq.heappush(heap, (d + w, v))
    return len(dist)


class HostClock:
    """The helper process and the kernel times it has reported."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self._proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve())],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )

    def sample(self) -> None:
        """Time one kernel run; the caller waits, so only one process runs."""
        self._proc.stdin.write("\n")
        self._proc.stdin.flush()
        line = self._proc.stdout.readline()
        if not line:
            raise RuntimeError("reference helper exited")
        self.samples.append(float(line))

    def factor(self) -> float:
        return NOMINAL_S / statistics.median(self.samples)

    def close(self) -> None:
        self._proc.stdin.close()
        try:
            self._proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self._proc.kill()
            self._proc.wait()
        self._proc.stdout.close()

    def __enter__(self) -> HostClock:
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def main() -> None:
    text = _text()
    kernel(text)  # warm-up
    for _ in sys.stdin:
        start = time.perf_counter()
        kernel(text)
        print(time.perf_counter() - start, flush=True)


if __name__ == "__main__":
    main()
