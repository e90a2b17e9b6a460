"""A fixed computation that tells how fast the machine runs right now.

The benchmark's host is a few cores of a shared machine whose speed drifts
by ±15–30% over tens of seconds, far more than the program changes a later
version should be judged by. Each workload therefore interleaves samples of
a fixed reference task with its own work and reports its timings in
reference units: a time divided by the mean sample time measured in the
same phase of the same run, times the sample's nominal time. The figures
read as milliseconds (or seconds) on a machine where the task takes exactly
its nominal time.

In-process, the task is one chunk: Dijkstra over a fixed random graph and
a Kalman-like recursion on 5×5 numpy arrays, the two kinds of work of the
program's serving path. Its nominal time is 1 ms. For cold CLI processes
the task is a cold process that runs this file: it starts Python, imports
numpy and runs PROCESS_CHUNKS chunks; its nominal time is 0.25 s. Nothing
in either comes from intentrec, so no change to the program changes their
cost.

    python3 perfbench/reference.py CHUNKS    run the chunks and exit
"""
from __future__ import annotations

import gc
import heapq
import math
import random
import signal
import sys
import time
from contextlib import contextmanager

import numpy as np

CHUNK_NOMINAL_S = 1e-3
PROCESS_CHUNKS = 25
PROCESS_NOMINAL_S = 0.25
WARMUP_CHUNKS = 20

_NODES = 300
_rng = random.Random(20171128)
_GRAPH = [[(_rng.randrange(_NODES), _rng.random()) for _ in range(6)] for _ in range(_NODES)]
_A = np.random.default_rng(20171128).standard_normal((5, 5)) * 0.5
_I = np.eye(5)


def _chunk() -> float:
    inf = math.inf
    dist = {0: 0.0}
    heap = [(0.0, 0)]
    while heap:
        d, u = heapq.heappop(heap)
        if d > dist.get(u, inf):
            continue
        for v, w in _GRAPH[u]:
            nd = d + w
            if nd < dist.get(v, inf):
                dist[v] = nd
                heapq.heappush(heap, (nd, v))
    P = _I
    for _ in range(25):
        S = _A @ P @ _A.T + _I
        K = P @ np.linalg.inv(S)
        P = (_I - K @ _A) @ P * 0.5 + _I * 0.1
    return sum(dist.values()) + float(P.sum())


_EXPECTED = _chunk()


def run_chunks(chunks: int):
    for _ in range(chunks):
        if _chunk() != _EXPECTED:
            raise RuntimeError("the reference computation gave a different result")


class Reference:
    """Accumulates the reference samples taken during one phase of a run."""

    def __init__(self, nominal_s: float = CHUNK_NOMINAL_S):
        self.nominal_s = nominal_s
        self.seconds = 0.0  # in timed samples
        self.spent = 0.0  # in timed samples and untimed warm-up chunks
        self.samples = 0
        run_chunks(WARMUP_CHUNKS)

    def add(self, seconds: float, samples: int = 1):
        self.seconds += seconds
        self.spent += seconds
        self.samples += samples

    def run(self, chunks: int) -> float:
        """Run one untimed chunk, which brings the reference's data back
        into the CPU caches after the program's work, then `chunks` timed
        ones, with the garbage collector off so that the program's heap
        does not add to their time. Returns the seconds spent on all of
        them."""
        enabled = gc.isenabled()
        gc.disable()
        try:
            start = time.perf_counter()
            _chunk()
            t0 = time.perf_counter()
            run_chunks(chunks)
            end = time.perf_counter()
        finally:
            if enabled:
                gc.enable()
        self.add(end - t0, chunks)
        self.spent += t0 - start
        return end - start

    @property
    def sample_s(self) -> float:
        return self.seconds / self.samples

    @property
    def scale(self) -> float:
        """Factor that turns a duration measured during this phase into the
        same duration at the nominal speed."""
        return self.nominal_s / self.sample_s

    @contextmanager
    def sampling(self, interval: float, chunks: int):
        """Run `chunks` chunks every `interval` seconds of wall time (never,
        if 0), from a timer signal, while the body runs. For code timed as a
        whole: subtract the growth of `spent` from its duration."""
        def tick(signum, frame):
            self.run(chunks)

        previous = signal.signal(signal.SIGALRM, tick)
        signal.setitimer(signal.ITIMER_REAL, interval, interval)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, previous)


if __name__ == "__main__":
    run_chunks(int(sys.argv[1]))
