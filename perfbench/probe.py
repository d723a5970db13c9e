"""A fixed reference computation that tracks how fast the host runs right now.

The benchmark's machine shares its host, whose speed drifts by a quarter or
more over minutes. That drift moves every time the benchmark takes, and it
would move the medians of two sets of runs of the same code apart. So the
timed loop runs this probe between calls and rescales each call's times to
the speed the probe had when the benchmark was defined:

    time at reference speed = measured time * REFERENCE_MS / probe time

The probe mixes the three kinds of work the workloads do: an interpreted
integer loop (the entropy coder, autograd's per-op overhead), small BLAS
matrix products (the MAE) and elementwise passes over arrays too large for
the first cache levels (SSIM, softmax). Its inputs are fixed and it never
calls the program, so a change to the program moves its times and not the
probe.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# Median probe time on the 2-vCPU machine the benchmark was defined on.
REFERENCE_MS = 2.75
REPEATS = 3

_MATRIX = np.random.default_rng(0).random((128, 128))
_VECTOR = np.random.default_rng(1).random(50_000)


def _once() -> float:
    t0 = time.perf_counter()
    total = 0
    for i in range(30_000):
        total += i * i
    for _ in range(5):
        _MATRIX @ _MATRIX
    for _ in range(5):
        np.exp(_VECTOR)
    return 1e3 * (time.perf_counter() - t0)


def probe_ms() -> float:
    """Median of a few probe runs, in ms."""
    return statistics.median(_once() for _ in range(REPEATS))


def scale(before_ms: float, after_ms: float) -> float:
    """Factor that takes a time measured between two probes to reference speed."""
    return 2.0 * REFERENCE_MS / (before_ms + after_ms)
