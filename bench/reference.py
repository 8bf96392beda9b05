"""Fixed loops that measure how fast the CPU runs right now.

On a shared host the speed of the same code drifts by up to ±50 % within
seconds, and for minutes at a time, so raw pass times from two runs differ
by more than a change worth catching. The benchmark measures the current
``slowness()`` right before and right after every timed operation and
divides the operation's time by the mean of the two: the result is the time
the operation would take at the nominal speed, where slowness is 1. The
loops are part of the benchmark, not of medleak, so two commits are scaled
by the same yardstick. Raw times are recorded next to the scaled ones.

The loops mix pure-Python work with many small numpy calls, because medleak
does both and contention slows them by different amounts.
"""

from __future__ import annotations

import gc
import time

# Seconds each loop takes at the nominal speed (about its median on a 2-CPU
# cloud VM with CPython 3.11 and numpy 2). Any fixed values work; they only
# set the unit.
PYTHON_S = 0.020
NUMPY_S = 0.013

_BLOB = bytes(range(256)) * 64
_CHUNKS = [bytes((i * 31 + j) % 256 for j in range(300)) for i in range(64)]


def _python_loop() -> int:
    # dict updates, bytes scanning, string building and sorting: the kinds of
    # interpreter work that parsing and report building do
    counts: dict[int, int] = {}
    for i in range(40_000):
        key = i % 97
        counts[key] = counts.get(key, 0) + (i ^ (i >> 3))
    found = 0
    for _ in range(200):
        found += len(_BLOB.split(b"\x20")) + _BLOB.count(b"ab")
    words = sorted(str(i * 7919 % 10007) for i in range(20_000))
    return found + len(words) + len(counts)


def _numpy_loop() -> float:
    # byte histograms and entropy of short payloads, as the classifiers do
    import numpy as np

    total = 0.0
    for k in range(1_500):
        counts = np.bincount(np.frombuffer(_CHUNKS[k % 64], dtype=np.uint8), minlength=256)
        p = counts[counts > 0] / 300
        total += float(-(p * np.log2(p)).sum())
    return total


def slowness(with_numpy: bool = True) -> float:
    """Time of the loops now over their nominal time, with the garbage
    collector off, so that the size of the caller's heap does not change it.
    ``with_numpy=False`` runs only the pure-Python loop, for callers that
    must not import numpy before they time something (set-up)."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        started = time.perf_counter()
        _python_loop()
        if not with_numpy:
            return (time.perf_counter() - started) / PYTHON_S
        _numpy_loop()
        return (time.perf_counter() - started) / (PYTHON_S + NUMPY_S)
    finally:
        if enabled:
            gc.enable()


def scaled(seconds: float, before: float, after: float) -> float:
    """``seconds`` measured between two slowness readings, at the nominal
    speed."""
    return seconds * 2 / (before + after)
