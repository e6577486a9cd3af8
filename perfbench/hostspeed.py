"""Host speed reference: every end-to-end time is adjusted by it.

The benchmark runs on shared virtual machines whose speed drifts: the
same batch, and a fixed pure-Python loop with it, took up to 1.7x longer
a few minutes apart.  Raw wall times then spread more between runs of
the same code than any useful regression bound.  So the benchmark times
``reference_s()`` with the program idle, next to each operation, and
reports ``adjusted(raw, ref) = raw * NOMINAL_S / ref``: the time the
operation would have taken on a host that runs the loop in ``NOMINAL_S``.
Raw times are printed too.  The loop and ``NOMINAL_S`` are part of the
benchmark and must not change between the commits being compared.
"""

from __future__ import annotations

import time

LOOP = 100_000
# About what the loop took on the 2-vCPU Xeon VM the benchmark was tuned
# on (CPython 3.11); only a scale, so that adjusted figures read like seconds.
NOMINAL_S = 0.006


def reference_s() -> float:
    """Seconds for the fixed loop, best of three."""
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        total = 0
        for i in range(LOOP):
            total += i * i
        best = min(best, time.perf_counter() - t0)
    return best


def adjusted(raw_s: float, ref_s: float) -> float:
    """``raw_s`` scaled to the nominal host speed."""
    return raw_s * NOMINAL_S / ref_s
