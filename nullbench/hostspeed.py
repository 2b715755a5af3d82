"""Host-speed probe, so that timings from a drifting host can be compared.

On a shared machine the speed of one core drifts by a quarter or more
within minutes, and CPU time drifts with wall time, so the program's
wall time alone cannot be compared between two runs taken minutes
apart.  The benchmark therefore times this fixed kernel mix (about
10 ms, three times) right before and right after every measured piece of work and
reports

    seconds * REFERENCE_S / probe

(seconds at the host speed where the probe takes REFERENCE_S), next to
the raw seconds.  The mix follows the workloads: an interpreter-bound
Python loop, many numpy calls on 48-element arrays (the sphere grid) and
a few on 128 x 128 tensor fields (the large torus grid).  The kernel is
part of the benchmark and must not change between the commits being
compared.
"""
from __future__ import annotations

import gc
import statistics
from time import perf_counter

import numpy as np

REFERENCE_S = 0.01
_REPEATS = 3


def _kernel(g, d, e):
    acc = 0
    for i in range(50_000):
        acc += i * i
    a = np.linspace(0.0, 1.0, 48)
    b = a + 1.0
    for _ in range(500):
        c = (a + b) * a - b
        b = np.roll(c, 1) * 0.5
    # large fields work in preallocated buffers, so the timing does not
    # depend on the allocator's state
    for _ in range(10):
        np.subtract(g[2:], g[:-2], out=d[1:-1])
        np.einsum("...ab,...ab->...", d, g, out=e)
    return acc


def probe() -> float:
    """Median seconds of a few runs of the kernel mix."""
    g = np.linspace(0.0, 1.0, 128 * 128 * 4).reshape(128, 128, 2, 2)
    d = np.zeros_like(g)
    e = np.zeros((128, 128))
    times = []
    # the collector's cost grows with the caller's live objects (spans of a
    # traced run); the kernel makes no cycles, so keep it out
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(_REPEATS):
            t0 = perf_counter()
            _kernel(g, d, e)
            times.append(perf_counter() - t0)
    finally:
        if gc_was_enabled:
            gc.enable()
    return statistics.median(times)


def normalize(seconds: float, probes) -> float:
    """``seconds`` at reference host speed, from the probes taken nearest
    in time to the work (right before and/or right after it)."""
    return seconds * REFERENCE_S / statistics.mean(probes)
