"""Fixed reference kernels that measure the host's speed between batches.

The benchmark runs on a few vCPUs of a shared host, whose speed drifts by a
half or more within minutes as other tenants load it.  Raw batch times follow
that drift, so runs of the same code disagree by more than any useful bound.
Timing a fixed kernel right before each batch, on the same thread, and
dividing each batch's time by the kernel's local median cancels the drift: a
ratio to the kernel moves only when the program's own work does.

Two kernels mirror the two kinds of work the library does: ``python`` is a
breadth-first search over a fixed random graph held in lists and a dict,
interpreter work like layering's and paths' loops; ``numpy`` is a few
element-wise passes over 2 MB arrays, memory-bound array work like the
model's.  Element-wise ufuncs run on one thread and call no BLAS, and
neither kernel calls the library, so no change to the program or to its BLAS
threads changes the kernels' work.  Each kernel runs once untimed first, to
bring its data back into the caches, and the garbage collector is off while
they run, so neither the program's cache footprint nor its heap leaks into
their time.
"""

from __future__ import annotations

import gc
import random
from time import perf_counter

import numpy as np

_N = 3000
_rng = random.Random(20230517)
_ADJ = [[_rng.randrange(_N) for _ in range(3)] for _ in range(_N)]
_X = np.random.default_rng(20230517).standard_normal(1 << 18)
_Y = np.empty_like(_X)


def python_kernel() -> int:
    dist = {0: 0}
    front = [0]
    depth = 0
    while front:
        depth += 1
        nxt = []
        for u in front:
            for v in _ADJ[u]:
                if v not in dist:
                    dist[v] = depth
                    nxt.append(v)
        front = nxt
    return len(dist)


def numpy_kernel() -> float:
    for _ in range(2):
        np.multiply(_X, 1.0001, out=_Y)
        np.add(_Y, _X, out=_Y)
        np.maximum(_Y, 0.0, out=_Y)
    return float(_Y.sum())


KERNELS = {"python": python_kernel, "numpy": numpy_kernel}
RESULTS = {name: fn() for name, fn in KERNELS.items()}


def reference_ms(kernels: tuple[str, ...]) -> float:
    """Milliseconds one warm run of the named kernels takes now, summed."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        total = 0.0
        for name in kernels:
            fn = KERNELS[name]
            fn()
            t0 = perf_counter()
            got = fn()
            total += perf_counter() - t0
            if got != RESULTS[name]:
                raise RuntimeError(f"reference kernel {name} gave a different result")
    finally:
        if enabled:
            gc.enable()
    return total * 1e3


def local_median(values, half_width: int) -> np.ndarray:
    """Median of each value's neighbourhood of ``half_width`` on either side."""
    v = np.asarray(values, dtype=np.float64)
    return np.array([np.median(v[max(0, i - half_width): i + half_width + 1])
                     for i in range(len(v))])
