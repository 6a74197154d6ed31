"""Minor page faults and time per train step, on the benchmark's train set-up.

It builds the bench's train workload for one seed, runs a few untimed
warm-up steps, then times N steps of the train loop in this process and
counts the minor page faults (``ru_minflt``) each one takes.  It prints the
median step time, the mean faults per step, the CPU time per step of every
thread but the main one (OpenBLAS's workers; from ``/proc/self/task``,
``n/a`` where that is missing) and the peak resident set (``ru_maxrss``).
The bench gates only times and peak memory; this shows the allocator and
BLAS-thread behaviour behind them.

    python tools/step_faults.py [--root CHECKOUT] [--seed N] [--steps N] [--warmup N]

``--root`` picks the checkout whose ``src/`` and ``bench/`` are imported,
so an older commit can be measured from a copy of its tree.  The BLAS
thread count is left as the environment sets it and printed first.
"""

from __future__ import annotations

import argparse
import os
import resource
import sys
import threading
from time import perf_counter

import numpy as np


def other_threads_ticks() -> int | None:
    """utime + stime, in clock ticks, summed over every thread of this
    process but the calling one; None where /proc/self/task is missing."""
    main = str(threading.get_native_id())
    try:
        tids = os.listdir("/proc/self/task")
    except OSError:
        return None
    ticks = 0
    for tid in tids:
        if tid == main:
            continue
        try:
            with open(f"/proc/self/task/{tid}/stat") as f:
                fields = f.read().rsplit(")", 1)[1].split()
        except OSError:  # the thread ended
            continue
        ticks += int(fields[11]) + int(fields[12])  # utime, stime (fields 14, 15)
    return ticks


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--root", default=os.path.join(os.path.dirname(__file__), os.pardir))
    ap.add_argument("--seed", type=int, default=901)
    ap.add_argument("--steps", type=int, default=150)
    ap.add_argument("--warmup", type=int, default=10)
    args = ap.parse_args()
    root = os.path.abspath(args.root)
    sys.path[:0] = [os.path.join(root, "src"), os.path.join(root, "bench")]
    from kgpercolate.model import ModelConfig
    from spans import NullTracer
    from synth import make_split
    from workloads import WORKLOADS, TrainLoop, _graph, blas_threads, set_up

    wl = WORKLOADS["train"]
    split = make_split(args.seed)
    kg = _graph(split, wl)
    config = ModelConfig(n_base_relations=split.n_relations, horizon=wl.horizon)
    tr = NullTracer()
    loop = TrainLoop(split, wl, set_up(kg, config, args.seed, tr), args.seed)
    for _ in range(args.warmup):
        loop.step(loop.next_batch(), tr)
    ms, faults = [], []
    ticks0 = other_threads_ticks()
    for _ in range(args.steps):
        queries = loop.next_batch()
        f0 = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        t0 = perf_counter()
        loop.step(queries, tr)
        ms.append((perf_counter() - t0) * 1e3)
        faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - f0)
    ticks1 = other_threads_ticks()
    worker = ("n/a" if ticks0 is None or ticks1 is None else
              f"{(ticks1 - ticks0) / os.sysconf('SC_CLK_TCK') * 1e3 / args.steps:.2f}")
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(f"blas               {blas_threads()} thread(s)")
    print(f"steps              {args.steps} after {args.warmup} warm-up, seed {args.seed}")
    print(f"step_ms_p50        {np.median(ms):.2f}")
    print(f"minflt_per_step    {np.mean(faults):.1f}")
    print(f"worker_ms_per_step {worker}")
    print(f"maxrss_mb          {peak:.1f}")


if __name__ == "__main__":
    main()
