"""Minor page faults and time per train step, on the benchmark's train set-up.

It builds the bench's train workload for one seed, runs a few untimed
warm-up steps, then times N steps of the train loop in this process and
counts the minor page faults (``ru_minflt``) each one takes.  It prints the
median step time, the mean faults per step and the peak resident set
(``ru_maxrss``).  The bench gates only times and peak memory; this shows
the allocator behaviour behind them.

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
from time import perf_counter

import numpy as np


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
    for _ in range(args.steps):
        queries = loop.next_batch()
        f0 = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        t0 = perf_counter()
        loop.step(queries, tr)
        ms.append((perf_counter() - t0) * 1e3)
        faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - f0)
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(f"blas             {blas_threads()} thread(s)")
    print(f"steps            {args.steps} after {args.warmup} warm-up, seed {args.seed}")
    print(f"step_ms_p50      {np.median(ms):.2f}")
    print(f"minflt_per_step  {np.mean(faults):.1f}")
    print(f"maxrss_mb        {peak:.1f}")


if __name__ == "__main__":
    main()
