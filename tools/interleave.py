"""In-process A/B of one library call between two checkouts.

Loads ``src/kgpercolate`` of each checkout under its own package name and
times one call on the batches of the bench workload that makes it, in this
checkout's ``bench/workloads.py``: ``build_batch``, ``forward_batch`` and
``eval_batch`` of eval; ``count_queries``, ``verify_percolation_principles``
and ``batch_distances`` of analysis; ``train_step`` of train.  The workload
gives the graph, the horizon and the batch size.  Each side builds its own
index of that graph, and a ``Loop`` on that index draws its batches with
``next_batch``, so a train query's mask holds positions in that side's
index.  Each pair is one batch: the sides take turns on it ``--reps``
times, alternating which runs first, and each keeps its fastest run.  It
prints each side's median batch time and the median, with quartiles, of the
per-pair ratio CHANGED / BASE; a ratio below 1 means CHANGED is faster.

    python tools/interleave.py BASE [CHANGED] --call CALL [--seed N] [--pairs N] [--reps N]

CHANGED defaults to this checkout.  ``count_queries`` and ``build_batch``
run once per batch, ``verify_percolation_principles`` and
``batch_distances`` (with a single query) once per query of the batch.
``forward_batch`` is the untaped forward of eval, default model config.
``eval_batch`` is ``build_batch`` and then ``forward_batch`` on its batch,
the library's whole share of an eval batch; its result is the logits.
``train_step`` is ``forward_batch``, ``sum_all`` of the logits, backward and
one Adam step at the bench's rate, default model config.  ``forward_batch``
and ``train_step`` build the ``BatchGraph`` before the timer starts.  Every
train step starts from the seeded parameters and a fresh Adam, since
repeated steps on the unbounded ``sum_all`` loss overflow within about a
hundred steps.  The host's speed drifts by up to 1.5x between separate
runs, so a small difference is visible only in pairs this close.

Before a pair's timed runs, both sides run its batch once outside the timer
and their results are compared field by field (dataclass fields, array
dtypes, shapes and bytes, dict keys and values; for ``train_step`` the
logits, every parameter's gradient and the updated parameters); when they
differ the script names the call and the pair and exits 1, so an A/B never
times two programs that compute different things, and checks equality over
all of its batches.
"""

from __future__ import annotations

import argparse
import dataclasses
import importlib
import importlib.util
import os
import sys
from time import perf_counter
from types import SimpleNamespace

import numpy as np

HERE = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir))
# each call -> the bench workload whose batches it times
CALLS = {"build_batch": "eval", "forward_batch": "eval", "eval_batch": "eval",
         "count_queries": "analysis", "verify_percolation_principles": "analysis",
         "batch_distances": "analysis", "train_step": "train"}


def load(root: str, name: str):
    """``<root>/src/kgpercolate`` imported as the package ``name``."""
    pkg = os.path.join(os.path.abspath(root), "src", "kgpercolate")
    spec = importlib.util.spec_from_file_location(
        name, os.path.join(pkg, "__init__.py"), submodule_search_locations=[pkg])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def side(pkg, graph, call: str, horizon: int, lr: float, seed: int):
    """(index, prepare, run) of the package ``pkg`` on its own index of
    ``graph``: ``prepare`` turns a batch of QuerySpecs into the call's input
    before the timer starts, and ``run`` is the timed call on that input."""
    ad, kg, layering, counting, model, paths = (
        importlib.import_module(f"{pkg.__name__}.{sub}")
        for sub in ("autodiff", "kg", "layering", "counting", "model", "paths"))
    index = kg.build_index(kg.augment(graph))
    builder = layering.SubgraphBuilder(index)
    build = lambda queries: builder.build_batch(queries, horizon)
    heads = lambda queries: [qs.query for qs in queries]
    if call == "build_batch":
        return index, lambda queries: queries, build
    if call == "count_queries":
        return index, heads, lambda ents: counting.count_queries(index, ents, horizon)
    if call == "batch_distances":
        return index, heads, lambda ents: [layering.batch_distances(index, [q], horizon)
                                           for q in ents]
    if call == "verify_percolation_principles":
        return index, heads, lambda ents: [paths.verify_percolation_principles(index, q, horizon)
                                           for q in ents]

    config = model.ModelConfig(n_base_relations=index.n_base_relations, horizon=horizon)
    params = model.init_params(config, seed)
    if call == "forward_batch":
        return index, build, lambda bg: model.forward_batch(params, config, bg).data
    if call == "eval_batch":
        evaluate = lambda queries: model.forward_batch(params, config, build(queries)).data
        return index, lambda queries: queries, evaluate
    seeded = {k: p.data.copy() for k, p in params.items()}

    def train_step(bg):
        for k, p in params.items():
            p.data[...] = seeded[k]
        opt = ad.Adam(params, lr=lr)
        with ad.Tape() as tape:
            logits = model.forward_batch(params, config, bg)
            loss = ad.sum_all(logits)
        tape.backward(loss)
        out = {"logits": logits.data}
        out.update((f"grad {k}", p.grad) for k, p in params.items())
        opt.step()
        opt.zero_grad()
        out.update((f"param {k}", p.data.copy()) for k, p in params.items())
        return out

    return index, build, train_step


def same(a, b) -> bool:
    """Equal results, compared by value across the two packages' types."""
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return (isinstance(a, np.ndarray) and isinstance(b, np.ndarray)
                and a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes())
    if dataclasses.is_dataclass(a):
        names = [f.name for f in dataclasses.fields(a)]
        return (dataclasses.is_dataclass(b) and type(a).__name__ == type(b).__name__
                and names == [f.name for f in dataclasses.fields(b)]
                and all(same(getattr(a, n), getattr(b, n)) for n in names))
    if isinstance(a, dict):
        return isinstance(b, dict) and list(a) == list(b) and all(same(a[k], b[k]) for k in a)
    if isinstance(a, (list, tuple)):
        return type(a) is type(b) and len(a) == len(b) and all(map(same, a, b))
    return type(a) is type(b) and a == b


def run_ms(fn, arg) -> float:
    t0 = perf_counter()
    fn(arg)
    return 1e3 * (perf_counter() - t0)


def at_least(lo: int):
    """An argparse type: an integer of at least ``lo``."""
    def count(text: str) -> int:
        n = int(text)
        if n < lo:
            raise argparse.ArgumentTypeError(f"must be at least {lo}, got {n}")
        return n

    return count


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("base")
    ap.add_argument("changed", nargs="?", default=HERE)
    ap.add_argument("--call", choices=CALLS, required=True)
    ap.add_argument("--seed", type=int, default=901)
    ap.add_argument("--pairs", type=at_least(1), default=60)
    ap.add_argument("--reps", type=at_least(1), default=3)
    args = ap.parse_args()

    sys.path[:0] = [os.path.join(HERE, "src"), os.path.join(HERE, "bench")]
    import workloads
    from synth import make_split

    name = CALLS[args.call]
    wl = workloads.WORKLOADS[name]
    split = make_split(args.seed)
    graph = workloads._graph(split, wl)
    sides = []
    for root, pkg in ((args.base, "kgp_base"), (args.changed, "kgp_changed")):
        index, prepare, run = side(load(root, pkg), graph, args.call, wl.horizon, workloads.LR,
                                   args.seed)
        loop = workloads.Loop(split, wl, SimpleNamespace(index=index), args.seed)
        sides.append((prepare, run, [loop.next_batch() for _ in range(args.pairs)]))
    times = np.full((args.pairs, 2), np.inf)
    for i in range(args.pairs):
        inputs = [prepare(batches[i]) for prepare, _, batches in sides]
        # untimed; on the first pair this also warms both sides up
        base, changed = (run(x) for (_, run, _), x in zip(sides, inputs))
        if not same(base, changed):
            sys.exit(f"error: {args.call} returns different results on the two sides "
                     f"on pair {i}; no ratio is printed")
        for r in range(args.reps):
            for s in ((0, 1) if (i + r) % 2 == 0 else (1, 0)):
                times[i, s] = min(times[i, s], run_ms(sides[s][1], inputs[s]))
    ratio = times[:, 1] / times[:, 0]
    q1, med, q3 = np.percentile(ratio, [25, 50, 75])
    print(f"call      {args.call} (seed {args.seed}, {args.pairs} pairs of {wl.batch_size}-query "
          f"batches, {wl.graph} graph, horizon {wl.horizon})")
    print(f"base      {np.median(times[:, 0]):.3f} ms median  {os.path.abspath(args.base)}")
    print(f"changed   {np.median(times[:, 1]):.3f} ms median  {os.path.abspath(args.changed)}")
    print(f"ratio     {med:.3f} changed/base [q1 {q1:.3f}, q3 {q3:.3f}] on the {name} workload's "
          f"batches, changed faster in {int((ratio < 1).sum())} of {args.pairs} pairs")


if __name__ == "__main__":
    main()
