"""In-process A/B of one library call between two checkouts.

Loads ``src/kgpercolate`` of each checkout under its own package name, builds
each side's index from the same seeded bench split (``bench/synth.py`` of
this checkout), and times one call on the same fixed batches, alternating
which side runs first.  Each pair is one batch: the sides take turns on it
``--reps`` times, and each keeps its fastest run.  It prints each side's
median batch time and the median, with quartiles, of the per-pair ratio
CHANGED / BASE; a ratio below 1 means CHANGED is faster.

    python tools/interleave.py BASE [CHANGED] --call CALL [--seed N] [--pairs N]

CALL is one of ``batch_distances`` with a single query and
``verify_percolation_principles`` (each once per query of the batch),
``count_queries`` and ``build_batch`` (once per batch).  CHANGED defaults
to this checkout.  The set-up is the eval workload's: the sparse test graph
at horizon 3, batches of 64 held-out queries asked in either direction, no
masks.  The host's speed drifts by up to 1.5x between separate runs, so a
small difference is visible only in pairs this close.

Before timing, both sides run the first batch and their results are compared
field by field (dataclass fields, array dtypes and values, dict keys and
values); when they differ the script names the call and exits 1, so an A/B
never times two programs that compute different things.
"""

from __future__ import annotations

import argparse
import dataclasses
import importlib
import importlib.util
import os
import sys
from time import perf_counter

import numpy as np

HERE = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir))
CALLS = ("batch_distances", "verify_percolation_principles", "count_queries", "build_batch")
HORIZON = 3


def load(root: str, name: str):
    """``<root>/src/kgpercolate`` imported as the package ``name``."""
    pkg = os.path.join(os.path.abspath(root), "src", "kgpercolate")
    spec = importlib.util.spec_from_file_location(
        name, os.path.join(pkg, "__init__.py"), submodule_search_locations=[pkg])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def side(pkg, triples: np.ndarray, n_e: int, n_rel: int, call: str):
    """The call of the package ``pkg`` on its own index, as a function of a batch."""
    kg, layering, counting, paths = (importlib.import_module(f"{pkg.__name__}.{sub}")
                                     for sub in ("kg", "layering", "counting", "paths"))
    graph = kg.make_graph(triples, kg.Vocab([f"e{i}" for i in range(n_e)]),
                          kg.Vocab([f"r{i}" for i in range(n_rel)]))
    index = kg.build_index(kg.augment(graph))
    if call == "build_batch":
        builder = layering.SubgraphBuilder(index)
        return lambda rows: builder.build_batch(
            [layering.QuerySpec(int(h), int(r), int(t)) for h, r, t in rows], HORIZON)
    if call == "count_queries":
        return lambda rows: counting.count_queries(index, rows[:, 0], HORIZON)
    if call == "batch_distances":
        return lambda rows: [layering.batch_distances(index, [int(q)], HORIZON)
                             for q in rows[:, 0]]
    return lambda rows: [paths.verify_percolation_principles(index, int(q), HORIZON)
                         for q in rows[:, 0]]


def same(a, b) -> bool:
    """Equal results, compared by value across the two packages' types."""
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return (isinstance(a, np.ndarray) and isinstance(b, np.ndarray)
                and a.dtype == b.dtype and np.array_equal(a, b))
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


def run_ms(fn, rows) -> float:
    t0 = perf_counter()
    fn(rows)
    return 1e3 * (perf_counter() - t0)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("base")
    ap.add_argument("changed", nargs="?", default=HERE)
    ap.add_argument("--call", choices=CALLS, required=True)
    ap.add_argument("--seed", type=int, default=901)
    ap.add_argument("--pairs", type=int, default=60)
    ap.add_argument("--reps", type=int, default=3)
    ap.add_argument("--batch", type=int, default=64)
    args = ap.parse_args()

    sys.path.insert(0, os.path.join(HERE, "bench"))
    from synth import make_split

    split = make_split(args.seed)
    pool = split.test_queries.astype(np.int64)
    pool = np.concatenate([pool, np.stack([pool[:, 2], pool[:, 1] + split.n_relations,
                                           pool[:, 0]], axis=1)])
    rng = np.random.default_rng([args.seed, 1])
    batches = [pool[rng.integers(0, len(pool), args.batch)] for _ in range(args.pairs)]
    fns = [side(load(root, name), split.test_facts, split.n_test_entities, split.n_relations,
                args.call)
           for root, name in ((args.base, "kgp_base"), (args.changed, "kgp_changed"))]
    base, changed = (fn(batches[0]) for fn in fns)  # also warms both sides up
    if not same(base, changed):
        sys.exit(f"error: {args.call} returns different results on the two sides; "
                 "not timing it")

    times = np.full((args.pairs, 2), np.inf)
    for i, rows in enumerate(batches):
        for r in range(args.reps):
            for s in ((0, 1) if (i + r) % 2 == 0 else (1, 0)):
                times[i, s] = min(times[i, s], run_ms(fns[s], rows))
    ratio = times[:, 1] / times[:, 0]
    q1, med, q3 = np.percentile(ratio, [25, 50, 75])
    print(f"call      {args.call} (seed {args.seed}, {args.pairs} pairs of "
          f"{args.batch}-query batches, test graph, horizon {HORIZON})")
    print(f"base      {np.median(times[:, 0]):.3f} ms median  {os.path.abspath(args.base)}")
    print(f"changed   {np.median(times[:, 1]):.3f} ms median  {os.path.abspath(args.changed)}")
    print(f"ratio     {med:.3f} changed/base [q1 {q1:.3f}, q3 {q3:.3f}], "
          f"changed faster in {int((ratio < 1).sum())} of {args.pairs} pairs")


if __name__ == "__main__":
    main()
