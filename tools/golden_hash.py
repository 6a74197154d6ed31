"""Golden hash of the library's seeded outputs on the benchmark's set-ups.

For each of the bench workloads train, eval and analysis and each seed, it
runs the first batches of the workload's loop and hashes what the library
returned: every BatchGraph field, the logits (train steps run backward and
Adam, so later logits cover the gradients too; eval never trains, so it runs
with seeded nonzero biases), the per-query count dicts, and the
PrincipleReport tallies.  A refactor that claims to keep the outputs
unchanged must print the same hash before and after.

    python tools/golden_hash.py [--root CHECKOUT] [--expect HEX]

``--root`` picks the checkout whose ``src/`` and ``bench/`` are imported, so
the script can hash an older commit from a copy of that commit's tree.
``--expect`` makes a byte-identity claim one command: the script exits 1
when the combined digest differs from HEX, and names the workloads whose
digests moved when HEX is a combined digest listed in ``KNOWN``.

The first output line is the BLAS thread count in effect, which the
digests do not depend on: the model's matmuls run as BLAS calls too small
for a second thread.  All digests depend on the numpy version, whose
summation order the segment sums reproduce, so the second line is that
version: digests are comparable only under the same numpy and the same BLAS.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import os
import sys

import numpy as np

SEEDS = (701, 702)
BATCHES = 12  # first batches of each workload's loop, per seed

# Per-workload digests of known combined digests (numpy 2.4.6; one BLAS
# thread up to 5c72e053...), so that --expect can say which workloads moved.
KNOWN = {
    "9b12483b0772e584121d85312250a236f35a73ce862d489784ae722f9a246325": {
        "train": "8a8624f95fc0e08a0297599d5ba813d2a0c56fee03e43fd63977723899c09815",
        "eval": "783056383d347ab9fe38ddf8a7c119a62c3a3df593e85e1eb9c79b33ba08d6f9",
        "analysis": "0992bc98d8e435422e1945ac557a0f30047f6ac2a0ecc8a6e618e6ca445839e6",
    },
    # batches hold only the encoder's layers 1..H-1
    "97b3b378ca212d56b4d7427700119c239a737f818e99f30dcd26b620a697129d": {
        "train": "5ac234b4847f6af60ca4a1885a16890f0e71f639411a3bb59d60ae8abe23236c",
        "eval": "c30492290b984d40cd8ded57e378f40bd7c0aeaa729febaa418155424d02484c",
        "analysis": "0992bc98d8e435422e1945ac557a0f30047f6ac2a0ecc8a6e618e6ca445839e6",
    },
    # train denominators count only the triples a query's mask leaves visible
    "28a1a7e475ab2914c4db1d6f66e21cfc3b998e7cb6a5dd2de55f2d68c6a0d069": {
        "train": "58471aa2f0b0b7baa39d372834a2d1cb152888a559a1d5cbb625898b8cab93ed",
        "eval": "c30492290b984d40cd8ded57e378f40bd7c0aeaa729febaa418155424d02484c",
        "analysis": "0992bc98d8e435422e1945ac557a0f30047f6ac2a0ecc8a6e618e6ca445839e6",
    },
    # eval runs with seeded nonzero biases
    "b1f74ba7e4a06b5da3198ac1685e56618bac96bb02c432bc19a9bfcd558736d7": {
        "train": "58471aa2f0b0b7baa39d372834a2d1cb152888a559a1d5cbb625898b8cab93ed",
        "eval": "4724e801b216870bd28cd7ead3ba09ac9b9bf4a02659828d5b98b15db456b842",
        "analysis": "0992bc98d8e435422e1945ac557a0f30047f6ac2a0ecc8a6e618e6ca445839e6",
    },
    # PrincipleReport drops the fields that could only read True, True and 0
    "5c72e0534bb5f90b984c964fac643dace6c7da7d40e384b9461d3518a0f0667f": {
        "train": "58471aa2f0b0b7baa39d372834a2d1cb152888a559a1d5cbb625898b8cab93ed",
        "eval": "4724e801b216870bd28cd7ead3ba09ac9b9bf4a02659828d5b98b15db456b842",
        "analysis": "264c4c75a627b702361e2596c7faac51b2ea8abae235fd0d17db4b029d89f24d",
    },
    # the weight gradient of matmul sums its row-block products in order
    "86c025e050b66e550aef5b3e0aa4d781e3fd57e1a6c1b11446253611d58c951b": {
        "train": "535e39218a1ef8be001b4895e4cd10cba14dccdef0b27c8daf64b54b0b3ceed4",
        "eval": "4724e801b216870bd28cd7ead3ba09ac9b9bf4a02659828d5b98b15db456b842",
        "analysis": "264c4c75a627b702361e2596c7faac51b2ea8abae235fd0d17db4b029d89f24d",
    },
}


def feed(h, obj) -> None:
    """Canonical bytes of nested arrays, dataclasses, dicts and scalars."""
    if isinstance(obj, np.ndarray):
        h.update(f"a{obj.dtype.str}{obj.shape}".encode())
        h.update(np.ascontiguousarray(obj).tobytes())
    elif dataclasses.is_dataclass(obj):
        h.update(type(obj).__name__.encode())
        for f in dataclasses.fields(obj):
            h.update(f.name.encode())
            feed(h, getattr(obj, f.name))
    elif isinstance(obj, dict):
        for k in sorted(obj):
            h.update(repr(k).encode())
            feed(h, obj[k])
    elif isinstance(obj, (list, tuple)):
        h.update(f"l{len(obj)}".encode())
        for x in obj:
            feed(h, x)
    else:
        h.update(f"{type(obj).__name__}:{obj!r}".encode())


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--root", default=os.path.join(os.path.dirname(__file__), os.pardir))
    ap.add_argument("--expect", metavar="HEX", type=str.lower,
                    help="exit 1 unless the combined digest equals HEX")
    args = ap.parse_args()
    root = os.path.abspath(args.root)
    sys.path[:0] = [os.path.join(root, "src"), os.path.join(root, "bench")]
    from kgpercolate.counting import count_queries
    from kgpercolate.model import ModelConfig
    from spans import NullTracer
    from synth import make_split
    from workloads import LOOPS, WORKLOADS, _graph, blas_threads, set_up

    print(f"{'blas':9s} {blas_threads()} thread(s)")
    print(f"{'numpy':9s} {np.__version__}")
    total = hashlib.sha256()
    digests = {}
    for name in ("train", "eval", "analysis"):
        wl = WORKLOADS[name]
        h = hashlib.sha256()
        for seed in SEEDS:
            split = make_split(seed)
            kg = _graph(split, wl)
            config = ModelConfig(n_base_relations=split.n_relations, horizon=wl.horizon)
            tr = NullTracer()
            s = set_up(kg, config, seed, tr)
            if name == "eval":
                # init_params zeroes every bias, and eval never trains, so
                # seeded biases make the digest cover the bias terms
                rng = np.random.default_rng([seed, 3])
                for k, p in s.params.items():
                    if k.endswith("_b"):
                        p.data[...] = 0.1 * rng.standard_normal(p.data.shape)
            loop = LOOPS[name](split, wl, s, seed)
            for _ in range(BATCHES):
                queries = loop.next_batch()
                out = loop.step(queries, tr)
                if name == "analysis":
                    report, checks = out
                    feed(h, [dataclasses.asdict(c) for c in report.queries])
                    feed(h, checks)
                else:
                    bg, logits = out[0], out[1]
                    feed(h, bg)
                    feed(h, logits)
                    report = count_queries(loop.s.index, [qs.query for qs in queries],
                                           wl.horizon, [qs.removed for qs in queries])
                    feed(h, [dataclasses.asdict(c) for c in report.queries])
        digests[name] = h.hexdigest()
        print(f"{name:9s} {digests[name]}")
        total.update(h.digest())
    print(f"{'all':9s} {total.hexdigest()}")
    if args.expect is not None and total.hexdigest() != args.expect:
        known = KNOWN.get(args.expect)
        moved = ("; moved: " + ", ".join(n for n in digests if digests[n] != known[n])
                 if known else " (its workload digests are not in KNOWN)")
        sys.exit(f"combined digest differs from {args.expect}{moved}")


if __name__ == "__main__":
    main()
