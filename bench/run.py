"""Run one benchmark workload and print its metrics.

    python3 bench/run.py --workload train|eval|analysis --seed N \\
        --seconds S --trace 0|1

Run it from the repository root: the library is imported from ./src, never
from an installed copy.  The output is the environment, one line per metric
with its unit, and as the last line one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end ones; with ``--trace 1`` they are the
per-layer ones of a traced run, whose spans are also written to
``bench/out/``.  The exit code is 1 when a correctness check failed and 2
when the library is missing; no result line is printed then.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=("train", "eval", "analysis"))
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    src = Path(__file__).resolve().parent.parent / "src"
    if not (src / "kgpercolate" / "__init__.py").is_file():
        print("error: the kgpercolate sources (src/kgpercolate) are missing",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import workloads

    print("env " + json.dumps(workloads.environment()), flush=True)
    res = workloads.run(args.workload, args.seed, args.seconds, bool(args.trace))
    for key, value in res.notes.items():
        print(f"note {key} = {value}")
    for name, (value, unit) in res.metrics.items():
        print(f"metric {name} = {value:.6g} {unit}")
    for err in res.errors[:3]:
        print(err, file=sys.stderr)
    if not res.correct:
        print(f"error: correctness checks failed ({res.failed} of "
              f"{res.attempted} queries, {len(res.errors)} errors)", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": True,
        "attempted": res.attempted,
        "failed": res.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in res.metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
