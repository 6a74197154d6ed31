"""The library's seeded outputs on the benchmark's set-ups are byte for byte
those that ``tools/golden_hash.py`` pins, with one BLAS thread and with two.

The digests are defined under numpy 2.4.6, whose summation order the
segment sums reproduce, so under any other numpy the check is skipped.
"""

from __future__ import annotations

import os
import subprocess
import sys

import numpy as np
import pytest

ROOT = os.path.join(os.path.dirname(__file__), os.pardir)
EXPECT = "86c025e050b66e550aef5b3e0aa4d781e3fd57e1a6c1b11446253611d58c951b"


pytestmark = pytest.mark.skipif(np.__version__ != "2.4.6",
                                reason="the golden digests are defined under numpy 2.4.6")


def golden_hash(expect: str, threads: str = "1") -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join(ROOT, "tools", "golden_hash.py"), "--expect", expect],
        capture_output=True, text=True, timeout=600,
        env={**os.environ, "OPENBLAS_NUM_THREADS": threads},
    )


def test_golden_hash_unchanged():
    for threads in ("1", "2"):
        run = golden_hash(EXPECT, threads)
        assert run.returncode == 0, run.stdout + run.stderr
        assert f"blas      {threads} thread(s)" in run.stdout
        assert ("analysis  264c4c75a627b702361e2596c7faac51b2ea8abae235fd0d17db4b029d89f24d"
                in run.stdout)


def test_golden_hash_names_moved_workloads():
    # 5c72e053... is a KNOWN digest that differs from today's in train alone
    run = golden_hash("5c72e0534bb5f90b984c964fac643dace6c7da7d40e384b9461d3518a0f0667f")
    assert run.returncode == 1, run.stdout + run.stderr
    assert f"all       {EXPECT}" in run.stdout
    assert run.stderr.rstrip().endswith("; moved: train"), run.stderr
