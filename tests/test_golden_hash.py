"""The library's seeded outputs on the benchmark's set-ups are byte for byte
those that ``tools/golden_hash.py`` pins.

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
EXPECT = "5c72e0534bb5f90b984c964fac643dace6c7da7d40e384b9461d3518a0f0667f"


@pytest.mark.skipif(np.__version__ != "2.4.6",
                    reason="the golden digests are defined under numpy 2.4.6")
def test_golden_hash_unchanged():
    run = subprocess.run(
        [sys.executable, os.path.join(ROOT, "tools", "golden_hash.py"), "--expect", EXPECT],
        capture_output=True, text=True, timeout=600,
    )
    assert run.returncode == 0, run.stdout + run.stderr
    assert "analysis  264c4c75a627b702361e2596c7faac51b2ea8abae235fd0d17db4b029d89f24d" in run.stdout
