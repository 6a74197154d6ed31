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
EXPECT = "b1f74ba7e4a06b5da3198ac1685e56618bac96bb02c432bc19a9bfcd558736d7"


@pytest.mark.skipif(np.__version__ != "2.4.6",
                    reason="the golden digests are defined under numpy 2.4.6")
def test_golden_hash_unchanged():
    run = subprocess.run(
        [sys.executable, os.path.join(ROOT, "tools", "golden_hash.py"), "--expect", EXPECT],
        capture_output=True, text=True, timeout=600,
    )
    assert run.returncode == 0, run.stdout + run.stderr
    assert "analysis  0992bc98d8e435422e1945ac557a0f30047f6ac2a0ecc8a6e618e6ca445839e6" in run.stdout
