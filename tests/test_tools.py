"""The measuring scripts under ``tools/`` run against this checkout.

``interleave.py`` draws its batches from the bench's ``Loop``, so a change to
the bench's workloads or to ``Loop`` that breaks it fails here; each run is
an A/A of this checkout against itself with as few batches as it takes.
"""

from __future__ import annotations

import importlib.util
import os
import re
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir))


def _interleave_calls() -> dict[str, str]:
    """``tools/interleave.py``'s ``CALLS``: each call -> its bench workload."""
    spec = importlib.util.spec_from_file_location(
        "interleave", os.path.join(ROOT, "tools", "interleave.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.CALLS


CALL_WORKLOAD = _interleave_calls()


def tool(name: str, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, os.path.join(ROOT, "tools", name), *args],
                          capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("call", sorted(CALL_WORKLOAD))
def test_interleave_times_each_call_on_its_workload(call):
    run = tool("interleave.py", ROOT, "--call", call, "--pairs", "2", "--reps", "1")
    assert run.returncode == 0, run.stdout + run.stderr
    ratio = [line for line in run.stdout.splitlines() if line.startswith("ratio")]
    assert len(ratio) == 1 and f"the {CALL_WORKLOAD[call]} workload's batches" in ratio[0]


def test_interleave_refuses_sides_that_differ(tmp_path):
    shutil.copytree(os.path.join(ROOT, "src"), tmp_path / "src")
    autodiff = tmp_path / "src" / "kgpercolate" / "autodiff.py"
    text = autodiff.read_text()
    assert "\nSTD_EPS = 1e-6" in text
    autodiff.write_text(text.replace("\nSTD_EPS = 1e-6", "\nSTD_EPS = 1e-5"))
    run = tool("interleave.py", str(tmp_path), "--call", "train_step", "--pairs", "2",
               "--reps", "1")
    assert run.returncode == 1
    assert "train_step returns different results" in run.stderr


def test_interleave_compares_every_pair(tmp_path):
    # a copy whose count_queries changes from its second call on agrees on
    # the first pair's untimed run and is caught on the second pair's
    shutil.copytree(os.path.join(ROOT, "src"), tmp_path / "src")
    counting = tmp_path / "src" / "kgpercolate" / "counting.py"
    counting.write_text(counting.read_text() + (
        "\n\n_count_queries, _calls = count_queries, []\n\n\n"
        "def count_queries(*args):\n"
        "    _calls.append(None)\n"
        "    report = _count_queries(*args)\n"
        "    report.queries[0].decoder_triples += len(_calls) > 1\n"
        "    return report\n"))
    run = tool("interleave.py", str(tmp_path), "--call", "count_queries", "--pairs", "2",
               "--reps", "1")
    assert run.returncode == 1
    assert "count_queries returns different results on the two sides on pair 1" in run.stderr


def test_step_faults_prints_its_fields():
    run = tool("step_faults.py", "--steps", "3", "--warmup", "1")
    assert run.returncode == 0, run.stdout + run.stderr
    fields = dict(line.split(None, 1) for line in run.stdout.splitlines())
    assert re.fullmatch(r"(\d+|None) thread\(s\)", fields["blas"])
    for name in ("step_ms_p50", "minflt_per_step", "maxrss_mb"):
        assert float(fields[name]) >= 0
    assert fields["worker_ms_per_step"] == "n/a" or float(fields["worker_ms_per_step"]) >= 0
