"""Tests of the benchmark's own code: generator, checks, loss, rank rule, spans.

Run from the repository root with ``python -m pytest bench -q``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from kgpercolate.autodiff import Tape, Tensor  # noqa: E402
from kgpercolate.layering import QuerySpec  # noqa: E402

import reference  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer  # noqa: E402
from synth import GraphParams, SplitParams, make_split  # noqa: E402

SMALL = SplitParams(train=GraphParams(400, 3.0, 40, 0.05),
                    test=GraphParams(200, 1.65, 40, 0.05))


def small_setup(seed=0, horizon=3):
    split = make_split(seed, SMALL)
    wl = workloads.Workload("train", horizon, 8, ("python",))
    kg = workloads._graph(split, wl)
    config = workloads.ModelConfig(n_base_relations=split.n_relations, horizon=horizon)
    s = workloads.set_up(kg, config, seed, workloads.NullTracer())
    return split, wl, s


def test_split_is_deterministic_by_seed():
    a, b, c = make_split(7, SMALL), make_split(7, SMALL), make_split(8, SMALL)
    for field in ("train", "test_facts", "test_queries"):
        np.testing.assert_array_equal(getattr(a, field), getattr(b, field))
    assert not np.array_equal(a.train, c.train)


def test_split_shape_and_planted_rule():
    sp = make_split(1)
    for trip, n_e, tpe in ((sp.train, sp.n_train_entities, 3.0),
                           (np.concatenate([sp.test_facts, sp.test_queries]),
                            sp.n_test_entities, 1.65)):
        assert trip.dtype == np.int32 and trip.min() >= 0 and trip[:, [0, 2]].max() < n_e
        assert len(np.unique(trip, axis=0)) == len(trip)
        assert not (trip[:, 0] == trip[:, 2]).any()
        assert abs(len(trip) / n_e - tpe) < 0.15 * tpe
    # every composed triple has a witnessing r_0, r_1 chain in the graph
    tr = sp.train
    r0 = {(h, t) for h, r, t in tr if r == 0}
    r1 = {(h, t) for h, r, t in tr if r == 1}
    mids = {}
    for h, m in r0:
        mids.setdefault(h, set()).add(m)
    comp = tr[tr[:, 1] == sp.n_relations - 1]
    assert len(comp) > 0.02 * len(tr)
    for h, _, t in comp[:200]:
        assert any((m, t) in r1 for m in mids.get(h, ()))


def test_count_check_passes_then_catches_corruption():
    split, wl, s = small_setup()
    loop = workloads.TrainLoop(split, wl, s, seed=0)
    queries = loop.next_batch()
    bg = s.builder.build_batch(queries, wl.horizon)
    failed, counts = workloads.count_check(s.index, queries, bg)
    assert not failed.any()
    assert all(len(q.removed) == 2 for q in queries)

    # drop the first encoder triple of some query, as a stale scratch would
    layer = bg.layers[0]
    victim = int(layer.triple_query[0])
    keep = np.arange(1, layer.num_triples)
    layer.head_node, layer.rel, layer.triple_query = (
        layer.head_node[keep], layer.rel[keep], layer.triple_query[keep])
    failed, _ = workloads.count_check(s.index, queries, bg)
    assert failed[victim] and failed.sum() == 1


def test_filtered_rank_rule():
    split, wl, s = small_setup()
    q = QuerySpec(int(np.argmax(s.index.out_degree)), 0)
    bg = s.builder.build_batch([q, q], 3)
    n = bg.n_nodes // 2
    assert n >= 4
    ents = bg.node_entity[:n]
    logits = np.zeros(bg.n_nodes)
    logits[:n] = np.arange(n)           # query 0: strictly increasing
    bg.answer_nodes[:] = [n // 2, -1]   # query 1: answer outside the horizon
    heads = np.array([0, 0])
    rels = np.array([0, 0])
    n_e = s.index.num_entities
    no_filter = np.array([-1])
    ranks = workloads.filtered_ranks(logits, bg, heads, rels, no_filter, 17, n_e)
    assert ranks[0] == 1 + (n - 1 - n // 2) and ranks[1] == n_e

    # a known true answer scoring above the answer is filtered out
    top = (0 * 17 + 0) * n_e + ents[n - 1]
    ranks = workloads.filtered_ranks(logits, bg, heads, rels, np.array([top]), 17, n_e)
    assert ranks[0] == n - 1 - n // 2

    # a tie counts against the answer
    logits[n - 1] = logits[n // 2]
    ranks = workloads.filtered_ranks(logits, bg, heads, rels, no_filter, 17, n_e)
    assert ranks[0] == 1 + (n - 1 - n // 2)


def test_query_loss_matches_numpy_and_has_gradient():
    split, wl, s = small_setup()
    loop = workloads.TrainLoop(split, wl, s, seed=0)
    bg = s.builder.build_batch(loop.next_batch(), wl.horizon)
    rng = np.random.default_rng(0)
    logits = Tensor(rng.standard_normal(bg.n_nodes), requires_grad=True)
    with Tape() as tape:
        loss, n_valid = workloads.query_loss(logits, bg)
    tape.backward(loss)
    want = 0.0
    for (lo, hi), a in zip(bg.spans, bg.answer_nodes):
        if a >= 0:
            x = logits.data[lo:hi].astype(np.float64)
            want += np.log(np.exp(x - x.max()).sum()) + x.max() - x[a - lo]
    assert n_valid == int((bg.answer_nodes >= 0).sum())
    np.testing.assert_allclose(float(loss.data), want, rtol=1e-5)
    # softmax minus one-hot sums to zero per query with an answer
    for (lo, hi), a in zip(bg.spans, bg.answer_nodes):
        if a >= 0:
            assert abs(logits.grad[lo:hi].sum()) < 1e-5


def test_tracer_self_time_and_coverage():
    tr = Tracer()
    tr.batch = 3
    with tr.span("batch"):
        with tr.span("a"):
            with tr.span("b"):
                sum(range(10000))
        with tr.span("a"):
            pass
    own = tr.self_times()
    root = tr.spans[0][2] - tr.spans[0][1]
    assert abs(own.sum() - root) < 1e-9 and (own >= 0).all()
    per = tr.per_batch()[3]
    assert set(per) == {"batch", "a", "b"}
    assert 0 < tr.coverage("batch")[3] <= 1
    assert tr.count("a") == {3: 2}


def test_runner_refuses_without_library(tmp_path):
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    p = subprocess.run([sys.executable, "bench/run.py", "--workload", "eval",
                        "--seed", "1", "--seconds", "1", "--trace", "0"],
                       cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert p.returncode == 2 and p.stdout == ""


def test_reference_kernels_are_fixed():
    # the kernels' time is the unit of the gated batch metrics: changing a
    # kernel's work changes that unit and breaks comparison with the parent
    assert reference.RESULTS["python"] == 2807
    assert all(reference.reference_ms((k,)) > 0 for k in reference.KERNELS)
    loc = reference.local_median([5.0, 1.0, 2.0, 9.0, 3.0], 1)
    np.testing.assert_array_equal(loc, [3.0, 2.0, 2.0, 3.0, 6.0])


@pytest.mark.parametrize("name", ["train", "eval", "analysis"])
@pytest.mark.parametrize("trace", [False, True])
def test_short_run_is_correct(name, trace, monkeypatch):
    monkeypatch.setattr(workloads, "MIN_BATCHES", 6 if name != "train" else 40)
    monkeypatch.setattr(workloads, "make_split", lambda seed: make_split(seed, SMALL))
    res = workloads.run(name, seed=2, seconds=0.0, trace=trace)
    assert res.correct and res.failed == 0 and res.attempted > 0
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]
    assert list(res.metrics) == names
    if trace:
        assert res.metrics["trace.coverage_frac"][0] > 0.5
