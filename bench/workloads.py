"""The benchmark's workloads, correctness checks and metrics.

Every workload is a closed loop in one process and one Python thread: the
next batch is built only after the previous one has finished.  Inputs come
from ``synth.make_split(seed)``; the library sees only the generated arrays
and is driven through its public calls.  Why each workload exists:

train     train graph of the split (10k entities, ~3 base triples each, 8
          relations, communities of 100 with 5% cross edges), horizon 4,
          default ModelConfig, 16 queries per Adam step, each query masking
          its own triple and that triple's reverse twin.  Autodiff and the
          model dominate the step.
eval      test graph (5k entities disjoint from train's, same relations,
          ~1.5 triples each), horizon 3, 64 held-out queries per batch, no
          tape, filtered rank.  Many small subgraphs make the per-query
          Python loop of build_batch dominate; backward never runs.
analysis  test graph, 16 query entities per batch, each run through
          count_queries and verify_percolation_principles at horizon 3.
          Layering's standalone BFS and Python path enumeration do the work;
          the model and autodiff do none.

Correctness checks, each counted per query as a failed operation:
  1. the BatchGraph's per-query encoder/decoder triple counts equal
     counting.count_query under the same mask (train, eval);
  2. logits and loss are finite (train, eval), and the train loss falls
     over the run;
  3. every PrincipleReport.all_ok holds (analysis);
  4. every filtered rank lies in [1, |E|] (eval);
  5. replaying the first REPLAY_STEPS train steps from a fresh set-up
     reproduces the loss at that step within REPLAY_RTOL.
Checks run outside the batch timers.

Batch times are gated as ratios: before each batch the reference kernels of
``reference.py`` are timed, and each batch's time is divided by their median
over the REF_HALF_WIDTH batches on either side.  On a shared host whose
speed drifts within minutes, raw times of the same code spread by more than
a quarter across runs; the ratios spread by a tenth or less.  Raw times are
printed as notes.
"""

from __future__ import annotations

import ctypes
import glob
import os
import platform
import resource
import traceback
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from kgpercolate import autodiff
from kgpercolate.autodiff import (
    Adam, Tape, Tensor, add, concat, gather, hadamard, logsumexp, reshape,
    sum_all,
)
from kgpercolate.counting import count_queries, count_query
from kgpercolate.kg import AdjacencyIndex, Vocab, augment, build_index, make_graph, reverse_rel
from kgpercolate.layering import BatchGraph, QuerySpec, SubgraphBuilder
from kgpercolate.model import ModelConfig, compress, decode, encode, init_params, score
from kgpercolate.paths import verify_percolation_principles

from reference import local_median, reference_ms
from spans import NullTracer, Tracer, traced
from synth import Split, make_split

WARMUP = 4            # untimed batches before the timed phase
MIN_BATCHES = 100     # timed batches at least; count metrics use batches [0, 100)
SETUP_EVERY = 10      # one more timed set-up after every 10th batch
LR = 1e-2
REPLAY_STEPS = 20
REPLAY_RTOL = 1e-3
LOSS_WINDOW = 20      # steps averaged at each end for the loss-falls check


REF_HALF_WIDTH = 10   # batches on either side in a batch's reference median


@dataclass(frozen=True)
class Workload:
    graph: str        # "train" or "test" graph of the split
    horizon: int
    batch_size: int
    # reference kernels whose mix of interpreter and numpy work matches the
    # workload's, so that the host's drift slows both alike: train is array
    # work, analysis interpreter loops, eval both
    reference: tuple[str, ...]


WORKLOADS = {
    "train": Workload("train", 4, 16, ("numpy",)),
    "eval": Workload("test", 3, 64, ("python", "numpy")),
    "analysis": Workload("test", 3, 16, ("python",)),
}

# per-layer time metric -> span name; per-batch median of summed self time
BATCH_SPANS = {
    "layering.build_batch_ms": "layering.build_batch",
    "model.encode_ms": "model.encode",
    "model.compress_ms": "model.compress",
    "model.decode_ms": "model.decode",
    "model.score_ms": "model.score",
    "autodiff.loss_ms": "autodiff.loss",
    "autodiff.backward_ms": "autodiff.backward",
    "autodiff.adam_step_ms": "autodiff.adam_step",
    "autodiff.index_add_ms": "autodiff.index_add",
    "counting.count_queries_ms": "counting.count_queries",
    "paths.verify_ms": "paths.verify_percolation_principles",
}
SETUP_SPANS = {
    "kg.augment_ms": "kg.augment",
    "kg.build_index_ms": "kg.build_index",
}
# per-query means over batches [0, MIN_BATCHES); they depend on the seed only
COUNTS = (
    "layering.nodes_per_query",
    "layering.encoder_triples_per_query",
    "layering.decoder_triples_per_query",
    "layering.masked_edges_per_query",
    "layering.answer_reachable_frac",
    "counting.percolation_triples_per_query",
    "counting.layer_rebuild_triples_per_query",
    "counting.full_propagation_triples_per_query",
    "counting.pairwise_lower_bound_per_query",
    "paths.walks_per_query",
)


# ------------------------------------------------------------------ set-up

@dataclass
class Setup:
    index: AdjacencyIndex
    builder: SubgraphBuilder
    config: ModelConfig
    params: dict
    opt: Adam


def set_up(kg, config: ModelConfig, seed: int, tr) -> Setup:
    """Everything setup_s measures: augment, index, builder, params, Adam."""
    with tr.span("kg.augment"):
        aug = augment(kg)
    with tr.span("kg.build_index"):
        index = build_index(aug)
    with tr.span("layering.SubgraphBuilder"):
        builder = SubgraphBuilder(index)
    with tr.span("model.init_params"):
        params = init_params(config, seed)
    with tr.span("autodiff.Adam"):
        opt = Adam(params, lr=LR)
    return Setup(index, builder, config, params, opt)


def both_directions(triples: np.ndarray, n_rel: int) -> np.ndarray:
    """(h, r, t) rows plus their (t, r_inv, h) head-query twins, int64."""
    t = triples.astype(np.int64)
    return np.concatenate([t, np.stack([t[:, 2], t[:, 1] + n_rel, t[:, 0]], axis=1)])


# ------------------------------------------------------------------ checks

def batch_triple_counts(bg: BatchGraph) -> tuple[np.ndarray, np.ndarray]:
    """Per-query encoder (layers 1..H-1) and decoder triple counts of a batch."""
    n = bg.num_queries
    enc = np.zeros(n, dtype=np.int64)
    for layer in bg.layers[: bg.horizon - 1]:
        enc += np.bincount(layer.triple_query, minlength=n)
    return enc, np.bincount(bg.decoder.triple_query, minlength=n)


def count_check(index: AdjacencyIndex, queries: list[QuerySpec], bg: BatchGraph):
    """Check 1: per query, the batch's encoder/decoder triple counts equal
    counting.count_query under the same mask.  Returns (failed, counts)."""
    enc, dec = batch_triple_counts(bg)
    counts = [count_query(index, qs.query, bg.horizon, removed=qs.removed)
              for qs in queries]
    failed = np.array([c.encoder_triples != e or c.decoder_triples != d
                       for c, e, d in zip(counts, enc, dec)])
    return failed, counts


def filtered_ranks(logits: np.ndarray, bg: BatchGraph, heads: np.ndarray,
                   rels: np.ndarray, known: np.ndarray, n_rel_aug: int,
                   n_entities: int) -> np.ndarray:
    """Filtered rank of each query's answer among all entities of the graph.

    Candidates are the nodes of the query's subgraph, less the answer and
    every other known true answer of (head, rel).  The rank is 1 plus the
    candidates whose logit is at least the answer's, so ties count against
    the answer.  Entities outside the horizon get no logit and rank below
    every subgraph node; an answer outside the horizon ranks last, |E|.
    ``known`` is the sorted array of (h * n_rel_aug + r) * n_entities + t.
    """
    q = bg.node_query
    key = (heads[q] * n_rel_aug + rels[q]) * n_entities + bg.node_entity
    at = np.minimum(np.searchsorted(known, key), len(known) - 1)
    filtered = known[at] == key
    ans = bg.answer_nodes
    reached = ans >= 0
    ans_logit = np.where(reached, logits[np.maximum(ans, 0)], np.inf)
    beats = ((logits >= ans_logit[q]) & ~filtered
             & (np.arange(bg.n_nodes) != ans[q]))
    ranks = 1 + np.bincount(q, weights=beats, minlength=bg.num_queries).astype(np.int64)
    ranks[~reached] = n_entities
    return ranks


# ------------------------------------------------------------------ loss

def query_loss(logits: Tensor, bg: BatchGraph) -> tuple[Tensor, int]:
    """Sum over queries of logsumexp(subgraph logits) - answer logit.

    Queries whose answer lies outside their subgraph add nothing.  Built
    from the autodiff ops the model itself uses.
    """
    valid = np.flatnonzero(bg.answer_nodes >= 0)
    lo, hi = bg.spans[valid, 0], bg.spans[valid, 1]
    width = int((hi - lo).max())
    col = np.arange(width)
    # rows of candidate positions, padded with a row that points past the
    # logits at a -1e30 entry, which logsumexp turns into exp(...) = 0
    pos = np.where(col < (hi - lo)[:, None], lo[:, None] + col, bg.n_nodes)
    padded = concat([logits, Tensor(np.full(1, -1e30))], axis=0)
    lse = logsumexp(reshape(gather(padded, pos.ravel()), pos.shape), axis=1)
    answer = gather(logits, bg.answer_nodes[valid])
    loss = sum_all(add(lse, hadamard(answer, Tensor(-np.ones(len(valid))))))
    return loss, len(valid)


# ------------------------------------------------------------------ loops

@dataclass
class Counts:
    """Per-query count records of batches [0, MIN_BATCHES)."""

    values: dict = field(default_factory=lambda: {k: [] for k in COUNTS})

    def add(self, name: str, vals) -> None:
        self.values[name].extend(np.asarray(vals, dtype=np.float64).ravel().tolist())

    def add_query_counts(self, counts) -> None:
        self.add("counting.percolation_triples_per_query", [c.percolation_total for c in counts])
        self.add("counting.layer_rebuild_triples_per_query", [c.layer_rebuild_total for c in counts])
        self.add("counting.full_propagation_triples_per_query", [c.full_propagation_total for c in counts])
        self.add("counting.pairwise_lower_bound_per_query", [c.pairwise_lower_bound for c in counts])

    def add_batch(self, bg: BatchGraph, queries: list[QuerySpec], counts) -> None:
        enc, dec = batch_triple_counts(bg)
        self.add("layering.nodes_per_query", np.diff(bg.spans, axis=1))
        self.add("layering.encoder_triples_per_query", enc)
        self.add("layering.decoder_triples_per_query", dec)
        self.add("layering.masked_edges_per_query",
                 [0 if qs.removed is None else len(qs.removed) for qs in queries])
        self.add("layering.answer_reachable_frac", bg.answer_nodes >= 0)
        self.add_query_counts(counts)

    def means(self) -> dict[str, float]:
        return {k: float(np.mean(v)) if v else 0.0 for k, v in self.values.items()}


class Loop:
    """One workload: draws batches from the seed, steps, checks."""

    def __init__(self, split: Split, wl: Workload, s: Setup, seed: int):
        self.wl = wl
        self.s = s
        self.rng = np.random.default_rng([seed, 1])
        queries = split.train if wl.graph == "train" else split.test_queries
        self.pool = both_directions(queries, split.n_relations)
        self.counts = Counts()

    def next_batch(self) -> list[QuerySpec]:
        rows = self.pool[self.rng.integers(0, len(self.pool), self.wl.batch_size)]
        if self.wl.graph != "train":
            return [QuerySpec(int(h), int(r), int(t)) for h, r, t in rows]
        index = self.s.index
        out = []
        for h, r, t in rows:
            fwd = index.find_edges(h, t)
            bwd = index.find_edges(t, h)
            removed = np.concatenate([
                fwd[index.rel[fwd] == r],
                bwd[index.rel[bwd] == reverse_rel(int(r), index.n_base_relations)],
            ])
            out.append(QuerySpec(int(h), int(r), int(t), removed))
        return out

    def step(self, queries: list[QuerySpec], tr):
        raise NotImplementedError

    def check(self, k: int, queries: list[QuerySpec], out) -> np.ndarray:
        raise NotImplementedError

    def forward(self, queries: list[QuerySpec], tr) -> tuple[BatchGraph, Tensor]:
        s = self.s
        with tr.span("layering.build_batch"):
            bg = s.builder.build_batch(queries, s.config.horizon)
        with tr.span("model.encode"):
            h = encode(s.params, s.config, bg)
        with tr.span("model.compress"):
            c = compress(s.params, s.config, bg, h)
        with tr.span("model.decode"):
            r = decode(s.params, s.config, bg, c)
        with tr.span("model.score"):
            logits = score(s.params, s.config, bg, r)
        return bg, logits

    def check_batch(self, k: int, queries: list[QuerySpec], bg: BatchGraph,
                    logits: np.ndarray) -> np.ndarray:
        """Checks 1 and 2 on logits; records counts of the first batches."""
        failed, counts = count_check(self.s.index, queries, bg)
        if not np.isfinite(logits).all():
            failed[:] = True
        if k < MIN_BATCHES:
            self.counts.add_batch(bg, queries, counts)
        return failed


class TrainLoop(Loop):
    def __init__(self, split: Split, wl: Workload, s: Setup, seed: int):
        super().__init__(split, wl, s, seed)
        self.losses: list[tuple[float, int]] = []

    def step(self, queries, tr):
        with Tape() as tape:
            bg, logits = self.forward(queries, tr)
            with tr.span("autodiff.loss"):
                loss, n_valid = query_loss(logits, bg)
        with tr.span("autodiff.backward"):
            tape.backward(loss)
        with tr.span("autodiff.adam_step"):
            self.s.opt.step()
            self.s.opt.zero_grad()
        return bg, logits.data, float(loss.data), n_valid

    def check(self, k, queries, out):
        bg, logits, loss, n_valid = out
        self.losses.append((loss, n_valid))
        failed = self.check_batch(k, queries, bg, logits)
        if not np.isfinite(loss):
            failed[:] = True
        return failed


class EvalLoop(Loop):
    def __init__(self, split: Split, wl: Workload, s: Setup, seed: int):
        super().__init__(split, wl, s, seed)
        self.n_rel_aug = 2 * split.n_relations + 1
        known = both_directions(np.concatenate([split.test_facts, split.test_queries]),
                                split.n_relations)
        n_e = s.index.num_entities
        self.known = np.unique((known[:, 0] * self.n_rel_aug + known[:, 1]) * n_e + known[:, 2])
        self.ranks: list[np.ndarray] = []

    def step(self, queries, tr):
        bg, logits = self.forward(queries, tr)
        with tr.span("bench.rank"):
            heads = np.array([qs.query for qs in queries])
            rels = np.array([qs.rel for qs in queries])
            ranks = filtered_ranks(logits.data, bg, heads, rels, self.known,
                                   self.n_rel_aug, self.s.index.num_entities)
        return bg, logits.data, ranks

    def check(self, k, queries, out):
        bg, logits, ranks = out
        self.ranks.append(ranks)
        failed = self.check_batch(k, queries, bg, logits)
        return failed | (ranks < 1) | (ranks > self.s.index.num_entities)


class AnalysisLoop(Loop):
    def step(self, queries, tr):
        index, horizon = self.s.index, self.wl.horizon
        ents = [qs.query for qs in queries]
        with tr.span("counting.count_queries"):
            report = count_queries(index, ents, horizon)
        checks = []
        for q in ents:
            with tr.span("paths.verify_percolation_principles"):
                checks.append(verify_percolation_principles(index, q, horizon))
        return report, checks

    def check(self, k, queries, out):
        report, checks = out
        if k < MIN_BATCHES:
            self.counts.add_query_counts(report.queries)
            self.counts.add("paths.walks_per_query", [c.n_walks for c in checks])
        return np.array([not c.all_ok for c in checks])


LOOPS = {"train": TrainLoop, "eval": EvalLoop, "analysis": AnalysisLoop}


# ------------------------------------------------------------------ driver

@dataclass
class Result:
    correct: bool
    attempted: int
    failed: int
    metrics: dict          # name -> (value, unit)
    notes: dict            # sample counts and other context, printed only
    errors: list[str]


def _graph(split: Split, wl: Workload):
    if wl.graph == "train":
        triples, n_e = split.train, split.n_train_entities
    else:
        triples, n_e = split.test_facts, split.n_test_entities
    return make_graph(triples, Vocab([f"e{i}" for i in range(n_e)]),
                      Vocab([f"r{i}" for i in range(split.n_relations)]))


def run(name: str, seed: int, seconds: float, trace: bool) -> Result:
    wl = WORKLOADS[name]
    split = make_split(seed)
    kg = _graph(split, wl)
    config = ModelConfig(n_base_relations=split.n_relations, horizon=wl.horizon)
    null = NullTracer()
    tracer = Tracer() if trace else None
    setup_s: list[float] = []

    def timed_set_up() -> Setup:
        tr = tracer or null
        tr.batch = -1 - len(setup_s)
        t0 = perf_counter()
        s = set_up(kg, config, seed, tr)
        setup_s.append(perf_counter() - t0)
        return s

    loop = LOOPS[name](split, wl, timed_set_up(), seed)
    index_add = autodiff.index_add
    traced_index_add = traced(tracer, "autodiff.index_add", index_add) if trace else None
    plain_ms: list[float] = []
    traced_ms: list[float] = []
    ref_ms: list[float] = []
    plain_ref: list[int] = []     # index into ref_ms of each plain_ms entry
    attempted = failed = 0
    errors: list[str] = []
    k = 0
    t_end = float("inf")
    while k < WARMUP + MIN_BATCHES or perf_counter() < t_end:
        if k == WARMUP:
            t_end = perf_counter() + seconds
        queries = loop.next_batch()
        if k >= WARMUP:
            ref_ms.append(reference_ms(wl.reference))
        # a traced run alternates untraced and traced batches, so that the
        # tracing overhead is measured against batches of the same run
        tr = tracer if trace and k % 2 else null
        tr.batch = k
        try:
            if tr is tracer:
                autodiff.index_add = traced_index_add
            t0 = perf_counter()
            try:
                with tr.span("batch"):
                    out = loop.step(queries, tr)
            finally:
                dt = perf_counter() - t0
                autodiff.index_add = index_add
            bad = loop.check(k, queries, out)
        except Exception:  # counted as failed queries; the run carries on
            errors.append(traceback.format_exc())
            bad = np.ones(len(queries), dtype=bool)
            dt = None
        attempted += len(queries)
        failed += int(bad.sum())
        if k >= WARMUP and dt is not None:
            if tr is tracer:
                traced_ms.append(dt * 1e3)
            else:
                plain_ms.append(dt * 1e3)
                plain_ref.append(len(ref_ms) - 1)
        k += 1
        # set-up repeats are spread over the run, outside the batch timers,
        # so that their median sees the same machine as the batches
        if k % SETUP_EVERY == 0:
            timed_set_up()

    correct = failed == 0
    notes: dict = {"batches": k, "timed_batches": len(plain_ms) + len(traced_ms),
                   "warmup_batches": WARMUP, "batch_size": wl.batch_size,
                   "horizon": wl.horizon, "entities": kg.num_entities,
                   "base_triples": len(kg.triples)}
    if name == "train":
        ok, info = _train_run_checks(loop, split, wl, kg, config, seed)
        notes.update(info)
        if not ok:
            correct = False
            errors.append(f"train run checks failed: {info}")
    if name == "eval":
        ranks = np.concatenate(loop.ranks)
        notes["mrr_untrained"] = float(np.mean(1.0 / ranks))

    if trace:
        metrics = _layer_metrics(tracer, loop, plain_ms, traced_ms)
        out_dir = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")
        os.makedirs(out_dir, exist_ok=True)
        tracer.write_jsonl(os.path.join(out_dir, f"trace-{name}-seed{seed}.jsonl"),
                           {"workload": name, "seed": seed, "env": environment()})
    else:
        ms = np.array(plain_ms)
        # batch times are gated in units of the reference kernels' time
        # around each batch ("ref"), which cancels the host's drift; the raw
        # times are printed as notes
        ratio = ms / local_median(ref_ms, REF_HALF_WIDTH)[plain_ref]
        metrics = {
            "queries_per_ref": (len(ms) * wl.batch_size / ratio.sum(), "1/ref"),
            "batch_ref_p50": (float(np.median(ratio)), "ref"),
            "setup_s": (float(np.median(setup_s)), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
        notes["batch_samples"] = len(ms)
        notes["reference_ms"] = float(np.median(ref_ms))
        notes["reference_samples"] = len(ref_ms)
        notes["queries_per_s"] = len(ms) * wl.batch_size / (ms.sum() / 1e3)
        for p in (10, 50, 90):
            notes[f"batch_ms_p{p}"] = float(np.percentile(ms, p))
        notes["setup_samples"] = len(setup_s)
    notes["failed_frac"] = failed / attempted
    return Result(correct, attempted, failed, metrics, notes, errors)


def _train_run_checks(loop: TrainLoop, split, wl, kg, config, seed):
    """Check 2 (loss falls over the run) and check 5 (replay agrees)."""
    per_query = [l / max(n, 1) for l, n in loop.losses]
    first = float(np.mean(per_query[:LOSS_WINDOW]))
    last = float(np.mean(per_query[-LOSS_WINDOW:]))
    replay = TrainLoop(split, wl, set_up(kg, config, seed, NullTracer()), seed)
    null = NullTracer()
    for _ in range(REPLAY_STEPS):
        _, _, replay_loss, _ = replay.step(replay.next_batch(), null)
    run_loss = loop.losses[REPLAY_STEPS - 1][0]
    agrees = abs(replay_loss - run_loss) <= REPLAY_RTOL * abs(run_loss)
    info = {"loss_per_query_first": first, "loss_per_query_last": last,
            f"loss_at_step_{REPLAY_STEPS}": run_loss,
            f"replay_loss_at_step_{REPLAY_STEPS}": replay_loss}
    return last < first and agrees, info


def _layer_metrics(tracer: Tracer, loop: Loop, plain_ms, traced_ms) -> dict:
    per_batch = tracer.per_batch()
    timed = [b for b in per_batch if b >= WARMUP]
    metrics = {}
    for metric, span in SETUP_SPANS.items():
        reps = [b for b in per_batch if b < 0]
        metrics[metric] = (float(np.median([per_batch[b].get(span, 0.0) for b in reps])) * 1e3, "ms")
    for metric, span in BATCH_SPANS.items():
        metrics[metric] = (float(np.median([per_batch[b].get(span, 0.0) for b in timed])) * 1e3, "ms")
    calls = tracer.count("autodiff.index_add")
    metrics["autodiff.index_add_calls"] = (float(np.median([calls.get(b, 0) for b in timed])), "count")
    for metric, value in loop.counts.means().items():
        metrics[metric] = (value, "frac" if metric.endswith("_frac") else "count")
    cover = tracer.coverage("batch")
    metrics["trace.coverage_frac"] = (float(np.median([cover[b] for b in timed])), "frac")
    metrics["trace.overhead_frac"] = (float(np.median(traced_ms) / np.median(plain_ms) - 1.0), "frac")
    return metrics


# ------------------------------------------------------------------ environment

def blas_threads() -> int | None:
    """Thread count in effect in numpy's bundled OpenBLAS, read via ctypes."""
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir,
                                  "numpy.libs", "libscipy_openblas64_*.so"))
    if not libs:
        return None
    fn = ctypes.CDLL(libs[0]).scipy_openblas_get_num_threads64_
    fn.argtypes = []
    fn.restype = ctypes.c_int
    return int(fn())


def environment() -> dict:
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": blas_threads(),
    }
