"""Involved-triple accounting for layered percolation vs. prior GNN schemes.

All figures are per query; the queries of one call share one
``layering.batch_distances`` pass.  Two layer notions coexist and are
reported side by side: ``percolation_layer_triples[l]`` counts the directed
layer sets (head at l-1, tail at l-1 or l) that the percolation encoder
actually processes, while ``hop_triple_counts[l]`` counts every triple with
both endpoints inside hops {l-1, l}, the bookkeeping unit of the comparison
formulas.  A triple whose endpoints sit at the same depth c contributes to
hop counts c and c+1, so the hop total can exceed the number of distinct
subgraph triples.

Method totals (L = horizon, n_l = hop_triple_counts, N = sum n_l):

* percolation: encoder layers 1..L-1 plus the decoder's one combined pass
  over the distinct triples of the full L-hop neighborhood;
* layer-rebuilding scheme: N + sum_{l=1}^{L-1} sum_{i=1}^{l} n_i, a model
  that reconstructs hops 1..l at every layer;
* full-propagation scheme: L * min(|T+|, N), propagating over the whole
  graph (or the neighborhood if smaller) at every layer;
* per-pair lower bound: L * N, a floor for models that rerun an L-layer
  propagation per candidate subgraph.

The orderings percolation <= layer-rebuilding <= full-propagation hold
whenever N <= |T+|, which is the sparse regime these comparisons target.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .kg import AdjacencyIndex
from .layering import batch_distances


@dataclass
class QueryCount:
    query: int
    percolation_layer_triples: list[int]
    hop_triple_counts: list[int]
    encoder_triples: int
    decoder_triples: int
    percolation_total: int
    layer_rebuild_total: int
    full_propagation_total: int
    pairwise_lower_bound: int


@dataclass
class TripleCountReport:
    queries: list[QueryCount]


def _hop_counts(index: AdjacencyIndex, dist: np.ndarray, slot: np.ndarray,
                pos: np.ndarray, n_slots: int, horizon: int) -> np.ndarray:
    """(n_slots, horizon) hop counts of the decoder triples (slot, pos),
    over a distance table keyed ``slot*|E| + entity``.

    With endpoint depths a <= b a decoder triple lies in hops {l-1, l}
    exactly for b <= l <= a+1: at b when b = a+1, at a and a+1 when a = b,
    and nowhere when b >= a+2 (possible only when the mask removed the
    triple's reverse).
    """
    base = slot * index.num_entities
    hd = dist[base + index.head[pos]]
    td = dist[base + index.tail[pos]]
    lo, hi = np.minimum(hd, td), np.maximum(hd, td)
    width = horizon + 2
    at = slot * width + hi
    at = np.concatenate([at.compress(hi - lo <= 1), at.compress(hi == lo) + 1])
    return np.bincount(at, minlength=n_slots * width).reshape(n_slots, width)[:, 1 : horizon + 1]


def _query_counts(index: AdjacencyIndex, queries, horizon: int,
                  removed: list[np.ndarray | None] | None = None) -> list[QueryCount]:
    """All per-method figures for each query, from one kernel call."""
    bd = batch_distances(index, queries, horizon, removed)
    n = len(bd.queries)
    width = horizon + 2  # layer ids 0..horizon+1
    perc = np.bincount(bd.decoder[0] * width + bd.layer, minlength=n * width)
    perc = perc.reshape(n, width)[:, 1 : horizon + 1]
    hops = _hop_counts(index, bd.dist, *bd.decoder, n, horizon)
    decoder = np.bincount(bd.decoder[0], minlength=n)
    out = []
    for q, p, h, d in zip(bd.queries.tolist(), perc.tolist(), hops.tolist(), decoder.tolist()):
        n_total = sum(h)
        encoder = sum(p[: horizon - 1])
        out.append(QueryCount(
            query=q,
            percolation_layer_triples=p,
            hop_triple_counts=h,
            encoder_triples=encoder,
            decoder_triples=d,
            percolation_total=encoder + d,
            layer_rebuild_total=n_total + sum(sum(h[:l]) for l in range(1, horizon)),
            full_propagation_total=horizon * min(index.num_triples, n_total),
            pairwise_lower_bound=horizon * n_total,
        ))
    return out


def count_query(
    index: AdjacencyIndex,
    q: int,
    horizon: int,
    removed: np.ndarray | None = None,
) -> QueryCount:
    """All per-method involved-triple figures for one query."""
    return _query_counts(index, [q], horizon, [removed])[0]


def count_queries(
    index: AdjacencyIndex,
    queries: list[int] | np.ndarray,
    horizon: int,
    removed: list[np.ndarray | None] | None = None,
) -> TripleCountReport:
    """``count_query`` for every query, from one kernel call; ``removed[s]``
    is query s's mask."""
    return TripleCountReport(_query_counts(index, queries, horizon, removed))
