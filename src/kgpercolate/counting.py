"""Involved-triple accounting for layered percolation vs. prior GNN schemes.

All figures are per query and read one ``layering.relative_distances``
pass.  Two layer notions coexist and are reported side by side:
``percolation_layer_triples[l]`` counts the directed layer sets (head at
l-1, tail at l-1 or l) that the percolation encoder actually processes,
while ``hop_triple_counts[l]`` counts every triple with both endpoints
inside hops {l-1, l}, the bookkeeping unit of the comparison formulas.  A
triple whose endpoints sit at the same depth c contributes to hop counts c
and c+1, so the hop total can exceed the number of distinct subgraph
triples.

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

from dataclasses import dataclass, field

import numpy as np

from .kg import AdjacencyIndex
from .layering import DistanceMap, relative_distances


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

    def as_dict(self) -> dict:
        return dict(self.__dict__)


@dataclass
class TripleCountReport:
    horizon: int
    total_augmented_triples: int
    queries: list[QueryCount] = field(default_factory=list)

    def mean(self, attr: str) -> float:
        if not self.queries:
            return 0.0
        return float(np.mean([getattr(c, attr) for c in self.queries]))

    def as_dict(self) -> dict:
        return {
            "horizon": self.horizon,
            "total_augmented_triples": self.total_augmented_triples,
            "n_queries": len(self.queries),
            "mean_percolation": self.mean("percolation_total"),
            "mean_layer_rebuild": self.mean("layer_rebuild_total"),
            "mean_full_propagation": self.mean("full_propagation_total"),
            "mean_pairwise_lower_bound": self.mean("pairwise_lower_bound"),
            "queries": [c.as_dict() for c in self.queries],
        }


def hop_triple_counts(index: AdjacencyIndex, dm: DistanceMap) -> list[int]:
    """n_l = triples with both endpoints inside hops {l-1, l}, l = 1..horizon.

    Each such triple is a decoder triple.  With endpoint depths a <= b it
    lies in hops {l-1, l} exactly for b <= l <= a+1: at b when b = a+1, at
    a and a+1 when a = b, and nowhere when b >= a+2 (possible only when the
    mask removed the triple's reverse).
    """
    hd = dm.dist[index.head[dm.decoder]]
    td = dm.dist[index.tail[dm.decoder]]
    lo, hi = np.minimum(hd, td), np.maximum(hd, td)
    at = np.concatenate([hi[hi - lo <= 1], lo[hi == lo] + 1])
    return np.bincount(at, minlength=dm.horizon + 2)[1 : dm.horizon + 1].tolist()


def count_query(
    index: AdjacencyIndex,
    q: int,
    horizon: int,
    removed: np.ndarray | None = None,
) -> QueryCount:
    """All per-method involved-triple figures for one query."""
    dm = relative_distances(index, q, horizon, removed=removed)
    perc = [len(pos) for pos in dm.layers]
    hops = hop_triple_counts(index, dm)
    n_total = sum(hops)
    decoder = len(dm.decoder)
    encoder = sum(perc[: horizon - 1])
    rebuild = n_total + sum(sum(hops[:l]) for l in range(1, horizon))
    full_prop = horizon * min(index.num_triples, n_total)
    return QueryCount(
        query=q,
        percolation_layer_triples=perc,
        hop_triple_counts=hops,
        encoder_triples=encoder,
        decoder_triples=decoder,
        percolation_total=encoder + decoder,
        layer_rebuild_total=rebuild,
        full_propagation_total=full_prop,
        pairwise_lower_bound=horizon * n_total,
    )


def count_queries(
    index: AdjacencyIndex,
    queries: list[int] | np.ndarray,
    horizon: int,
) -> TripleCountReport:
    return TripleCountReport(
        horizon=horizon,
        total_augmented_triples=index.num_triples,
        queries=[count_query(index, int(q), horizon) for q in queries],
    )
