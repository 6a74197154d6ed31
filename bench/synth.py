"""Seeded synthetic inductive splits for the benchmark.

A split is two graphs over the same relations and disjoint entities: a train
graph, and a sparser test graph whose held-out triples are the evaluation
queries (the setting of GraIL and RED-GNN).  Each graph has community
locality: entities fall into communities of ``community_size``, and an edge
leaves its head's community with probability ``cross_frac``.  The last
relation is planted as the composition of the first two, ``r_c(h, t)`` for
``r_0(h, m)`` and ``r_1(m, t)``, kept with probability ``rule_prob``; the
other relations are drawn uniformly.  Heads are drawn uniformly, so
out-degrees are Poisson with no hubs, and path enumeration stays bounded.

Everything is a pure function of the seed.  The library only ever receives
the arrays returned here.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class GraphParams:
    n_entities: int
    triples_per_entity: float  # base triples per entity, composed ones included
    community_size: int
    cross_frac: float


@dataclass(frozen=True)
class SplitParams:
    n_relations: int = 8
    train: GraphParams = GraphParams(10_000, 3.0, 100, 0.05)
    test: GraphParams = GraphParams(5_000, 1.65, 100, 0.05)
    rule_prob: float = 0.9
    query_frac: float = 0.1  # share of test triples held out as queries


@dataclass
class Split:
    n_relations: int
    train: np.ndarray         # (n, 3) int32 train-graph triples
    test_facts: np.ndarray    # (n, 3) int32 test-graph triples the model sees
    test_queries: np.ndarray  # (n, 3) int32 held-out test triples
    n_train_entities: int
    n_test_entities: int


def _graph(rng: np.random.Generator, gp: GraphParams, n_rel: int,
           rule_prob: float) -> np.ndarray:
    n = gp.n_entities
    comm_of = np.empty(n, dtype=np.int64)
    comm_of[rng.permutation(n)] = np.arange(n) // gp.community_size
    n_comm = int(comm_of.max()) + 1
    members = np.argsort(comm_of, kind="stable")
    comm_start = np.searchsorted(comm_of[members], np.arange(n_comm))
    comm_len = np.diff(np.append(comm_start, n))

    # n_draw uniform-relation edges yield about a * n_draw**2 / n composed
    # ones; solve a*x**2 + x = triples_per_entity for the draw per entity
    a = rule_prob / (n_rel - 1) ** 2
    x = (np.sqrt(1.0 + 4.0 * a * gp.triples_per_entity) - 1.0) / (2.0 * a)
    n_draw = int(round(n * x))
    heads = rng.integers(0, n, n_draw)
    rels = rng.integers(0, n_rel - 1, n_draw)
    c = comm_of[heads]
    local = comm_start[c] + (rng.random(n_draw) * comm_len[c]).astype(np.int64)
    tails = np.where(rng.random(n_draw) < gp.cross_frac,
                     rng.integers(0, n, n_draw), members[local])
    base = np.stack([heads, rels, tails], axis=1)
    base = base[heads != tails]

    # planted rule: r_c(h, t) <- r_0(h, m), r_1(m, t)
    first = base[base[:, 1] == 0]
    second = base[base[:, 1] == 1]
    second = second[np.argsort(second[:, 0], kind="stable")]
    lo = np.searchsorted(second[:, 0], first[:, 2], side="left")
    hi = np.searchsorted(second[:, 0], first[:, 2], side="right")
    k = hi - lo
    pair_first = np.repeat(np.arange(len(first)), k)
    pair_second = np.repeat(lo - np.cumsum(k) + k, k) + np.arange(int(k.sum()))
    composed = np.stack([first[pair_first, 0],
                         np.full(len(pair_first), n_rel - 1),
                         second[pair_second, 2]], axis=1)
    composed = composed[rng.random(len(composed)) < rule_prob]
    composed = composed[composed[:, 0] != composed[:, 2]]
    trip = np.unique(np.concatenate([base, composed]), axis=0)
    return trip[rng.permutation(len(trip))].astype(np.int32)


def make_split(seed: int, params: SplitParams = SplitParams()) -> Split:
    """Generate a train graph and a test graph with held-out queries."""
    rng = np.random.default_rng([seed, 0x5EED])
    train = _graph(rng, params.train, params.n_relations, params.rule_prob)
    test = _graph(rng, params.test, params.n_relations, params.rule_prob)
    n_q = int(round(params.query_frac * len(test)))
    return Split(
        n_relations=params.n_relations,
        train=train,
        test_facts=test[n_q:],
        test_queries=test[:n_q],
        n_train_entities=params.train.n_entities,
        n_test_entities=params.test.n_entities,
    )
