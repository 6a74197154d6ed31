from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kgpercolate.kg import augment, build_index
from kgpercolate.counting import count_query, count_queries
from kgpercolate.layering import batch_distances

from conftest import random_kg, random_mask


def naive_hop_counts(aug, dist, L):
    out = []
    for l in range(1, L + 1):
        group = {i for i, d in enumerate(dist) if d in (l - 1, l)}
        out.append(
            sum(1 for h, _, t in aug.tolist() if h in group and t in group)
        )
    return out


def test_toy_counts(toy_index, toy_aug):
    ids = toy_aug.entities
    c = count_query(toy_index, ids.id("A"), 3)
    assert c.percolation_layer_triples == [3, 6, 2]
    assert c.hop_triple_counts == [9, 9, 4]
    assert c.decoder_triples == 17
    assert c.encoder_triples == 9
    assert c.percolation_total == 26
    # N = 22; rebuild = N + (n1) + (n1+n2) = 22 + 9 + 18
    assert c.layer_rebuild_total == 49
    assert c.full_propagation_total == 3 * min(17, 22) == 51
    assert c.pairwise_lower_bound == 3 * 22


@pytest.mark.parametrize(
    "removed, match",
    [([-1], r"removed positions span .* outside \[0, 17\)"),
     ([99], r"removed positions span .* outside \[0, 17\)"),
     ([1.0], r"removed has dtype float64"),
     ([True], r"removed has dtype bool")],
    ids=["low", "high", "float", "bool"],
)
def test_count_query_rejects_out_of_range_removed(toy_index, removed, match):
    # the kernel checks the positions for every caller, not only the builder:
    # -1 would silently mask the last triple, 99 would fail in numpy indexing,
    # and a float or bool array is no list of positions
    with pytest.raises(ValueError, match=match):
        count_query(toy_index, 0, 3, removed=np.array(removed))


def test_hop_counts_match_naive_oracle(toy_index, toy_aug):
    q = toy_aug.entities.id("A")
    bd = batch_distances(toy_index, [q], 3)
    got = count_query(toy_index, q, 3).hop_triple_counts
    assert got == naive_hop_counts(toy_aug.augmented, bd.dist.tolist(), 3)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000), st.integers(1, 4), st.floats(0.0, 0.5))
def test_hop_counts_random(seed, L, frac):
    kg = augment(random_kg(np.random.default_rng(seed)))
    idx = build_index(kg)
    q = int(np.random.default_rng(seed + 5).integers(0, len(kg.entities)))
    removed, kept = random_mask(np.random.default_rng(seed + 6), idx, frac)
    bd = batch_distances(idx, [q], L, [removed])
    got = count_query(idx, q, L, removed=removed).hop_triple_counts
    assert got == naive_hop_counts(kept, bd.dist.tolist(), L)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000), st.integers(2, 4))
def test_method_ordering_sparse_regime(seed, L):
    kg = augment(random_kg(np.random.default_rng(seed), density=1.4))
    idx = build_index(kg)
    q = int(np.random.default_rng(seed + 9).integers(0, len(kg.entities)))
    c = count_query(idx, q, L)
    n_total = sum(c.hop_triple_counts)
    if n_total <= idx.num_triples:
        assert (
            c.percolation_total
            <= c.layer_rebuild_total
            <= c.full_propagation_total
        )
    # the per-pair bound always dominates the full-propagation figure
    assert c.full_propagation_total <= c.pairwise_lower_bound


def test_report_aggregation(toy_index, toy_aug):
    ids = toy_aug.entities
    rep = count_queries(toy_index, [ids.id("A"), ids.id("B")], 3)
    assert rep.as_dict()["n_queries"] == 2
    assert rep.mean("percolation_total") > 0
    d = rep.as_dict()
    assert d["mean_percolation"] <= d["mean_layer_rebuild"]


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10_000), st.integers(1, 4))
def test_count_queries_match_count_query(seed, L):
    # one kernel call for all queries, repeated entities included, gives
    # each query the figures of its own call
    rng = np.random.default_rng(seed)
    idx = build_index(augment(random_kg(rng)))
    queries = rng.integers(0, idx.num_entities, size=int(rng.integers(0, 9)))
    rep = count_queries(idx, queries, L)
    assert [c.as_dict() for c in rep.queries] == [
        count_query(idx, int(q), L).as_dict() for q in queries
    ]


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10_000), st.integers(1, 4))
def test_masked_count_queries_match_count_query(seed, L):
    # each slot counts under its own mask, whatever the other slots mask
    rng = np.random.default_rng(seed)
    idx = build_index(augment(random_kg(rng)))
    queries = rng.integers(0, idx.num_entities, size=int(rng.integers(0, 9)))
    removed = [None if rng.random() < 0.25 else random_mask(rng, idx, rng.uniform(0, 0.5))[0]
               for _ in queries]
    rep = count_queries(idx, queries, L, removed)
    assert [c.as_dict() for c in rep.queries] == [
        count_query(idx, int(q), L, removed=r).as_dict() for q, r in zip(queries, removed)
    ]
