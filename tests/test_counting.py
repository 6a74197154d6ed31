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
    [(np.array([-1]), r"span \[-1, -1\], outside \[0, 17\)$"),
     (np.array([99]), r"span \[99, 99\], outside \[0, 17\)$"),
     (np.array([1.0]), r"must be integers, not float64$"),
     (np.array([True]), r"must be integers, not bool$"),
     ([True, 1], r"must be integers, not bool, first bad at position 0$"),
     ([True, np.uint64(1)], r"must be integers, not bool, first bad at position 0$"),
     # read as int64, 2**63 would wrap to -2**63
     (np.array([1, 2**63], dtype=np.uint64),
      r"span \[1, 9223372036854775808\], outside \[0, 17\), first bad at position 1$"),
     # beside a Python int, numpy makes a uint64 float64
     ([0, np.uint64(2**63)],
      r"span \[0, 9223372036854775808\], outside \[0, 17\), first bad at position 1$")],
    ids=["low", "high", "float", "bool", "bool_in_list", "bool_beside_uint64",
         "uint64_past_int64", "uint64_past_int64_beside_int"],
)
def test_count_query_rejects_out_of_range_removed(toy_index, removed, match):
    # the kernel checks the positions for every caller, not only the builder:
    # -1 would silently mask the last triple, 99 would fail in numpy indexing,
    # a float or bool array is no list of positions, and [True, 1] is an
    # integer array to numpy that would mask position 1
    with pytest.raises(ValueError, match="^query slot 0: removed positions " + match):
        count_query(toy_index, 0, 3, removed=removed)


def test_count_queries_rejects_bool_beside_ints(toy_index):
    # [0, True] is an integer array to numpy; the bool must not count entity 1
    msg = r"^query entity ids must be integers, not bool, first bad at position 1$"
    with pytest.raises(ValueError, match=msg):
        count_queries(toy_index, [0, True], 3)


def test_ids_accept_uint64_beside_ints(toy_index):
    # numpy makes [0, np.uint64(1)] a float64 array; every element is an id
    assert count_queries(toy_index, [0, np.uint64(1)], 3) == count_queries(toy_index, [0, 1], 3)
    assert (count_query(toy_index, 0, 3, removed=[0, np.uint64(2)])
            == count_query(toy_index, 0, 3, removed=[0, 2]))


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
    queries = [ids.id("B"), ids.id("A")]
    rep = count_queries(toy_index, queries, 3)
    assert [c.query for c in rep.queries] == queries
    for c in rep.queries:
        assert 0 < c.percolation_total <= c.layer_rebuild_total


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10_000), st.integers(1, 4))
def test_count_queries_match_count_query(seed, L):
    # one kernel call for all queries, repeated entities included, gives
    # each query the figures of its own call
    rng = np.random.default_rng(seed)
    idx = build_index(augment(random_kg(rng)))
    queries = rng.integers(0, idx.num_entities, size=int(rng.integers(0, 9)))
    rep = count_queries(idx, queries, L)
    assert rep.queries == [count_query(idx, int(q), L) for q in queries]


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
    assert rep.queries == [count_query(idx, int(q), L, removed=r)
                           for q, r in zip(queries, removed)]
