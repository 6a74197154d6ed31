from __future__ import annotations

import dataclasses
import hashlib

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kgpercolate.counting import count_queries
from kgpercolate.ids import check_ids
from kgpercolate.kg import Vocab, augment, build_index, make_graph
from kgpercolate.layering import QuerySpec, SubgraphBuilder, batch_distances

from conftest import bfs_oracle, build_toy, layer_positions, random_kg, random_mask


def test_toy_distances(toy_index, toy_aug):
    ids = toy_aug.entities
    bd = batch_distances(toy_index, [ids.id("A")], 3)
    got = {toy_aug.entities.name(i): int(d) for i, d in enumerate(bd.dist)}
    assert got == {"A": 0, "B": 1, "C": 2, "D": 1, "E": 3}


def test_horizon_truncation(toy_index, toy_aug):
    ids = toy_aug.entities
    bd = batch_distances(toy_index, [ids.id("A")], 1)
    assert bd.dist[ids.id("C")] == -1
    assert bd.dist[ids.id("E")] == -1
    assert set(np.flatnonzero(bd.dist == 1)) == {ids.id("B"), ids.id("D")}


def test_isolated_query_has_empty_layers():
    ents = Vocab(["a", "b"])
    rels = Vocab(["r"])
    kg = make_graph(np.empty((0, 3), dtype=np.int32), ents, rels)
    idx = build_index(augment(kg))
    bd = batch_distances(idx, [0], 3)
    assert bd.dist[0] == 0 and bd.dist[1] == -1
    assert not np.any(bd.dist == 1)


def test_bad_arguments(toy_index):
    with pytest.raises(ValueError):
        batch_distances(toy_index, [99], 3)
    # True would run as horizon 1, and 2.5 fail in range()
    for horizon in (0, True, 2.5):
        with pytest.raises(ValueError, match=f"^horizon must be an integer >= 1, got {horizon}$"):
            batch_distances(toy_index, [0], horizon)


def test_toy_percolation_layer2(toy_index, toy_aug):
    ids, rels = toy_aug.entities, toy_aug.relations
    bd = batch_distances(toy_index, [ids.id("A")], 3)
    pos = layer_positions(bd)[1]
    got = {
        (toy_index.head[p], toy_index.rel[p], toy_index.tail[p]) for p in pos
    }
    expected = {
        (ids.id("B"), rels.id("r1"), ids.id("C")),
        (ids.id("D"), rels.id("r2"), ids.id("C")),
        (ids.id("B"), rels.id("r2"), ids.id("D")),
        (ids.id("D"), rels.id("r2_inv"), ids.id("B")),
        (ids.id("B"), toy_index.identity_rel, ids.id("B")),
        (ids.id("D"), toy_index.identity_rel, ids.id("D")),
    }
    assert got == expected
    # the edge pointing back to the query is never included
    back = (ids.id("B"), rels.id("r1_inv"), ids.id("A"))
    assert back not in got


def test_toy_percolation_layer_counts(toy_index, toy_aug):
    ids = toy_aug.entities
    bd = batch_distances(toy_index, [ids.id("A")], 3)
    sizes = [len(pos) for pos in layer_positions(bd)]
    assert sizes == [3, 6, 2]


def test_layers_disjoint_and_downhill(toy_index, toy_aug):
    ids = toy_aug.entities
    bd = batch_distances(toy_index, [ids.id("A")], 3)
    all_pos = []
    for l, pos in enumerate(layer_positions(bd), 1):
        all_pos.extend(pos.tolist())
        hd = bd.dist[toy_index.head[pos]]
        td = bd.dist[toy_index.tail[pos]]
        assert (hd <= td).all()
        assert (hd == l - 1).all()
    assert len(all_pos) == len(set(all_pos))


def test_removed_edges_affect_distances(toy_index, toy_aug):
    ids = toy_aug.entities
    # removing A->B and A->D disconnects everything from A
    removed = np.concatenate(
        [
            toy_index.find_edges(ids.id("A"), ids.id("B")),
            toy_index.find_edges(ids.id("A"), ids.id("D")),
        ]
    )
    bd = batch_distances(toy_index, [ids.id("A")], 3, [removed])
    assert (bd.dist[[ids.id("B"), ids.id("C"), ids.id("D"), ids.id("E")]] == -1).all()


def test_batch_node_table_duplicates_shared_entities(toy_index, toy_aug):
    ids = toy_aug.entities
    b = SubgraphBuilder(toy_index)
    qs = [
        QuerySpec(query=ids.id("A"), rel=0, answer=ids.id("C")),
        QuerySpec(query=ids.id("B"), rel=1, answer=ids.id("A")),
    ]
    bg = b.build_batch(qs, horizon=3)
    # every entity reachable from both queries appears once per query slot
    assert bg.num_queries == 2
    assert bg.n_nodes == len(bg.node_entity)
    s0, e0 = bg.spans[0]
    s1, e1 = bg.spans[1]
    assert e0 - s0 == 5  # all toy entities reachable from A in 3 hops
    assert bg.node_query[s0:e0].tolist() == [0] * (e0 - s0)
    assert bg.node_query[s1:e1].tolist() == [1] * (e1 - s1)
    assert bg.node_entity[bg.query_nodes[0]] == ids.id("A")
    assert bg.node_entity[bg.query_nodes[1]] == ids.id("B")
    assert bg.node_entity[bg.answer_nodes[0]] == ids.id("C")


def test_batch_denominators_are_global_degrees(toy_index, toy_aug):
    ids = toy_aug.entities
    b = SubgraphBuilder(toy_index)
    bg = b.build_batch([QuerySpec(query=ids.id("A"), rel=0)], horizon=3)
    for lt in list(bg.layers) + [bg.decoder]:
        ent = bg.node_entity[lt.targets]
        assert np.array_equal(
            lt.denom.astype(np.int64), toy_index.out_degree[ent]
        )


def test_batch_answer_unreachable_flag(toy_index, toy_aug):
    ids = toy_aug.entities
    b = SubgraphBuilder(toy_index)
    bg = b.build_batch(
        [QuerySpec(query=ids.id("A"), rel=0, answer=ids.id("E"))], horizon=2
    )
    assert bg.answer_nodes[0] == -1  # E is 3 hops out


def test_batch_respects_removed_edges(toy_index, toy_aug):
    ids = toy_aug.entities
    removed = np.concatenate(
        [
            toy_index.find_edges(ids.id("A"), ids.id("B")),
            toy_index.find_edges(ids.id("B"), ids.id("A")),
        ]
    )
    b = SubgraphBuilder(toy_index)
    bg = b.build_batch(
        [QuerySpec(query=ids.id("A"), rel=0, answer=ids.id("B"), removed=removed)],
        horizon=3,
    )
    # B is still reachable via D (A->D->B needs reverse of B->r2->D... check distance)
    s, e = bg.spans[0]
    ents = bg.node_entity[s:e]
    # direct edge gone; B now at distance 2 via D (D -r2_inv-> B)
    assert ids.id("B") in ents.tolist()
    # decoder must not contain the removed direct edge
    dec = bg.decoder
    for i in range(dec.num_triples):
        seg = np.searchsorted(dec.seg_ptr, i, "right") - 1
        h = bg.node_entity[dec.head_node[i]]
        t = bg.node_entity[dec.targets[seg]]
        assert not (h == ids.id("A") and t == ids.id("B"))
    # scratch state fully reset: a fresh unmasked build sees the edge again
    # in layer 1, the one layer a horizon-2 batch holds
    bg2 = b.build_batch([QuerySpec(query=ids.id("A"), rel=0)], horizon=2)
    [lt] = bg2.layers
    pairs = set()
    for i in range(lt.num_triples):
        seg = np.searchsorted(lt.seg_ptr, i, "right") - 1
        pairs.add(
            (int(bg2.node_entity[lt.head_node[i]]), int(bg2.node_entity[lt.targets[seg]]))
        )
    assert (ids.id("A"), ids.id("B")) in pairs


@pytest.mark.parametrize(
    "field, bad",
    [
        ("query", QuerySpec(query=99, rel=0)),
        ("query", QuerySpec(query=-1, rel=0)),
        ("query", QuerySpec(query=1.5, rel=0)),
        ("query", QuerySpec(query=True, rel=0)),
        ("rel", QuerySpec(query=0, rel=99)),
        ("rel", QuerySpec(query=0, rel=5)),  # identity is 4 on the toy graph
        ("rel", QuerySpec(query=0, rel=-1)),
        ("rel", QuerySpec(query=0, rel=True)),
        ("answer", QuerySpec(query=0, rel=0, answer=99)),
        ("answer", QuerySpec(query=0, rel=0, answer=-2)),
        ("answer", QuerySpec(query=0, rel=0, answer=2.0)),
        ("answer", QuerySpec(query=0, rel=0, answer=np.False_)),
        # beside the good slot's Python int, numpy makes the answers float64
        ("answer", QuerySpec(query=0, rel=0, answer=np.uint64(2**64 - 1))),
        # beside a uint64 answer they stay uint64; cast to int64, 2**64 - 1
        # would wrap to -1, "no answer"
        ("answer", (np.uint64(0), QuerySpec(query=0, rel=0, answer=np.uint64(2**64 - 1)))),
        ("removed", QuerySpec(query=0, rel=0, removed=np.array([0, 99]))),
        ("removed", QuerySpec(query=0, rel=0, removed=np.array([-1]))),
        ("removed", QuerySpec(query=0, rel=0, removed=np.array([1.0]))),
        ("removed", QuerySpec(query=0, rel=0, removed=np.array([True]))),
    ],
    ids=["query-high", "query-low", "query-float", "query-bool", "rel-high", "rel-past-identity",
         "rel-low", "rel-bool", "answer-high", "answer-low", "answer-float", "answer-bool",
         "answer-uint64-wrap", "answer-uint64-wrap-array",
         "removed-high", "removed-low", "removed-float", "removed-bool"],
)
def test_batch_rejects_out_of_range_specs(toy_index, field, bad):
    b = SubgraphBuilder(toy_index)
    answer, bad = bad if isinstance(bad, tuple) else (0, bad)  # the good slot's answer
    good = QuerySpec(query=1, rel=4, answer=answer, removed=np.array([0]))
    # a slot's query, relation and answer are the ids at its position; its
    # removed positions are checked on their own
    msg = {"query": "^query entity ids .*, first bad at position 1$",
           "rel": "^query relation ids .*, first bad at position 1$",
           "answer": "^answer ids .*, first bad at position 1$",
           "removed": "^query slot 1: removed positions "}[field]
    with pytest.raises(ValueError, match=msg):
        b.build_batch([good, bad], horizon=3)
    # the failed call leaves no state behind: A has 3 entities within 1 hop
    bg = b.build_batch([QuerySpec(0, 0)], 1)
    assert bg.n_nodes == 3
    fresh = SubgraphBuilder(toy_index).build_batch([good], 3)
    again = b.build_batch([good], 3)
    assert np.array_equal(again.node_entity, fresh.node_entity)
    assert np.array_equal(again.decoder.head_node, fresh.decoder.head_node)


def test_batch_accepts_uint64_answer_beside_int(toy_index):
    # numpy makes the answers [0, np.uint64(2)] a float64 array
    specs = [QuerySpec(1, 4, 0), QuerySpec(0, 0, 2)]
    want = SubgraphBuilder(toy_index).build_batch(specs, 3)
    specs[1] = QuerySpec(0, 0, np.uint64(2))
    got = SubgraphBuilder(toy_index).build_batch(specs, 3)
    assert np.array_equal(got.answer_nodes, want.answer_nodes) and want.answer_nodes.min() >= 0


def slot_triples(bg, lt, s: int) -> list[tuple[int, int, int]]:
    """The (head, rel, tail) entity triples of query slot s in one layer."""
    tail = np.repeat(lt.targets, np.diff(lt.seg_ptr))
    sel = lt.triple_query == s
    return sorted(zip(bg.node_entity[lt.head_node[sel]].tolist(), lt.rel[sel].tolist(),
                      bg.node_entity[tail[sel]].tolist()))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000), st.integers(0, 8), st.integers(1, 5))
@example(seed=0, n_slots=1, L=5)  # an entity at distance 5
def test_batch_slots_match_single_query_and_oracle(seed, n_slots, L):
    # a few entities fill all slots, each slot under its own mask, so a mask
    # or a distance keyed on the wrong slot shows up as a mismatch
    rng = np.random.default_rng(seed)
    kg = augment(random_kg(rng))
    idx = build_index(kg)
    n_e = len(kg.entities)
    ents = rng.integers(0, n_e, size=max(1, n_slots // 2))
    specs, kept = [], []
    for _ in range(n_slots):
        removed, rows = random_mask(rng, idx, rng.uniform(0.0, 0.5))
        specs.append(QuerySpec(int(rng.choice(ents)), 0, int(rng.integers(-1, n_e)), removed))
        kept.append(rows)
    bg = SubgraphBuilder(idx).build_batch(specs, L)
    bg.check()
    assert bg.num_queries == n_slots
    for s, (qs, rows) in enumerate(zip(specs, kept)):
        oracle = bfs_oracle(rows, n_e, qs.query, L)
        bd = batch_distances(idx, [qs.query], L, [qs.removed])
        assert np.array_equal(bd.dist.astype(np.int64), oracle)
        lo, hi = bg.spans[s]
        assert np.array_equal(bg.node_entity[lo:hi], np.flatnonzero(oracle >= 0))
        assert bg.node_entity[bg.query_nodes[s]] == qs.query
        reached = qs.answer >= 0 and oracle[qs.answer] >= 0
        assert bg.answer_nodes[s] == (lo + np.searchsorted(bg.node_entity[lo:hi], qs.answer)
                                      if reached else -1)
        d = oracle.tolist()
        naive = [
            sorted((h, r, t) for h, r, t in rows.tolist() if d[h] == l - 1 and d[t] in (l - 1, l))
            for l in range(1, L + 1)
        ]
        layers = layer_positions(bd)
        for pos, want in zip(layers, naive):
            assert sorted(zip(idx.head[pos].tolist(), idx.rel[pos].tolist(),
                              idx.tail[pos].tolist())) == want
        # the batch holds the encoder's layers 1..L-1 and the decoder
        assert len(bg.layers) == L - 1
        dec = sorted((h, r, t) for h, r, t in rows.tolist() if d[h] >= 0 and d[t] >= 0)
        for lt, pos, want in zip(bg.layers + [bg.decoder],
                                 layers[:-1] + [bd.decoder[1]], naive[:-1] + [dec]):
            single = sorted(zip(idx.head[pos].tolist(), idx.rel[pos].tolist(),
                                idx.tail[pos].tolist()))
            assert slot_triples(bg, lt, s) == single == want


def test_map_keeps_its_own_query_ids(toy_index):
    # an int64 id array passes the id check uncopied; the map must not share it
    q = np.array([0, 2], dtype=np.int64)
    bd = batch_distances(toy_index, q, 3)
    q[:] = 1
    assert bd.queries.tolist() == [0, 2]


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_calls_leave_callers_arrays_unchanged(seed):
    # the kernel works in place on arrays of its own; the int64 query,
    # removed and entity arrays a caller passes in come back byte for byte
    rng = np.random.default_rng(seed)
    idx = build_index(augment(random_kg(rng)))
    queries = rng.integers(0, idx.num_entities, 6)
    removed = [random_mask(rng, idx, 0.2)[0] for _ in queries]
    ents = rng.integers(0, idx.num_entities, 9)
    inputs = [queries, ents, *removed]
    before = [a.tobytes() for a in inputs]
    batch_distances(idx, queries, 3, removed)
    count_queries(idx, queries, 3, removed)
    SubgraphBuilder(idx).build_batch(
        [QuerySpec(q, 0, removed=r) for q, r in zip(queries, removed)], 3)
    idx.out_positions(ents)
    assert all(a.dtype == np.int64 for a in inputs)
    assert [a.tobytes() for a in inputs] == before


@pytest.mark.parametrize("queries", [[0, 1], [0], [1, 0, 1]])
def test_batch_bfs_dies_before_horizon(queries):
    # a is isolated and b -> c -> d is a chain, so from layer 3 on no slot
    # finds a new entity and the BFS expands empty frontiers; slot 2 masks
    # b -> c, so its BFS dies at once
    ents = Vocab(["a", "b", "c", "d"])
    idx = build_index(augment(make_graph(np.array([[1, 0, 2], [2, 0, 3]]), ents, Vocab(["r"]))))
    triples = np.stack([idx.head, idx.rel, idx.tail], axis=1)
    masks = [None, None, idx.find_edges(1, 2)]
    specs = [QuerySpec(q, 0, removed=masks[s]) for s, q in enumerate(queries)]
    bg = SubgraphBuilder(idx).build_batch(specs, 5)
    bg.check()
    for s, qs in enumerate(specs):
        kept = np.delete(triples, [] if qs.removed is None else qs.removed, axis=0)
        oracle = bfs_oracle(kept, 4, qs.query, 5)
        lo, hi = bg.spans[s]
        assert np.array_equal(bg.node_entity[lo:hi], np.flatnonzero(oracle >= 0))
        bd = batch_distances(idx, [qs.query], 5, [qs.removed])
        assert np.array_equal(bd.dist.astype(np.int64), oracle)
        sizes = [len(pos) for pos in layer_positions(bd)]
        assert sizes[3:] == [0, 0]
        # the batch holds layers 1..4, the kernel's layer 5 is not merged
        assert [len(slot_triples(bg, lt, s)) for lt in bg.layers] == sizes[:-1]


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000), st.integers(1, 8), st.integers(1, 4))
def test_batch_layers_are_bfs_layers_grouped_by_tail(seed, n_slots, L):
    # the builder groups the decoder once and takes each layer as a
    # subsequence of it; that must equal each slot's layer, read off a plain
    # BFS in ascending triple position, put through a stable sort by tail
    # row: the summation order the model's sums see
    rng = np.random.default_rng(seed)
    idx = build_index(augment(random_kg(rng)))
    n_e = idx.num_entities
    specs = [QuerySpec(int(rng.integers(0, n_e)), 0, -1,
                       random_mask(rng, idx, rng.uniform(0.0, 0.5))[0] if rng.random() < 0.5
                       else None)
             for _ in range(n_slots)]
    bg = SubgraphBuilder(idx).build_batch(specs, L)
    triples = np.stack([idx.head, idx.rel, idx.tail], axis=1)
    row = {key: r for r, key in enumerate(zip(bg.node_query.tolist(), bg.node_entity.tolist()))}
    # (slot, pos) of every unmasked triple in each slot's layer l, or decoder at l=0
    wanted = {l: [] for l in range(L)}
    for s, qs in enumerate(specs):
        removed = set() if qs.removed is None else set(qs.removed.tolist())
        kept = [p for p in range(idx.num_triples) if p not in removed]
        d = bfs_oracle(triples[kept], n_e, qs.query, L).tolist()
        for p in kept:
            h, t = int(idx.head[p]), int(idx.tail[p])
            if d[h] >= 0 and d[t] >= 0:
                wanted[0].append((s, p))
            if 1 <= d[h] + 1 < L and d[t] >= d[h]:
                wanted[d[h] + 1].append((s, p))
    assert len(bg.layers) == L - 1
    for lt, pairs in zip(bg.layers + [bg.decoder], [wanted[l] for l in range(1, L)] + [wanted[0]]):
        rows = [(row[s, int(idx.tail[p])], row[s, int(idx.head[p])], int(idx.rel[p]), s)
                for s, p in pairs]
        grouped = sorted(rows, key=lambda x: x[0])  # sorted() is stable
        tail = [x[0] for x in grouped]
        targets = sorted(set(tail))
        assert lt.targets.tolist() == targets
        assert lt.seg_ptr.tolist() == [tail.index(t) for t in targets] + [len(tail)]
        assert lt.head_node.tolist() == [x[1] for x in grouped]
        assert lt.rel.tolist() == [x[2] for x in grouped]
        assert lt.triple_query.tolist() == [x[3] for x in grouped]
        for a in (lt.head_node, lt.rel, lt.seg_ptr, lt.targets, lt.triple_query):
            assert a.dtype == np.int64


@pytest.mark.parametrize("L", [1, 2, 3, 4])
def test_layer_index_arrays_are_int64(L):
    # the model's gathers and scatters hand these to check_ids, which passes
    # a nonempty int64 array on as it is and copies any other
    rng = np.random.default_rng(60 + L)
    idx = build_index(augment(random_kg(rng)))
    queries = rng.integers(0, idx.num_entities, 6).tolist()
    specs = [QuerySpec(q, 0, -1, random_mask(rng, idx, 0.2)[0] if k % 2 else None)
             for k, q in enumerate(queries)]
    bg = SubgraphBuilder(idx).build_batch(specs, L)
    for lt in bg.layers + [bg.decoder]:
        for name in ("head_node", "rel", "seg_ptr", "targets", "triple_query"):
            a = getattr(lt, name)
            assert a.dtype == np.int64, name
            assert len(a) == 0 or check_ids(name, a, 0, 1 << 62) is a, name


def batch_fields(bg) -> dict:
    """Every field of a batch by name, the fields of each layer included."""
    out = {f.name: getattr(bg, f.name) for f in dataclasses.fields(bg)
           if f.name not in ("layers", "decoder")}
    named = [(f"layer {l}", lt) for l, lt in enumerate(bg.layers, 1)]
    for name, lt in named + [("decoder", bg.decoder)]:
        out.update({f"{name}.{f.name}": getattr(lt, f.name) for f in dataclasses.fields(lt)})
    return out


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000), st.integers(1, 4))
def test_masking_equals_deletion(seed, L):
    # a train query masks its own base triple and the reverse twin: its
    # batch must be, field by field with the float denominators included,
    # the unmasked batch on the graph without that triple
    rng = np.random.default_rng(seed)
    kg = random_kg(rng)
    idx = build_index(augment(kg))
    i = int(rng.integers(0, len(kg.triples)))
    h, r, t = kg.triples[i].tolist()
    fwd, rev = idx.find_edges(h, t), idx.find_edges(t, h)
    removed = np.concatenate([fwd[idx.rel[fwd] == r],
                              rev[idx.rel[rev] == r + kg.n_base_relations]])
    assert len(removed) == 2
    kept = make_graph(np.delete(kg.triples, i, axis=0), kg.entities, kg.relations)
    n_e = len(kg.entities)
    queries = [h, t, *rng.integers(0, n_e, size=2).tolist()]
    rels = rng.integers(0, idx.identity_rel + 1, size=len(queries)).tolist()
    answers = rng.integers(-1, n_e, size=len(queries)).tolist()
    masked = SubgraphBuilder(idx).build_batch(
        [QuerySpec(q, rel, a, removed) for q, rel, a in zip(queries, rels, answers)], L)
    deleted = SubgraphBuilder(build_index(augment(kept))).build_batch(
        [QuerySpec(q, rel, a) for q, rel, a in zip(queries, rels, answers)], L)
    masked.check()
    want = batch_fields(deleted)
    got = batch_fields(masked)
    assert got.keys() == want.keys()
    for name, value in got.items():
        assert np.asarray(value).dtype == np.asarray(want[name]).dtype, name
        assert np.array_equal(value, want[name]), name


def batch_int_digest(seeds=range(6)) -> str:
    """sha256 of the integer fields of seeded batches on random graphs, with
    repeated query entities, masked and unmasked slots, at horizons 1-4."""
    h = hashlib.sha256()

    def feed(a):
        a = np.asarray(a).astype("<i8")
        h.update(f"{a.shape}".encode())
        h.update(a.tobytes())

    for seed in seeds:
        rng = np.random.default_rng([seed, 4242])
        idx = build_index(augment(random_kg(rng)))
        n_e = idx.num_entities
        for L in (1, 2, 3, 4):
            specs = []
            for k in range(6):
                q = int(rng.integers(0, n_e)) if k % 3 == 0 else specs[-1].query
                removed = random_mask(rng, idx, 0.3)[0] if k % 2 else None
                specs.append(QuerySpec(q, int(rng.integers(0, idx.identity_rel + 1)),
                                       int(rng.integers(-1, n_e)), removed))
            bg = SubgraphBuilder(idx).build_batch(specs, L)
            for a in (bg.n_nodes, bg.node_entity, bg.node_query, bg.spans, bg.query_nodes,
                      bg.query_rels, bg.answer_nodes):
                feed(a)
            for lt in bg.layers + [bg.decoder]:
                for a in (lt.head_node, lt.rel, lt.seg_ptr, lt.targets, lt.triple_query):
                    feed(a)
    return h.hexdigest()


def test_batch_golden_pin():
    # pins the node row order and the triple order within each segment:
    # set-based tests miss both, yet they set the float summation order of
    # the model and so its logits; no float math enters the digest
    assert batch_int_digest() == GOLDEN_BATCH_DIGEST


GOLDEN_BATCH_DIGEST = "1373cd653edd05dfd5f981b25248cede2477fa6a441b7f61b4f70f00e083a50d"


def _swap_first_two(a):
    a[[0, 1]] = a[[1, 0]]


@pytest.mark.parametrize(
    "corrupt, match",
    [
        (lambda bg: bg.layers[1].seg_ptr.__setitem__(0, 1), "seg_ptr"),
        (lambda bg: bg.decoder.seg_ptr.__setitem__(-1, bg.decoder.num_triples - 1), "seg_ptr"),
        (lambda bg: _swap_first_two(bg.decoder.seg_ptr[1:]), "seg_ptr"),
        (lambda bg: bg.decoder.seg_ptr.__setitem__(1, 0), "seg_ptr is not a strictly increasing"),
        (lambda bg: _swap_first_two(bg.decoder.targets), "targets"),
        (lambda bg: bg.decoder.head_node.__setitem__(0, bg.spans[1, 0]), "head row"),
        (lambda bg: bg.decoder.triple_query.__setitem__(0, 1), "row"),
        (lambda bg: bg.decoder.triple_query.__setitem__(0, 2), "triple_query"),
        (lambda bg: bg.query_nodes.__setitem__(0, bg.spans[1, 0]), "query_nodes"),
        (lambda bg: bg.answer_nodes.__setitem__(1, 0), "answer_nodes"),
        (lambda bg: bg.node_query.__setitem__(0, 1), "node_query"),
        (lambda bg: bg.spans.__setitem__((0, 1), bg.spans[0, 1] - 1), "spans"),
        (lambda bg: bg.layers.append(bg.decoder), "3 layers at horizon 3"),
        (lambda bg: bg.layers[0].denom.__setitem__(0, bg.layers[0].seg_ptr[1] - 1), "denom"),
        (lambda bg: setattr(bg.decoder, "rel", bg.decoder.rel[:-1]), "decoder: .* rel"),
        (lambda bg: setattr(bg, "query_nodes", bg.query_nodes[:-1]), r"^query_nodes has shape"),
        (lambda bg: setattr(bg, "answer_nodes", bg.answer_nodes[:-1]), r"^answer_nodes has shape"),
        (lambda bg: setattr(bg.layers[0], "denom", bg.layers[0].denom[:-1]),
         "layer 1: .* denom"),
    ],
    ids=["seg_ptr-start", "seg_ptr-end", "seg_ptr-decreasing", "seg_ptr-empty-segment",
         "targets-order", "head-crosses-span", "target-crosses-span", "slot-out-of-range",
         "query-node", "answer-node", "node_query", "spans-gap", "layer-count",
         "denom-below-messages", "decoder-rel-length", "query-nodes-length",
         "answer-nodes-length", "denom-length"],
)
def test_batch_check_rejects_broken_invariants(toy_index, toy_aug, corrupt, match):
    ids = toy_aug.entities
    bg = SubgraphBuilder(toy_index).build_batch(
        [QuerySpec(ids.id("A"), 0, ids.id("C")), QuerySpec(ids.id("B"), 1, ids.id("A"))], 3)
    bg.check()
    corrupt(bg)
    with pytest.raises(ValueError, match=match):
        bg.check()
