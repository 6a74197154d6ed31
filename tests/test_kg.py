from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kgpercolate.kg import (
    Vocab,
    augment,
    build_index,
    load_triples,
    make_graph,
    reverse_rel,
)

from conftest import build_toy, random_kg


def test_load_single_line(tmp_path):
    p = tmp_path / "t.txt"
    p.write_text("a\tr\tb\n")
    arr, ents, rels = load_triples(str(p))
    assert arr.shape == (1, 3)
    assert ents.id("a") == 0 and ents.id("b") == 1 and rels.id("r") == 0
    assert arr.tolist() == [[0, 0, 1]]


def test_load_first_appearance_order(tmp_path):
    p = tmp_path / "t.txt"
    p.write_text("x\tr2\ty\ny\tr1\tz\n")
    arr, ents, rels = load_triples(str(p))
    assert [ents.name(i) for i in range(3)] == ["x", "y", "z"]
    assert rels.id("r2") == 0 and rels.id("r1") == 1


def test_load_malformed_line_names_line_number(tmp_path):
    p = tmp_path / "t.txt"
    p.write_text("a\tr\tb\na\tb\n")
    with pytest.raises(ValueError, match=r":2:"):
        load_triples(str(p))


def test_load_duplicate_triple_rejected(tmp_path):
    p = tmp_path / "t.txt"
    p.write_text("a\tr\tb\na\tr\tb\n")
    with pytest.raises(ValueError, match="duplicate"):
        load_triples(str(p))


def test_load_extends_shared_vocab(tmp_path):
    p1 = tmp_path / "a.txt"
    p2 = tmp_path / "b.txt"
    p1.write_text("a\tr\tb\n")
    p2.write_text("b\tr\tc\n")
    _, ents, rels = load_triples(str(p1))
    arr2, ents, rels = load_triples(str(p2), ents, rels)
    assert len(ents) == 3 and len(rels) == 1
    assert arr2.tolist() == [[1, 0, 2]]


def test_load_empty_file_gives_no_triples(tmp_path):
    p = tmp_path / "t.txt"
    p.write_text("")
    arr, ents, rels = load_triples(str(p))
    assert arr.shape == (0, 3) and len(ents) == 0


def test_augment_counts_toy():
    kg = build_toy()
    aug = augment(kg)
    # 2*|T| + |E| = 2*6 + 5
    assert aug.augmented.shape == (17, 3)
    assert len(aug.relations) == 5
    assert build_index(aug).identity_rel == 4


def test_augment_reverse_and_identity_ids():
    kg = build_toy()
    aug = augment(kg)
    base = aug.triples
    rev = aug.augmented[len(base) : 2 * len(base)]
    assert np.array_equal(rev[:, 0], base[:, 2])
    assert np.array_equal(rev[:, 2], base[:, 0])
    assert np.array_equal(rev[:, 1], base[:, 1] + 2)
    ident = aug.augmented[2 * len(base) :]
    assert np.array_equal(ident[:, 0], ident[:, 2])
    assert (ident[:, 1] == 2 * kg.n_base_relations).all()


def test_augment_twice_is_error():
    aug = augment(build_toy())
    with pytest.raises(ValueError, match="already augmented"):
        augment(aug)


def test_augment_empty_triples_gives_identity_loops_only():
    ents = Vocab(["a", "b", "c"])
    kg = make_graph(np.empty((0, 3), dtype=np.int32), ents, Vocab())
    aug = augment(kg)
    assert aug.augmented.shape == (3, 3)
    assert (aug.augmented[:, 1] == 2 * kg.n_base_relations).all()


def test_reverse_rel_mapping():
    assert reverse_rel(0, 2) == 2
    assert reverse_rel(1, 2) == 3
    assert reverse_rel(2, 2) == 0
    assert reverse_rel(4, 2) == 4  # identity maps to itself
    arr = reverse_rel(np.array([0, 3, 4]), 2)
    assert arr.tolist() == [2, 1, 4]
    # an id outside [0, 2R] is no relation; mapped, -1 would read as base
    # relation 1 and 9 as itself, and 1.5 and True as relation 1
    for bad, got in ((-1, "= -1"), (5, "= 5"), (np.array([0, 5]), r"span \[0, 5\]")):
        with pytest.raises(ValueError, match=rf"^relation ids {got}, outside \[0, 5\)"):
            reverse_rel(bad, 2)
    for bad, dtype in ((1.5, "float64"), (True, "bool")):
        with pytest.raises(ValueError, match=f"^relation ids must be integers, not {dtype}$"):
            reverse_rel(bad, 2)
    # as n_base, 1.5 would map relation 1 to 2, and True map it to 0
    for bad in (1.5, True):
        with pytest.raises(ValueError, match=f"^n_base must be an integer >= 0, got {bad}$"):
            reverse_rel(1, bad)


def test_index_outgoing_set_of_A(toy_index, toy_aug):
    ids = toy_aug.entities
    rels = toy_aug.relations
    a = ids.id("A")
    out = slice(toy_index.indptr[a], toy_index.indptr[a + 1])
    rows = set(zip(toy_index.head[out].tolist(), toy_index.rel[out].tolist(),
                   toy_index.tail[out].tolist()))
    expected = {
        (ids.id("A"), rels.id("r1"), ids.id("B")),
        (ids.id("A"), rels.id("r2"), ids.id("D")),
        (ids.id("A"), toy_index.identity_rel, ids.id("A")),
    }
    assert rows == expected


@pytest.mark.parametrize("rows, msg", [
    ([[0, 0, 1], [0, 3, 1]], r"^triple relation ids span \[0, 3\], outside \[0, 1\), "
                             r"first bad at position 1$"),
    ([[0, 0, 5]], r"^triple tail ids span \[5, 5\], outside \[0, 2\)$"),
    ([[-1, 0, 1]], r"^triple head ids span \[-1, -1\], outside \[0, 2\)$"),
    # the first bad field, and in it the first bad row
    ([[0, 0, 1], [2, 0, -1], [0, 9, 0]], r"^triple head ids span \[0, 2\], outside \[0, 2\), "
                                         r"first bad at position 1$"),
], ids=["relation-high", "tail-high", "head-low", "first-field"])
def test_make_graph_rejects_out_of_range_ids(rows, msg):
    with pytest.raises(ValueError, match=msg):
        make_graph(np.array(rows), Vocab(["a", "b"]), Vocab(["r"]))


@pytest.mark.parametrize("rows, msg", [
    (np.array([[0, 0, 1.7], [1.2, 0, 0]]), "triple head ids must be integers, not float64"),
    (np.array([[False, False, True]]), "triple head ids must be integers, not bool"),
    # [[0, True, 1]] is an integer array to numpy
    ([[0, True, 1]], r"triple ids must be integers, not bool, first bad at position \(0, 1\)"),
], ids=["float", "bool", "bool_in_list"])
def test_make_graph_rejects_non_integer_ids(rows, msg):
    # a cast would truncate 1.7 to 1 and read True as 1
    with pytest.raises(ValueError, match=f"^{msg}$"):
        make_graph(rows, Vocab(["a", "b"]), Vocab(["r", "s"]))


def test_make_graph_accepts_empty_array_of_any_dtype():
    kg = make_graph(np.empty((0, 3)), Vocab(["a"]), Vocab(["r"]))
    assert kg.triples.shape == (0, 3) and kg.triples.dtype == np.int32


@pytest.mark.parametrize("head", [5, -1])
def test_index_rejects_head_outside_entities(toy_aug, head):
    aug = toy_aug.augmented.copy()
    aug[3, 0] = head
    bad = dataclasses.replace(toy_aug, augmented=aug)
    # the other heads span [0, 4]
    span = rf"\[{min(head, 0)}, {max(head, 4)}\]"
    with pytest.raises(ValueError, match=rf"^augmented head ids span {span}, outside \[0, 5\), "
                                         r"first bad at position 3$"):
        build_index(bad)


def test_index_before_augment_is_error(toy_kg):
    with pytest.raises(ValueError, match="augment"):
        build_index(toy_kg)


def test_find_edges(toy_index, toy_aug):
    ids = toy_aug.entities
    pos = toy_index.find_edges(ids.id("A"), ids.id("B"))
    assert len(pos) == 1
    assert toy_index.tail[pos[0]] == ids.id("B")


@pytest.mark.parametrize("h, t, named", [(-1, 0, r"h = -1, outside \[0, 5\)"),
                                          (0, -1, r"t = -1, outside \[0, 5\)"),
                                          (5, 0, r"h = 5, outside \[0, 5\)"),
                                          (0, 5, r"t = 5, outside \[0, 5\)"),
                                          (0, True, "t must be integers, not bool"),
                                          (True, 2, "h must be integers, not bool"),
                                          (0.0, 1, "h must be integers, not float64")],
                         ids=["h_low", "t_low", "h_high", "t_high", "t_bool", "h_bool", "h_float"])
def test_find_edges_rejects_out_of_range_ids(toy_index, h, t, named):
    # a negative h would read indptr[-1]:indptr[0] and find nothing, h = |E|
    # would fail in numpy indexing, and t = True would find the edges to 1
    with pytest.raises(ValueError, match=rf"^find_edges {named}$"):
        toy_index.find_edges(h, t)


def test_roundtrip_augmented_tsv(tmp_path, toy_aug):
    # the augmented triples written by name, reverse and identity names
    # included, load back as the same triples
    p = tmp_path / "aug.txt"
    name = toy_aug.entities.name
    p.write_text("".join(f"{name(h)}\t{toy_aug.relations.name(r)}\t{name(t)}\n"
                         for h, r, t in toy_aug.augmented.tolist()), encoding="utf-8")
    arr, ents, rels = load_triples(str(p))
    # same multiset of triples up to the id remap induced by the new vocabs
    orig = sorted(
        (
            toy_aug.entities.name(h),
            toy_aug.relations.name(r),
            toy_aug.entities.name(t),
        )
        for h, r, t in toy_aug.augmented.tolist()
    )
    back = sorted(
        (ents.name(h), rels.name(r), ents.name(t)) for h, r, t in arr.tolist()
    )
    assert orig == back


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000))
def test_augment_arithmetic_random(seed):
    kg = random_kg(np.random.default_rng(seed))
    aug = augment(kg)
    assert len(aug.augmented) == 2 * len(kg.triples) + len(kg.entities)
    assert len(aug.relations) == 2 * kg.n_base_relations + 1
    idx = build_index(aug)
    assert idx.out_degree.sum() == len(aug.augmented)
    # out-degree equals in-degree in an augmented graph
    indeg = np.bincount(aug.augmented[:, 2], minlength=len(kg.entities))
    assert np.array_equal(idx.out_degree, indeg)


def _layout_graph(seed: int, n_e: int):
    """Random base graph whose rows include self-loops and repeated (h, t)
    pairs, over entities of which about half are isolated."""
    rng = np.random.default_rng(seed)
    n_r = int(rng.integers(1, 5))
    n_t = int(rng.integers(0, 2 * n_e + 1))
    used = rng.integers(0, n_e, size=max(1, n_e // 2))
    rows = np.stack([rng.choice(used, n_t), rng.integers(0, n_r, n_t),
                     rng.choice(used, n_t)], axis=1)
    loops = rng.choice(used, n_t // 8 + 1)
    rows = np.concatenate([rows, rows[: n_t // 4],
                           np.stack([loops, np.zeros_like(loops), loops], axis=1)])
    return make_graph(rows, Vocab([f"e{i}" for i in range(n_e)]),
                      Vocab([f"r{i}" for i in range(n_r)]))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 60))
@example(seed=11, n_e=70_000)  # keys head*m + i beyond 2**31, heads beyond uint16
def test_index_layout_matches_stable_argsort(seed, n_e):
    aug = augment(_layout_graph(seed, n_e))
    idx = build_index(aug)
    # reference: a stable argsort by head and a gather of whole rows
    srt = aug.augmented[np.argsort(aug.augmented[:, 0], kind="stable")]
    counts = np.bincount(srt[:, 0], minlength=n_e)
    want = {
        "indptr": np.concatenate([[0], np.cumsum(counts)]).astype(np.int64),
        "head": np.ascontiguousarray(srt[:, 0]),
        "rel": np.ascontiguousarray(srt[:, 1]),
        "tail": np.ascontiguousarray(srt[:, 2]),
        "out_degree": counts.astype(np.int64),
    }
    for name, ref in want.items():
        got = getattr(idx, name)
        assert got.dtype == ref.dtype, name
        assert got.flags.c_contiguous, name
        assert np.array_equal(got, ref), name
    assert idx.num_entities == n_e
    assert idx.n_base_relations == aug.n_base_relations
