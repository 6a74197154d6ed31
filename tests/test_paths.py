from __future__ import annotations

import hashlib
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kgpercolate.kg import Vocab, augment, build_index, make_graph
from kgpercolate.layering import batch_distances
from kgpercolate.paths import (
    PrincipleReport,
    RelationalPath,
    classify_redundant,
    enumerate_paths,
    is_percolation_valid,
    potential_deltas,
    verify_percolation_principles,
)

from conftest import layer_positions, random_kg, toy_triple


@pytest.fixture
def toy_dm(toy_index, toy_aug):
    return batch_distances(toy_index, [toy_aug.entities.id("A")], 3)


def shortest_paths(index, dm, t):
    """The walks from the query to t as long as t's distance."""
    d = int(dm.dist[t])
    return [p for p in enumerate_paths(index, int(dm.queries[0]), t, d) if p.length == d]


def path_from_names(kg, names):
    """names: list of (h, rel, t) string triples."""
    trips = tuple(toy_triple(kg, *n) for n in names)
    return RelationalPath(trips[0][0], trips[-1][2], trips)


def test_path_chaining_validated(toy_aug):
    with pytest.raises(ValueError, match="breaks"):
        RelationalPath(0, 2, ((0, 0, 1), (3, 0, 2)))
    with pytest.raises(ValueError, match="ends at"):
        RelationalPath(0, 2, ((0, 0, 1),))


def test_enumerate_a_to_c_len2(toy_index, toy_aug):
    ids = toy_aug.entities
    paths = enumerate_paths(toy_index, ids.id("A"), ids.id("C"), 2)
    assert len(paths) == 2
    assert all(p.length == 2 for p in paths)
    got = {p.triples for p in paths}
    assert got == {
        (toy_triple(toy_aug, "A", "r1", "B"), toy_triple(toy_aug, "B", "r1", "C")),
        (toy_triple(toy_aug, "A", "r2", "D"), toy_triple(toy_aug, "D", "r2", "C")),
    }


def test_enumerate_len3_includes_detour(toy_index, toy_aug):
    ids = toy_aug.entities
    paths = enumerate_paths(toy_index, ids.id("A"), ids.id("C"), 3)
    detour = (
        toy_triple(toy_aug, "A", "r1", "B"),
        toy_triple(toy_aug, "B", "r2", "D"),
        toy_triple(toy_aug, "D", "r2", "C"),
    )
    assert detour in {p.triples for p in paths}
    assert len(paths) > 2


def test_enumerate_empty_path(toy_index, toy_aug):
    ids = toy_aug.entities
    paths = enumerate_paths(toy_index, ids.id("A"), ids.id("A"), 0)
    assert len(paths) == 1 and paths[0].length == 0
    # True would run as max_len 1, and 2.5 recurse past every depth
    for bad in (-1, True, 2.5):
        with pytest.raises(ValueError, match=f"^max_len must be an integer >= 0, got {bad}$"):
            enumerate_paths(toy_index, ids.id("A"), ids.id("A"), bad)


def test_enumerate_skips_self_loops():
    # a has a base self-loop, its reverse and an identity loop; no walk
    # steps along any of them
    kg = augment(make_graph(np.array([[0, 0, 0], [0, 0, 1]], dtype=np.int32),
                            Vocab(["a", "b"]), Vocab(["r"])))
    idx = build_index(kg)
    assert [p.triples for p in enumerate_paths(idx, 0, 1, 2)] == [((0, 0, 1),)]
    assert [p.triples for p in enumerate_paths(idx, 0, 0, 2)] == [(), ((0, 0, 1), (1, 1, 0))]


@pytest.mark.parametrize("source, target, bad", [
    (-1, 2, "source -1"), (-5, -5, "source -5"), (99, 0, "source 99"),
    (0, 5, "target 5"), (0, -1, "target -1"),
    (True, 2, "source True"),  # would walk from entity 1
])
def test_enumerate_refuses_ids_outside_range(toy_index, source, target, bad):
    name, value = bad.split()
    msg = (f"{name} must be integers, not bool" if value == "True"
           else rf"{name} = {value}, outside \[0, 5\)")
    with pytest.raises(ValueError, match=f"^{msg}$"):
        enumerate_paths(toy_index, source, target, 2)


def test_enumeration_bound_guard(monkeypatch, toy_index, toy_aug):
    import kgpercolate.paths

    ids = toy_aug.entities
    monkeypatch.setattr(kgpercolate.paths, "MAX_EXPANSIONS", 5)
    with pytest.raises(ValueError, match="exceeded 5 expansions"):
        enumerate_paths(toy_index, ids.id("A"), ids.id("C"), 3)


def test_deltas_invalid_detour(toy_aug, toy_index, toy_dm):
    p = path_from_names(toy_aug, [("A", "r1", "B"), ("B", "r2", "D"), ("D", "r2", "C")])
    assert potential_deltas(p, toy_dm) == [1, 0, 1]
    assert not is_percolation_valid(p, toy_dm)


def test_deltas_shortest_valid(toy_aug, toy_dm):
    p = path_from_names(toy_aug, [("A", "r1", "B"), ("B", "r1", "C")])
    assert potential_deltas(p, toy_dm) == [1, 1]
    assert is_percolation_valid(p, toy_dm)


def test_deltas_final_sideways_step(toy_aug, toy_dm):
    # B and D share depth 1; a final sideways step still counts as progress
    p = path_from_names(toy_aug, [("A", "r1", "B"), ("B", "r2", "D")])
    assert potential_deltas(p, toy_dm) == [1, 1]
    assert is_percolation_valid(p, toy_dm)


def test_deltas_outside_horizon_error(toy_aug, toy_index):
    dm1 = batch_distances(toy_index, [toy_aug.entities.id("A")], 1)
    p = path_from_names(toy_aug, [("A", "r1", "B"), ("B", "r1", "C")])
    with pytest.raises(ValueError, match="outside horizon"):
        potential_deltas(p, dm1)
    # an id outside [0, |E|) is refused, not read wrapped around: dist[-1]
    # is E's distance
    for e in (-1, 9):
        p = RelationalPath(0, e, ((0, 0, e),))
        span = rf"\[{min(e, 0)}, {max(e, 0)}\]"
        with pytest.raises(ValueError, match=rf"^path entity ids span {span}, "
                                             r"outside \[0, 5\), first bad at position 1$"):
            potential_deltas(p, dm1)
        with pytest.raises(ValueError, match=rf"^path entity ids span \[{e}, {e}\], "
                                             r"outside \[0, 5\)$"):
            classify_redundant(p, dm1, [])


def test_shortest_paths_a_to_c(toy_index, toy_aug, toy_dm):
    ids = toy_aug.entities
    paths = shortest_paths(toy_index, toy_dm, ids.id("C"))
    assert len(paths) == 2
    assert all(p.length == 2 for p in paths)


def test_classify_redundant_backtrack(toy_aug, toy_index, toy_dm):
    ids = toy_aug.entities
    shortest = shortest_paths(toy_index, toy_dm, ids.id("C"))
    p = path_from_names(
        toy_aug,
        [("A", "r1", "B"), ("B", "r1_inv", "A"), ("A", "r1", "B"), ("B", "r1", "C")],
    )
    assert classify_redundant(p, toy_dm, shortest)
    assert p.length > toy_dm.dist[ids.id("C")] and not is_percolation_valid(p, toy_dm)


def test_classify_detour_not_redundant(toy_aug, toy_index, toy_dm):
    # shares one triple with each shortest path but never two with the same one
    ids = toy_aug.entities
    shortest = shortest_paths(toy_index, toy_dm, ids.id("C"))
    p = path_from_names(toy_aug, [("A", "r1", "B"), ("B", "r2", "D"), ("D", "r2", "C")])
    assert not classify_redundant(p, toy_dm, shortest)


def test_classify_shortest_never_redundant(toy_aug, toy_index, toy_dm):
    ids = toy_aug.entities
    shortest = shortest_paths(toy_index, toy_dm, ids.id("C"))
    for p in shortest:
        assert p.length == toy_dm.dist[ids.id("C")] and is_percolation_valid(p, toy_dm)
        assert not classify_redundant(p, toy_dm, shortest)


def test_classify_redundant_by_any_shortest_path(toy_aug, toy_dm):
    # the walk shares both triples of ADC but only one of ABC: redundant
    # whichever place ADC takes in the list, and not against ABC alone
    abc = path_from_names(toy_aug, [("A", "r1", "B"), ("B", "r1", "C")])
    adc = path_from_names(toy_aug, [("A", "r2", "D"), ("D", "r2", "C")])
    p = path_from_names(
        toy_aug,
        [("A", "r1", "B"), ("B", "r1_inv", "A"), ("A", "r2", "D"), ("D", "r2", "C")],
    )
    assert classify_redundant(p, toy_dm, [abc, adc])
    assert classify_redundant(p, toy_dm, [adc, abc])
    assert not classify_redundant(p, toy_dm, [abc])


def test_any_return_to_query_is_redundant(toy_aug, toy_index, toy_dm):
    ids = toy_aug.entities
    p = path_from_names(toy_aug, [("A", "r1", "B"), ("B", "r1_inv", "A")])
    assert classify_redundant(
        p, toy_dm, [RelationalPath(ids.id("A"), ids.id("A"), ())]
    )


@pytest.mark.parametrize("classify", [
    lambda index, bd, p: potential_deltas(p, bd),
    lambda index, bd, p: is_percolation_valid(p, bd),
    lambda index, bd, p: classify_redundant(p, bd, [p]),
], ids=["potential_deltas", "is_percolation_valid", "classify_redundant"])
def test_classifiers_refuse_two_slot_maps(toy_index, toy_aug, classify):
    # slot 0 of a two-slot map keys its entities by id, so reading the map
    # by entity id would silently answer for slot 0 alone
    ids = toy_aug.entities
    bd = batch_distances(toy_index, [ids.id("A"), ids.id("B")], 3)
    p = path_from_names(toy_aug, [("A", "r1", "B"), ("B", "r1", "C")])
    with pytest.raises(ValueError, match="^path classifiers read a one-slot distance map, "
                                         "not one of 2 slots$"):
        classify(toy_index, bd, p)


def test_principles_toy(toy_index, toy_aug):
    rep = verify_percolation_principles(toy_index, toy_aug.entities.id("A"), 3)
    assert rep.all_ok, rep.counterexamples
    assert rep.n_shortest >= 5
    assert rep.n_valid > 0


def test_principles_single_triple_graph():
    ents = Vocab(["a", "b"])
    rels = Vocab(["r"])
    kg = augment(make_graph(np.array([[0, 0, 1]], dtype=np.int32), ents, rels))
    idx = build_index(kg)
    rep = verify_percolation_principles(idx, 0, 2)
    assert rep.all_ok


def test_premise_needs_query_alone_at_distance_0(monkeypatch):
    # a -> b with b moved to distance 0: every triple out of a head at k
    # lands in [0, k+1], yet the one-step walk to b is valid and redundant,
    # so the premise also asks that the query sit alone at distance 0
    import kgpercolate.paths

    ents = Vocab(["a", "b"])
    kg = augment(make_graph(np.array([[0, 0, 1]], dtype=np.int32), ents, Vocab(["r"])))
    idx = build_index(kg)
    dm = corrupt_neighbour_distance(batch_distances(idx, [0], 2))
    assert any(c.startswith("valid-and-redundant")
               for c in reference_verify(idx, dm).counterexamples)
    assert not premise_holds(idx, dm)
    monkeypatch.setattr(kgpercolate.paths, "batch_distances", lambda *a: dm)
    with pytest.raises(ValueError, match="^percolation premise fails for query 0: entity 1 "):
        verify_percolation_principles(idx, 0, 2)


def loopy_kg(rng: np.random.Generator):
    """``random_kg`` plus base self-loops, parallel triples under another
    relation and exact duplicate triples."""
    kg = random_kg(rng, n_entities=int(rng.integers(4, 11)), density=1.5)
    n_e, n_r = len(kg.entities), len(kg.relations)
    rows = [kg.triples]
    loops = rng.integers(0, n_e, size=int(rng.integers(0, 3)))
    rows.append(np.stack([loops, rng.integers(0, n_r, len(loops)), loops], axis=1))
    pick = kg.triples[rng.integers(0, len(kg.triples), size=int(rng.integers(0, 4)))]
    parallel = pick.copy()
    parallel[:, 1] = (parallel[:, 1] + 1) % n_r
    rows += [parallel, pick[:1]]
    return make_graph(np.concatenate(rows), kg.entities, kg.relations)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000), st.integers(1, 4))
def test_principles_hold_on_true_maps(seed, L):
    # loopy_kg graphs are random_kg graphs with loops and repeats added
    rng = np.random.default_rng(seed)
    idx = build_index(augment(loopy_kg(rng)))
    for q in rng.choice(idx.num_entities, size=3).tolist():
        rep = verify_percolation_principles(idx, q, L)
        # test_verify_matches_reference compares this report with the oracle
        assert rep.all_ok, rep.counterexamples


def corrupt_query_distance(dm):
    # the query's neighbours now sit level with it: a climb through them is
    # a shortest path whose first step does not climb
    dist = dm.dist.copy()
    dist[dm.queries[0]] = 1
    return replace(dm, dist=dist)


def corrupt_neighbour_distance(dm):
    # a neighbour at distance 0: the one-step walk to it is valid and longer
    # than its distance, so redundant
    dist = dm.dist.copy()
    dist[dist == 1] = 0
    return replace(dm, dist=dist)


def relayer(dm, layers):
    """The map with its layered decoder entries replaced by ``layers``, a
    list of (layer id, positions) read in that order, and its other decoder
    entries after them."""
    rest = (dm.layer < 1) | (dm.layer > dm.horizon)
    pos = np.concatenate([p for _, p in layers] + [dm.decoder[1][rest]])
    layer = np.concatenate([np.full(len(p), l, dtype=dm.layer.dtype) for l, p in layers]
                           + [dm.layer[rest]])
    return replace(dm, decoder=(np.zeros(len(pos), dtype=np.int64), pos), layer=layer)


def corrupt_layers(dm):
    # layer 1 twice and layer 2 gone: repeats and missing triples
    layers = list(enumerate(layer_positions(dm), 1))
    return relayer(dm, [layers[0], layers[0], *layers[2:]])


@pytest.mark.parametrize("corrupt, prefix", [
    (corrupt_query_distance, "shortest-not-valid: "),
    (corrupt_neighbour_distance, "valid-and-redundant: "),
    (corrupt_layers, "triple in two layers: "),
], ids=["corrupt_query_distance-shortest_all_valid",
        "corrupt_neighbour_distance-no_valid_redundant", "corrupt_layers-coverage_complete"])
def test_principle_failures_match_definitions(monkeypatch, toy_index, toy_aug, corrupt, prefix):
    # the definitions find each failure; verify reports the failure of (3),
    # and refuses the two maps whose distances break the premise
    import kgpercolate.paths

    ids = toy_aug.entities
    q = ids.id("A")
    dm = corrupt(batch_distances(toy_index, [q], 3))
    monkeypatch.setattr(kgpercolate.paths, "batch_distances", lambda *a: dm)
    want = reference_verify(toy_index, dm)
    assert any(c.startswith(prefix) for c in want.counterexamples)
    refusal = {
        corrupt_query_distance: f"query {q}: it sits at distance 1, not 0",
        corrupt_neighbour_distance: f"query {q}: entity {ids.id('B')} also sits at distance 0",
    }.get(corrupt)
    assert premise_holds(toy_index, dm) == (refusal is None)
    if refusal is None:
        assert verify_percolation_principles(toy_index, q, 3) == want
    else:
        with pytest.raises(ValueError, match=f"^percolation premise fails for {refusal}$"):
            verify_percolation_principles(toy_index, q, 3)


def test_principle_entity_outside_horizon_raises(monkeypatch, toy_index, toy_aug):
    # B left outside the horizon: the walks through it to C and D fall
    # outside the definitions; the oracle refuses them, and verify refuses
    # the map at the first triple into B
    import kgpercolate.paths

    ids = toy_aug.entities
    q = ids.id("A")
    dm = leave_horizon(batch_distances(toy_index, [q], 3), ids.id("B"))
    monkeypatch.setattr(kgpercolate.paths, "batch_distances", lambda *a: dm)
    with pytest.raises(ValueError, match="path entity outside horizon 3"):
        reference_verify(toy_index, dm)
    pos = int(toy_index.find_edges(q, ids.id("B"))[0])
    with pytest.raises(ValueError, match=(
        f"^percolation premise fails for query {q}: triple pos {pos} has head "
        "distance 0 and tail distance -1$"
    )):
        verify_percolation_principles(toy_index, q, 3)


def test_premise_reads_distances_not_within(monkeypatch, toy_index, toy_aug):
    # E left outside the horizon breaks the premise at C -> E; a map whose
    # ``within`` also leaves out C hides that triple from a check that
    # trusted the list, so the premise check takes its entities from dist
    import kgpercolate.paths

    ids = toy_aug.entities
    q = ids.id("A")
    dm = leave_horizon(batch_distances(toy_index, [q], 3), ids.id("E"))
    dm = replace(dm, within=np.setdiff1d(dm.within, [ids.id("C"), ids.id("E")]))
    monkeypatch.setattr(kgpercolate.paths, "batch_distances", lambda *a: dm)
    pos = int(toy_index.find_edges(ids.id("C"), ids.id("E"))[0])
    with pytest.raises(ValueError, match=(
        f"^percolation premise fails for query {q}: triple pos {pos} has head "
        "distance 2 and tail distance -1$"
    )):
        verify_percolation_principles(toy_index, q, 3)


@pytest.mark.parametrize("label", [0, 4])
def test_verify_reads_layer_ids(monkeypatch, toy_index, toy_aug, label):
    # layer 2's triples stay in the decoder, relabelled as descending (0) or
    # as beyond the horizon (4 at horizon 3): no layer holds them, so check
    # (3) reports each of them missing
    import kgpercolate.paths

    q = toy_aug.entities.id("A")
    true = batch_distances(toy_index, [q], 3)
    dm = replace(true, layer=np.where(true.layer == 2, label, true.layer))
    monkeypatch.setattr(kgpercolate.paths, "batch_distances", lambda *a: dm)
    rep = verify_percolation_principles(toy_index, q, 3)
    assert rep.counterexamples == [f"non-uphill triple missing from all layers: pos {p}"
                                   for p in layer_positions(true)[1].tolist()]
    assert rep == reference_verify(toy_index, dm)


def test_repeats_keep_decoder_order(monkeypatch, toy_index, toy_aug):
    # layers 1 and 2 listed as [L1, L2, L1, L2, L1] and layer 3 left out:
    # the repeats come in the map's decoder order (layer 1's triples sit at
    # lower positions than layer 2's), then layer 3's triples by position
    import kgpercolate.paths

    q = toy_aug.entities.id("A")
    true = batch_distances(toy_index, [q], 3)
    l1, l2, l3 = layer_positions(true)
    dm = relayer(true, [(1, l1), (2, l2), (1, l1), (2, l2), (1, l1)])
    monkeypatch.setattr(kgpercolate.paths, "batch_distances", lambda *a: dm)
    rep = verify_percolation_principles(toy_index, q, 3)
    assert rep.counterexamples == (
        [f"triple in two layers: pos {p}" for p in [*l1, *l2, *l1]]
        + [f"non-uphill triple missing from all layers: pos {p}" for p in l3])
    assert rep == reference_verify(toy_index, dm)


@pytest.mark.parametrize("q", [np.uint8(0), np.int64(0), np.array(0)])
def test_report_query_is_an_int(toy_index, q):
    # as ``QueryCount.query``: a numpy id gives the plain int's report
    rep = verify_percolation_principles(toy_index, q, 3)
    assert rep == verify_percolation_principles(toy_index, 0, 3)
    assert type(rep.query) is int


def reference_verify(index, dm):
    """verify's report from the path lab's definitions: the walks of at most
    H triples that ``enumerate_paths`` lists to every entity t with a
    distance; of them, those as long as t's distance are its shortest
    paths, and those of 1..H triples are classified by
    ``is_percolation_valid`` and ``classify_redundant``; and check (3) as a
    scan of every triple.  A failure of principle (1) or (2) shows as a
    counterexample alone, since the report has no field for either."""
    q, H = int(dm.queries[0]), dm.horizon
    rep = PrincipleReport(query=q, horizon=H, coverage_complete=True)
    for t in np.flatnonzero(dm.dist >= 0).tolist():
        listed = enumerate_paths(index, q, t, H)
        shortest = [p for p in listed if p.length == dm.dist[t]]
        rep.n_shortest += len(shortest)
        rep.counterexamples += [f"shortest-not-valid: {p.triples}"
                                for p in shortest if not is_percolation_valid(p, dm)]
        walks = [p for p in listed if p.length]
        rep.n_walks += len(walks)
        for p in walks:
            if is_percolation_valid(p, dm):
                rep.n_valid += 1
                if classify_redundant(p, dm, shortest):
                    rep.counterexamples.append(f"valid-and-redundant: {p.triples}")

    layered = dm.decoder[1][(dm.layer >= 1) & (dm.layer <= H)]  # in decoder order
    first = np.zeros(len(layered), dtype=bool)
    first[np.unique(layered, return_index=True)[1]] = True
    hd = dm.dist[index.head]
    td = dm.dist[index.tail]
    want = np.flatnonzero((hd >= 0) & (hd <= H - 1) & (td >= hd))
    coverage = ([f"triple in two layers: pos {pos}" for pos in layered[~first].tolist()]
                + [f"non-uphill triple missing from all layers: pos {pos}"
                   for pos in want[~np.isin(want, layered)].tolist()])
    rep.coverage_complete = not coverage
    rep.counterexamples += coverage
    return rep


def outcome(check, *args):
    """The report, or the message of the ValueError raised instead."""
    try:
        return check(*args)
    except ValueError as e:
        return f"ValueError: {e}"


def repeat_layers_reversed(dm):
    # every layer twice, the second time in reverse: repeats out of order
    layers = list(enumerate(layer_positions(dm), 1))
    return relayer(dm, [*layers, *layers[::-1]])


def leave_horizon(dm, e):
    # e left outside the horizon: walks through it leave the horizon
    dist = dm.dist.copy()
    dist[e] = -1
    return replace(dm, dist=dist)


def query_deeper(dm):
    # the query below its neighbours: a length-1 shortest path whose only
    # step descends, and longer climbs whose first step descends
    dist = dm.dist.copy()
    dist[dm.queries[0]] = 2
    return replace(dm, dist=dist)


def neighbours_deeper(dm):
    # the query's neighbours two levels below it: each step out of the
    # query skips a level
    dist = dm.dist.copy()
    dist[dist == 1] = 2
    return replace(dm, dist=dist)


def corrupted_maps(true):
    """Each corrupted map of a true one, in a fixed order."""
    return [corrupt_query_distance(true), corrupt_neighbour_distance(true),
            corrupt_layers(true), repeat_layers_reversed(true),
            leave_horizon(true, true.queries[0]), query_deeper(true)]


def premise_holds(index, dm) -> bool:
    """The percolation premise from its definition, by a scan of every
    triple: the query is the only entity at distance 0, and every triple
    whose head sits at a distance d in [0, horizon-1] has its tail at a
    distance in [0, d+1]."""
    dist = dm.dist
    if dist[dm.queries[0]] != 0 or int((dist == 0).sum()) != 1:
        return False
    for h, t in zip(index.head.tolist(), index.tail.tolist()):
        dh, dt = int(dist[h]), int(dist[t])
        if 0 <= dh <= dm.horizon - 1 and not 0 <= dt <= dh + 1:
            return False
    return True


def refuses(got) -> bool:
    """True when ``outcome`` gave the premise error rather than a report."""
    return isinstance(got, str) and got.startswith("ValueError: percolation premise fails")


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000), st.integers(1, 5))
def test_verify_matches_reference(seed, L):
    # the lemma: on a map that satisfies the premise, the closed forms give
    # the brute-force report field for field and (1) and (2) hold; any other
    # map is refused.  Maps: the true one, each corrupted one, the query's
    # neighbours a level too deep and every in-horizon entity left outside
    # the horizon
    import kgpercolate.paths

    rng = np.random.default_rng(seed)
    idx = build_index(augment(loopy_kg(rng)))
    for q in rng.choice(idx.num_entities, size=3).tolist():
        true = batch_distances(idx, [q], L)
        others = [leave_horizon(true, e) for e in true.within.tolist() if e != q]
        for dm in [true, *corrupted_maps(true), neighbours_deeper(true), *others]:
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(kgpercolate.paths, "batch_distances", lambda *a: dm)
                got = outcome(verify_percolation_principles, idx, q, L)
            if premise_holds(idx, dm):
                want = reference_verify(idx, dm)
                assert got == want
                assert not any(c.startswith(("shortest-not-valid", "valid-and-redundant"))
                               for c in want.counterexamples)
            else:
                assert refuses(got), got


# sha256 of verify's report on every query of two seeded loopy graphs at
# horizons 1-4, over the maps of the loop below that satisfy the premise
GOLDEN_REPORT_DIGEST = "a4509e2ac172f4b09de2f06434d363a37fc03dd8ec536d44192046fcfa85c25c"


def test_report_digest(monkeypatch):
    # every PrincipleReport field, counterexamples in order, byte for byte;
    # every map that breaks the premise is refused
    import kgpercolate.paths

    h = hashlib.sha256()
    refused = []
    for seed in (3, 7):
        idx = build_index(augment(loopy_kg(np.random.default_rng(seed))))
        for L in (1, 2, 3, 4):
            for q in range(idx.num_entities):
                true = batch_distances(idx, [q], L)
                others = [leave_horizon(true, e) for e in true.within.tolist() if e != q]
                for dm in [true, *corrupted_maps(true), *others]:
                    monkeypatch.setattr(kgpercolate.paths, "batch_distances", lambda *a: dm)
                    got = outcome(verify_percolation_principles, idx, q, L)
                    if premise_holds(idx, dm):
                        h.update(repr(got).encode())
                    else:
                        refused.append(got)
    assert h.hexdigest() == GOLDEN_REPORT_DIGEST
    assert refused and all(refuses(r) for r in refused)


@pytest.mark.parametrize("horizon", [1, 2, 3, 4])
def test_verify_ignores_decoder(monkeypatch, horizon):
    # check (3) picks its wanted triples from the CSR, not from the kernel's
    # decoder: with the decoder cut down to its layered entries it still
    # reports the triples that corrupted layers miss
    import kgpercolate.paths

    rng = np.random.default_rng(horizon)
    idx = build_index(augment(loopy_kg(rng)))
    missed = 0
    for q in range(idx.num_entities):
        true = batch_distances(idx, [q], horizon)
        for dm in (true, corrupt_layers(true)):
            want = reference_verify(idx, dm)
            missed += sum(c.startswith("non-uphill") for c in want.counterexamples)
            keep = (dm.layer >= 1) & (dm.layer <= horizon)
            layered_only = replace(dm, decoder=tuple(a[keep] for a in dm.decoder),
                                   layer=dm.layer[keep])
            monkeypatch.setattr(kgpercolate.paths, "batch_distances", lambda *a: layered_only)
            assert verify_percolation_principles(idx, q, horizon) == want
    assert missed > 0 or horizon == 1
