from __future__ import annotations

import hashlib
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kgpercolate.kg import Vocab, augment, build_index, make_graph
from kgpercolate.layering import relative_distances
from kgpercolate.paths import (
    PrincipleReport,
    RelationalPath,
    classify_redundant,
    enumerate_paths,
    is_percolation_valid,
    potential_deltas,
    shortest_path_map,
    verify_percolation_principles,
)

from conftest import random_kg, toy_triple


@pytest.fixture
def toy_dm(toy_index, toy_aug):
    return relative_distances(toy_index, toy_aug.entities.id("A"), 3)


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


def test_enumerate_identity_toggle(toy_index, toy_aug):
    ids = toy_aug.entities
    base = enumerate_paths(toy_index, ids.id("A"), ids.id("B"), 2)
    with_id = enumerate_paths(
        toy_index, ids.id("A"), ids.id("B"), 2, include_identity=True
    )
    assert len(with_id) > len(base)


def test_enumeration_bound_guard(toy_index, toy_aug):
    ids = toy_aug.entities
    with pytest.raises(ValueError, match="expansions"):
        enumerate_paths(toy_index, ids.id("A"), ids.id("C"), 3, max_expansions=5)


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
    dm1 = relative_distances(toy_index, toy_aug.entities.id("A"), 1)
    p = path_from_names(toy_aug, [("A", "r1", "B"), ("B", "r1", "C")])
    with pytest.raises(ValueError, match="outside horizon"):
        potential_deltas(p, dm1)


def test_shortest_paths_a_to_c(toy_index, toy_aug, toy_dm):
    ids = toy_aug.entities
    paths = shortest_path_map(toy_index, toy_dm)[ids.id("C")]
    assert len(paths) == 2
    assert all(p.length == 2 for p in paths)


def test_classify_redundant_backtrack(toy_aug, toy_index, toy_dm):
    ids = toy_aug.entities
    shortest = shortest_path_map(toy_index, toy_dm)[ids.id("C")]
    p = path_from_names(
        toy_aug,
        [("A", "r1", "B"), ("B", "r1_inv", "A"), ("A", "r1", "B"), ("B", "r1", "C")],
    )
    assert classify_redundant(p, toy_dm, shortest)
    assert p.length > toy_dm.dist[ids.id("C")] and not is_percolation_valid(p, toy_dm)


def test_classify_detour_not_redundant(toy_aug, toy_index, toy_dm):
    # shares one triple with each shortest path but never two with the same one
    ids = toy_aug.entities
    shortest = shortest_path_map(toy_index, toy_dm)[ids.id("C")]
    p = path_from_names(toy_aug, [("A", "r1", "B"), ("B", "r2", "D"), ("D", "r2", "C")])
    assert not classify_redundant(p, toy_dm, shortest)


def test_classify_shortest_never_redundant(toy_aug, toy_index, toy_dm):
    ids = toy_aug.entities
    shortest = shortest_path_map(toy_index, toy_dm)[ids.id("C")]
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


def test_principles_toy(toy_index, toy_aug):
    rep = verify_percolation_principles(toy_index, toy_aug.entities.id("A"), 3)
    assert rep.all_ok, rep.counterexamples
    assert rep.n_shortest >= 5
    assert rep.n_valid > 0 and rep.n_redundant == 0


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
    dm = corrupt_neighbour_distance(relative_distances(idx, 0, 2))
    assert not reference_verify(idx, dm).no_valid_redundant
    assert not premise_holds(idx, dm)
    monkeypatch.setattr(kgpercolate.paths, "relative_distances", lambda *a: dm)
    with pytest.raises(ValueError, match="^percolation premise fails for query 0: entity 1 "):
        verify_percolation_principles(idx, 0, 2)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000), st.integers(1, 4))
def test_principles_random_graphs(seed, L):
    kg = augment(random_kg(np.random.default_rng(seed), n_entities=12, density=1.5))
    idx = build_index(kg)
    q = int(np.random.default_rng(seed + 11).integers(0, len(kg.entities)))
    rep = verify_percolation_principles(idx, q, L)
    assert rep.all_ok, rep.counterexamples


def oracle_shortest(index, dm, t) -> list:
    """The shortest paths to t from the definition, by brute force: walks of
    exactly dist[t] triples whose k-th entity sits at distance k.  On a true
    distance map every walk that long to t qualifies."""
    d = int(dm.dist[t])
    return [
        p for p in enumerate_paths(index, dm.query, t, d, include_identity=True)
        if p.length == d and all(dm.dist[e] == k for k, (_, _, e) in enumerate(p.triples, 1))
    ]


def oracle_report(index, dm) -> dict:
    """The PrincipleReport fields from the definitions, target by target:
    walks of length 1..H from ``enumerate_paths`` with no self-loop triple,
    ``oracle_shortest``, ``is_percolation_valid`` and ``classify_redundant``,
    and the layer coverage from a count of every layered position."""
    q, H = dm.query, dm.horizon
    n = Counter()
    bad = {"shortest": [], "redundant": [], "coverage": []}
    for t in dm.within().tolist():
        short = oracle_shortest(index, dm, t)
        n["shortest"] += len(short)
        bad["shortest"] += [
            f"shortest-not-valid: {p.triples}" for p in short if not is_percolation_valid(p, dm)
        ]
        for p in enumerate_paths(index, q, t, H):
            if p.length == 0 or any(h == e for h, _, e in p.triples):
                continue
            n["walks"] += 1
            if is_percolation_valid(p, dm):
                n["valid"] += 1
                if classify_redundant(p, dm, short):
                    n["redundant"] += 1
                    bad["redundant"].append(f"valid-and-redundant: {p.triples}")
    layered = Counter(pos for layer in dm.layers for pos in layer.tolist())
    bad["coverage"] += [
        f"triple in two layers: pos {pos}" for pos, k in layered.items() for _ in range(k - 1)
    ]
    for pos, (h, t) in enumerate(zip(index.head.tolist(), index.tail.tolist())):
        dh, dt = int(dm.dist[h]), int(dm.dist[t])
        if 0 <= dh <= H - 1 and dt >= dh and pos not in layered:
            bad["coverage"].append(f"non-uphill triple missing from all layers: pos {pos}")
    return dict(
        shortest_all_valid=not bad["shortest"],
        no_valid_redundant=not bad["redundant"],
        coverage_complete=not bad["coverage"],
        n_shortest=n["shortest"],
        n_walks=n["walks"],
        n_valid=n["valid"],
        n_redundant=n["redundant"],
        counterexamples=Counter(sum(bad.values(), [])),
    )


def report_fields(rep) -> dict:
    got = {k: getattr(rep, k) for k in (
        "shortest_all_valid", "no_valid_redundant", "coverage_complete",
        "n_shortest", "n_walks", "n_valid", "n_redundant",
    )}
    got["counterexamples"] = Counter(rep.counterexamples)
    return got


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
def test_principles_match_definitions(seed, L):
    rng = np.random.default_rng(seed)
    idx = build_index(augment(loopy_kg(rng)))
    for q in rng.choice(idx.num_entities, size=3).tolist():
        dm = relative_distances(idx, q, L)
        rep = verify_percolation_principles(idx, q, L)
        assert report_fields(rep) == oracle_report(idx, dm)
        assert rep.all_ok, rep.counterexamples
        # the one-pass map holds exactly the walks as long as each target's distance
        short = shortest_path_map(idx, dm)
        for t in dm.within().tolist():
            want = [p.triples for p in enumerate_paths(idx, q, t, int(dm.dist[t]))
                    if p.length == dm.dist[t]]
            assert Counter(p.triples for p in short.get(t, [])) == Counter(want)
        assert set(short) == set(dm.within().tolist())


def corrupt_query_distance(dm):
    # the query's neighbours now sit level with it: a climb through them is
    # a shortest path whose first step does not climb
    dist = dm.dist.copy()
    dist[dm.query] = 1
    return replace(dm, dist=dist)


def corrupt_neighbour_distance(dm):
    # a neighbour at distance 0: the one-step walk to it is valid and longer
    # than its distance, so redundant
    dist = dm.dist.copy()
    dist[dist == 1] = 0
    return replace(dm, dist=dist)


def corrupt_layers(dm):
    # layer 1 twice and layer 2 gone: repeats and missing triples
    return replace(dm, layers=[dm.layers[0], dm.layers[0], *dm.layers[2:]])


@pytest.mark.parametrize("corrupt, flag", [
    (corrupt_query_distance, "shortest_all_valid"),
    (corrupt_neighbour_distance, "no_valid_redundant"),
    (corrupt_layers, "coverage_complete"),
])
def test_principle_failures_match_definitions(monkeypatch, toy_index, toy_aug, corrupt, flag):
    # the definitions find each failure; verify reports the failure of (3),
    # and refuses the two maps whose distances break the premise
    import kgpercolate.paths

    ids = toy_aug.entities
    q = ids.id("A")
    dm = corrupt(relative_distances(toy_index, q, 3))
    monkeypatch.setattr(kgpercolate.paths, "relative_distances", lambda *a: dm)
    want = oracle_report(toy_index, dm)
    assert not want[flag]
    refusal = {
        corrupt_query_distance: f"query {q}: it sits at distance 1, not 0",
        corrupt_neighbour_distance: f"query {q}: entity {ids.id('B')} also sits at distance 0",
    }.get(corrupt)
    assert premise_holds(toy_index, dm) == (refusal is None)
    if refusal is None:
        rep = verify_percolation_principles(toy_index, q, 3)
        assert not getattr(rep, flag) and not rep.all_ok
        assert report_fields(rep) == want
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
    dm = leave_horizon(relative_distances(toy_index, q, 3), ids.id("B"))
    monkeypatch.setattr(kgpercolate.paths, "relative_distances", lambda *a: dm)
    with pytest.raises(ValueError, match="path entity outside horizon 3"):
        oracle_report(toy_index, dm)
    pos = int(toy_index.find_edges(q, ids.id("B"))[0])
    with pytest.raises(ValueError, match=(
        f"^percolation premise fails for query {q}: triple pos {pos} has head "
        "distance 0 and tail distance -1$"
    )):
        verify_percolation_principles(toy_index, q, 3)


def reference_verify(index, dm):
    """The principle checks written straight against the index and the
    map: numpy lookups of ``dm.dist`` per triple, the CSR sliced at every
    visit, and check (3) as a scan of every triple.  Nothing here reads the
    code under test except ``RelationalPath``, ``classify_redundant`` and
    the report type."""
    q, horizon = dm.query, dm.horizon
    rep = PrincipleReport(
        query=q, horizon=horizon,
        shortest_all_valid=True, no_valid_redundant=True, coverage_complete=True,
    )
    within = dm.within()
    dist = dict(zip(within.tolist(), dm.dist[within].tolist()))

    def deltas(path):
        out = []
        for i, (h, _, t) in enumerate(path.triples):
            gh, gt = int(dm.dist[h]), int(dm.dist[t])
            if gh < 0 or gt < 0:
                raise ValueError(
                    f"path entity outside horizon {dm.horizon}: triple {i} has "
                    f"distances ({gh}, {gt})"
                )
            out.append(max(gt - gh, 0) if i < path.length - 1 else min(gt - gh + 1, 1))
        return out

    short, prefix = {}, []

    def climb(node, depth):
        if dist.get(node) == depth:
            short.setdefault(node, []).append(RelationalPath(q, node, tuple(prefix)))
        lo, hi = index.indptr[node : node + 2].tolist()
        for r, t in zip(index.rel[lo:hi].tolist(), index.tail[lo:hi].tolist()):
            if dist.get(t) != depth + 1:
                continue
            prefix.append((node, r, t))
            climb(t, depth + 1)
            prefix.pop()

    climb(q, 0)
    for t in within.tolist():
        rep.n_shortest += len(short.get(t, []))
        for p in short.get(t, []):
            if not all(d > 0 for d in deltas(p)):
                rep.shortest_all_valid = False
                rep.counterexamples.append(f"shortest-not-valid: {p.triples}")

    def walk(node, depth, gh, climbed, inside):
        gt = dist.get(node, -1)
        if depth > 0 and gt >= 0:
            rep.n_walks += 1
            if not inside:
                deltas(RelationalPath(q, node, tuple(prefix)))
            if climbed and gt >= gh:
                rep.n_valid += 1
                if depth > gt:
                    p = RelationalPath(q, node, tuple(prefix))
                    if classify_redundant(p, dm, short.get(node, [])):
                        rep.n_redundant += 1
                        rep.no_valid_redundant = False
                        rep.counterexamples.append(f"valid-and-redundant: {p.triples}")
        if depth == horizon:
            return
        climbed = climbed and (depth == 0 or gt > gh)
        inside = inside and gt >= 0
        lo, hi = index.indptr[node : node + 2].tolist()
        for r, t in zip(index.rel[lo:hi].tolist(), index.tail[lo:hi].tolist()):
            if t == node:
                continue
            prefix.append((node, r, t))
            walk(t, depth + 1, gt, climbed, inside)
            prefix.pop()

    walk(q, 0, 0, True, True)

    layered = np.concatenate(dm.layers)
    first = np.zeros(len(layered), dtype=bool)
    first[np.unique(layered, return_index=True)[1]] = True
    for pos in layered[~first].tolist():
        rep.coverage_complete = False
        rep.counterexamples.append(f"triple in two layers: pos {pos}")
    hd = dm.dist[index.head]
    td = dm.dist[index.tail]
    want = np.flatnonzero((hd >= 0) & (hd <= horizon - 1) & (td >= hd))
    seen = np.zeros(index.num_triples, dtype=bool)
    seen[layered] = True
    for pos in want[~seen[want]].tolist():
        rep.coverage_complete = False
        rep.counterexamples.append(f"non-uphill triple missing from all layers: pos {pos}")
    return rep


def outcome(check, *args):
    """The report, or the message of the ValueError raised instead."""
    try:
        return check(*args)
    except ValueError as e:
        return f"ValueError: {e}"


def repeat_layers_reversed(dm):
    # every layer twice, the second time in reverse: repeats out of order
    return replace(dm, layers=[*dm.layers, *dm.layers[::-1]])


def leave_horizon(dm, e):
    # e left outside the horizon: walks through it leave the horizon
    dist = dm.dist.copy()
    dist[e] = -1
    return replace(dm, dist=dist)


def query_deeper(dm):
    # the query below its neighbours: a length-1 shortest path whose only
    # step descends, and longer climbs whose first step descends
    dist = dm.dist.copy()
    dist[dm.query] = 2
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
            leave_horizon(true, true.query), query_deeper(true)]


def premise_holds(index, dm) -> bool:
    """The percolation premise from its definition, by a scan of every
    triple: the query is the only entity at distance 0, and every triple
    whose head sits at a distance d in [0, horizon-1] has its tail at a
    distance in [0, d+1]."""
    dist = dm.dist
    if dist[dm.query] != 0 or int((dist == 0).sum()) != 1:
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
        true = relative_distances(idx, q, L)
        others = [leave_horizon(true, e) for e in true.within().tolist() if e != q]
        for dm in [true, *corrupted_maps(true), neighbours_deeper(true), *others]:
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(kgpercolate.paths, "relative_distances", lambda *a: dm)
                got = outcome(verify_percolation_principles, idx, q, L)
            if premise_holds(idx, dm):
                want = reference_verify(idx, dm)
                assert got == want
                assert want.shortest_all_valid and want.no_valid_redundant
            else:
                assert refuses(got), got


# sha256 of verify's report on every query of two seeded loopy graphs at
# horizons 1-4, over the maps of the loop below that satisfy the premise
GOLDEN_REPORT_DIGEST = "b10b1ebab9b1de32ed7dcdce965a2d166562bc61c13d3db55ee59b918375c042"


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
                true = relative_distances(idx, q, L)
                others = [leave_horizon(true, e) for e in true.within().tolist() if e != q]
                for dm in [true, *corrupted_maps(true), *others]:
                    monkeypatch.setattr(kgpercolate.paths, "relative_distances", lambda *a: dm)
                    got = outcome(verify_percolation_principles, idx, q, L)
                    if premise_holds(idx, dm):
                        h.update(repr(got).encode())
                    else:
                        refused.append(got)
    assert h.hexdigest() == GOLDEN_REPORT_DIGEST
    assert refused and all(refuses(r) for r in refused)


@pytest.mark.parametrize("horizon", [1, 2, 3, 4])
def test_verify_ignores_decoder(monkeypatch, horizon):
    # check (3) picks its triples from the CSR, not from the kernel's
    # decoder: with the decoder emptied it still reports the triples that
    # corrupted layers miss
    import kgpercolate.paths

    rng = np.random.default_rng(horizon)
    idx = build_index(augment(loopy_kg(rng)))
    missed = 0
    for q in range(idx.num_entities):
        true = relative_distances(idx, q, horizon)
        for dm in (true, corrupt_layers(true)):
            want = reference_verify(idx, dm)
            missed += sum(c.startswith("non-uphill") for c in want.counterexamples)
            no_decoder = replace(dm, decoder=np.empty(0, dtype=np.int64))
            monkeypatch.setattr(kgpercolate.paths, "relative_distances", lambda *a: no_decoder)
            assert verify_percolation_principles(idx, q, horizon) == want
    assert missed > 0 or horizon == 1


def test_principle_budget_guards(toy_index, toy_aug):
    # from A at horizon 3 the climb visits 7 prefixes: A, AB, ABC, ABCE, AD,
    # ADC, ADCE
    q = toy_aug.entities.id("A")
    dm = relative_distances(toy_index, q, 3)
    assert sum(map(len, shortest_path_map(toy_index, dm, 7).values())) == 7
    with pytest.raises(ValueError, match="shortest-path enumeration exceeded 6 expansions"):
        shortest_path_map(toy_index, dm, 6)
