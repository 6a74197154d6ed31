"""Relational paths, their classification and the percolation principle checks.

A relational path is a head-to-tail chain of augmented triples; walks may
revisit entities and triples.  Classification is relative to one query
entity: a path is *shortest* when its length equals the target's relative
distance, *percolation-valid* when every potential difference along it is
positive (``potential_deltas``, ``is_percolation_valid``), and *redundant*
when it is longer than the relative distance yet still shares at least that
many distinct triples with a single shortest path (``classify_redundant``).
``enumerate_paths`` lists every walk by brute force; the shortest paths to
a target are the walks it lists that are as long as the target's distance.
The classifiers read the query's one-slot ``BatchDistanceMap`` from
``batch_distances(index, [q], horizon)``, and refuse a map of more slots.
Enumeration skips every self-loop, a triple whose head is its tail, of the
identity or of a base relation: it is a sideways step, and a shortest path
ending in one is valid and shares every triple with that path, so with
self-loops the walks of principle (2) would be redundant on every graph.

``verify_percolation_principles`` lists no path.  It checks a premise on the
query's distance map (the query alone at distance 0, and every triple out
of a head at distance k <= horizon-1 landing at a distance in [0, k+1]),
under which principles (1) and (2) hold by a lemma and the path counts have
closed forms over the map.  It refuses a map that breaks the premise, which
only a faulty distance kernel makes.  Check (3) is array work over the same
triples, with no Python set: one stable argsort of the layered positions
lists each repeat in the map's decoder order, and a ``searchsorted`` of the
wanted triples into the sorted positions finds those no layer holds.  It
reports what a scan in decoder order with a set of the positions seen
would report, in the same order.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .ids import check_count, check_ids
from .kg import AdjacencyIndex, Triple
from .layering import BatchDistanceMap, batch_distances


@dataclass(frozen=True)
class RelationalPath:
    """Chained triples from source to target; may be empty (source==target)."""

    source: int
    target: int
    triples: tuple[Triple, ...]

    def __post_init__(self):
        prev = self.source
        for h, _, t in self.triples:
            if h != prev:
                raise ValueError(f"path breaks at triple ({h}, _, {t}): expected head {prev}")
            prev = t
        if prev != self.target:
            raise ValueError(f"path ends at {prev}, expected target {self.target}")

    @property
    def length(self) -> int:
        return len(self.triples)


MAX_EXPANSIONS = 2_000_000  # prefixes one ``enumerate_paths`` call may visit


def enumerate_paths(
    index: AdjacencyIndex,
    source: int,
    target: int,
    max_len: int,
) -> list[RelationalPath]:
    """All walks from source to target of at most max_len triples and no
    self-loop step (identity or base relation), in DFS order: the walks of
    principle (2).  With source the query, those as long as the target's
    distance are its shortest paths.

    Raises ValueError naming ``source`` or ``target`` when it is no id in
    [0, |E|), and when the DFS visits more than ``MAX_EXPANSIONS`` prefixes;
    that message advises a smaller max_len.
    """
    max_len = check_count("max_len", max_len, 0)
    source, target = (int(check_ids(name, e, 0, index.num_entities))
                      for name, e in (("source", source), ("target", target)))
    out: list[RelationalPath] = []
    prefix: list[Triple] = []
    budget = [MAX_EXPANSIONS]

    def walk(node: int, depth: int):
        budget[0] -= 1
        if budget[0] < 0:
            raise ValueError(
                f"path enumeration exceeded {MAX_EXPANSIONS} expansions; "
                "reduce max_len or restrict the graph"
            )
        if node == target:
            out.append(RelationalPath(source, target, tuple(prefix)))
        if depth == max_len:
            return
        lo, hi = index.indptr[node : node + 2].tolist()
        for r, t in zip(index.rel[lo:hi].tolist(), index.tail[lo:hi].tolist()):
            if t != node:
                prefix.append((node, r, t))
                walk(t, depth + 1)
                prefix.pop()

    walk(source, 0)
    return out


def _distances(bd: BatchDistanceMap, ids: list[int]) -> list[int]:
    """The one-slot map's distances of ``ids``; ValueError for a map of more
    slots, and for an id outside [0, |E|), which numpy would read wrapped
    around or fail on bare."""
    if len(bd.queries) != 1:
        raise ValueError(f"path classifiers read a one-slot distance map, "
                         f"not one of {len(bd.queries)} slots")
    return bd.dist[check_ids("path entity ids", ids, 0, len(bd.dist))].tolist()


def potential_deltas(path: RelationalPath, bd: BatchDistanceMap) -> list[int]:
    """Per-triple potential differences along the path.

    Non-final triples use max(gamma_tail - gamma_head, 0); the final triple
    uses min(gamma_tail - gamma_head + 1, 1) so that a last sideways step
    still counts as progress.  Every entity on the path must be within the
    horizon and an id in [0, |E|).
    """
    dist = _distances(bd, [e for h, _, t in path.triples for e in (h, t)])
    out: list[int] = []
    last = path.length - 1
    for i, (gh, gt) in enumerate(zip(dist[::2], dist[1::2])):
        if gh < 0 or gt < 0:
            raise ValueError(
                f"path entity outside horizon {bd.horizon}: triple {i} has "
                f"distances ({gh}, {gt})"
            )
        out.append(max(gt - gh, 0) if i < last else min(gt - gh + 1, 1))
    return out


def is_percolation_valid(path: RelationalPath, bd: BatchDistanceMap) -> bool:
    """True when every potential difference is positive (empty path: True)."""
    return all(d > 0 for d in potential_deltas(path, bd))


def classify_redundant(
    path: RelationalPath,
    bd: BatchDistanceMap,
    shortest: list[RelationalPath],
) -> bool:
    """Definition check: longer than gamma and sharing >= gamma distinct
    triples with at least one single shortest path.

    ``shortest`` must be the complete shortest-path set for (query, target).
    The intersection is triple-set based (multiplicity agnostic) and taken
    per shortest path, not against the union across all of them.  At gamma
    0 every longer walk is redundant.
    """
    [gamma] = _distances(bd, [path.target])
    if gamma < 0:
        raise ValueError(f"target {path.target} unreachable within horizon")
    if path.length <= gamma:
        return False
    tset = set(path.triples)
    return gamma == 0 or any(len(tset & set(s.triples)) >= gamma for s in shortest)


@dataclass
class PrincipleReport:
    """Outcome of the structural checks for one query.

    Principles (1) and (2) hold whenever a report is made, since the premise
    they follow from is checked first, so only (3) has an outcome.
    """

    query: int
    horizon: int
    coverage_complete: bool
    n_shortest: int = 0
    n_walks: int = 0
    n_valid: int = 0
    counterexamples: list[str] = field(default_factory=list)

    @property
    def all_ok(self) -> bool:
        return self.coverage_complete


def verify_percolation_principles(
    index: AdjacencyIndex,
    q: int,
    horizon: int,
) -> PrincipleReport:
    """Check the three layering guarantees for one query, by a lemma.

    (1) every shortest path to an in-horizon entity is percolation-valid;
    (2) no percolation-valid walk of length <= horizon is redundant.  The
        walks never step along a self-loop, a triple whose head is its
        tail, of the identity or of a base relation: a shortest path plus
        a final self-loop is valid and redundant, so with them (2) would
        fail on every graph with a self-loop in the horizon;
    (3) every triple with head distance <= horizon-1 and head no deeper
        than tail appears in exactly one percolation layer.  Heads at
        exactly the horizon have no layer to appear in; the combined
        full-neighborhood pass covers them instead.

    *Premise*, checked on the distances d of q's one-slot kernel map from
    the CSR ranges of the heads at distance <= H-1 (H the horizon), never
    from the map's ``within``, decoder or layer ids: (a) q is the only
    entity at distance 0; (b) every triple out of a head at distance
    k <= H-1 has its tail at a distance in [0, k+1].
    The true distance map satisfies it.  A map that breaks it raises
    ValueError naming q, the other entity at distance 0, or the first
    triple that breaks (b) by position, with its head and tail distances.

    *Lemma*: under the premise (1) and (2) hold.  By (b), the i-th entity of
    a walk from q sits at distance <= i, so no walk of <= H steps leaves the
    horizon.  (1): a shortest path climbs from 0 to d(t) in d(t) steps of at
    most +1, so every step climbs by exactly one and every delta is 1.
    (2): every step of a valid walk but the last climbs strictly, so by (b)
    by exactly one, and its last step, which is no self-loop, does not
    descend.  So a valid walk of k steps is a shortest path to some u, with
    d(u) = k-1, then a step to t with d(t) >= k-1.  It is longer than
    gamma = d(t) only if d(t) = k-1.  At gamma 0, t = u = q by (a), a
    self-loop.  At gamma >= 1 the walk visits k+1 distinct entities, so its
    triples are distinct; a shortest path to t has no triple with a head at
    distance k-1, so it could share its gamma = k-1 triples only with the
    walk's first k-1, which end at u, not t.  No valid walk is redundant.

    *Closed forms*, exact ints: sigma(q) = 1 and sigma(t) sums sigma(h)
    over the triples with d(t) = d(h)+1, so sigma(t) counts the shortest
    paths to t and ``n_shortest`` is its sum over the in-horizon entities,
    the empty path included.  ``n_walks`` counts the walks of 1..H steps
    from q over the triples that are not self-loops, one step at a time.
    ``n_valid`` sums sigma(u) times u's out-triples that are not self-loops
    and whose tail is no shallower than u, over u with d(u) <= H-1.
    No valid walk is redundant, and (1) and (2) have no counterexamples.

    (3) reads the same CSR ranges: its counterexamples are every repeat of
    a layered triple in the map's decoder order, then every wanted triple
    that no layer holds, by ascending position.  The layered triples are
    the decoder's with a layer id in 1..H.  A repeat is an occurrence of a
    position after its first: a stable argsort groups each position's
    occurrences with the first at the head, and the others, sorted back
    into decoder order, are the repeats.  A wanted triple is missing when
    both ends of its ``searchsorted`` range in the sorted positions agree.

    The report's ``query`` is the map's query id as an int, whatever the
    integer type of ``q``.
    """
    bd = batch_distances(index, [q], horizon)
    q, dist = int(bd.queries[0]), bd.dist
    within = (dist >= 0).nonzero()[0]
    wd = dist[within]

    def refuse(why: str):
        raise ValueError(f"percolation premise fails for query {q}: {why}")

    if dist[q] != 0:
        refuse(f"it sits at distance {dist[q]}, not 0")
    zero = (wd == 0).nonzero()[0]  # ranks in ``within``; past the next check, q's alone
    if len(zero) > 1:
        others = within[zero]
        refuse(f"entity {others[others != q][0]} also sits at distance 0")
    deep = (wd < horizon).nonzero()[0]
    deep = deep[wd[deep].argsort(kind="stable")]  # shallow heads first
    pos, counts = index.out_positions(within[deep])
    hl = deep.repeat(counts)  # each triple's head rank
    hd = wd[hl]
    hd1 = hd + 1
    tail = index.tail[pos]
    td = dist[tail]
    # a tail outside [0, hd+1]: read as uint16, a negative distance exceeds
    # every hd+1, which is positive
    bad = (td.view(np.uint16) > hd1.view(np.uint16)).nonzero()[0]
    if len(bad):
        k = bad[pos[bad].argmin()]
        refuse(f"triple pos {pos[k]} has head distance {hd[k]} and tail distance {td[k]}")

    # the closed forms, over the entities' ranks in ``within``.  The triples
    # are in head depth order, so a climb reads its head's final sigma; and
    # a walk's i-th step leaves depth < i, so it moves along a prefix of them
    tl = within.searchsorted(tail)
    step = hl != tl
    up = td >= hd
    start = [0] * len(within)
    start[int(zero[0])] = 1
    sigma = start.copy()
    climbs = (td == hd1).nonzero()[0]
    for h, t in zip(hl[climbs].tolist(), tl[climbs].tolist()):
        sigma[t] += sigma[h]
    n_valid = sum(map(sigma.__getitem__, hl.compress(step & up).tolist()))
    mh, mt = hl.compress(step).tolist(), tl.compress(step).tolist()
    walks, n_walks = start, 0
    for cut in hd.compress(step).searchsorted(range(1, horizon)).tolist():
        nxt = [0] * len(within)
        for h, t in zip(mh[:cut], mt[:cut]):
            nxt[t] += walks[h]
        walks = nxt
        n_walks += sum(walks)
    n_walks += sum(map(walks.__getitem__, mh))  # the walks of H steps

    # (3): every repeat of a layered triple, in decoder order, then every
    # wanted triple that no layer holds; a stable sort puts each layered
    # position's first occurrence at the head of its run
    layer = bd.layer
    layered = bd.decoder[1].compress((layer >= 1) & (layer <= horizon))
    order = layered.argsort(kind="stable")
    ranked = layered[order]
    again = order[1:].compress(ranked[1:] == ranked[:-1])
    again.sort()
    want = pos.compress(up)
    missed = want.compress(ranked.searchsorted(want) == ranked.searchsorted(want, "right"))
    missed.sort()
    cex = ([f"triple in two layers: pos {p}" for p in layered[again].tolist()]
           + [f"non-uphill triple missing from all layers: pos {p}" for p in missed.tolist()])
    return PrincipleReport(
        query=q, horizon=horizon, coverage_complete=not cex,
        n_shortest=sum(sigma), n_walks=n_walks, n_valid=n_valid, counterexamples=cex,
    )
