"""Relational paths, their classification and the percolation principle checks.

A relational path is a head-to-tail chain of augmented triples; walks may
revisit entities and triples.  Classification is relative to one query
entity: a path is *shortest* when its length equals the target's relative
distance, *percolation-valid* when every potential difference along it is
positive (``potential_deltas``, ``is_percolation_valid``), and *redundant*
when it is longer than the relative distance yet still shares at least that
many distinct triples with a single shortest path (``classify_redundant``).
``enumerate_paths`` lists every walk by brute force, a reference for the
one-pass checks.  Identity self-loops are excluded from enumeration by
default; a shortest path extended by an identity step would otherwise count
as both valid and redundant and the structural checks below would be
vacuous.  Principle (2) drops base-relation self-loops from its walks for
the same reason: a triple whose head is its tail is a sideways step, and a
shortest path ending in one is valid and shares every triple with that path.

One climbing DFS from the query gives the shortest-path set of every
in-horizon entity, each path a tuple of triples; ``shortest_path_map`` wraps
them as ``RelationalPath``s.  The climb also tracks validity as it goes, as
the walk DFS of principle (2) does, and marks each path that is not
percolation-valid or leaves the horizon, so principle (1) re-derives the
potential differences of the marked paths only.  Both DFS passes read one
per-query adjacency, ``_Horizon``: the relative distance of every in-horizon
entity in one dict, and each entity's out-triples read from the CSR once.
``verify_percolation_principles`` builds it once per query and shares it
between its checks.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field

import numpy as np

from .kg import AdjacencyIndex, Triple
from .layering import DistanceMap, relative_distances


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


def enumerate_paths(
    index: AdjacencyIndex,
    source: int,
    target: int,
    max_len: int,
    include_identity: bool = False,
    max_expansions: int = 2_000_000,
) -> list[RelationalPath]:
    """All walks from source to target with at most max_len triples.

    Raises ValueError when the DFS frontier exceeds max_expansions prefixes;
    the message advises a smaller max_len.
    """
    if max_len < 0:
        raise ValueError("max_len must be >= 0")
    out: list[RelationalPath] = []
    prefix: list[Triple] = []
    budget = [max_expansions]

    def walk(node: int, depth: int):
        budget[0] -= 1
        if budget[0] < 0:
            raise ValueError(
                f"path enumeration exceeded {max_expansions} expansions; "
                "reduce max_len or restrict the graph"
            )
        if node == target:
            out.append(RelationalPath(source, target, tuple(prefix)))
        if depth == max_len:
            return
        lo, hi = index.indptr[node], index.indptr[node + 1]
        for p in range(lo, hi):
            r = int(index.rel[p])
            if not include_identity and r == index.identity_rel:
                continue
            t = int(index.tail[p])
            prefix.append((node, r, t))
            walk(t, depth + 1)
            prefix.pop()

    walk(source, 0)
    return out


def shortest_path_map(
    index: AdjacencyIndex,
    dm: DistanceMap,
    max_expansions: int = 2_000_000,
) -> dict[int, list[RelationalPath]]:
    """The complete shortest-path set of every entity, from one climbing DFS.

    Only triples raising the relative distance by exactly one can sit on a
    shortest path, and a climbing prefix of d triples ends at an entity at
    distance d, so each climbing prefix is a shortest path to its endpoint.
    Keys are endpoints, paths are in DFS order, and an in-horizon entity
    without a key has no shortest path.  One budget unit is one climbing
    prefix visited.
    """
    q = dm.query
    short, _ = _climb(_Horizon(index, dm), q, max_expansions)
    return {t: [RelationalPath(q, t, p) for p in paths] for t, paths in short.items()}


class _Horizon(dict):
    """One query's adjacency as the DFS passes read it.

    ``dist`` maps every entity within the horizon to its relative distance,
    in ascending entity order.  ``self[e]`` lists e's out-triples as
    ``(rel, tail)`` pairs in index order.  Those of the in-horizon entities
    are read in one CSR gather; any other entity's are read the first time
    it is asked for, since a walk over a corrupted map can leave the horizon.
    """

    def __init__(self, index: AdjacencyIndex, dm: DistanceMap):
        super().__init__()
        within = dm.within()
        ents = within.tolist()
        self.dist: dict[int, int] = dict(zip(ents, dm.dist[within].tolist()))
        self.index = index
        pos, counts = index.out_positions(within)
        pairs = list(zip(index.rel[pos].tolist(), index.tail[pos].tolist()))
        start = 0
        for e, end in zip(ents, np.cumsum(counts).tolist()):
            self[e] = pairs[start:end]
            start = end

    def __missing__(self, e: int) -> list[tuple[int, int]]:
        ix = self.index
        lo, hi = ix.indptr[e : e + 2].tolist()
        out = self[e] = list(zip(ix.rel[lo:hi].tolist(), ix.tail[lo:hi].tolist()))
        return out


def _climb(
    adj: _Horizon, query: int, max_expansions: int,
) -> tuple[dict[int, list[tuple[Triple, ...]]], dict[int, list[tuple[Triple, ...]]]]:
    """``shortest_path_map`` on a built adjacency, each path a tuple of
    triples, and per target the paths among them, in DFS order, whose
    potential differences are not all positive or that leave the horizon."""
    dist = adj.dist
    short: dict[int, list[tuple[Triple, ...]]] = {}
    invalid: dict[int, list[tuple[Triple, ...]]] = {}
    prefix: list[Triple] = []
    budget = [max_expansions]

    def climb(node: int, depth: int, gh: int, climbed: bool, inside: bool):
        # gh, climbed and inside as in the walk DFS of principle (2)
        budget[0] -= 1
        if budget[0] < 0:
            raise ValueError(
                f"shortest-path enumeration exceeded {max_expansions} expansions"
            )
        gt = dist.get(node, -1)
        if gt == depth:
            path = tuple(prefix)
            short.setdefault(node, []).append(path)
            if depth and not (inside and climbed and gt >= gh):
                invalid.setdefault(node, []).append(path)
        climbed = climbed and (depth == 0 or gt > gh)
        inside = inside and gt >= 0
        for r, t in adj[node]:
            if dist.get(t) != depth + 1:
                continue
            prefix.append((node, r, t))
            climb(t, depth + 1, gt, climbed, inside)
            prefix.pop()

    climb(query, 0, 0, True, True)
    return short, invalid


def potential_deltas(path: RelationalPath, dm: DistanceMap) -> list[int]:
    """Per-triple potential differences along the path.

    Non-final triples use max(gamma_tail - gamma_head, 0); the final triple
    uses min(gamma_tail - gamma_head + 1, 1) so that a last sideways step
    still counts as progress.  Every entity on the path must be within the
    horizon.
    """
    ents = [e for h, _, t in path.triples for e in (h, t)]
    return _deltas(path.triples, dict(zip(ents, dm.dist[ents].tolist())), dm.horizon)


def _deltas(triples: Sequence[Triple], dist: dict[int, int], horizon: int) -> list[int]:
    """``potential_deltas`` of a chain of triples; ``dist`` gives each
    entity's distance, and an entity it lacks is outside the horizon."""
    out: list[int] = []
    last = len(triples) - 1
    for i, (h, _, t) in enumerate(triples):
        gh, gt = dist.get(h, -1), dist.get(t, -1)
        if gh < 0 or gt < 0:
            raise ValueError(
                f"path entity outside horizon {horizon}: triple {i} has "
                f"distances ({gh}, {gt})"
            )
        out.append(max(gt - gh, 0) if i < last else min(gt - gh + 1, 1))
    return out


def is_percolation_valid(path: RelationalPath, dm: DistanceMap) -> bool:
    """True when every potential difference is positive (empty path: True)."""
    return all(d > 0 for d in potential_deltas(path, dm))


def classify_redundant(
    path: RelationalPath,
    dm: DistanceMap,
    shortest: list[RelationalPath],
) -> bool:
    """Definition check: longer than gamma and sharing >= gamma distinct
    triples with at least one single shortest path.

    ``shortest`` must be the complete shortest-path set for (query, target).
    The intersection is triple-set based (multiplicity agnostic) and taken
    per shortest path, not against the union across all of them.
    """
    gamma = int(dm.dist[path.target])
    if gamma < 0:
        raise ValueError(f"target {path.target} unreachable within horizon")
    if path.length <= gamma:
        return False
    return _shares_shortest(set(path.triples), gamma, (set(s.triples) for s in shortest))


def _shares_shortest(tset: set[Triple], gamma: int, shortest: Iterable[set[Triple]]) -> bool:
    """The redundancy rule for a walk longer than gamma, given its distinct
    triples and those of each shortest path: it shares at least gamma of
    them with one shortest path; at gamma 0 every such walk is redundant."""
    return gamma == 0 or any(len(tset & s) >= gamma for s in shortest)


@dataclass
class PrincipleReport:
    """Outcome of the three structural checks for one query."""

    query: int
    horizon: int
    shortest_all_valid: bool
    no_valid_redundant: bool
    coverage_complete: bool
    n_shortest: int = 0
    n_walks: int = 0
    n_valid: int = 0
    n_redundant: int = 0
    counterexamples: list[str] = field(default_factory=list)

    @property
    def all_ok(self) -> bool:
        return self.shortest_all_valid and self.no_valid_redundant and self.coverage_complete


def verify_percolation_principles(
    index: AdjacencyIndex,
    q: int,
    horizon: int,
    max_expansions: int = 2_000_000,
) -> PrincipleReport:
    """Check the three layering guarantees for one query by enumeration.

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

    The query's adjacency (``_Horizon``: one distance dict, each entity's
    out-triples read from the CSR once) is built once and read by every
    check.  (1) reads one climb over it, which records each shortest path as
    a tuple of triples and marks the paths whose potential differences would
    not all be positive, tracking validity as (2) does.  (1) applies the
    ``potential_deltas`` rule to the marked paths only, targets in ascending
    entity order and paths in DFS order, so its counterexamples and the
    error for a path entity outside the horizon are those of a check of
    every path.  (2) is one walk DFS that tracks validity as it goes (every
    step but the last climbs strictly, the last does not descend: exactly
    ``potential_deltas > 0``) and tests a valid walk longer than its
    target's distance, the only kind that can be redundant, against that
    target's shortest-path triple sets, built once per target.  (3) takes
    its wanted triples from the CSR ranges of the heads at distance <=
    horizon-1, in ascending position as a scan of all triples would, and
    never from the map's decoder or layers, so that it does not lean on the
    kernel it checks.  ``max_expansions`` bounds each DFS pass apart,
    raising ValueError past it: the climb's prefixes over all targets
    together, and the walk DFS's prefixes.
    """
    dm = relative_distances(index, q, horizon)
    rep = PrincipleReport(
        query=q, horizon=horizon,
        shortest_all_valid=True, no_valid_redundant=True, coverage_complete=True,
    )
    adj = _Horizon(index, dm)
    dist = adj.dist
    short, invalid = _climb(adj, q, max_expansions)
    rep.n_shortest = sum(map(len, short.values()))
    for t in sorted(invalid):
        for p in invalid[t]:
            if not all(d > 0 for d in _deltas(p, dist, horizon)):
                rep.shortest_all_valid = False
                rep.counterexamples.append(f"shortest-not-valid: {p}")

    # (2): enumerate every walk from q up to the horizon, self-loops excluded
    prefix: list[Triple] = []
    budget = [max_expansions]
    short_sets: dict[int, list[set[Triple]]] = {}

    def walk(node: int, depth: int, gh: int, climbed: bool, inside: bool):
        # gh: distance of the previous entity; climbed: every step before
        # the last one climbs strictly; inside: no entity outside the horizon
        budget[0] -= 1
        if budget[0] < 0:
            raise ValueError(
                f"principle check exceeded {max_expansions} expansions; "
                "reduce the horizon or the graph size"
            )
        gt = dist.get(node, -1)
        if depth > 0 and gt >= 0:
            rep.n_walks += 1
            if not inside:  # raises, naming the triple that leaves the horizon
                potential_deltas(RelationalPath(q, node, tuple(prefix)), dm)
            if climbed and gt >= gh:
                rep.n_valid += 1
                # only a walk longer than its target's distance can be redundant
                if depth > gt:
                    if node not in short_sets:
                        short_sets[node] = [set(p) for p in short.get(node, ())]
                    if _shares_shortest(set(prefix), gt, short_sets[node]):
                        rep.n_redundant += 1
                        rep.no_valid_redundant = False
                        rep.counterexamples.append(f"valid-and-redundant: {tuple(prefix)}")
        if depth == horizon:
            return
        climbed = climbed and (depth == 0 or gt > gh)
        inside = inside and gt >= 0
        for r, t in adj[node]:
            if t == node:
                continue
            prefix.append((node, r, t))
            walk(t, depth + 1, gt, climbed, inside)
            prefix.pop()

    walk(q, 0, 0, True, True)

    # (3): every repeat of a layered triple, then every wanted triple missed.
    # The wanted triples leave the heads at distance <= horizon-1, so they
    # are read from those heads' CSR ranges, ascending as positions are.
    layered: set[int] = set()
    for pos in np.concatenate(dm.layers).tolist():
        if pos in layered:
            rep.coverage_complete = False
            rep.counterexamples.append(f"triple in two layers: pos {pos}")
        layered.add(pos)
    heads = [h for h, d in dist.items() if d < horizon]
    for h, lo in zip(heads, index.indptr[heads].tolist()):
        dh = dist[h]
        for k, (_, t) in enumerate(adj[h]):
            if dist.get(t, -1) >= dh and lo + k not in layered:
                rep.coverage_complete = False
                rep.counterexamples.append(
                    f"non-uphill triple missing from all layers: pos {lo + k}"
                )
    return rep
