"""Triple store: vocabularies, graph augmentation, adjacency indexing.

A knowledge graph is a set of (head, relation, tail) triples over integer
ids.  Before any reasoning the graph is augmented: every base triple gains a
reverse twin under a distinct reverse relation id, and every entity gains an
identity self-loop under one shared identity relation.  All layering, path
and model code operates on the augmented triple set.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ids import check_count, check_ids

Triple = tuple[int, int, int]

IDENTITY_SUFFIX = "_self"
REVERSE_SUFFIX = "_inv"


class Vocab:
    """String <-> integer id table; ids assigned in first-appearance order."""

    def __init__(self, names: tuple[str, ...] | list[str] = ()):
        self._names: list[str] = []
        self._ids: dict[str, int] = {}
        for n in names:
            self.add(n)

    def add(self, name: str) -> int:
        """Return the id for name, assigning the next free id if unseen."""
        i = self._ids.get(name)
        if i is None:
            i = len(self._names)
            self._ids[name] = i
            self._names.append(name)
        return i

    def id(self, name: str) -> int:
        try:
            return self._ids[name]
        except KeyError:
            raise KeyError(f"unknown vocabulary entry {name!r}") from None

    def name(self, i: int) -> str:
        return self._names[i]

    def copy(self) -> "Vocab":
        v = Vocab()
        v._names = list(self._names)
        v._ids = dict(self._ids)
        return v

    def __len__(self) -> int:
        return len(self._names)

    def __contains__(self, name: str) -> bool:
        return name in self._ids

    def __repr__(self) -> str:
        return f"Vocab({len(self)} entries)"


@dataclass
class KnowledgeGraph:
    """Base triples plus, after augment(), the full augmented triple set.

    ``triples`` is an (n, 3) int32 array of base triples.  ``augmented`` is
    None until augment() is called; afterwards it holds (2n + |E|, 3) rows in
    the fixed order [base, reverses, identity loops].  Relation ids: base
    relations occupy 0..R-1, the reverse of r is r + R, and the single shared
    identity relation is 2R.
    """

    entities: Vocab
    relations: Vocab
    triples: np.ndarray
    n_base_relations: int
    augmented: np.ndarray | None = None

    @property
    def num_entities(self) -> int:
        return len(self.entities)


def reverse_rel(r: int | np.ndarray, n_base: int):
    """Reverse relation id: base -> reverse, reverse -> base, identity -> itself.

    An id outside [0, 2 * n_base] raises ValueError.
    """
    n_base = check_count("n_base", n_base, 0)
    r = check_ids("relation ids", r, 0, 2 * n_base + 1)
    out = np.where(
        r < n_base, r + n_base, np.where(r < 2 * n_base, r - n_base, r)
    )
    return out if out.ndim else int(out)


def load_triples(
    path: str,
    entities: Vocab | None = None,
    relations: Vocab | None = None,
) -> tuple[np.ndarray, Vocab, Vocab]:
    """Parse a head<TAB>relation<TAB>tail file into an (n, 3) id array.

    Existing vocabularies may be passed in to share ids across split files;
    they are extended in place.  Malformed lines and duplicate triples raise
    ValueError naming the offending line.  Blank lines are ignored.
    """
    entities = entities if entities is not None else Vocab()
    relations = relations if relations is not None else Vocab()
    rows: list[tuple[int, int, int]] = []
    seen: set[tuple[int, int, int]] = set()
    with open(path, "r", encoding="utf-8") as f:
        for lineno, line in enumerate(f, start=1):
            line = line.rstrip("\n").rstrip("\r")
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) != 3 or not all(parts):
                raise ValueError(
                    f"{path}:{lineno}: expected 3 tab-separated fields, got {line!r}"
                )
            h, r, t = parts
            row = (entities.add(h), relations.add(r), entities.add(t))
            if row in seen:
                raise ValueError(f"{path}:{lineno}: duplicate triple {line!r}")
            seen.add(row)
            rows.append(row)
    arr = np.asarray(rows, dtype=np.int32).reshape(len(rows), 3)
    return arr, entities, relations


def make_graph(triples: np.ndarray, entities: Vocab, relations: Vocab) -> KnowledgeGraph:
    """Wrap (n, 3) (head, relation, tail) ids as an int32 base graph.

    Entity ids must lie in [0, |entities|) and relation ids in
    [0, |relations|); otherwise ValueError names the field and the first bad
    row.  Non-integer ids (float, bool) raise ValueError, where a cast would
    truncate them.
    """
    n_e, n_r = len(entities), len(relations)
    ids = np.asarray(triples).reshape(-1, 3)
    for f, name, hi in ((0, "head", n_e), (1, "relation", n_r), (2, "tail", n_e)):
        check_ids(f"triple {name} ids", ids[:, f], 0, hi)
    # every column is in range; this refuses a bool among a list's ints
    triples = check_ids("triple ids", triples, 0, max(n_e, n_r)).astype(np.int32).reshape(-1, 3)
    return KnowledgeGraph(
        entities=entities,
        relations=relations,
        triples=triples,
        n_base_relations=len(relations),
    )


def augment(kg: KnowledgeGraph) -> KnowledgeGraph:
    """Add reverse triples and identity self-loops.

    Returns a new graph whose relation vocabulary is extended with one
    reverse name per base relation plus the shared identity relation.  The
    augmented set has exactly 2*|T| + |E| rows.  Augmenting an already
    augmented graph is an error.
    """
    if kg.augmented is not None:
        raise ValueError("graph is already augmented")
    R = kg.n_base_relations
    rels = kg.relations.copy()
    for i in range(R):
        name = rels.name(i) + REVERSE_SUFFIX
        if name in rels:
            raise ValueError(f"relation name collision during augmentation: {name!r}")
        rels.add(name)
    if IDENTITY_SUFFIX in rels:
        raise ValueError(f"relation name collision during augmentation: {IDENTITY_SUFFIX!r}")
    rels.add(IDENTITY_SUFFIX)

    base = kg.triples
    rev = np.empty_like(base)
    rev[:, 0] = base[:, 2]
    rev[:, 1] = base[:, 1] + R
    rev[:, 2] = base[:, 0]
    n_e = len(kg.entities)
    ident = np.empty((n_e, 3), dtype=np.int32)
    ident[:, 0] = np.arange(n_e, dtype=np.int32)
    ident[:, 1] = 2 * R
    ident[:, 2] = ident[:, 0]
    aug = np.concatenate([base, rev, ident], axis=0)
    return KnowledgeGraph(
        entities=kg.entities,
        relations=rels,
        triples=base,
        n_base_relations=R,
        augmented=aug,
    )


@dataclass
class AdjacencyIndex:
    """CSR layout of the augmented triples, bucketed by head entity.

    ``head``/``rel``/``tail`` (C-contiguous, the augmented array's dtype)
    hold the augmented triples sorted stably by head: within a bucket the
    triples keep their order in ``KnowledgeGraph.augmented``.  ``build_index``
    makes that order with one sort of the int64 keys ``head*|T+| + row``, so
    it needs |E|*|T+| < 2**63.  The out-going triples of entity e occupy
    positions indptr[e]:indptr[e+1] (int64), so ``num_entities`` is
    len(indptr) - 1.  ``out_degree`` (int64) counts augmented out-going
    triples per entity (identity loop included), which in an augmented graph
    equals the in-degree; less a query's masked in-triples it is the
    aggregation denominator.
    """

    indptr: np.ndarray
    head: np.ndarray
    rel: np.ndarray
    tail: np.ndarray
    out_degree: np.ndarray
    n_base_relations: int

    @property
    def num_entities(self) -> int:
        return len(self.indptr) - 1

    @property
    def num_triples(self) -> int:
        return len(self.head)

    @property
    def identity_rel(self) -> int:
        return 2 * self.n_base_relations

    def out_positions(self, ents: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Positions of the out-going triples of each entity of ``ents``, as
        one run per entity in that order, and the length of each run."""
        starts = self.indptr.take(ents)
        counts = self.out_degree.take(ents)
        ends = counts.cumsum()
        # position k of run i is starts[i] + k - (ends[i] - counts[i])
        starts -= ends
        starts += counts
        pos = starts.repeat(counts)
        pos += np.arange(len(pos), dtype=np.int64)
        return pos, counts

    def find_edges(self, h: int, t: int) -> np.ndarray:
        """Positions (sorted-order triple ids) of all edges h -> t.

        Raises ValueError naming ``h`` or ``t`` when it is no id in [0, |E|).
        """
        h, t = (int(check_ids(f"find_edges {name}", e, 0, self.num_entities))
                for name, e in (("h", h), ("t", t)))
        lo, hi = self.indptr[h], self.indptr[h + 1]
        return (lo + np.flatnonzero(self.tail[lo:hi] == t)).astype(np.int64)


def build_index(kg: KnowledgeGraph) -> AdjacencyIndex:
    """Index the augmented triple set by head entity (stable order).

    Row i of the m augmented rows gets the key ``head*m + i``.  The keys are
    unique, so one sort of them orders the rows stably by head without a
    comparison argsort, and ``key - head*m`` recovers each sorted row's
    position.  The keys are int64, which bounds the graph to
    |E|*|T+| < 2**63.  A head id outside [0, |E|) raises ValueError naming
    its row; in an augmented graph every tail is also some triple's head.
    """
    if kg.augmented is None:
        raise ValueError("augment the graph before indexing")
    aug = kg.augmented
    n_e, m = len(kg.entities), len(aug)
    heads = check_ids("augmented head ids", aug[:, 0], 0, n_e)
    counts = np.bincount(heads, minlength=n_e)
    indptr = np.zeros(n_e + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    head = np.repeat(np.arange(n_e, dtype=aug.dtype), counts)
    # the keys head*m + i, sorted in place and reduced to row positions
    order = heads * np.int64(m)
    order += np.arange(m)
    order.sort()
    order -= head * np.int64(m)
    return AdjacencyIndex(
        indptr=indptr,
        head=head,
        rel=np.take(aug[:, 1], order),
        tail=np.take(aug[:, 2], order),
        out_degree=counts.astype(np.int64),
        n_base_relations=kg.n_base_relations,
    )
