"""Query-relative distance layering: one kernel, and the batch builder.

For a query entity q, every entity within the hop horizon L gets a relative
distance (BFS hops over the augmented triples).  Layer l of the percolation
process sees only the triples whose head sits at distance l-1 and whose tail
sits at distance l-1 or l, i.e. messages flow outward (downhill in
potential) or sideways, never back toward the query.  The decoder pass sees
every triple with both endpoints inside the horizon.

``relative_distances`` is the one kernel that makes these selections: a
single BFS pass returns the distances, the triples of every layer and the
decoder's triples, with an optional anti-leakage mask applied throughout.
The batch builder, the triple counts and the principle checks all read its
``DistanceMap``.  The builder merges several queries into one node table so
the model can process them in a single set of tensor ops; each query keeps
its own distance structure and edge mask.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .kg import AdjacencyIndex


@dataclass
class DistanceMap:
    """Relative distances from one query entity, capped at the horizon, and
    the triples the model reads.

    ``layers[l-1]`` holds the triple positions of percolation layer l (head
    at distance l-1, tail at l-1 or l) and ``decoder`` those of every triple
    with both endpoints within the horizon; both are ascending positions into
    the index's sorted order, with masked triples left out.
    """

    query: int
    horizon: int
    dist: np.ndarray  # (|E|,) int16, -1 for unreachable within horizon
    layers: list[np.ndarray]  # percolation layers 1..horizon
    decoder: np.ndarray

    def layer(self, l: int) -> np.ndarray:
        """Entity ids at exactly distance l (ascending)."""
        if l < 0 or l > self.horizon:
            raise ValueError(f"layer {l} outside [0, {self.horizon}]")
        return np.flatnonzero(self.dist == l).astype(np.int64)

    def within(self) -> np.ndarray:
        """All entity ids reachable within the horizon (ascending)."""
        return np.flatnonzero(self.dist >= 0)


def _gather_ranges(indptr: np.ndarray, nodes: np.ndarray) -> np.ndarray:
    """Concatenate CSR ranges indptr[n]:indptr[n+1] for all given nodes."""
    if len(nodes) == 0:
        return np.empty(0, dtype=np.int64)
    starts = indptr[nodes]
    counts = indptr[nodes + 1] - starts
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    cum = np.cumsum(counts)
    within = np.arange(total, dtype=np.int64) - np.repeat(cum - counts, counts)
    return np.repeat(starts, counts) + within


def relative_distances(
    index: AdjacencyIndex,
    q: int,
    horizon: int,
    removed: np.ndarray | None = None,
) -> DistanceMap:
    """BFS distances from q over the augmented triples, capped at horizon,
    with the percolation layers and the decoder triples.

    ``removed`` is an optional array of triple positions (into the index's
    sorted order) excluded from traversal and from every selection, used for
    anti-leakage masking.  A query entity or a removed position out of range
    raises ValueError.
    """
    if horizon <= 0:
        raise ValueError(f"horizon must be positive, got {horizon}")
    if not 0 <= q < index.num_entities:
        raise ValueError(f"query={q} outside [0, {index.num_entities})")
    keep = None
    if removed is not None and len(removed):
        lo, hi = removed.min(), removed.max()
        if lo < 0 or hi >= index.num_triples:
            raise ValueError(f"removed positions span [{lo}, {hi}], "
                             f"outside [0, {index.num_triples})")
        keep = np.ones(index.num_triples, dtype=bool)
        keep[removed] = False

    def out_triples(nodes: np.ndarray) -> np.ndarray:
        pos = _gather_ranges(index.indptr, nodes)
        return pos if keep is None else pos[keep[pos]]

    dist = np.full(index.num_entities, -1, dtype=np.int16)
    dist[q] = 0
    frontier = np.array([q], dtype=np.int64)
    layers = []
    for l in range(1, horizon + 1):
        # the frontier holds every entity at distance l-1, ascending
        pos = out_triples(frontier)
        tails = index.tail[pos]
        fresh = tails[dist[tails] == -1]
        dist[fresh] = l
        if l < horizon:  # the last layer's frontier is never expanded
            frontier = np.unique(fresh)
        # no tail is deeper than l, so layer l keeps the tails at l-1 or l
        layers.append(pos[dist[tails] >= l - 1])
    pos = out_triples(np.flatnonzero(dist >= 0))
    decoder = pos[dist[index.tail[pos]] >= 0]
    return DistanceMap(q, horizon, dist, layers, decoder)


@dataclass
class QuerySpec:
    """One (entity, relation) query with optional answer and edge mask."""

    query: int
    rel: int  # augmented relation id (use the reverse id for head queries)
    answer: int = -1
    removed: np.ndarray | None = None  # triple positions masked for this query


@dataclass
class LayerTriples:
    """One layer's message triples, grouped by receiving node.

    Rows are sorted so that all triples sharing a target node are
    contiguous; seg_ptr[i]:seg_ptr[i+1] delimits the messages of
    targets[i].  ``denom`` carries each target's global degree for
    mean/std normalization.  ``triple_query`` maps each triple to its
    query slot for query-conditioned relation embeddings.
    """

    head_node: np.ndarray    # (m,) batch node rows
    rel: np.ndarray          # (m,) augmented relation ids
    seg_ptr: np.ndarray      # (n_targets + 1,)
    targets: np.ndarray      # (n_targets,) batch node rows
    denom: np.ndarray        # (n_targets,) float32 global degrees
    triple_query: np.ndarray # (m,) query slot per triple

    @property
    def num_triples(self) -> int:
        return len(self.head_node)


@dataclass
class BatchGraph:
    """Several query subgraphs merged into one disjoint node table."""

    n_nodes: int
    node_entity: np.ndarray   # (n_nodes,) entity id of each node row
    node_query: np.ndarray    # (n_nodes,) query slot of each node row
    spans: np.ndarray         # (B, 2) node row range per query
    query_nodes: np.ndarray   # (B,) node row holding each query entity
    query_rels: np.ndarray    # (B,) augmented relation id per query
    answer_nodes: np.ndarray  # (B,) node row of the answer, -1 if absent
    layers: list[LayerTriples]  # percolation layers 1..horizon
    decoder: LayerTriples       # full-neighborhood pass
    horizon: int

    @property
    def num_queries(self) -> int:
        return len(self.query_rels)


# the columns of SubgraphBuilder._translate for no triples
_NO_TRIPLES = (np.empty(0, dtype=np.int64),) * 4


class SubgraphBuilder:
    """Builds per-query layered subgraphs and merges them into batches.

    Reuses a scratch entity-to-row map across queries, so one builder
    instance should be kept per worker.  Construction is pure numpy and
    deterministic.
    """

    def __init__(self, index: AdjacencyIndex):
        self.index = index
        self._nodemap = np.full(index.num_entities, -1, dtype=np.int64)

    def build_batch(self, queries: list[QuerySpec], horizon: int) -> BatchGraph:
        if horizon <= 0:
            raise ValueError(f"horizon must be positive, got {horizon}")
        self._check(queries)
        n_q = len(queries)
        node_entity_parts: list[np.ndarray] = [np.empty(0, dtype=np.int64)]
        spans = np.zeros((n_q, 2), dtype=np.int64)
        query_nodes = np.zeros(n_q, dtype=np.int64)
        answer_nodes = np.full(n_q, -1, dtype=np.int64)
        # for layers 1..horizon and then the decoder: the columns of
        # _translate, one tuple per query after an empty one
        parts: list[list[tuple[np.ndarray, ...]]] = [[_NO_TRIPLES] for _ in range(horizon + 1)]

        offset = 0
        for slot, qs in enumerate(queries):
            try:
                dm = relative_distances(self.index, qs.query, horizon, removed=qs.removed)
            except ValueError as e:
                raise ValueError(f"query slot {slot}: {e}") from None
            nodes = dm.within()
            node_entity_parts.append(nodes)
            spans[slot] = (offset, offset + len(nodes))
            self._nodemap[nodes] = offset + np.arange(len(nodes), dtype=np.int64)
            try:
                query_nodes[slot] = self._nodemap[qs.query]
                if qs.answer >= 0 and dm.dist[qs.answer] >= 0:
                    answer_nodes[slot] = self._nodemap[qs.answer]
                for part, pos in zip(parts, dm.layers + [dm.decoder]):
                    if len(pos):
                        part.append(self._translate(pos, slot))
            finally:
                self._nodemap[nodes] = -1
            offset += len(nodes)

        node_entity = np.concatenate(node_entity_parts)
        merged = [self._merge(part, node_entity) for part in parts]
        return BatchGraph(
            n_nodes=offset,
            node_entity=node_entity,
            node_query=np.repeat(np.arange(n_q, dtype=np.int64), spans[:, 1] - spans[:, 0]),
            spans=spans,
            query_nodes=query_nodes,
            query_rels=np.array([qs.rel for qs in queries], dtype=np.int64),
            answer_nodes=answer_nodes,
            layers=merged[:-1],
            decoder=merged[-1],
            horizon=horizon,
        )

    def _check(self, queries: list[QuerySpec]) -> None:
        """Reject the ids the kernel does not see, before any scratch state
        is touched; it checks the query entity and the removed positions."""
        n_e, max_rel = self.index.num_entities, self.index.identity_rel
        for slot, qs in enumerate(queries):
            if not 0 <= qs.rel <= max_rel:
                raise ValueError(f"query slot {slot}: rel={qs.rel} outside [0, {max_rel}]")
            if not -1 <= qs.answer < n_e:
                raise ValueError(f"query slot {slot}: answer={qs.answer} outside [-1, {n_e})")

    def _translate(self, pos: np.ndarray, slot: int) -> tuple[np.ndarray, ...]:
        """Head node rows, relations, tail node rows and query slots."""
        index = self.index
        return (
            self._nodemap[index.head[pos]],
            index.rel[pos].astype(np.int64),
            self._nodemap[index.tail[pos]],
            np.full(len(pos), slot, dtype=np.int64),
        )

    def _merge(self, parts: list[tuple[np.ndarray, ...]], node_entity: np.ndarray) -> LayerTriples:
        head, rel, tail, tq = (np.concatenate(column) for column in zip(*parts))
        order = np.argsort(tail, kind="stable")
        head, rel, tail, tq = head[order], rel[order], tail[order], tq[order]
        targets, start = np.unique(tail, return_index=True)
        return LayerTriples(
            head_node=head, rel=rel,
            seg_ptr=np.append(start, len(tail)).astype(np.int64),
            targets=targets,
            denom=self.index.out_degree[node_entity[targets]].astype(np.float32),
            triple_query=tq,
        )

