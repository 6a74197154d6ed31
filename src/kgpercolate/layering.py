"""Query-relative distance layering: one batched kernel, and the batch builder.

For a query entity q, every entity within the hop horizon L gets a relative
distance (BFS hops over the augmented triples).  Layer l of the percolation
process sees only the triples whose head sits at distance l-1 and whose tail
sits at distance l-1 or l, i.e. messages flow outward (downhill in
potential) or sideways, never back toward the query.  The decoder pass sees
every triple with both endpoints inside the horizon.

``batch_distances`` is the one kernel that makes these selections, for B
queries at once: a single multi-source BFS over flat keys ``slot*|E| +
entity`` returns every slot's distances, the triples of every layer and the
decoder's triples, each slot with its own anti-leakage mask.  Slots never
interact, so a slot's result does not depend on the others in its batch;
the same entity may fill several slots, and a one-slot map is a single
query's.  The batch builder, the triple counts, the principle checks and
the path classifiers all read the kernel.  The builder merges the slots
into one node table so the model can process them in a single set of
tensor ops.  The kernel gives each decoder triple its layer id, so a layer
is a subsequence of the decoder; the builder groups the decoder by tail row
with one sort, and each encoder layer is a subsequence of that, in the
order a stable sort of the layer alone would give.

Batch-sized selections are branch-free: ``ndarray.compress``, not
``a[mask]`` (20k int64, unpredictable mask: 31-44 against 145-195 us, numpy
2.4.6, 2-vCPU VM), and the builder splits keys with ``//`` and a
multiply-subtract, not ``np.divmod`` (33-44 against 91 us).  A mask that
selects from several arrays becomes indices once, with ``nonzero``, and each
array is ``take``n: one ``compress`` per array would run a ``nonzero`` each
(``build_batch`` 0.94x, masked 16-query batches 0.95x).

Small calls: a one-query map (``paths.verify_percolation_principles`` makes
one per query) works on some 30-100 entries, where a numpy call costs a
fixed 0.1-1 us whatever its length, so its cost is its number of calls.
Calls therefore use the ndarray method, not the module function that wraps
it (``a.repeat`` 0.35 against ``np.repeat`` 1.0 us, ``a.nonzero()[0]`` 0.19
against ``np.flatnonzero`` 1.08, ``a.copy(); a.sort()`` 0.37 against
``np.sort`` 0.70, ``a.cumsum()`` 0.74 against ``np.cumsum`` 1.62); allocate
with ``np.empty`` and fill (0.16 against ``np.ones`` 0.84 us); split keys
with ``%`` and a subtract (``np.divmod`` costs both ufuncs together, 1.18
us); and update arrays the call made itself in place.  Integer gathers
cost the other way round by size: ``a[idx]`` is cheaper up to about 1k ids
(30 ids: 0.13 against 0.24 us for ``take``) and ``take`` from about 5k
(20k ids: 6.6 against 8.1 us).  The kernel and the builder, which also lay
out batches of 100k triples, gather with ``take``; the one-query principle
check indexes.  The builder finds a layer's segment bounds with one
``not_equal`` of neighbours and one ``nonzero`` (``np.diff(prepend=-1)``
and ``np.append`` wrap several calls each).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .ids import check_count, check_ids
from .kg import AdjacencyIndex


@dataclass
class BatchDistanceMap:
    """Relative distances from B query entities, capped at the horizon, and
    the triples of each slot's percolation layers and decoder pass.

    Slot s keys entity e as ``s*|E| + e``, so a one-slot map keys it as e.
    ``dist`` is indexed by that key; ``within`` lists the keys at distance
    >= 0, ascending, i.e. by slot and then by entity.  ``decoder`` is a
    (slot, pos) pair of arrays, ascending by slot and then by triple
    position.  ``layer`` gives each decoder triple its head's distance plus
    one when its tail is no shallower, else 0, so percolation layer l is the
    decoder's subsequence where ``layer == l``.
    """

    queries: np.ndarray  # (B,) int64 query entity per slot
    horizon: int
    dist: np.ndarray  # (B*|E|,) int16, -1 for unreachable within horizon
    within: np.ndarray  # (n,) int64 entity keys
    decoder: tuple[np.ndarray, np.ndarray]
    layer: np.ndarray  # (m,) int16 layer of each decoder triple, 0..horizon+1
    masked: np.ndarray | None  # sorted keys slot*|T+| + pos of masked triples


def _sorted_unique(keys: np.ndarray) -> np.ndarray:
    """The sorted distinct keys, as ``np.unique`` gives them, from one sort
    and a compare of neighbours (no hash table); empty keys give empty."""
    keys = keys.copy()
    keys.sort()
    first = np.empty(len(keys), dtype=bool)
    first[:1] = True
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    return keys.compress(first)


def _masked_keys(removed: Sequence[np.ndarray | None], n_triples: int) -> np.ndarray | None:
    """Sorted unique keys ``slot*|T+| + pos`` of the masked triples, or None.

    An empty array masks nothing whatever its dtype; any other array must
    hold integer positions in [0, |T+|), or ValueError names its slot.
    """
    slots, parts = [], []
    for s, pos in enumerate(removed):
        if pos is not None and len(pos):
            slots.append(s)
            parts.append(check_ids(f"query slot {s}: removed positions", pos, 0, n_triples))
    if not parts:
        return None
    pos = np.concatenate(parts)
    slot = np.repeat(np.array(slots, dtype=np.int64), [len(p) for p in parts])
    return _sorted_unique(slot * n_triples + pos)


def _out_triples(
    index: AdjacencyIndex, keys: np.ndarray, masked: np.ndarray | None,
) -> tuple[np.ndarray, np.ndarray]:
    """The unmasked triples leaving the entities of ``keys``, as each one's
    slot base ``slot*|E|`` and position; ascending keys give ascending
    (slot, pos)."""
    n_e = index.num_entities
    ent = keys % n_e
    base = keys - ent
    pos, counts = index.out_positions(ent)
    base = base.repeat(counts)
    if masked is not None:
        key = base // n_e * index.num_triples + pos
        keep = (masked.take(masked.searchsorted(key), mode="clip") != key).nonzero()[0]
        base, pos = base.take(keep), pos.take(keep)
    return base, pos


def batch_distances(
    index: AdjacencyIndex,
    queries: np.ndarray | Sequence[int],
    horizon: int,
    removed: Sequence[np.ndarray | None] | None = None,
) -> BatchDistanceMap:
    """One BFS over the augmented triples from every query entity, capped at
    horizon, with each slot's percolation layers and decoder triples.

    ``removed[s]`` is an optional array of triple positions (into the
    index's sorted order) that slot s excludes from traversal and from every
    selection, used for anti-leakage masking.  A query entity or a removed
    position out of range, or removed positions that are not integers, raise
    ValueError naming the slot.  A horizon that is no positive int raises
    ValueError.
    """
    horizon = check_count("horizon", horizon, 1)
    n_e = index.num_entities
    queries = check_ids("query entity ids", queries, 0, n_e)
    masked = None
    if removed is not None:
        if len(removed) != len(queries):
            raise ValueError(f"{len(removed)} removed arrays for {len(queries)} queries")
        masked = _masked_keys(removed, index.num_triples)

    dist = np.empty(len(queries) * n_e, dtype=np.int16)
    dist.fill(-1)
    frontier = np.arange(len(queries), dtype=np.int64) * n_e + queries
    dist[frontier] = 0
    reached = [frontier]
    for l in range(1, horizon + 1):
        # the frontier holds every key at distance l-1, ascending
        base, pos = _out_triples(index, frontier, masked)
        tails = base + index.tail.take(pos)
        fresh = tails.compress(dist.take(tails) < 0)
        dist[fresh] = l
        reached.append(fresh)
        if l < horizon:  # the last layer's frontier is never expanded
            frontier = _sorted_unique(fresh)
    # every reached key once, without a scan of the (B*|E|,) table
    within = _sorted_unique(np.concatenate(reached))
    base, pos = _out_triples(index, within, masked)
    td = dist.take(base + index.tail.take(pos))
    sel = (td >= 0).nonzero()[0]
    base, pos, td = base.take(sel), pos.take(sel), td.take(sel)
    # no tail is deeper than its head plus one, so layer l holds the triples
    # with head at l-1 and tail at l-1 or l
    hd = dist.take(base + index.head.take(pos))
    return BatchDistanceMap(queries.copy(), horizon, dist, within, (base // n_e, pos),
                            (hd + 1) * (td >= hd), masked)


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
    targets[i], one or more.  ``denom`` carries each target's visible
    in-degree for mean/std normalization: its in-triples in the graph, less
    those its query slot masks, whether or not the layer selects them.
    ``triple_query`` maps each triple to its query slot for
    query-conditioned relation embeddings.
    """

    head_node: np.ndarray    # (m,) batch node rows
    rel: np.ndarray          # (m,) augmented relation ids
    seg_ptr: np.ndarray      # (n_targets + 1,)
    targets: np.ndarray      # (n_targets,) batch node rows
    denom: np.ndarray        # (n_targets,) float32 visible in-degrees
    triple_query: np.ndarray # (m,) query slot per triple

    @property
    def num_triples(self) -> int:
        return len(self.head_node)


@dataclass
class BatchGraph:
    """Several query subgraphs merged into one disjoint node table.

    ``layers`` holds percolation layers 1..horizon-1, the ones the encoder
    reads; layer ``horizon`` feeds no model pass and is not merged (the
    kernel still selects it for the triple counts and the principle checks).
    """

    n_nodes: int
    node_entity: np.ndarray   # (n_nodes,) entity id of each node row
    node_query: np.ndarray    # (n_nodes,) query slot of each node row
    spans: np.ndarray         # (B, 2) node row range per query
    query_nodes: np.ndarray   # (B,) node row holding each query entity
    query_rels: np.ndarray    # (B,) augmented relation id per query
    answer_nodes: np.ndarray  # (B,) node row of the answer, -1 if absent
    layers: list[LayerTriples]  # percolation layers 1..horizon-1, the encoder's
    decoder: LayerTriples       # full-neighborhood pass
    horizon: int

    @property
    def num_queries(self) -> int:
        return len(self.query_rels)

    def check(self) -> None:
        """Raise ValueError unless the batch's structural invariants hold.

        The slots' spans tile the node rows in slot order and agree with
        ``node_query``; ``query_nodes``, ``query_rels`` and ``answer_nodes``
        hold one entry per slot; each slot's query and answer node (unless
        -1) lie in its own span; there are ``horizon - 1`` layers; in every
        layer and the decoder, ``seg_ptr`` rises strictly from 0 to the
        triple count (every target receives a message), ``targets`` strictly
        increase, ``rel`` has one entry per triple and ``denom`` one per
        target, no target has fewer ``denom`` than messages (it cannot
        receive more than its visible in-triples), and each triple's head and
        target rows lie in the span of its ``triple_query``.
        """
        n_q = self.num_queries
        spans = self.spans
        if len(self.layers) != self.horizon - 1:
            raise ValueError(f"{len(self.layers)} layers at horizon {self.horizon}, "
                             f"not {self.horizon - 1}")
        if spans.shape != (n_q, 2) or len(self.node_entity) != self.n_nodes:
            raise ValueError(f"spans of shape {spans.shape} and {len(self.node_entity)} "
                             f"entity rows for {n_q} queries and {self.n_nodes} nodes")
        bounds = np.append(spans[:, 0], self.n_nodes)
        if bounds[0] != 0 or not np.array_equal(spans[:, 1], bounds[1:]) \
                or (np.diff(bounds) < 0).any():
            raise ValueError(f"spans do not tile the {self.n_nodes} node rows in slot order")
        if not np.array_equal(self.node_query, np.repeat(np.arange(n_q), np.diff(bounds))):
            raise ValueError("node_query disagrees with spans")
        for name in ("query_nodes", "query_rels", "answer_nodes"):
            shape = getattr(self, name).shape
            if shape != (n_q,):
                raise ValueError(f"{name} has shape {shape}, not ({n_q},)")
        for name, rows, present in (("query_nodes", self.query_nodes, True),
                                    ("answer_nodes", self.answer_nodes, self.answer_nodes != -1)):
            bad = np.flatnonzero(((rows < spans[:, 0]) | (rows >= spans[:, 1])) & present)
            if len(bad):
                s = bad[0]
                raise ValueError(f"{name}[{s}]={rows[s]} outside span {spans[s].tolist()}")
        named = [(f"layer {l}", lt) for l, lt in enumerate(self.layers, 1)]
        for name, lt in named + [("decoder", self.decoder)]:
            ptr, m = lt.seg_ptr, lt.num_triples
            if len(ptr) != len(lt.targets) + 1 or ptr[0] != 0 or ptr[-1] != m \
                    or (np.diff(ptr) <= 0).any():
                raise ValueError(f"{name}: seg_ptr is not a strictly increasing 0..{m} "
                                 f"pointer over {len(lt.targets)} targets")
            if (np.diff(lt.targets) <= 0).any():
                raise ValueError(f"{name}: targets are not strictly increasing")
            if len(lt.rel) != m or len(lt.denom) != len(lt.targets):
                raise ValueError(f"{name}: {len(lt.rel)} rel and {len(lt.denom)} denom entries "
                                 f"for {m} triples and {len(lt.targets)} targets")
            short = np.flatnonzero(lt.denom < np.diff(ptr))
            if len(short):
                i = short[0]
                raise ValueError(f"{name}: target row {lt.targets[i]} has denom "
                                 f"{lt.denom[i]} below its {ptr[i + 1] - ptr[i]} messages")
            tq = lt.triple_query
            if len(tq) != m or ((tq < 0) | (tq >= n_q)).any():
                raise ValueError(f"{name}: triple_query is not one slot in [0, {n_q}) per triple")
            lo, hi = spans[tq].T
            tail = np.repeat(lt.targets, np.diff(ptr))
            for end, rows in (("head", lt.head_node), ("target", tail)):
                bad = np.flatnonzero((rows < lo) | (rows >= hi))
                if len(bad):
                    i = bad[0]
                    raise ValueError(f"{name}: triple {i} has {end} row {rows[i]} outside "
                                     f"the span of its query slot {lt.triple_query[i]}")


class SubgraphBuilder:
    """Builds per-query layered subgraphs and merges them into batches.

    One ``batch_distances`` call lays out all queries of a batch; the
    builder keeps no state between calls, so a failed call cannot affect
    later ones.  Construction is pure numpy and deterministic.
    """

    def __init__(self, index: AdjacencyIndex):
        self.index = index

    def build_batch(self, queries: list[QuerySpec], horizon: int) -> BatchGraph:
        """The queries' subgraphs from one kernel call, as one batch; each layer
        is a subsequence of the decoder, grouped by tail row once."""
        index = self.index
        n_q, n_e = len(queries), index.num_entities
        # the kernel checks the horizon, the query entities and the masks
        rels = check_ids("query relation ids", [qs.rel for qs in queries], 0,
                         index.identity_rel + 1)
        answers = check_ids("answer ids", [qs.answer for qs in queries], -1, n_e)
        bd = batch_distances(index, [qs.query for qs in queries], horizon,
                             [qs.removed for qs in queries])

        # node rows are the ranks of the slots' entity keys, in key order
        keys = bd.within
        node_query = keys // n_e
        node_entity = keys - node_query * n_e
        rows = np.empty(len(bd.dist), dtype=np.int32)
        rows[keys] = np.arange(len(keys), dtype=np.int32)
        sizes = np.bincount(node_query, minlength=n_q)
        ends = sizes.cumsum()
        base = np.arange(n_q, dtype=np.int64) * n_e
        answer_keys = base + np.maximum(answers, 0)
        reached = (answers >= 0) & (bd.dist[answer_keys] >= 0)
        # visible in-degree: the global one less the slot's masked triples
        # into the row, so that masking a triple equals deleting it
        degree = index.out_degree.take(node_entity)
        if bd.masked is not None:
            slot = bd.masked // index.num_triples
            tails = slot * n_e + index.tail[bd.masked - slot * index.num_triples]
            tails = tails.compress(bd.dist[tails] >= 0)
            degree = degree - np.bincount(rows[tails], minlength=len(keys))
        degree = degree.astype(np.float32)

        # group the decoder by tail row once: the keys row*m + i are unique,
        # so sorting them is a stable sort of the rows without a sort index
        slot, pos = bd.decoder
        m = len(pos)
        grouped = rows.take(slot * n_e + index.tail.take(pos)) * np.int64(m) + np.arange(m)
        grouped.sort()
        tail_row = grouped // m
        order = grouped - tail_row * m
        slot, pos, layer = slot.take(order), pos.take(order), bd.layer.take(order)
        decoder = (tail_row, rows.take(slot * n_e + index.head.take(pos)).astype(np.int64),
                   index.rel.take(pos).astype(np.int64), slot)
        return BatchGraph(
            n_nodes=len(keys),
            node_entity=node_entity,
            node_query=node_query,
            spans=np.stack([ends - sizes, ends], axis=1),
            query_nodes=rows[base + bd.queries].astype(np.int64),
            query_rels=rels,
            answer_nodes=np.where(reached, rows[answer_keys], -1).astype(np.int64),
            layers=[_segments(*(a.take(sel) for a in decoder), degree)
                    for sel in ((layer == l).nonzero()[0] for l in range(1, horizon))],
            decoder=_segments(*decoder, degree),
            horizon=horizon,
        )


def _segments(tail: np.ndarray, head_node: np.ndarray, rel: np.ndarray,
              slot: np.ndarray, degree: np.ndarray) -> LayerTriples:
    """A layer's triples, given grouped by tail row, as segments."""
    bounds = np.empty(len(tail) + 1, dtype=bool)  # True where a segment starts, and at the end
    bounds[0] = bounds[-1] = True
    np.not_equal(tail[1:], tail[:-1], out=bounds[1:-1])
    seg_ptr = bounds.nonzero()[0]
    targets = tail.take(seg_ptr[:-1])
    return LayerTriples(head_node=head_node, rel=rel, seg_ptr=seg_ptr,
                        targets=targets, denom=degree.take(targets), triple_query=slot)
