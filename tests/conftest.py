from __future__ import annotations

import numpy as np
import pytest

from kgpercolate.kg import KnowledgeGraph, Vocab, augment, build_index, make_graph

# Small worked graph used throughout: five entities, two relations, six
# base triples.  Distances from A: A=0, B=1, D=1, C=2, E=3.
TOY_ENTITIES = ["A", "B", "C", "D", "E"]
TOY_RELATIONS = ["r1", "r2"]
TOY_TRIPLES = [
    ("A", "r1", "B"),
    ("B", "r1", "C"),
    ("A", "r2", "D"),
    ("D", "r2", "C"),
    ("C", "r1", "E"),
    ("B", "r2", "D"),
]


def build_toy() -> KnowledgeGraph:
    ents = Vocab(TOY_ENTITIES)
    rels = Vocab(TOY_RELATIONS)
    rows = [(ents.id(h), rels.id(r), ents.id(t)) for h, r, t in TOY_TRIPLES]
    return make_graph(np.array(rows, dtype=np.int32), ents, rels)


@pytest.fixture
def toy_kg() -> KnowledgeGraph:
    return build_toy()


@pytest.fixture
def toy_aug(toy_kg) -> KnowledgeGraph:
    return augment(toy_kg)


@pytest.fixture
def toy_index(toy_aug):
    return build_index(toy_aug)


def toy_triple(kg: KnowledgeGraph, h: str, r: str, t: str) -> tuple[int, int, int]:
    """Resolve a named triple to ids; relation may be a generated name."""
    return (kg.entities.id(h), kg.relations.id(r), kg.entities.id(t))


def random_kg(
    rng: np.random.Generator,
    n_entities: int | None = None,
    n_relations: int | None = None,
    density: float = 1.8,
) -> KnowledgeGraph:
    """Sparse random base graph for property tests (no duplicate triples)."""
    n_e = int(n_entities if n_entities is not None else rng.integers(5, 31))
    n_r = int(n_relations if n_relations is not None else rng.integers(1, 5))
    n_t = max(1, int(density * n_e))
    seen = set()
    rows = []
    for _ in range(4 * n_t):
        h = int(rng.integers(0, n_e))
        t = int(rng.integers(0, n_e))
        if h == t:
            continue
        r = int(rng.integers(0, n_r))
        if (h, r, t) in seen:
            continue
        seen.add((h, r, t))
        rows.append((h, r, t))
        if len(rows) >= n_t:
            break
    ents = Vocab([f"e{i}" for i in range(n_e)])
    rels = Vocab([f"r{i}" for i in range(n_r)])
    return make_graph(np.array(rows, dtype=np.int32), ents, rels)


def bfs_oracle(aug_triples: np.ndarray, n_entities: int, q: int, horizon: int) -> np.ndarray:
    """Plain per-edge-list BFS used as the independent distance oracle."""
    adj: list[list[int]] = [[] for _ in range(n_entities)]
    for h, _, t in aug_triples:
        adj[int(h)].append(int(t))
    dist = np.full(n_entities, -1, dtype=np.int64)
    dist[q] = 0
    frontier = [q]
    for l in range(1, horizon + 1):
        nxt = []
        for u in frontier:
            for v in adj[u]:
                if dist[v] == -1:
                    dist[v] = l
                    nxt.append(v)
        frontier = nxt
    return dist


def layer_positions(bd) -> list[np.ndarray]:
    """Triple positions of percolation layers 1..horizon of a one-slot
    ``batch_distances`` map, each ascending."""
    pos = bd.decoder[1]
    return [pos[bd.layer == l] for l in range(1, bd.horizon + 1)]


def random_mask(rng: np.random.Generator, index, frac: float) -> tuple[np.ndarray, np.ndarray]:
    """A random set of masked triple positions and the (h, r, t) rows, in
    index order, of the triples it leaves unmasked."""
    n = index.num_triples
    removed = np.sort(rng.choice(n, size=int(frac * n), replace=False)).astype(np.int64)
    keep = np.ones(n, dtype=bool)
    keep[removed] = False
    rows = np.stack([index.head, index.rel, index.tail], axis=1)[keep]
    return removed, rows
