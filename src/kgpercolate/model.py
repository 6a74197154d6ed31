"""Percolation message-passing model for knowledge-graph link prediction.

The forward pass has four stages over a batched layered subgraph:

encode    layers 1..L-1 of outward message passing in dimension d, one
          shared update weight, per-layer relation tables, residual adds;
          query entities start as all-ones rows, everything else zero.
compress  two-layer MLP taking [entity : query-relation] from 2d to d_l.
decode    one message pass over the whole L-hop neighborhood (uphill
          triples included) in dimension d_l with its own relation table.
score     two-layer MLP on [entity : query-relation], raw logit out.

The batch holds exactly the passes read here: percolation layers 1..L-1
and the decoder.

Every message pass is the same: the message is DistMult's head * relation,
the aggregate is PNA's [mean : std] (2004.05718), and the update is
ReLU(agg @ w + b); the compress and score MLPs use ReLU too.  The paper's
GraPE is one lightweight model, not a family of variants, and this is the
best setting of NBFNet's ablation (2106.06935).  The mean and std divide by
each target's visible in-degree, so a triple a query masks counts nowhere,
its degree included.

Relation embeddings are query-conditioned as table[r] + table[r_q] @ mix,
which keeps the relation parameter budget linear in |R| (a per-relation
matrix would be quadratic in d and is deliberately avoided).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import (
    Tensor,
    add,
    concat,
    gather,
    hadamard,
    matmul,
    relu,
    reshape,
    scatter_rows_add,
    segment_mean_std,
)
from .ids import check_count
from .layering import BatchGraph, LayerTriples


@dataclass
class ModelConfig:
    n_base_relations: int
    horizon: int = 5
    dim: int = 32
    dim_low: int = 8

    @property
    def num_augmented_relations(self) -> int:
        return 2 * self.n_base_relations + 1

    def validate(self) -> None:
        for name, lo in (("n_base_relations", 1), ("horizon", 2), ("dim", 1), ("dim_low", 1)):
            setattr(self, name, check_count(name, getattr(self, name), lo))


def init_params(config: ModelConfig, seed: int = 0) -> dict[str, Tensor]:
    """Fresh parameter dict; draw order is fixed, so seeds reproduce."""
    config.validate()
    rng = np.random.default_rng(seed)
    d, dl = config.dim, config.dim_low
    n_rel = config.num_augmented_relations
    params: dict[str, Tensor] = {}

    def table(name, rows, cols):
        params[name] = Tensor(
            rng.standard_normal((rows, cols)) / np.sqrt(cols),
            requires_grad=True, name=name,
        )

    def linear(name, fan_in, fan_out):
        s = np.sqrt(2.0 / (fan_in + fan_out))
        params[f"{name}_w"] = Tensor(
            rng.standard_normal((fan_in, fan_out)) * s,
            requires_grad=True, name=f"{name}_w",
        )
        params[f"{name}_b"] = Tensor(
            np.zeros(fan_out), requires_grad=True, name=f"{name}_b"
        )

    for l in range(1, config.horizon):
        table(f"enc_rel_{l}", n_rel, d)
        table(f"enc_mix_{l}", d, d)
    linear("enc", 2 * d, d)  # the aggregate is [mean : std]
    linear("comp1", 2 * d, d)
    linear("comp2", d, dl)
    table("dec_rel", n_rel, dl)
    table("dec_mix", dl, dl)
    linear("dec", 2 * dl, dl)
    linear("score1", 2 * dl, dl)
    linear("score2", dl, 1)
    return params


def param_count(params: dict[str, Tensor]) -> int:
    return sum(int(np.prod(p.data.shape)) for p in params.values())


def _message_pass(
    h: Tensor,
    layer: LayerTriples,
    rel_table: Tensor,
    mix: Tensor,
    w: Tensor,
    b: Tensor,
    query_rels: np.ndarray,
) -> Tensor:
    if layer.num_triples == 0:
        return h
    heads = gather(h, layer.head_node)
    q_emb = matmul(gather(rel_table, query_rels), mix)  # one row per query
    rel = add(gather(rel_table, layer.rel), gather(q_emb, layer.triple_query))
    agg = segment_mean_std(hadamard(heads, rel), layer.seg_ptr, layer.denom)
    upd = relu(add(matmul(agg, w), b))
    # residual: only nodes that received messages change
    return scatter_rows_add(h, layer.targets, upd)


def encode(params: dict[str, Tensor], config: ModelConfig, bg: BatchGraph) -> Tensor:
    """Percolation layers 1..L-1; returns (n_nodes, d) embeddings.

    Raises ValueError when the batch was built with another horizon.
    """
    if bg.horizon != config.horizon:
        raise ValueError(
            f"batch built with horizon {bg.horizon}, model expects {config.horizon}"
        )
    init = np.zeros((bg.n_nodes, config.dim), dtype=np.float32)
    init[bg.query_nodes] = 1.0
    h = Tensor(init)
    for l in range(1, config.horizon):
        h = _message_pass(
            h, bg.layers[l - 1],
            params[f"enc_rel_{l}"], params[f"enc_mix_{l}"],
            params["enc_w"], params["enc_b"],
            bg.query_rels,
        )
    return h


def _query_mlp(params: dict[str, Tensor], bg: BatchGraph, x: Tensor,
               rel_table: str, layer1: str, layer2: str) -> Tensor:
    """Two-layer MLP on [x : query-relation row]; the second layer's
    pre-activation."""
    q_rel = gather(params[rel_table], bg.query_rels)
    node_rel = gather(q_rel, bg.node_query)
    z = relu(add(matmul(concat([x, node_rel], axis=1), params[f"{layer1}_w"]),
                 params[f"{layer1}_b"]))
    return add(matmul(z, params[f"{layer2}_w"]), params[f"{layer2}_b"])


def compress(params: dict[str, Tensor], config: ModelConfig,
             bg: BatchGraph, h: Tensor) -> Tensor:
    return relu(_query_mlp(params, bg, h, "enc_rel_1", "comp1", "comp2"))


def decode(params: dict[str, Tensor], config: ModelConfig,
           bg: BatchGraph, compressed: Tensor) -> Tensor:
    """One pass over every in-neighborhood triple, uphill ones included."""
    return _message_pass(
        compressed, bg.decoder,
        params["dec_rel"], params["dec_mix"],
        params["dec_w"], params["dec_b"],
        bg.query_rels,
    )


def score(params: dict[str, Tensor], config: ModelConfig,
          bg: BatchGraph, refined: Tensor) -> Tensor:
    """Raw logits, one per batch node row."""
    return reshape(_query_mlp(params, bg, refined, "dec_rel", "score1", "score2"),
                   (bg.n_nodes,))


def forward_batch(params: dict[str, Tensor], config: ModelConfig,
                  bg: BatchGraph) -> Tensor:
    """Full pipeline: logits for every node row of the batch; ``encode``
    checks the batch's horizon, and each gather refuses a relation id its
    table has no row for."""
    h = encode(params, config, bg)
    compressed = compress(params, config, bg, h)
    refined = decode(params, config, bg, compressed)
    return score(params, config, bg, refined)
