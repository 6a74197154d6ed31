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
and the decoder.  The mean and std aggregators divide by each target's
visible in-degree, so a triple a query masks counts nowhere, its degree
included.

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
    rotate_pairs,
    scatter_rows_add,
    segment_mean,
    segment_mean_std,
    segment_sum,
    tanh,
)
from .layering import BatchGraph, LayerTriples

TRANSFORMS = ("distmult", "transe", "rotate")
AGGREGATES = ("sum", "mean", "pna")
ACTIVATIONS = ("relu", "tanh")


@dataclass
class ModelConfig:
    n_base_relations: int
    horizon: int = 5
    dim: int = 32
    dim_low: int = 8
    transform: str = "distmult"
    aggregate: str = "pna"
    activation: str = "relu"

    @property
    def num_augmented_relations(self) -> int:
        return 2 * self.n_base_relations + 1

    @property
    def agg_width(self) -> int:
        return 2 if self.aggregate == "pna" else 1

    def validate(self) -> None:
        if self.n_base_relations < 1:
            raise ValueError("need at least one base relation")
        if self.horizon < 2:
            raise ValueError("horizon must be at least 2")
        if self.transform not in TRANSFORMS:
            raise ValueError(f"transform must be one of {TRANSFORMS}")
        if self.aggregate not in AGGREGATES:
            raise ValueError(f"aggregate must be one of {AGGREGATES}")
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"activation must be one of {ACTIVATIONS}")
        if self.transform == "rotate" and (self.dim % 2 or self.dim_low % 2):
            raise ValueError("rotate transform needs even dim and dim_low")

    def as_dict(self) -> dict:
        return dict(self.__dict__)


def init_params(config: ModelConfig, seed: int = 0) -> dict[str, Tensor]:
    """Fresh parameter dict; draw order is fixed, so seeds reproduce."""
    config.validate()
    rng = np.random.default_rng(seed)
    d, dl = config.dim, config.dim_low
    n_rel = config.num_augmented_relations
    w = config.agg_width
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
    linear("enc", w * d, d)
    linear("comp1", 2 * d, d)
    linear("comp2", d, dl)
    table("dec_rel", n_rel, dl)
    table("dec_mix", dl, dl)
    linear("dec", w * dl, dl)
    linear("score1", 2 * dl, dl)
    linear("score2", dl, 1)
    return params


def param_count(params: dict[str, Tensor]) -> int:
    return sum(int(np.prod(p.data.shape)) for p in params.values())


def apply_transform(name: str, h: Tensor, r: Tensor) -> Tensor:
    if name == "distmult":
        return hadamard(h, r)
    if name == "transe":
        return add(h, r)
    if name == "rotate":
        return rotate_pairs(h, r)
    raise ValueError(f"transform must be one of {TRANSFORMS}")


def apply_aggregate(
    name: str, msg: Tensor, seg_ptr: np.ndarray, denom: np.ndarray
) -> Tensor:
    if name == "sum":
        return segment_sum(msg, seg_ptr)
    if name == "mean":
        return segment_mean(msg, seg_ptr, denom)
    if name == "pna":
        return segment_mean_std(msg, seg_ptr, denom)
    raise ValueError(f"aggregate must be one of {AGGREGATES}")


_ACT = {"relu": relu, "tanh": tanh}


def _message_pass(
    h: Tensor,
    layer: LayerTriples,
    rel_table: Tensor,
    mix: Tensor,
    w: Tensor,
    b: Tensor,
    query_rels: np.ndarray,
    config: ModelConfig,
) -> Tensor:
    if layer.num_triples == 0:
        return h
    act = _ACT[config.activation]
    heads = gather(h, layer.head_node)
    q_emb = matmul(gather(rel_table, query_rels), mix)  # one row per query
    rel = add(gather(rel_table, layer.rel), gather(q_emb, layer.triple_query))
    msg = apply_transform(config.transform, heads, rel)
    agg = apply_aggregate(config.aggregate, msg, layer.seg_ptr, layer.denom)
    upd = act(add(matmul(agg, w), b))
    # residual: only nodes that received messages change
    return scatter_rows_add(h, layer.targets, upd)


def encode(params: dict[str, Tensor], config: ModelConfig, bg: BatchGraph) -> Tensor:
    """Percolation layers 1..L-1; returns (n_nodes, d) embeddings."""
    init = np.zeros((bg.n_nodes, config.dim), dtype=np.float32)
    init[bg.query_nodes] = 1.0
    h = Tensor(init)
    for l in range(1, config.horizon):
        h = _message_pass(
            h, bg.layers[l - 1],
            params[f"enc_rel_{l}"], params[f"enc_mix_{l}"],
            params["enc_w"], params["enc_b"],
            bg.query_rels, config,
        )
    return h


def compress(params: dict[str, Tensor], config: ModelConfig,
             bg: BatchGraph, h: Tensor) -> Tensor:
    act = _ACT[config.activation]
    q_rel = gather(params["enc_rel_1"], bg.query_rels)
    node_rel = gather(q_rel, bg.node_query)
    z = act(add(matmul(concat([h, node_rel], axis=1), params["comp1_w"]),
                params["comp1_b"]))
    return act(add(matmul(z, params["comp2_w"]), params["comp2_b"]))


def decode(params: dict[str, Tensor], config: ModelConfig,
           bg: BatchGraph, compressed: Tensor) -> Tensor:
    """One pass over every in-neighborhood triple, uphill ones included."""
    return _message_pass(
        compressed, bg.decoder,
        params["dec_rel"], params["dec_mix"],
        params["dec_w"], params["dec_b"],
        bg.query_rels, config,
    )


def score(params: dict[str, Tensor], config: ModelConfig,
          bg: BatchGraph, refined: Tensor) -> Tensor:
    """Raw logits, one per batch node row."""
    act = _ACT[config.activation]
    q_rel = gather(params["dec_rel"], bg.query_rels)
    node_rel = gather(q_rel, bg.node_query)
    s1 = act(add(matmul(concat([refined, node_rel], axis=1), params["score1_w"]),
                 params["score1_b"]))
    s = add(matmul(s1, params["score2_w"]), params["score2_b"])
    return reshape(s, (bg.n_nodes,))


def forward_batch(params: dict[str, Tensor], config: ModelConfig,
                  bg: BatchGraph) -> Tensor:
    """Full pipeline: logits for every node row of the batch.

    Raises ValueError when the batch was built with another horizon, or when
    a relation id of its queries, layers or decoder is at or above
    ``config.num_augmented_relations`` (a config with fewer relations than
    the graph).  A config with more relations than the graph cannot be
    detected from a batch: its ids all fit the larger tables.
    """
    if bg.horizon != config.horizon:
        raise ValueError(
            f"batch built with horizon {bg.horizon}, model expects {config.horizon}"
        )
    n_rel = config.num_augmented_relations
    top = max(int(ids.max(initial=-1)) for ids in
              [bg.query_rels, bg.decoder.rel, *(layer.rel for layer in bg.layers)])
    if top >= n_rel:
        raise ValueError(
            f"batch has relation id {top}, model has {n_rel} augmented relations"
        )
    h = encode(params, config, bg)
    compressed = compress(params, config, bg, h)
    refined = decode(params, config, bg, compressed)
    return score(params, config, bg, refined)
