"""Model forward/gradient behavior on small constructed graphs."""

import re
from dataclasses import replace

import numpy as np
import pytest

from kgpercolate import autodiff as ad
from kgpercolate.autodiff import Adam, STD_EPS, Tape, Tensor, logsumexp, segment_mean_std
from kgpercolate.counting import count_query
from kgpercolate.kg import Vocab, augment, build_index, make_graph
from kgpercolate.layering import QuerySpec, SubgraphBuilder
from kgpercolate.model import (
    ModelConfig,
    compress,
    decode,
    encode,
    forward_batch,
    init_params,
    param_count,
    score,
)

from conftest import build_toy, numeric_grads


def toy_setup(extra=()):
    """Augmented toy graph (optionally with extra base triples) + builder."""
    kg = build_toy()
    if extra:
        rows = np.vstack([kg.triples, np.array(extra, dtype=np.int32)])
        kg = make_graph(rows, kg.entities.copy(), kg.relations.copy())
    aug = augment(kg)
    index = build_index(aug)
    return kg, aug, index, SubgraphBuilder(index)


def small_config(**kw):
    base = dict(n_base_relations=2, horizon=3, dim=8, dim_low=4)
    base.update(kw)
    return ModelConfig(**base)


class TestAggregates:
    msg = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
    seg_ptr = np.array([0, 2, 3])
    denom = np.array([2.0, 4.0])

    def test_pna_concats_mean_and_std(self):
        out = segment_mean_std(Tensor(self.msg), self.seg_ptr, self.denom)
        assert out.data.shape == (2, 4)
        np.testing.assert_allclose(out.data[:, :2], [[2.0, 3.0], [1.25, 1.5]])
        var0 = np.array([5.0, 10.0]) - np.array([4.0, 9.0])
        var1 = np.array([6.25, 9.0]) - np.array([1.5625, 2.25])
        np.testing.assert_allclose(
            out.data[0, 2:], np.sqrt(var0 + STD_EPS), rtol=1e-6
        )
        np.testing.assert_allclose(
            out.data[1, 2:], np.sqrt(var1 + STD_EPS), rtol=1e-6
        )


class TestConfig:
    def test_validation_errors(self):
        # init_params would die on these with a bare ZeroDivisionError (0),
        # numpy's "negative dimensions" (-2) or a bare TypeError (2.5 and a
        # whole np.float32); True would run as 1
        for field, lo in (("n_base_relations", 1), ("horizon", 2), ("dim", 1), ("dim_low", 1)):
            for bad in (lo - 1, -2, 2.5, True, np.float32(3.0)):
                msg = rf"^{field} must be an integer >= {lo}, got {re.escape(repr(bad))}$"
                with pytest.raises(ValueError, match=msg):
                    small_config(**{field: bad}).validate()

    @pytest.mark.parametrize("horizon", [2, 3, 5], ids=["2-pna", "3-pna", "5-pna"])
    def test_count_matches_init(self, horizon):
        # 104 per extra encoder layer (relation table 5x8 plus mix 8x8); the
        # [mean : std] aggregate feeds the encoder and decoder updates 2d and
        # 2d_l inputs
        cfg = small_config(horizon=horizon)
        assert param_count(init_params(cfg)) == {2: 525, 3: 629, 5: 837}[horizon]

    def test_reference_budget(self):
        # L=5, d=32, d_l=8, 9 base relations: 11,449 learned parameters,
        # within 15% of the 12,793 reference budget for that setting
        cfg = ModelConfig(n_base_relations=9, horizon=5, dim=32, dim_low=8)
        n = param_count(init_params(cfg))
        assert n == 11_449
        assert abs(n - 12_793) / 12_793 <= 0.15

    def test_init_deterministic(self):
        a = init_params(small_config(), seed=3)
        b = init_params(small_config(), seed=3)
        c = init_params(small_config(), seed=4)
        assert list(a) == list(b)
        for k in a:
            np.testing.assert_array_equal(a[k].data, b[k].data)
        assert any(not np.array_equal(a[k].data, c[k].data) for k in a)


def toy_batch(builder, aug, queries=None, horizon=3):
    if queries is None:
        queries = [QuerySpec(query=0, rel=0, answer=2)]  # (A, r1, ?) -> C
    return builder.build_batch(queries, horizon=horizon)


class TestForward:
    def test_scores_shape_and_determinism(self):
        _, aug, index, builder = toy_setup()
        bg = toy_batch(builder, aug)
        cfg = small_config()
        params = init_params(cfg, seed=1)
        s1 = forward_batch(params, cfg, bg)
        s2 = forward_batch(params, cfg, bg)
        assert s1.data.shape == (bg.n_nodes,)
        np.testing.assert_array_equal(s1.data, s2.data)
        assert np.all(np.isfinite(s1.data))

    def test_batch_matches_single_queries(self):
        _, aug, index, builder = toy_setup()
        q1 = QuerySpec(query=0, rel=0, answer=2)
        q2 = QuerySpec(query=3, rel=1, answer=1)
        cfg = small_config()
        params = init_params(cfg, seed=5)
        both = forward_batch(params, cfg, builder.build_batch([q1, q2], 3))
        one = forward_batch(params, cfg, builder.build_batch([q1], 3))
        two = forward_batch(params, cfg, builder.build_batch([q2], 3))
        np.testing.assert_allclose(
            both.data, np.concatenate([one.data, two.data]), atol=1e-6
        )

    def test_scores_depend_on_query_relation(self):
        _, aug, index, builder = toy_setup()
        cfg = small_config()
        params = init_params(cfg, seed=6)
        s_r1 = forward_batch(params, cfg, toy_batch(
            builder, aug, [QuerySpec(query=0, rel=0)]))
        s_r2 = forward_batch(params, cfg, toy_batch(
            builder, aug, [QuerySpec(query=0, rel=1)]))
        assert not np.array_equal(s_r1.data, s_r2.data)

    def test_horizon_mismatch_rejected(self):
        _, aug, index, builder = toy_setup()
        bg = toy_batch(builder, aug, horizon=2)
        cfg = small_config(horizon=3)
        with pytest.raises(ValueError, match="horizon"):
            forward_batch(init_params(cfg), cfg, bg)

    def test_config_with_fewer_relations_rejected(self):
        # the toy graph's augmented relation ids run 0..4; one base relation
        # gives the model tables of 3 rows
        _, aug, index, builder = toy_setup()
        bg = toy_batch(builder, aug)
        cfg = small_config(n_base_relations=1)
        msg = (r"^gather of 'enc_rel_1' row ids span \[0, 4\], outside \[0, 3\), "
               r"first bad at position 0$")
        with pytest.raises(ValueError, match=msg):
            forward_batch(init_params(cfg), cfg, bg)

    def test_encode_checks_the_batch(self):
        # the stages run on their own, as a train or eval loop calls them: a
        # horizon-4 batch under a horizon-3 model would leave layer 3 unread
        # and still give finite logits; a decoder relation id is first read,
        # and refused, by decode
        _, aug, index, builder = toy_setup()
        cfg = small_config()
        params = init_params(cfg)
        with pytest.raises(ValueError, match="batch built with horizon 4, model expects 3"):
            encode(params, cfg, toy_batch(builder, aug, horizon=4))
        bg = toy_batch(builder, aug)
        bg.decoder.rel[0] = 7
        compressed = compress(params, cfg, bg, encode(params, cfg, bg))
        with pytest.raises(ValueError, match=r"^gather of 'dec_rel' row ids span \[0, 7\]"):
            decode(params, cfg, bg, compressed)

    @pytest.mark.parametrize("where, table, low, at", [
        ("query_rels", "enc_rel_1", 7, ""),  # the toy batch's one query
        ("layer", "enc_rel_2", 0, ", first bad at position 0"),
        ("decoder", "dec_rel", 0, ", first bad at position 0"),
    ], ids=["query_rels", "layer", "decoder"])
    def test_relation_id_out_of_range_named(self, where, table, low, at):
        # the first gather that reads the bad id refuses it and names its table
        _, aug, index, builder = toy_setup()
        bg = toy_batch(builder, aug)
        cfg = small_config()
        ids = {"query_rels": bg.query_rels, "layer": bg.layers[1].rel,
               "decoder": bg.decoder.rel}[where]
        ids[0] = 7
        msg = rf"^gather of '{table}' row ids span \[{low}, 7\], outside \[0, 5\){at}$"
        with pytest.raises(ValueError, match=msg):
            forward_batch(init_params(cfg), cfg, bg)

    def test_unreached_by_encoder_stays_zero(self):
        # E sits at distance 3 = L, so layers 1..L-1 never target it
        _, aug, index, builder = toy_setup()
        bg = toy_batch(builder, aug)
        cfg = small_config()
        h = encode(init_params(cfg, seed=1), cfg, bg)
        e_row = int(np.flatnonzero(bg.node_entity == 4)[0])
        assert np.all(h.data[e_row] == 0)
        q_row = int(bg.query_nodes[0])
        assert np.any(h.data[q_row] != 0)

    def test_zero_update_weights_make_passes_identity(self):
        _, aug, index, builder = toy_setup()
        bg = toy_batch(builder, aug)
        cfg = small_config()
        params = init_params(cfg, seed=7)
        params["dec_w"].data[:] = 0
        params["dec_b"].data[:] = 0
        compressed = compress(params, cfg, bg, encode(params, cfg, bg))
        refined = decode(params, cfg, bg, compressed)
        np.testing.assert_array_equal(refined.data, compressed.data)
        params["enc_w"].data[:] = 0
        params["enc_b"].data[:] = 0
        h = encode(params, cfg, bg)
        init = np.zeros_like(h.data)
        init[bg.query_nodes] = 1.0
        np.testing.assert_array_equal(h.data, init)

    def test_shared_encoder_weight_is_single_storage(self):
        cfg = small_config(horizon=5)
        params = init_params(cfg)
        assert [k for k in params if k.startswith("enc_w")] == ["enc_w"]
        assert len([k for k in params if k.startswith("enc_rel_")]) == 4


class TestPercolationStructure:
    def test_uphill_triple_never_reaches_encoder(self):
        # add (C, r1, B): head at distance 2, tail at 1. The reverse edge
        # (B, r1_inv, C) is downhill and legitimately participates; only
        # the uphill direction must be invisible to percolation layers.
        kg, aug, index, builder = toy_setup(extra=[(2, 0, 1)])
        pos = [p for p in index.find_edges(2, 1) if index.rel[p] == 0]
        assert len(pos) == 1
        with_edge = toy_batch(builder, aug)
        without = builder.build_batch(
            [QuerySpec(query=0, rel=0, answer=2,
                       removed=np.array(pos, dtype=np.int64))], horizon=3
        )
        # the mask does hide the triple from B's visible in-degree; with the
        # denominators of the unmasked batch the encoder output is the same,
        # so the triple reaches the encoder through no other field (a
        # one-sided mask has no deletion twin: see test_masking_equals_deletion)
        row_b = int(np.flatnonzero(without.node_entity == 1)[0])
        for lw, lo in zip(with_edge.layers, without.layers):
            np.testing.assert_array_equal(lw.head_node, lo.head_node)
            np.testing.assert_array_equal(lw.rel, lo.rel)
            np.testing.assert_array_equal(lw.seg_ptr, lo.seg_ptr)
            np.testing.assert_array_equal(lw.targets, lo.targets)
            np.testing.assert_array_equal(lw.denom - lo.denom, lw.targets == row_b)
        swapped = replace(without, layers=[replace(lo, denom=lw.denom)
                                           for lw, lo in zip(with_edge.layers, without.layers)])
        cfg = small_config()
        params = init_params(cfg, seed=8)
        np.testing.assert_array_equal(
            encode(params, cfg, with_edge).data,
            encode(params, cfg, swapped).data,
        )
        # the decoder does see it: one extra triple, different refined rows
        assert with_edge.decoder.num_triples == without.decoder.num_triples + 1
        assert not np.array_equal(
            forward_batch(params, cfg, with_edge).data,
            forward_batch(params, cfg, without).data,
        )

    def test_twin_candidates_split_by_decoder(self):
        # q -r1-> a, q -r1-> b, a -r2-> c, b -r3-> d: a and b reach the
        # encoder identically (same message, same degree) but their 1-hop
        # neighborhoods differ in relation type
        ents = Vocab(["q", "a", "b", "c", "d"])
        rels = Vocab(["r1", "r2", "r3"])
        rows = np.array(
            [(0, 0, 1), (0, 0, 2), (1, 1, 3), (2, 2, 4)], dtype=np.int32
        )
        aug = augment(make_graph(rows, ents, rels))
        builder = SubgraphBuilder(build_index(aug))
        bg = builder.build_batch([QuerySpec(query=0, rel=0)], horizon=2)
        cfg = small_config(horizon=2, n_base_relations=3)
        params = init_params(cfg, seed=9)
        h = encode(params, cfg, bg)
        row_a = int(np.flatnonzero(bg.node_entity == 1)[0])
        row_b = int(np.flatnonzero(bg.node_entity == 2)[0])
        np.testing.assert_array_equal(h.data[row_a], h.data[row_b])
        refined = decode(params, cfg, bg, compress(params, cfg, bg, h))
        gap = np.linalg.norm(refined.data[row_a] - refined.data[row_b])
        assert gap > 0

    def test_triple_accounting_matches_counting(self):
        _, aug, index, builder = toy_setup()
        bg = toy_batch(builder, aug)
        enc_triples = sum(
            layer.num_triples for layer in bg.layers[: bg.horizon - 1]
        )
        qc = count_query(index, q=0, horizon=3)
        assert enc_triples == qc.encoder_triples == 9
        assert bg.decoder.num_triples == qc.decoder_triples == 17
        assert enc_triples + bg.decoder.num_triples == qc.percolation_total == 26


def fd_param_grads(build_loss, params, h):
    """Central-difference reference for every entry of every parameter.

    ``build_loss(params)`` is evaluated in float64 on ``params`` cast up,
    whatever dtype they are held in; the caller's default dtype is restored
    afterwards.  Both the precision and a small step are needed: at h=1e-2
    the curvature of the PNA std term alone gives ~12% truncation error on
    ``enc_b`` (in float64 as much as in float32), while a float32 difference
    at a step small enough to avoid that is swamped by rounding.
    """
    prev = ad.get_default_dtype()
    ad.set_default_dtype("float64")
    try:
        ref = {name: Tensor(p.data.astype(np.float64))
               for name, p in params.items()}
        grads = numeric_grads(lambda: float(build_loss(ref).data), list(ref.values()), h)
        return dict(zip(ref, grads))
    finally:
        ad.set_default_dtype(prev)


class TestFullModelGradients:
    def compute_grads(self, cfg, seed, h):
        """Analytic grads in the default dtype, plus the float64 reference."""
        _, aug, index, builder = toy_setup()
        bg = toy_batch(builder, aug)
        params = init_params(cfg, seed=seed)

        def build_loss(ps):
            return logsumexp(forward_batch(ps, cfg, bg))

        with Tape() as tape:
            loss = build_loss(params)
        tape.backward(loss)
        numeric = fd_param_grads(build_loss, params, h)
        return params, numeric

    @pytest.fixture(scope="class")
    def float32_grads(self):
        """The float32 grads and their float64 reference, computed once for
        both float32 checks (the reference takes ~0.5 s)."""
        return self.compute_grads(small_config(dim=6, dim_low=4), seed=11, h=1e-6)

    def test_float32_relu_global_relative_error(self, float32_grads):
        # the whole-gradient relative error is the tighter check: the float32
        # analytic gradient is off its float64 reference by ~4e-8, while a
        # 0.1% error in segment_mean_std's std backward shows as ~1e-5, well
        # inside test_float32_per_entry's rtol
        params, numeric = float32_grads
        analytic = np.concatenate([p.grad.ravel() for p in params.values()])
        assert analytic.dtype == np.float32
        fd = np.concatenate([numeric[k].ravel() for k in params])
        rel = np.linalg.norm(analytic - fd) / np.linalg.norm(fd)
        assert rel < 1e-6, rel

    def test_float32_per_entry(self, float32_grads):
        """Every float32 partial of the model against its float64 reference.

        A ReLU kink within h of a pre-activation would spoil that entry's
        difference; at this seed and step every entry passes.
        """
        params, numeric = float32_grads
        for name, p in params.items():
            assert p.grad is not None, name
            assert p.grad.dtype == np.float32, name
            np.testing.assert_allclose(
                p.grad, numeric[name], rtol=1e-2, atol=2e-4, err_msg=name
            )

    def test_float64_full_model_tight(self):
        """Every float64 partial of the model, to a tight tolerance."""
        ad.set_default_dtype("float64")
        try:
            cfg = small_config(dim=6, dim_low=4)
            params, numeric = self.compute_grads(cfg, seed=12, h=1e-6)
            for name, p in params.items():
                np.testing.assert_allclose(
                    p.grad, numeric[name], rtol=1e-5, atol=1e-7, err_msg=name
                )
        finally:
            ad.set_default_dtype("float32")

    def test_empty_layer_tables_get_no_gradient(self):
        # _message_pass returns h for a layer with no triple: run through
        # the pass, its empty gathers would give the layer's tables a zero
        # gradient in place of None, and Adam would decay the moments that
        # earlier batches left and keep moving the tables
        cfg = small_config()
        params = init_params(cfg, seed=2)
        opt = Adam(params, lr=1e-2)
        _, aug, index, builder = toy_setup()
        full = toy_batch(builder, aug)
        assert full.layers[1].num_triples > 0
        # no base triple: layer 1 holds the two identity loops, layer 2 nothing
        bare = augment(make_graph(np.zeros((0, 3), dtype=np.int32), Vocab(["a", "b"]),
                                  Vocab(["r1", "r2"])))
        empty = SubgraphBuilder(build_index(bare)).build_batch(
            [QuerySpec(query=0, rel=0), QuerySpec(query=1, rel=1)], horizon=3)
        assert empty.layers[0].rel.tolist() == [4, 4] and empty.layers[1].num_triples == 0
        for bg in (full, empty):
            opt.zero_grad()
            before = {k: p.data.copy() for k, p in params.items()}
            with Tape() as tape:
                loss = logsumexp(forward_batch(params, cfg, bg))
            tape.backward(loss)
            opt.step()
        for k in ("enc_rel_2", "enc_mix_2"):
            assert params[k].grad is None, k
            np.testing.assert_array_equal(params[k].data, before[k], err_msg=k)
        assert not np.array_equal(params["enc_rel_1"].data, before["enc_rel_1"])
