"""Gradient checks for the tape: finite differences plus loop oracles."""

import dataclasses
import platform
import sys
import time
import weakref
from types import SimpleNamespace

import numpy as np
import pytest

from kgpercolate import autodiff as ad
from kgpercolate.autodiff import (
    Adam,
    Tape,
    Tensor,
    add,
    concat,
    gather,
    hadamard,
    index_add,
    load_params,
    logsumexp,
    matmul,
    relu,
    reshape,
    save_params,
    scatter_rows_add,
    segment_mean_std,
    sub,
    sum_all,
)
from kgpercolate.model import ModelConfig, init_params

from conftest import numeric_grads


@pytest.fixture
def float64():
    ad.set_default_dtype("float64")
    yield
    ad.set_default_dtype("float32")


def check_grads(build, tensors, h=1e-6, rtol=1e-5, atol=1e-7):
    """build() -> scalar Tensor. Compares tape grads to finite differences."""
    with Tape() as tape:
        loss = build()
    tape.backward(loss)
    analytic = [t.grad.copy() for t in tensors]
    numeric = numeric_grads(lambda: float(build().data), tensors, h)
    for a, n in zip(analytic, numeric):
        np.testing.assert_allclose(a, n, rtol=rtol, atol=atol)


def weighted_sum(t, rng):
    w = Tensor(rng.standard_normal(t.data.shape))
    return sum_all(hadamard(t, w))


class TestGradients64:
    def test_matmul(self, float64):
        rng = np.random.default_rng(0)
        a = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
        b = Tensor(rng.standard_normal((4, 2)), requires_grad=True)
        w = Tensor(rng.standard_normal((3, 2)))
        check_grads(lambda: sum_all(hadamard(matmul(a, b), w)), [a, b])

    def test_add_sub_bias_broadcast(self, float64):
        rng = np.random.default_rng(1)
        a = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
        bias = Tensor(rng.standard_normal(4), requires_grad=True)
        c = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
        w = Tensor(rng.standard_normal((3, 4)))
        check_grads(
            lambda: sum_all(hadamard(sub(add(a, bias), c), w)), [a, bias, c]
        )

    def test_hadamard_scale_activations(self, float64):
        rng = np.random.default_rng(2)
        a = Tensor(rng.standard_normal((5, 3)), requires_grad=True)
        b = Tensor(rng.standard_normal((5, 3)), requires_grad=True)
        w = Tensor(rng.standard_normal((5, 3)))
        check_grads(
            lambda: sum_all(
                hadamard(hadamard(relu(hadamard(a, b)), Tensor(np.full((5, 3), 0.7))), w)
            ),
            [a, b],
        )

    def test_concat_slice_reshape(self, float64):
        rng = np.random.default_rng(3)
        a = Tensor(rng.standard_normal((4, 2)), requires_grad=True)
        b = Tensor(rng.standard_normal((4, 3)), requires_grad=True)
        w = Tensor(rng.standard_normal(6))

        def build():
            cat = concat([a, b], axis=1)  # (4,5)
            rows = gather(cat, np.arange(1, 3))  # (2,5)
            flat = reshape(rows, (10,))
            return sum_all(hadamard(gather(flat, np.arange(2, 8)), w))

        check_grads(build, [a, b])

    def test_gather_backward_matches_add_at(self, float64):
        rng = np.random.default_rng(5)
        table = Tensor(rng.standard_normal((7, 2)), requires_grad=True)
        idx = rng.integers(0, 7, size=30)
        w = rng.standard_normal((30, 2))
        with Tape() as tape:
            loss = sum_all(hadamard(gather(table, idx), Tensor(w)))
        tape.backward(loss)
        oracle = np.zeros_like(table.data)
        np.add.at(oracle, idx, w)
        np.testing.assert_allclose(table.grad, oracle, rtol=1e-12, atol=0)

    def test_scatter_rows_add(self, float64):
        rng = np.random.default_rng(6)
        base = Tensor(rng.standard_normal((6, 2)), requires_grad=True)
        upd = Tensor(rng.standard_normal((4, 2)), requires_grad=True)
        idx = np.array([1, 3, 3, 5])
        w = Tensor(rng.standard_normal((6, 2)))
        check_grads(
            lambda: sum_all(hadamard(scatter_rows_add(base, idx, upd), w)),
            [base, upd],
        )
        # forward accumulates duplicates
        out = scatter_rows_add(base, idx, upd)
        expect = base.data.copy()
        for k, i in enumerate(idx):
            expect[i] += upd.data[k]
        np.testing.assert_allclose(out.data, expect)

    @pytest.mark.parametrize("op", [segment_mean_std], ids=["mean_std"])
    def test_segment_ops(self, float64, op):
        rng = np.random.default_rng(7)
        x = Tensor(rng.standard_normal((5, 3)), requires_grad=True)
        seg_ptr = np.array([0, 2, 3, 5])  # a one-row segment in the middle
        denom = np.array([2.0, 1.0, 4.0])
        w = Tensor(rng.standard_normal((3, 6)))
        check_grads(lambda: sum_all(hadamard(op(x, seg_ptr, denom), w)), [x])

    def test_segment_forward_loop_oracle(self, float64):
        rng = np.random.default_rng(8)
        x = Tensor(rng.standard_normal((6, 2)))
        seg_ptr = np.array([0, 2, 3, 4, 6])
        denom = np.array([3.0, 2.0, 1.0, 5.0])
        mean_std = segment_mean_std(x, seg_ptr, denom).data
        means, stds = mean_std[:, :2], mean_std[:, 2:]
        for i in range(4):
            rows = x.data[seg_ptr[i]:seg_ptr[i + 1]]
            s = rows.sum(axis=0)
            np.testing.assert_allclose(means[i], s / denom[i], atol=1e-12)
            m2 = (rows**2).sum(axis=0) / denom[i]
            var = np.maximum(m2 - (s / denom[i]) ** 2, 0)
            np.testing.assert_allclose(
                stds[i], np.sqrt(var + ad.STD_EPS), rtol=1e-12
            )

    def test_logsumexp_full_and_axis(self, float64):
        rng = np.random.default_rng(9)
        a = Tensor(rng.standard_normal(7) * 3, requires_grad=True)
        check_grads(lambda: logsumexp(a), [a])
        b = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
        w = Tensor(rng.standard_normal(3))
        check_grads(lambda: sum_all(hadamard(logsumexp(b, axis=1), w)), [b])
        # stability: huge inputs do not overflow
        big = Tensor(np.array([1000.0, 1000.0]))
        assert float(logsumexp(big).data) == pytest.approx(1000.0 + np.log(2))

    def test_reused_tensor_accumulates(self, float64):
        rng = np.random.default_rng(12)
        a = Tensor(rng.standard_normal((2, 3)), requires_grad=True)
        b = Tensor(rng.standard_normal((3, 2)))
        c = Tensor(rng.standard_normal((3, 2)))
        check_grads(lambda: sum_all(add(matmul(a, b), matmul(a, c))), [a])


def segment_mean_reference(a, seg_ptr, denom):
    """The separate mean op ``segment_mean_std`` replaced, kept as its reference."""
    seg_ptr = np.asarray(seg_ptr)
    denom = np.asarray(denom, dtype=a.data.dtype)
    sizes = np.diff(seg_ptr)
    inv = (1.0 / denom)[:, None]

    def vjp(g):
        return (np.repeat(g * inv, sizes, axis=0),)

    return ad._out(ad._segment_sums(a.data, seg_ptr) * inv, (a,), vjp)


def segment_std_reference(a, seg_ptr, denom):
    """The separate std op ``segment_mean_std`` replaced, kept as its reference."""
    seg_ptr = np.asarray(seg_ptr)
    denom = np.asarray(denom, dtype=a.data.dtype)
    sizes = np.diff(seg_ptr)
    inv = (1.0 / denom)[:, None]
    m1 = ad._segment_sums(a.data, seg_ptr) * inv
    m2 = ad._segment_sums(a.data * a.data, seg_ptr) * inv
    w = m2 - m1 * m1
    out_data = np.sqrt(np.maximum(w, 0) + ad.STD_EPS)

    def vjp(g):
        coef = g * (w > 0) * inv / out_data
        return (np.repeat(coef, sizes, axis=0) * (a.data - np.repeat(m1, sizes, axis=0)),)

    return ad._out(out_data, (a,), vjp)


def mean_std_input(rng, width, layout):
    """(seg_ptr, denom, rows) in float32 with rounding that shows.  "few": 25
    segments of 1 to 40 rows, which reduceat sums; "kernel": the segment sum
    kernel's sizes without empty segments, and ``kernel_input``'s rows of
    mixed magnitude, a quarter of them -0.0 or +0.0, with inf and NaN made
    -0.0."""
    if layout == "few":
        sizes = rng.integers(1, 41, 25)
        sizes[:3] = [1, 10, 40]
        data = rng.standard_normal((int(sizes.sum()), width)) + rng.standard_normal(width)
    else:
        sizes, data = kernel_input(rng, np.float64, width)
        keep = np.repeat(sizes > 0, sizes)
        sizes, data = sizes[sizes > 0], data[keep]
        data[~np.isfinite(data)] = -0.0
    seg_ptr = np.r_[0, np.cumsum(sizes)]
    return seg_ptr, rng.uniform(0.5, 50.0, len(sizes)), data.astype(np.float32)


@pytest.mark.parametrize("width", [1, 2, 7, 8, 16, 32, 64])
def test_segment_mean_std_bytes_match_separate_ops(width):
    # forward and backward bytes of the fused op against the separate mean
    # and std ops, through reduceat and through the segment sum kernel
    rng = np.random.default_rng(100 + width)
    for layout in ("few", "kernel"):
        seg_ptr, denom, data = mean_std_input(rng, width, layout)
        w = Tensor(rng.standard_normal((len(denom), 2 * width)))
        got = {}
        for name in ("fused", "pair"):
            x = Tensor(data, requires_grad=True)
            with Tape() as tape:
                if name == "fused":
                    out = segment_mean_std(x, seg_ptr, denom)
                else:
                    out = concat([segment_mean_reference(x, seg_ptr, denom),
                                  segment_std_reference(x, seg_ptr, denom)], axis=1)
                loss = sum_all(hadamard(out, w))
            tape.backward(loss)
            assert out.data.dtype == x.grad.dtype == np.float32
            got[name] = (out.data.tobytes(), x.grad.tobytes())
        assert got["fused"] == got["pair"], layout


@pytest.mark.parametrize("sizes", [[3], [2, 1, 4]], ids=["one-segment", "three-segments"])
def test_vjps_leave_incoming_gradient_unchanged(sizes):
    # add's VJP hands one gradient array to both inputs, so a VJP that wrote
    # into its gradient (or into a view of it: a half of a one-row gradient
    # is contiguous) would change another input's gradient
    rng = np.random.default_rng(46)
    seg_ptr = np.r_[0, np.cumsum(sizes)]
    denom = rng.uniform(1.0, 5.0, len(sizes))
    x1, x2 = (Tensor(rng.standard_normal((int(seg_ptr[-1]), 4)), requires_grad=True)
              for _ in range(2))
    y = Tensor(rng.standard_normal((len(sizes), 3)), requires_grad=True)
    with Tape() as tape:
        stats = segment_mean_std(x1, seg_ptr, denom)
        outs = [stats, concat([stats, y], axis=1)]  # the entries' outputs, in order
    assert len(tape._entries) == len(outs)
    for out, (_, _, vjp) in zip(outs, tape._entries):
        g = rng.standard_normal(out.shape).astype(np.float32)
        kept = g.copy()
        vjp(g)
        assert g.tobytes() == kept.tobytes()

    w = Tensor(rng.standard_normal((len(sizes), 8)))
    alone = Tensor(x1.data, requires_grad=True)
    with Tape() as tape:
        loss = sum_all(hadamard(segment_mean_std(alone, seg_ptr, denom), w))
    tape.backward(loss)
    with Tape() as tape:
        shared = add(segment_mean_std(x1, seg_ptr, denom), segment_mean_std(x2, seg_ptr, denom))
        loss = sum_all(hadamard(shared, w))
    tape.backward(loss)
    assert x1.grad.tobytes() == alone.grad.tobytes()


def test_float32_chain_gradcheck():
    rng = np.random.default_rng(20)
    x = Tensor(rng.standard_normal((4, 3)))
    w1 = Tensor(rng.standard_normal((3, 5)) * 0.5, requires_grad=True)
    b1 = Tensor(np.zeros(5), requires_grad=True)
    w2 = Tensor(rng.standard_normal((5, 1)) * 0.5, requires_grad=True)

    def build():
        h = relu(add(matmul(x, w1), b1))
        return logsumexp(reshape(matmul(h, w2), (4,)))

    check_grads(build, [w1, w2], h=1e-2, rtol=1e-2, atol=1e-3)


class TestTapeMechanics:
    def test_no_recording_outside_tape(self):
        a = Tensor(np.ones((2, 2)), requires_grad=True)
        out = add(a, a)
        assert not out.requires_grad and a.grad is None

    def test_nested_tapes_rejected(self):
        with Tape():
            with pytest.raises(RuntimeError, match="nest"):
                with Tape():
                    pass

    def test_backward_requires_scalar(self):
        a = Tensor(np.ones(3), requires_grad=True)
        with Tape() as tape:
            out = relu(a)
        with pytest.raises(ValueError, match="scalar"):
            tape.backward(out)

    def test_no_grad_inputs_record_nothing(self):
        a = Tensor(np.ones((2, 2)))
        with Tape() as tape:
            add(a, a)
        assert tape._entries == []

    def test_deterministic_forward_backward(self):
        def run():
            rng = np.random.default_rng(31)
            p = Tensor(rng.standard_normal((3, 3)), requires_grad=True)
            with Tape() as tape:
                loss = logsumexp(matmul(p, p))
            tape.backward(loss)
            return loss.data.copy(), p.grad.copy()

        l1, g1 = run()
        l2, g2 = run()
        assert np.array_equal(l1, l2) and np.array_equal(g1, g2)

    def test_debug_finite_check(self):
        a = Tensor(np.array([1.0, np.inf]))
        ad.set_debug_checks(True)
        try:
            with pytest.raises(FloatingPointError):
                add(a, a)
        finally:
            ad.set_debug_checks(False)
        add(a, a)  # no raise once disabled

    def test_debug_check_names_op_and_tape_position(self):
        w = Tensor(np.array([[1.0, 2.0], [np.nan, 3.0]]), requires_grad=True)
        ad.set_debug_checks(True)
        try:
            with pytest.raises(FloatingPointError, match=r"in gather output \(untaped\)"):
                gather(w, np.array([1]))
            with Tape():
                ok = gather(w, np.array([0]))  # tape position 0
                add(ok, ok)  # tape position 1
                with pytest.raises(FloatingPointError,
                                   match=r"in gather output \(tape position 2\)"):
                    gather(w, np.array([0, 1]))
        finally:
            ad.set_debug_checks(False)

    def test_segment_ptr_validation(self):
        x = Tensor(np.ones((4, 2)))
        with pytest.raises(ValueError, match="seg_ptr"):
            segment_mean_std(x, np.array([0, 2, 3]), np.ones(2))
        for ptr in ([0, 3, 2, 4], [0, 2, 2, 4]):  # a falling and a flat (empty) segment
            with pytest.raises(ValueError, match="strictly increasing"):
                segment_mean_std(x, np.array(ptr), np.ones(3))
        # no rows, no segments
        assert segment_mean_std(Tensor(np.ones((0, 2))), np.array([0]), np.ones(0)).shape == (0, 4)

    @pytest.mark.parametrize("denom", [[1.0], [1.0, 2.0, 3.0], [[1.0, 2.0]], 2.0])
    def test_segment_denom_one_per_segment(self, denom):
        # a single denominator would broadcast to every segment
        x = Tensor(np.arange(8.0).reshape(4, 2))
        with pytest.raises(ValueError, match=r"denom of shape .* for 2 segments"):
            segment_mean_std(x, np.array([0, 2, 4]), np.array(denom))
        assert segment_mean_std(x, np.array([0, 2, 4]), np.array([1.0, 2.0])).shape == (2, 4)


def sorted_index_add(target, idx, values):
    """The reference for ``index_add``'s bytes: a stable argsort of idx for
    every index, then one reduceat over the sorted values."""
    if idx.size == 0:
        return
    order = np.argsort(idx, kind="stable")
    si = idx[order]
    sv = values[order]
    starts = np.flatnonzero(np.r_[True, si[1:] != si[:-1]])
    target[si[starts]] += np.add.reduceat(sv, starts, axis=0)


def index_cases(rng):
    """(name, n_rows, idx) for every index class ``index_add`` tells apart."""
    runs = np.repeat(np.sort(rng.choice(40, 12, replace=False)), rng.integers(1, 14, 12))
    return [
        ("empty", 9, np.zeros(0, dtype=np.int64)),
        ("single", 9, np.array([4])),
        ("increasing", 40, np.sort(rng.choice(40, 25, replace=False))),
        ("nondecreasing", 40, runs),
        ("unsorted-small", 17, rng.integers(0, 17, 300)),
        ("unsorted-unsigned", 17, rng.integers(0, 17, 300).astype(np.uint32)),
        ("unsorted-uint8-edge", 1 << 8, rng.integers((1 << 8) - 20, 1 << 8, 300)),
        ("unsorted-uint16-low", (1 << 8) + 1, rng.integers(0, (1 << 8) + 1, 300)),
        ("unsorted-uint16-edge", 1 << 16, rng.integers((1 << 16) - 20, 1 << 16, 300)),
        ("unsorted-large", 70_000, rng.integers(0, 70_000, 3000)),
    ]


@pytest.mark.parametrize("width", [None, 1, 3, 64])
def test_index_add_bytes_match_sorted_reduceat(width):
    rng = np.random.default_rng(41)
    for name, n, idx in index_cases(rng):
        shape = (idx.size,) if width is None else (idx.size, width)
        values = rng.standard_normal(shape).astype(np.float32)
        strided = np.repeat(values[..., None], 2, axis=-1)[..., 0]  # a non-contiguous view
        for vals in (values, strided):
            base = rng.standard_normal((n,) + shape[1:]).astype(np.float32)
            want, got = base.copy(), base.copy()
            sorted_index_add(want, idx, vals)
            index_add(got, idx, vals)
            assert got.tobytes() == want.tobytes(), name


def test_index_add_sorts_only_unsorted_indices(monkeypatch):
    # sorted indices skip the argsort; unsorted ones sort a uint8 key into
    # at most 256 rows, a uint16 key into at most 65536, else the index itself
    rng = np.random.default_rng(42)
    keys = []
    argsort = np.argsort

    def spy(a, *args, **kw):
        if sys._getframe(1).f_code.co_name == "index_add":  # not the segment sum kernel's
            keys.append(a.dtype)
        return argsort(a, *args, **kw)

    monkeypatch.setattr(np, "argsort", spy)
    for name, n, idx in index_cases(rng):
        keys.clear()
        index_add(np.zeros((n, 2), np.float32), idx, np.ones((idx.size, 2), np.float32))
        if name.startswith("unsorted"):
            want = (np.uint8 if n <= 1 << 8 else np.uint16 if n <= 1 << 16 else idx.dtype)
            assert keys == [np.dtype(want)], name
        else:
            assert keys == [], name


KERNEL_SIZES = np.r_[0:11, 16, 17, 130]


def kernel_input(rng, dtype, width, pool=KERNEL_SIZES):
    """Segment sizes drawn from ``pool`` (by default 0-10, 16, 17 and 130),
    enough short ones that the segment sum kernel (not plain reduceat) runs,
    and rows of mixed magnitude (so the summation order shows in the
    rounding) holding -0.0, +0.0, inf and NaN."""
    w = 1 if width is None else width
    n_seg = 2 * ad._KERNEL_MIN_CALLS // w + 64
    sizes = rng.choice(pool, n_seg)
    assert np.count_nonzero((sizes > 0) & (sizes <= ad._SHORT)) * w >= ad._KERNEL_MIN_CALLS
    n = int(sizes.sum())
    shape = (n,) if width is None else (n, width)
    x = rng.standard_normal(shape) * 10.0 ** rng.integers(-5, 6, shape)
    u = rng.random(shape)
    x[u < 0.2] = -0.0
    x[(u >= 0.2) & (u < 0.25)] = 0.0
    x[u > 0.999] = np.inf
    x[(u > 0.998) & (u <= 0.999)] = -np.inf
    x[(u > 0.997) & (u <= 0.998)] = np.nan
    return sizes, x.astype(dtype)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("width", [None, 1, 2, 8, 16, 64])
def test_segment_sums_bytes_match_reduceat(dtype, width):
    # the kernel copies numpy's summation order; this pins it to the
    # installed numpy, through both callers, on contiguous and strided rows,
    # with every group of segment sizes and with no segments over 8 rows, none
    # of 2..8 rows, or one row each
    rng = np.random.default_rng(43 + (width or 0))
    for pool in (KERNEL_SIZES, np.r_[0:9], np.r_[0, 1, 1, 1, 1, 1, 1, 16, 17, 130],
                 np.r_[0, 1, 1, 1]):
        sizes, data = kernel_input(rng, dtype, width, pool)
        # the kernel takes the bounds of the nonempty segments; index_add also
        # sees the empty ones, as target rows that receive nothing
        ptr = np.r_[0, np.cumsum(sizes[sizes > 0])]
        idx = np.repeat(np.arange(len(sizes)), sizes)
        shuffled = rng.permutation(len(idx))
        strided = np.repeat(data[..., None], 2, axis=-1)[..., 0]
        with np.errstate(invalid="ignore", over="ignore"):
            for x in (data, strided):
                want = np.add.reduceat(x, ptr[:-1], axis=0)
                got = ad._segment_sums(x, ptr)
                assert got.dtype == dtype and got.tobytes() == want.tobytes(), pool
                for i, vals in ((idx, x), (idx[shuffled], x[shuffled])):
                    base = np.zeros((len(sizes),) + x.shape[1:], dtype)
                    want_t, got_t = base.copy(), base.copy()
                    sorted_index_add(want_t, i, vals)
                    index_add(got_t, i, vals)
                    assert got_t.tobytes() == want_t.tobytes(), pool


@pytest.mark.parametrize("dtype", ["float32", "float64"])
def test_relu_bytes_match_where(dtype):
    # relu's forward is branch-free (fmax, then += 0.0 for the sign of
    # zero); its bytes must be those of np.where(x > 0, x, 0) on every
    # special value, and its backward must still mask by x > 0
    fi = np.finfo(dtype)
    special = [0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, fi.smallest_subnormal,
               -fi.smallest_subnormal, fi.tiny, -fi.tiny, fi.max, -fi.max]
    rng = np.random.default_rng(44)
    x = np.concatenate([np.array(special, dtype=dtype),
                        rng.standard_normal(36).astype(dtype)]).reshape(6, 8)
    assert np.signbit(x.reshape(-1)[[1, 3]]).all()  # -0.0 and -nan keep their sign
    w = rng.standard_normal(x.shape).astype(dtype)
    ad.set_default_dtype(dtype)
    try:
        a = Tensor(x, requires_grad=True)
        with np.errstate(over="ignore", invalid="ignore"), Tape() as tape:
            out = relu(a)
            loss = sum_all(hadamard(out, Tensor(w)))  # inf and nan: only the bytes count
        want = np.where(x > 0, x, 0)
        assert out.data.dtype == want.dtype == dtype
        assert out.data.tobytes() == want.tobytes()
        # fmax's loops differ by length and alignment (float64 keeps a
        # -0.0 that leads a short array), so try every window
        flat, flat_want = x.reshape(-1), want.reshape(-1)
        for lo in range(len(flat)):
            for hi in range(lo + 1, len(flat) + 1):
                got = relu(Tensor(flat[lo:hi])).data
                assert got.tobytes() == flat_want[lo:hi].tobytes(), (lo, hi)
        tape.backward(loss)
        assert a.grad.tobytes() == (w * (x > 0)).tobytes()
    finally:
        ad.set_default_dtype("float32")


# (k, m) weights: the encoder update and compress (64, 32) and its
# transpose, compress's second layer (32, 8), decoder and score (16, 8), (8, 1)
MODEL_WEIGHTS = [(64, 32), (32, 64), (32, 8), (16, 8), (8, 1)]
BLOCK_ROWS = [1, 2, 255, 256, 257, 511, 513, 4097]


# up to (2**19 - 1) // 3, the widest weight whose blocks can all take 2-3 rows
@pytest.mark.parametrize("width", [1, 8, 128, 256, 2048, 8192, 65536, 174762])
def test_row_blocks_tile_rows_under_the_bound(width):
    cap = (ad._GEMM_ONE_THREAD - 1) // width
    for n in [*range(0, 600), 1023, 1024, 1025, 4097, 100_003]:
        blocks = ad._row_blocks(n, width)
        bounds = [blocks[0].start] + [s.stop for s in blocks]
        assert [s.start for s in blocks[1:]] == bounds[1:-1], n
        assert bounds[0] == 0 and bounds[-1] == n, (n, bounds)
        rows = np.diff(bounds)
        assert len(rows) == max(1, -(-n // cap)), n  # the fewest blocks
        assert rows.max() - rows.min() <= 1, n
        assert n < 2 or rows.min() >= 2, n  # a one-row product rounds differently
        assert rows.max() * width < ad._GEMM_ONE_THREAD, n
    if width == 64 * 32:  # the widest model weight takes at most 255 rows
        assert ad._row_blocks(255, width) == [slice(0, 255)]
        assert ad._row_blocks(256, width) == [slice(0, 128), slice(128, 256)]


def test_row_blocks_keep_two_rows_for_wide_weights():
    # past (2**19 - 1) // 3 entries no 2-3 row block stays under the bound,
    # and the two-row floor wins over it
    for width in (2**18, 2**19, 2**20):
        for n in range(2, 50):
            rows = [s.stop - s.start for s in ad._row_blocks(n, width)]
            assert sum(rows) == n and min(rows) >= 2 and max(rows) <= 3, (width, n)


# OpenBLAS's SkylakeX core runs a gemm of at most 10**6 entries m*n*k in its
# small-matrix kernel and a larger one in its general kernel; the two round
# a (n, 32) @ (32, 8) product differently, and every row block is small
SMALL_GEMM = 10**6


@pytest.mark.parametrize("k, m", MODEL_WEIGHTS)
def test_blocked_matmul_bytes(k, m):
    # the product and the input gradient are those of one unblocked call
    # wherever that call stays in the small-matrix kernel, and the rows of
    # a product do not depend on how many rows share it; the weight
    # gradient is the sum of the block products in block order
    rng = np.random.default_rng(k * m)
    x_all = rng.standard_normal((max(BLOCK_ROWS), k)).astype(np.float32)
    w = rng.standard_normal((k, m)).astype(np.float32)
    whole = matmul(Tensor(x_all), Tensor(w)).data
    for n in BLOCK_ROWS:
        x = x_all[:n]
        g = rng.standard_normal((n, m)).astype(np.float32)
        a, b = Tensor(x, requires_grad=True), Tensor(w, requires_grad=True)
        with Tape() as tape:
            out = matmul(a, b)
            loss = sum_all(hadamard(out, Tensor(g)))  # out's gradient is g
        tape.backward(loss)
        if n * k * m <= SMALL_GEMM:
            assert out.data.tobytes() == (x @ w).tobytes(), n
        if n >= 2 and m >= 2:  # a one-column weight makes a gemv
            assert out.data.tobytes() == whole[:n].tobytes(), n
        assert a.grad.tobytes() == (g @ w.T).tobytes(), n
        blocks = ad._row_blocks(n, k * m)
        want = x[blocks[0]].T @ g[blocks[0]]
        for rows in blocks[1:]:
            want = want + x[rows].T @ g[rows]
        assert len(blocks) > 1 or n * k * m < ad._GEMM_ONE_THREAD
        assert b.grad.tobytes() == want.tobytes(), n


def test_blocked_weight_gradient_is_the_product(float64):
    rng = np.random.default_rng(45)
    x, g = rng.standard_normal((600, 64)), rng.standard_normal((600, 32))
    a = Tensor(x, requires_grad=True)
    b = Tensor(rng.standard_normal((64, 32)), requires_grad=True)
    assert len(ad._row_blocks(600, b.data.size)) > 1
    with Tape() as tape:
        loss = sum_all(hadamard(matmul(a, b), Tensor(g)))
    tape.backward(loss)
    np.testing.assert_allclose(b.grad, x.T @ g, rtol=1e-12, atol=1e-12)


# [True, 0] is an integer array to numpy
@pytest.mark.parametrize("index", [np.array([True, False, True]), np.array([0.0, 2.0, 1.0]),
                                   [True, 0]])
def test_row_ops_reject_non_integer_index(index):
    # np.take would read a mask as the row ids 0 and 1, not select rows
    a = Tensor(np.ones((3, 2)))
    why = "bool, first bad at position 0" if isinstance(index, list) else np.asarray(index).dtype
    with pytest.raises(ValueError, match=f"^gather row ids must be integers, not {why}$"):
        gather(a, index)
    with pytest.raises(ValueError, match=f"^scatter_rows_add row ids must be integers, not {why}$"):
        scatter_rows_add(a, index, Tensor(np.ones((3, 2))))


@pytest.mark.parametrize("index, rows, span, at", [
    (np.array([-1, 2]), 3, r"\[-1, 2\]", 0),
    (np.array([0, 3], dtype=np.int32), 3, r"\[0, 3\]", 1),
    (np.array([2, -128], dtype=np.int8), 3, r"\[-128, 2\]", 1),
    (np.array([1, 255], dtype=np.uint8), 3, r"\[1, 255\]", 1),
    # read as unsigned at its own width, -100 would pass as row 156
    (np.array([-100, 100], dtype=np.int8), 200, r"\[-100, 100\]", 0),
], ids=["negative", "too_large", "int8_negative", "uint8_too_large", "int8_negative_wide"])
def test_row_ops_reject_ids_outside_rows(index, rows, span, at):
    # a negative id would wrap to a row that its positive twin also names,
    # and the backward keeps only one of their writes
    a, b = Tensor(np.ones((rows, 2))), Tensor(np.ones((2, 2)))
    for op, call in (("gather", lambda: gather(a, index)),
                     ("scatter_rows_add", lambda: scatter_rows_add(a, index, b))):
        with pytest.raises(ValueError, match=rf"^{op} row ids span {span}, outside "
                                             rf"\[0, {rows}\), first bad at position {at}$"):
            call()
    # in range, both reads of a row reach its gradient at this dtype
    t, row = Tensor(np.ones((rows, 2)), requires_grad=True), rows // 2
    with Tape() as tape:
        loss = sum_all(gather(t, np.array([row, row], dtype=index.dtype)))
    tape.backward(loss)
    assert t.grad[row].tolist() == [2.0, 2.0] and t.grad.sum() == 4.0


def test_index_add_is_called_through_the_module(monkeypatch):
    # the bench's traced runs wrap this attribute to time and count calls
    calls = []
    plain = ad.index_add

    def recording(target, idx, values):
        calls.append(idx.tolist())
        plain(target, idx, values)

    monkeypatch.setattr(ad, "index_add", recording)
    table = Tensor(np.ones((4, 2)), requires_grad=True)
    base = Tensor(np.zeros((4, 2)), requires_grad=True)
    with Tape() as tape:
        rows = gather(table, np.array([3, 1, 3]))
        loss = sum_all(scatter_rows_add(base, np.array([0, 2, 3]), rows))
    assert calls == [[0, 2, 3]]
    tape.backward(loss)
    assert calls == [[0, 2, 3], [3, 1, 3]]
    assert table.grad.tolist() == [[0, 0], [1, 1], [0, 0], [2, 2]]


class TestSingleUseTape:
    def test_backward_empties_tape_and_drops_intermediate_grads(self):
        rng = np.random.default_rng(40)
        p = Tensor(rng.standard_normal((3, 3)), requires_grad=True)
        x = Tensor(rng.standard_normal((3, 2)), requires_grad=True)
        with Tape() as tape:
            h = relu(matmul(p, x))
            loss = sum_all(h)
        assert len(tape._entries) == 3
        tape.backward(loss)
        assert tape._entries == []
        assert h.grad is None and loss.grad is None
        # leaves keep theirs: d sum(relu(px)) = [px > 0] chained
        dh = (p.data @ x.data > 0).astype(p.data.dtype)
        np.testing.assert_allclose(p.grad, dh @ x.data.T, rtol=1e-6)
        np.testing.assert_allclose(x.grad, p.data.T @ dh, rtol=1e-6)

    def test_untaped_tensor_is_a_leaf(self):
        # a tensor no entry of the tape produced keeps its gradient, even
        # when an op outside the tape, or under an earlier tape, made it
        a = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        b = hadamard(a, Tensor(np.array([3.0, 3.0])))
        b.requires_grad = True
        with Tape():
            c = hadamard(a, Tensor(np.array([2.0, 2.0])))
        with Tape() as tape:
            loss = sum_all(add(hadamard(b, b), hadamard(c, c)))
        tape.backward(loss)
        assert b.grad.tolist() == [6.0, 12.0] and c.grad.tolist() == [4.0, 8.0]
        assert a.grad is None

    def test_intermediates_freed_during_backward(self):
        p = Tensor(np.ones((4, 4)), requires_grad=True)
        seen = []

        def probe(t):
            def vjp(g):
                seen.append(ref() is None)
                return (g,)
            return ad._out(t.data.copy(), (t,), vjp)

        with Tape() as tape:
            first = probe(p)  # its VJP runs last
            big = relu(first)
            ref = weakref.ref(big.data)
            loss = sum_all(big)
        del big
        assert ref() is not None  # the tape holds it until backward
        tape.backward(loss)
        assert seen == [True]

    def test_tape_keeps_only_what_vjps_read(self):
        # add's VJP reads only shapes and relu's only its output, so the
        # gathered rows and the pre-ReLU sum are freed with the forward;
        # hadamard's VJP reads both operands, relu's output among them
        p, q = (Tensor(np.ones((4, 3)), requires_grad=True) for _ in range(2))
        with Tape() as tape:
            rows = gather(p, [0, 1, 1]), gather(q, [3, 2, 0])
            total = add(*rows)
            h = relu(total)
            w = Tensor(np.full((3, 3), 2.0))
            loss = sum_all(hadamard(h, w))
        freed = [weakref.ref(t.data) for t in (*rows, total)]
        kept = [weakref.ref(t.data) for t in (h, w)]
        del rows, total, h, w
        assert [r() is None for r in freed] == [True] * 3
        assert [r() is None for r in kept] == [False] * 2
        tape.backward(loss)
        assert [r() is None for r in kept] == [True] * 2
        assert p.grad.tolist() == [[2.0] * 3, [4.0] * 3, [0.0] * 3, [0.0] * 3]
        assert q.grad.tolist() == [[2.0] * 3, [0.0] * 3, [2.0] * 3, [2.0] * 3]

    def test_dropped_tape_frees_its_intermediates(self):
        # a parameter outlives the tape, and what it holds of the tape must
        # not keep the recorded VJPs, or their arrays, alive
        p = Tensor(np.ones((3, 3)), requires_grad=True)
        with Tape() as tape:
            h = relu(matmul(p, p))
            sum_all(h)
        refs = weakref.ref(tape), weakref.ref(h.data)
        del tape, h
        assert [r() is None for r in refs] == [True, True]
        with Tape() as tape:
            loss = sum_all(p)
        tape.backward(loss)
        assert p.grad.tolist() == [[1.0] * 3] * 3

    def test_output_used_under_a_later_tape_keeps_its_entry(self):
        # the later tape takes loss as its leaf; the tape that made loss
        # still differentiates it through its own entries
        p = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        with Tape() as first:
            loss = sum_all(hadamard(p, p))
        with Tape() as later:
            twice = add(loss, loss)
        first.backward(loss)
        assert p.grad.tolist() == [2.0, 4.0] and loss.grad is None
        later.backward(twice)
        assert loss.grad.tolist() == 2.0 and p.grad.tolist() == [2.0, 4.0]

    def test_second_backward_raises(self):
        p = Tensor(np.ones(3), requires_grad=True)
        with Tape() as tape:
            loss = sum_all(add(p, p))
        tape.backward(loss)
        with pytest.raises(RuntimeError, match="backward already ran"):
            tape.backward(loss)
        assert p.grad.tolist() == [2.0, 2.0, 2.0]

    def test_failed_backward_keeps_grads(self):
        # hadamard's VJP runs before add's raises; had it written p.grad, the
        # next backward would add onto that partial sum
        p, q = (Tensor(np.ones(3), requires_grad=True) for _ in range(2))
        p.grad = np.full(3, 5.0)
        with Tape() as tape:
            loss = sum_all(hadamard(add(p, q), p))

        def fail(g):
            raise RuntimeError("vjp failed")

        out, inputs, _ = tape._entries[0]  # add's, the last to run
        tape._entries[0] = (out, inputs, fail)
        with pytest.raises(RuntimeError, match="vjp failed"):
            tape.backward(loss)
        assert p.grad.tolist() == [5.0, 5.0, 5.0] and q.grad is None


@pytest.fixture
def fake_libc(monkeypatch):
    """Monkeypatched C library handle; records mallopt calls and loads."""
    calls, loads = [], []

    def libc():
        loads.append(1)
        return SimpleNamespace(mallopt=lambda param, value: calls.append((param, value)) or 1)

    monkeypatch.setattr(ad, "_libc", libc)
    monkeypatch.setattr(ad, "_heap_policy_set", False)
    return calls, loads


def small_step():
    p = Tensor(np.ones((2, 2)), requires_grad=True)
    with Tape() as tape:
        loss = sum_all(relu(matmul(p, p)))
    return tape, loss, p


def test_heap_policy_set_once_by_backward(fake_libc):
    calls, loads = fake_libc
    tape, loss, _ = small_step()
    assert calls == [] and loads == []  # a forward pass sets nothing
    tape.backward(loss)
    want = [(-3, 32 << 20), (-1, 64 << 20)]  # M_MMAP_THRESHOLD, M_TRIM_THRESHOLD
    assert calls == want and loads == [1]
    for _ in range(2):
        tape, loss, _ = small_step()
        tape.backward(loss)
    assert calls == want and loads == [1]


@pytest.mark.parametrize("handle", [None, SimpleNamespace()], ids=["no-libc", "no-mallopt"])
def test_heap_policy_noop_without_mallopt(monkeypatch, handle):
    monkeypatch.setattr(ad, "_libc", lambda: handle)
    monkeypatch.setattr(ad, "_heap_policy_set", False)
    tape, loss, p = small_step()
    tape.backward(loss)
    assert p.grad is not None and ad._heap_policy_set


def test_heap_policy_values_accepted_by_glibc():
    # glibc's mallopt returns 0 for a value it refuses, which would leave
    # the policy silently unset
    if platform.libc_ver()[0] != "glibc":
        pytest.skip("the thresholds are glibc's")
    mallopt = ad._libc().mallopt
    assert mallopt(ad._M_MMAP_THRESHOLD, ad._MMAP_THRESHOLD) == 1
    assert mallopt(ad._M_TRIM_THRESHOLD, ad._TRIM_THRESHOLD) == 1


class TestAdam:
    def test_first_step_is_signed_lr(self):
        p = Tensor(np.zeros(3), requires_grad=True)
        opt = Adam({"p": p}, lr=0.01)
        p.grad = np.array([0.5, -2.0, 0.0], dtype=np.float32)
        opt.step()
        # bias-corrected first step is -lr * g / (|g| + eps)
        np.testing.assert_allclose(
            p.data, [-0.01, 0.01, 0.0], rtol=1e-4, atol=1e-7
        )

    def test_minimizes_quadratic(self):
        p = Tensor(np.array([0.0]), requires_grad=True)
        opt = Adam({"p": p}, lr=0.1)
        for _ in range(300):
            opt.zero_grad()
            p.grad = 2 * (p.data - 3.0)
            opt.step()
        assert abs(float(p.data[0]) - 3.0) < 0.05

    def test_skips_missing_grads(self):
        p = Tensor(np.ones(2), requires_grad=True)
        q = Tensor(np.ones(2), requires_grad=True)
        opt = Adam({"p": p, "q": q}, lr=0.5)
        p.grad = np.ones(2, dtype=np.float32)
        before = q.data.copy()
        opt.step()
        assert np.array_equal(q.data, before)
        assert not np.array_equal(p.data, np.ones(2))

    def test_zero_grad_clears(self):
        p = Tensor(np.ones(2), requires_grad=True)
        opt = Adam({"p": p})
        p.grad = np.ones(2, dtype=np.float32)
        opt.zero_grad()
        assert p.grad is None


class TestCheckpoint:
    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(50)
        params = {
            "enc.w": Tensor(rng.standard_normal((3, 4)), requires_grad=True),
            "enc.b": Tensor(rng.standard_normal(4), requires_grad=True),
            "scalar": Tensor(np.float32(2.5), requires_grad=True),
        }
        path = tmp_path / "model.ckpt"
        save_params(path, params, meta={"epoch": 3, "mrr": 0.5})
        loaded, meta = load_params(path)
        assert list(loaded) == list(params)
        for k in params:
            np.testing.assert_array_equal(loaded[k].data, params[k].data)
            assert loaded[k].requires_grad
            assert loaded[k].data.flags.writeable  # Adam updates in place
        assert meta == {"epoch": 3, "mrr": 0.5}

    def test_default_model_roundtrip(self, tmp_path):
        config = ModelConfig(n_base_relations=8)
        params = init_params(config, seed=3)
        meta = {"config": dataclasses.asdict(config), "seed": 3, "steps": np.int64(600),
                "blas_threads": 1}
        path = tmp_path / "model.ckpt"
        save_params(path, params, meta=meta)
        loaded, loaded_meta = load_params(path)
        assert list(loaded) == list(params)
        for k, p in params.items():
            got = loaded[k].data
            assert got.shape == p.data.shape and got.dtype == p.data.dtype == np.float32, k
            assert got.tobytes() == p.data.tobytes(), k
            assert loaded[k].name == k
        assert loaded_meta == {**meta, "steps": 600}

    def test_same_params_same_bytes(self, tmp_path, monkeypatch):
        params = init_params(ModelConfig(n_base_relations=2, horizon=3, dim=4, dim_low=2))
        meta = {"seed": 0, "steps": 10}
        first, second = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save_params(first, params, meta=meta)
        # a later save, as a rerun of the same training would make it
        later = time.time() + 86400
        monkeypatch.setattr(time, "time", lambda: later)
        save_params(second, params, meta=meta)
        assert first.read_bytes() == second.read_bytes()

    @pytest.mark.parametrize("name", ["allow_pickle", "__meta__", "file"])
    def test_reserved_names_rejected(self, tmp_path, name):
        # np.savez would take "allow_pickle" and "file" as its own arguments,
        # and the meta entry would overwrite "__meta__"
        path = tmp_path / "model.ckpt"
        params = {"w": Tensor(np.ones(2)), name: Tensor(np.zeros(3))}
        with pytest.raises(ValueError, match=f"parameter name '{name}' is reserved"):
            save_params(path, params)
        assert not path.exists()

    def test_writes_one_file_at_path(self, tmp_path):
        path = tmp_path / "model.ckpt"
        save_params(path, {"a": Tensor(np.ones(2))})
        assert sorted(tmp_path.iterdir()) == [path]

    def test_dtype_mismatch_rejected(self, tmp_path, float64):
        path = tmp_path / "f64.ckpt"
        save_params(path, {"w": Tensor(np.array([0.1, 0.2]))})
        ad.set_default_dtype("float32")
        # loading under float32 would round every parameter
        with pytest.raises(ValueError, match="'w' has dtype float64, .* default dtype float32"):
            load_params(path)
        ad.set_default_dtype("float64")
        loaded, _ = load_params(path)
        assert loaded["w"].data.dtype == np.float64
        assert loaded["w"].data.tolist() == [0.1, 0.2]
        # a float64 tensor saved under float32 would not load back as float32
        ad.set_default_dtype("float32")
        with pytest.raises(ValueError, match="'w' has dtype float64, not .* float32"):
            save_params(tmp_path / "mixed.ckpt", loaded)

    def test_bad_format_rejected(self, tmp_path):
        empty, garbage, no_meta = (tmp_path / n for n in ("empty", "garbage", "no_meta.npz"))
        empty.write_bytes(b"")
        garbage.write_bytes(b"not a checkpoint at all")
        with open(no_meta, "wb") as f:
            np.savez(f, w=np.ones(2, np.float32))
        for path in (empty, garbage, no_meta):
            with pytest.raises(ValueError, match="not a recognized checkpoint"):
                load_params(path)
