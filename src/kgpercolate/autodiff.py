"""Tape-based reverse-mode automatic differentiation on numpy arrays.

Covers exactly the operations the percolation model needs: dense linear
algebra, ReLU, row gather/scatter, ``segment_mean_std`` (PNA's mean and std
over contiguous segments with caller-supplied denominators), and a stable
logsumexp.  Records happen only inside a ``with Tape() as tape`` block;
outside a tape every op is a plain numpy computation, which is what
evaluation uses.

ReLU is branch-free: ``np.fmax(x, 0)``, then ``+= 0.0`` (fmax's -0.0 to
+0.0), has the bytes of ``np.where(x > 0, x, 0)`` on every input and took
0.07 against 0.91 ms on 3488x32 mixed-sign float32 (numpy 2.4.6, 2-vCPU VM).

Per-triple arrays have narrow rows (8 or 32 float32), and numpy runs one
inner loop per row wherever an operand is strided or broadcast along them.
So no per-triple array goes through an axis-1 concatenate, a strided half
(``a[:, :d]``) or an (n, 1) column broadcast; per-segment factors are
expanded to contiguous arrays first.  On a bench train step (numpy 2.4.6,
2-vCPU VM): ``np.concatenate([x, x*x], axis=1)`` on (19623, 8) took 342 us
against 66 us for ``x*x`` alone; ``sums[:, :8] * inv[:, None]`` on
(3761, 16) took 77 us against 6.4 us for the contiguous product; and
expanding (3761, 8) segment rows to their 19623 rows took 45 us with
``np.repeat`` against 23 us with ``np.take`` on a row -> segment index.

``matmul`` runs each of its products, the forward ``x @ w``, the input
gradient ``g @ w.T`` and the weight gradient ``x.T @ g``, as BLAS calls
over row blocks of x: the fewest near-equal blocks that keep every call's
m*n*k below 2**19, and no one-row block when x has two rows or more (numpy
sends a one-row product to gemv, which rounds differently).  OpenBLAS's
``interface/gemm.c`` (0.3.31) gives a gemm of more than 2**18 m*n*k
min(threads, m*n*k // 2**18) threads, and a smaller one a single thread,
so no call wakes a worker thread, whatever the thread count; a
(64, 32) weight takes blocks of at most 255 rows.  The weight gradient is
the sum of the blocks' products, added in block order, so its bytes no
longer depend on how OpenBLAS splits a large product among threads, as
they did.  A row of the forward or the input gradient is what one call
over all rows gives, with one exception: OpenBLAS's SkylakeX core runs a
gemm of more than 10**6 m*n*k in a general kernel, which rounds an
(n, 32) @ (32, 8) product differently from its small-matrix kernel, and
every block takes the small one.  So compress's second layer moved on
batches of more than 3,906 nodes, and a row's value no longer depends on
how many rows share its product.  On bench train steps (seeds 901-903,
2 BLAS threads, 2-vCPU VM, ``tools/step_faults.py``) the worker, which
waits for work by spinning, had used 12.0-13.6 ms of CPU per 11-12 ms
step; now it uses none, and the peak resident set fell from 65.8-68.2 to
62.5-63.3 MB (bench train ``peak_rss_mb``: 71.8 -> 67.2 MB, median of 10).

Row gathers go through ``np.take``, and every segment sum
(``segment_mean_std`` and ``index_add``) goes through one kernel,
``_segment_sums``.  Both give the bytes of numpy's own ``x[idx]`` and
``np.add.reduceat``; the kernel reproduces reduceat's summation order,
which is numpy's, and a bytes test pins it to the installed numpy.

A tape holds gradient keys, not the tensors it records.  An entry is
(output slot, input keys, VJP).  An input's key is the slot of the entry
that made it, or, for a leaf, the tensor itself, which the tape holds
anyway to write its gradient; an input that takes no gradient has None.
Each VJP captures only the arrays or shapes it reads: ``add``, ``sub``,
``reshape``, ``sum_all`` and ``gather`` get their input shapes from
``_out``, and only when recorded, so an untaped call reads none; ``relu``
keeps its output.  So an array that no VJP reads (the rows a ``gather``
hands to ``add``, a pre-bias ``matmul`` output, a pre-ReLU sum, a
``scatter_rows_add`` copy) is never retained; it is freed as soon as the
forward drops it.  On a bench train batch (split seed 2701, 3,704 nodes,
19,670 decoder triples; numpy 2.4.6, tracemalloc) the forward holds 9.0 MB
when backward starts and backward peaks at 10.3 MB, against 16.1 and
17.0 MB when entries held the tensors themselves.

A tape runs backward once.  ``Tape.backward`` pops each entry once its VJP
has run and drops that entry's output gradient, so what the VJPs kept is
freed while backward runs and later gradients reuse its memory; only
leaves (parameters, and any tensor that no entry of the tape produced,
one made under an earlier tape included) keep a gradient.  A second
``backward`` raises RuntimeError.

The first ``backward`` in a process also sets glibc's malloc policy, once,
through ``mallopt``: M_MMAP_THRESHOLD = 32 MiB, the ceiling glibc's own
dynamic threshold can reach on 64-bit, and M_TRIM_THRESHOLD = 64 MiB,
twice that, the ratio of glibc's dynamic rule.  Under the default policy
the trim threshold is twice the largest freed mmapped block (about 1 MB
in a bench train step), so each step's backward temporaries fill the top
of the heap, glibc hands those pages back to the OS, and the next step
faults them in again: 1,000-1,800 minor faults a step.  With both
thresholds fixed, a step takes a few.  Only backward sets the policy, so
processes that never differentiate (evaluation, path analysis) keep the
default; where ``mallopt`` is missing (not glibc) nothing is set.  Once set,
the policy lasts for the rest of the process and is never undone: any
evaluation or analysis that runs after training in the same process (a
script, a notebook) also allocates arrays under 32 MiB from the heap and
keeps up to 64 MiB of freed memory resident.
M_TOP_PAD is no substitute: setting it switches the dynamic threshold off,
which leaves the mmap threshold at 128 KiB, so every larger array is
mapped and faulted in afresh.

Default precision is float32.  ``set_default_dtype("float64")`` switches
new tensors to double, which the gradient-check tests rely on.

A checkpoint (``save_params``, ``load_params``) is one ``.npz`` archive:
one array per parameter, in order, each in the default dtype, and the meta
as one JSON string.  Its bytes depend only on the parameters and the meta.
"""

from __future__ import annotations

import ctypes
import json
import math
import zipfile
from functools import partial
from typing import Callable, Sequence

import numpy as np

from .ids import check_ids

_DTYPE = np.float32
_DEBUG_FINITE = False
_ACTIVE_TAPE: "Tape | None" = None

STD_EPS = 1e-6  # inside the sqrt of segment_mean_std
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8
_CKPT_META = "__meta__"  # the checkpoint entry holding meta as JSON
# np.savez takes its arrays as keywords beside these parameters
_CKPT_RESERVED = (_CKPT_META, "file", "allow_pickle")
# OpenBLAS's interface/gemm.c gives a gemm of more than
# SMP_THRESHOLD_MIN * GEMM_MULTITHREAD_THRESHOLD = 65536 * 4 m*n*k
# min(threads, m*n*k // (65536 * 4)) threads, so one below twice that, one
_GEMM_ONE_THREAD = 2 * 65536 * 4

# glibc's mallopt parameters (malloc.h) and the values backward sets
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
_MMAP_THRESHOLD = 32 << 20  # DEFAULT_MMAP_THRESHOLD_MAX on 64-bit
_TRIM_THRESHOLD = 2 * _MMAP_THRESHOLD
_heap_policy_set = False


def set_default_dtype(name: str) -> None:
    global _DTYPE
    if name not in ("float32", "float64"):
        raise ValueError("dtype must be 'float32' or 'float64'")
    _DTYPE = np.float32 if name == "float32" else np.float64


def get_default_dtype() -> str:
    return np.dtype(_DTYPE).name


def set_debug_checks(enabled: bool) -> None:
    """When on, every op output is checked for NaN/inf (slow, for debugging).

    A non-finite output raises FloatingPointError naming the op and the
    tape position its entry would take (or "untaped" outside a tape).
    """
    global _DEBUG_FINITE
    _DEBUG_FINITE = bool(enabled)


class Tensor:
    """A numpy array plus an accumulated gradient.  ``_slot``, its gradient's
    key on the tape that recorded it, is unset on a tensor no tape recorded."""

    __slots__ = ("data", "grad", "requires_grad", "name", "_slot")

    def __init__(self, data, requires_grad: bool = False, name: str | None = None):
        self.data = np.asarray(data, dtype=_DTYPE)
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self.name = name

    @property
    def shape(self) -> tuple:
        return self.data.shape

    def __repr__(self) -> str:
        tag = f" {self.name!r}" if self.name else ""
        return f"Tensor{tag}(shape={self.data.shape}, grad={self.requires_grad})"


class _Slot:
    """The gradient key of a taped output.  It names its tape's token, not
    the tape, so an output that outlives its step keeps no VJP alive."""

    __slots__ = ("token",)

    def __init__(self, token: object):
        self.token = token


class Tape:
    """Records ops applied inside the block; ``backward`` replays them once.

    An entry is the 3-tuple (output slot, input keys, VJP) of the module
    docstring.  A taped output gets a fresh slot, which no later tape
    replaces; an input that no entry of this tape produced is a leaf, its
    own key, and ``_leaves`` holds it, the only tensors the tape holds.

    ``backward`` consumes the tape: each entry is popped once its VJP has
    run and its output's gradient is dropped, so intermediates are freed as
    backward goes and only leaves keep their gradients, written after the
    last VJP.  The first ``backward`` in a process sets the heap policy
    (module docstring); it holds for the rest of the process, later
    forward-only work included.
    """

    def __init__(self):
        self._entries: list[tuple[_Slot, tuple[_Slot | Tensor | None, ...], Callable]] = []
        self._leaves: set[Tensor] = set()
        self._token = object()  # what this tape's slots name, in place of the tape
        self._spent = False

    def __enter__(self) -> "Tape":
        global _ACTIVE_TAPE
        if _ACTIVE_TAPE is not None:
            raise RuntimeError("tapes do not nest")
        _ACTIVE_TAPE = self
        return self

    def __exit__(self, *exc) -> None:
        global _ACTIVE_TAPE
        _ACTIVE_TAPE = None

    def backward(self, loss: Tensor) -> None:
        if self._spent:
            raise RuntimeError("backward already ran on this tape; record a new one")
        if loss.data.size != 1:
            raise ValueError("backward needs a scalar loss")
        self._spent = True
        _keep_freed_heap()
        entries, leaves = self._entries, self._leaves
        # .grad is written after the last VJP, so one that raises leaves it as it was
        grads = {t: t.grad for t in leaves if t.grad is not None}
        grads[self._key(loss)] = np.ones_like(loss.data)
        while entries:
            out, inputs, vjp = entries.pop()
            if out not in grads:
                continue
            for k, g in zip(inputs, vjp(grads.pop(out))):
                if g is not None and k is not None:
                    acc = grads.get(k)
                    grads[k] = g if acc is None else acc + g
        for t, g in grads.items():  # only leaves are left
            t.grad = g

    def _key(self, t: Tensor) -> _Slot | Tensor:
        """t's gradient key here: the slot of the entry of this tape that
        made t, or else t itself, a leaf of this tape."""
        s = getattr(t, "_slot", None)
        if s is not None and s.token is self._token:
            return s
        self._leaves.add(t)
        return t


def _libc():
    """The C library's handle, or None where it cannot be opened."""
    try:
        return ctypes.CDLL(None)
    except (OSError, TypeError):
        return None


def _keep_freed_heap() -> None:
    """Fix glibc's mmap and trim thresholds, once per process."""
    global _heap_policy_set
    if _heap_policy_set:
        return
    _heap_policy_set = True
    mallopt = getattr(_libc(), "mallopt", None)
    if mallopt is None:
        return
    mallopt.argtypes = [ctypes.c_int, ctypes.c_int]
    mallopt.restype = ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD)
    mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD)


def _out(data: np.ndarray, inputs: tuple[Tensor, ...], vjp: Callable,
         shaped: bool = False) -> Tensor:
    """``data`` as a tensor, recorded with ``vjp`` when a tape is active and
    an input takes a gradient.  A ``shaped`` VJP is ``vjp(shapes, g)``: only
    a recorded one gets its inputs' shapes, so an untaped call reads none."""
    if _DEBUG_FINITE and not np.all(np.isfinite(data)):
        op = vjp.__qualname__.split(".")[0]
        at = "untaped" if _ACTIVE_TAPE is None else f"tape position {len(_ACTIVE_TAPE._entries)}"
        raise FloatingPointError(f"non-finite values in {op} output ({at})")
    res = Tensor(data)
    tape = _ACTIVE_TAPE
    if tape is not None and any(t.requires_grad for t in inputs):
        res.requires_grad = True
        if shaped:
            vjp = partial(vjp, tuple(t.data.shape for t in inputs))
        res._slot = _Slot(tape._token)
        keys = tuple(tape._key(t) if t.requires_grad else None for t in inputs)
        tape._entries.append((res._slot, keys, vjp))
    return res


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    if g.shape == shape:
        return g
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for ax, s in enumerate(shape):
        if s == 1 and g.shape[ax] != 1:
            g = g.sum(axis=ax, keepdims=True)
    return g


_SHORT = 8  # reduceat sums a segment of at most this many rows in row order
# Below this many inner-loop calls (segments of at most _SHORT rows times
# the row width) reduceat costs less than the kernel's ~25 numpy calls.
_KERNEL_MIN_CALLS = 4096


def _segment_sums(x: np.ndarray, ptr: np.ndarray) -> np.ndarray:
    """Row sums of the segments x[ptr[i]:ptr[i + 1]], byte for byte those of
    ``np.add.reduceat(x, ptr[:-1], axis=0)``; ptr rises strictly from 0 to
    len(x), which may be 0.

    reduceat calls its inner loop once per segment and column.  For a
    segment of m <= 8 rows that loop gives
    ``x[s] + (((-0.0 + x[s+1]) + x[s+2]) + ...)``, numpy's order, and the
    leading -0.0 changes no value.  Here one stable argsort of the clipped
    row counts (a uint8 key) orders the segments longest first.  Segments of
    more than 8 rows keep numpy's blocked pairwise order: reduceat runs on
    their rows alone.  Segments of 2..8 rows, longest first, take one
    ``np.take`` and one vectorized add per row offset k, which accumulate
    row k into every segment longer than k.  One-row segments are one
    ``np.take``.  The sums, made in that order, return to segment order by
    one ``np.take`` on the inverse permutation: writing each group into its
    rows by fancy assignment ran a per-row loop, 82 against ~10 us for
    (3207, 8) sums (numpy 2.4.6, 2-vCPU VM).  When the short segments would cost reduceat few calls,
    it runs on everything.
    """
    starts = ptr[:-1]
    width = math.prod(x.shape[1:])
    # the segment count bounds the short ones: few segments skip the counting
    if len(starts) * width < _KERNEL_MIN_CALLS:
        return np.add.reduceat(x, starts, axis=0)
    sizes = ptr[1:] - starts
    clipped = np.minimum(sizes, _SHORT + 1)
    counts = np.bincount(clipped, minlength=_SHORT + 2)
    if counts[1:_SHORT + 1].sum() * width < _KERNEL_MIN_CALLS:
        return np.add.reduceat(x, starts, axis=0)
    # longest first: over _SHORT rows, then _SHORT rows down to one
    order = np.argsort((_SHORT + 1 - clipped).astype(np.uint8), kind="stable")
    n_long = counts[_SHORT + 1]
    n_multi = n_long + counts[2:_SHORT + 1].sum()
    parts = []
    if n_long:
        long = order[:n_long]
        rows_in = sizes[long]
        packed = np.cumsum(rows_in) - rows_in  # their starts once packed
        rows = np.repeat(starts[long] - packed, rows_in) + np.arange(packed[-1] + rows_in[-1])
        parts.append(np.add.reduceat(np.take(x, rows, axis=0), packed, axis=0))
    if n_multi > n_long:
        first = starts[order[n_long:n_multi]]
        # longer[k]: how many of them have more than k rows, a prefix of first
        longer = np.cumsum(counts[_SHORT:0:-1])[::-1].tolist()
        tail = np.take(x, first + 1, axis=0)
        for k in range(2, int(clipped[order[n_long]])):
            n = longer[k]
            tail[:n] += np.take(x, first[:n] + k, axis=0)
        parts.append(np.take(x, first, axis=0) + tail)
    parts.append(np.take(x, starts[order[n_multi:]], axis=0))
    back = np.empty_like(order)
    back[order] = np.arange(len(order))
    return np.take(np.concatenate(parts), back, axis=0)


def index_add(target: np.ndarray, idx: np.ndarray, values: np.ndarray) -> None:
    """target[idx] += values with duplicate indices accumulated.

    Rows of one index are summed by ``_segment_sums`` in their order in
    ``values`` (much faster than np.add.at at batched-subgraph volumes).
    One ``np.diff`` of idx picks the path, and each gives the bytes of a
    stable argsort of idx followed by ``np.add.reduceat``:

    - strictly increasing: every row is its own segment, so a plain
      ``target[idx] += values`` adds the same single values;
    - non-decreasing: the stable argsort is the identity, so the segments
      are summed from ``values`` as given, with no sort and no reordered copy;
    - otherwise: a stable argsort of the narrowest key that holds every row
      of the target, uint8 up to 256 rows and uint16 up to 65536 (numpy
      radix-sorts both; uint8 took 67 against 119 us for uint16 on 19,623
      ids into 17 rows, numpy 2.4.6 on a 2-vCPU VM), else idx itself; a stable sort's permutation
      depends only on the key order, so it equals that of idx itself.
    """
    if idx.size == 0:
        return
    # the smallest step between neighbours, 1 for one id; unsigned ids would wrap
    lo = np.diff(idx.astype(np.intp, copy=False)).min(initial=1)
    if lo > 0:
        target[idx] += values
        return
    si, sv = idx, values
    if lo < 0:
        rows = target.shape[0]
        key = (idx.astype(np.uint8) if rows <= 1 << 8
               else idx.astype(np.uint16) if rows <= 1 << 16 else idx)
        order = np.argsort(key, kind="stable")
        si, sv = idx[order], np.take(values, order, axis=0)
    starts = np.empty(si.size + 1, dtype=bool)  # True where a segment starts
    starts[0] = starts[-1] = True
    np.not_equal(si[1:], si[:-1], out=starts[1:-1])
    ptr = np.flatnonzero(starts)
    target[si[ptr[:-1]]] += _segment_sums(sv, ptr)


# ---------------------------------------------------------------- basic ops

def _row_blocks(n: int, width: int) -> list[slice]:
    """The fewest near-equal row blocks of an n-row product with a (k, m)
    weight, width = k*m, that keep each BLAS call under
    ``_GEMM_ONE_THREAD``; no block has one row when n >= 2, which wins over
    the bound for a weight of more than ``_GEMM_ONE_THREAD // 3`` entries."""
    cap = max(1, (_GEMM_ONE_THREAD - 1) // max(width, 1))
    if n <= cap:
        return [slice(0, n)]
    c = min(-(-n // cap), n // 2)
    return [slice(n * i // c, n * (i + 1) // c) for i in range(c)]


def _by_rows(x: np.ndarray, w: np.ndarray, blocks: list[slice]) -> np.ndarray:
    """``x @ w`` as one BLAS call per row block of x."""
    if len(blocks) == 1:
        return x @ w
    y = np.empty((len(x), w.shape[1]), np.result_type(x, w))
    for rows in blocks:
        np.matmul(x[rows], w, out=y[rows])
    return y


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """``a @ b`` for 2-d operands, as BLAS calls over row blocks of ``a``
    (module docstring); the weight gradient is the in-order sum of the
    blocks' products."""
    x, w = a.data, b.data
    blocks = _row_blocks(len(x), w.size)

    def vjp(g):
        gw = x[blocks[0]].T @ g[blocks[0]]
        for rows in blocks[1:]:
            gw += x[rows].T @ g[rows]
        return _by_rows(g, w.T, blocks), gw

    return _out(_by_rows(x, w, blocks), (a, b), vjp)


def add(a: Tensor, b: Tensor) -> Tensor:
    def vjp(shapes, g):
        return _unbroadcast(g, shapes[0]), _unbroadcast(g, shapes[1])

    return _out(a.data + b.data, (a, b), vjp, shaped=True)


def sub(a: Tensor, b: Tensor) -> Tensor:
    def vjp(shapes, g):
        return _unbroadcast(g, shapes[0]), _unbroadcast(-g, shapes[1])

    return _out(a.data - b.data, (a, b), vjp, shaped=True)


def hadamard(a: Tensor, b: Tensor) -> Tensor:
    x, y = a.data, b.data

    def vjp(g):
        return _unbroadcast(g * y, x.shape), _unbroadcast(g * x, y.shape)

    return _out(x * y, (a, b), vjp)


def relu(a: Tensor) -> Tensor:
    out = np.fmax(a.data, 0)
    out += 0.0  # fmax keeps -0.0 where np.where(x > 0, x, 0) gives +0.0
    # out > 0 is x > 0 for every x, NaN, signed zeros and infinities included
    return _out(out, (a,), lambda g: (g * (out > 0),))


def reshape(a: Tensor, shape) -> Tensor:
    return _out(a.data.reshape(shape), (a,), lambda shapes, g: (g.reshape(shapes[0]),),
                shaped=True)


def sum_all(a: Tensor) -> Tensor:
    return _out(a.data.sum(), (a,), lambda shapes, g: (np.broadcast_to(g, shapes[0]).copy(),),
                shaped=True)


def concat(tensors: Sequence[Tensor], axis: int = 1) -> Tensor:
    sizes = [t.data.shape[axis] for t in tensors]
    offs = np.cumsum(sizes)[:-1]

    def vjp(g):
        return tuple(np.split(g, offs, axis=axis))

    return _out(
        np.concatenate([t.data for t in tensors], axis=axis),
        tuple(tensors),
        vjp,
    )


def _row_index(idx, a: Tensor, op: str) -> np.ndarray:
    # np.take reads a boolean mask as the row ids 0 and 1; index_add keeps
    # only one write of a negative id and its positive twin
    of = f" of {a.name!r}" if a.name else ""
    return check_ids(f"{op}{of} row ids", idx, 0, a.data.shape[0])


def gather(a: Tensor, idx: np.ndarray) -> Tensor:
    """Row lookup a[idx]; duplicates in idx accumulate in the backward.  An
    id outside a's rows raises ValueError, naming a when it has a name."""
    idx = _row_index(idx, a, "gather")

    def vjp(shapes, g):
        da = np.zeros(shapes[0], g.dtype)  # g has a's dtype, as the rows have
        index_add(da, idx, g)
        return (da,)

    return _out(np.take(a.data, idx, axis=0), (a,), vjp, shaped=True)


def scatter_rows_add(a: Tensor, idx: np.ndarray, b: Tensor) -> Tensor:
    """out = a with out[idx] += b, duplicates accumulated."""
    idx = _row_index(idx, a, "scatter_rows_add")
    data = a.data.copy()
    index_add(data, idx, b.data)

    def vjp(g):
        return g, np.take(g, idx, axis=0)

    return _out(data, (a, b), vjp)


def logsumexp(a: Tensor, axis: int | None = None) -> Tensor:
    x = a.data
    if x.size == 0:
        raise ValueError("logsumexp of an empty tensor")
    m = x.max(axis=axis, keepdims=True)
    s = np.exp(x - m).sum(axis=axis, keepdims=True)
    kept = m + np.log(s)
    squeeze_ax = tuple(range(x.ndim)) if axis is None else axis
    data = np.squeeze(kept, axis=squeeze_ax)

    def vjp(g):
        soft = np.exp(x - kept)
        if axis is None:
            return (soft * g,)
        return (soft * np.expand_dims(g, axis),)

    return _out(data, (a,), vjp)


# ---------------------------------------------------------- segment ops

def _check_segments(seg_ptr: np.ndarray, n_rows: int, denom: np.ndarray) -> None:
    if seg_ptr[0] != 0 or seg_ptr[-1] != n_rows:
        raise ValueError("seg_ptr must start at 0 and end at the row count")
    if np.any(np.diff(seg_ptr) <= 0):
        raise ValueError("seg_ptr must be strictly increasing: every segment holds a row")
    if denom.shape != (len(seg_ptr) - 1,):
        raise ValueError(f"denom of shape {denom.shape} for {len(seg_ptr) - 1} segments")


def segment_mean_std(a: Tensor, seg_ptr: np.ndarray, denom: np.ndarray) -> Tensor:
    """[mean : std] per segment, denominator-weighted.

    mean = sum(x) / denom and std = sqrt(relu(E[x^2] - E[x]^2) + eps),
    with E[.] = sum(.) / denom.  ``_segment_sums`` takes sum(x) and
    sum(x*x) in two calls on contiguous (rows, d) arrays; it sums each
    column on its own, so they equal the bytes of any other grouping of the
    columns.  The sums are scaled in place by a contiguous (segments, d)
    1/denom, and the backward expands segment rows to their rows with
    ``np.take`` on one row -> segment index (module docstring).  Every
    segment holds a row (``seg_ptr`` rises strictly, as in a ``BatchGraph``
    layer); no rows give a (0, 2d) result.
    """
    seg_ptr = np.asarray(seg_ptr)
    denom = np.asarray(denom, dtype=a.data.dtype)
    _check_segments(seg_ptr, a.data.shape[0], denom)
    x = a.data
    n, d = len(denom), x.shape[1]
    inv = np.repeat(1.0 / denom, d).reshape(n, d)
    m1 = _segment_sums(x, seg_ptr)
    m1 *= inv
    w = _segment_sums(x * x, seg_ptr)
    w *= inv
    w -= m1 * m1
    std = np.maximum(w, 0)
    std += STD_EPS
    np.sqrt(std, out=std)

    def vjp(g):
        # explicit copies: a half of a one-row g is already contiguous, and
        # ascontiguousarray would hand back a view of g, which add's VJP may
        # also have given to another input
        g_mean = g[:, :d].copy()
        coef = g[:, d:].copy()
        coef *= w > 0
        coef *= inv
        coef /= std
        g_mean *= inv
        rows = np.repeat(np.arange(n), np.diff(seg_ptr))
        dx = x - np.take(m1, rows, axis=0)
        np.multiply(np.take(coef, rows, axis=0), dx, out=dx)
        dx += np.take(g_mean, rows, axis=0)
        return (dx,)

    return _out(np.concatenate([m1, std], axis=1), (a,), vjp)


# ----------------------------------------------------------------- optimizer

class Adam:
    """Adam with bias correction, over a name -> Tensor parameter dict."""

    def __init__(self, params: dict[str, Tensor], lr: float = 1e-3):
        self.params = params
        self.lr = lr
        self.t = 0
        self._m = {k: np.zeros_like(p.data) for k, p in params.items()}
        self._v = {k: np.zeros_like(p.data) for k, p in params.items()}

    def step(self) -> None:
        self.t += 1
        b1c = 1 - ADAM_BETA1**self.t
        b2c = 1 - ADAM_BETA2**self.t
        for k, p in self.params.items():
            if p.grad is None:
                continue
            g = p.grad
            m = self._m[k]
            v = self._v[k]
            m *= ADAM_BETA1
            m += (1 - ADAM_BETA1) * g
            v *= ADAM_BETA2
            v += (1 - ADAM_BETA2) * g * g
            p.data -= self.lr * (m / b1c) / (np.sqrt(v / b2c) + ADAM_EPS)

    def zero_grad(self) -> None:
        for p in self.params.values():
            p.grad = None


# ---------------------------------------------------------------- checkpoints

def save_params(path, params: dict[str, Tensor], meta: dict | None = None) -> None:
    """Write parameters and ``meta`` as one ``.npz`` archive at ``path``.

    The archive holds one array per parameter, in ``params`` order, and
    ``meta`` as one JSON string under ``_CKPT_META``.  Every tensor must be
    in the active default dtype, which ``load_params`` also requires.  The
    file is opened here, so it is exactly ``path`` (``np.savez`` appends
    ``.npz`` to a str path).  A parameter may not take the meta entry's
    name or the name of one of ``np.savez``'s own arguments.
    """
    arrays = {}
    for name, t in params.items():
        if name in _CKPT_RESERVED:
            raise ValueError(f"parameter name {name!r} is reserved in a checkpoint")
        if t.data.dtype != np.dtype(_DTYPE):
            raise ValueError(f"tensor {name!r} has dtype {t.data.dtype}, not the active "
                             f"default dtype {get_default_dtype()}")
        arrays[name] = t.data
    arrays[_CKPT_META] = np.array(json.dumps(meta or {}, default=_json_default))
    with open(path, "wb") as f:
        np.savez(f, **arrays)


def load_params(path) -> tuple[dict[str, Tensor], dict]:
    """Read a checkpoint written by ``save_params``: (params in order, meta).

    Every array must be in the active default dtype: tensors take the
    default dtype, so loading one of another would silently convert it.
    """
    try:
        archive = np.load(path, allow_pickle=False)
    except (EOFError, ValueError, zipfile.BadZipFile) as e:
        raise ValueError(f"{path}: not a recognized checkpoint ({e})") from None
    if not isinstance(archive, np.lib.npyio.NpzFile):
        raise ValueError(f"{path}: not a recognized checkpoint (not an .npz archive)")
    with archive:
        arrays = {name: archive[name] for name in archive.files}
    if _CKPT_META not in arrays:
        raise ValueError(f"{path}: not a recognized checkpoint (no {_CKPT_META} entry)")
    meta = json.loads(str(arrays.pop(_CKPT_META)))
    for name, arr in arrays.items():
        if arr.dtype.name != get_default_dtype():
            raise ValueError(f"{path}: tensor {name!r} has dtype {arr.dtype.name}, which "
                             f"differs from the active default dtype {get_default_dtype()}; "
                             f"call set_default_dtype({arr.dtype.name!r}) before loading")
    return {name: Tensor(arr, requires_grad=True, name=name)
            for name, arr in arrays.items()}, meta


def _json_default(o):
    if isinstance(o, (np.integer, np.floating)):
        return o.item()
    raise TypeError(f"not JSON serializable: {type(o)}")
