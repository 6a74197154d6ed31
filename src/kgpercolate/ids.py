"""One check for every entity, relation, triple position and table row id a
caller hands the library, and one for every count (horizon, size, length)."""

from __future__ import annotations

import numpy as np


def _at(flat: int, shape: tuple[int, ...]) -> str:
    at = tuple(int(i) for i in np.unravel_index(flat, shape))
    return f", first bad at position {at[0] if len(at) == 1 else at}"


def check_ids(what: str, values, lo: int, hi: int) -> np.ndarray:
    """``values`` as int64 ids in [lo, hi); otherwise ValueError naming
    ``what``, the ids' span as passed (a scalar's value), [lo, hi) and, for
    more than one id, the position of the first bad one.

    An empty input holds no ids, whatever its dtype.  Other input must be of
    int or uint dtype, or a list whose every element is an int, and a bool is
    no id even among ints that make the array integer; only input that is not
    an ndarray is scanned for one.  An int64 ndarray is not copied.  An id
    int64 cannot hold (a uint64 of 2**63 or more) is refused, not wrapped.
    The range test is one reduction on the ids widened to int64: an id below
    lo, shifted by lo and read as unsigned, exceeds all valid ones.
    """
    ids = np.asarray(values)
    if ids.size == 0:
        return ids.astype(np.int64)
    listed = ids.ndim and not isinstance(values, np.ndarray)
    elems = np.asarray(values, dtype=object).flat if listed and ids.ndim > 1 else values
    if ids.dtype.kind not in "iu" or listed and not {bool, np.bool_}.isdisjoint(map(type, elems)):
        if not listed:
            raise ValueError(f"{what} must be integers, not {ids.dtype}")
        ids = _listed_ints(what, values, ids.shape, lo, hi)
    wide = ids.astype(np.int64, copy=False)
    if ids.dtype == np.uint64 and ids.max() >> 63 or (
            (wide - lo if lo else wide).view(np.uint64).max() >= hi - lo):
        raise _outside(what, ids, lo, hi)
    return wide


def _outside(what: str, ids: np.ndarray, lo: int, hi: int) -> ValueError:
    got = f"= {ids}" if ids.ndim == 0 else f"span [{ids.min()}, {ids.max()}]"
    at = _at(np.flatnonzero((ids < lo) | (ids >= hi))[0], ids.shape) if ids.size > 1 else ""
    return ValueError(f"{what} {got}, outside [{lo}, {hi}){at}")


def _listed_ints(what: str, values, shape: tuple[int, ...], lo: int, hi: int) -> np.ndarray:
    """A list's ids as int64 when numpy made them no integer array (it
    promotes int64 beside uint64 to float64) or found a bool among them;
    ValueError names the first element that is no int, or the range when
    int64 cannot hold them all."""
    flat = np.asarray(values, dtype=object).ravel()
    p = next((i for i, v in enumerate(flat) if isinstance(v, (bool, np.bool_))
              or not isinstance(v, (int, np.integer))), None)
    if p is not None:
        raise ValueError(f"{what} must be integers, not {type(flat[p]).__name__}{_at(p, shape)}")
    ints = np.array([int(v) for v in flat], dtype=object).reshape(shape)
    if not -1 << 63 <= ints.min() <= ints.max() < 1 << 63:
        raise _outside(what, ints, lo, hi)
    return ints.astype(np.int64)


def check_count(what: str, value, lo: int) -> int:
    """``value`` as an int >= ``lo``, else ValueError; a bool or whole float is no count."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < lo:
        raise ValueError(f"{what} must be an integer >= {lo}, got {value!r}")
    return int(value)
