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
    int or uint dtype, and a bool is no id even among ints that make the
    array integer; only input that is not an ndarray is scanned for one.  An
    int64 ndarray is not copied.  A uint64 id of 2**63 or more is refused, not
    wrapped.  The range test is one reduction on the ids widened to int64: an
    id below lo, shifted by lo and read as unsigned, exceeds all valid ones.
    """
    ids = np.asarray(values)
    if ids.size == 0:
        return ids.astype(np.int64)
    listed = ids.ndim and not isinstance(values, np.ndarray)
    elems = np.asarray(values, dtype=object).flat if listed and ids.ndim > 1 else values
    if ids.dtype.kind not in "iu" or listed and not {bool, np.bool_}.isdisjoint(map(type, elems)):
        kind, at = ids.dtype, ""
        if listed:  # name the first element that is no int
            flat = np.asarray(values, dtype=object).ravel()
            p = next((i for i, v in enumerate(flat) if isinstance(v, (bool, np.bool_))
                      or not isinstance(v, (int, np.integer))), None)
            if p is not None:
                kind, at = type(flat[p]).__name__, _at(p, ids.shape)
        raise ValueError(f"{what} must be integers, not {kind}{at}")
    wide = ids.astype(np.int64, copy=False)
    if ids.dtype == np.uint64 and ids.max() >> 63 or (
            (wide - lo if lo else wide).view(np.uint64).max() >= hi - lo):
        got = f"= {ids}" if ids.ndim == 0 else f"span [{ids.min()}, {ids.max()}]"
        at = _at(np.flatnonzero((ids < lo) | (ids >= hi))[0], ids.shape) if ids.size > 1 else ""
        raise ValueError(f"{what} {got}, outside [{lo}, {hi}){at}")
    return wide


def check_count(what: str, value, lo: int) -> int:
    """``value`` as an int >= ``lo``, else ValueError; a bool or whole float is no count."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < lo:
        raise ValueError(f"{what} must be an integer >= {lo}, got {value!r}")
    return int(value)
