"""Monte Carlo study of embedding error growth along reasoning paths.

Models a relational step as an affine map plus isotropic noise,
e_k = A_k e_{k-1} + b_k + eps_k with eps_k ~ N(0, sigma2 * I).  Deviations
from the noiseless trajectory follow delta_k = A_k delta_{k-1} + eps_k, so
for norm-preserving step families (translation A=I, rotation A orthogonal)
the mean per-dimension variance after k hops is exactly k * sigma2; for a
scaling family (one random diagonal A reused across hops) the variance is
family-dependent but still nondecreasing in k.

The aggregation experiment builds m equal-length paths that share a common
prefix, adds one redundant path (a full copy of path m plus alpha fresh
triples) and measures the variance of the mean-aggregated endpoint before
and after.  Exact closed forms are reported next to the Monte Carlo
estimates; the guaranteed lower bound on the increase is
alpha * sigma2 / (m+1)^2.

All estimates come with standard errors from ``BATCHES`` batch means, and every
run is reproducible from its seed (independent substreams per experiment).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ids import check_count

FAMILIES = ("translation", "scaling", "rotation")
BATCHES = 40  # equal-sized batches behind every standard error


@dataclass
class HopVarianceResult:
    family: str
    dim: int
    hops: int
    sigma2: float
    samples: int
    seed: int
    estimates: list[float]  # per hop 1..hops
    std_errors: list[float]
    theory: list[float] | None  # k * sigma2 where exact


@dataclass
class AggregationResult:
    m: int
    path_len: int
    alpha: int
    overlap: int
    sigma2: float
    samples: int
    seed: int
    before_estimate: float
    before_se: float
    after_estimate: float
    after_se: float
    increase_estimate: float
    increase_se: float
    before_exact: float
    after_exact: float
    increase_exact: float
    bound: float


def _batch_mean_squares(x: np.ndarray) -> np.ndarray:
    """Mean square of each of ``BATCHES`` equal blocks of rows of ``x``."""
    return np.square(x).reshape(BATCHES, -1).mean(axis=1)


def _mean_se(per_batch: np.ndarray) -> tuple[float, float]:
    """Batch-means estimate and its standard error."""
    return float(per_batch.mean()), float(per_batch.std(ddof=1) / np.sqrt(BATCHES))


def simulate_hop_variance(
    family: str,
    hops: int,
    sigma2: float,
    dim: int = 16,
    samples: int = 20_000,
    seed: int = 0,
) -> HopVarianceResult:
    """Estimate per-hop deviation variance for one step family.

    The scaling family draws a single diagonal reused across hops; rotation
    draws a fresh orthogonal matrix per hop.  Estimates are the mean of
    squared deviations over samples and dimensions; standard errors come
    from ``BATCHES`` batch means.
    """
    if family not in FAMILIES:
        raise ValueError(f"unknown step family {family!r}; choose from {FAMILIES}")
    hops, dim = check_count("hops", hops, 0), check_count("dim", dim, 1)
    if not 0 <= sigma2 < np.inf:
        raise ValueError(f"sigma2 must be finite and >= 0, got {sigma2!r}")
    samples = check_count("samples", samples, BATCHES) // BATCHES * BATCHES  # equal batches
    rng = np.random.default_rng(np.random.SeedSequence(seed).spawn(1)[0])
    scale_diag = rng.uniform(0.5, 1.5, size=dim) if family == "scaling" else None
    delta = np.zeros((samples, dim), dtype=np.float64)
    sigma = float(np.sqrt(sigma2))
    stats = []
    for _ in range(hops):
        if family == "rotation":
            q, r = np.linalg.qr(rng.standard_normal((dim, dim)))
            delta = delta @ (q * np.sign(np.diag(r))).T  # uniform orthogonal
        elif family == "scaling":
            delta = delta * scale_diag
        delta = delta + rng.standard_normal((samples, dim)) * sigma
        stats.append(_mean_se(_batch_mean_squares(delta)))
    return HopVarianceResult(
        family, dim, hops, sigma2, samples, seed,
        estimates=[est for est, _ in stats], std_errors=[se for _, se in stats],
        theory=[k * sigma2 for k in range(1, hops + 1)] if family != "scaling" else None,
    )


def exact_aggregation_variance(
    m: int, path_len: int, alpha: int, overlap: int, sigma2: float
) -> tuple[float, float, float]:
    """Closed-form (before, after, increase) for the shared-prefix build."""
    m, path_len = check_count("m", m, 1), check_count("path_len", path_len, 1)
    alpha, overlap = check_count("alpha", alpha, 0), check_count("overlap", overlap, 0)
    if overlap > path_len or not 0 <= sigma2 < np.inf:
        raise ValueError(f"need overlap {overlap} <= path_len {path_len} "
                         f"and a finite sigma2 >= 0, got {sigma2!r}")
    var_path = path_len * sigma2
    cm = m * (m - 1) * overlap * sigma2
    before = (m * var_path + cm) / m**2
    cross = 2 * ((m - 1) * overlap + path_len) * sigma2
    after = (m * var_path + (path_len + alpha) * sigma2 + cm + cross) / (m + 1) ** 2
    return before, after, after - before


def simulate_aggregation(
    m: int,
    path_len: int,
    alpha: int,
    sigma2: float,
    overlap: int | None = None,
    samples: int = 40_000,
    seed: int = 0,
) -> AggregationResult:
    """Variance of the mean-aggregated endpoint before/after one redundant path.

    Build: m paths of ``path_len`` triples sharing a common ``overlap``-triple
    prefix (private remainders otherwise); the redundant path duplicates all
    of path m and appends ``alpha`` fresh triples.  Each distinct triple
    carries an independent N(0, sigma2) error and a path's error is the sum
    over its triples, so the redundant path shares exactly path_len triples
    with one shortest path, meeting the redundancy definition.  Before/after
    share the same error draws (paired batches) so the increase estimate has
    a meaningful standard error.
    """
    if overlap is None:
        overlap = path_len // 2
    exact = exact_aggregation_variance(m, path_len, alpha, overlap, sigma2)
    samples = check_count("samples", samples, BATCHES) // BATCHES * BATCHES
    rng = np.random.default_rng(np.random.SeedSequence(seed).spawn(1)[0])
    sigma = float(np.sqrt(sigma2))

    # distinct triple errors: shared prefix | m private remainders | extras
    shared = rng.standard_normal((samples, overlap)).sum(axis=1) * sigma
    private = rng.standard_normal((samples, m, path_len - overlap)).sum(axis=2) * sigma
    extras = rng.standard_normal((samples, alpha)).sum(axis=1) * sigma
    path_err = shared[:, None] + private  # (samples, m)
    before = _batch_mean_squares(path_err.mean(axis=1))
    # keep path m + extras grouped: summing in another order changes the last bit
    after = _batch_mean_squares((path_err.sum(axis=1) + (path_err[:, -1] + extras)) / (m + 1))
    return AggregationResult(
        m, path_len, alpha, overlap, sigma2, samples, seed,
        *_mean_se(before), *_mean_se(after), *_mean_se(after - before),
        *exact, bound=alpha * sigma2 / (m + 1) ** 2,
    )

