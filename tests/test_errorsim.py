"""Monte Carlo error-growth simulator against closed-form oracles."""

import hashlib

import numpy as np
import pytest

from kgpercolate.errorsim import (
    FAMILIES,
    exact_aggregation_variance,
    run_entropy_suite,
    simulate_aggregation,
    simulate_hop_variance,
)


def oracle_aggregation(m, path_len, overlap, alpha, sigma2):
    """Quadratic-form oracle: explicit covariance of (X_1..X_m, Y)."""
    n = m + 1
    cov = np.full((n, n), overlap * sigma2, dtype=float)
    for i in range(m):
        cov[i, i] = path_len * sigma2
    cov[m, m] = (path_len + alpha) * sigma2
    cov[m, m - 1] = cov[m - 1, m] = path_len * sigma2  # Y contains path m
    w_before = np.zeros(n)
    w_before[:m] = 1.0 / m
    w_after = np.full(n, 1.0 / n)
    return float(w_before @ cov @ w_before), float(w_after @ cov @ w_after)


class TestHopVariance:
    def test_translation_matches_k_sigma2(self):
        res = simulate_hop_variance("translation", hops=8, sigma2=0.01, seed=11)
        assert res.theory == pytest.approx([0.01 * k for k in range(1, 9)])
        for est, se, th in zip(res.estimates, res.std_errors, res.theory):
            assert abs(est - th) <= 3 * se

    def test_rotation_matches_k_sigma2(self):
        res = simulate_hop_variance("rotation", hops=8, sigma2=0.01, dim=12, seed=5)
        for est, se, th in zip(res.estimates, res.std_errors, res.theory):
            assert abs(est - th) <= 3 * se

    @pytest.mark.parametrize("family", FAMILIES)
    def test_monotone_growth(self, family):
        res = simulate_hop_variance(family, hops=6, sigma2=0.02, seed=3)
        for k in range(1, len(res.estimates)):
            slack = 3 * (res.std_errors[k] + res.std_errors[k - 1])
            assert res.estimates[k] >= res.estimates[k - 1] - slack

    def test_scaling_has_no_exact_theory(self):
        res = simulate_hop_variance("scaling", hops=3, sigma2=0.01, seed=0)
        assert res.theory is None
        assert all(e > 0 for e in res.estimates)

    def test_zero_noise_stays_zero(self):
        res = simulate_hop_variance("rotation", hops=4, sigma2=0.0, seed=1)
        assert res.estimates == [0.0] * 4

    def test_zero_hops(self):
        res = simulate_hop_variance("translation", hops=0, sigma2=0.01, seed=0)
        assert res.estimates == [] and res.theory == []

    def test_unknown_family(self):
        with pytest.raises(ValueError, match="unknown step family"):
            simulate_hop_variance("reflection", hops=2, sigma2=0.01)

    def test_deterministic_per_seed(self):
        a = simulate_hop_variance("rotation", hops=3, sigma2=0.01, seed=9)
        b = simulate_hop_variance("rotation", hops=3, sigma2=0.01, seed=9)
        c = simulate_hop_variance("rotation", hops=3, sigma2=0.01, seed=10)
        assert a.estimates == b.estimates
        assert a.estimates != c.estimates

    def test_samples_trimmed_to_batches(self):
        res = simulate_hop_variance("translation", hops=1, sigma2=0.01, samples=1001, seed=0)
        assert res.samples == 1000
        res = simulate_aggregation(m=2, path_len=3, alpha=1, sigma2=0.01, samples=1203, seed=0)
        assert res.samples == 1200

    def test_zero_dim_rejected(self):
        # each of these is refused, not run: True hops as 1, 1.5 fresh
        # triples, a whole float count, and a NaN or infinite sigma2 (all-NaN
        # reports, or a RuntimeWarning in simulate_aggregation)
        hop = dict(family="translation", hops=2, sigma2=0.01)
        agg = dict(m=2, path_len=3, alpha=1, overlap=1, sigma2=0.1)
        for call, base, name, bad, lo in (
            (simulate_hop_variance, hop, "dim", 0, 1),
            (simulate_hop_variance, hop, "hops", True, 0),
            (simulate_hop_variance, hop, "samples", 4000.0, 40),
            (exact_aggregation_variance, agg, "alpha", 1.5, 0),
            (exact_aggregation_variance, agg, "overlap", True, 0),
            (exact_aggregation_variance, agg, "m", 2.0, 1),
            (simulate_aggregation, agg, "samples", 4000.0, 40),
        ):
            with pytest.raises(ValueError, match=rf"^{name} must be an integer >= {lo}, got {bad}$"):
                call(**{**base, name: bad})
        for sigma2 in (np.nan, np.inf):
            with pytest.raises(ValueError, match="sigma2 must be finite"):
                simulate_hop_variance(**{**hop, "sigma2": sigma2})
            for call in (exact_aggregation_variance, simulate_aggregation):
                with pytest.raises(ValueError, match="finite sigma2"):
                    call(**{**agg, "sigma2": sigma2})


class TestAggregation:
    def test_exact_formula_hand_case(self):
        # m=2 paths of 4 triples sharing 2, redundant adds 2 fresh, sigma2=1:
        # before = (2*4 + 2*1*2)/4 = 3, after = (8 + 6 + 4 + 2*(2+4))/9 = 10/3
        before, after, inc = exact_aggregation_variance(2, 4, 2, 2, 1.0)
        assert before == pytest.approx(3.0)
        assert after == pytest.approx(10.0 / 3.0)
        assert inc == pytest.approx(1.0 / 3.0)

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    @pytest.mark.parametrize("path_len", [1, 2, 4])
    @pytest.mark.parametrize("alpha", [0, 1, 3])
    def test_exact_formula_vs_covariance_oracle(self, m, path_len, alpha):
        for overlap in range(path_len + 1):
            before, after, inc = exact_aggregation_variance(
                m, path_len, alpha, overlap, 0.3
            )
            ob, oa = oracle_aggregation(m, path_len, overlap, alpha, 0.3)
            assert before == pytest.approx(ob)
            assert after == pytest.approx(oa)
            # redundancy can only add variance, at least the fresh-noise floor
            assert inc >= alpha * 0.3 / (m + 1) ** 2 - 1e-12

    def test_mc_matches_exact(self):
        res = simulate_aggregation(
            m=3, path_len=4, alpha=2, sigma2=0.04, overlap=2, seed=7
        )
        assert res.before_exact == pytest.approx(0.96 / 9)
        assert res.after_exact == pytest.approx(1.84 / 16)
        assert abs(res.before_estimate - res.before_exact) <= 3 * res.before_se
        assert abs(res.after_estimate - res.after_exact) <= 3 * res.after_se
        assert abs(res.increase_estimate - res.increase_exact) <= 3 * res.increase_se
        # the increase is statistically significant, not a noise artifact
        assert res.increase_estimate > 3 * res.increase_se
        assert res.bound == pytest.approx(2 * 0.04 / 16)

    def test_single_path_increase_is_quarter_alpha(self):
        # m=1, alpha=2: increase = alpha*sigma2/4 exactly, and equals the bound
        res = simulate_aggregation(m=1, path_len=3, alpha=2, sigma2=0.01, seed=3)
        assert res.increase_exact == pytest.approx(0.005)
        assert res.bound == pytest.approx(0.005)
        assert abs(res.increase_estimate - 0.005) <= 3 * res.increase_se

    def test_pure_duplicate_changes_nothing(self):
        # alpha=0, m=1: the extra path IS the original, so per-sample the
        # aggregate is unchanged and the paired increase is exactly zero
        res = simulate_aggregation(m=1, path_len=2, alpha=0, sigma2=0.5, seed=0)
        assert res.increase_exact == 0.0
        assert res.increase_estimate == 0.0
        assert res.increase_se == 0.0

    def test_default_overlap_is_half(self):
        res = simulate_aggregation(m=2, path_len=5, alpha=1, sigma2=0.01,
                                   samples=400, seed=0)
        assert res.overlap == 2

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            simulate_aggregation(m=0, path_len=2, alpha=1, sigma2=0.1)
        with pytest.raises(ValueError, match="overlap"):
            simulate_aggregation(m=1, path_len=2, alpha=1, sigma2=0.1, overlap=3)
        with pytest.raises(ValueError):
            simulate_aggregation(m=1, path_len=0, alpha=1, sigma2=0.1)
        with pytest.raises(ValueError, match="overlap"):
            exact_aggregation_variance(2, 3, 1, 5, 1.0)
        with pytest.raises(ValueError):
            exact_aggregation_variance(2, 3, -1, 1, 1.0)

    def test_negative_noise_rejected(self):
        with pytest.raises(ValueError, match="sigma2"):
            simulate_aggregation(m=2, path_len=3, alpha=1, sigma2=-0.1)


def test_suite_report_structure():
    rep = run_entropy_suite(hops=3, sigma2=0.01, samples=2000, seed=4,
                            m=2, path_len=3, alpha=1)
    assert set(rep["per_hop"]) == set(FAMILIES)
    for fam in FAMILIES:
        assert len(rep["per_hop"][fam]["estimates"]) == 3
    agg = rep["aggregation"]
    assert agg["increase_exact"] >= agg["bound"] - 1e-12
    rep2 = run_entropy_suite(hops=3, sigma2=0.01, samples=2000, seed=4,
                             m=2, path_len=3, alpha=1)
    assert rep == rep2


# sha256 over a seeded grid of every result field, plus one suite report
GOLDEN_ERRORSIM_DIGEST = "85040d85d0b34d022d3872e05f5ecfb50bc0fa664b0f0cce549a03ba7e8a1734"
HOP_FIELDS = ("family", "dim", "hops", "sigma2", "samples", "seed",
              "estimates", "std_errors", "theory")
AGG_FIELDS = ("m", "path_len", "alpha", "overlap", "sigma2", "samples", "seed",
              "before_estimate", "before_se", "after_estimate", "after_se",
              "increase_estimate", "increase_se", "before_exact", "after_exact",
              "increase_exact", "bound")


@pytest.mark.skipif(np.__version__ != "2.4.6",
                    reason="the golden digest is defined under numpy 2.4.6")
def test_golden_digest():
    h = hashlib.sha256()

    def feed(res, names):
        for name in names:
            h.update(repr(getattr(res, name)).encode())

    for family in FAMILIES:
        for seed in range(3):
            for dim in (1, 12, 16):
                feed(simulate_hop_variance(family, hops=3, sigma2=0.01, dim=dim,
                                           samples=403, seed=seed), HOP_FIELDS)
    for m in (1, 2, 3):
        for path_len, overlap in ((1, 0), (3, 1), (4, 4)):
            for alpha in (0, 2):
                for seed in range(3):
                    feed(simulate_aggregation(m, path_len, alpha, 0.04, overlap=overlap,
                                              samples=403, seed=seed), AGG_FIELDS)
    rep = run_entropy_suite(hops=3, samples=2000, seed=4, m=2, path_len=3, alpha=1)
    rep["aggregation"] = {k: rep["aggregation"][k] for k in AGG_FIELDS}
    h.update(repr(rep).encode())
    assert h.hexdigest() == GOLDEN_ERRORSIM_DIGEST
