import numpy as np
import pytest

from funcbreak.basis import CurveSeries, FourierBasis, KernelMatrix, eigen_decompose
from funcbreak.detect import cusum_norm_sq, fit_break, simulate_null_limit
from funcbreak.fpca import (
    RankError,
    _aligned_direction,
    aligned_statistic,
    fit_fpca,
    tve_dimension,
)
from funcbreak.longrun import longrun_kernel
from funcbreak.simlab import DgpConfig, gen_errors, run_experiment


def make_series(data):
    data = np.asarray(data, dtype=float)
    return CurveSeries(data, FourierBasis(data.shape[1]))


# --- sample covariance ------------------------------------------------------


def test_constant_series_has_zero_covariance():
    series = make_series(np.tile([2.0, -1.0, 3.0], (7, 1)))
    np.testing.assert_array_equal(longrun_kernel(series, h=1.0).entries,
                                  np.zeros((3, 3)))


def test_two_opposite_curves_give_rank_one_kernel():
    f = np.array([1.0, -2.0, 0.5])
    series = make_series(np.vstack([f, -f]))
    np.testing.assert_allclose(longrun_kernel(series, h=1.0).entries, np.outer(f, f),
                               atol=1e-12)


def test_covariance_trace_matches_mean_squared_norm():
    rng = np.random.default_rng(0)
    data = rng.standard_normal((40, 6))
    series = make_series(data)
    centered = data - data.mean(axis=0)
    expected = float(np.mean(np.einsum("ij,ij->i", centered, centered)))
    assert np.trace(longrun_kernel(series, h=1.0).entries) == pytest.approx(
        expected, abs=1e-10)


@pytest.mark.parametrize("n_basis, dependence", [(1, "iid"), (21, "far1")])
def test_fit_cov_is_the_spectrum_of_the_centred_cross_product(n_basis, dependence):
    # the fit's covariance spectrum, a lag window at h = 1, is that of the
    # sample covariance X'X / n of the centred curves, bit for bit
    dgp = DgpConfig(setting=3, dependence=dependence, n=70, n_basis=n_basis)
    series = gen_errors(dgp, np.random.default_rng(31))
    centered = series.data - series.data.mean(axis=0)
    expected = eigen_decompose(KernelMatrix(centered.T @ centered / series.n))
    cov = fit_break(series).cov
    np.testing.assert_array_equal(cov.values, expected.values)
    np.testing.assert_array_equal(cov.vectors, expected.vectors)


# --- TVE dimension ----------------------------------------------------------


def test_tve_dimension_simple_spectra():
    assert tve_dimension([4.0, 1.0, 0.0], 0.8) == 1
    assert tve_dimension([4.0, 1.0, 0.0], 0.81) == 2
    assert tve_dimension([4.0, 1.0, 0.0, 0.0], 1.0) == 2
    assert tve_dimension([5.0, -1.0, 0.0], 1.0) == 1  # negatives clipped


def test_tve_dimension_on_fast_decay_spectrum():
    lam = 9.0 ** -np.arange(1.0, 22.0)
    assert tve_dimension(lam, 0.95) == 2


def test_tve_dimension_at_one_keeps_every_positive_eigenvalue():
    # a total summed in another order than the cumulative shares can exceed
    # all of them in the last bit, so that no share reaches a TVE of 1
    assert tve_dimension(np.full(8, 0.1), 1.0) == 8
    rng = np.random.default_rng(0)
    for _ in range(200):
        assert tve_dimension(rng.exponential(size=21), 1.0) == 21


def test_tve_dimension_rejects_degenerate_input():
    with pytest.raises(ValueError, match="zero"):
        tve_dimension([0.0, 0.0], 0.9)
    with pytest.raises(ValueError, match="tve"):
        tve_dimension([1.0], 1.5)


# --- fPCA statistic ---------------------------------------------------------


def test_constant_series_is_rank_deficient():
    series = make_series(np.tile([1.0, 2.0], (10, 1)))
    with pytest.raises(RankError):
        fit_fpca(fit_break(series), d=1)


def test_noiseless_step_is_dated_exactly_in_one_dimension():
    n, k_star = 30, 12
    delta = np.array([0.0, 2.0, 1.0])
    data = np.zeros((n, 3))
    data[k_star:] += delta
    result = fit_fpca(fit_break(make_series(data)), d=1)
    assert result.k_hat == k_star


def test_quadratic_form_is_tied_down():
    rng = np.random.default_rng(2)
    series = make_series(rng.standard_normal((25, 4)))
    result = fit_fpca(fit_break(series), d=2)
    assert result.per_k[0] == 0.0
    assert result.per_k[-1] == 0.0


def test_full_dimension_identity_weights_reproduce_cusum_norms():
    # with every direction kept and a unit spectrum, the fPCA quadratic form
    # is the squared norm of the functional CUSUM: data whitened to a sample
    # covariance of exactly the identity
    rng = np.random.default_rng(3)
    d = 6
    raw = rng.standard_normal((40, d))
    left, _, right = np.linalg.svd(raw - raw.mean(axis=0), full_matrices=False)
    series = make_series(np.sqrt(40) * left @ right)
    np.testing.assert_allclose(longrun_kernel(series, h=1.0).entries, np.eye(d),
                               atol=1e-12)
    result = fit_fpca(fit_break(series), d=d)
    np.testing.assert_allclose(result.per_k, cusum_norm_sq(series), atol=1e-8)


def score_cusum_form(series, d):
    """The fPCA per-k values from the scores: centre the curves, project them
    on the d leading sample-covariance eigenvectors, take the unscaled
    tied-down CUSUM of the scores, and weight by 1 / (n tau_l)."""
    n = series.n
    eig = eigen_decompose(longrun_kernel(series, h=1.0))
    scores = (series.data - series.data.mean(axis=0)) @ eig.vectors[:, :d]
    sums = np.vstack([np.zeros((1, d)), np.cumsum(scores, axis=0)])
    tied = sums - np.arange(n + 1)[:, None] / n * sums[-1]
    return (tied**2 / eig.values[:d]).sum(axis=1) / n


@pytest.mark.parametrize("d", [1, 2, 5, 9])
def test_fpca_form_is_the_score_cusum_form(d):
    # the fPCA CUSUM of the scores is the functional CUSUM projected on the
    # leading eigenvectors, on a dependent series too
    dgp = DgpConfig(setting=2, dependence="far1", n=80, n_basis=9)
    series = gen_errors(dgp, np.random.default_rng(17))
    result = fit_fpca(fit_break(series), d=d)
    expected = score_cusum_form(series, d)
    assert result.d == d
    np.testing.assert_allclose(result.per_k, expected, rtol=1e-12, atol=0)
    assert result.k_hat == int(np.argmax(expected[1:])) + 1
    assert result.stat == result.per_k[result.k_hat]


def test_fpca_misses_break_orthogonal_to_leading_component():
    # rank-one errors along b, break delta orthogonal to b with smaller energy:
    # b_delta = theta (1-theta) ||delta||^2 = alpha/2 < alpha keeps the limit
    # psi_1 on b, so the d=1 test is inconsistent while the norm statistic
    # detects the break. The d=1 test does not hold its nominal size either.
    # The overall-mean sample covariance (Berkes et al. 2009) has a cross term
    # -delta A / n between b and delta, with A the noise CUSUM at k*; it tilts
    # psi_hat_1 towards delta by O(n^-1/2). To first order the scaled score
    # CUSUM becomes B(x) + kappa B(theta) g(x), with a Brownian bridge B,
    # kappa = b_delta / (alpha - b_delta) (here 1) and
    # g(x) = min(x, theta) (1 - max(x, theta)) / (theta (1-theta)).
    # The fPCA rejection rate must match that limit's exceedance of cv1 (about
    # 0.3 at every n): it would tend to 1 if fPCA saw the break, and to the
    # nominal 0.05 without the tilt.
    rng = np.random.default_rng(4)
    n, d, theta = 200, 5, 0.5
    alpha_energy = 1.0
    delta = np.zeros(d)
    delta[1] = np.sqrt(0.5 * alpha_energy / (theta * (1.0 - theta)))
    rejections_fpca = 0
    rejections_ff = 0
    reps = 120
    cv1 = simulate_null_limit(np.ones(1), reps=4000, grid=500, seed=5).quantile(0.95)
    for _ in range(reps):
        data = np.zeros((n, d))
        data[:, 0] = rng.standard_normal(n) * np.sqrt(alpha_energy)
        data[int(theta * n):] += delta
        series = make_series(data)
        result = fit_fpca(fit_break(series), d=1)
        rejections_fpca += result.stat > cv1
        # crude FF check against the dominant eigenvalue limit
        lam = np.linalg.eigvalsh(longrun_kernel(series, h=1.0).entries)
        rejections_ff += cusum_norm_sq(series)[1:].max() > lam[-1] * 2.0
    b_delta = theta * (1.0 - theta) * float(delta @ delta)
    kappa = b_delta / (alpha_energy - b_delta)
    grid, paths, chunk = 500, 10_000, 2_000
    x = np.arange(1, grid + 1) / grid
    g = np.minimum(x, theta) * (1.0 - np.maximum(x, theta)) / (theta * (1.0 - theta))
    at_theta = round(theta * grid) - 1
    exceed = 0
    for _ in range(paths // chunk):
        walk = np.cumsum(rng.standard_normal((chunk, grid)), axis=1) / np.sqrt(grid)
        bridge = walk - x * walk[:, -1:]
        limit = bridge + kappa * bridge[:, [at_theta]] * g
        exceed += int(np.count_nonzero((limit**2).max(axis=1) > cv1))
    limit_rate = exceed / paths
    binomial_se = np.sqrt(limit_rate * (1.0 - limit_rate) / reps)
    assert abs(rejections_fpca / reps - limit_rate) <= 3.0 * binomial_se
    assert rejections_ff / reps >= 0.8


# --- aligned statistic ------------------------------------------------------


def test_aligned_direction_ignores_eigenfunction_sign():
    rng = np.random.default_rng(6)
    phi = rng.standard_normal(5)
    peak = rng.standard_normal(5)
    u_plus = _aligned_direction(phi, peak, 100)
    u_minus = _aligned_direction(-phi, peak, 100)
    np.testing.assert_allclose(np.abs(u_plus @ u_minus), 1.0, atol=1e-12)


def test_aligned_statistic_rejects_huge_break():
    rng = np.random.default_rng(7)
    data = 0.1 * rng.standard_normal((60, 4))
    data[30:] += np.array([3.0, 0.0, 0.0, 0.0])
    stat = aligned_statistic(fit_break(make_series(data)))
    cv = simulate_null_limit(np.ones(1), reps=2000, grid=500, seed=8).quantile(0.95)
    assert stat > cv


@pytest.mark.parametrize("setting, dependence",
                         [(2, "iid"), (2, "far1"), (3, "iid"), (3, "far1")])
def test_aligned_level_on_fast_decay_gaussian_noise(setting, dependence):
    # empirical size close to nominal for the two decaying-eigenvalue DGPs
    dgp = DgpConfig(setting=setting, dependence=dependence, n=100)
    res = run_experiment("size", dgp, detectors=["Aligned"], reps=400, seed=99,
                         workers=2)
    rate = res.value(metric="rejection_rate", detector="Aligned")
    assert rate == pytest.approx(0.05, abs=0.04)
