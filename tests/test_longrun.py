import numpy as np
import pytest

from funcbreak.basis import CurveSeries, FourierBasis, eigen_decompose, KernelMatrix
from funcbreak.longrun import (
    _lagged_cov,
    _split_demean,
    estimate_longrun,
    longrun_kernel,
    trace,
)
from funcbreak.simlab import DgpConfig, far1_longrun_trace, gen_errors, sigma_vector


def make_series(data):
    data = np.asarray(data, dtype=float)
    return CurveSeries(data, FourierBasis(data.shape[1]))


def autocov_kernel(series: CurveSeries, lag: int,
                   split: int | None) -> KernelMatrix:
    """Sample autocovariance at the given lag, demeaned piecewise at ``split``.

    Rows 1..split are centered at the pre-split mean, the rest at the
    post-split mean; ``split=None`` centers every row at the overall mean.
    The sum is normalized by n regardless of lag.
    """
    n = series.n
    if not 0 <= lag < n:
        raise ValueError(f"lag must be in [0, {n - 1}], got {lag}")
    centered = _split_demean(series.data, split)
    return KernelMatrix(_lagged_cov(centered, lag))


# --- Bartlett weights -------------------------------------------------------


def test_bartlett_values():
    # lag l has weight 1 - l/h, and the lags with weight zero (l >= h) are left out
    rng = np.random.default_rng(6)
    series = make_series(rng.standard_normal((40, 3)))
    for h, weights in ((1.0, []), (2.0, [0.5]), (2.5, [0.6, 0.2]), (3.0, [2 / 3, 1 / 3])):
        expected = autocov_kernel(series, 0, split=20).entries
        for lag, w in enumerate(weights, start=1):
            g = autocov_kernel(series, lag, split=20).entries
            expected = expected + w * (g + g.T)
        np.testing.assert_allclose(longrun_kernel(series, h, split=20).entries,
                                   expected, rtol=1e-13, atol=1e-15)
    with pytest.raises(ValueError, match="at least 1"):
        longrun_kernel(series, 0.5)


# --- autocovariances --------------------------------------------------------


def test_noiseless_step_has_zero_autocovariance():
    n, d, k_star = 24, 3, 10
    data = np.zeros((n, d))
    data[k_star:] += np.array([1.0, -1.0, 2.0])
    series = make_series(data)
    for lag in (0, 1, 5):
        gamma = autocov_kernel(series, lag, split=k_star)
        np.testing.assert_array_equal(gamma.entries, np.zeros((d, d)))


def test_lag_zero_matches_direct_summation():
    rng = np.random.default_rng(1)
    n, d = 200, 5
    data = rng.standard_normal((n, d))
    series = make_series(data)
    split = n - 1
    gamma = autocov_kernel(series, 0, split=split).entries

    centered = data.copy()
    centered[:split] -= data[:split].mean(axis=0)
    centered[split:] -= data[split:].mean(axis=0)
    direct = np.zeros((d, d))
    for i in range(n):
        direct += np.outer(centered[i], centered[i])
    direct /= n
    np.testing.assert_allclose(gamma, direct, atol=1e-12)
    # iid standard coefficients lose roughly one observation to the mean
    assert np.trace(gamma) == pytest.approx(d * (n - 1) / n, rel=0.25)


def test_autocov_rejects_bad_arguments():
    rng = np.random.default_rng(2)
    series = make_series(rng.standard_normal((10, 2)))
    with pytest.raises(ValueError, match="lag"):
        autocov_kernel(series, 10, split=5)
    with pytest.raises(ValueError, match="lag"):
        autocov_kernel(series, -1, split=5)
    with pytest.raises(ValueError, match="split"):
        autocov_kernel(series, 1, split=10)


# --- long-run kernel --------------------------------------------------------


def test_unit_bandwidth_reduces_to_lag_zero():
    rng = np.random.default_rng(3)
    series = make_series(rng.standard_normal((60, 4)))
    lr = longrun_kernel(series, h=1.0, split=30)
    g0 = autocov_kernel(series, 0, split=30)
    np.testing.assert_array_equal(lr.entries, g0.entries)


def test_longrun_output_is_symmetric():
    rng = np.random.default_rng(4)
    series = make_series(rng.standard_normal((80, 6)))
    lr = longrun_kernel(series, h=4.0, split=40)
    assert np.max(np.abs(lr.entries - lr.entries.T)) <= 1e-12


def test_bartlett_longrun_is_positive_semidefinite():
    rng = np.random.default_rng(5)
    for _ in range(5):
        series = make_series(rng.standard_normal((50, 5)))
        lr = longrun_kernel(series, h=50**0.25, split=25)
        eig = eigen_decompose(lr)
        assert eig.values.min() >= -1e-8 * max(trace(lr), 1e-30)


def test_far1_longrun_trace_within_band():
    cfg = DgpConfig(setting=2, dependence="far1", n=2000, n_basis=8,
                    kappa=0.5)
    series, psi = gen_errors(cfg, rng=np.random.default_rng(20), return_operator=True)
    sigma = sigma_vector(2, 8)
    analytic = far1_longrun_trace(sigma, psi)
    lr = longrun_kernel(series, h=2000**0.25, split=1000)
    assert trace(lr) == pytest.approx(analytic, rel=0.15)


# --- bandwidth --------------------------------------------------------------


def bandwidth(n):
    """The h that ``estimate_longrun`` uses on n white-noise curves."""
    series = make_series(np.random.default_rng(0).standard_normal((n, 3)))
    return estimate_longrun(series)[1]


def test_exponent_bandwidth_rules():
    # the one rule: h = n^(1/4), floored at 1
    assert bandwidth(256) == pytest.approx(4.0)
    assert bandwidth(10_000) == pytest.approx(10.0)
    assert bandwidth(4) == pytest.approx(2 ** 0.5)


def test_estimate_longrun_is_the_kernel_at_its_h():
    rng = np.random.default_rng(8)
    series = make_series(rng.standard_normal((81, 4)))
    kernel, h = estimate_longrun(series, split=40)
    assert h == pytest.approx(3.0)
    same = longrun_kernel(series, h=h, split=40)
    np.testing.assert_array_equal(kernel.entries, same.entries)
    kernel2 = longrun_kernel(series, h=2.0, split=40)
    assert not np.array_equal(kernel.entries, kernel2.entries)


# --- trace ------------------------------------------------------------------


def test_trace_of_identity_and_setting1():
    assert trace(KernelMatrix(np.eye(21))) == 21.0
    sigma = sigma_vector(1, 21)
    assert trace(KernelMatrix(np.diag(sigma**2))) == 3.0


def test_trace_equals_eigenvalue_sum():
    rng = np.random.default_rng(9)
    a = rng.standard_normal((10, 10))
    k = KernelMatrix(a + a.T)
    eig = eigen_decompose(k)
    assert trace(k) == pytest.approx(eig.values.sum(), abs=1e-8)


# --- estimator consistency --------------------------------------------------


def test_longrun_estimate_converges_on_iid_data():
    # median Frobenius error versus the true diagonal kernel must fall in n
    rng = np.random.default_rng(10)
    d = 8
    sigma = sigma_vector(2, d)
    target = np.diag(sigma**2)
    medians = []
    for n in (100, 400, 1600):
        errs = []
        for _ in range(100):
            data = rng.standard_normal((n, d)) * sigma
            series = make_series(data)
            lr = longrun_kernel(series, h=n**0.25, split=n // 2)
            errs.append(np.linalg.norm(lr.entries - target))
        medians.append(np.median(errs))
    assert medians[0] > medians[1] > medians[2]
