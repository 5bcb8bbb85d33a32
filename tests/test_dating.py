import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from funcbreak.basis import Curve, CurveSeries, FourierBasis, KernelMatrix
from funcbreak.dating import (
    LimitProcessConfig,
    XiLaw,
    confidence_interval,
    date_break,
    estimate_break_function,
    sigma2_hat,
    simulate_xi,
)
from funcbreak.detect import estimate_break_date
from funcbreak.longrun import LongRunConfig
from funcbreak.simlab import DgpConfig, break_function, gen_errors, insert_break, snr_to_c
from limit_oracles import no_break_argmax_sample, simulate_fixed_break_limit


def make_series(data):
    data = np.asarray(data, dtype=float)
    return CurveSeries(data, FourierBasis(data.shape[1]))


def step_series(n, k_star, delta, noise=None):
    data = np.zeros((n, len(delta)))
    data[k_star:] += np.asarray(delta, dtype=float)
    if noise is not None:
        data += noise
    return make_series(data)


# --- break date -------------------------------------------------------------


def test_noiseless_step_is_dated_exactly():
    delta = [0.5, -1.0, 0.25]
    for n in (12, 40):
        for k_star in range(2, n - 1):
            assert estimate_break_date(step_series(n, k_star, delta)) == k_star


def test_all_equal_series_dates_at_one():
    series = make_series(np.tile([1.0, 2.0], (9, 1)))
    assert estimate_break_date(series) == 1


def test_break_date_invariances():
    rng = np.random.default_rng(0)
    data = rng.standard_normal((50, 4))
    data[30:] += np.array([1.0, 0.0, -1.0, 0.5])
    base = estimate_break_date(make_series(data))
    shifted = estimate_break_date(make_series(data + rng.standard_normal(4)))
    scaled = estimate_break_date(make_series(3.7 * data))
    assert base == shifted == scaled


# --- break function ---------------------------------------------------------


def test_break_function_exact_on_noiseless_step():
    delta = np.array([1.0, 2.0, -0.5])
    series = step_series(20, 8, delta)
    est = estimate_break_function(series, 8)
    np.testing.assert_allclose(est.coeffs, delta, atol=1e-12)


def test_break_function_of_constant_series_is_zero():
    series = make_series(np.tile([4.0, 1.0], (10, 1)))
    est = estimate_break_function(series, 5)
    np.testing.assert_array_equal(est.coeffs, np.zeros(2))


def test_break_function_rejects_bad_split():
    series = make_series(np.zeros((6, 2)))
    with pytest.raises(ValueError, match="break date"):
        estimate_break_function(series, 6)


def test_break_function_estimate_is_consistent():
    # Setting 2 at SNR 1: relative error of delta-hat stays under 25% in median
    rng = np.random.default_rng(1)
    d, n, theta = 8, 400, 0.5
    cfg = DgpConfig(setting=2, n=n, n_basis=d, permute=False)
    sigma = 3.0 ** -np.arange(1.0, d + 1.0)
    c = snr_to_c(1.0, theta, float(sigma @ sigma))
    delta = break_function(3, c, d)
    rel_errors = []
    for _ in range(200):
        series = gen_errors(cfg, rng=rng)
        series = insert_break(series, delta, int(theta * n))
        k_hat = estimate_break_date(series)
        est = estimate_break_function(series, k_hat)
        rel_errors.append(
            np.linalg.norm(est.coeffs - delta.coeffs) / np.linalg.norm(delta.coeffs)
        )
    assert np.median(rel_errors) < 0.25


# --- sigma^2 ----------------------------------------------------------------


def test_sigma2_picks_out_eigenvalue_in_eigen_direction():
    basis = FourierBasis(4)
    vecs = np.linalg.qr(np.random.default_rng(2).standard_normal((4, 4)))[0]
    lam = np.array([3.0, 1.5, 0.5, 0.1])
    kernel = KernelMatrix(vecs @ np.diag(lam) @ vecs.T)
    phi1 = Curve(vecs[:, 0], basis)
    assert sigma2_hat(kernel, phi1) == pytest.approx(3.0, abs=1e-10)


def test_sigma2_zero_when_orthogonal_to_range():
    basis = FourierBasis(3)
    kernel = KernelMatrix(np.diag([2.0, 1.0, 0.0]))
    delta = Curve([0.0, 0.0, 5.0], basis)
    assert sigma2_hat(kernel, delta) == 0.0


def test_sigma2_respects_rayleigh_bounds():
    rng = np.random.default_rng(3)
    basis = FourierBasis(6)
    a = rng.standard_normal((6, 6))
    kernel = KernelMatrix(a @ a.T)
    lam = np.linalg.eigvalsh(kernel.entries)
    for _ in range(20):
        delta = Curve(rng.standard_normal(6), basis)
        val = sigma2_hat(kernel, delta)
        assert lam[0] - 1e-10 <= val <= lam[-1] + 1e-10


def test_sigma2_uses_the_symmetric_part_of_an_asymmetric_kernel():
    rng = np.random.default_rng(22)
    a = rng.standard_normal((5, 5))
    delta = Curve(rng.standard_normal(5), FourierBasis(5))
    assert sigma2_hat(KernelMatrix(a), delta) == pytest.approx(
        sigma2_hat(KernelMatrix((a + a.T) / 2.0), delta), rel=1e-12)


def test_sigma2_rejects_zero_break():
    kernel = KernelMatrix(np.eye(2))
    with pytest.raises(ValueError, match="zero"):
        sigma2_hat(kernel, Curve([0.0, 0.0], FourierBasis(2)))


# --- Xi simulation ----------------------------------------------------------


def test_xi_degenerate_when_variance_vanishes():
    sample = simulate_xi(0.3, 0.0, LimitProcessConfig(reps=25, seed=0))
    assert sample.degenerate
    np.testing.assert_array_equal(sample.draws, np.zeros(25))


def test_xi_symmetric_at_central_break():
    cfg = LimitProcessConfig(half_width=50.0, step=0.1, reps=50_000, seed=4)
    sample = simulate_xi(0.5, 1.0, cfg)
    assert abs(sample.draws.mean()) <= 0.05 * sample.draws.std()


def test_xi_mirror_between_theta_and_complement():
    cfg = LimitProcessConfig(half_width=60.0, step=0.12, reps=4000, seed=5)
    left = simulate_xi(0.3, 1.0, cfg)
    right = simulate_xi(0.7, 1.0, LimitProcessConfig(60.0, 0.12, 4000, seed=6))
    ks = stats.ks_2samp(left.draws, -right.draws)
    assert ks.pvalue > 0.01


def test_xi_quantiles_stable_under_grid_refinement():
    # the production grid's argmax law must match a finer, wider oracle grid
    coarse = simulate_xi(0.5, 1.0,
                         LimitProcessConfig(half_width=50.0, step=0.04,
                                            reps=3000, seed=7))
    fine = simulate_xi(0.5, 1.0,
                       LimitProcessConfig(half_width=150.0, step=0.004,
                                          reps=3000, seed=8))
    for q in (0.025, 0.975):
        a, b = coarse.quantile(q), fine.quantile(q)
        assert abs(a - b) <= 0.03 * max(abs(a), abs(b))


def test_xi_validates_configuration():
    with pytest.raises(ValueError, match="theta"):
        simulate_xi(0.0, 1.0)
    with pytest.raises(ValueError, match="step"):
        simulate_xi(0.5, 1.0, LimitProcessConfig(half_width=10.0, step=1.0))


# --- exact Xi law -----------------------------------------------------------


THETAS = (0.01, 0.02, 0.1, 0.15, 0.3, 0.5, 0.7, 0.85, 0.98, 0.99)
LEVELS = (0.005, 0.025, 0.05, 0.25, 0.5, 0.75, 0.95, 0.975, 0.995)


@pytest.mark.parametrize("theta", THETAS)
def test_xi_law_identities(theta):
    law = XiLaw(theta, 1.0)
    assert law.cdf(0.0) == pytest.approx(theta, abs=1e-13)
    mirror = XiLaw(1.0 - theta, 1.0)
    for t in (-200.0, -20.0, -2.0, -0.2, 0.2, 2.0, 20.0, 200.0):
        assert law.cdf(t) == pytest.approx(1.0 - mirror.cdf(-t), abs=1e-13)
        assert XiLaw(theta, 3.5).cdf(3.5 * t) == pytest.approx(law.cdf(t), abs=1e-13)
    for q in LEVELS:
        assert XiLaw(theta, 3.5).quantile(q) == pytest.approx(
            3.5 * law.quantile(q), rel=1e-9)
        assert law.cdf(law.quantile(q)) == pytest.approx(q, abs=1e-12)


def test_xi_law_matches_independent_quadrature():
    # quadrature of the reflection-principle density of (running max, value)
    # of a Brownian motion with drift -theta gives P(Xi > 5) = 0.2758 at 0.3
    assert 1.0 - XiLaw(0.3, 1.0).cdf(5.0) == pytest.approx(0.2758, abs=1e-4)


def test_xi_law_quantiles_finite_and_monotone():
    for theta in np.linspace(0.01, 0.99, 99):
        law = XiLaw(float(theta), 1.0)
        qs = [law.quantile(q) for q in LEVELS]
        assert all(np.isfinite(qs))
        assert all(a < b for a, b in zip(qs, qs[1:]))


@pytest.mark.parametrize("theta, steps, seed", [(0.15, 10_000, 23),
                                                (0.3, 5000, 24), (0.5, 5000, 25)])
def test_xi_law_matches_simulated_oracle(theta, steps, seed):
    # the grid argmax on [-L, L] differs from Xi only when Xi falls outside,
    # which has probability 2e-3 at this L; a grid of L/steps keeps the
    # discretization bias (largest near t = 0) well below the tolerance
    law = XiLaw(theta, 1.0)
    half = max(-law.quantile(1e-3), law.quantile(1.0 - 1e-3))
    reps = 2000
    draws = simulate_xi(theta, 1.0,
                        LimitProcessConfig(half_width=half, step=half / steps,
                                           reps=reps, seed=seed)).draws
    for q in (0.05, 0.2, 0.35, 0.5, 0.65, 0.8, 0.95):
        share = float(np.mean(draws <= law.quantile(q)))
        assert abs(share - q) <= 4.0 * np.sqrt(q * (1.0 - q) / reps) + 2e-3


def test_xi_law_degenerate_and_validation():
    law = XiLaw(0.4, 0.0)
    assert law.degenerate and not XiLaw(0.4, 1e-12).degenerate
    assert law.quantile(0.01) == law.quantile(0.99) == 0.0
    assert law.cdf(-1e-9) == 0.0 and law.cdf(0.0) == 1.0
    with pytest.raises(ValueError, match="theta"):
        XiLaw(1.0, 1.0)
    with pytest.raises(ValueError, match="sigma"):
        XiLaw(0.5, -1.0)
    with pytest.raises(ValueError, match="level"):
        XiLaw(0.5, 1.0).quantile(1.0)


# --- confidence intervals ---------------------------------------------------


def test_interval_collapses_for_degenerate_xi():
    basis = FourierBasis(2)
    delta = Curve([1.0, 0.0], basis)
    for xi in (simulate_xi(0.5, 0.0, LimitProcessConfig(reps=100, seed=9)),
               XiLaw(0.5, 0.0)):
        assert confidence_interval(40, delta, xi, 0.05) == (40.0, 40.0)


def test_interval_midpoint_symmetric_at_central_break():
    basis = FourierBasis(2)
    delta = Curve([1.0, 0.0], basis)
    xi = simulate_xi(0.5, 1.0,
                     LimitProcessConfig(half_width=50.0, step=0.05,
                                        reps=20_000, seed=10))
    lo, hi = confidence_interval(50, delta, xi, 0.05)
    upper, lower = hi - 50.0, 50.0 - lo
    assert abs(upper - lower) <= 0.1 * max(upper, lower)


def test_interval_requires_nonzero_break():
    xi = simulate_xi(0.5, 0.0, LimitProcessConfig(reps=10, seed=0))
    with pytest.raises(ValueError, match="zero"):
        confidence_interval(5, Curve([0.0], FourierBasis(1)), xi, 0.05)


def test_date_break_report_invariants():
    rng = np.random.default_rng(11)
    data = rng.standard_normal((80, 5)) * 0.5
    data[40:] += np.array([1.0, 0.5, 0.0, 0.0, 0.0])
    report = date_break(make_series(data), 0.05, LongRunConfig())
    assert report.ci[0] <= report.k_hat <= report.ci[1]
    assert report.sigma2_hat <= report.lambda1_hat + 1e-10
    assert report.theta_hat == report.k_hat / 80
    assert 1.0 <= report.ci[0] and report.ci[1] <= 80.0
    assert report.ci_raw[0] <= report.ci[0]


def test_date_break_conservative_is_not_narrower():
    rng = np.random.default_rng(13)
    data = rng.standard_normal((80, 5)) * 0.5
    data[40:] += np.array([1.0, 0.5, 0.0, 0.0, 0.0])
    series = make_series(data)
    base = date_break(series, 0.05)
    cons = date_break(series, 0.05, conservative=True)
    width = base.ci_raw[1] - base.ci_raw[0]
    width_cons = cons.ci_raw[1] - cons.ci_raw[0]
    assert cons.conservative
    assert width_cons >= width - 1e-9


def test_date_break_interval_contains_break_near_the_edge():
    # theta-hat = 0.02 < alpha/2 puts both Xi quantiles above zero; the raw
    # interval k - Xi_q/||d||^2 would then exclude k-hat
    rng = np.random.default_rng(21)
    data = 0.1 * rng.standard_normal((100, 3))
    data[2:] += np.array([5.0, 0.0, 0.0])
    report = date_break(make_series(data), 0.05)
    assert report.k_hat == 2
    assert report.xi.quantile(0.025) > 0.0
    assert report.ci_raw[1] == 2.0
    assert report.ci[0] <= report.k_hat <= report.ci[1]


@settings(max_examples=80, deadline=None)
@given(
    data=st.data(),
    n=st.integers(4, 60),
    d=st.integers(1, 4),
    noise=st.sampled_from([0.0, 0.01, 0.3, 1.0]),
    alpha=st.sampled_from([0.01, 0.05, 0.5]),
    conservative=st.booleans(),
    seed=st.integers(0, 2**31),
)
def test_date_break_interval_invariants_for_any_break_date(data, n, d, noise, alpha,
                                                           conservative, seed):
    # a step at any k* in [1, n-1], so theta-hat reaches 1/n and (n-1)/n
    k_star = data.draw(st.integers(1, n - 1), label="k_star")
    rng = np.random.default_rng(seed)
    x = noise * rng.standard_normal((n, d))
    x[k_star:] += rng.standard_normal(d) + np.sign(rng.standard_normal(d))
    report = date_break(make_series(x), alpha, conservative=conservative)
    lo, hi = report.ci
    assert lo <= report.k_hat <= hi
    assert 1.0 <= lo and hi <= float(n)
    assert report.sigma2_hat <= report.lambda1_hat + 1e-10


# --- no-break argmax law ----------------------------------------------------


def test_no_break_argmax_is_centered_and_interior():
    draws = no_break_argmax_sample([1.0], reps=20_000, grid=1000, seed=15)
    assert abs(draws.mean() - 0.5) <= 0.01
    assert draws.min() > 0.0 and draws.max() < 1.0


def test_no_break_argmax_scale_invariant():
    lam = np.array([2.0, 0.5, 0.1])
    a = no_break_argmax_sample(lam, reps=500, grid=400, seed=16)
    b = no_break_argmax_sample(2.0 * lam, reps=500, grid=400, seed=16)
    np.testing.assert_array_equal(a, b)


def test_no_break_argmax_rejects_zero_spectrum():
    with pytest.raises(ValueError, match="zero"):
        no_break_argmax_sample([0.0, 0.0], reps=10)


def test_no_break_argmax_checks_reps_and_grid_like_the_null_limit():
    with pytest.raises(ValueError, match="replication"):
        no_break_argmax_sample([1.0], reps=0)
    with pytest.raises(ValueError, match="grid"):
        no_break_argmax_sample([1.0], reps=10, grid=0)
    with pytest.raises(ValueError, match="finite"):
        no_break_argmax_sample([1.0, np.nan], reps=10)


# --- fixed-break limit law --------------------------------------------------


def test_fixed_break_limit_degenerates_when_errors_orthogonal():
    basis = FourierBasis(3)
    delta = Curve([1.0, 0.0, 0.0], basis)

    def orthogonal_errors(rng, count):
        out = np.zeros((count, 3))
        out[:, 2] = rng.standard_normal(count)
        return out

    draws = simulate_fixed_break_limit(delta, 0.5, orthogonal_errors,
                                       window=30, reps=200, seed=17)
    np.testing.assert_array_equal(draws, np.zeros(200))


def test_fixed_break_limit_concentrates_for_large_breaks():
    basis = FourierBasis(2)
    delta = Curve([20.0, 0.0], basis)

    def unit_errors(rng, count):
        return rng.standard_normal((count, 2))

    draws = simulate_fixed_break_limit(delta, 0.5, unit_errors,
                                       window=50, reps=500, seed=18)
    assert (draws == 0).mean() >= 0.99


def test_fixed_break_limit_matches_finite_sample_dating_error():
    # dating errors at n=1000 follow the simulated limit law (two-sample KS)
    rng = np.random.default_rng(19)
    d, n, theta = 6, 1000, 0.5
    sigma = 3.0 ** -np.arange(1.0, d + 1.0)
    c = snr_to_c(1.0, theta, float(sigma @ sigma))
    delta = break_function(2, c, d)
    k_star = int(theta * n)
    cfg = DgpConfig(setting=2, n=n, n_basis=d, permute=False)
    finite = []
    for _ in range(500):
        series = gen_errors(cfg, rng=rng)
        series = insert_break(series, delta, k_star)
        finite.append(estimate_break_date(series) - k_star)

    def setting2_errors(err_rng, count):
        return err_rng.standard_normal((count, d)) * sigma

    limit = simulate_fixed_break_limit(delta, theta, setting2_errors,
                                       window=60, reps=2000, seed=20)
    ks = stats.ks_2samp(finite, limit)
    assert ks.pvalue > 0.01


def test_fixed_break_limit_validates_inputs():
    basis = FourierBasis(2)
    delta = Curve([1.0, 0.0], basis)
    with pytest.raises(ValueError, match="window"):
        simulate_fixed_break_limit(delta, 0.5, lambda r, c: np.zeros((c, 2)),
                                   window=0)
    with pytest.raises(ValueError, match="zero"):
        simulate_fixed_break_limit(Curve([0.0, 0.0], basis), 0.5,
                                   lambda r, c: np.zeros((c, 2)), window=5)
