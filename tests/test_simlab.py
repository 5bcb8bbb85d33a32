import io

import numpy as np
import pytest
from scipy import linalg as sla

from funcbreak.basis import CurveSeries, FourierBasis
from funcbreak.simlab import (
    CSV_COLUMNS,
    BreakSpec,
    DgpConfig,
    break_function,
    far1_longrun_trace,
    gen_errors,
    insert_break,
    run_experiment,
    sigma_vector,
    snr_to_c,
    validate_grid,
)
from limit_oracles import detector_stat


# --- coefficient scales -----------------------------------------------------


def test_sigma_vectors_match_the_three_settings():
    s1 = sigma_vector(1, 21)
    assert list(s1[:3]) == [1.0, 1.0, 1.0]
    assert s1[3] == 0.0 and s1[20] == 0.0
    assert sigma_vector(2, 21)[1] == pytest.approx(1.0 / 9.0)
    assert sigma_vector(3, 21)[20] == pytest.approx(1.0 / 21.0)
    with pytest.raises(ValueError, match="setting"):
        sigma_vector(4)


# --- innovations ------------------------------------------------------------


def test_setting1_innovations_load_three_directions():
    cfg = DgpConfig(setting=1, n=50, seed=0, permute=False)
    series = gen_errors(cfg)
    assert np.all(series.data[:, 3:] == 0.0)
    assert np.any(series.data[:, :3] != 0.0)


def test_innovations_are_reproducible():
    cfg = DgpConfig(setting=2, n=30, seed=7, permute=False)
    a = gen_errors(cfg)
    b = gen_errors(cfg)
    np.testing.assert_array_equal(a.data, b.data)


def test_innovation_scales_match_sigma():
    cfg = DgpConfig(setting=3, n=10_000, n_basis=6, seed=1, permute=False)
    series = gen_errors(cfg)
    sigma = sigma_vector(3, 6)
    np.testing.assert_allclose(series.data.std(axis=0), sigma, rtol=0.05)


def test_student_innovations_need_df():
    with pytest.raises(ValueError, match="df"):
        DgpConfig(setting=1, innovation="student")
    cfg = DgpConfig(setting=2, innovation="student", df=3, n=40, seed=2,
                    permute=False)
    assert gen_errors(cfg).n == 40


# --- FAR(1) -----------------------------------------------------------------


def test_far1_with_zero_kappa_equals_innovations():
    cfg = DgpConfig(setting=2, dependence="far1", kappa=0.0, n=25, n_basis=5,
                    seed=3, permute=False)
    far = gen_errors(cfg)
    # reproduce by consuming the operator draw, then the innovations
    rng = np.random.default_rng(3)
    sigma = sigma_vector(2, 5)
    rng.standard_normal((5, 5))  # operator entries, unused at kappa = 0
    z = rng.standard_normal((125, 5)) * sigma
    np.testing.assert_allclose(far.data, z[100:], atol=1e-12)


def test_far1_lag_one_autocovariance_matches_yule_walker():
    cfg = DgpConfig(setting=2, dependence="far1", n=20_000, n_basis=5,
                    kappa=0.5, seed=4, permute=False)
    series, psi = gen_errors(cfg, return_operator=True)
    sigma = sigma_vector(2, 5)
    stationary = sla.solve_discrete_lyapunov(psi, np.diag(sigma**2))
    x = series.data - series.data.mean(axis=0)
    lag1 = x[1:].T @ x[:-1] / (len(x) - 1)
    target = psi @ stationary
    assert np.linalg.norm(lag1 - target) <= 0.10 * np.linalg.norm(target)


def test_far1_mean_stability_under_null():
    cfg = DgpConfig(setting=3, dependence="far1", n=2000, seed=5, permute=False)
    series, psi = gen_errors(cfg, return_operator=True)
    half = series.n // 2
    diff = series.data[:half].mean(axis=0) - series.data[half:].mean(axis=0)
    sigma = sigma_vector(3, 21)
    long_run_tr = far1_longrun_trace(sigma, psi)
    stderr = np.sqrt(2.0 * long_run_tr / half)
    assert np.linalg.norm(diff) < 4.0 * stderr


# --- break construction -----------------------------------------------------


def test_break_function_norm_is_sqrt_c():
    for m in (1, 5, 21):
        delta = break_function(m, 2.56, 21)
        assert np.linalg.norm(delta.coeffs) == pytest.approx(1.6)


def test_break_function_layouts():
    one = break_function(1, 1.0, 4)
    np.testing.assert_array_equal(one.coeffs, [1.0, 0.0, 0.0, 0.0])
    full = break_function(4, 1.0, 4)
    np.testing.assert_allclose(full.coeffs, np.full(4, 0.5))
    permuted = break_function(2, 1.0, 4, permutation=[3, 1, 0, 2])
    np.testing.assert_allclose(permuted.coeffs,
                               [0.0, np.sqrt(0.5), 0.0, np.sqrt(0.5)])
    with pytest.raises(ValueError, match="m"):
        break_function(5, 1.0, 4)


def test_snr_to_c_values():
    assert snr_to_c(0.0, 0.5, 3.0) == 0.0
    assert snr_to_c(1.0, 0.5, 3.0) == pytest.approx(12.0)
    with pytest.raises(ValueError, match="theta"):
        snr_to_c(1.0, 1.0, 3.0)
    with pytest.raises(ValueError, match="trace"):
        snr_to_c(1.0, 0.5, 0.0)


def test_far1_longrun_trace_closed_forms():
    assert far1_longrun_trace([1.0, 2.0], np.zeros((2, 2))) == pytest.approx(5.0)
    assert far1_longrun_trace([1.0], [[0.5]]) == pytest.approx(4.0)
    with pytest.raises(ValueError, match="radius"):
        far1_longrun_trace([1.0], [[1.0]])


def test_far1_longrun_trace_matches_long_simulation():
    cfg = DgpConfig(setting=2, dependence="far1", n=50_000, n_basis=4,
                    kappa=0.5, seed=6, permute=False)
    series, psi = gen_errors(cfg, return_operator=True)
    sigma = sigma_vector(2, 4)
    analytic = far1_longrun_trace(sigma, psi)
    from funcbreak.longrun import longrun_kernel, trace

    estimate = trace(longrun_kernel(series, "bartlett", h=50_000 ** (1 / 3),
                                    split=25_000))
    assert estimate == pytest.approx(analytic, rel=0.10)


def test_insert_break_edges():
    data = np.ones((6, 2))
    series = CurveSeries(data, FourierBasis(2))
    delta = break_function(1, 4.0, 2)
    unchanged = insert_break(series, delta, 6)
    np.testing.assert_array_equal(unchanged.data, data)
    everywhere = insert_break(series, delta, 0)
    np.testing.assert_allclose(everywhere.data[:, 0], 3.0)
    with pytest.raises(ValueError, match="break date"):
        insert_break(series, delta, 7)


def test_snr_calibration_is_exact_for_generated_data():
    theta, snr, m = 0.25, 0.7, 5
    sigma = sigma_vector(3, 21)
    trace_c = float(sigma @ sigma)
    c = snr_to_c(snr, theta, trace_c)
    delta = break_function(m, c, 21)
    achieved = theta * (1 - theta) * float(delta.coeffs @ delta.coeffs) / trace_c
    assert achieved == pytest.approx(snr, rel=1e-12)


def test_statistic_invariant_under_basis_permutation():
    cfg = DgpConfig(setting=3, n=60, seed=8, permute=False)
    rng_a = np.random.default_rng(59)
    rng_b = np.random.default_rng(59)
    perm = np.random.default_rng(1).permutation(21)
    plain = gen_errors(cfg, rng=rng_a)
    permuted = gen_errors(cfg, rng=rng_b, permutation=perm)
    assert detector_stat(plain) == pytest.approx(detector_stat(permuted),
                                                 abs=1e-10)


# --- experiment runner ------------------------------------------------------


def test_grid_validation_lists_all_problems():
    dgp = DgpConfig(setting=1, n=20, n_basis=4)
    with pytest.raises(ValueError) as err:
        validate_grid("dating", [dgp], [BreakSpec(m=9, snr=0.5, theta=0.5)],
                      ["FF", "Aligned", "bogus"])
    message = str(err.value)
    assert "m=9" in message
    assert "Aligned" in message
    assert "bogus" in message


def test_size_run_rejects_break_grid():
    dgp = DgpConfig(setting=1, n=20)
    with pytest.raises(ValueError, match="no break grid"):
        run_experiment("size", dgp, [BreakSpec(1, 0.5, 0.5)], reps=2)


def test_power_at_zero_snr_replays_the_size_cell():
    dgp = DgpConfig(setting=2, n=40, n_basis=5)
    kwargs = dict(detectors=["FF"], reps=40, seed=11, workers=1,
                  null_reps=200, null_grid=150)
    size = run_experiment("size", dgp, **kwargs)
    power = run_experiment("power", dgp, [BreakSpec(m=1, snr=0.0, theta=0.5)],
                           **kwargs)
    assert (power.value(metric="rejection_rate", detector="FF")
            == size.value(metric="rejection_rate", detector="FF"))


def test_dating_run_on_noiseless_injection_has_zero_error():
    dgp = DgpConfig(setting=1, n=40, n_basis=5)
    res = run_experiment("dating", dgp, [BreakSpec(m=1, snr=80.0, theta=0.5)],
                         detectors=["FF"], reps=25, seed=12, workers=1,
                         null_reps=100, null_grid=150)
    assert res.value(metric="bias", detector="FF") == 0.0
    assert res.value(metric="median_abs_error", detector="FF") == 0.0


def test_runner_is_deterministic_across_worker_counts():
    dgp = DgpConfig(setting=2, n=40, n_basis=5)
    spec = [BreakSpec(m=2, snr=0.4, theta=0.5)]
    kwargs = dict(detectors=["FF", "fPCA@0.90"], reps=24, seed=13,
                  null_reps=150, null_grid=120)
    serial = run_experiment("power", dgp, spec, workers=1, **kwargs)
    parallel = run_experiment("power", dgp, spec, workers=2, **kwargs)
    assert serial.rows == parallel.rows


def test_csv_schema_and_stderr_formula():
    dgp = DgpConfig(setting=1, n=30, n_basis=4)
    res = run_experiment("size", dgp, detectors=["FF"], reps=30, seed=14,
                         workers=1, null_reps=100, null_grid=120)
    buf = io.StringIO()
    res.to_csv(buf)
    lines = buf.getvalue().strip().splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert len(lines) == 2
    row = res.rows[0]
    p_hat = row["value"]
    assert row["stderr"] == pytest.approx(np.sqrt(p_hat * (1 - p_hat) / 30))
    assert row["m"] == 0 and row["snr"] == 0.0 and row["theta"] == 0.0


def test_failed_replications_are_counted(monkeypatch):
    import funcbreak.simlab as simlab

    calls = {"k": 0}
    original = simlab.fpca_statistic

    def flaky(model):
        calls["k"] += 1
        if calls["k"] % 3 == 0:
            raise RuntimeError("synthetic failure")
        return original(model)

    monkeypatch.setattr(simlab, "fpca_statistic", flaky)
    dgp = DgpConfig(setting=2, n=30, n_basis=4)
    res = run_experiment("dating", dgp, [BreakSpec(m=1, snr=1.0, theta=0.5)],
                         detectors=["fPCA@0.90"], reps=9, seed=15, workers=1,
                         null_reps=100, null_grid=120)
    failures = res.value(metric="failures", detector="fPCA@0.90")
    assert failures == 3
    assert res.select(metric="bias", detector="fPCA@0.90")[0]["reps"] == 6


def test_coverage_run_reports_rates_and_widths():
    dgp = DgpConfig(setting=1, n=40, n_basis=5)
    args = ("coverage", dgp, [BreakSpec(m=1, snr=2.0, theta=0.5)])
    kwargs = dict(detectors=["FF"], reps=20, seed=16, workers=1,
                  null_reps=100, null_grid=120)
    res = run_experiment(*args, **kwargs, xi_reps=400)
    rate = res.value(metric="coverage", detector="FF")
    width = res.value(metric="median_width", detector="FF")
    assert 0.0 <= rate <= 1.0
    assert width >= 0.0
    # the interval comes from the exact Xi law, so xi_reps changes nothing
    again = run_experiment(*args, **kwargs, xi_reps=10)
    assert again.value(metric="coverage", detector="FF") == rate
    assert again.value(metric="median_width", detector="FF") == width


def test_non_integer_thread_cap_names_the_variable(monkeypatch):
    monkeypatch.setenv("FUNCBREAK_THREADS", "2.5")
    with pytest.raises(ValueError, match="FUNCBREAK_THREADS"):
        run_experiment("size", DgpConfig(setting=1, n=20), detectors=["FF"],
                       reps=1, workers=1)
