import io
import json
import multiprocessing
import os
import signal
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from scipy import linalg as sla

import funcbreak
import funcbreak.simlab as simlab
from funcbreak.basis import CurveSeries, FourierBasis
from funcbreak.cli import main
from funcbreak.dating import date_break
from funcbreak.detect import NullBank, fit_break
from funcbreak.detect import test as ff_test
from funcbreak.fpca import aligned_statistic, fit_fpca
from funcbreak.simlab import (
    CSV_COLUMNS,
    BreakSpec,
    DgpConfig,
    ExperimentResult,
    break_function,
    far1_longrun_trace,
    gen_errors,
    insert_break,
    run_experiment,
    sigma_vector,
    snr_to_c,
    validate_grid,
)


def serial_errors(cfg, rng, burnin=100):
    """``gen_errors`` data and operator, the FAR(1) recursion run one curve
    after the other as ``prev = psi @ prev + z[i]``."""
    sigma = sigma_vector(cfg.setting, cfg.n_basis)

    def innovations(count):
        if cfg.innovation == "gaussian":
            z = rng.standard_normal((count, sigma.size))
        else:
            z = rng.standard_t(cfg.df, size=(count, sigma.size))
        return z * sigma

    psi = None
    if cfg.dependence == "iid":
        data = innovations(cfg.n)
    else:
        psi0 = rng.standard_normal((cfg.n_basis, cfg.n_basis)) * np.outer(sigma, sigma)
        psi0 /= np.linalg.norm(psi0, 2)
        psi = cfg.kappa * psi0
        z = innovations(cfg.n + burnin)
        data = np.empty_like(z)
        prev = np.zeros(cfg.n_basis)
        for i in range(z.shape[0]):
            prev = psi @ prev + z[i]
            data[i] = prev
        data = data[burnin:]
    return data, psi


def serial_replications(dgp, spec, reps, seed):
    """(series, k_star) of each replication of a ``run_experiment`` cell,
    generated one after the other through ``gen_errors`` from their own
    streams; a spec of None (size) inserts no break."""
    digest = simlab._cell_digest(dgp)
    for rep in range(reps):
        rng = np.random.default_rng(np.random.SeedSequence((seed, digest, rep)))
        series, psi = gen_errors(dgp, rng=rng, return_operator=True)
        k_star = 0
        if spec is not None:
            sigma = sigma_vector(dgp.setting, dgp.n_basis)
            trace_c = float(sigma @ sigma) if psi is None else far1_longrun_trace(sigma, psi)
            c = snr_to_c(spec.snr, spec.theta, trace_c)
            k_star = int(spec.theta * dgp.n)
            series = insert_break(series, break_function(spec.m, c, dgp.n_basis), k_star)
        yield series, k_star


def cell_seed(dgp, seed):
    """The seed of the FF null that every replication of a cell reads."""
    return simlab._bank_seed(seed, simlab._cell_digest(dgp))


def serial_cell_rows(kind, dgp, spec, detectors, reps, seed, null_reps,
                     null_grid):
    """Rows of one ``run_experiment`` cell from ``serial_replications``, every
    FF decision read from one bank of the cell's null."""
    task = simlab._CellTask(
        kind=kind, dgp=dgp, break_spec=spec,
        detectors=tuple((name, *simlab._parse_detector(name)) for name in detectors),
        alpha=0.05, seed=seed, digest=simlab._cell_digest(dgp),
        null_reps=null_reps, null_grid=null_grid, conservative=False)
    bank = NullBank(cell_seed(dgp, seed), null_reps, null_grid)
    per_rep = []
    for series, k_star in serial_replications(dgp, spec, reps, seed):
        fit = fit_break(series)
        per_rep.append(({name: simlab._eval_detector(
            task, kind_name, tve, fit, bank, k_star)
            for name, kind_name, tve in task.detectors}, {}))
    return simlab._cell_rows(task, per_rep)


def csv_text(rows) -> str:
    buf = io.StringIO()
    ExperimentResult(rows).to_csv(buf)
    return buf.getvalue()


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
    cfg = DgpConfig(setting=1, n=50)
    series = gen_errors(cfg, rng=np.random.default_rng(0))
    assert np.all(series.data[:, 3:] == 0.0)
    assert np.any(series.data[:, :3] != 0.0)


def test_innovations_are_reproducible():
    cfg = DgpConfig(setting=2, n=30)
    a = gen_errors(cfg, rng=np.random.default_rng(7))
    b = gen_errors(cfg, rng=np.random.default_rng(7))
    np.testing.assert_array_equal(a.data, b.data)


def test_innovation_scales_match_sigma():
    cfg = DgpConfig(setting=3, n=10_000, n_basis=6)
    series = gen_errors(cfg, rng=np.random.default_rng(1))
    sigma = sigma_vector(3, 6)
    np.testing.assert_allclose(series.data.std(axis=0), sigma, rtol=0.05)


def test_student_innovations_need_df():
    with pytest.raises(ValueError, match="df"):
        DgpConfig(setting=1, innovation="student")
    cfg = DgpConfig(setting=2, innovation="student", df=3, n=40)
    assert gen_errors(cfg, rng=np.random.default_rng(2)).n == 40


@pytest.mark.parametrize("dependence,burnin", [("iid", 100), ("far1", 0),
                                              ("far1", 100)])
@pytest.mark.parametrize("innovation,df", [("gaussian", None), ("student", 3)])
def test_gen_errors_matches_the_per_step_recursion(dependence, burnin,
                                                   innovation, df):
    cfg = DgpConfig(setting=3, dependence=dependence, innovation=innovation,
                    df=df, n=60)
    series, psi = gen_errors(cfg, rng=np.random.default_rng(21), burnin=burnin,
                             return_operator=True)
    data, psi_ref = serial_errors(cfg, np.random.default_rng(21), burnin)
    assert series.data.tobytes() == data.tobytes()
    if dependence == "iid":
        assert psi is None and psi_ref is None
    else:
        assert psi.tobytes() == psi_ref.tobytes()


def test_gaussian_innovations_take_no_df():
    with pytest.raises(ValueError, match="df"):
        DgpConfig(setting=3, df=3)


def test_iid_cells_replay_the_same_streams_whatever_kappa(tmp_path):
    # an iid cell ignores kappa, so its rows must too; a far1 cell does not
    def rows(dependence, kappa):
        dgp = DgpConfig(setting=3, dependence=dependence, n=30, kappa=kappa)
        out = io.StringIO()
        run_experiment("dating", dgp, [BreakSpec(1, 0.2, 0.5)], detectors=["FF"],
                       reps=50, workers=1).to_csv(out)
        return out.getvalue()

    assert rows("iid", 0.3) == rows("iid", 0.5)
    assert rows("far1", 0.3) != rows("far1", 0.5)

    # the CLI's default kappa and another, on its default workers
    argv = "simulate dating --setting 3 --n 30 --snr 0.2 --detectors FF --sim-reps 50"
    tables = []
    for extra in ([], ["--kappa", "0.3"]):
        out = tmp_path / f"kappa{len(tables)}.csv"
        assert main([*argv.split(), *extra, "--out", str(out)]) == 0
        tables.append(out.read_bytes())
    assert tables[0] == tables[1]


def test_negative_burnin_is_rejected():
    cfg = DgpConfig(setting=1, dependence="far1", n=50)
    with pytest.raises(ValueError, match="burnin"):
        gen_errors(cfg, rng=np.random.default_rng(1), burnin=-5)


# --- FAR(1) -----------------------------------------------------------------


def test_far1_with_zero_kappa_equals_innovations():
    cfg = DgpConfig(setting=2, dependence="far1", kappa=0.0, n=25, n_basis=5)
    far = gen_errors(cfg, rng=np.random.default_rng(3))
    # reproduce by consuming the operator draw, then the innovations
    rng = np.random.default_rng(3)
    sigma = sigma_vector(2, 5)
    rng.standard_normal((5, 5))  # operator entries, unused at kappa = 0
    z = rng.standard_normal((125, 5)) * sigma
    np.testing.assert_allclose(far.data, z[100:], atol=1e-12)


def test_far1_lag_one_autocovariance_matches_yule_walker():
    cfg = DgpConfig(setting=2, dependence="far1", n=20_000, n_basis=5,
                    kappa=0.5)
    series, psi = gen_errors(cfg, rng=np.random.default_rng(4), return_operator=True)
    sigma = sigma_vector(2, 5)
    stationary = sla.solve_discrete_lyapunov(psi, np.diag(sigma**2))
    x = series.data - series.data.mean(axis=0)
    lag1 = x[1:].T @ x[:-1] / (len(x) - 1)
    target = psi @ stationary
    assert np.linalg.norm(lag1 - target) <= 0.10 * np.linalg.norm(target)


def test_far1_mean_stability_under_null():
    cfg = DgpConfig(setting=3, dependence="far1", n=2000)
    series, psi = gen_errors(cfg, rng=np.random.default_rng(5), return_operator=True)
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


def test_far1_longrun_trace_checks_the_radius_not_the_norm():
    # Frobenius norm above 1 with spectral radius 0.5: (I - Psi)^-1 = [[2, 40], [0, 2]]
    assert far1_longrun_trace([1.0, 1.0], [[0.5, 10.0], [0.0, 0.5]]) == pytest.approx(1608.0)
    with pytest.raises(ValueError, match="radius"):
        far1_longrun_trace([1.0, 1.0], [[0.5, 10.0], [0.0, 1.0]])
    with pytest.raises(ValueError, match="radius"):
        far1_longrun_trace([1.0, 1.0], [[0.0, -1.5], [1.0, 0.0]])


def test_far1_longrun_trace_matches_long_simulation():
    cfg = DgpConfig(setting=2, dependence="far1", n=50_000, n_basis=4,
                    kappa=0.5)
    series, psi = gen_errors(cfg, rng=np.random.default_rng(6), return_operator=True)
    sigma = sigma_vector(2, 4)
    analytic = far1_longrun_trace(sigma, psi)
    from funcbreak.longrun import longrun_kernel, trace

    estimate = trace(longrun_kernel(series, h=50_000 ** (1 / 3),
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


def relabeling_outcomes(series):
    """(exact, close) outcomes of every detector on ``series``: k_hat, the FF
    p-value, the fPCA@0.90 d and k_tilde; the FF, fPCA and aligned statistics,
    sigma^2 and the raw interval."""
    fit = fit_break(series)
    report = ff_test(fit, reps=199, seed=5)
    fpca, dating = fit_fpca(fit, tve=0.90), date_break(fit)
    return ((fit.k_hat, report.p_value, fpca.d, fpca.k_hat),
            (report.stat, fpca.stat, aligned_statistic(fit), dating.sigma2_hat,
             *dating.ci_raw))


@pytest.mark.parametrize("dependence", ["iid", "far1"])
@pytest.mark.parametrize("setting", [1, 2, 3])
def test_every_detector_ignores_a_relabeling_of_the_basis(setting, dependence):
    # simlab draws its curves unrelabeled: a replication whose columns, errors
    # and break alike, are permuted gives every detector the same outcomes
    dgp = DgpConfig(setting=setting, dependence=dependence, n=60)
    perm = np.random.default_rng(setting).permutation(dgp.n_basis)
    for series, _ in serial_replications(dgp, BreakSpec(2, 0.3, 0.5), reps=3, seed=11):
        exact, close = relabeling_outcomes(series)
        relabeled = relabeling_outcomes(CurveSeries(series.data[:, perm], series.basis))
        assert relabeled[0] == exact
        assert relabeled[1] == pytest.approx(close, rel=1e-12)


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


def test_grid_validation_rejects_detectors_that_name_the_same_one():
    # fpca@0.9 and fPCA@0.90 parse to the same detector: its rows would repeat
    dgp = DgpConfig(setting=1, n=20)
    with pytest.raises(ValueError) as err:
        validate_grid("dating", [dgp], [BreakSpec(m=1, snr=0.5, theta=0.5)],
                      ["FF", "FF", "fpca@0.9", "fPCA@0.90", "fPCA@0.95"])
    message = str(err.value)
    assert "detectors 'FF' and 'FF' are the same" in message
    assert "detectors 'fpca@0.9' and 'fPCA@0.90' are the same" in message
    assert "0.95" not in message
    validate_grid("dating", [dgp], [BreakSpec(m=1, snr=0.5, theta=0.5)],
                  ["FF", "fPCA@0.90", "fPCA@0.95"])


def test_grid_validation_rejects_a_break_spec_that_places_no_break():
    # the break date is int(theta n): 0 at theta < 1/n, where every curve shifts
    short, long = DgpConfig(setting=1, n=20), DgpConfig(setting=1, n=200)
    spec = BreakSpec(m=1, snr=1.0, theta=0.04)
    with pytest.raises(ValueError, match=r"theta=0.04 places no break at n=20\b"):
        validate_grid("power", [short, long], [spec], ["FF"])
    validate_grid("power", [long], [spec], ["FF"])  # int(0.04 * 200) = 8


def test_size_run_rejects_break_grid():
    dgp = DgpConfig(setting=1, n=20)
    with pytest.raises(ValueError, match="no break grid"):
        run_experiment("size", dgp, [BreakSpec(1, 0.5, 0.5)], reps=2)


def test_kernel_parameters_are_gone():
    # one Bartlett kernel at h = n^(1/4): no call takes a taper or a rule
    from funcbreak.longrun import estimate_longrun, longrun_kernel

    dgp = DgpConfig(setting=1, n=20, n_basis=3)
    series = gen_errors(dgp, rng=np.random.default_rng(0))
    for call, args, kwargs in ((run_experiment, ("size", dgp), dict(lr_config=None)),
                               (fit_break, (series,), dict(config=None)),
                               (estimate_longrun, (series,), dict(config=None)),
                               (longrun_kernel, (series,), dict(weight="bartlett"))):
        with pytest.raises(TypeError, match="unexpected keyword argument"):
            call(*args, **kwargs)


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


@pytest.mark.parametrize("argv", [
    "size --setting 1 3 --sim-reps 6 --reps 99 --grid 100 --detectors FF Aligned",
    # the default null grid: each series' own n steps, as in detect and date
    "size --setting 1 3 --sim-reps 6 --reps 99 --detectors FF Aligned",
    "dating --setting 3 --dependence far1 --sim-reps 37 --detectors FF fPCA@0.90",
    "power --setting 2 --n 40 --basis-size 5 --m 2 --snr 0.4 --theta 0.5 --sim-reps 24 "
    "--seed 13 --reps 150 --grid 120 --detectors FF fPCA@0.90",
    # FAR(1) replications are generated in blocks whose bounds follow the worker
    # count: one job of 8 against two of 4, and jobs of 38 against jobs of 19
    "coverage --setting 2 --dependence far1 --theta 0.25 --snr 1 --sim-reps 8 --detectors FF",
    "dating --setting 3 --dependence far1 --sim-reps 150 --detectors FF fPCA@0.90",
], ids=["size-grid100", "size-default-grid", "dating-far1", "power", "coverage-far1",
        "dating-far1-150"])
def test_simulation_csv_does_not_depend_on_the_worker_count(tmp_path, argv):
    # 1, 2, 1, 2 in one process: the second run on 2 workers reuses the pool
    tables = []
    for i, workers in enumerate((1, 2, 1, 2)):
        out = tmp_path / f"run{i}-w{workers}.csv"
        assert main(["simulate", *argv.split(), "--workers", str(workers),
                     "--out", str(out)]) == 0
        tables.append(out.read_bytes())
    assert tables[1:] == tables[:1] * 3


# --- the kept worker pool ---------------------------------------------------


def pool_pids() -> list:
    """Pids of this process's live worker processes."""
    return sorted(proc.pid for proc in multiprocessing.active_children())


def pid_alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    return True


def exited(pid: int) -> bool:
    """Whether the child ``pid`` has exited, left for its parent to reap."""
    try:
        return os.waitid(os.P_PID, pid, os.WEXITED | os.WNOHANG | os.WNOWAIT) is not None
    except ChildProcessError:  # reaped already
        return True


def small_run(workers, dgp=None):
    return run_experiment("size", dgp or DgpConfig(setting=3, n=30),
                          detectors=["FF", "Aligned"], reps=8, seed=31,
                          null_reps=19, workers=workers).rows


def test_kept_workers_exit_with_the_interpreter():
    script = (
        "import json, multiprocessing\n"
        "from funcbreak.simlab import DgpConfig, run_experiment\n"
        "pids = []\n"
        "for workers in (2, 2, 3, 2):\n"
        "    run_experiment('size', DgpConfig(setting=1, n=20), detectors=['FF'],\n"
        "                   reps=4, null_reps=19, workers=workers)\n"
        "    pids.append(sorted(p.pid for p in multiprocessing.active_children()))\n"
        "print(json.dumps(pids))\n")
    src = str(Path(funcbreak.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    env.pop("FUNCBREAK_THREADS", None)
    proc = subprocess.run([sys.executable, "-c", script], env=env, timeout=120,
                          capture_output=True, text=True)
    # a pool replaced twice leaves an exit hook per pool made: each finds
    # the pool of its call gone or stops the kept one, without a traceback
    assert proc.returncode == 0 and proc.stderr == "", proc.stderr
    first, second, third, fourth = json.loads(proc.stdout)
    assert len(first) == 2 and second == first and len(third) == 3
    assert not [pid for pid in first + third + fourth if pid_alive(pid)]


def test_a_changed_worker_count_or_thread_cap_replaces_the_pool(monkeypatch):
    monkeypatch.delenv("FUNCBREAK_THREADS", raising=False)
    expected = small_run(1)
    assert small_run(2) == expected
    two = pool_pids()
    assert len(two) == 2
    assert small_run(2) == expected and pool_pids() == two
    assert small_run(3) == expected
    three = pool_pids()
    assert len(three) == 3 and not set(three) & set(two)
    assert not [pid for pid in two if pid_alive(pid)]  # joined, not left running
    monkeypatch.setenv("FUNCBREAK_THREADS", "2")
    assert small_run(3) == expected
    capped = pool_pids()
    assert len(capped) == 2 and not set(capped) & set(three)


@pytest.mark.parametrize("reaped", [False, True])
def test_a_killed_worker_is_replaced_and_the_rows_kept(reaped):
    expected = small_run(1)
    small_run(2)
    victim = pool_pids()[0]
    os.kill(victim, signal.SIGKILL)
    # the victim has exited; when reaped, the pool has also seen the death and
    # joined its workers, and when not, it may not have noticed yet
    for _ in range(200):
        if not pid_alive(victim) if reaped else exited(victim):
            break
        time.sleep(0.05)
    assert small_run(2) == expected
    assert len(pool_pids()) == 2 and victim not in pool_pids()


def test_concurrent_calls_of_other_worker_counts_take_turns():
    expected = small_run(1)
    with ThreadPoolExecutor(3) as threads:
        results = list(threads.map(small_run, [2, 3] * 4, timeout=120))
    assert results == [expected] * 8


def test_a_call_that_raises_drops_the_pool():
    small_run(2)
    kept = pool_pids()
    bad = DgpConfig(setting=3, n=30)
    object.__setattr__(bad, "setting", 4)  # passes validation, fails in a worker
    with pytest.raises(ValueError, match="unknown setting 4"):
        small_run(2, bad)
    assert pool_pids() == []
    assert not [pid for pid in kept if pid_alive(pid)]
    assert small_run(2) == small_run(1)


CAP = simlab._BLOCK_REPS


@pytest.mark.parametrize("kind,dependence", [("dating", "far1"),
                                             ("coverage", "far1"),
                                             ("power", "far1"),
                                             ("dating", "iid"),
                                             ("size", "iid"),
                                             ("size", "far1")])
@pytest.mark.parametrize("reps", [1, 3, 37, 100, CAP + 1, 2 * CAP + 3])
def test_cell_rows_match_serial_generation(kind, dependence, reps):
    # worker counts 1 and 2 cut 3 and 100 replications into different jobs and blocks
    dgp = DgpConfig(setting=3, dependence=dependence, n=50)
    specs = [] if kind == "size" else [BreakSpec(m=1, snr=0.5, theta=0.5)]
    detectors = {"coverage": ["FF"], "size": ["FF", "fPCA@0.90", "Aligned"]}.get(
        kind, ["FF", "fPCA@0.90"])
    kwargs = dict(detectors=detectors, reps=reps, seed=17, null_reps=99,
                  null_grid=100)
    serial = csv_text(run_experiment(kind, dgp, specs, workers=1, **kwargs).rows)
    parallel = csv_text(run_experiment(kind, dgp, specs, workers=2, **kwargs).rows)
    assert serial == parallel
    del kwargs["detectors"]
    oracle = serial_cell_rows(kind, dgp, (specs or [None])[0], detectors, **kwargs)
    assert serial == csv_text(oracle)


@pytest.mark.parametrize("dependence", ["iid", "far1"])
def test_a_job_of_several_blocks_matches_serial_generation(dependence):
    # one worker cuts 4 CAP + 1 replications into jobs of CAP + 1: a full
    # generation block and a block of one
    dgp = DgpConfig(setting=2, dependence=dependence, n=50)
    spec = BreakSpec(m=2, snr=0.5, theta=0.5)
    assert simlab._job_bounds(4 * CAP + 1, 1)[0] == (0, CAP + 1)
    kwargs = dict(reps=4 * CAP + 1, seed=7, null_reps=99, null_grid=None)
    rows = run_experiment("dating", dgp, [spec], detectors=["FF", "fPCA@0.90"],
                          workers=1, **kwargs).rows
    assert csv_text(rows) == csv_text(serial_cell_rows(
        "dating", dgp, spec, ["FF", "fPCA@0.90"], **kwargs))


@pytest.mark.parametrize("reps, workers, bounds", [
    # a cell too small for a generation block per worker is shared equally
    (8, 2, [(0, 4), (4, 8)]),
    (6, 2, [(0, 3), (3, 6)]),
    (1, 2, [(0, 1)]),
    (8, 1, [(0, 8)]),
    # a job holds at least one block
    (37, 2, [(0, 16), (16, 32), (32, 37)]),
    # a large cell gives each worker four jobs
    (1000, 2, [(start, start + 125) for start in range(0, 1000, 125)]),
])
def test_job_layouts(reps, workers, bounds):
    assert simlab._job_bounds(reps, workers) == bounds


@pytest.mark.parametrize("setting", [1, 3])
def test_default_ff_decision_is_that_of_the_shipped_test(setting):
    # simlab's default null grid is detect.test's: the series' own n steps
    dgp = DgpConfig(setting=setting, n=40)
    spec = BreakSpec(m=1, snr=0.1, theta=0.5)  # p-values on both sides of 5%
    res = run_experiment("power", dgp, [spec], detectors=["FF"], reps=8, seed=19,
                         workers=1, null_reps=99)
    decisions = [ff_test(fit_break(series), 0.05, reps=99,
                         seed=cell_seed(dgp, 19)).p_value <= 0.05
                 for series, _ in serial_replications(dgp, spec, 8, 19)]
    assert 0.0 < np.mean(decisions) < 1.0
    assert res.value(metric="rejection_rate", detector="FF") == np.mean(decisions)


@pytest.mark.parametrize("kind, detectors, per_rep", [
    # FF and Aligned read one fit: one CUSUM, one kernel and its decomposition
    ("size", ["FF", "Aligned"],
     {"cusum": 1, "estimate_longrun": 1, "eigen_decompose": 1, "covariance": 0}),
    # fPCA adds the covariance spectrum of the same fit
    ("size", ["FF", "fPCA@0.90", "Aligned"],
     {"cusum": 1, "estimate_longrun": 1, "eigen_decompose": 1, "covariance": 1}),
    # FF dates by the fit's k_hat and the fPCA levels share one covariance
    # spectrum: no long-run kernel
    ("dating", ["FF", "fPCA@0.85", "fPCA@0.90", "fPCA@0.95"],
     {"cusum": 1, "estimate_longrun": 0, "eigen_decompose": 0, "covariance": 1}),
], ids=["size-ff-aligned", "size-ff-fpca-aligned", "dating-ff-fpca"])
def test_a_replication_fits_its_series_once(monkeypatch, kind, detectors, per_rep):
    import funcbreak.basis as basis
    import funcbreak.detect as detect
    import funcbreak.longrun as longrun

    # the stacked units count the replications of each call: every CUSUM, of
    # a block or of one fit, and every block's covariance spectra go through
    # them (a lone fit's spectrum would count as an eigen_decompose)
    stacked = {"cusum": ("_cusum_stack", detect._cusum_stack),
               "covariance": ("_eigen_stack", detect._eigen_stack)}
    single = {"estimate_longrun": longrun.estimate_longrun,
              "eigen_decompose": basis.eigen_decompose}
    sizes = {name: [] for name in stacked}
    calls = dict.fromkeys(single, 0)

    def counting_stack(name, fn):
        def wrapper(data, *args, **kwargs):
            sizes[name].append(len(data))
            return fn(data, *args, **kwargs)
        return wrapper

    def counting(name):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return single[name](*args, **kwargs)
        return wrapper

    for name, (attr, fn) in stacked.items():
        monkeypatch.setattr(detect, attr, counting_stack(name, fn))
    # every namespace that holds a counted function by name
    for module_name, module in list(sys.modules.items()):
        if module_name.split(".")[0] == "funcbreak":
            for name, fn in single.items():
                if getattr(module, name, None) is fn:
                    monkeypatch.setattr(module, name, counting(name))
    dgps = [DgpConfig(setting=1, n=40), DgpConfig(setting=3, n=40)]
    specs = [BreakSpec(m=2, snr=0.5, theta=0.5)] if kind == "dating" else []
    res = run_experiment(kind, dgps, specs, detectors=detectors, reps=3, seed=23,
                         workers=1, null_reps=19)
    assert not res.select(metric="failures")
    # one block of the three replications per cell
    assert sizes == {name: [3, 3] if per_rep[name] else [] for name in stacked}
    assert calls == {name: 2 * 3 * per_rep[name] for name in single}


def test_a_failed_stacked_spectrum_falls_back_to_each_fits_own(monkeypatch):
    import funcbreak.detect as detect

    dgp = DgpConfig(setting=3, dependence="far1", n=40)
    args = ("dating", dgp, [BreakSpec(m=1, snr=0.5, theta=0.5)])
    kwargs = dict(detectors=["FF", "fPCA@0.90"], reps=20, seed=3, workers=1)
    expected = run_experiment(*args, **kwargs).rows
    raised, lone = [], detect.eigen_decompose

    def raising(a):
        raised.append(len(a))
        raise np.linalg.LinAlgError("synthetic failure")

    # the stacked decomposition raises for the whole block: each fit then
    # decomposes its own covariance, and the rows do not change
    monkeypatch.setattr(detect, "_eigen_stack", raising)
    assert csv_text(run_experiment(*args, **kwargs).rows) == csv_text(expected)
    assert sum(raised) == 20  # every block took the fallback

    # of those, one that fails counts alone, in its fPCA detector's rows
    def failing_once(kernel):
        failing_once.calls += 1
        if failing_once.calls == 5:
            raise np.linalg.LinAlgError("synthetic failure")
        return lone(kernel)

    failing_once.calls = 0
    monkeypatch.setattr(detect, "eigen_decompose", failing_once)
    res = run_experiment(*args, **kwargs)
    assert res.value(metric="failures", detector="fPCA@0.90") == 1
    assert res.select(metric="bias", detector="fPCA@0.90")[0]["reps"] == 19
    assert not res.select(metric="failures", detector="FF")
    assert csv_text(res.select(detector="FF")) == csv_text(
        [row for row in expected if row["detector"] == "FF"])


def test_a_detectors_rows_do_not_depend_on_the_others(tmp_path):
    dgps = [DgpConfig(setting=1, n=40), DgpConfig(setting=3, n=40)]
    specs = [BreakSpec(m=1, snr=0.1, theta=0.5)]

    def rows(detectors):
        return run_experiment("power", dgps, specs, detectors=detectors, reps=10,
                              seed=29, workers=1, null_reps=99).rows

    both = rows(["FF", "Aligned"])
    for name in ("FF", "Aligned"):
        alone = rows([name])
        assert len(alone) == 2
        assert csv_text([row for row in both if row["detector"] == name]) == csv_text(alone)

    # the same through the CLI on its default workers, and for the fPCA levels,
    # which read one covariance spectrum of each replication's fit
    def cli_lines(argv, detectors):
        out = tmp_path / f"{argv.split()[0]}-{'-'.join(detectors)}.csv"
        assert main(["simulate", *argv.split(), "--detectors", *detectors,
                     "--out", str(out)]) == 0
        return out.read_bytes().splitlines(keepends=True)

    def rows_of(lines, name):
        return [line for line in lines if f",{name},".encode() in line]

    for argv, names in (
            ("power --setting 1 3 --n 40 --snr 0.1 --sim-reps 6 --reps 99",
             ["FF", "Aligned"]),
            ("dating --setting 2 3 --dependence iid far1 --n 40 --snr 0.5 --sim-reps 6",
             ["FF", "fPCA@0.85", "fPCA@0.90", "fPCA@0.95"])):
        every = cli_lines(argv, names)
        for name in names:
            assert rows_of(every, name)
            assert rows_of(every, name) == rows_of(cli_lines(argv, [name]), name)


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
    # the replications share one critical value: k = floor(0.05 * 101) = 5 of
    # N = 100 null draws, whose rejection probability is Beta(5, 96) under H0
    bank_var = 5 * 96 / (101**2 * 102)
    assert row["stderr"] == pytest.approx(np.sqrt(p_hat * (1 - p_hat) / 30 + bank_var))
    assert row["m"] == 0 and row["snr"] == 0.0 and row["theta"] == 0.0


def test_only_ff_size_rows_carry_the_bank_term():
    dgp = DgpConfig(setting=1, n=30, n_basis=4)
    kwargs = dict(detectors=["FF", "Aligned"], reps=30, seed=14, workers=1,
                  null_reps=100)
    size = run_experiment("size", dgp, **kwargs).rows
    power = run_experiment("power", dgp, [BreakSpec(m=1, snr=0.5, theta=0.5)],
                           **kwargs).rows
    for row in size + power:
        rate = row["value"]
        binomial = rate * (1 - rate) / 30
        bank = 5 * 96 / (101**2 * 102) if row is size[0] else 0.0
        assert row["stderr"] == pytest.approx(np.sqrt(binomial + bank), rel=1e-12)
    assert [row["detector"] for row in size] == ["FF", "Aligned"]


def test_ff_size_stderr_carries_the_spread_of_the_bank_over_cell_seeds():
    # Fixed before the first run: K = 40 cell seeds (0..39) of R = 150
    # replications each, N = 99 null draws, alpha = 5%. Were the test exact,
    # a cell's rejection probability would be Beta(5, 95) over banks; binomial
    # rates at such probabilities put the sample variance S^2 of the 40 rates
    # outside [1/3, 3] times the mean reported stderr^2, or at or below the
    # mean binomial term r (1 - r) / R alone, with probability about 4e-4
    # (200,000 simulated sets of 40 cells).
    dgp = DgpConfig(setting=1, n=30)
    rows = [run_experiment("size", dgp, detectors=["FF"], reps=150, seed=seed,
                           workers=1, null_reps=99).rows for seed in range(40)]
    assert all(len(cell) == 1 and cell[0]["reps"] == 150 for cell in rows)
    rates = np.array([cell[0]["value"] for cell in rows])
    spread = rates.var(ddof=1)
    stderr_sq = np.mean([cell[0]["stderr"] ** 2 for cell in rows])
    assert stderr_sq / 3 <= spread <= 3 * stderr_sq
    assert spread > np.mean(rates * (1 - rates) / 150)


@pytest.mark.parametrize("seed", [0, 14, 2**32 + 3])
def test_the_bank_stream_is_none_of_the_replication_streams(seed):
    dgp = DgpConfig(setting=1, n=30)
    digest = simlab._cell_digest(dgp)
    bank = cell_seed(dgp, seed)
    replications = [np.random.SeedSequence((seed, digest, rep))
                    for rep in [*range(2000), *(k << 32 for k in range(1, 50))]]
    taken = {tuple(seq.generate_state(4)) for seq in replications}
    blocks = [np.random.SeedSequence(bank.entropy, spawn_key=(*bank.spawn_key, b))
              for b in range(100)]
    assert not {tuple(seq.generate_state(4)) for seq in [bank, *blocks]} & taken
    if seed >= 1 << 32:
        # with 4 words of (seed, digest) a one-word key (0,) is not padded,
        # and it would give the stream of replication 0
        one_word = np.random.SeedSequence((seed, digest), spawn_key=(0,))
        assert tuple(one_word.generate_state(4)) in taken


def record_drawn_blocks(monkeypatch) -> list:
    """A list that gets the spawn key of each FF null block as it is drawn."""
    import funcbreak.detect as detect

    drawn = []
    null_block = detect._null_block

    def recording(root, b, *args):
        drawn.append((*root.spawn_key, b))
        return null_block(root, b, *args)

    monkeypatch.setattr(detect, "_null_block", recording)
    return drawn


def test_identical_calls_share_one_bank(monkeypatch):
    drawn = record_drawn_blocks(monkeypatch)
    kwargs = dict(detectors=["FF"], reps=40, seed=3, workers=1, null_reps=99)
    calls = []
    for _ in range(2):
        drawn.clear()
        rows = run_experiment("size", DgpConfig(setting=1, n=30), **kwargs).rows
        calls.append((rows, list(drawn)))
    assert calls[0][0] == calls[1][0]
    # three jobs of 16, 16 and 8 replications read one bank: block 0 is drawn
    # once, and the second call finds every block it reads already drawn
    assert simlab._job_bounds(40, 1) == [(0, 16), (16, 32), (32, 40)]
    assert calls[0][1].count((0, 0, 0)) == 1
    assert calls[1][1] == []


def test_a_process_keeps_the_banks_of_one_seed(monkeypatch):
    drawn = record_drawn_blocks(monkeypatch)
    dgp = DgpConfig(setting=3, n=30)  # 199 draws of D = 21 bridges: 4 blocks
    kwargs = dict(detectors=["FF"], reps=8, workers=1, null_reps=199)
    # the blocks a size call reads depend on its data: the loop stops at the
    # first seed from 3 on whose size call leaves a block undrawn
    for seed in range(20):
        drawn.clear()
        run_experiment("size", dgp, seed=seed, **kwargs)
        if seed >= 3 and len(drawn) < 4:
            break
    else:
        pytest.fail("the size calls of seeds 3 to 19 each drew all 4 blocks")
    # a loop over seeds holds the bank of its last seed, not one of every seed
    assert [key[0] for key in simlab._banks] == [seed]
    # a power call after the size call at its seed reads the size call's bank:
    # a strong break reads every block, and only those not yet drawn are drawn
    size_drawn = list(drawn)
    drawn.clear()
    run_experiment("power", dgp, [BreakSpec(m=1, snr=4.0, theta=0.5)], seed=seed, **kwargs)
    assert size_drawn and drawn
    assert size_drawn + drawn == [(0, 0, b) for b in range(len(size_drawn) + len(drawn))]


def kept_bytes() -> int:
    return sum(bank.nbytes for bank in simlab._banks.values())


def test_kept_banks_stay_within_the_budget(monkeypatch):
    # a strong break makes FF read every block, so each bank fills: 99 draws
    # of D = 21 bridges on 30 steps
    args = ([DgpConfig(setting=3, n=30), DgpConfig(setting=3, n=30, kappa=0.3,
                                                    dependence="far1")],
            [BreakSpec(m=1, snr=4.0, theta=0.5)])
    kwargs = dict(detectors=["FF"], reps=40, workers=1, null_reps=99)
    first = run_experiment("power", *args, seed=0, **kwargs).rows
    full = 99 * 21 * 30 * 8
    assert [bank.nbytes for bank in simlab._banks.values()] == [full, full]
    # room for one full bank and a half: a job that ends evicts the least
    # recently used other banks until the total fits, and keeps its own
    monkeypatch.setattr(simlab, "_BANK_BUDGET", full * 3 // 2)
    fetch, replicate, run_chunk = (simlab._kept_bank, simlab._replicate_block,
                                   simlab._run_chunk)
    fetched, ended, replicated = [], [], []

    def fetching(task):
        fetched.append(fetch(task))
        return fetched[-1]

    def replicating(task, reps, bank):
        assert any(kept is bank for kept in simlab._banks.values())
        replicated.extend(reps)
        return replicate(task, reps, bank)

    def running(*job):
        out = run_chunk(*job)
        ended.append((fetched[-1], kept_bytes()))
        assert any(kept is fetched[-1] for kept in simlab._banks.values())
        return out

    monkeypatch.setattr(simlab, "_kept_bank", fetching)
    monkeypatch.setattr(simlab, "_replicate_block", replicating)
    monkeypatch.setattr(simlab, "_run_chunk", running)
    for seed in (1, 2, 0):
        rows = run_experiment("power", *args, seed=seed, **kwargs).rows
        # every bank filled after its fetch, yet the budget holds between calls
        assert kept_bytes() <= simlab._BANK_BUDGET
    assert len(ended) == 3 * 2 * 3  # three calls of two cells of three jobs
    assert sorted(replicated) == sorted(list(range(40)) * 3 * 2)  # each bank was read
    assert all(total <= max(simlab._BANK_BUDGET, bank.nbytes) for bank, total in ended)
    assert rows == first  # seed 0's banks went and were drawn again


@pytest.mark.parametrize("kind, detectors", [("dating", ["FF", "fPCA@0.90"]),
                                             ("coverage", ["FF"]),
                                             ("size", ["Aligned", "fPCA@0.90"])])
def test_runs_that_read_no_ff_null_take_no_bank(kind, detectors):
    specs = [] if kind == "size" else [BreakSpec(m=1, snr=1.0, theta=0.5)]
    run_experiment(kind, DgpConfig(setting=1, n=30), specs, detectors=detectors,
                   reps=4, workers=1)
    assert simlab._banks == {}


def start_in_own_group(child) -> None:
    """Start ``child`` as the leader of a process group of its own; its target
    calls ``os.setpgid(0, 0)`` first, so either side may set it first."""
    child.start()
    os.setpgid(child.pid, child.pid)


def join_or_kill_group(child) -> None:
    """Join ``child``; if it hangs, kill its whole group, so that no pool
    worker it started outlives the test."""
    child.join(timeout=60)
    if child.is_alive():
        os.killpg(child.pid, signal.SIGKILL)
        child.join()


def run_in_child(results) -> None:
    os.setpgid(0, 0)
    results.put((dict(simlab._banks), small_run(1)))


def test_a_forked_child_starts_without_banks_or_held_locks():
    # the parent holds the cache's lock and a bank's lock across the fork, as
    # another of its threads may: the child must neither wait on them nor
    # read the parent's bank
    expected = small_run(1)
    (bank,) = simlab._banks.values()
    fork = multiprocessing.get_context("fork")
    results = fork.Queue()
    with simlab._banks_lock, bank._lock:
        child = fork.Process(target=run_in_child, args=(results,))
        start_in_own_group(child)
    try:
        kept, rows = results.get(timeout=60)
    finally:
        join_or_kill_group(child)
    assert child.exitcode == 0
    assert kept == {} and rows == expected


def run_on_a_pool_in_child(results) -> None:
    os.setpgid(0, 0)
    results.put(small_run(2))  # the child's exit must still stop its pool


def test_a_forked_child_of_a_pool_keeper_runs_on_a_pool_of_its_own():
    # the child inherits the record of the parent's kept pool but not its
    # threads, and the parent holds the pool's lock across the fork, as another
    # of its threads may: the child must make its own pool and not wait
    expected = small_run(1)
    small_run(2)
    fork = multiprocessing.get_context("fork")
    results = fork.Queue()
    with simlab._pool_lock:
        child = fork.Process(target=run_on_a_pool_in_child, args=(results,))
        start_in_own_group(child)
    try:
        rows = results.get(timeout=60)
    finally:
        join_or_kill_group(child)
    assert child.exitcode == 0
    assert rows == expected


def test_failed_replications_are_counted(monkeypatch):
    import funcbreak.simlab as simlab

    calls = {"k": 0}
    original = simlab.fit_fpca

    def flaky(*args, **kwargs):
        calls["k"] += 1
        if calls["k"] % 3 == 0:
            raise RuntimeError("synthetic failure")
        return original(*args, **kwargs)

    monkeypatch.setattr(simlab, "fit_fpca", flaky)
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


@pytest.mark.parametrize("option, value, message", [
    ("null_reps", 0, "at least one replication"),
    ("null_grid", 50, "at least 100 steps"),
])
def test_null_options_are_checked_before_any_replication(monkeypatch, option,
                                                         value, message):
    def no_work(*args):
        raise AssertionError("a replication ran")

    monkeypatch.setattr(simlab, "_run_chunk", no_work)
    with pytest.raises(ValueError, match=message):
        run_experiment("size", DgpConfig(setting=1, n=30), detectors=["FF"],
                       reps=6, workers=1, **{option: value})


def test_non_integer_thread_cap_names_the_variable(monkeypatch):
    monkeypatch.setenv("FUNCBREAK_THREADS", "2.5")
    with pytest.raises(ValueError, match="FUNCBREAK_THREADS"):
        run_experiment("size", DgpConfig(setting=1, n=20), detectors=["FF"],
                       reps=1, workers=1)
