"""The FF null draws run on a thread pool; nothing may depend on its size.

Every check compares with ``serial_null_draws``, the serial loop that
``simulate_null_limit`` ran before its replications were spread over threads.
"""

import os
import sys
import threading

import numpy as np
import pytest

import funcbreak.detect as detect
from funcbreak.basis import CurveSeries, FourierBasis
from funcbreak.cli import main
from funcbreak.detect import resolve_workers, simulate_null_limit
from funcbreak.detect import test as ff_test

# FUNCBREAK_THREADS values; None leaves it unset (then all of the CPUs are used)
THREAD_CAPS = ["1", "2", None]
# CPUs reported to the code under test, so that an unset cap means 3 threads
CPUS = 3


def serial_null_draws(eigenvalues, reps, grid, seed):
    """Sorted grid maxima of sum_l lam_l B_l^2, replication i drawn from the
    i-th child of SeedSequence(seed), one replication after the other."""
    lam = np.clip(np.asarray(eigenvalues, dtype=float).ravel(), 0.0, None)
    if not lam.any():
        return np.zeros(reps)
    lam_over_grid = lam[lam > 0] / grid
    grid_frac = np.arange(1, grid + 1) / grid
    draws = np.empty(reps)
    for i, child in enumerate(np.random.SeedSequence(seed).spawn(reps)):
        z = np.random.default_rng(child).standard_normal((lam_over_grid.size, grid))
        np.cumsum(z, axis=1, out=z)
        endpoint = z[:, -1].copy()
        z -= endpoint[:, None] * grid_frac
        np.square(z, out=z)
        draws[i] = (lam_over_grid @ z).max()
    return np.sort(draws)


@pytest.fixture(params=THREAD_CAPS, ids=lambda cap: f"cap={cap}")
def thread_cap(request, monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: CPUS)
    if request.param is None:
        monkeypatch.delenv("FUNCBREAK_THREADS", raising=False)
    else:
        monkeypatch.setenv("FUNCBREAK_THREADS", request.param)
    return request.param


def seeded_series(seed, n=40, d=5):
    rng = np.random.default_rng(seed)
    data = rng.standard_normal((n, d)) * 2.0 ** -np.arange(d)
    data[n // 2:, 0] += 0.4
    return CurveSeries(data, FourierBasis(d))


def test_thread_count_follows_the_cap(thread_cap):
    assert resolve_workers(None) == (CPUS if thread_cap is None else int(thread_cap))


@pytest.mark.parametrize("lam, reps, grid, seed", [
    ([1.0, 0.5, 0.25, 0.0, -0.1], 101, 150, 3),
    ([2.0], 2, 100, 4),  # fewer replications than threads
    ([0.7, 0.3], 1, 120, 5),
    ([0.0, 0.0, -1e-3], 7, 100, 6),  # the degenerate all-zero spectrum
])
def test_null_draws_equal_the_serial_loop(thread_cap, lam, reps, grid, seed):
    sample = simulate_null_limit(lam, reps=reps, grid=grid, seed=seed)
    assert np.array_equal(sample.draws, serial_null_draws(lam, reps, grid, seed))
    assert sample.degenerate == (max(lam) <= 0.0)


def test_draws_run_off_the_calling_thread_only_when_allowed(thread_cap, monkeypatch):
    callers = set()
    block = detect._bridge_sq_block

    def recording(*args):
        callers.add(threading.get_ident())
        return block(*args)

    monkeypatch.setattr(detect, "_bridge_sq_block", recording)
    simulate_null_limit([1.0, 0.5], reps=20, grid=100, seed=1)
    on_caller = callers == {threading.get_ident()}
    assert on_caller == (thread_cap == "1")


@pytest.mark.parametrize("seed", [11, 12])
def test_test_report_equals_the_serial_loop(thread_cap, seed):
    series = seeded_series(seed)
    reps, grid = 199, 150
    report = ff_test(series, reps=reps, grid=grid, seed=seed)
    draws = serial_null_draws(report.eigenvalues_used, reps, grid, seed)
    assert report.p_value == (1 + np.count_nonzero(draws >= report.stat)) / (reps + 1)
    assert report.critical_values == {
        a: float(np.quantile(draws, 1.0 - a)) for a in (0.01, 0.05, 0.10)}
    assert not report.degenerate


def test_many_threads_with_frequent_switches_match_the_serial_loop(monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    monkeypatch.delenv("FUNCBREAK_THREADS", raising=False)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        sample = simulate_null_limit([1.0, 0.4, 0.1], reps=61, grid=100, seed=8)
    finally:
        sys.setswitchinterval(interval)
    assert np.array_equal(sample.draws, serial_null_draws([1.0, 0.4, 0.1], 61, 100, 8))


def test_non_integer_thread_cap_is_named(monkeypatch, tmp_path, capsys):
    monkeypatch.setenv("FUNCBREAK_THREADS", "two")
    with pytest.raises(ValueError, match="FUNCBREAK_THREADS must be an integer, got 'two'"):
        simulate_null_limit([1.0], reps=10, grid=100, seed=0)
    with pytest.raises(ValueError, match="FUNCBREAK_THREADS"):
        ff_test(seeded_series(1), reps=10, grid=100, seed=0)
    # the CLI reports it as an input error before reading any file
    for command in ("detect", "date"):
        assert main([command, str(tmp_path / "absent.csv")]) == 2
        assert "error: FUNCBREAK_THREADS must be an integer" in capsys.readouterr().err
