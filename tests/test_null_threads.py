"""The FF null draws run on a thread pool; nothing may depend on its size.

Every check of the sampler compares with ``serial_null_draws``, a serial loop
over the blocks of replications that ``simulate_null_limit`` spreads over
threads, or, where a block is one replication, with a loop over replications.
The CLI checks compare the reports of one daily CSV under each thread cap.
"""

import json
import os
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

import funcbreak.detect as detect
import funcbreak.simlab as simlab
from funcbreak.basis import CurveSeries, FourierBasis
from funcbreak.cli import main
from funcbreak.detect import NullBank, fit_break, resolve_workers, simulate_null_limit
from funcbreak.detect import test as ff_test
from funcbreak.simlab import BreakSpec, DgpConfig, run_experiment
from limit_oracles import serial_null_maxima

# FUNCBREAK_THREADS values; None leaves it unset (then all of the CPUs are used)
THREAD_CAPS = ["1", "2", None]
# CPUs reported to the code under test, so that an unset cap means 3 threads
CPUS = 3


def serial_null_draws(eigenvalues, reps, grid, seed):
    """Sorted grid maxima of sum_l lam_l B_l^2, block b of replications drawn
    from the b-th child of SeedSequence(seed), one block after the other."""
    return np.sort(serial_null_maxima(eigenvalues, reps, grid, seed))


def per_replication_draws(eigenvalues, reps, grid, seed):
    """Sorted grid maxima of sum_l lam_l B_l^2 for positive lam, replication i
    drawn alone by SFC64 from the i-th child of SeedSequence(seed)."""
    lam = np.asarray(eigenvalues, dtype=float)
    steps = np.arange(1, grid + 1) / grid
    draws = []
    for child in np.random.SeedSequence(seed).spawn(reps):
        rng = np.random.Generator(np.random.SFC64(child))
        walks = np.cumsum(rng.standard_normal((lam.size, grid)), axis=1)
        bridges = walks - walks[:, -1:] * steps
        draws.append(((lam / grid) @ np.square(bridges)).max())
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


# two positive eigenvalues on 100 steps: blocks of 2^15 // 200 = 163 replications
BLOCK_LAM, BLOCK_GRID, BLOCK = [1.0, 0.5], 100, 163


@pytest.mark.parametrize("reps", [1, 20, BLOCK, BLOCK + 1, 2 * BLOCK + 74],
                         ids=["one", "fewer-than-a-block", "one-block",
                              "one-in-the-last-block", "partial-last-block"])
def test_a_short_block_draws_the_start_of_a_full_one(thread_cap, reps):
    # block b comes from child b whatever reps is, and a block of fewer than B
    # replications draws the first normals of its child's full block
    full = serial_null_maxima(BLOCK_LAM, 3 * BLOCK, BLOCK_GRID, 9)
    sample = simulate_null_limit(BLOCK_LAM, reps=reps, grid=BLOCK_GRID, seed=9)
    assert np.array_equal(sample.draws, np.sort(full[:reps]))


@pytest.mark.parametrize("lam, grid, reps", [
    (np.linspace(1.0, 0.2, 17), 1000, 23),  # D grid = 17000
    ([1.0, 0.3], 8193, 5),  # D grid = 16386
])
def test_one_replication_blocks_draw_each_replication_from_its_own_child(
        thread_cap, lam, grid, reps):
    # past 2^14 normals per replication a block is one replication
    sample = simulate_null_limit(lam, reps=reps, grid=grid, seed=10)
    assert np.array_equal(sample.draws, per_replication_draws(lam, reps, grid, 10))


def test_draws_run_off_the_calling_thread_only_when_allowed(thread_cap, monkeypatch):
    callers = set()
    squared_bridges = detect._squared_bridges

    def recording(*args):
        callers.add(threading.get_ident())
        return squared_bridges(*args)

    monkeypatch.setattr(detect, "_squared_bridges", recording)
    simulate_null_limit([1.0, 0.5], reps=20, grid=100, seed=1)
    on_caller = callers == {threading.get_ident()}
    assert on_caller == (thread_cap == "1")


@pytest.mark.parametrize("seed", [11, 12])
def test_test_report_equals_the_serial_loop(thread_cap, seed):
    series = seeded_series(seed)
    reps, grid = 199, 150
    report = ff_test(fit_break(series), reps=reps, grid=grid, seed=seed)
    draws = serial_null_draws(report.eigenvalues_used, reps, grid, seed)
    assert report.p_value == (1 + np.count_nonzero(draws >= report.stat)) / (reps + 1)
    assert report.critical_values == {
        a: float(np.quantile(draws, 1.0 - a)) for a in (0.01, 0.05, 0.10)}
    assert not report.degenerate


@pytest.mark.parametrize("n", [30, 149])
def test_default_grid_draws_the_serial_loop_on_the_series_own_steps(thread_cap, n):
    fit = fit_break(seeded_series(n, n=n))
    report = ff_test(fit, seed=n)
    assert report.config["grid"] == n
    draws = serial_null_draws(report.eigenvalues_used, 1000, n, n)
    assert report.p_value == (1 + np.count_nonzero(draws >= report.stat)) / 1001
    assert report.critical_values == {
        a: float(np.quantile(draws, 1.0 - a)) for a in (0.01, 0.05, 0.10)}
    bank = NullBank(n)
    for alpha in (0.01, 0.05, 0.10, report.p_value):
        assert bank.rejects(fit, alpha) == (report.p_value <= alpha)


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


def test_serial_calls_on_threads_share_one_bank_and_draw_each_block_once(monkeypatch):
    # a strong break makes FF read every block of the cell's bank: 199 draws
    # of D = 21 bridges on 30 steps come in 4 blocks
    args = ("power", DgpConfig(setting=3, n=30), [BreakSpec(m=1, snr=4.0, theta=0.5)])
    kwargs = dict(detectors=["FF"], reps=24, seed=5, workers=1, null_reps=199)
    expected = run_experiment(*args, **kwargs).rows
    (sequential,) = simlab._banks.values()
    simlab._forget_banks()
    drawn = []
    null_rng = detect._null_rng

    def recording(child):
        drawn.append(child.spawn_key)
        # slow draws, the later blocks faster: threads that read the bank
        # meanwhile must wait for the block, not draw the next one
        time.sleep(0.01 * (4 - child.spawn_key[-1]))
        return null_rng(child)

    monkeypatch.setattr(detect, "_null_rng", recording)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(4) as threads:
            calls = [threads.submit(run_experiment, *args, **kwargs) for _ in range(4)]
            results = [call.result(timeout=120) for call in calls]
    finally:
        sys.setswitchinterval(interval)
    assert all(result.rows == expected for result in results)
    assert drawn == [(0, 0, b) for b in range(4)]
    (shared,) = simlab._banks.values()
    kept, in_order = shared._banks[21, 30][1], sequential._banks[21, 30][1]
    assert len(kept) == len(in_order) == 4
    assert all(np.array_equal(a, b) for a, b in zip(kept, in_order))


def test_non_integer_thread_cap_is_named(monkeypatch, tmp_path, capsys):
    monkeypatch.setenv("FUNCBREAK_THREADS", "two")
    with pytest.raises(ValueError, match="FUNCBREAK_THREADS must be an integer, got 'two'"):
        simulate_null_limit([1.0], reps=10, grid=100, seed=0)
    with pytest.raises(ValueError, match="FUNCBREAK_THREADS"):
        ff_test(fit_break(seeded_series(1)), reps=10, grid=100, seed=0)
    # the CLI reports it as an input error before reading any file
    for command in ("detect", "date"):
        assert main([command, str(tmp_path / "absent.csv")]) == 2
        assert "error: FUNCBREAK_THREADS must be an integer" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["detect", "date"])
def test_cli_report_does_not_depend_on_the_thread_count(monkeypatch, tmp_path,
                                                        daily_csv, command):
    # a cap of 3 threads can exceed the machine's CPUs; unset, all CPUs are used
    reports = []
    for cap in ("1", "2", "3", None):
        if cap is None:
            monkeypatch.delenv("FUNCBREAK_THREADS", raising=False)
        else:
            monkeypatch.setenv("FUNCBREAK_THREADS", cap)
        out = tmp_path / f"{command}-{cap}.json"
        assert main([command, str(daily_csv), "--seed", "1", "--out", str(out)]) == 0
        reports.append(out.read_bytes())
    assert reports[1:] == reports[:1] * 3


def test_cli_default_grid_equals_an_explicit_grid_of_n(tmp_path, daily_csv):
    # the default null grid is the series' own n steps (149 curves: one year is
    # dropped); an explicit grid of n must draw through the same path
    reports = []
    for name, extra in (("default", []), ("grid", ["--grid", "149"])):
        out = tmp_path / f"{name}.json"
        assert main(["date", str(daily_csv), "--seed", "1", "--out", str(out), *extra]) == 0
        reports.append(out.read_bytes())
    assert reports[0] == reports[1]
    assert json.loads(reports[0])["config"]["grid"] == 149
