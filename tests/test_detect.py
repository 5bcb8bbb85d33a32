import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from funcbreak.basis import CurveSeries, FourierBasis, eigen_decompose
from funcbreak.dating import date_break
from funcbreak.detect import (
    NullBank,
    _bridge_weights,
    cusum_norm_sq,
    cusum_paths,
    fit_break,
    simulate_null_limit,
    test as ff_test,
)
from funcbreak.fpca import _aligned_direction
from funcbreak.longrun import longrun_kernel
from limit_oracles import detector_stat, serial_null_maxima


def make_series(data):
    data = np.asarray(data, dtype=float)
    return CurveSeries(data, FourierBasis(data.shape[1]))


def random_series(rng, n, d):
    return make_series(rng.standard_normal((n, d)))


def direct_cusum_norm_sq(series):
    """Literal per-k double summation of the CUSUM definition."""
    x = series.data
    n = x.shape[0]
    total = x.sum(axis=0)
    out = np.empty(n + 1)
    for k in range(n + 1):
        s = x[:k].sum(axis=0) - (k / n) * total
        out[k] = (s @ s) / n
    return out


def test_identical_curves_give_zero_cusum():
    series = make_series(np.tile([1.0, -2.0, 0.5], (8, 1)))
    np.testing.assert_allclose(cusum_norm_sq(series), np.zeros(9), atol=1e-25)


def test_cusum_is_tied_down_exactly():
    rng = np.random.default_rng(0)
    series = random_series(rng, 17, 4)
    norms = cusum_norm_sq(series)
    assert norms[0] == 0.0
    assert norms[-1] == 0.0


def test_prefix_sums_match_direct_summation():
    rng = np.random.default_rng(1)
    for _ in range(10):
        series = random_series(rng, int(rng.integers(2, 60)), int(rng.integers(1, 8)))
        np.testing.assert_allclose(
            cusum_norm_sq(series), direct_cusum_norm_sq(series), atol=1e-10
        )


def test_constant_series_statistic_is_zero():
    series = make_series(np.tile([2.0, 1.0], (12, 1)))
    assert detector_stat(series) == 0.0


def test_noiseless_step_has_closed_form_statistic():
    n, k_star, d = 30, 11, 5
    delta = np.array([1.0, 0.0, -2.0, 0.5, 0.0])
    data = np.zeros((n, d))
    data[k_star:] += delta
    expected = k_star**2 * (n - k_star) ** 2 / n**3 * float(delta @ delta)
    assert detector_stat(make_series(data)) == pytest.approx(expected, abs=1e-12)


@settings(max_examples=25, deadline=None)
@given(
    n=st.integers(2, 25),
    d=st.integers(1, 6),
    seed=st.integers(0, 2**31),
)
def test_statistic_is_shift_invariant(n, d, seed):
    rng = np.random.default_rng(seed)
    data = rng.standard_normal((n, d))
    shift = rng.standard_normal(d)
    base = detector_stat(make_series(data))
    shifted = detector_stat(make_series(data + shift))
    assert shifted == pytest.approx(base, abs=1e-10)


@settings(max_examples=25, deadline=None)
@given(
    n=st.integers(2, 25),
    d=st.integers(1, 6),
    scale=st.floats(0.1, 10.0),
    seed=st.integers(0, 2**31),
)
def test_statistic_is_scale_equivariant(n, d, scale, seed):
    rng = np.random.default_rng(seed)
    data = rng.standard_normal((n, d))
    base = detector_stat(make_series(data))
    scaled = detector_stat(make_series(scale * data))
    assert scaled == pytest.approx(scale**2 * base, abs=1e-10, rel=1e-9)


def test_time_reversal_permutes_cusum_norms():
    rng = np.random.default_rng(2)
    series = random_series(rng, 23, 3)
    reversed_series = make_series(series.data[::-1])
    forward = cusum_norm_sq(series)
    backward = cusum_norm_sq(reversed_series)
    np.testing.assert_allclose(backward, forward[::-1], atol=1e-10)
    assert detector_stat(reversed_series) == pytest.approx(
        detector_stat(series), abs=1e-10
    )


def test_null_simulation_zero_spectrum_is_degenerate():
    sample = simulate_null_limit([0.0, 0.0], reps=50, grid=200, seed=1)
    assert sample.degenerate
    np.testing.assert_array_equal(sample.draws, np.zeros(50))
    # no resolved eigenvalue: empty weights, whose bridge sums are zero
    lam_over_grid, grid_frac = _bridge_weights([0.0, -1e-3], reps=50, grid=200)
    assert lam_over_grid.shape == (0,) and grid_frac.shape == (200,)


def test_null_simulation_scales_linearly_in_eigenvalues():
    lam = np.array([0.7, 0.2, 0.05])
    a = simulate_null_limit(lam, reps=200, grid=200, seed=9)
    b = simulate_null_limit(2.0 * lam, reps=200, grid=200, seed=9)
    np.testing.assert_allclose(b.draws, 2.0 * a.draws, rtol=1e-12)


def test_null_simulation_is_deterministic_per_seed():
    a = simulate_null_limit([1.0, 0.5], reps=100, grid=150, seed=42)
    b = simulate_null_limit([1.0, 0.5], reps=100, grid=150, seed=42)
    np.testing.assert_array_equal(a.draws, b.draws)


def test_null_simulation_clips_negative_eigenvalues():
    a = simulate_null_limit([1.0, -0.3], reps=100, grid=150, seed=5)
    b = simulate_null_limit([1.0, 0.0], reps=100, grid=150, seed=5)
    np.testing.assert_array_equal(a.draws, b.draws)


def test_null_simulation_drops_rounding_level_eigenvalues():
    # below D eps max(lam) an eigenvalue is eigh's rounding noise, not a bridge
    a = simulate_null_limit([1.0, 1.0, 1.0, 1e-17, 1e-33, -8e-17], reps=100,
                            grid=150, seed=6)
    b = simulate_null_limit([1.0, 1.0, 1.0], reps=100, grid=150, seed=6)
    np.testing.assert_array_equal(a.draws, b.draws)


def test_null_simulation_of_a_tiny_spectrum_draws_its_resolvable_part():
    # the floor is relative to the largest eigenvalue, not absolute
    a = simulate_null_limit([1e-20, 3e-21, 1e-37, 5e-36], reps=100, grid=150, seed=8)
    b = simulate_null_limit([1e-20, 3e-21], reps=100, grid=150, seed=8)
    assert not a.degenerate and np.all(a.draws > 0.0)
    np.testing.assert_array_equal(a.draws, b.draws)


def test_null_simulation_validates_inputs():
    with pytest.raises(ValueError, match="replication"):
        simulate_null_limit([1.0], reps=0, grid=1000)


def test_null_law_on_the_n_steps_is_the_law_of_the_statistic():
    # for iid N(0, diag lam) curves, max_k ||CUSUM_k||^2 has exactly the law
    # of max_k sum_l lam_l B_l^2(k/n) with the bridges on the n steps
    rng = np.random.default_rng(20)
    lam, n, reps = np.array([1.0, 0.5, 0.2]), 20, 2000
    statistic = np.array([
        cusum_norm_sq(make_series(rng.standard_normal((n, 3)) * np.sqrt(lam))).max()
        for _ in range(reps)])
    on_n_steps = simulate_null_limit(lam, reps=reps, grid=n, seed=21)
    assert stats.ks_2samp(statistic, on_n_steps.draws).pvalue > 0.01
    # the fine grid approximates the continuous supremum, which lies above
    continuous = simulate_null_limit(lam, reps=reps, grid=1000, seed=22)
    assert continuous.quantile(0.5) > max(np.median(statistic), on_n_steps.quantile(0.5))


def test_null_simulation_takes_any_positive_grid():
    coarse = simulate_null_limit([1.0, 0.5], reps=30, grid=7, seed=2)
    assert coarse.draws.shape == (30,) and np.all(coarse.draws > 0.0)
    with pytest.raises(ValueError, match="grid"):
        simulate_null_limit([1.0], reps=10, grid=0)


def test_single_rep_pvalue_uses_finite_sample_convention():
    rng = np.random.default_rng(3)
    series = random_series(rng, 40, 4)
    report = ff_test(fit_break(series), reps=1, seed=0)
    assert report.p_value in (0.5, 1.0)


def test_large_noiseless_step_rejects_at_floor_pvalue():
    n, d = 60, 4
    data = np.zeros((n, d))
    data[30:, 0] += 5.0
    rng = np.random.default_rng(4)
    data += 0.01 * rng.standard_normal((n, d))
    report = ff_test(fit_break(make_series(data)), reps=199, seed=1)
    assert report.p_value == pytest.approx(1.0 / 200.0)
    assert report.stat > report.critical_values[0.05]


def test_null_kernel_demeaning_rule():
    # pure noise: the step fitted at the argmax carries little of the variance,
    # so the kernel is demeaned by the overall mean
    rng = np.random.default_rng(10)
    noise = ff_test(fit_break(random_series(rng, 50, 4)), reps=19, grid=100, seed=0)
    assert noise.config["split"] is None
    # noiseless step: the split kernel vanishes, so the kernel is split at k_hat
    data = np.zeros((40, 3))
    data[15:, 1] += 2.0
    step = ff_test(fit_break(make_series(data)), reps=19, grid=100, seed=0)
    assert step.config["split"] == 15
    assert step.p_value == pytest.approx(1.0 / 20.0)


def hand_aligned_stat(fit, kernel):
    """The aligned statistic written out from a given long-run kernel."""
    series = fit.series
    lead = eigen_decompose(kernel).vectors[:, 0]
    direction = _aligned_direction(lead, fit.paths[fit.k_hat], series.n)
    proj = (series.data - series.data.mean(axis=0)) @ direction
    cusum = np.cumsum(proj) - np.arange(1, series.n + 1) / series.n * proj.sum()
    variance = direction @ kernel.entries @ direction
    return float(np.max(cusum**2) / (series.n * variance))


def test_test_dating_and_aligned_share_one_break_fit(monkeypatch):
    import funcbreak.detect as detect
    import funcbreak.fpca as fpca

    rng = np.random.default_rng(12)
    data = 0.3 * rng.standard_normal((60, 4))
    data[35:] += np.array([1.5, -1.0, 0.0, 0.5])
    series = make_series(data)
    noise = make_series(0.3 * rng.standard_normal((60, 4)))

    # count the rows of the CUSUMs, split kernels and spectra that fits compute
    cusums, splits, spectra = [], [], []
    paths, entries, eigen = detect._cusum_stack, detect._kernel_entries, detect._eigen_stack

    def recording_paths(data):
        cusums.extend(data)
        return paths(data)

    def recording_entries(data, h=1.0, split=None):
        splits.extend(split or [])
        return entries(data, h, split)

    def recording_eigen(a):
        spectra.extend(a)
        return eigen(a)

    monkeypatch.setattr(detect, "_cusum_stack", recording_paths)
    monkeypatch.setattr(detect, "_kernel_entries", recording_entries)
    monkeypatch.setattr(detect, "_eigen_stack", recording_eigen)
    fit = fit_break(series)
    report = ff_test(fit, 0.05, reps=19, grid=100, seed=0)
    dated = date_break(fit, 0.05)
    aligned = fpca.aligned_statistic(fit)
    fitted = fpca.fit_fpca(fit, d=2)

    # the four consumers read the one fit and compute no CUSUM or kernel of
    # their own; the interval reads the test's spectrum of the kept split kernel
    assert len(cusums) == 1 and splits == [fit.k_hat]
    assert len(spectra) == 2  # and fPCA the covariance spectrum
    assert fitted.k_hat == fit.k_hat  # the step dominates every direction
    assert report.stat == fit.norms[1:].max() == fit.norms[fit.k_hat]
    assert report.k_hat == report.config["split"] == fit.k_hat
    assert report.config["h"] == fit.h
    assert dated.k_hat == fit.k_hat
    assert dated.config["h"] == fit.h

    # the aligned detector reads the kernel the test chose: split at k_hat for
    # the dominant step, the overall-mean kernel for noise
    noise_fit = fit_break(noise)
    noise_report = ff_test(noise_fit, 0.05, reps=19, grid=100, seed=0)
    noise_aligned = fpca.aligned_statistic(noise_fit)
    assert len(cusums) == len(splits) == 2 and noise_report.config["split"] is None
    assert len(spectra) == 3
    for f, rep, stat in ((fit, report, aligned), (noise_fit, noise_report, noise_aligned)):
        kernels = {f.k_hat: f.kernel,
                   None: longrun_kernel(f.series, h=f.h)}
        chosen = kernels.pop(rep.config["split"])
        assert stat == pytest.approx(hand_aligned_stat(f, chosen), rel=1e-12)
        other = hand_aligned_stat(f, kernels.popitem()[1])
        assert stat != pytest.approx(other, rel=1e-3)


def test_a_kernel_read_that_raises_is_not_kept(monkeypatch):
    import funcbreak.detect as detect

    rng = np.random.default_rng(15)
    data = 0.3 * rng.standard_normal((60, 4))
    data[35:] += np.array([1.5, -1.0, 0.0, 0.5])
    lone, fit = fit_break(make_series(data)), fit_break(make_series(data))
    entries = detect._kernel_entries

    def raising_once(*args, **kwargs):
        monkeypatch.setattr(detect, "_kernel_entries", entries)
        raise np.linalg.LinAlgError("synthetic failure")

    # the first read raises, and the next reader computes the kernels again
    monkeypatch.setattr(detect, "_kernel_entries", raising_once)
    with pytest.raises(np.linalg.LinAlgError, match="synthetic"):
        fit.null

    def as_bytes(f):
        split, kernel, eig = f.null
        return (split, *(a.tobytes() for a in (
            f.kernel.entries, kernel.entries, eig.values, eig.vectors)))

    assert as_bytes(fit) == as_bytes(lone)


def test_reports_echo_the_config_of_their_fit():
    # the test and the interval echo the bandwidth of the fit's kernel, the
    # one Bartlett rule, and the test's grid is the fit's n
    rng = np.random.default_rng(14)
    data = 0.3 * rng.standard_normal((60, 4))
    data[35:] += np.array([1.5, -1.0, 0.0, 0.5])
    fit = fit_break(make_series(data))
    report = ff_test(fit, reps=19, seed=0)
    dated = date_break(fit)
    for config in (report.config, dated.config):
        assert "weight" not in config and "bandwidth" not in config
        assert config["h"] == fit.h == 60 ** (1 / 4)
    assert report.config["grid"] == fit.series.n == 60


def seeded_series(seed):
    """Noise with D = 4 and n in [10, 60]; every third seed adds a mean step."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(10, 61))
    data = rng.standard_normal((n, 4)) * np.array([1.0, 0.6, 0.3, 0.1])
    if seed % 3 == 0:
        data[n // 2:] += 0.5 * rng.standard_normal(4)
    return make_series(data)


@pytest.mark.parametrize("reps", [19, 99])
def test_rejects_is_the_decision_of_test(reps):
    # with reps = 19 the p-values (1 + c) / 20 hit 0.05, 0.1 and 0.5 exactly
    hits = 0
    for seed in range(30):
        fit = fit_break(seeded_series(seed))
        p_value = ff_test(fit, reps=reps, grid=100, seed=seed).p_value
        bank = NullBank(seed, reps, grid=100)
        for alpha in (0.01, 0.05, 0.1, 0.5):
            hits += p_value == alpha
            assert bank.rejects(fit, alpha) == (p_value <= alpha)
    if reps == 19:
        assert hits > 0


def test_rejects_on_a_degenerate_spectrum_matches_test():
    # constant series: stat 0 and every zero draw reaches it, p = 1
    constant = make_series(np.tile([2.0, 1.0, -1.0], (12, 1)))
    # noiseless step: the split kernel is zero, no zero draw reaches stat > 0
    data = np.zeros((40, 3))
    data[15:, 1] += 2.0
    step = make_series(data)
    for series, expected in ((constant, False), (step, True)):
        fit = fit_break(series)
        report = ff_test(fit, reps=19, grid=100, seed=0)
        assert report.degenerate
        bank = NullBank(0, 19, grid=100)
        for alpha in (0.01, 0.05, 0.1, 0.5):
            assert bank.rejects(fit, alpha) == (report.p_value <= alpha)
        assert bank.rejects(fit, 0.05) == expected


def test_rounding_level_cusum_counts_as_zero():
    # a constant series up to last-bit noise has no break; a relative 1e-9
    # step is far above rounding and stays a break
    rng = np.random.default_rng(3)
    level = np.tile([2.0, -1.0, 0.5], (12, 1))
    noisy = make_series(level * (1.0 + 4e-16 * rng.standard_normal(level.shape)))
    fit = fit_break(noisy)
    assert fit.norms[fit.k_hat] > 0.0 and fit.flat
    report = ff_test(fit, reps=19, grid=100, seed=0)
    assert report.stat == 0.0 and report.p_value == 1.0
    assert not NullBank(0, 19, grid=100).rejects(fit, 0.5)
    with pytest.raises(ValueError, match="break function is zero"):
        date_break(fit)
    step = level.copy()
    step[6:] *= 1.0 + 1e-9
    assert not fit_break(make_series(step)).flat
    assert ff_test(fit_break(make_series(step)), reps=19, grid=100, seed=0).stat > 0.0


def test_fit_break_rejects_coefficients_whose_fourth_powers_overflow():
    rng = np.random.default_rng(4)
    data = rng.standard_normal((30, 3))
    data[15:] += 1.0
    for scale in (1e80, 1e155):
        with pytest.raises(OverflowError, match="overflow"):
            fit_break(make_series(scale * data))
    fit = fit_break(make_series(1e70 * data))
    assert fit.k_hat == fit_break(make_series(data)).k_hat and not fit.flat


def test_kernel_of_fewer_than_four_curves_is_refused():
    rng = np.random.default_rng(5)
    fit = fit_break(random_series(rng, 3, 2))
    with pytest.raises(ValueError, match="n >= 4"):
        fit.kernel
    assert fit_break(random_series(rng, 4, 2)).h >= 1.0


def record_drawn_replications(monkeypatch) -> list:
    """A list that gets one entry, the block's generator, per replication that
    the null sampler draws."""
    import funcbreak.detect as detect

    drawn = []
    squared_bridges = detect._squared_bridges

    def counting(rng, size, *args):
        drawn.extend([rng] * size)
        return squared_bridges(rng, size, *args)

    monkeypatch.setattr(detect, "_squared_bridges", counting)
    return drawn


def test_rejects_stops_drawing_once_the_decision_is_final(monkeypatch):
    drawn = record_drawn_replications(monkeypatch)
    rng = np.random.default_rng(21)
    null = random_series(rng, 50, 3)
    assert not NullBank(3, 200, grid=100).rejects(fit_break(null), 0.05)
    assert 0 < len(drawn) < 200
    # a rejection is final only after every replication is drawn
    drawn.clear()
    data = 0.1 * rng.standard_normal((50, 3))
    data[25:, 0] += 1.0
    assert NullBank(3, 200, grid=100).rejects(fit_break(make_series(data)), 0.05)
    assert len(drawn) == 200


def deciding_case(d, grid, reps, seed, final, rejected):
    """A fit of D = d whose decision at 5% is ``rejected`` and becomes final
    after draw ``final`` (1-based) of the null at (reps, grid, seed)."""
    return pytest.param(d, grid, reps, seed, final, rejected,
                        id=f"{d}-{grid}-{reps}-{seed}")


def deciding_fit(d, grid, reps, seed, final, rejected):
    """The fit of a ``deciding_case`` and the number of blocks up to the one in
    which its decision becomes final; asserts the case's decision and draw."""
    import funcbreak.detect as detect

    rng = np.random.default_rng(seed)
    fit = fit_break(random_series(rng, 60 if d == 21 else 50, d))
    report = ff_test(fit, reps=reps, grid=grid, seed=seed)
    lam = report.eigenvalues_used
    assert np.count_nonzero(lam > 0) == d
    decided, exceed = reps, 0
    for i, draw in enumerate(serial_null_maxima(lam, reps, grid, seed), start=1):
        exceed += draw >= report.stat
        if (1 + exceed) / (reps + 1) > 0.05:
            decided = i
            break
    assert (report.p_value <= 0.05) == rejected
    assert decided == final
    block = max(1, detect._BLOCK_NORMALS // (d * grid))
    return fit, block, -(-final // block)


# 109 replications per block at d = 3, one at d = 21
@pytest.mark.parametrize("d, grid, reps, seed, final, rejected", [
    deciding_case(21, 1000, 99, 1, 5, False),  # final at draw 5, one replication per block
    deciding_case(21, 1000, 99, 2, 7, False),  # final at draw 7
    deciding_case(3, 100, 299, 3, 27, False),  # final at draw 27, early in the first block
    deciding_case(3, 100, 299, 11, 89, False),  # final at draw 89, late in the first block
    deciding_case(3, 100, 299, 33, 122, False),  # final at draw 122, in the second of three
    deciding_case(3, 100, 299, 29, 245, False),  # final at draw 245, in the last of three
    deciding_case(3, 100, 299, 5, 299, True),  # a rejection, final only at the last draw
])
def test_rejects_draws_up_to_the_end_of_the_deciding_block(monkeypatch, d, grid, reps,
                                                           seed, final, rejected):
    fit, block, blocks = deciding_fit(d, grid, reps, seed, final, rejected)
    drawn = record_drawn_replications(monkeypatch)
    bank = NullBank(seed, reps, grid=grid)
    assert bank.rejects(fit, 0.05) == rejected
    assert len(drawn) == min(reps, blocks * block)
    # a second read of the same fit draws nothing
    assert bank.rejects(fit, 0.05) == rejected
    assert len(drawn) == min(reps, blocks * block)


@pytest.mark.parametrize("d, grid, reps, seed, final, rejected", [
    deciding_case(21, 1000, 99, 1, 5, False),  # one replication per block, stops at 5
    deciding_case(3, 100, 299, 33, 122, False),  # stops in the second of three blocks
    deciding_case(3, 100, 299, 29, 245, False),  # stops in the last of three blocks
    deciding_case(3, 100, 299, 5, 299, True),  # a rejection reads every block
])
def test_rejects_spawns_only_the_blocks_it_reads(monkeypatch, d, grid, reps, seed,
                                                 final, rejected):
    children = []

    class CountingSeedSequence(np.random.SeedSequence):
        def __init__(self, *args, spawn_key=(), **kwargs):
            super().__init__(*args, spawn_key=spawn_key, **kwargs)
            if spawn_key:
                children.append(spawn_key)

    fit, _, blocks = deciding_fit(d, grid, reps, seed, final, rejected)
    drawn = record_drawn_replications(monkeypatch)
    monkeypatch.setattr(np.random, "SeedSequence", CountingSeedSequence)
    assert NullBank(seed, reps, grid=grid).rejects(fit, 0.05) == rejected
    assert children == [(b,) for b in range(blocks)]
    assert len(set(map(id, drawn))) == blocks


def test_rejects_checks_its_arguments_like_test():
    fit = fit_break(seeded_series(1))
    with pytest.raises(ValueError, match="alpha"):
        NullBank(0).rejects(fit, 1.0)
    with pytest.raises(ValueError, match="replication"):
        NullBank(0, reps=0).rejects(fit, 0.05)
    with pytest.raises(ValueError, match="grid"):
        NullBank(0, reps=10, grid=50).rejects(fit, 0.05)
    # an explicit grid approximates the continuous supremum and needs 100 steps
    with pytest.raises(ValueError, match="grid"):
        ff_test(fit, reps=10, grid=50)


def test_fits_that_share_a_bank_each_decide_as_test(monkeypatch):
    # D = 4 and one grid for all: one sub-bank, drawn as deep as the deepest fit
    fits = [fit_break(seeded_series(seed)) for seed in range(12)]
    decisions = [ff_test(fit, reps=199, grid=100, seed=7).p_value <= 0.05 for fit in fits]
    assert 0 < sum(decisions) < len(fits)
    depths = []  # replications that a bank of its own draws for each fit
    drawn = record_drawn_replications(monkeypatch)
    for fit in fits:
        drawn.clear()
        NullBank(7, 199, grid=100).rejects(fit, 0.05)
        depths.append(len(drawn))
    assert len(set(depths)) > 1
    drawn.clear()
    bank = NullBank(7, 199, grid=100)
    assert [bank.rejects(fit, 0.05) for fit in fits] == decisions
    assert len(drawn) == max(depths)
    assert list(bank._banks) == [(4, 100)]


def test_a_deeper_fit_extends_the_bank(monkeypatch):
    # a null fit decides in the first block, a break needs every block
    shallow = fit_break(seeded_series(1))
    data = 0.1 * np.random.default_rng(8).standard_normal((50, 4))
    data[25:, 0] += 1.0
    deep = fit_break(make_series(data))
    drawn = record_drawn_replications(monkeypatch)
    bank = NullBank(9, 299, grid=100)
    assert not bank.rejects(shallow, 0.05)
    first = list(drawn)
    assert 0 < len(first) < 299
    assert bank.rejects(deep, 0.05)
    assert len(drawn) == 299 and drawn[:len(first)] == first
    # the kept blocks are the ones that a fresh read of the same seed draws
    kept = bank._banks[4, 100]
    fresh = NullBank(9, 299, grid=100)
    assert fresh.rejects(deep, 0.05)
    assert all(np.array_equal(a, b) for a, b in zip(kept, fresh._banks[4, 100]))
    drawn.clear()
    assert not bank.rejects(shallow, 0.05) and bank.rejects(deep, 0.05)
    assert drawn == []


@pytest.mark.parametrize("grid", [None, 100])
def test_a_full_bank_keeps_the_blocks_that_simulate_null_limit_draws(grid):
    # a strong break makes rejects read every block; its kept blocks must
    # give the draws of test's streamed null at the same seed, reps and grid
    data = 0.1 * np.random.default_rng(8).standard_normal((50, 4))
    data[25:, 0] += 1.0
    fit = fit_break(make_series(data))
    bank = NullBank(9, 299, grid=grid)
    assert bank.rejects(fit, 0.05)
    steps = grid or fit.series.n
    lam = fit.null[2].values
    (kept,) = bank._banks.values()
    weights = lam[lam > lam.size * np.finfo(float).eps * lam.max()] / steps
    kept_maxima = np.concatenate([(weights @ block).max(axis=1) for block in kept])
    assert kept_maxima.size == 299
    sample = simulate_null_limit(lam, 299, steps, 9)
    assert np.array_equal(np.sort(kept_maxima), sample.draws)


def test_a_level_below_every_p_value_draws_nothing(monkeypatch):
    # at N = 99 the least p-value is 1 / 100 > 0.005: no count can reject
    fit = fit_break(seeded_series(3))
    expected = ff_test(fit, 0.005, reps=99, grid=100, seed=4).p_value <= 0.005
    drawn = record_drawn_replications(monkeypatch)
    assert NullBank(4, 99, grid=100).rejects(fit, 0.005) == expected
    assert drawn == []


def test_fits_of_another_resolved_dimension_read_their_own_sub_bank():
    # D = 4 and D = 2 (two columns of zeros) under one seed and one grid
    wide = fit_break(seeded_series(3))
    data = seeded_series(6).data.copy()
    data[:, 2:] = 0.0
    narrow = fit_break(make_series(data))
    bank = NullBank(5, 99, grid=100)
    for fit, dim in ((wide, 4), (narrow, 2), (wide, 4)):
        p_value = ff_test(fit, reps=99, grid=100, seed=5).p_value
        for alpha in (0.05, 0.5):
            assert bank.rejects(fit, alpha) == (p_value <= alpha)
        assert all(block.shape[1:] == (dim, 100) for block in bank._banks[dim, 100])
    assert sorted(bank._banks) == [(2, 100), (4, 100)]


def test_report_echoes_configuration():
    rng = np.random.default_rng(5)
    series = random_series(rng, 30, 3)
    report = ff_test(fit_break(series), alpha=0.10, reps=50, grid=120, seed=7)
    assert report.config["reps"] == 50
    assert report.config["grid"] == 120
    assert report.config["seed"] == 7
    assert report.config["h"] >= 1.0
    alphas = sorted(report.critical_values)
    crits = [report.critical_values[a] for a in alphas]
    assert crits == sorted(crits, reverse=True)


def test_null_pvalues_are_uniform():
    # Kolmogorov-Smirnov check on Monte Carlo p-values under the null. A valid
    # p-value promises P(p <= u) <= u for every u, so the check is one-sided:
    # it fails on oversize, while an asymptotic test whose 8x8 kernel is
    # estimated from 50 curves may be somewhat conservative at this n.
    rng = np.random.default_rng(6)
    sigma = 3.0 ** -np.arange(1.0, 9.0)
    pvals = []
    for _ in range(1000):
        data = rng.standard_normal((50, 8)) * sigma
        report = ff_test(fit_break(make_series(data)), reps=300, grid=300,
                         seed=int(rng.integers(2**63)))
        pvals.append(report.p_value)
    assert stats.kstest(pvals, "uniform", alternative="greater").pvalue > 0.01
