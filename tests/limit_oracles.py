"""Simulations of the paper's limit theorems that only the tests use.

``detector_stat`` is the FF statistic on its own; ``serial_null_maxima``
draws the FF null limit one block of replications after the other, in draw
order;
``no_break_argmax_sample`` draws the no-break law of the relative break date
from the null-limit bridge paths; ``simulate_fixed_break_limit`` draws the
fixed-break law of the dating error. The tests check the pipeline in ``src/``
against them.
"""

import numpy as np

from funcbreak.basis import Curve, CurveSeries
from funcbreak.dating import _replication_rngs
from funcbreak.detect import _bridge_sq_block, _bridge_weights, cusum_norm_sq

# normals per block of null replications, part of the seeded null layout
BLOCK_NORMALS = 1 << 15


def detector_stat(series: CurveSeries) -> float:
    """Max-type detector: the largest squared CUSUM norm over k = 1..n."""
    return float(cusum_norm_sq(series)[1:].max())


def serial_null_maxima(eigenvalues, reps, grid, seed) -> np.ndarray:
    """Grid maxima of sum_l lam_l B_l^2 in draw order, unsorted.

    For the D eigenvalues above L eps max(lam), L the length of the spectrum,
    replications are drawn in blocks of
    B = max(1, BLOCK_NORMALS // (D grid)): block b holds replications
    [bB, min((b + 1)B, reps)), drawn one block after the other from the b-th
    child of SeedSequence(seed) in one (size, D, grid) call.
    """
    lam = np.clip(np.asarray(eigenvalues, dtype=float).ravel(), 0.0, None)
    if not lam.any():
        return np.zeros(reps)
    lam_over_grid = lam[lam > lam.size * np.finfo(float).eps * lam.max()] / grid
    grid_frac = np.arange(1, grid + 1) / grid
    block = max(1, BLOCK_NORMALS // (lam_over_grid.size * grid))
    children = np.random.SeedSequence(seed).spawn(-(-reps // block))
    draws = np.empty(reps)
    for b, child in enumerate(children):
        start = b * block
        size = min(block, reps - start)
        z = np.random.default_rng(child).standard_normal((size, lam_over_grid.size, grid))
        np.cumsum(z, axis=2, out=z)
        endpoint = z[:, :, -1].copy()
        z -= endpoint[:, :, None] * grid_frac
        np.square(z, out=z)
        draws[start:start + size] = (lam_over_grid @ z).max(axis=1)
    return draws


def no_break_argmax_sample(eigenvalues, reps: int = 1000, grid: int = 1000,
                           seed=None) -> np.ndarray:
    """Draws of the argmax position of the weighted bridge norm on [0, 1].

    This is the no-break limit of the relative break date estimate; positions
    use the smallest maximizer on the grid. The paths, and the checks on the
    arguments, are those of ``simulate_null_limit``.
    """
    weights = _bridge_weights(eigenvalues, reps, grid)
    if weights[0].size == 0:
        raise ValueError("all eigenvalues are zero; argmax law is undefined")
    paths = (_bridge_sq_block(rng, 1, *weights)[0]
             for rng in _replication_rngs(seed, reps))
    draws = np.fromiter(((int(np.argmax(path)) + 1) / grid for path in paths),
                        dtype=float, count=reps)
    return np.sort(draws)


def simulate_fixed_break_limit(delta: Curve, theta: float, error_generator,
                               window: int, reps: int = 1000,
                               seed=None) -> np.ndarray:
    """Simulate the fixed-break limit law of the dating error.

    Draws the smallest maximizer over k in [-window, window] of the two-sided
    walk with drift -theta ||delta||^2 k for k >= 0 and (1-theta) ||delta||^2 k
    for k < 0, plus the inner products of delta with partial sums of generated
    errors. ``error_generator(rng, count)`` must return a (count, D) array of
    error-curve coefficients; the first ``window`` rows serve as the
    negative-index errors.
    """
    if window < 1:
        raise ValueError("window must be at least 1")
    if not 0.0 < theta < 1.0:
        raise ValueError("theta must be in (0, 1)")
    d = delta.coeffs
    norm_sq = float(d @ d)
    if norm_sq == 0.0:
        raise ValueError("break function is zero")
    k_neg = np.arange(-window, 0)
    k_pos = np.arange(1, window + 1)
    drift = np.concatenate([(1.0 - theta) * norm_sq * k_neg, [0.0],
                            -theta * norm_sq * k_pos])
    draws = np.empty(reps, dtype=int)
    for i, rng in enumerate(_replication_rngs(seed, reps)):
        errs = np.asarray(error_generator(rng, 2 * window), dtype=float)
        if errs.shape != (2 * window, d.size):
            raise ValueError("error generator returned the wrong shape")
        inner = errs @ d
        # sums eps_k + .. + eps_{-1} for k = -window..-1, ordered by k
        neg = np.cumsum(inner[:window][::-1])[::-1]
        pos = np.cumsum(inner[window:])
        path = drift + np.concatenate([neg, [0.0], pos])
        draws[i] = int(np.argmax(path)) - window
    return np.sort(draws)
