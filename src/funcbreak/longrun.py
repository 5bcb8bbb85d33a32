"""Long-run covariance estimation for the error sequence of a mean-break model.

Implements the break-adjusted lag-window estimator: sample autocovariances are
computed from observations demeaned piecewise around a supplied split point
(or around the overall mean when no split is given), then tapered by the
Bartlett weight 1 - lag/h and summed over the lags below the bandwidth h.
``estimate_longrun`` sets h = n^(1/4) from the n curves, floored at 1.
"""

import math

import numpy as np

from .basis import CurveSeries, KernelMatrix

__all__ = [
    "longrun_kernel",
    "trace",
    "estimate_longrun",
]

BANDWIDTH_EXPONENT = 0.25
# the fewest curves the bandwidth rule accepts
MIN_CURVES = 4


def _split_demean(data: np.ndarray, split: int | None) -> np.ndarray:
    if split is None:
        return data - data.mean(axis=-2, keepdims=True)
    n = data.shape[-2]
    if not 1 <= split <= n - 1:
        raise ValueError(f"split must be in [1, {n - 1}], got {split}")
    out = data.copy()
    out[..., :split, :] -= data[..., :split, :].mean(axis=-2, keepdims=True)
    out[..., split:, :] -= data[..., split:, :].mean(axis=-2, keepdims=True)
    return out


def _lagged_cov(centered: np.ndarray, lag: int) -> np.ndarray:
    n = centered.shape[-2]
    return centered[..., : n - lag, :].mT @ centered[..., lag:, :] / n


def _kernel_entries(data: np.ndarray, h: float = 1.0,
                    split: int | None = None) -> np.ndarray:
    """``longrun_kernel`` entries of a (..., n, D) stack of series' data, (..., D, D);
    the defaults give the sample covariances."""
    if h < 1.0:
        raise ValueError("bandwidth must be at least 1")
    centered = _split_demean(data, split)
    n = centered.shape[-2]
    acc = _lagged_cov(centered, 0)
    for lag in range(1, min(n, math.ceil(h))):  # the lags of nonzero weight
        g = _lagged_cov(centered, lag)
        acc += (1.0 - lag / h) * (g + g.mT)
    return (acc + acc.mT) / 2.0


def longrun_kernel(series: CurveSeries, h: float = 1.0,
                   split: int | None = None) -> KernelMatrix:
    """Bartlett lag-window estimate of the long-run covariance kernel.

    G_0 + sum of (1 - lag/h) (G_lag + G_lag') over lags 1..n-1 below h,
    G_lag the lagged autocovariance of the series demeaned piecewise at
    ``split`` (the estimated break date) or, with ``split=None``, by the
    overall mean. The result is symmetrized.
    """
    return KernelMatrix(_kernel_entries(series.data, h, split))


def trace(k: KernelMatrix) -> float:
    """Trace of the kernel, i.e. the integral of C(t, t) over [0, 1]."""
    return float(np.trace(k.entries))


def estimate_longrun(series: CurveSeries,
                     split: int | None = None) -> tuple[KernelMatrix, float]:
    """The long-run kernel at h = n^(1/4), floored at 1, for n >= MIN_CURVES
    curves, demeaned at ``split``; returns (kernel, h)."""
    n = series.n
    if n < MIN_CURVES:
        raise ValueError(f"bandwidth selection needs n >= {MIN_CURVES}")
    h = max(1.0, float(n) ** BANDWIDTH_EXPONENT)
    return longrun_kernel(series, h, split), h
