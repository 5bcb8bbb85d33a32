"""Long-run covariance estimation for the error sequence of a mean-break model.

Implements the break-adjusted lag-window estimator: sample autocovariances of
observations demeaned piecewise around a split point (or around the overall
mean, with no split) are tapered by the Bartlett weight 1 - lag/h and summed
over the lags below the bandwidth h, which ``estimate_longrun`` sets to n^(1/4)
floored at 1. A lone kernel is a stack of one series, and a stack, with one
split per series, gives each series the bits of a lone kernel.
"""

import math

import numpy as np

from .basis import CurveSeries, KernelMatrix

__all__ = [
    "longrun_kernel",
    "estimate_longrun",
]

BANDWIDTH_EXPONENT = 0.25
# the fewest curves the bandwidth rule accepts
MIN_CURVES = 4


def _split_demean(data: np.ndarray, split) -> np.ndarray:
    """A (R, n, D) stack of series' data less the overall mean of each (split
    None), or less the means of its curves before and from its own split."""
    if split is None:
        return data - data.mean(axis=1, keepdims=True)
    n = data.shape[1]
    split = np.asarray(split).reshape(-1, 1, 1)
    if not ((1 <= split) & (split <= n - 1)).all():
        raise ValueError(f"split must be in [1, {n - 1}]")
    # masked sums add a segment's rows in the order of its slice's mean, bit for bit
    before = np.arange(n)[:, None] < split
    return data - np.where(before, data.sum(axis=1, where=before, keepdims=True) / split,
                           data.sum(axis=1, where=~before, keepdims=True) / (n - split))


def _lagged_cov(centered: np.ndarray, lag: int) -> np.ndarray:
    n = centered.shape[-2]
    return centered[..., : n - lag, :].mT @ centered[..., lag:, :] / n


def _kernel_entries(data: np.ndarray, h: float = 1.0, split=None) -> np.ndarray:
    """``longrun_kernel`` entries of a (R, n, D) stack of series' data split at
    ``split`` (None, or one split per series), (R, D, D); the defaults give the
    sample covariances."""
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
    return KernelMatrix(_kernel_entries(series.data[None], h,
                                        None if split is None else [split])[0])


def _bandwidth(n: int) -> float:
    """h = n^(1/4) of n >= MIN_CURVES curves, floored at 1."""
    if n < MIN_CURVES:
        raise ValueError(f"bandwidth selection needs n >= {MIN_CURVES}")
    return max(1.0, float(n) ** BANDWIDTH_EXPONENT)


def estimate_longrun(series: CurveSeries,
                     split: int | None = None) -> tuple[KernelMatrix, float]:
    """The long-run kernel demeaned at ``split``, at the h of ``_bandwidth``;
    returns (kernel, h)."""
    h = _bandwidth(series.n)
    return longrun_kernel(series, h, split), h
