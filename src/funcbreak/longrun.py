"""Long-run covariance estimation for the error sequence of a mean-break model.

Implements the break-adjusted lag-window estimator: sample autocovariances are
computed from observations demeaned piecewise around a supplied split point
(or around the overall mean when no split is given), then tapered by a
symmetric weight function with bounded support and summed over lags up to the
bandwidth h. ``estimate_longrun`` sets h from the n curves by an exponent
rule, h = n^(1/3), n^(1/4) or n^(1/5), floored at 1.
"""

from dataclasses import dataclass

import numpy as np

from .basis import CurveSeries, KernelMatrix

__all__ = [
    "WEIGHTS",
    "LongRunConfig",
    "longrun_kernel",
    "trace",
    "estimate_longrun",
]


def _bartlett(x):
    ax = np.abs(x)
    return np.where(ax <= 1.0, 1.0 - ax, 0.0)


def _parzen(x):
    ax = np.abs(x)
    inner = 1.0 - 6.0 * ax**2 + 6.0 * ax**3
    outer = 2.0 * (1.0 - ax) ** 3
    return np.where(ax <= 0.5, inner, np.where(ax <= 1.0, outer, 0.0))


def _flattop(x):
    ax = np.abs(x)
    return np.where(ax <= 0.5, 1.0, np.where(ax <= 1.0, 2.0 * (1.0 - ax), 0.0))


# symmetric lag-window tapers, each zero outside [-1, 1]
WEIGHTS = {"bartlett": _bartlett, "parzen": _parzen, "flattop": _flattop}

BANDWIDTH_EXPONENTS = {"n13": 1.0 / 3.0, "n14": 1.0 / 4.0, "n15": 1.0 / 5.0}
# the fewest curves a bandwidth rule accepts
MIN_CURVES = 4


def _resolve_weight(name: str):
    try:
        return WEIGHTS[str(name).lower()]
    except KeyError:
        raise ValueError(f"unknown weight function {name!r}") from None


@dataclass(frozen=True)
class LongRunConfig:
    """Estimator configuration: taper choice and bandwidth rule.

    ``bandwidth`` is one of the exponent rules n13/n14/n15; both settings are
    checked before any series is read. To estimate at a given h, call
    ``longrun_kernel`` directly.
    """

    weight: str = "bartlett"
    bandwidth: str = "n14"

    def __post_init__(self):
        _resolve_weight(self.weight)
        if self.bandwidth not in BANDWIDTH_EXPONENTS:
            raise ValueError(f"unknown bandwidth rule {self.bandwidth!r}")


def _split_demean(data: np.ndarray, split: int | None) -> np.ndarray:
    if split is None:
        return data - data.mean(axis=0)
    n = data.shape[0]
    if not 1 <= split <= n - 1:
        raise ValueError(f"split must be in [1, {n - 1}], got {split}")
    out = data.copy()
    out[:split] -= data[:split].mean(axis=0)
    out[split:] -= data[split:].mean(axis=0)
    return out


def _lagged_cov(centered: np.ndarray, lag: int) -> np.ndarray:
    n = centered.shape[0]
    return centered[: n - lag].T @ centered[lag:] / n


def longrun_kernel(series: CurveSeries, weight="bartlett", h: float = 1.0,
                   split: int | None = None) -> KernelMatrix:
    """Lag-window estimate of the long-run covariance kernel.

    G_0 + sum of w(lag/h) (G_lag + G_lag') over lags 1..min(n-1, floor(h)),
    G_lag the lagged autocovariance of the series demeaned piecewise at
    ``split`` (the estimated break date) or, with ``split=None``, by the
    overall mean. The result is symmetrized.
    """
    taper = _resolve_weight(weight)
    if h < 1.0:
        raise ValueError("bandwidth must be at least 1")
    centered = _split_demean(series.data, split)
    n = centered.shape[0]
    acc = _lagged_cov(centered, 0)
    for lag in range(1, min(n - 1, int(np.floor(h))) + 1):
        w_val = float(taper(lag / h))
        if w_val == 0.0:
            continue
        g = _lagged_cov(centered, lag)
        acc += w_val * (g + g.T)
    return KernelMatrix((acc + acc.T) / 2.0)


def trace(k: KernelMatrix) -> float:
    """Trace of the kernel, i.e. the integral of C(t, t) over [0, 1]."""
    return float(np.trace(k.entries))


def estimate_longrun(series: CurveSeries, config: LongRunConfig | None = None,
                     split: int | None = None) -> tuple[KernelMatrix, float]:
    """Estimate the long-run kernel under a config; returns (kernel, h used).

    The config's exponent rule takes h = n^(1/3), n^(1/4) or n^(1/5), floored
    at 1, for n >= MIN_CURVES curves; the kernel is demeaned at ``split``.
    """
    cfg = config or LongRunConfig()
    n = series.n
    if n < MIN_CURVES:
        raise ValueError(f"bandwidth selection needs n >= {MIN_CURVES}")
    h = max(1.0, float(n) ** BANDWIDTH_EXPONENTS[cfg.bandwidth])
    return longrun_kernel(series, weight=cfg.weight, h=h, split=split), h
