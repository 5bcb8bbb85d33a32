"""Long-run covariance estimation for the error sequence of a mean-break model.

Implements the break-adjusted lag-window estimator: sample autocovariances are
computed from observations demeaned piecewise around a supplied split point
(or around the overall mean when no split is given), then tapered by a
symmetric weight function with bounded support and summed over lags up to the
bandwidth h. ``estimate_longrun`` sets h from the n curves by an exponent rule
(n^(1/3), n^(1/4) or n^(1/5)) or by the adaptive plug-in rule, floored at 1.
"""

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .basis import CurveSeries, KernelMatrix

__all__ = [
    "WeightFunction",
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


@dataclass(frozen=True)
class WeightFunction:
    """A symmetric lag-window taper, zero outside [-1, 1] like every taper here.

    ``order`` is the taper order tau and ``q_constant`` the limit of
    x^(-tau) (1 - w(x)) at zero; the flat-top taper is flat at the origin, so
    that limit is degenerate (stored as NaN) and it carries a nominal order.
    ``w_sq_integral`` is the integral of w^2 over the real line.
    """

    order: float
    q_constant: float
    w_sq_integral: float
    fn: Callable[[np.ndarray], np.ndarray]

    def __call__(self, x):
        return self.fn(x)


WEIGHTS = {
    "bartlett": WeightFunction(1.0, 1.0, 2.0 / 3.0, _bartlett),
    "parzen": WeightFunction(2.0, 6.0, 151.0 / 280.0, _parzen),
    "flattop": WeightFunction(2.0, float("nan"), 4.0 / 3.0, _flattop),
}

BANDWIDTH_EXPONENTS = {"n13": 1.0 / 3.0, "n14": 1.0 / 4.0, "n15": 1.0 / 5.0}
# the fewest curves a bandwidth rule accepts
MIN_CURVES = 4


def _resolve_weight(name: str) -> WeightFunction:
    try:
        return WEIGHTS[str(name).lower()]
    except KeyError:
        raise ValueError(f"unknown weight function {name!r}") from None


@dataclass(frozen=True)
class LongRunConfig:
    """Estimator configuration: taper choice and bandwidth rule.

    ``bandwidth`` is one of the exponent rules n13/n14/n15, or "adaptive",
    which needs a Bartlett or Parzen taper; both are checked before any series
    is read. To estimate at a given h, call ``longrun_kernel`` directly.
    """

    weight: str = "bartlett"
    bandwidth: str = "n14"

    def __post_init__(self):
        wf = _resolve_weight(self.weight)
        if self.bandwidth not in BANDWIDTH_EXPONENTS and self.bandwidth != "adaptive":
            raise ValueError(f"unknown bandwidth rule {self.bandwidth!r}")
        if self.bandwidth == "adaptive" and not np.isfinite(wf.q_constant):
            raise ValueError("adaptive bandwidth is defined for bartlett/parzen "
                             f"weights only, not {self.weight!r}")


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


def _lag_window_sum(centered: np.ndarray, wf: WeightFunction, h: float,
                    order: float | None = None):
    """G_0 + sum of w(lag/h) (G_lag + G_lag') over lags 1..min(n-1, floor(h)).

    G_lag is the lagged autocovariance of the centered rows. With ``order``,
    G_0 is left out and each term is multiplied by lag**order.
    """
    n = centered.shape[0]
    acc = _lagged_cov(centered, 0) if order is None else 0.0
    max_lag = min(n - 1, int(np.floor(h)))
    for lag in range(1, max_lag + 1):
        w_val = float(wf(lag / h))
        if w_val == 0.0:
            continue
        g = _lagged_cov(centered, lag)
        acc += (w_val if order is None else (lag ** order) * w_val) * (g + g.T)
    return acc


def longrun_kernel(series: CurveSeries, weight="bartlett", h: float = 1.0,
                   split: int | None = None) -> KernelMatrix:
    """Lag-window estimate of the long-run covariance kernel.

    Sums w(lag/h) times the lagged autocovariances over all lags inside the
    taper support, using piecewise demeaning at ``split`` (the estimated break
    date) or, with ``split=None``, demeaning by the overall mean.
    The result is symmetrized.
    """
    wf = _resolve_weight(weight)
    if h < 1.0:
        raise ValueError("bandwidth must be at least 1")
    acc = _lag_window_sum(_split_demean(series.data, split), wf, h)
    return KernelMatrix((acc + acc.T) / 2.0)


def trace(k: KernelMatrix) -> float:
    """Trace of the kernel, i.e. the integral of C(t, t) over [0, 1]."""
    return float(np.trace(k.entries))


def _adaptive_constant(series: CurveSeries, wf: WeightFunction, split: int) -> float:
    # Reconstruction of the plug-in rule for the optimal bandwidth constant:
    # flat-top pilot estimates at h0 = n^(1/5) feed the asymptotic MSE formula.
    h0 = max(1.0, series.n ** 0.2)
    pilot = WEIGHTS["flattop"]
    centered = _split_demean(series.data, split)
    c_pilot = _lag_window_sum(centered, pilot, h0)
    c_tau = _lag_window_sum(centered, pilot, h0, order=wf.order)
    tau = wf.order
    num = 2.0 * tau * (wf.q_constant ** 2) * float(np.sum(c_tau**2))
    den = (float(np.sum(c_pilot**2)) + float(np.trace(c_pilot)) ** 2) * wf.w_sq_integral
    if den <= 0.0 or num < 0.0:
        raise ValueError("degenerate pilot estimates for the adaptive bandwidth")
    power = 1.0 / (1.0 + 2.0 * tau)
    return (num ** power) / (den ** power)


def estimate_longrun(series: CurveSeries, config: LongRunConfig | None = None,
                     split: int | None = None) -> tuple[KernelMatrix, float]:
    """Estimate the long-run kernel under a config; returns (kernel, h used).

    Exponent rules take h = n to the named power. The adaptive rule takes
    h = M_hat * n^(1/(1+2 tau)), tau the order of the Bartlett or Parzen taper,
    with M_hat estimated from flat-top pilot fits of the series demeaned at
    ``split``, which it needs. Either way h is floored at 1, and every rule
    needs n >= MIN_CURVES curves.
    """
    cfg = config or LongRunConfig()
    n = series.n
    if n < MIN_CURVES:
        raise ValueError(f"bandwidth selection needs n >= {MIN_CURVES}")
    if cfg.bandwidth in BANDWIDTH_EXPONENTS:
        h = float(n) ** BANDWIDTH_EXPONENTS[cfg.bandwidth]
    elif split is None:
        raise ValueError("adaptive bandwidth needs the demeaning split")
    else:
        wf = _resolve_weight(cfg.weight)
        power = 1.0 / (1.0 + 2.0 * wf.order)
        h = _adaptive_constant(series, wf, split) * float(n) ** power
    h = max(1.0, h)
    return longrun_kernel(series, weight=cfg.weight, h=h, split=split), h
