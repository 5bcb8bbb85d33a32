"""Dimension-reduction competitors: fPCA detector, estimator and alignment.

The fPCA route projects the curves onto leading eigenfunctions of the sample
covariance operator and applies a maximally selected quadratic form to the
score CUSUM. The change-aligned variant tilts the first long-run eigenfunction
toward the observed CUSUM peak before projecting.
"""

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .basis import CurveSeries, EigenSystem, KernelMatrix, eigen_decompose
from .detect import _smallest_argmax, fit_break, tied_down_cusum
from .longrun import LongRunConfig

__all__ = [
    "RankError",
    "FpcaModel",
    "FpcaResult",
    "sample_cov_kernel",
    "tve_dimension",
    "fit_fpca",
    "fpca_statistic",
    "aligned_statistic",
]

# relative floor under which a retained eigenvalue counts as rank deficiency
_RANK_RTOL = 1e-12


class RankError(ValueError):
    """The retained spectrum is numerically rank deficient."""


def sample_cov_kernel(series: CurveSeries) -> KernelMatrix:
    """Sample covariance of the observations around the overall mean."""
    centered = series.data - series.data.mean(axis=0)
    return KernelMatrix(centered.T @ centered / series.n)


def tve_dimension(eigenvalues, tve: float) -> int:
    """Smallest dimension whose eigenvalue share reaches ``tve``.

    Negative eigenvalues are clipped to zero before forming the shares.
    """
    if not 0.0 < tve <= 1.0:
        raise ValueError("tve must be in (0, 1]")
    lam = np.clip(np.asarray(eigenvalues, dtype=float).ravel(), 0.0, None)
    total = lam.sum()
    if total <= 0.0:
        raise ValueError("spectrum is entirely zero; no dimension explains it")
    cum = np.cumsum(lam)
    return int(np.argmax(cum >= tve * total)) + 1


@dataclass(frozen=True)
class FpcaModel:
    """Sample covariance spectrum and the retained score matrix."""

    cov: KernelMatrix
    eig: EigenSystem
    d: int
    scores: np.ndarray  # (n, d), columns <X_i - mean, psi_l>


def fit_fpca(series: CurveSeries, d: int | None = None,
             tve: float | None = None) -> FpcaModel:
    """Fit fPCA scores, picking ``d`` directly or through a TVE fraction."""
    cov = sample_cov_kernel(series)
    eig = eigen_decompose(cov)
    if d is None:
        if tve is None:
            raise ValueError("either d or tve must be given")
        d = tve_dimension(eig.values, tve)
    if not 1 <= d <= series.basis.n_basis:
        raise ValueError(f"d must be in [1, {series.basis.n_basis}]")
    centered = series.data - series.data.mean(axis=0)
    scores = centered @ eig.vectors[:, :d]
    return FpcaModel(cov=cov, eig=eig, d=d, scores=scores)


class FpcaResult(NamedTuple):
    stat: float
    per_k: np.ndarray  # length n+1, entries for k = 0..n
    k_hat: int


def fpca_statistic(model: FpcaModel) -> FpcaResult:
    """Maximally selected quadratic form of the score CUSUM, plus its argmax.

    The per-k value is (1/n) S_k' diag(tau_1..tau_d)^{-1} S_k with S the
    unscaled tied-down CUSUM of the model's d-dimensional scores. Raises
    RankError if the d-th retained eigenvalue is numerically zero.
    """
    d = model.d
    tau = model.eig.values[:d]
    if tau[0] <= 0.0 or tau[-1] <= _RANK_RTOL * tau[0]:
        raise RankError(
            f"retained eigenvalue {d} is numerically zero; the quadratic form "
            "is rank deficient"
        )
    cusum = tied_down_cusum(model.scores)
    per_k = (cusum**2 / tau).sum(axis=1) / model.scores.shape[0]
    k_hat = _smallest_argmax(per_k)
    return FpcaResult(stat=float(per_k[k_hat]), per_k=per_k, k_hat=k_hat)


def _aligned_direction(phi1: np.ndarray, cusum_peak: np.ndarray, gamma: float,
                       n: int) -> np.ndarray:
    """Tilt the first eigenfunction toward the CUSUM peak and renormalize."""
    s_hat = np.sign(float(phi1 @ cusum_peak)) or 1.0
    direction = phi1 / n**gamma + s_hat * cusum_peak
    norm = float(np.linalg.norm(direction))
    if norm == 0.0:
        raise ValueError("aligned direction vanished")
    return direction / norm


def aligned_statistic(series: CurveSeries, gamma: float = 0.25,
                      config: LongRunConfig | None = None) -> float:
    """Change-aligned d=1 detector in the tilted first eigendirection.

    Reconstruction of the aligned procedure: the first eigenfunction of the
    long-run kernel is shifted by the scaled CUSUM path at its own argmax, the
    data are projected on the normalized result, and the one-dimensional
    quadratic-form detector is evaluated with the long-run variance in that
    direction.

    Its d = 1 Brownian-bridge limit does not hold when the leading long-run
    eigenvalues are equal: tilting toward the CUSUM peak then picks the best
    of several equal-variance directions. In simlab setting 1 (three equal
    innovation variances, n = 100) the detector rejects 28.5% (iid) and 29%
    (FAR(1)) of null replications at the 5% level against the exact d = 1
    critical value; settings 2 and 3 give 5.5-12.5%.
    """
    if not 0.0 < gamma < 0.5:
        raise ValueError("gamma must be in (0, 1/2)")
    n = series.n
    fit = fit_break(series, config)
    eig = eigen_decompose(fit.kernel)
    direction = _aligned_direction(eig.vectors[:, 0], fit.paths[fit.k_hat], gamma, n)
    variance = float(direction @ fit.kernel.entries @ direction)
    if variance <= 0.0:
        raise RankError("long-run variance in the aligned direction is not positive")
    centered = series.data - series.data.mean(axis=0)
    cusum = tied_down_cusum((centered @ direction)[:, None]).ravel()
    return float(np.max(cusum[1:] ** 2) / (n * variance))
