"""Break-date estimation, nuisance parameters and confidence intervals.

The break date estimate is the smallest maximizer of the CUSUM norm. Interval
construction takes quantiles of the argmax law of a two-sided Brownian motion
with triangular drift, whose slopes are the estimated break fraction and whose
diffusion scale is the long-run variance in the estimated break direction.
That law is evaluated in closed form (``XiLaw``); ``simulate_xi`` draws it on
a grid and is kept as the reference the closed form is tested against.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .basis import Curve, CurveSeries, KernelMatrix, eigen_decompose
from .detect import BreakFit, LimitSample, _bisect, _replication_rngs, fit_break
from .longrun import LongRunConfig

__all__ = [
    "LimitProcessConfig",
    "XiLaw",
    "DatingReport",
    "estimate_break_function",
    "sigma2_hat",
    "simulate_xi",
    "confidence_interval",
    "date_break",
]


def estimate_break_function(series: CurveSeries, k_hat: int) -> Curve:
    """Mean of the curves after ``k_hat`` minus the mean of those up to it."""
    n = series.n
    if not 1 <= k_hat <= n - 1:
        raise ValueError(f"break date must be in [1, {n - 1}], got {k_hat}")
    x = series.data
    return Curve(x[k_hat:].mean(axis=0) - x[:k_hat].mean(axis=0), series.basis)


def sigma2_hat(c_hat: KernelMatrix, delta_hat: Curve) -> float:
    """Long-run variance in the break direction: the normalized quadratic form."""
    d = delta_hat.coeffs
    norm_sq = float(d @ d)
    if norm_sq == 0.0:
        raise ValueError("break function is zero; sigma^2 is undefined")
    # a quadratic form sees only the symmetric part of the kernel
    return float(d @ c_hat.entries @ d) / norm_sq


@dataclass(frozen=True)
class LimitProcessConfig:
    """Grid and replication settings for the drifted-argmax simulation.

    When ``half_width``/``step`` are omitted they default to
    L = 50 sigma^2 / min(theta, 1-theta)^2 and L/5000, which keeps the argmax
    inside the grid with overwhelming probability.
    """

    half_width: float | None = None
    step: float | None = None
    reps: int = 10_000
    seed: int | None = None

    def resolve(self, theta: float, sigma2: float) -> tuple[float, float]:
        edge = min(theta, 1.0 - theta)
        half = self.half_width if self.half_width is not None else 50.0 * sigma2 / edge**2
        step = self.step if self.step is not None else half / 5000.0
        if not half > 0.0:
            raise ValueError("domain half-width must be positive")
        if not 0.0 < step <= half / 100.0:
            raise ValueError("grid step must be positive and at most L/100")
        return float(half), float(step)


def simulate_xi(theta: float, sigma2: float,
                cfg: LimitProcessConfig | None = None) -> LimitSample:
    """Simulate the location of the maximum of the drifted limit process.

    The process has drift slope (1-theta) left of zero and -theta right of it,
    plus sigma times a two-sided Brownian motion built from Gaussian increments
    of variance ``step`` on the grid. The reported argmax takes the smallest
    maximizer. sigma^2 = 0 yields a degenerate all-zero sample.
    """
    if not 0.0 < theta < 1.0:
        raise ValueError("theta must be in (0, 1)")
    if sigma2 < 0.0:
        raise ValueError("sigma^2 must be nonnegative")
    cfg = cfg or LimitProcessConfig()
    if sigma2 == 0.0:
        return LimitSample(np.zeros(cfg.reps), degenerate=True)
    half, step = cfg.resolve(theta, sigma2)
    m = int(round(half / step))
    sigma_step = np.sqrt(sigma2 * step)
    offsets = step * np.arange(1, m + 1)
    # full grid ordered by x: -m*step .. 0 .. m*step
    x_grid = np.concatenate([-offsets[::-1], [0.0], offsets])
    drift = np.concatenate([
        -(1.0 - theta) * offsets[::-1],  # (1-theta)*x for x<0
        [0.0],
        -theta * offsets,
    ])
    draws = np.empty(cfg.reps)
    for i, rng in enumerate(_replication_rngs(cfg.seed, cfg.reps)):
        z = rng.standard_normal(2 * m)
        right = np.cumsum(z[:m]) * sigma_step
        left = np.cumsum(z[m:]) * sigma_step
        path = drift.copy()
        path[m + 1:] += right
        path[:m] += left[::-1]
        draws[i] = x_grid[int(np.argmax(path))]
    return LimitSample(np.sort(draws))


_SQRT_PI = math.sqrt(math.pi)


def _erfcx(z: float) -> float:
    """Scaled complementary error function exp(z^2) erfc(z), for z >= 0."""
    if z < 25.0:
        return math.exp(z * z) * math.erfc(z)
    # asymptotic series: at z >= 25 the first omitted term is below 1e-18
    inv = 0.5 / (z * z)
    term = total = 1.0
    for k in range(1, 8):
        term *= -(2 * k - 1) * inv
        total += term
    return total / (z * _SQRT_PI)


def _left_tail(s: float, theta: float) -> float:
    """P(Xi <= -2 s^2 / (1 - theta)^2) for the unit-variance law at theta.

    This is the closed form of Bai (1997, App. B; Yao 1987 at theta = 1/2) in
    the variable s = sqrt(u / 8), u = -4 (1 - theta)^2 t. Each product
    exp(a u) Phi(-b sqrt(u)) is written as exp(-s^2) erfcx(.) / 2, which holds
    because b^2/2 - a = 1/8; the naive product overflows for theta near 0 or 1.
    """
    r = (1.0 + theta) / (1.0 - theta)
    ex = _erfcx(s)
    cross = (1.0 - theta * theta) / (2.0 * theta) * (r * ex - _erfcx(r * s))
    return math.exp(-s * s) * (-2.0 * s / _SQRT_PI + (2.0 * s * s - 1.0) * ex + cross)


@dataclass(frozen=True)
class XiLaw:
    """Exact law of the argmax of the drifted two-sided Brownian motion.

    The process is the one ``simulate_xi`` draws. Its argmax scales exactly,
    Xi(theta, sigma^2) = sigma^2 Xi(theta, 1), and mirrors,
    Xi(theta) = -Xi(1 - theta) in law, so both tails come from the left tail
    of the unit-variance law. P(Xi <= 0) = theta. sigma^2 = 0 gives the point
    mass at zero.
    """

    theta: float
    sigma2: float

    def __post_init__(self):
        if not 0.0 < self.theta < 1.0:
            raise ValueError("theta must be in (0, 1)")
        if not self.sigma2 >= 0.0:
            raise ValueError("sigma^2 must be nonnegative")

    @property
    def degenerate(self) -> bool:
        return self.sigma2 == 0.0

    def cdf(self, t: float) -> float:
        """P(Xi <= t)."""
        if self.degenerate:
            return 1.0 if t >= 0.0 else 0.0
        t = t / self.sigma2
        if t <= 0.0:
            return _left_tail((1.0 - self.theta) * math.sqrt(-t / 2.0), self.theta)
        return 1.0 - _left_tail(self.theta * math.sqrt(t / 2.0), 1.0 - self.theta)

    def quantile(self, q: float) -> float:
        """The t with P(Xi <= t) = q, by bracketing and bisection."""
        if not 0.0 < q < 1.0:
            raise ValueError("quantile level must be in (0, 1)")
        if self.degenerate or q == self.theta:
            return 0.0
        # levels below theta lie left of zero; the rest mirror into 1 - theta
        if q < self.theta:
            theta, target, sign = self.theta, q, -1.0
        else:
            theta, target, sign = 1.0 - self.theta, 1.0 - q, 1.0
        s = _bisect(lambda s: _left_tail(s, theta) > target)
        return sign * 2.0 * s * s / (1.0 - theta) ** 2 * self.sigma2


def confidence_interval(k_hat: int, delta_hat: Curve, xi: XiLaw | LimitSample,
                        alpha: float) -> tuple[float, float]:
    """Interval (k - Xi_{1-a/2}/||d||^2, k - Xi_{a/2}/||d||^2), unclamped.

    The quantiles are first widened to include zero: when theta lies below
    alpha/2 (or above 1 - alpha/2) both fall on one side of zero, and the
    interval must still contain k.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must be in (0, 1)")
    norm_sq = float(delta_hat.coeffs @ delta_hat.coeffs)
    if norm_sq == 0.0:
        raise ValueError("break function is zero; no interval exists")
    lo = k_hat - max(xi.quantile(1.0 - alpha / 2.0), 0.0) / norm_sq
    hi = k_hat - min(xi.quantile(alpha / 2.0), 0.0) / norm_sq
    return float(lo), float(hi)


@dataclass(frozen=True)
class DatingReport:
    """Break date estimate with nuisance parameters and confidence interval."""

    k_hat: int
    theta_hat: float
    delta_hat: Curve
    sigma2_hat: float
    lambda1_hat: float
    xi: XiLaw  # the law the interval's quantiles come from
    ci: tuple[float, float]
    ci_raw: tuple[float, float]
    conservative: bool = False
    config: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.sigma2_hat > self.lambda1_hat + 1e-10:
            raise AssertionError(
                "sigma^2 exceeded the top long-run eigenvalue; the Rayleigh "
                "bound was violated"
            )
        lo, hi = self.ci
        if not lo <= self.k_hat <= hi:
            raise AssertionError("interval does not contain the break estimate")


def date_break(series: CurveSeries, alpha: float = 0.05,
               config: LongRunConfig | None = None, *,
               conservative: bool = False,
               fit: BreakFit | None = None) -> DatingReport:
    """Full dating pipeline: date, break function, sigma^2, Xi law, CI.

    The interval takes quantiles of the exact Xi law. With ``conservative``
    that law is taken at the top long-run eigenvalue instead of sigma^2, which
    can only widen the interval. A caller that already holds
    ``fit_break(series, config)`` passes it as ``fit``. A flat fit (a CUSUM at
    rounding level) has no break to date.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must be in (0, 1)")
    n = series.n
    fit = fit or fit_break(series, config)
    k_hat = fit.k_hat
    delta = estimate_break_function(series, k_hat)
    eig = eigen_decompose(fit.kernel)
    lambda1 = float(max(eig.values[0], 0.0))
    if fit.flat:
        raise ValueError("estimated break function is zero; cannot date a break")
    # a variance: non-PSD tapers can push the raw quadratic form slightly negative
    sigma2 = max(sigma2_hat(fit.kernel, delta), 0.0)
    theta_hat = k_hat / n
    xi = XiLaw(theta_hat, lambda1 if conservative else sigma2)
    ci_raw = confidence_interval(k_hat, delta, xi, alpha)
    ci = (min(max(ci_raw[0], 1.0), float(n)), min(max(ci_raw[1], 1.0), float(n)))
    cfg = config or LongRunConfig()
    return DatingReport(
        k_hat=k_hat,
        theta_hat=theta_hat,
        delta_hat=delta,
        sigma2_hat=sigma2,
        lambda1_hat=lambda1,
        xi=xi,
        ci=ci,
        ci_raw=ci_raw,
        conservative=conservative,
        config={
            "alpha": alpha,
            "weight": cfg.weight,
            "bandwidth": cfg.bandwidth if cfg.h is None else "fixed",
            "h": fit.h,
            "conservative": conservative,
        },
    )
