"""Fully functional structural-break detection.

The detector is the maximum of the squared L2 norm of the tied-down functional
CUSUM process. Its null distribution, the supremum of an eigenvalue-weighted
sum of squared independent Brownian bridges, is approximated by Monte Carlo
simulation from the estimated long-run covariance spectrum. ``fit_break`` is
the CUSUM, k_hat and kernel fit that the test, dating and aligned detector share.
``rejects`` gives only the decision p <= alpha of ``test``: it draws the null
replications one at a time and stops once the decision is final (sequential
Monte Carlo, Besag & Clifford 1991), so simlab size and power cells get the
same decisions as from ``test`` with fewer draws. ``KieferLaw`` is the exact
law of the sup of a squared d-dimensional Brownian bridge, the null limit of
the fPCA and aligned detectors.

``simulate_null_limit``, and so ``test``, spreads its replications over up to
FUNCBREAK_THREADS threads (default: one per CPU, see ``resolve_workers``).
Every replication draws from its own stream into its own slot, so the draws,
p-values and critical values do not depend on the thread count. ``rejects``
draws serially: its simlab callers already run one process per CPU.
"""

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import repeat

import numpy as np

from .basis import CurveSeries, KernelMatrix, eigen_decompose
from .longrun import LongRunConfig, estimate_longrun, longrun_kernel, trace

__all__ = [
    "LimitSample",
    "KieferLaw",
    "BreakFit",
    "DetectionReport",
    "tied_down_cusum",
    "cusum_paths",
    "cusum_norm_sq",
    "estimate_break_date",
    "fit_break",
    "simulate_null_limit",
    "test",
    "rejects",
    "resolve_workers",
]


def tied_down_cusum(values: np.ndarray) -> np.ndarray:
    """Unscaled tied-down CUSUM rows of an (n, D) array for k = 0..n; rows 0, n are 0."""
    n = values.shape[0]
    sums = np.vstack([np.zeros((1, values.shape[1])), np.cumsum(values, axis=0)])
    frac = np.arange(n + 1)[:, None] / n
    return sums - frac * sums[-1]


def cusum_paths(series: CurveSeries) -> np.ndarray:
    """Tied-down scaled CUSUM rows, shape (n+1, D); rows 0 and n are zero."""
    return tied_down_cusum(series.data) / np.sqrt(series.n)


def cusum_norm_sq(series: CurveSeries) -> np.ndarray:
    """Squared CUSUM norms for k = 0..n, from one prefix-sum pass."""
    paths = cusum_paths(series)
    return np.einsum("ij,ij->i", paths, paths)


def _smallest_argmax(per_k: np.ndarray) -> int:
    """Smallest k in 1..n maximizing a per-k sequence indexed k = 0..n."""
    return int(np.argmax(per_k[1:])) + 1


def estimate_break_date(series: CurveSeries) -> int:
    """Smallest k in 1..n maximizing the CUSUM norm (min tie-break)."""
    return _smallest_argmax(cusum_norm_sq(series))


@dataclass(frozen=True)
class BreakFit:
    """The CUSUM of a series, its argmax and the kernel demeaned there."""

    paths: np.ndarray  # (n+1, D) scaled tied-down CUSUM rows
    norms: np.ndarray  # (n+1,) squared norms of the rows
    k_hat: int
    kernel: KernelMatrix  # long-run kernel demeaned piecewise at k_hat
    h: float  # bandwidth used for the kernel
    flat: bool  # the CUSUM maximum is rounding noise: the series has no break


def fit_break(series: CurveSeries,
              config: LongRunConfig | None = None) -> BreakFit:
    """CUSUM, break date k_hat and the long-run kernel split at k_hat."""
    paths = cusum_paths(series)
    norms = np.einsum("ij,ij->i", paths, paths)
    k_hat = _smallest_argmax(norms)
    kernel, h = estimate_longrun(series, config, split=k_hat)
    # rounding leaves about n eps^2 ||X||^2 in a squared norm: 100 times that is 0
    floor = 100.0 * series.n * np.finfo(float).eps ** 2 * np.sum(series.data ** 2)
    return BreakFit(paths=paths, norms=norms, k_hat=k_hat, kernel=kernel, h=h,
                    flat=bool(norms[k_hat] <= floor))


@dataclass(frozen=True)
class LimitSample:
    """Sorted Monte Carlo draws from a limit distribution."""

    draws: np.ndarray
    degenerate: bool = False

    def quantile(self, q) -> float:
        return float(np.quantile(self.draws, q))


# normals per block of replications in simulate_null_limit: blocks share the
# per-call overhead of the numpy steps, and each thread's buffers stay < 1 MB
_BLOCK_NORMALS = 1 << 15


def _bridge_sq_block(rngs, lam_over_grid: np.ndarray,
                     grid_frac: np.ndarray) -> np.ndarray:
    """sum_l lam_l B_l^2 on the interior grid points, one row per generator."""
    z = np.empty((len(rngs), lam_over_grid.size, grid_frac.size))
    for row, rng in zip(z, rngs):
        rng.standard_normal(out=row)
    np.cumsum(z, axis=2, out=z)
    z -= z[:, :, -1:] * grid_frac
    np.square(z, out=z)
    return np.matmul(lam_over_grid, z)


def _bridge_sq_path(rng: np.random.Generator, lam_over_grid: np.ndarray,
                    grid_frac: np.ndarray) -> np.ndarray:
    """One realization of sum_l lam_l B_l^2 on the interior grid points."""
    return _bridge_sq_block([rng], lam_over_grid, grid_frac)[0]


def _replication_rngs(seed, reps: int):
    for child in np.random.SeedSequence(seed).spawn(reps):
        yield np.random.default_rng(child)


def _bridge_weights(eigenvalues, reps: int, grid: int):
    """Checked arguments as (lam_l / grid for lam_l > 0, j / grid for j = 1..grid).

    Negative eigenvalues are clipped to zero first; None if all are zero.
    Increments of variance 1/grid are folded into the weights.
    """
    lam = np.clip(np.asarray(eigenvalues, dtype=float).ravel(), 0.0, None)
    if not np.all(np.isfinite(lam)):
        raise ValueError("eigenvalues must be finite")
    if reps < 1:
        raise ValueError("need at least one replication")
    if grid < 100:
        raise ValueError("bridge grid must have at least 100 steps")
    if not lam.any():
        return None
    return lam[lam > 0] / grid, np.arange(1, grid + 1) / grid


def _bridge_sq_paths(eigenvalues, reps: int, grid: int, seed):
    """Per replication, sum_l lam_l B_l^2 at j/grid, j = 1..grid; None if lam = 0."""
    weights = _bridge_weights(eigenvalues, reps, grid)
    if weights is None:
        return None
    return (_bridge_sq_path(rng, *weights) for rng in _replication_rngs(seed, reps))


def _bridge_sq_maxima(children, lam_over_grid, grid_frac) -> np.ndarray:
    """Grid maxima of the paths drawn from the given per-replication seeds."""
    block = max(1, _BLOCK_NORMALS // (lam_over_grid.size * grid_frac.size))
    return np.concatenate([
        _bridge_sq_block([np.random.default_rng(c) for c in children[i:i + block]],
                         lam_over_grid, grid_frac).max(axis=1)
        for i in range(0, len(children), block)])


def resolve_workers(workers: int | None) -> int:
    """Threads or processes to use: ``workers`` (default: all CPUs), capped by
    the environment variable FUNCBREAK_THREADS."""
    env = os.environ.get("FUNCBREAK_THREADS")
    if workers is None:
        workers = os.cpu_count() or 1
    if env:
        try:
            cap = int(env)
        except ValueError:
            raise ValueError(
                f"FUNCBREAK_THREADS must be an integer, got {env!r}") from None
        workers = min(workers, max(1, cap))
    return max(1, int(workers))


def simulate_null_limit(eigenvalues, reps: int = 1000, grid: int = 1000,
                        seed=None) -> LimitSample:
    """Simulate sup over [0,1] of the eigenvalue-weighted sum of squared bridges.

    Each Brownian bridge is built on the grid j/grid, j = 0..grid, as
    B(j/G) = W(j/G) - (j/G) W(1) from Gaussian increments of variance 1/G, and
    the supremum is approximated by the grid maximum. Negative eigenvalues are
    clipped at zero; an all-zero spectrum yields a degenerate all-zero sample.
    One RNG stream is derived per replication index, so results are
    deterministic for a given (seed, reps, grid). The replications are spread
    over ``resolve_workers(None)`` threads (all CPUs, at most FUNCBREAK_THREADS);
    each keeps its own stream and slot, so the draws do not depend on the
    thread count.
    """
    weights = _bridge_weights(eigenvalues, reps, grid)
    if weights is None:
        return LimitSample(np.zeros(reps), degenerate=True)
    children = np.random.SeedSequence(seed).spawn(reps)
    threads = min(resolve_workers(None), reps)
    if threads == 1:
        draws = _bridge_sq_maxima(children, *weights)
    else:
        # numpy releases the GIL while it fills, sums and weights the paths.
        # The workers call private helpers only: perfbench's tracer wraps the
        # public functions and keeps one span stack, which threads would corrupt.
        chunks = [children[i * reps // threads:(i + 1) * reps // threads]
                  for i in range(threads)]
        with ThreadPoolExecutor(threads) as pool:
            draws = np.concatenate(list(pool.map(
                lambda chunk: _bridge_sq_maxima(chunk, *weights), chunks)))
    return LimitSample(np.sort(draws))


def _bisect(below) -> float:
    """Where a monotone ``below`` turns false on x >= 0: bracket, then bisect."""
    lo, hi = 0.0, 1.0
    while below(hi):
        lo, hi = hi, 2.0 * hi
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if below(mid):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _bessel_pair(nu: float, z: np.ndarray) -> tuple:
    """J_nu(z) and J_{nu+1}(z) for z > 0 and an integer or half-integer nu >= -1/2."""
    if nu == int(nu):
        # Bessel's integral over a full period by the trapezoid rule: the
        # integrand is smooth and periodic, so the error falls geometrically
        tau = np.linspace(0.0, 2.0 * np.pi, int(1.5 * z.max()) + 64, endpoint=False)
        phase = np.outer(z, np.sin(tau))
        return tuple(np.cos(m * tau - phase).mean(axis=1) for m in (nu, nu + 1))
    # the spherical closed forms of J_{-1/2} and J_{1/2}, raised by recurrence
    root = np.sqrt(2.0 / (np.pi * z))
    lower, upper = root * np.cos(z), root * np.sin(z)
    for k in range(int(nu + 0.5)):
        lower, upper = upper, (2 * k + 1) / z * upper - lower
    return lower, upper


@lru_cache(maxsize=None)
def _kiefer_terms(d: int, count: int) -> tuple:
    """j_n^2 and log(j_n^(2 nu) / J_{nu+1}(j_n)^2) for the first zeros of J_nu."""
    nu = d / 2.0 - 1.0
    n = np.arange(1, count + 1)
    beta = (n + nu / 2.0 - 0.25) * np.pi
    mu = 4.0 * nu * nu
    j = beta - (mu - 1.0) / (8.0 * beta) - 4.0 * (mu - 1.0) * (7.0 * mu - 31.0) / (
        3.0 * (8.0 * beta) ** 3)  # McMahon's expansion
    if nu > 4.0:  # Olver's form through the Airy zeros for the first zeros
        airy = -(3.0 * np.pi * (4.0 * n - 1.0) / 8.0) ** (2.0 / 3.0)
        s = (nu / 2.0) ** (1.0 / 3.0)
        j = np.where(n < nu / 4.0, nu - airy * s + 0.15 * airy * airy / s, j)
    for _ in range(10):  # Newton, with J_nu' = (nu / j) J_nu - J_{nu+1}
        j_nu, j_next = _bessel_pair(nu, j)
        j = j - j_nu / (nu / j * j_nu - j_next)
    _, j_next = _bessel_pair(nu, j)
    return j * j, 2.0 * nu * np.log(j) - 2.0 * np.log(np.abs(j_next))


@dataclass(frozen=True)
class KieferLaw:
    """Exact law of sup_t ||B_d(t)||^2 for a d-dimensional Brownian bridge B_d.

    P(sup ||B_d||^2 <= x) = 4 / (Gamma(d/2) (2x)^(d/2)) sum_n j_n^(2 nu) /
    J_{nu+1}(j_n)^2 exp(-j_n^2 / (2x)), nu = d/2 - 1, j_n the zeros of J_nu
    (Kiefer 1959; Kolmogorov's law at d = 1). It is the null limit of the fPCA
    detector on d scores and of the aligned detector (d = 1).
    """

    d: int

    def __post_init__(self):
        # the upward recurrence for half-integer orders misplaces zeros from d = 195
        if self.d != int(self.d) or not 1 <= self.d <= 150:
            raise ValueError("dimension must be an integer in [1, 150]")

    def cdf(self, x: float) -> float:
        """P(sup ||B_d||^2 <= x)."""
        if x <= 0.0:
            return 0.0
        if (self.d - 1) / 2.0 * math.log(x) - 2.0 * x < -100.0:
            return 1.0  # the upper tail, of order x^((d-1)/2) e^(-2x), is negligible
        # the terms fall like j^(d-1) exp(-j^2 / (2x)): sum the zeros up to
        # j^2 = 2x (45 + 1.5 d), in a count rounded up to a power of two
        needed = int(math.sqrt(2.0 * x * (45.0 + 1.5 * self.d)) / math.pi) + 2
        j2, log_w = _kiefer_terms(int(self.d), 1 << (needed - 1).bit_length())
        half = self.d / 2.0
        log_pre = math.log(4.0) - math.lgamma(half) - half * math.log(2.0 * x)
        return min(float(np.exp(log_pre + log_w - j2 / (2.0 * x)).sum()), 1.0)

    def quantile(self, q: float) -> float:
        """The x with P(sup ||B_d||^2 <= x) = q, by bracketing and bisection."""
        if not 0.0 < q < 1.0:
            raise ValueError("quantile level must be in (0, 1)")
        return _bisect(lambda x: self.cdf(x) < q)


@dataclass(frozen=True)
class DetectionReport:
    """Outcome of the fully functional test plus its configuration echo."""

    stat: float
    k_hat: int  # the CUSUM argmax the statistic is taken at
    critical_values: dict
    p_value: float
    eigenvalues_used: np.ndarray
    config: dict = field(default_factory=dict)
    degenerate: bool = False

    def __post_init__(self):
        if not 0.0 <= self.p_value <= 1.0:
            raise ValueError("p-value outside [0, 1]")
        alphas = sorted(self.critical_values)
        quants = [self.critical_values[a] for a in alphas]
        if any(q1 < q2 for q1, q2 in zip(quants, quants[1:])):
            raise ValueError("critical values must decrease in alpha")


def _null_spectrum(series: CurveSeries, cfg: LongRunConfig,
                   fit: BreakFit | None = None):
    """The fit, statistic, kernel split and clipped eigenvalues behind ``test``.

    The split is k_hat when the null kernel is demeaned piecewise there and
    None when it is demeaned by the overall mean (see ``test``). The statistic
    of a flat fit (a CUSUM at rounding level) is 0.
    """
    fit = fit or fit_break(series, cfg)
    stat = 0.0 if fit.flat else float(fit.norms[fit.k_hat])
    kernel, split = fit.kernel, fit.k_hat
    pooled = longrun_kernel(series, cfg.weight, h=fit.h)
    if trace(kernel) >= 0.5 * trace(pooled):
        kernel, split = pooled, None
    lam = np.clip(eigen_decompose(kernel).values, 0.0, None)
    return fit, stat, split, lam


def test(series: CurveSeries, alpha: float = 0.05,
         config: LongRunConfig | None = None, *, reps: int = 1000,
         grid: int = 1000, seed=None, fit: BreakFit | None = None) -> DetectionReport:
    """Run the fully functional break test at level ``alpha``.

    The null long-run kernel is demeaned by the overall mean unless the step
    fitted at the CUSUM argmax k_hat carries most of the variance: the kernel
    demeaned piecewise at k_hat is used only when its trace is below half the
    trace of the overall-mean kernel (both at the same bandwidth), and
    ``config["split"]`` echoes k_hat then and None otherwise. Under the null,
    splitting at the argmax of the statistic itself would deflate the kernel
    exactly when the statistic is large and inflate the size. The null limit
    is simulated from all D estimated eigenvalues (negatives clipped); the
    report gives the statistic, critical values and the finite-sample Monte
    Carlo p-value (1 + #{draws >= stat}) / (reps + 1). A caller that already
    holds ``fit_break(series, config)`` passes it as ``fit``.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must be in (0, 1)")
    cfg = config or LongRunConfig()
    fit, stat, split, lam = _null_spectrum(series, cfg, fit)
    null = simulate_null_limit(lam, reps=reps, grid=grid, seed=seed)
    p_value = (1 + int(np.count_nonzero(null.draws >= stat))) / (reps + 1)
    levels = sorted({round(a, 12) for a in (alpha, 0.10, 0.05, 0.01)})
    critical_values = {a: null.quantile(1.0 - a) for a in levels}
    return DetectionReport(
        stat=stat,
        k_hat=fit.k_hat,
        critical_values=critical_values,
        p_value=p_value,
        eigenvalues_used=lam,
        config={
            "alpha": alpha,
            "weight": cfg.weight,
            "bandwidth": cfg.bandwidth if cfg.h is None else "fixed",
            "h": fit.h,
            "reps": reps,
            "grid": grid,
            "seed": seed,
            "split": split,
        },
        degenerate=null.degenerate,
    )


def rejects(series: CurveSeries, alpha: float,
            config: LongRunConfig | None = None, *, reps: int = 1000,
            grid: int = 1000, seed=None) -> bool:
    """Whether ``test`` with the same arguments gives p_value <= alpha.

    The null draws come from the same per-replication streams as in ``test``,
    one replication at a time, and drawing stops as soon as the count of draws
    >= the statistic makes (1 + count) / (reps + 1) exceed alpha, so the
    decision is that of ``test`` at a fraction of the draws under the null.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must be in (0, 1)")
    _, stat, _, lam = _null_spectrum(series, config or LongRunConfig())
    paths = _bridge_sq_paths(lam, reps, grid, seed)
    # an all-zero spectrum gives all-zero draws, as in simulate_null_limit
    draws = repeat(0.0, reps) if paths is None else (p.max() for p in paths)
    exceed = 0
    for draw in draws:
        if draw >= stat:
            exceed += 1
        if (1 + exceed) / (reps + 1) > alpha:
            return False
    return True
