"""Fully functional structural-break detection.

The detector is the maximum of the squared L2 norm of the tied-down functional
CUSUM process over its n points k/n. Its null distribution is simulated from
the estimated long-run covariance spectrum as the maximum over G grid steps of
an eigenvalue-weighted sum of squared independent Brownian bridges. One rule,
``_null_grid``, sets G for ``test``, ``NullBank``, the CLI and simlab: by
default G is the series' own n, which for iid Gaussian curves with that kernel
gives the exact law of the statistic, at n normals per eigenvalue and
replication; an explicit grid must have at least 100 steps and approximates
the supremum of the continuous limit.
``fit_break`` is the one step that reads a series. Its ``BreakFit``, the one
data input of ``test``, ``NullBank.rejects``, ``dating.date_break``,
``fpca.fit_fpca`` and ``fpca.aligned_statistic``, holds it, the CUSUM and
k_hat; the long-run kernel (the one Bartlett rule of ``longrun``, h = n^(1/4)
floored at 1) split at k_hat, the sample covariance and their spectra are
computed on first use, or for a simlab block by ``_fit_stack`` with the same
bits, so dating by k_hat alone estimates no kernel. The reports echo the
bandwidth h.
``test`` streams its null replications: it keeps the grid maxima and drops
each block's bridges, as the bridges of 1000 replications at the CLI's
n = G = 149, D = 21 would take 23.9 MiB, about half the CLI's peak memory. They
do not depend on the data, only their weights do, so a ``NullBank`` keeps them
for fits that share a seed: its ``rejects`` gives the decision p <= alpha of
``test`` at that seed, reading the kept blocks in order and drawing the next
only while the decision is not final (sequential Monte Carlo, Besag & Clifford
1991), so simlab's size and power replications at one seed, in any job, share
them.
``KieferLaw`` is the exact law of the sup of a squared d-dimensional Brownian
bridge, the null limit of the fPCA and aligned detectors.

Null replications come in blocks of B = max(1, 2^15 // (max(1, D) grid)) for
the D eigenvalues above rounding level: block b is replications [bB, (b + 1)B),
drawn in one call from an SFC64 generator seeded by child b of
SeedSequence(seed), the SeedSequence with the seed's spawn key extended by b;
the last block may be shorter, and when D grid > 2^14, B = 1 and replication i
has child i alone. ``_null_block`` alone draws a block, for both readers:
``simulate_null_limit``, and so ``test``, spreads the blocks over up to
FUNCBREAK_THREADS threads (default: one per CPU, see ``resolve_workers``), so
no draw, p-value or critical value depends on the thread count; a ``NullBank``
draws them in order on the calling thread (its simlab callers already run one
process per CPU).
"""

import contextlib
import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

from .basis import CurveSeries, EigenSystem, KernelMatrix, _eigen_stack, eigen_decompose
from .longrun import _bandwidth, _kernel_entries, estimate_longrun, longrun_kernel

__all__ = [
    "LimitSample",
    "KieferLaw",
    "BreakFit",
    "DetectionReport",
    "cusum_paths",
    "cusum_norm_sq",
    "fit_break",
    "simulate_null_limit",
    "test",
    "NullBank",
    "resolve_workers",
]


def cusum_paths(series: CurveSeries) -> np.ndarray:
    """Scaled tied-down CUSUM rows (S_k - (k/n) S_n) / sqrt(n) of the partial
    sums S_k, k = 0..n, shape (n+1, D), rows 0 and n zero: the one CUSUM of
    the data, of which every detector is a quadratic form (see ``fpca``)."""
    return _cusum_stack(series.data[None])[0]


def _cusum_stack(data: np.ndarray) -> np.ndarray:
    """``cusum_paths`` of a (R, n, D) stack of series' data, (R, n+1, D)."""
    n = data.shape[1]
    sums = np.cumsum(np.concatenate([np.zeros_like(data[:, :1]), data], axis=1), axis=1)
    return (sums - np.arange(n + 1)[:, None] / n * sums[:, -1:]) / np.sqrt(n)


def cusum_norm_sq(series: CurveSeries) -> np.ndarray:
    """Squared CUSUM norms for k = 0..n: ``fit_break(series).norms``."""
    return fit_break(series).norms


def _smallest_argmax(per_k: np.ndarray):
    """Smallest k in 1..n maximizing a per-k sequence indexed k = 0..n, or each
    sequence of a stack."""
    return np.argmax(per_k[..., 1:], axis=-1) + 1


@dataclass(frozen=True)
class BreakFit:
    """A series' CUSUM and its argmax k_hat, built at the cost of one CUSUM.

    The kernels and spectra below are computed when first read, or for a
    block of fits by ``_fit_stack`` with the same bits, and kept; one that
    raises is not kept, so the next reader tries again.
    """

    series: CurveSeries
    paths: np.ndarray  # (n+1, D) scaled tied-down CUSUM rows
    norms: np.ndarray  # (n+1,) squared norms of the rows
    k_hat: int
    flat: bool  # the CUSUM maximum is rounding noise: the series has no break

    @property
    def stat(self) -> float:
        """max_k ||CUSUM_k||^2, the test statistic; 0 for a flat fit."""
        return 0.0 if self.flat else float(self.norms[self.k_hat])

    @cached_property
    def _longrun(self) -> tuple[KernelMatrix, float]:
        return estimate_longrun(self.series, split=self.k_hat)

    # the long-run kernel demeaned piecewise at k_hat, and its bandwidth
    kernel = property(lambda self: self._longrun[0])
    h = property(lambda self: self._longrun[1])

    @cached_property
    def cov(self) -> EigenSystem:
        """Eigensystem of the sample covariance around the overall mean: the
        lag window at h = 1 keeps the lag-0 term alone."""
        return eigen_decompose(longrun_kernel(self.series, h=1.0))

    @cached_property
    def eig(self) -> EigenSystem:
        """Eigensystem of the kernel split at k_hat."""
        return eigen_decompose(self.kernel)

    @cached_property
    def null(self) -> tuple:
        """(split, kernel, eigensystem) of the H0 kernel of the test and the
        aligned detector: the kernel split at split = k_hat if its trace is
        below half that of the overall-mean kernel at the same bandwidth (the
        fitted step carries most of the variance), else that kernel and split
        = None. Splitting at the statistic's own argmax would deflate the
        kernel exactly when the statistic is large."""
        pooled = longrun_kernel(self.series, h=self.h)
        if not _keeps_split(self.kernel.entries, pooled.entries):
            return None, pooled, eigen_decompose(pooled)
        return self.k_hat, self.kernel, self.eig


def _keeps_split(kernels: np.ndarray, pooled: np.ndarray) -> np.ndarray:
    """``BreakFit.null``'s rule for split kernels and overall-mean kernels (..., D, D)."""
    return np.trace(kernels, axis1=-2, axis2=-1) < 0.5 * np.trace(pooled, axis1=-2, axis2=-1)


def fit_break(series: CurveSeries) -> BreakFit:
    """CUSUM of ``series`` and its date k_hat, the smallest k in 1..n maximizing
    its norm; a flat series (the largest norm is rounding noise) takes the date
    of an all-zero CUSUM, k = 1. Coefficients too large for the pipeline's sums
    raise OverflowError."""
    return _fit_stack([series], series.data[None],
                      cusum=lambda _: cusum_paths(series)[None])[0]


def _fit_stack(series: list, data: np.ndarray, cusum=None, cov: bool = False,
               kernels: str | None = None) -> list:
    """``fit_break`` of R ``series`` with data ``data`` (R, n, D), one call per
    step; ``cusum`` replaces ``_cusum_stack`` (``fit_break``'s goes through the
    public ``cusum_paths``). ``cov`` fills in every ``cov``, and ``kernels``
    every split kernel with ``eig`` ("split") or with ``null`` ("null")."""
    with np.errstate(over="ignore"):  # checked once, here, for every consumer
        energy = np.square(data).reshape(len(data), -1).sum(axis=1)
        # dating's quadratic form delta' C delta sums products of four
        # coefficients, below (n energy)^2
        if not np.isfinite((data.shape[1] * energy) ** 2).all():
            raise OverflowError("curve coefficients too large: products of four "
                                "of them overflow the float range")
    paths = (cusum or _cusum_stack)(data)
    norms = np.einsum("rij,rij->ri", paths, paths)
    # rounding leaves about n eps^2 ||X||^2 in a squared norm: 100 times that is 0
    flat = norms.max(axis=1) <= 100.0 * data.shape[1] * np.finfo(float).eps ** 2 * energy
    fits = [BreakFit(x, p, s, 1 if f else k, f) for x, p, s, k, f in zip(
        series, paths, norms, _smallest_argmax(norms).tolist(), flat.tolist())]
    # a stacked step that raises fills in nothing: each fit then computes its
    # own on first read, and may fail alone
    steps = [lambda: [{"cov": eig} for eig in map(EigenSystem, *_eigen_stack(
        _kernel_entries(data)))]] if cov else []
    steps += [lambda: _kernel_slots(fits, data, kernels == "null")] if kernels else []
    for step in steps:
        with contextlib.suppress(Exception):
            for fit, slots in zip(fits, step()):
                fit.__dict__.update(slots)  # ``cached_property``'s slots
    return fits


def _kernel_slots(fits: list, data: np.ndarray, null: bool) -> list:
    """The ``_longrun`` and ``eig`` slots of ``fits`` of data ``data``, or with
    ``null`` their ``null`` and ``_longrun`` and, where the split is kept, ``eig``."""
    h = _bandwidth(data.shape[1])
    split = _kernel_entries(data, h, [fit.k_hat for fit in fits])
    pooled = _kernel_entries(data, h) if null else split
    keep = _keeps_split(split, pooled) | (not null)
    spectra = map(EigenSystem, *_eigen_stack(np.where(keep[:, None, None], split, pooled)))
    out = []
    for fit, entries, other, kept, eig in zip(fits, split, pooled, keep, spectra):
        kernel = KernelMatrix(entries)
        h0 = (fit.k_hat, kernel) if kept else (None, KernelMatrix(other))
        out.append({"_longrun": (kernel, h), **({"eig": eig} if kept else {}),
                    **({"null": (*h0, eig)} if null else {})})
    return out


@dataclass(frozen=True)
class LimitSample:
    """Sorted Monte Carlo draws from a limit distribution."""

    draws: np.ndarray
    degenerate: bool = False

    def quantile(self, q) -> float:
        return float(np.quantile(self.draws, q))


# normals per block of replications: blocks share the per-call overhead of
# seeding and of the numpy steps, and each thread's buffers stay at 256 KB
_BLOCK_NORMALS = 1 << 15


def _squared_bridges(rng, size: int, dim: int, grid_frac: np.ndarray) -> np.ndarray:
    """B_l^2 on the interior grid points of ``dim`` bridges for ``size``
    replications, shape (size, dim, grid), drawn in one call from ``rng``."""
    z = rng.standard_normal((size, dim, grid_frac.size))
    np.cumsum(z, axis=2, out=z)
    z -= z[:, :, -1:] * grid_frac
    return np.square(z, out=z)


def _bridge_weights(eigenvalues, reps: int, grid: int):
    """Checked arguments as (resolved lam_l / grid, j / grid for j = 1..grid).

    Negatives are clipped to zero. Resolved means above D eps max(lam), the
    resolution of ``eigh`` on D values: a smaller lam_l is rounding noise (an
    all-zero spectrum has none). Increments of variance 1/grid are in the weights.
    """
    lam = np.clip(np.asarray(eigenvalues, dtype=float).ravel(), 0.0, None)
    if not np.all(np.isfinite(lam)):
        raise ValueError("eigenvalues must be finite")
    if reps < 1:
        raise ValueError("need at least one replication")
    if grid < 1:
        raise ValueError("bridge grid must have at least 1 step")
    return (lam[lam > lam.size * np.finfo(float).eps * lam.max(initial=0.0)] / grid,
            np.arange(1, grid + 1) / grid)


def _block_size(weights) -> int:
    """B, the replications of a full block of the layout for ``weights``."""
    return max(1, _BLOCK_NORMALS // (max(1, weights[0].size) * weights[1].size))


def _null_block(root, b: int, reps: int, weights) -> np.ndarray:
    """Squared bridges (size, D, G) of block b of the seeded layout (see the
    module docstring) for ``weights`` from ``_bridge_weights``. ``root``, a
    SeedSequence, is not spawned from, so block b is the same on every draw."""
    size = _block_size(weights)
    child = np.random.SeedSequence(root.entropy, spawn_key=(*root.spawn_key, b),
                                   pool_size=root.pool_size)
    return _squared_bridges(np.random.Generator(np.random.SFC64(child)),
                            min(size, reps - b * size), weights[0].size, weights[1])


def _grid_maxima(weights, squares) -> np.ndarray:
    """Grid maxima of sum_l lam_l B_l^2 for each replication of ``squares``."""
    return np.matmul(weights[0], squares).max(axis=1)


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


def simulate_null_limit(eigenvalues, reps: int, grid: int,
                        seed=None) -> LimitSample:
    """Simulate the grid maximum of the eigenvalue-weighted sum of squared bridges.

    Each Brownian bridge is built on the grid j/G, j = 0..G, for any G = grid
    >= 1, as B(j/G) = W(j/G) - (j/G) W(1) from Gaussian increments of variance
    1/G; the module docstring gives the G of a test. Negative eigenvalues are
    clipped at zero and those at or below D eps max(lam) are dropped; with none
    left (an all-zero spectrum) the sample is degenerate and all zero. The
    seeded blocks of replications (see the module docstring) make the draws
    deterministic for a given (seed, reps, grid), whatever the thread count.
    """
    weights = _bridge_weights(eigenvalues, reps, grid)
    root = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    blocks = range(-(-reps // _block_size(weights)))

    def maxima(b):
        return _grid_maxima(weights, _null_block(root, b, reps, weights))

    workers = resolve_workers(None)
    if workers == 1:
        parts = list(map(maxima, blocks))
    else:
        # numpy releases the GIL while it fills, sums and weights the paths.
        # The workers call private helpers only: perfbench's tracer wraps the
        # public functions and keeps one span stack, which threads would corrupt.
        with ThreadPoolExecutor(min(workers, len(blocks))) as pool:
            parts = list(pool.map(maxima, blocks))
    return LimitSample(np.sort(np.concatenate(parts)), degenerate=not weights[0].size)


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


# the fewest steps of an explicit null grid
_MIN_GRID = 100


def _null_grid(alpha: float, grid: int | None, n: int) -> int:
    """Check alpha; the G of a caller's null ``grid`` (None: the n steps)."""
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must be in (0, 1)")
    if grid is not None and grid < _MIN_GRID:
        raise ValueError(f"an explicit null grid must have at least {_MIN_GRID} "
                         f"steps, got {grid}")
    return n if grid is None else grid


def test(fit: BreakFit, alpha: float = 0.05, *, reps: int = 1000,
         grid: int | None = None, seed=None) -> DetectionReport:
    """Run the fully functional break test of ``fit``'s series at level ``alpha``.

    The null law is simulated from the eigenvalues of the fit's H0 kernel
    (``BreakFit.null``) above D eps max(lam); ``simulate_null_limit`` drops the
    rest as rounding noise, and ``eigenvalues_used`` lists all D, negatives
    clipped to zero. ``config["split"]`` echoes the kernel's split (k_hat or
    None), ``config["h"]`` its bandwidth and ``config["grid"]`` the G of
    ``grid`` (None, the default: the series' own n steps; see the module
    docstring). The report gives the statistic, critical values and the
    finite-sample Monte Carlo p-value (1 + #{draws >= stat}) / (reps + 1).
    """
    grid = _null_grid(alpha, grid, fit.series.n)
    split, _, eig = fit.null
    lam = np.clip(eig.values, 0.0, None)
    null = simulate_null_limit(lam, reps=reps, grid=grid, seed=seed)
    p_value = (1 + int(np.count_nonzero(null.draws >= fit.stat))) / (reps + 1)
    levels = sorted({round(a, 12) for a in (alpha, 0.10, 0.05, 0.01)})
    critical_values = {a: null.quantile(1.0 - a) for a in levels}
    return DetectionReport(
        stat=fit.stat,
        k_hat=fit.k_hat,
        critical_values=critical_values,
        p_value=p_value,
        eigenvalues_used=lam,
        config={
            "alpha": alpha,
            "h": fit.h,
            "reps": reps,
            "grid": grid,
            "seed": seed,
            "split": split,
        },
        degenerate=null.degenerate,
    )


class NullBank:
    """The squared bridges of ``test``'s null law at one seed, kept for every
    fit that reads them.

    ``rejects`` of a fit reads the blocks that ``test(fit, alpha, reps=reps,
    grid=grid, seed=seed)`` draws, from the sub-bank of the fit's resolved D
    and G. A block is drawn (once, under the bank's lock) when the first fit
    that needs it reads it, and kept: a sub-bank holds at most reps D G float64s.
    """

    def __init__(self, seed, reps: int = 1000, grid: int | None = None):
        self.reps, self.grid = reps, grid
        self.root = (seed if isinstance(seed, np.random.SeedSequence)
                     else np.random.SeedSequence(seed))
        self._banks = {}  # (D, G) -> the squared bridges of the blocks drawn
        self._lock, self.nbytes = threading.Lock(), 0  # bytes of the kept blocks

    def rejects(self, fit: BreakFit, alpha: float) -> bool:
        """Whether ``test`` of ``fit`` at ``alpha`` and this bank's arguments
        gives p_value <= alpha. Blocks are read in order, and reading stops
        before a block once the count of draws >= the statistic makes
        (1 + count) / (reps + 1) exceed alpha: under the null the decision
        takes a fraction of the draws, and none when 1 / (reps + 1) > alpha.
        Kernel, grid and argument checks are those of ``test``."""
        weights = _bridge_weights(fit.null[2].values, self.reps,
                                  _null_grid(alpha, self.grid, fit.series.n))
        kept = self._banks.setdefault((weights[0].size, weights[1].size), [])
        exceed = 0
        for b in range(-(-self.reps // _block_size(weights))):
            if (1 + exceed) / (self.reps + 1) > alpha:
                return False
            with self._lock:  # draw block b unless another thread has drawn it
                if b == len(kept):
                    kept.append(_null_block(self.root, b, self.reps, weights))
                    self.nbytes += kept[-1].nbytes
            exceed += int(np.count_nonzero(_grid_maxima(weights, kept[b]) >= fit.stat))
        return (1 + exceed) / (self.reps + 1) <= alpha
