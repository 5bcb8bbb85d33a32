"""Simulation laboratory: data generators, break insertion and experiment runs.

Generates the three eigenvalue-decay settings with iid or first-order
functional autoregressive errors, inserts mean breaks calibrated to a target
signal-to-noise ratio, and drives size/power/dating/coverage experiments over
parameter grids with reproducible per-replication random streams. A job runs
in blocks of up to ``_BLOCK_REPS`` = 128 replications, each drawn from its own
stream in the order ``gen_errors`` draws. Each later step is one stacked numpy
call per block, with the bits of one call per replication, so the output does
not depend on blocks or workers: the FAR(1) recursions, operator norms and
calibration traces, the break insertion, and each replication's one
``detect.BreakFit`` (``detect.fit_break`` runs the same code for one series)
with what the block's detectors read of it: for FF and aligned (oversized in
setting 1, see ``fpca.aligned_statistic``) size and power, the kernel split at
k_hat, the overall-mean kernel of the H0 rule and the H0 spectrum; for
coverage, the split kernel and its spectrum; for fPCA, the sample covariance
spectrum; for dating by k_hat, nothing. A fit whose block step raised computes
its own on first use, and fails alone. By ``tracemalloc``, a FAR(1) block of
128 at D = 21 peaks at 13 MiB (dating) or 14 MiB (size or power, every
detector) at n = 100, and at 23 or 24 MiB at n = 200.
A cell is cut into jobs of about a quarter of a worker's share, but of at
least ``_JOB_REPS`` = 16 replications, or an equal share per worker when the
cell is smaller: every job pays one pool round trip and one recursion of
``n + burnin`` steps per block, whatever its size. The fPCA and aligned
detectors are compared with exact quantiles of the continuous sup of a squared
Brownian bridge (``detect.KieferLaw``); the null grid and replications affect
only the fully functional (FF) test. FF size and power jobs read the
``detect.NullBank`` of (seed, DGP digest, null_reps, null_grid) that their
process keeps until a job of another seed runs there: the jobs and break specs
of a DGP, and size and power calls at one seed, share it, drawn as deep as the
slowest replication read. A full bank is null_reps D G float64s per resolved D
(16.8 MB at n = G = 100, D = 21; 168 MB at G = 1000). A job that ends evicts
least recently used other banks above ``_BANK_BUDGET`` = 256 MiB: between jobs
a process or pool worker keeps 256 MiB, or its last job's bank if larger, at
most, plus a full bank per running job, and holds them while idle.

Runs with more than one worker map their replications on one pool of worker
processes per process, kept between ``run_experiment`` calls: its workers idle
there, holding their memory, until the process exits. They are forked on
first use and see the module state of that moment but no bank, and each keeps
its own caches (the fPCA and aligned critical values, the banks) from call to
call. The pool is replaced, the old one joined first, when a call resolves to
another worker count, and dropped when a call raises; a call that finds a
worker of the kept pool dead runs its jobs again on a fresh pool. A process
forked from one that keeps a pool or banks starts with neither.
"""

import contextlib
import hashlib
import multiprocessing.util
import os
import threading
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .basis import Curve, CurveSeries, FourierBasis
from .dating import date_break
from .detect import KieferLaw, NullBank, _fit_stack, _null_grid, resolve_workers
from .fpca import aligned_statistic, fit_fpca

__all__ = [
    "DgpConfig",
    "BreakSpec",
    "ExperimentResult",
    "CSV_COLUMNS",
    "KINDS",
    "DEFAULT_DETECTORS",
    "default_detectors",
    "sigma_vector",
    "gen_errors",
    "break_function",
    "snr_to_c",
    "far1_longrun_trace",
    "insert_break",
    "validate_grid",
    "resolve_workers",
    "run_experiment",
]

DEFAULT_BURNIN = 100
# the most replications of a block; each adds 0.1 MiB to it at n = 100, D = 21
_BLOCK_REPS = 128
# the fewest replications of a job, unless the cell is smaller than that per worker
_JOB_REPS = 16


def sigma_vector(setting: int, n_basis: int = 21) -> np.ndarray:
    """Innovation standard deviations for the three eigenvalue-decay settings."""
    idx = np.arange(1, n_basis + 1, dtype=float)
    if setting == 1:
        return np.where(idx <= 3, 1.0, 0.0)
    if setting == 2:
        return 3.0 ** (-idx)
    if setting == 3:
        return 1.0 / idx
    raise ValueError(f"unknown setting {setting!r}")


@dataclass(frozen=True)
class DgpConfig:
    """One data generating process of the simulation study. Curves are drawn
    in coefficient space, with sigma_l on column l, and every detector is
    invariant under relabeling the basis."""

    setting: int
    dependence: str = "iid"
    innovation: str = "gaussian"
    df: int | None = None
    n: int = 100
    n_basis: int = 21
    kappa: float = 0.5

    def __post_init__(self):
        if self.setting not in (1, 2, 3):
            raise ValueError("setting must be 1, 2 or 3")
        if self.dependence not in ("iid", "far1"):
            raise ValueError("dependence must be 'iid' or 'far1'")
        if self.innovation not in ("gaussian", "student"):
            raise ValueError("innovation must be 'gaussian' or 'student'")
        if self.innovation == "student" and self.df not in (2, 3, 4):
            raise ValueError("student innovations need df in {2, 3, 4}")
        if self.innovation != "student" and self.df is not None:
            raise ValueError("df applies to student innovations only")
        if not -1.0 < self.kappa < 1.0:
            raise ValueError("kappa must lie in (-1, 1)")
        if self.n < 10:
            raise ValueError("sample size must be at least 10")
        if self.n_basis < 1:
            raise ValueError("n_basis must be positive")


@dataclass(frozen=True)
class BreakSpec:
    """Break configuration: loaded directions, target SNR, relative location."""

    m: int
    snr: float
    theta: float

    def __post_init__(self):
        if self.m < 1:
            raise ValueError("m must be at least 1")
        if self.snr < 0.0:
            raise ValueError("snr must be nonnegative")
        if not 0.0 < self.theta < 1.0:
            raise ValueError("theta must lie in (0, 1)")


def _error_block(cfg: DgpConfig, rngs, burnin: int):
    """Error sequences of one replication per generator.

    Each generator draws the operator Psi0 (far1 only), then the innovations,
    so a replication does not depend on the others in its block. Returns the
    (R, n, D) data after the burn-in and the (R, D, D) operators (a None per
    replication for iid).
    """
    sigma = sigma_vector(cfg.setting, cfg.n_basis)
    far1 = cfg.dependence == "far1"
    steps = cfg.n + burnin if far1 else cfg.n
    z = np.empty((len(rngs), steps, cfg.n_basis))
    psi = np.empty((len(rngs), cfg.n_basis, cfg.n_basis)) if far1 else None
    scale = np.outer(sigma, sigma)
    for r, rng in enumerate(rngs):
        if far1:
            np.multiply(rng.standard_normal((cfg.n_basis, cfg.n_basis)), scale, out=psi[r])
        if cfg.innovation == "gaussian":
            draws = rng.standard_normal((steps, cfg.n_basis))
        else:
            draws = rng.standard_t(cfg.df, size=(steps, cfg.n_basis))
        np.multiply(draws, sigma, out=z[r])
    if not far1:
        return z, [None] * len(rngs)
    psi /= np.linalg.norm(psi, 2, axis=(1, 2))[:, None, None]  # Psi0, of unit norm
    psi *= cfg.kappa
    _far1_filter(psi, z)
    return z[:, burnin:], psi


def _far1_filter(psi: np.ndarray, z: np.ndarray) -> None:
    """Run x_t = Psi x_{t-1} + z_t from x_{-1} = 0 in place, for a stack.

    ``psi`` is (R, D, D) and ``z`` (R, T, D); one stacked matmul per step
    serves all R recursions and gives the same bits as a matvec each.
    """
    cols = z[..., None]
    prev = np.zeros((z.shape[0], z.shape[2], 1))
    buf = np.empty_like(prev)
    for t in range(z.shape[1]):
        row = cols[:, t]
        np.matmul(psi, prev, out=buf)
        np.add(buf, row, out=row)
        prev = row


def gen_errors(cfg: DgpConfig, rng: np.random.Generator | None = None,
               burnin: int = DEFAULT_BURNIN, return_operator: bool = False):
    """Generate the error sequence of the configured DGP from ``rng`` (None: a
    fresh unseeded generator).

    For far1 dependence the random operator (Psi = kappa * Psi0 with Psi0
    scaled to unit operator norm) is drawn first, then the innovations; the
    recursion discards ``burnin`` initial curves. With ``return_operator`` the
    Psi matrix is returned alongside the series.
    """
    if burnin < 0:
        raise ValueError(f"burnin must be nonnegative, got {burnin}")
    data, psi = _error_block(cfg, [np.random.default_rng(rng)], burnin)
    series = CurveSeries(data[0], FourierBasis(cfg.n_basis))
    return (series, psi[0]) if return_operator else series


def break_function(m: int, c: float, n_basis: int = 21) -> Curve:
    """Break curve sqrt(c/m) * sum of the first m basis functions."""
    if not 1 <= m <= n_basis:
        raise ValueError(f"m must be in [1, {n_basis}]")
    if c < 0.0:
        raise ValueError("c must be nonnegative")
    return Curve(_break_coeffs(m, c, n_basis), FourierBasis(n_basis))


def _break_coeffs(m: int, c, n_basis: int) -> np.ndarray:
    """``break_function`` coefficients, (..., n_basis) for break energies c (...)."""
    return np.sqrt(np.divide(c, m))[..., None] * (np.arange(n_basis) < m)


def snr_to_c(snr: float, theta: float, trace_ceps):
    """Break energy c giving the target signal-to-noise ratio, one per trace."""
    if not 0.0 < theta < 1.0:
        raise ValueError("theta must lie in (0, 1)")
    if np.min(trace_ceps) <= 0.0:
        raise ValueError("trace of the long-run kernel must be positive")
    return snr * trace_ceps / (theta * (1.0 - theta))


def far1_longrun_trace(sigma, psi):
    """Analytic long-run trace tr((I-Psi)^-1 S (I-Psi')^-1), S = diag(sigma^2),
    of a FAR(1) with operator ``psi``: a float for a (D, D) operator, an (R,)
    array for a stack of R, all inverted in one call."""
    sigma = np.asarray(sigma, dtype=float).ravel()
    psi = np.asarray(psi, dtype=float)
    if psi.ndim not in (2, 3) or psi.shape[-2:] != (sigma.size, sigma.size):
        raise ValueError("operator shape does not match sigma")
    stack = psi.reshape(-1, sigma.size, sigma.size)
    # the spectral radius is at most the Frobenius norm, so most draws skip eigvals
    wide = stack[~(np.linalg.norm(stack, axis=(1, 2)) < 1.0)]
    if wide.size and np.max(np.abs(np.linalg.eigvals(wide))) >= 1.0:
        raise ValueError("operator spectral radius must be below 1")
    binv = np.linalg.inv(np.eye(sigma.size) - stack)
    traces = (binv**2 @ sigma**2).sum(axis=1)
    return traces if psi.ndim == 3 else float(traces[0])


def insert_break(series: CurveSeries, delta: Curve, k_star: int) -> CurveSeries:
    """Add the break curve to observations k_star+1..n; k_star=0 keeps the null."""
    if series.basis != delta.basis:
        raise ValueError("break curve and series use different bases")
    if not 0 <= k_star <= series.n:
        raise ValueError(f"break date must be in [0, {series.n}]")
    data = series.data.copy()
    data[k_star:] += delta.coeffs
    return CurveSeries(data, series.basis)


# ---------------------------------------------------------------------------
# experiment runner


CSV_COLUMNS = ("setting", "dependence", "n", "m", "snr", "theta", "detector",
               "metric", "value", "stderr", "reps", "seed")

_DETECTOR_KINDS = {"size": ("ff", "fpca", "aligned"),
                   "power": ("ff", "fpca", "aligned"),
                   "dating": ("ff", "fpca"),
                   "coverage": ("ff",)}
KINDS = tuple(_DETECTOR_KINDS)
DEFAULT_DETECTORS = ("FF", "fPCA@0.85", "fPCA@0.90", "fPCA@0.95", "Aligned")


def _parse_detector(name: str) -> tuple[str, float | None]:
    token = name.strip()
    low = token.lower()
    if low == "ff":
        return "ff", None
    if low == "aligned":
        return "aligned", None
    if low.startswith("fpca@"):
        with contextlib.suppress(ValueError):  # a TVE that is not a number
            tve = float(token.split("@", 1)[1])
            if 0.0 < tve <= 1.0:
                return "fpca", tve
        raise ValueError(f"TVE fraction in detector {name!r} is not a number in (0, 1]")
    raise ValueError(f"unknown detector {name!r}")


def default_detectors(kind: str) -> list[str]:
    """Those of ``DEFAULT_DETECTORS`` that a ``kind`` run supports."""
    return [name for name in DEFAULT_DETECTORS
            if _parse_detector(name)[0] in _DETECTOR_KINDS[kind]]


@lru_cache(maxsize=None)
def _bridge_critical_value(d: int, alpha: float) -> float:
    # shared across replications: the d-dimensional limit law is data-free
    return KieferLaw(d).quantile(1.0 - alpha)


def _cell_digest(dgp: DgpConfig) -> int:
    # data-generating parameters only: break parameters are excluded so that
    # cells differing only in the break replay identical error sequences, and
    # iid cells, which ignore kappa, are keyed at its default
    kappa = dgp.kappa if dgp.dependence == "far1" else DgpConfig.kappa
    key = (dgp.setting, dgp.dependence, dgp.innovation, dgp.df, dgp.n,
           dgp.n_basis, kappa)
    blob = hashlib.sha256(repr(key).encode()).digest()
    return int.from_bytes(blob[:8], "big")


@dataclass(frozen=True)
class _CellTask:
    kind: str
    dgp: DgpConfig
    break_spec: BreakSpec | None
    detectors: tuple[tuple[str, str, float | None], ...]  # (name, kind, TVE)
    alpha: float
    seed: int
    digest: int
    null_reps: int
    null_grid: int | None
    conservative: bool


def _replicate_block(task: _CellTask, reps: range, bank: NullBank) -> list:
    """Run replications ``reps`` of a cell as one block (see the module
    docstring); returns (detector -> outcome, detector -> error) of each."""
    dgp, spec = task.dgp, task.break_spec
    data, psi = _error_block(dgp, [np.random.default_rng(np.random.SeedSequence(
        (task.seed, task.digest, rep))) for rep in reps], DEFAULT_BURNIN)
    k_star = 0
    if spec is not None:
        sigma = sigma_vector(dgp.setting, dgp.n_basis)
        trace_c = (far1_longrun_trace(sigma, psi) if dgp.dependence == "far1"
                   else float(sigma @ sigma))
        k_star = int(spec.theta * dgp.n)
        data[:, k_star:] += _break_coeffs(
            spec.m, snr_to_c(spec.snr, spec.theta, trace_c), dgp.n_basis)[..., None, :]

    # one fit for every detector: a kernel that raises is not kept, so each
    # detector that reads it counts its own failure
    basis = FourierBasis(dgp.n_basis)
    kinds = {kind_name for _, kind_name, _ in task.detectors}
    kernels = ("null" if task.kind in ("size", "power") and kinds - {"fpca"}
               else "split" if task.kind == "coverage" else None)
    fits = _fit_stack([CurveSeries(x, basis) for x in data], data,
                      cov="fpca" in kinds, kernels=kernels)
    out = []
    for fit in fits:
        outcomes, errors = {}, {}
        for name, kind_name, tve in task.detectors:
            try:
                outcomes[name] = _eval_detector(task, kind_name, tve, fit, bank, k_star)
            except Exception as exc:  # noqa: BLE001 - failures are counted, not fatal
                errors[name] = f"{type(exc).__name__}: {exc}"
        out.append((outcomes, errors))
    return out


def _eval_detector(task: _CellTask, kind_name: str, tve: float | None,
                   fit, bank: NullBank, k_star: int):
    if task.kind in ("size", "power"):
        if kind_name == "ff":
            return bank.rejects(fit, task.alpha)
        if kind_name == "fpca":
            result = fit_fpca(fit, tve=tve)
            return result.stat > _bridge_critical_value(result.d, task.alpha)
        stat = aligned_statistic(fit)
        return stat > _bridge_critical_value(1, task.alpha)

    if task.kind == "dating":
        if kind_name == "ff":
            return fit.k_hat - k_star
        return fit_fpca(fit, tve=tve).k_hat - k_star

    # coverage: fully functional confidence interval around the break estimate
    report = date_break(fit, task.alpha, conservative=task.conservative)
    lo, hi = report.ci_raw
    return (bool(lo <= k_star <= hi), hi - lo)


def _bank_seed(seed: int, digest: int) -> np.random.SeedSequence:
    """The FF null bank's seed of every cell of a DGP: (seed, digest) with the
    spawn key (0, 0). Its entropy words end in two zero words, and those of a
    replication stream (seed, digest, rep) never do, so it is none of them."""
    return np.random.SeedSequence((seed, digest), spawn_key=(0, 0))


# FF null banks by (seed, digest, null_reps, null_grid), least recently used first
_BANK_BUDGET = 256 << 20
_banks, _banks_lock = {}, threading.Lock()


def _forget_banks() -> None:
    """Empty the bank cache, with a new lock (a forked child's lock may be held)."""
    global _banks, _banks_lock
    _banks, _banks_lock = {}, threading.Lock()


def _kept_bank(task: _CellTask) -> NullBank:
    """``task``'s FF null bank, kept or made, now the most recently used."""
    key = (task.seed, task.digest, task.null_reps, task.null_grid)
    with _banks_lock:
        for old in [old for old in _banks if old[0] != task.seed]:
            del _banks[old]  # a study that moved to a new seed reads none again
        bank = _banks[key] = _banks.pop(key, None) or NullBank(
            _bank_seed(task.seed, task.digest), task.null_reps, task.null_grid)
        return bank


def _run_chunk(task: _CellTask, start: int, stop: int) -> list:
    ff_null = any(kind_name == "ff" for _, kind_name, _ in task.detectors)
    bank = _kept_bank(task) if ff_null and task.kind in ("size", "power") else None
    out = []
    for lo in range(start, stop, _BLOCK_REPS):
        out.extend(_replicate_block(task, range(lo, min(lo + _BLOCK_REPS, stop)), bank))
    if bank is not None:  # it has grown: evict the least recently used others
        with _banks_lock:
            others = [key for key, old in _banks.items() if old is not bank]
            while others and sum(old.nbytes for old in _banks.values()) > _BANK_BUDGET:
                del _banks[others.pop(0)]
    return out


def _job_bounds(reps: int, workers: int) -> list:
    """(start, stop) of each job of a cell, sized as the module docstring says."""
    chunk = max(-(-reps // (4 * workers)), min(_JOB_REPS, -(-reps // workers)))
    return [(start, min(start + chunk, reps)) for start in range(0, reps, chunk)]


# the process's kept worker pool as (worker count, executor), see _map_chunks
_pool = None
_pool_lock = threading.Lock()


def _after_fork() -> None:
    """A forked child keeps no bank and no pool of its parent (the pool's
    threads are not in the child), and takes new locks: the parent's other
    threads may have held them across the fork."""
    global _pool, _pool_lock
    _forget_banks()
    _pool, _pool_lock = None, threading.Lock()


os.register_at_fork(after_in_child=_after_fork)


def _drop_pool() -> None:
    """Forget the kept pool, cancel its queued jobs and join its workers."""
    global _pool
    if _pool is not None:
        pool, _pool = _pool[1], None
        pool.shutdown(cancel_futures=True)


def _map_chunks(jobs: list, workers: int) -> list:
    """``_run_chunk`` of each job, in job order, on the kept pool of ``workers``.

    Calls from several threads take turns. A pool of another size is joined
    before the new one forks. A call that raises drops the pool, so no later
    call queues behind its jobs; if a worker of a kept pool died since its
    last call, the jobs run again once on a fresh pool.
    """
    global _pool
    with _pool_lock:
        if _pool is not None and _pool[0] != workers:
            _drop_pool()
        while True:
            reused = _pool is not None
            if not reused:
                _pool = (workers, ProcessPoolExecutor(max_workers=workers))
                # stops the workers at exit before multiprocessing's queues
                # close (priority 10) and it joins them, else it waits for ever
                multiprocessing.util.Finalize(None, _drop_pool, exitpriority=100)
            try:
                return list(_pool[1].map(_run_chunk, *zip(*jobs)))
            except BrokenProcessPool:
                _drop_pool()
                if not reused:
                    raise
            except BaseException:
                _drop_pool()
                raise


def validate_grid(kind, dgps, specs, detectors) -> None:
    """Check every grid value before any work starts; lists all offenders."""
    problems = []
    if kind not in KINDS:
        raise ValueError(f"kind must be one of {KINDS}")
    if kind == "size" and specs:
        problems.append("size experiments take no break grid")
    if kind != "size" and not specs:
        problems.append(f"{kind} experiments need at least one break spec")
    allowed = _DETECTOR_KINDS[kind]
    seen = {}  # (kind, tve) -> the first name that parses to it
    for name in detectors:
        try:
            kind_name, tve = _parse_detector(name)
        except ValueError as exc:
            problems.append(str(exc))
            continue
        if (kind_name, tve) in seen:
            problems.append(
                f"detectors {seen[kind_name, tve]!r} and {name!r} are the same")
        seen.setdefault((kind_name, tve), name)
        if kind_name not in allowed:
            problems.append(f"detector {name!r} does not support {kind} runs")
    for cfg in dgps:
        for spec in specs:
            if spec.m > cfg.n_basis:
                problems.append(f"m={spec.m} exceeds the basis size {cfg.n_basis}")
            if int(spec.theta * cfg.n) < 1:  # the break date k* of ``_replicate_block``
                problems.append(f"theta={spec.theta} places no break at n={cfg.n}")
    if problems:
        raise ValueError("invalid experiment grid: "
                         + "; ".join(sorted(set(problems))))


@dataclass
class ExperimentResult:
    """Flat result rows, one per (cell, detector, metric)."""

    rows: list

    def select(self, **filters) -> list:
        return [row for row in self.rows
                if all(row.get(key) == val for key, val in filters.items())]

    def value(self, **filters) -> float:
        rows = self.select(**filters)
        if len(rows) != 1:
            raise KeyError(f"filters {filters} matched {len(rows)} rows")
        return rows[0]["value"]

    def to_csv(self, target) -> None:
        import csv

        def _write(fh):
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(CSV_COLUMNS)
            for row in self.rows:  # a NaN is written as an empty field
                writer.writerow(["" if isinstance(val, float) and np.isnan(val)
                                 else val for val in map(row.__getitem__, CSV_COLUMNS)])

        if hasattr(target, "write"):
            _write(target)
        else:
            with open(target, "w", encoding="utf-8", newline="") as fh:
                _write(fh)


def _bank_variance(null_reps: int, alpha: float) -> float:
    """Variance over banks of the rejection probability of an exact FF test
    under H0: Beta(k, N + 1 - k) for N = ``null_reps`` and k = floor(alpha
    (N + 1)), the largest 1 + count that rejects."""
    k = int(np.count_nonzero(np.arange(1, null_reps + 2) / (null_reps + 1) <= alpha))
    return k * (null_reps + 1 - k) / ((null_reps + 1) ** 2 * (null_reps + 2))


def _cell_rows(task: _CellTask, per_rep: list) -> list:
    spec = task.break_spec
    base = {
        "setting": task.dgp.setting,
        "dependence": task.dgp.dependence,
        "n": task.dgp.n,
        "m": spec.m if spec else 0,
        "snr": spec.snr if spec else 0.0,
        "theta": spec.theta if spec else 0.0,
        "seed": task.seed,
    }
    rows = []
    for name, kind_name, _ in task.detectors:
        values = [out[name] for out, _ in per_rep if name in out]
        fails = sum(1 for _, errs in per_rep if name in errs)
        done = len(values)

        def _row(metric, value, stderr=float("nan"), reps=done):
            rows.append({**base, "detector": name, "metric": metric,
                         "value": value, "stderr": stderr, "reps": reps})

        if task.kind in ("size", "power") and done:
            rate = float(np.mean(values))
            var = rate * (1 - rate) / done
            if task.kind == "size" and kind_name == "ff":
                var += _bank_variance(task.null_reps, task.alpha)
            _row("rejection_rate", rate, float(np.sqrt(var)))
        elif task.kind == "dating" and done:
            err = np.asarray(values, dtype=float)
            _row("bias", float(err.mean()),
                 float(err.std(ddof=1) / np.sqrt(done)) if done > 1 else float("nan"))
            _row("median_abs_error", float(np.median(np.abs(err))))
            _row("q25", float(np.quantile(err, 0.25)))
            _row("q75", float(np.quantile(err, 0.75)))
        elif task.kind == "coverage" and done:
            covered = np.asarray([v[0] for v in values], dtype=float)
            widths = np.asarray([v[1] for v in values], dtype=float)
            rate = float(covered.mean())
            _row("coverage", rate, float(np.sqrt(rate * (1 - rate) / done)))
            _row("median_width", float(np.median(widths)))
        if fails:
            _row("failures", fails, reps=len(per_rep))
    return rows


def run_experiment(kind: str, dgp, break_specs=None, detectors=("FF",),
                   reps: int = 1000, alpha: float = 0.05, seed: int = 0,
                   workers: int | None = None, null_reps: int = 1000,
                   null_grid: int | None = None, xi_reps: int = 2000,
                   conservative: bool = False) -> ExperimentResult:
    """Run a simulation experiment over DGP x break grids.

    ``kind`` is one of size, power, dating, coverage. ``dgp`` may be a single
    DgpConfig or a sequence; ``break_specs`` a sequence of BreakSpec (must be
    empty for size runs, where the null is sampled directly). Replications use
    streams keyed by (seed, DGP digest, replication), so any cell is
    reproducible in isolation and cells sharing a DGP replay identical errors,
    whatever the block size or ``workers``. Failed replications are counted
    per detector in ``failures`` rows. FF size and power decisions are those
    of ``detect.test`` at one cell seed (see the module docstring for the
    bank they read); ``null_reps`` and ``null_grid`` (None, the default: each
    series' own n steps) affect only them. ``xi_reps`` has no effect:
    coverage intervals use the exact Xi law. ``workers`` processes (default:
    one per CPU) run the replications, at most FUNCBREAK_THREADS of them; with
    one they run in this process.

    Since the replications of a cell share one Monte Carlo critical value,
    the ``stderr`` of an FF size row is sqrt(r (1 - r) / R + v), where
    v = k (N + 1 - k) / ((N + 1)^2 (N + 2)), k = floor(alpha (N + 1)) and
    N = ``null_reps``, is the variance over banks of an exact test's
    rejection probability under H0. Power rows leave the bank term out and
    give the binomial sqrt(r (1 - r) / R), which understates their spread
    over cell seeds: at setting 1, n = 30, N = 99 and SNR 0.1 the variance
    over 40 seeds was 10.4 times the binomial term.
    """
    if reps < 1 or null_reps < 1:
        raise ValueError("need at least one replication")
    _null_grid(alpha, null_grid, 1)  # alpha and the FF null grid, before any work
    dgps = [dgp] if isinstance(dgp, DgpConfig) else list(dgp)
    specs = list(break_specs) if break_specs else []
    validate_grid(kind, dgps, specs, detectors)

    parsed = tuple((name, *_parse_detector(name)) for name in detectors)
    tasks = []
    for cfg in dgps:
        digest = _cell_digest(cfg)
        for spec in (specs or [None]):
            tasks.append(_CellTask(
                kind=kind, dgp=cfg, break_spec=spec,
                detectors=parsed, alpha=alpha, seed=seed,
                digest=digest, null_reps=null_reps, null_grid=null_grid,
                conservative=conservative,
            ))

    workers = resolve_workers(workers)
    bounds = _job_bounds(reps, workers)
    jobs = [(task, start, stop) for task in tasks for start, stop in bounds]
    if workers == 1:
        parts = [_run_chunk(*job) for job in jobs]
    else:
        parts = _map_chunks(jobs, workers)
    rows = []
    for i, task in enumerate(tasks):
        cell = parts[i * len(bounds):(i + 1) * len(bounds)]
        rows.extend(_cell_rows(task, [rep for part in cell for rep in part]))
    return ExperimentResult(rows)
