"""Simulation laboratory: data generators, break insertion and experiment runs.

Generates the three eigenvalue-decay settings with iid or first-order
functional autoregressive errors, inserts mean breaks calibrated to a target
signal-to-noise ratio, and drives size/power/dating/coverage experiments over
parameter grids with reproducible per-replication random streams. A worker
generates its replications a block at a time, each from its own stream in
the order ``gen_errors`` draws, and runs the block's FAR(1) recursions
together; so the output does not depend on blocks or workers. The fPCA
and aligned detectors are compared with exact quantiles of the continuous sup
of a squared Brownian bridge (``detect.KieferLaw``); the null grid and
replications affect only the fully functional (FF) test. Every replication
builds one ``detect.BreakFit`` of its series, and every detector reads it:
FF and aligned (oversized in setting 1, see ``fpca.aligned_statistic``) the
long-run kernel, and every fPCA level the one sample covariance spectrum,
each computed on first use; so a dating replication estimates no kernel.
"""

import contextlib
import hashlib
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .basis import Curve, CurveSeries, FourierBasis
from .dating import date_break
from .detect import KieferLaw, _null_grid, fit_break, rejects, resolve_workers
from .fpca import aligned_statistic, fit_fpca
from .longrun import LongRunConfig

__all__ = [
    "DgpConfig",
    "BreakSpec",
    "ExperimentResult",
    "CSV_COLUMNS",
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
# replications generated together, about 0.5 MB of far1 draws at n = 100, D = 21
_BLOCK_REPS = 16


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
    """One data generating process of the simulation study."""

    setting: int
    dependence: str = "iid"
    innovation: str = "gaussian"
    df: int | None = None
    n: int = 100
    n_basis: int = 21
    kappa: float = 0.5
    permute: bool = True

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
    for r, rng in enumerate(rngs):
        if far1:
            psi0 = rng.standard_normal((cfg.n_basis, cfg.n_basis)) * np.outer(sigma, sigma)
            psi0 /= np.linalg.norm(psi0, 2)
            np.multiply(cfg.kappa, psi0, out=psi[r])
        if cfg.innovation == "gaussian":
            draws = rng.standard_normal((steps, cfg.n_basis))
        else:
            draws = rng.standard_t(cfg.df, size=(steps, cfg.n_basis))
        np.multiply(draws, sigma, out=z[r])
    if not far1:
        return z, [None] * len(rngs)
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


def _apply_permutation(data: np.ndarray, permutation) -> np.ndarray:
    if permutation is None:
        return data
    out = np.empty_like(data)
    out[:, np.asarray(permutation)] = data
    return out


def gen_errors(cfg: DgpConfig, rng: np.random.Generator | None = None,
               permutation=None, burnin: int = DEFAULT_BURNIN,
               return_operator: bool = False):
    """Generate the error sequence of the configured DGP from ``rng`` (None: a
    fresh unseeded generator).

    For far1 dependence the random operator (Psi = kappa * Psi0 with Psi0
    scaled to unit operator norm) is drawn first, then the innovations; the
    recursion discards ``burnin`` initial curves. A permutation relabels the
    coefficient columns of the finished series. With ``return_operator`` the
    (unpermuted) Psi matrix is returned alongside the series.
    """
    if burnin < 0:
        raise ValueError(f"burnin must be nonnegative, got {burnin}")
    data, psi = _error_block(cfg, [np.random.default_rng(rng)], burnin)
    series = CurveSeries(_apply_permutation(data[0], permutation),
                         FourierBasis(cfg.n_basis))
    return (series, psi[0]) if return_operator else series


def break_function(m: int, c: float, n_basis: int = 21, permutation=None,
                   basis: FourierBasis | None = None) -> Curve:
    """Break curve sqrt(c/m) * sum of the first m (permuted) basis functions."""
    if not 1 <= m <= n_basis:
        raise ValueError(f"m must be in [1, {n_basis}]")
    if c < 0.0:
        raise ValueError("c must be nonnegative")
    coeffs = np.zeros(n_basis)
    targets = np.arange(m) if permutation is None else np.asarray(permutation)[:m]
    coeffs[targets] = np.sqrt(c / m)
    return Curve(coeffs, basis if basis is not None else FourierBasis(n_basis))


def snr_to_c(snr: float, theta: float, trace_ceps: float) -> float:
    """Break energy c giving the target signal-to-noise ratio."""
    if not 0.0 < theta < 1.0:
        raise ValueError("theta must lie in (0, 1)")
    if trace_ceps <= 0.0:
        raise ValueError("trace of the long-run kernel must be positive")
    return snr * trace_ceps / (theta * (1.0 - theta))


def far1_longrun_trace(sigma, psi) -> float:
    """Analytic long-run trace of a FAR(1): tr((I-Psi)^-1 S (I-Psi')^-1)."""
    sigma = np.asarray(sigma, dtype=float).ravel()
    psi = np.asarray(psi, dtype=float)
    if psi.shape != (sigma.size, sigma.size):
        raise ValueError("operator shape does not match sigma")
    # the spectral radius is at most the Frobenius norm, so most draws skip eigvals
    if (not np.linalg.norm(psi) < 1.0
            and np.max(np.abs(np.linalg.eigvals(psi))) >= 1.0):
        raise ValueError("operator spectral radius must be below 1")
    binv = np.linalg.inv(np.eye(sigma.size) - psi)
    return float((binv**2 @ sigma**2).sum())


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
_VALID_KINDS = tuple(_DETECTOR_KINDS)


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
           dgp.n_basis, kappa, dgp.permute)
    blob = hashlib.sha256(repr(key).encode()).digest()
    return int.from_bytes(blob[:8], "big")


@dataclass(frozen=True)
class _CellTask:
    kind: str
    dgp: DgpConfig
    break_spec: BreakSpec | None
    detectors: tuple[str, ...]
    alpha: float
    seed: int
    digest: int
    null_reps: int
    null_grid: int | None
    conservative: bool
    lr_config: LongRunConfig


def _replicate(task: _CellTask, series: CurveSeries, psi, perm,
               aux_seed: int) -> tuple[dict, dict]:
    """Run one replication; returns (detector -> outcome, detector -> error)."""
    dgp = task.dgp
    k_star = 0
    spec = task.break_spec
    if spec is not None:
        sigma = sigma_vector(dgp.setting, dgp.n_basis)
        trace_c = float(sigma @ sigma) if psi is None else far1_longrun_trace(sigma, psi)
        c = snr_to_c(spec.snr, spec.theta, trace_c)
        delta = break_function(spec.m, c, dgp.n_basis, permutation=perm,
                               basis=series.basis)
        k_star = int(spec.theta * dgp.n)
        series = insert_break(series, delta, k_star)

    # one fit for every detector: a kernel that raises is not kept, so each
    # detector that reads it counts its own failure
    fit = fit_break(series, task.lr_config)
    outcomes, errors = {}, {}
    for name in task.detectors:
        kind_name, tve = _parse_detector(name)
        try:
            outcomes[name] = _eval_detector(task, kind_name, tve, fit, aux_seed, k_star)
        except Exception as exc:  # noqa: BLE001 - failures are counted, not fatal
            errors[name] = f"{type(exc).__name__}: {exc}"
    return outcomes, errors


def _eval_detector(task: _CellTask, kind_name: str, tve: float | None,
                   fit, aux_seed: int, k_star: int):
    if task.kind in ("size", "power"):
        if kind_name == "ff":
            return rejects(fit, task.alpha, reps=task.null_reps,
                           grid=task.null_grid, seed=aux_seed)
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


def _run_chunk(task: _CellTask, start: int, stop: int) -> list:
    dgp = task.dgp
    basis = FourierBasis(dgp.n_basis)
    out = []
    for lo in range(start, stop, _BLOCK_REPS):
        rngs = [np.random.default_rng(np.random.SeedSequence((task.seed, task.digest, rep)))
                for rep in range(lo, min(lo + _BLOCK_REPS, stop))]
        perms = [rng.permutation(dgp.n_basis) if dgp.permute else None for rng in rngs]
        data, psi = _error_block(dgp, rngs, DEFAULT_BURNIN)
        # drawn after all data randomness, so the draw position is break-invariant
        aux_seeds = [int(rng.integers(0, 2**63)) for rng in rngs]
        for r, perm in enumerate(perms):
            series = CurveSeries(_apply_permutation(data[r], perm), basis)
            out.append(_replicate(task, series, psi[r], perm, aux_seeds[r]))
    return out


def validate_grid(kind, dgps, specs, detectors) -> None:
    """Check every grid value before any work starts; lists all offenders."""
    problems = []
    if kind not in _VALID_KINDS:
        raise ValueError(f"kind must be one of {_VALID_KINDS}")
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
            if int(spec.theta * cfg.n) < 1:  # the break date k* of ``_replicate``
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
    for name in task.detectors:
        values = [out[name] for out, _ in per_rep if name in out]
        fails = sum(1 for _, errs in per_rep if name in errs)
        done = len(values)

        def _row(metric, value, stderr=float("nan"), reps=done):
            rows.append({**base, "detector": name, "metric": metric,
                         "value": value, "stderr": stderr, "reps": reps})

        if task.kind in ("size", "power") and done:
            rate = float(np.mean(values))
            _row("rejection_rate", rate, float(np.sqrt(rate * (1 - rate) / done)))
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
                   conservative: bool = False,
                   lr_config: LongRunConfig | None = None) -> ExperimentResult:
    """Run a simulation experiment over DGP x break grids.

    ``kind`` is one of size, power, dating, coverage. ``dgp`` may be a single
    DgpConfig or a sequence; ``break_specs`` a sequence of BreakSpec (must be
    empty for size runs, where the null is sampled directly). Replications use
    streams keyed by (seed, DGP digest, replication), so any cell is
    reproducible in isolation and cells sharing a DGP replay identical errors,
    whatever the block size or ``workers``. Failed replications are counted
    per detector in ``failures`` rows. FF size and power decisions come from
    ``detect.rejects``, which gives the decisions of ``detect.test`` with
    fewer draws; ``null_reps`` and ``null_grid`` (None, the default: each
    series' own n steps) affect only them. ``xi_reps`` has no effect:
    coverage intervals use the exact Xi law. ``workers`` processes (default:
    one per CPU) run the replications, at most FUNCBREAK_THREADS of them.
    """
    if reps < 1 or null_reps < 1:
        raise ValueError("need at least one replication")
    _null_grid(alpha, null_grid, 1)  # alpha and the FF null grid, before any work
    dgps = [dgp] if isinstance(dgp, DgpConfig) else list(dgp)
    specs = list(break_specs) if break_specs else []
    validate_grid(kind, dgps, specs, detectors)

    tasks = []
    for cfg in dgps:
        digest = _cell_digest(cfg)
        for spec in (specs or [None]):
            tasks.append(_CellTask(
                kind=kind, dgp=cfg, break_spec=spec,
                detectors=tuple(detectors), alpha=alpha, seed=seed,
                digest=digest, null_reps=null_reps, null_grid=null_grid,
                conservative=conservative,
                lr_config=lr_config or LongRunConfig(),
            ))

    workers = resolve_workers(workers)
    chunk = max(1, -(-reps // (workers * 4)))
    bounds = [(start, min(start + chunk, reps)) for start in range(0, reps, chunk)]
    jobs = [(task, start, stop) for task in tasks for start, stop in bounds]
    if workers == 1:
        parts = [_run_chunk(*job) for job in jobs]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(_run_chunk, *zip(*jobs)))  # in job order
    rows = []
    for i, task in enumerate(tasks):
        cell = parts[i * len(bounds):(i + 1) * len(bounds)]
        rows.extend(_cell_rows(task, [rep for part in cell for rep in part]))
    return ExperimentResult(rows)
