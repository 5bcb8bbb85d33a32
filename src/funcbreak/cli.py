"""Command line pipeline: CSV ingestion, break analysis, simulation tables.

Subcommands: ``detect`` (fully functional test), ``date`` (break dating with
confidence interval) and ``simulate`` (size/power/dating/coverage tables).
Reports are JSON documents echoing every tunable; simulation output is CSV.
Exit codes: 0 success, 2 data/input errors, 3 numerical degeneracy.
"""

import argparse
import contextlib
import csv
import datetime
import io
import json
import math
import sys
import warnings
from array import array

import numpy as np

from . import dating, detect, fpca
from .basis import CurveSeries, DegenerateFitError, FourierBasis
from .longrun import BANDWIDTH_EXPONENTS, MIN_CURVES, WEIGHTS, LongRunConfig
from .simlab import BreakSpec, DgpConfig, run_experiment, validate_grid

__all__ = ["DataFormatError", "ingest", "read_coeffs", "main"]

EXIT_DATA = 2
EXIT_NUMERIC = 3


class DataFormatError(ValueError):
    """Raised when an input file cannot be parsed into curves."""


# (flag, attribute, valid, requirement), checked before any input is read
_OPTION_RANGES = (
    ("--alpha", "alpha", lambda v: 0.0 < v < 1.0, "in (0, 1)"),
    ("--reps", "reps", lambda v: v >= 1, "at least 1"),
    ("--grid", "grid", lambda v: v >= 100, "at least 100"),
    ("--basis-size", "basis_size", lambda v: v >= 1, "at least 1"),
    ("--max-missing", "max_missing", lambda v: 0.0 <= v <= 1.0, "in [0, 1]"),
    ("--tve", "tve", lambda v: 0.0 < v <= 1.0, "in (0, 1]"),
    ("--sim-reps", "sim_reps", lambda v: v >= 1, "at least 1"),
)

# levels of the Xi quantiles that ``date`` reports
_XI_QUANTILE_LEVELS = (0.005, 0.025, 0.05, 0.25, 0.5, 0.75, 0.95, 0.975, 0.995)


def _check_options(args) -> None:
    for flag, attr, valid, requirement in _OPTION_RANGES:
        value = getattr(args, attr, None)
        if value is not None and not valid(value):
            raise DataFormatError(f"{flag} must be {requirement}, got {value}")
    try:  # the thread cap in the environment, read by the null simulation
        detect.resolve_workers(None)
    except ValueError as exc:
        raise DataFormatError(str(exc)) from None


@contextlib.contextmanager
def _csv_rows(source):
    """A CSV reader over a path or an open text stream, and its name for messages.

    Rows are read as they are consumed, so no list of the file's rows is held.
    """
    if hasattr(source, "read"):
        yield csv.reader(source), "<stream>"
        return
    with open(source, newline="", encoding="utf-8") as fh:
        yield csv.reader(fh), str(source)


# day 0 of numpy's datetime64[D]
_EPOCH_ORDINAL = datetime.date(1970, 1, 1).toordinal()


def _days_in_year(year: int) -> int:
    return 366 if (year % 4 == 0 and (year % 100 != 0 or year % 400 == 0)) else 365


def ingest(source, basis_size: int = 21, max_missing: float = 0.10):
    """Read a ``date,value`` CSV into one curve per year.

    Day k of a Y-day year maps to t = (k - 0.5) / Y; each year's available
    values are least-squares fitted on the Fourier basis. An empty or ``nan``
    value marks a missing day; a row with an unparseable date or value, or an
    infinite value, is an error that names its line. Of rows that repeat a
    date, the last one counts. Years with more than ``max_missing`` of their
    days missing (absent rows count as missing) are dropped with a warning.
    Returns (series, labels, dropped_years).
    """
    ordinals, values, bad_lines = array("q"), array("d"), []
    with _csv_rows(source) as (reader, origin):
        if [c.strip().lower() for c in next(reader, [])] != ["date", "value"]:
            raise DataFormatError(f"{origin}: expected header 'date,value'")
        for lineno, row in enumerate(reader, start=2):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if len(row) != 2:
                bad_lines.append(lineno)
                continue
            value_text = row[1].strip()
            try:
                ordinal = datetime.date.fromisoformat(row[0].strip()).toordinal()
                value = float(value_text) if value_text else math.nan
            except ValueError:
                bad_lines.append(lineno)
                continue
            if math.isinf(value):
                bad_lines.append(lineno)
                continue
            ordinals.append(ordinal)
            values.append(value)
    if bad_lines:
        shown = ", ".join(str(x) for x in bad_lines[:20])
        more = "" if len(bad_lines) <= 20 else f" (+{len(bad_lines) - 20} more)"
        raise DataFormatError(f"{origin}: unparseable rows at lines {shown}{more}")
    if not ordinals:
        raise DataFormatError(f"{origin}: no observations found")

    # sort by date; of a repeated date the last row wins
    ordinals, values = np.array(ordinals), np.array(values)
    order = np.argsort(ordinals, kind="stable")
    ordinals, values = ordinals[order], values[order]
    last = np.append(ordinals[1:] != ordinals[:-1], True)
    dates = (ordinals[last] - _EPOCH_ORDINAL).astype("datetime64[D]")
    values = values[last]
    year_starts = dates.astype("datetime64[Y]")
    years = year_starts.astype(int) + 1970
    day_index = (dates - year_starts.astype("datetime64[D]")).astype(int)  # from 0
    starts = np.flatnonzero(np.diff(years, prepend=years[0] - 1))

    basis = FourierBasis(basis_size)
    # the basis at every day of a year of each length: the elementwise values
    # fit_curve would compute at t = (k - 0.5) / days, k = 1..days
    designs = {}
    labels, curves, dropped = [], [], []
    for year, idx, y in zip(years[starts].tolist(), np.split(day_index, starts[1:]),
                            np.split(values, starts[1:])):
        days = _days_in_year(year)
        usable = ~np.isnan(y)
        present = int(np.count_nonzero(usable))
        if (days - present) / days > max_missing:
            dropped.append(year)
            continue
        if present < basis_size:
            raise DataFormatError(f"{origin}: year {year}: only {present} usable "
                                  f"points for {basis_size} basis functions")
        if days not in designs:
            designs[days] = basis.design_matrix((np.arange(1, days + 1) - 0.5) / days)
        coeffs, *_ = np.linalg.lstsq(designs[days][idx[usable]], y[usable], rcond=None)
        labels.append(str(year))
        curves.append(coeffs)
    if dropped:
        warnings.warn(
            "dropped years exceeding the missing-data threshold: "
            + ", ".join(str(y) for y in dropped),
            stacklevel=2,
        )
    if len(curves) < 2:
        raise DataFormatError(f"{origin}: fewer than two usable years")
    return CurveSeries(np.vstack(curves), basis), labels, dropped


def read_coeffs(source, basis_size: int = 21):
    """Read a pre-smoothed coefficient CSV with header label,c1,...,cD."""
    expected = ["label"] + [f"c{i}" for i in range(1, basis_size + 1)]
    labels, data = [], []
    with _csv_rows(source) as (reader, origin):
        if [c.strip() for c in next(reader, [])] != expected:
            raise DataFormatError(
                f"{origin}: expected header label,c1,...,c{basis_size}")
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != basis_size + 1:
                raise DataFormatError(f"{origin}: wrong column count at line {lineno}")
            try:
                values = [float(v) for v in row[1:]]
            except ValueError:
                raise DataFormatError(
                    f"{origin}: non-numeric coefficient at line {lineno}") from None
            if not all(math.isfinite(v) for v in values):
                raise DataFormatError(
                    f"{origin}: non-finite coefficient at line {lineno}")
            data.append(values)
            labels.append(row[0])
    if len(data) < 2:
        raise DataFormatError(f"{origin}: fewer than two curve rows")
    return CurveSeries(np.array(data), FourierBasis(basis_size)), labels


def _dump_coeffs(series: CurveSeries, labels, path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["label"] + [f"c{i}" for i in range(1, series.basis.n_basis + 1)])
        for label, row in zip(labels, series.data):
            writer.writerow([label] + [repr(float(v)) for v in row])


def _load_series(args):
    source = sys.stdin if args.path == "-" else args.path
    if args.coeffs:
        series, labels = read_coeffs(source, args.basis_size)
        dropped = []
    else:
        series, labels, dropped = ingest(source, args.basis_size, args.max_missing)
    if series.n < MIN_CURVES:  # the bandwidth rules need that many curves
        name = "<stream>" if args.path == "-" else args.path
        raise DataFormatError(f"{name}: {series.n} curves, fewer than {MIN_CURVES}")
    if args.dump_coeffs:
        _dump_coeffs(series, labels, args.dump_coeffs)
    return series, labels, dropped


def _check_finite(node, crumb="report"):
    if isinstance(node, dict):
        for key, val in node.items():
            _check_finite(val, f"{crumb}.{key}")
    elif isinstance(node, (list, tuple)):
        for i, val in enumerate(node):
            _check_finite(val, f"{crumb}[{i}]")
    elif isinstance(node, float) and not math.isfinite(node):
        raise ValueError(f"non-finite number in {crumb}")


def _emit_json(report: dict, out_path) -> None:
    _check_finite(report)
    text = json.dumps(report, sort_keys=True, indent=2) + "\n"
    if out_path:
        with open(out_path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _year_label(labels, index: int) -> str:
    index = min(max(index, 1), len(labels))
    return labels[index - 1]


def _base_config(args, series, h_used, dropped):
    return {
        "basis_size": args.basis_size,
        "n_curves": series.n,
        "weight": args.weight,
        "bandwidth": args.bandwidth,
        "h": h_used,
        "alpha": args.alpha,
        "reps": args.reps,
        "grid": args.grid,
        "seed": args.seed,
        "max_missing": args.max_missing,
        "coeffs_input": bool(args.coeffs),
        "dropped_years": [str(y) for y in dropped],
    }


def _lr_config(args) -> LongRunConfig:
    return LongRunConfig(weight=args.weight, bandwidth=args.bandwidth)


def _detection_report(args, series, labels, dropped, fit=None) -> dict:
    report = detect.test(series, args.alpha, _lr_config(args),
                         reps=args.reps, grid=args.grid, seed=args.seed, fit=fit)
    return {
        "stat": report.stat,
        "p_value": report.p_value,
        "critical_values": {str(a): q for a, q in report.critical_values.items()},
        "k_hat": report.k_hat,
        "k_hat_label": _year_label(labels, report.k_hat),
        "theta_hat": report.k_hat / series.n,
        "config": _base_config(args, series, report.config["h"], dropped),
    }


def _cmd_detect(args) -> dict:
    return _detection_report(args, *_load_series(args))


def _cmd_date(args) -> dict:
    series, labels, dropped = _load_series(args)
    # one CUSUM, k_hat and kernel fit serves both the test and the dating
    fit = detect.fit_break(series, _lr_config(args))
    report = _detection_report(args, series, labels, dropped, fit)
    rep = dating.date_break(series, args.alpha, _lr_config(args),
                            conservative=args.conservative, fit=fit)
    lo, hi = rep.ci
    report.update({
        "sigma2_hat": rep.sigma2_hat,
        "lambda1_hat": rep.lambda1_hat,
        "xi_quantiles": {str(q): rep.xi.quantile(q) for q in _XI_QUANTILE_LEVELS},
        "ci": {
            "lo": lo,
            "hi": hi,
            "lo_raw": rep.ci_raw[0],
            "hi_raw": rep.ci_raw[1],
            "lo_label": _year_label(labels, math.floor(lo)),
            "hi_label": _year_label(labels, math.ceil(hi)),
        },
        "conservative": rep.conservative,
    })
    report["config"]["xi_reps"] = args.xi_reps
    report["config"]["conservative"] = args.conservative
    if args.fpca:
        model = fpca.fit_fpca(series, tve=args.tve)
        result = fpca.fpca_statistic(model)
        report["fpca"] = {
            "tve": args.tve,
            "d": model.d,
            "k_tilde": result.k_hat,
            "k_tilde_label": _year_label(labels, result.k_hat),
        }
    return report


def _cmd_simulate(args) -> None:
    try:
        dgps = [
            DgpConfig(setting=s, dependence=dep, innovation=args.innovation,
                      df=args.df, n=n, n_basis=args.basis_size,
                      kappa=args.kappa, permute=not args.no_permute)
            for s in args.setting for dep in args.dependence for n in args.n
        ]
        if args.kind == "size":
            specs = []
        else:
            specs = [BreakSpec(m=m, snr=snr, theta=theta)
                     for m in args.m for snr in args.snr for theta in args.theta]
        validate_grid(args.kind, dgps, specs, args.detectors)
    except ValueError as exc:
        raise DataFormatError(f"invalid grid values: {exc}") from exc
    result = run_experiment(
        args.kind, dgps, specs, detectors=args.detectors, reps=args.sim_reps,
        alpha=args.alpha, seed=args.seed, workers=args.workers,
        null_reps=args.reps, null_grid=args.grid, xi_reps=args.xi_reps,
        conservative=args.conservative, lr_config=_lr_config(args),
    )
    if args.out:
        result.to_csv(args.out)
    else:
        buf = io.StringIO()
        result.to_csv(buf)
        sys.stdout.write(buf.getvalue())


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--basis-size", "-D", type=int, default=21,
                        dest="basis_size", help="number of Fourier basis functions")
    parser.add_argument("--weight", choices=sorted(WEIGHTS), default="bartlett")
    parser.add_argument("--bandwidth",
                        choices=sorted(BANDWIDTH_EXPONENTS) + ["adaptive"],
                        default="n14")
    parser.add_argument("--alpha", type=float, default=0.05)
    parser.add_argument("--reps", type=int, default=1000,
                        help="Monte Carlo draws for the null distribution, "
                             "spread over up to FUNCBREAK_THREADS threads "
                             "(default: one per CPU); the results do not "
                             "depend on the thread count")
    parser.add_argument("--grid", type=int, default=1000,
                        help="Brownian bridge grid resolution")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--out", default=None, help="output path (default stdout)")


def _add_input(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("path", help="CSV input path, or - for stdin")
    parser.add_argument("--coeffs", action="store_true",
                        help="input is a pre-smoothed coefficient CSV")
    parser.add_argument("--max-missing", type=float, default=0.10,
                        dest="max_missing",
                        help="drop years missing more than this fraction of days")
    parser.add_argument("--dump-coeffs", default=None, dest="dump_coeffs",
                        help="write the smoothed coefficients to this CSV path")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="funcbreak",
        description="Structural break detection and dating for functional data",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_detect = sub.add_parser("detect", help="fully functional break test")
    _add_input(p_detect)
    _add_common(p_detect)

    p_date = sub.add_parser("date", help="break dating with confidence interval")
    _add_input(p_date)
    _add_common(p_date)
    p_date.add_argument("--xi-reps", type=int, default=10_000, dest="xi_reps",
                        help="no effect: the argmax limit law is evaluated "
                             "exactly (accepted and echoed for compatibility)")
    p_date.add_argument("--conservative", action="store_true",
                        help="use the top eigenvalue instead of sigma^2")
    p_date.add_argument("--fpca", action="store_true",
                        help="also report the fPCA break date")
    p_date.add_argument("--tve", type=float, default=0.90,
                        help="total variation explained for --fpca")

    p_sim = sub.add_parser("simulate", help="simulation study tables")
    p_sim.add_argument("kind", choices=["size", "power", "dating", "coverage"])
    _add_common(p_sim)
    p_sim.add_argument("--setting", type=int, nargs="+", default=[1, 2, 3])
    p_sim.add_argument("--dependence", nargs="+", default=["iid"],
                       choices=["iid", "far1"])
    p_sim.add_argument("--n", type=int, nargs="+", default=[100])
    p_sim.add_argument("--m", type=int, nargs="+", default=[1])
    p_sim.add_argument("--snr", type=float, nargs="+", default=[0.5])
    p_sim.add_argument("--theta", type=float, nargs="+", default=[0.5])
    p_sim.add_argument("--detectors", nargs="+",
                       default=["FF", "fPCA@0.85", "fPCA@0.90", "fPCA@0.95",
                                "Aligned"],
                       help="FF, fPCA@<tve> and Aligned; Aligned is oversized "
                            "in setting 1, where it rejects 28.5-29%% of null "
                            "replications at the 5%% level (n = 100): its "
                            "tilt picks the best of three equal-variance "
                            "directions")
    p_sim.add_argument("--sim-reps", type=int, default=1000, dest="sim_reps",
                       help="replications per cell")
    p_sim.add_argument("--innovation", choices=["gaussian", "student"],
                       default="gaussian")
    p_sim.add_argument("--df", type=int, default=None)
    p_sim.add_argument("--kappa", type=float, default=0.5)
    p_sim.add_argument("--no-permute", action="store_true", dest="no_permute")
    p_sim.add_argument("--xi-reps", type=int, default=2000, dest="xi_reps",
                       help="no effect: the argmax limit law is evaluated "
                            "exactly (accepted for compatibility)")
    p_sim.add_argument("--conservative", action="store_true")
    p_sim.add_argument("--workers", type=int, default=None)
    p_sim.set_defaults(seed=0)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        _check_options(args)
        if args.command == "detect":
            _emit_json(_cmd_detect(args), args.out)
        elif args.command == "date":
            _emit_json(_cmd_date(args), args.out)
        else:
            _cmd_simulate(args)
    except (DataFormatError, DegenerateFitError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (ValueError, ArithmeticError, AssertionError,
            np.linalg.LinAlgError) as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    return 0


if __name__ == "__main__":
    sys.exit(main())
