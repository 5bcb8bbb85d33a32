"""Command line pipeline: CSV ingestion, break analysis, simulation tables.

Subcommands: ``detect`` (fully functional test), ``date`` (break dating with
confidence interval) and ``simulate`` (size/power/dating/coverage tables).
Reports are JSON documents echoing every tunable; simulation output is CSV.
Daily CSVs are read in chunks of whole lines: a chunk of plain
``YYYY-MM-DD,value`` lines is parsed in bulk from its digits, and from the
first chunk that is not plain to the end of the file rows go through the csv
module one by one. Both read the same days and values, so a file's report
does not depend on its layout. All years are fitted in one stacked solve.
Exit codes: 0 success, 2 data/input errors, 3 numerical degeneracy.
"""

import argparse
import contextlib
import csv
import datetime
import io
import itertools
import json
import math
import sys
import warnings

import numpy as np

from . import dating, detect, fpca, simlab
from .basis import CurveSeries, FourierBasis, _least_squares
from .longrun import BANDWIDTH_EXPONENTS, MIN_CURVES, WEIGHTS, LongRunConfig
from .simlab import _VALID_KINDS, BreakSpec, DgpConfig, run_experiment, validate_grid

__all__ = ["DataFormatError", "ingest", "read_coeffs", "main"]

EXIT_DATA = 2
EXIT_NUMERIC = 3


class DataFormatError(ValueError):
    """Raised when an input file cannot be parsed into curves."""


# (flag, attribute, valid, requirement), checked before any input is read
_OPTION_RANGES = (
    ("--alpha", "alpha", lambda v: 0.0 < v < 1.0, "in (0, 1)"),
    ("--reps", "reps", lambda v: v >= 1, "at least 1"),
    ("--basis-size", "basis_size", lambda v: v >= 1, "at least 1"),
    ("--max-missing", "max_missing", lambda v: 0.0 <= v <= 1.0, "in [0, 1]"),
    ("--tve", "tve", lambda v: 0.0 < v <= 1.0, "in (0, 1]"),
    ("--sim-reps", "sim_reps", lambda v: v >= 1, "at least 1"),
    ("--workers", "workers", lambda v: v >= 1, "at least 1"),
    ("--seed", "seed", lambda v: v >= 0, "at least 0"),
    ("--grid", "grid", lambda v: v >= detect._MIN_GRID, f"at least {detect._MIN_GRID}"),
)

# the detectors of ``simulate`` without --detectors, those of them its kind runs
_DEFAULT_DETECTORS = ("FF", "fPCA@0.85", "fPCA@0.90", "fPCA@0.95", "Aligned")
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
    """The text stream of a CSV path or open stream, and its name for messages.

    The stream is read only as the caller consumes it: ``read_coeffs`` through
    one csv reader, ``ingest`` in chunks of whole lines. Files and binary
    streams (such as ``sys.stdin.buffer``) are read as UTF-8; a leading
    byte-order mark, as spreadsheet programs write, is skipped. Text streams
    are read as they decode. Bytes that are not UTF-8 and malformed CSV, such
    as a field over the csv module's size limit, are data errors that name the
    input.
    """
    stream = hasattr(source, "read")
    origin = "<stream>" if stream else str(source)
    try:
        with contextlib.ExitStack() as stack:
            fh = source
            if not isinstance(source, io.TextIOBase):
                binary = source if stream else stack.enter_context(open(source, "rb"))
                fh = io.TextIOWrapper(binary, encoding="utf-8-sig", newline="")
                stack.callback(fh.detach)  # closing the view would close the stream
            yield fh, origin
    except (UnicodeDecodeError, csv.Error) as exc:
        raise DataFormatError(f"{origin}: unreadable CSV: {exc}") from None


# characters per chunk of lines that ``ingest`` parses in bulk: numpy's cost
# per chunk outweighs the saving on much smaller chunks, and each chunk's
# buffers add to the peak memory of a request
_CHUNK_CHARS = 1 << 16
_ZERO, _DASH, _COMMA, _NEWLINE, _DOT = b"0-,\n."
# a value -?digits[.digits] of at most 15 digits is an exact double, as is 10^k
_MAX_DIGITS = 15
_POWERS = 10 ** np.arange(_MAX_DIGITS + 3)


def _plain_values(lines, buf, first, ends):
    """The values ``float`` reads after column 11 of ``lines``, or None.

    Of the fields ``buf[first:ends]``, one -?digits[.digits] of at most 15 digits
    is its integer mantissa over 10^k, k fraction digits: one division of exact
    doubles, rounded as ``float`` rounds (Clinger 1990). A blank one is nan.
    """
    width = ends - first
    # row j: each field's (j + 1)-th character from its end, or 0 past its start
    cols = np.arange(min(max(width.max(), 1), _MAX_DIGITS + 2))[:, None]
    chars = np.where(cols < width, buf.take(ends - 1 - cols, mode="clip"), 0)
    code = chars - _ZERO
    digit, dot = code < 10, chars == _DOT  # bytes below "0" wrap past 9
    count, dots, minus = digit.sum(axis=0), dot.sum(axis=0), buf[first] == _DASH
    fast = ((count + dots + minus == width) & (dots <= 1)
            & (count > 0) & (count <= _MAX_DIGITS))
    # the digits as one integer with a 0 in the dot's place, then without it
    spaced = (code * digit * _POWERS[:cols.size, None]).sum(axis=0)
    fraction = dot.argmax(axis=0)  # the first dot's column, or 0
    low = spaced % _POWERS[np.where(dots, fraction, -1)]
    values = (low + (spaced - low) // 10) / _POWERS[fraction]
    np.negative(values, out=values, where=minus)
    values[width == 0] = np.nan
    slow = np.flatnonzero(~fast & (width > 0)).tolist()
    try:  # float strips the line end
        values[slow] = list(map(float, [lines[i][11:] for i in slow]))
    except ValueError:
        return None
    return values


def _plain_rows(lines, field_limit: int):
    """Days and values of a chunk of plain ``YYYY-MM-DD,value`` lines, or None.

    The arrays are exactly what the row loop of ``ingest`` reads from the same
    lines. The chunk is plain when each line is ASCII, ends in LF or CRLF (or
    the end of the file), has no quote, exactly one comma and at most
    ``field_limit`` characters, starts with a date in that form that numpy's
    calendar holds, of year 1 or later, and has a blank value or one that
    ``float`` reads as anything but an infinity (``nan`` marks a missing day).
    Any other chunk gives None.
    """
    text = "".join(lines)
    if not text.isascii() or '"' in text:
        return None
    if "\r" in text:
        text = text.replace("\r\n", "\n")
        if "\r" in text:  # a line ending the csv module reads, but not plain
            return None
    if not text.endswith("\n"):  # the last line of the file
        text += "\n"
    buf = np.frombuffer(text.encode("ascii"), np.uint8)
    ends = np.flatnonzero(buf == _NEWLINE)
    starts = np.concatenate(([0], ends[:-1] + 1))
    # a comma at column 10 of each line, and no other comma
    if ((ends - starts).max() > field_limit
            or not np.array_equal(np.flatnonzero(buf == _COMMA), starts + 10)):
        return None
    values = _plain_values(lines, buf, starts + 11, ends)
    if values is None or np.isinf(values).any():
        return None
    chars = np.lib.stride_tricks.sliding_window_view(buf, 10)[starts]
    digits = chars[:, [0, 1, 2, 3, 5, 6, 8, 9]] - _ZERO  # bytes below "0" wrap past 9
    if (digits > 9).any() or (chars[:, [4, 7]] != _DASH).any():
        return None
    pairs = 10 * digits[:, ::2].astype(int) + digits[:, 1::2]
    year, month, day = 100 * pairs[:, 0] + pairs[:, 1], pairs[:, 2], pairs[:, 3]
    months = 12 * (year - 1970) + month - 1
    # the first day of each month from the chunk's first to the one after its last
    firsts = np.arange(months.min(), months.max() + 2).astype("datetime64[M]")
    firsts, months = firsts.astype("datetime64[D]"), months - months.min()
    if ((year < 1) | (month < 1) | (month > 12) | (day < 1)
            | (day > np.diff(firsts).astype(int)[months])).any():
        return None
    return firsts[months] + (day - 1), values


def _row_loop(rows, first_line: int, bad_lines: list):
    """Days and values of the csv ``rows``, as ``_plain_rows`` gives them.

    Rows are numbered from ``first_line``. ``datetime.date.fromisoformat``
    decides which dates are read. An empty or ``nan`` value is nan; blank
    rows are skipped. The numbers of rows with an unparseable date or value,
    or an infinite value, are appended to ``bad_lines``.
    """
    # bound once: lookups in the loop cost as much as the row checks
    parse_date, nan = datetime.date.fromisoformat, math.nan
    infinities = (math.inf, -math.inf)
    days, values = [], []
    for lineno, row in enumerate(rows, start=first_line):
        try:  # a row of other than two fields fails to unpack
            day, text = row
            value = float(text) if text.strip() else nan
            date = parse_date(day.strip())
        except ValueError:
            if len(row) > 1 or (row and row[0].strip()):  # else a blank line
                bad_lines.append(lineno)
            continue
        if value in infinities:
            bad_lines.append(lineno)
            continue
        days.append(date)
        values.append(value)
    return np.array(days, "datetime64[D]"), np.array(values, float)


def _daily_rows(fh, origin: str):
    """Days and values of the rows of a daily CSV stream after its header.

    Chunks of plain lines are parsed in bulk until the first chunk that is
    not plain; that chunk and the rest of the stream go through the row loop.
    Bad rows, or no row at all, are a data error that names ``origin``.
    """
    parts, bad_lines = [], []
    field_limit, lineno = csv.field_size_limit(), 2
    for chunk in iter(lambda: fh.readlines(_CHUNK_CHARS), []):
        plain = _plain_rows(chunk, field_limit)
        if plain is None:
            # accepted chunks hold no quote, so this chunk starts a record
            rows = csv.reader(itertools.chain(chunk, fh))
            parts.append(_row_loop(rows, lineno, bad_lines))
            break
        parts.append(plain)
        lineno += len(chunk)
    if bad_lines:
        shown = ", ".join(str(x) for x in bad_lines[:20])
        more = "" if len(bad_lines) <= 20 else f" (+{len(bad_lines) - 20} more)"
        raise DataFormatError(f"{origin}: unparseable rows at lines {shown}{more}")
    if not any(days.size for days, _ in parts):
        raise DataFormatError(f"{origin}: no observations found")
    return tuple(map(np.concatenate, zip(*parts)))


def ingest(source, basis_size: int = 21, max_missing: float = 0.10):
    """Read a ``date,value`` CSV into one curve per year.

    Day k of a Y-day year maps to t = (k - 0.5) / Y; each year's available
    values are fitted on the Fourier basis as ``fit_curve`` fits them, all
    years in one stacked solve. An empty or ``nan`` value marks a missing day;
    a row with an unparseable date or value, or an infinite value, is an error
    that names its line. Of rows that repeat a date, the last one counts.
    Years with more than ``max_missing`` of their days missing (absent rows
    count as missing) are dropped with a warning. ``source`` is a path or an
    open text or binary stream; a UTF-8 byte-order mark before the header of a
    file or binary stream is ignored. After the header the input is read in
    chunks of whole lines of about 64K characters. A chunk of plain
    ``YYYY-MM-DD,value`` lines (days of numpy's calendar from year 1) is read
    in bulk: a date from its digits, a value -?digits[.digits] of at most 15
    digits as its mantissa over a power of ten, any other value by ``float``.
    From the first chunk that is not plain (with, say, a quote, a non-ASCII
    character, a padded date, a blank line, another date form, a day outside
    the calendar, a bad row or a line over the csv field limit) to the end,
    rows go through the csv module one by one; both read the same bits.
    Returns (series, labels, dropped_years).
    """
    with _csv_rows(source) as (fh, origin):
        if [c.strip().lower() for c in next(csv.reader(fh), [])] != ["date", "value"]:
            raise DataFormatError(f"{origin}: expected header 'date,value'")
        dates, values = _daily_rows(fh, origin)

    if not (dates[1:] > dates[:-1]).all():
        # sort by date; of a repeated date the last row wins
        dates, last = np.unique(dates[::-1], return_index=True)
        values = values[::-1][last]
    first_year, last_year = dates[[0, -1]].astype("datetime64[Y]")
    # 1 January of each year from the first date's to the one after the last's
    jan1 = np.arange(first_year, last_year + 2).astype("datetime64[D]")
    bounds = np.searchsorted(dates, jan1).tolist()
    day_index = (dates - np.repeat(jan1[:-1], np.diff(bounds))).astype(int)  # from 0

    basis = FourierBasis(basis_size)
    # the basis at every day of a year of each length: the elementwise values
    # fit_curve would compute at t = (k - 0.5) / days, k = 1..days
    designs = {}
    labels, kept, dropped = [], [], []
    for year, days, lo, hi in zip(itertools.count(first_year.item().year),
                                  np.diff(jan1).astype(int).tolist(), bounds, bounds[1:]):
        if lo == hi:  # no row in this year
            continue
        idx, y = day_index[lo:hi], values[lo:hi]
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
        labels.append(str(year))
        kept.append((designs[days], idx[usable], y[usable]))
    if dropped:
        warnings.warn(
            "dropped years exceeding the missing-data threshold: "
            + ", ".join(str(y) for y in dropped),
            stacklevel=2,
        )
    if len(kept) < 2:
        raise DataFormatError(f"{origin}: fewer than two usable years")
    return CurveSeries(_least_squares(kept), basis), labels, dropped


def read_coeffs(source, basis_size: int = 21):
    """Read a pre-smoothed coefficient CSV with header label,c1,...,cD."""
    expected = ["label"] + [f"c{i}" for i in range(1, basis_size + 1)]
    labels, data = [], []
    with _csv_rows(source) as (fh, origin):
        reader = csv.reader(fh)
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


def _load_fit(args):
    """The input's break fit, labels and dropped years, for ``detect`` and ``date``."""
    source = sys.stdin.buffer if args.path == "-" else args.path
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
    return detect.fit_break(series, _lr_config(args)), labels, dropped


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


def _base_config(args, series, test_config, dropped):
    return {
        "basis_size": args.basis_size,
        "n_curves": series.n,
        "weight": test_config["weight"],
        "bandwidth": test_config["bandwidth"],
        "h": test_config["h"],
        "alpha": args.alpha,
        "reps": args.reps,
        "grid": test_config["grid"],
        "seed": args.seed,
        "max_missing": args.max_missing,
        "coeffs_input": bool(args.coeffs),
        "dropped_years": [str(y) for y in dropped],
    }


def _lr_config(args) -> LongRunConfig:
    return LongRunConfig(weight=args.weight, bandwidth=args.bandwidth)


def _detection_report(args, fit, labels, dropped) -> dict:
    report = detect.test(fit, args.alpha, reps=args.reps, grid=args.grid,
                         seed=args.seed)
    return {
        "stat": report.stat,
        "p_value": report.p_value,
        "critical_values": {str(a): q for a, q in report.critical_values.items()},
        "k_hat": report.k_hat,
        "k_hat_label": _year_label(labels, report.k_hat),
        "theta_hat": report.k_hat / fit.series.n,
        "config": _base_config(args, fit.series, report.config, dropped),
    }


def _cmd_date(args) -> dict:
    fit, labels, dropped = _load_fit(args)
    report = _detection_report(args, fit, labels, dropped)
    rep = dating.date_break(fit, args.alpha, conservative=args.conservative)
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
        result = fpca.fit_fpca(fit, tve=args.tve)
        report["fpca"] = {
            "tve": args.tve,
            "d": result.d,
            "k_tilde": result.k_hat,
            "k_tilde_label": _year_label(labels, result.k_hat),
        }
    return report


def _cmd_simulate(args) -> None:
    detectors = args.detectors or [
        name for name in _DEFAULT_DETECTORS
        if simlab._parse_detector(name)[0] in simlab._DETECTOR_KINDS[args.kind]]
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
        validate_grid(args.kind, dgps, specs, detectors)
    except ValueError as exc:
        raise DataFormatError(f"invalid grid values: {exc}") from exc
    result = run_experiment(
        args.kind, dgps, specs, detectors=detectors, reps=args.sim_reps,
        alpha=args.alpha, seed=args.seed, workers=args.workers,
        null_reps=args.reps, null_grid=args.grid, xi_reps=args.xi_reps,
        conservative=args.conservative, lr_config=_lr_config(args),
    )
    result.to_csv(args.out or sys.stdout)


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--basis-size", "-D", type=int, default=21,
                        dest="basis_size", help="number of Fourier basis functions")
    parser.add_argument("--weight", choices=sorted(WEIGHTS), default="bartlett")
    parser.add_argument("--bandwidth",
                        choices=sorted(BANDWIDTH_EXPONENTS) + ["adaptive"],
                        default="n14")
    parser.add_argument("--alpha", type=float, default=0.05)
    parser.add_argument("--reps", type=int, default=1000,
                        help="Monte Carlo draws for the FF null law, in seeded "
                             "blocks of 2^15 // (D x grid) draws for the D kernel "
                             "eigenvalues above rounding level (one draw each past "
                             "2^14 normals); detect and date spread the blocks "
                             "over up to FUNCBREAK_THREADS threads (default: one "
                             "per CPU); no result depends on the thread count")
    parser.add_argument("--grid", type=int, default=None,
                        help="Brownian bridge steps of the null law (default: the "
                             "number of curves n, the exact law for iid Gaussian "
                             f"curves); an explicit grid of at least {detect._MIN_GRID} "
                             "steps approximates the continuous supremum")
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
    p_sim.add_argument("kind", choices=_VALID_KINDS)
    _add_common(p_sim)
    p_sim.add_argument("--setting", type=int, nargs="+", default=[1, 2, 3])
    p_sim.add_argument("--dependence", nargs="+", default=["iid"],
                       choices=["iid", "far1"])
    p_sim.add_argument("--n", type=int, nargs="+", default=[100])
    p_sim.add_argument("--m", type=int, nargs="+", default=[1])
    p_sim.add_argument("--snr", type=float, nargs="+", default=[0.5])
    p_sim.add_argument("--theta", type=float, nargs="+", default=[0.5])
    p_sim.add_argument("--detectors", nargs="+",
                       help="FF, fPCA@<tve> and Aligned; default: those of "
                            f"{' '.join(_DEFAULT_DETECTORS)} that the kind runs "
                            "(dating: FF and fPCA; coverage: FF). Aligned reads "
                            "the FF test's null kernel and is oversized in "
                            "setting 1, where it rejects 11-15%% of null "
                            "replications at the 5%% level (n = 100): its tilt "
                            "picks the best of three equal-variance directions")
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
    p_sim.add_argument("--workers", type=int, default=None,
                       help="processes (default: one per CPU), at most FUNCBREAK_THREADS")
    p_sim.set_defaults(seed=0)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        _check_options(args)
        if args.command == "detect":
            _emit_json(_detection_report(args, *_load_fit(args)), args.out)
        elif args.command == "date":
            _emit_json(_cmd_date(args), args.out)
        else:
            _cmd_simulate(args)
    except (DataFormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (ValueError, ArithmeticError, AssertionError,
            np.linalg.LinAlgError) as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    return 0


if __name__ == "__main__":
    sys.exit(main())
