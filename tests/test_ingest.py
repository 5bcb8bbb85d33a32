"""Characterisation of ``cli.ingest``: the parsing, grouping and fit rules of
daily ``date,value`` CSVs, and bit-equality with a per-year ``fit_curve``
oracle that reads the file row by row."""

import csv
import datetime
import math
import warnings

import numpy as np
import pytest

from funcbreak.basis import FourierBasis, fit_curve
from funcbreak.cli import DataFormatError, ingest


def oracle_ingest(path, basis_size=21, max_missing=0.10):
    """Row-by-row reference: the last row of a date wins, years are fitted one
    by one with ``fit_curve`` at t = (day - 0.5) / days_in_year."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))[1:]
    per_year = {}
    for row in rows:
        if not row or (len(row) == 1 and not row[0].strip()):
            continue
        day = datetime.date.fromisoformat(row[0].strip())
        text = row[1].strip()
        per_year.setdefault(day.year, {})[day.timetuple().tm_yday] = (
            float(text) if text else math.nan)
    basis = FourierBasis(basis_size)
    labels, curves, dropped = [], [], []
    for year in sorted(per_year):
        days = (datetime.date(year + 1, 1, 1) - datetime.date(year, 1, 1)).days
        values = per_year[year]
        present = sum(not math.isnan(v) for v in values.values())
        if (days - present) / days > max_missing:
            dropped.append(year)
            continue
        idx = sorted(values)
        curves.append(fit_curve(basis, (np.array(idx) - 0.5) / days,
                                [values[k] for k in idx]))
        labels.append(str(year))
    return np.vstack(curves), labels, dropped


def write_rows(path, lines):
    path.write_text("\n".join(["date,value", *lines]) + "\n", encoding="utf-8")
    return path


def year_lines(year, value=lambda k: math.sin(k / 9.0) + 0.01 * k):
    start = datetime.date(year, 1, 1)
    days = (datetime.date(year + 1, 1, 1) - start).days
    return [f"{start + datetime.timedelta(days=k)},{value(k):.4f}"
            for k in range(days)]


def assert_matches_oracle(path, **kwargs):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        series, labels, dropped = ingest(path, **kwargs)
        data, want_labels, want_dropped = oracle_ingest(path, **kwargs)
    assert labels == want_labels
    assert dropped == want_dropped
    assert np.array_equal(series.data, data)
    return series, labels, dropped


def test_duplicate_date_keeps_the_last_row(tmp_path):
    lines = year_lines(2001) + year_lines(2002)
    first = tmp_path / "first.csv"
    write_rows(first, lines)
    # an earlier duplicate of 2001-03-01 is overridden by the file's own row
    dup = write_rows(tmp_path / "dup.csv", ["2001-03-01,999.0"] + lines)
    assert np.array_equal(ingest(dup, basis_size=5)[0].data,
                          ingest(first, basis_size=5)[0].data)
    # a later duplicate replaces the value, and a later blank removes it
    later = write_rows(tmp_path / "later.csv", lines + ["2001-03-01,999.0"])
    assert not np.array_equal(ingest(later, basis_size=5)[0].data,
                              ingest(first, basis_size=5)[0].data)
    assert_matches_oracle(later, basis_size=5)
    blank = write_rows(tmp_path / "blank.csv", lines + ["2001-03-01,"])
    assert_matches_oracle(blank, basis_size=5)


def test_row_order_does_not_matter(tmp_path):
    lines = year_lines(2003) + year_lines(2001) + year_lines(2002)
    rng = np.random.default_rng(4)
    shuffled = [lines[i] for i in rng.permutation(len(lines))]
    a = ingest(write_rows(tmp_path / "a.csv", lines), basis_size=7)
    b = ingest(write_rows(tmp_path / "b.csv", shuffled), basis_size=7)
    assert a[1] == b[1] == ["2001", "2002", "2003"]
    assert np.array_equal(a[0].data, b[0].data)
    assert_matches_oracle(tmp_path / "b.csv", basis_size=7)


def test_whitespace_nan_blank_and_blank_lines(tmp_path):
    lines = year_lines(2001) + year_lines(2002)
    lines[3] = "  " + lines[3].replace(",", " ,  ") + "  "
    lines[10] = lines[10].split(",")[0] + ",nan"
    lines[11] = lines[11].split(",")[0] + ", NaN "
    lines[12] = lines[12].split(",")[0] + ","
    lines[13] = lines[13].split(",")[0] + ",   "
    lines.insert(20, "")
    lines.insert(30, "   ")
    path = write_rows(tmp_path / "ws.csv", lines)
    path.write_text(" Date , VALUE \n" + path.read_text().split("\n", 1)[1])
    series, labels, dropped = assert_matches_oracle(path, basis_size=5)
    assert labels == ["2001", "2002"] and dropped == []
    # four missing days change the 2001 fit, not the 2002 one
    clean = ingest(write_rows(tmp_path / "clean.csv",
                              year_lines(2001) + year_lines(2002)), basis_size=5)
    assert np.array_equal(series.data[1], clean[0].data[1])
    assert not np.array_equal(series.data[0], clean[0].data[0])


def test_feb_29_is_day_60_of_a_366_day_year(tmp_path):
    lines = year_lines(2004) + year_lines(2005)
    assert "2004-02-29" in lines[59]
    series, labels, _ = assert_matches_oracle(
        write_rows(tmp_path / "leap.csv", lines), basis_size=5)
    assert labels == ["2004", "2005"]
    # in a common year the same date is an unparseable row
    bad = write_rows(tmp_path / "bad.csv", lines + ["2005-02-29,1.0"])
    with pytest.raises(DataFormatError, match=f"lines {len(lines) + 2}$"):
        ingest(bad)


def test_bad_rows_are_reported_at_their_line_numbers(tmp_path):
    lines = year_lines(2001) + year_lines(2002)
    lines[0] = "2001-13-01,1.0"  # line 2: bad date
    lines[4] = lines[4] + ",7"  # line 6: three columns
    lines[6] = lines[6].split(",")[0]  # line 8: one column
    lines[9] = lines[9].split(",")[0] + ",inf"  # line 11
    lines[12] = lines[12].split(",")[0] + ",-Infinity"  # line 14
    lines[15] = lines[15].split(",")[0] + ",1.2.3"  # line 17
    path = write_rows(tmp_path / "bad.csv", lines)
    with pytest.raises(DataFormatError) as err:
        ingest(path)
    assert str(err.value) == (
        f"{path}: unparseable rows at lines 2, 6, 8, 11, 14, 17")


def test_more_than_twenty_bad_rows_are_summarised(tmp_path):
    lines = year_lines(2001) + year_lines(2002)
    for i in range(0, 50, 2):
        lines[i] = "xx" + lines[i]
    path = write_rows(tmp_path / "many.csv", lines)
    with pytest.raises(DataFormatError) as err:
        ingest(path)
    shown = ", ".join(str(i + 2) for i in range(0, 40, 2))
    assert str(err.value) == f"{path}: unparseable rows at lines {shown} (+5 more)"


def test_a_year_too_sparse_to_fit_names_itself(tmp_path):
    lines = year_lines(2001) + year_lines(2002)[:3]
    path = write_rows(tmp_path / "sparse.csv", lines)
    with pytest.raises(DataFormatError) as err:
        ingest(path, basis_size=5, max_missing=1.0)
    assert str(err.value) == (
        f"{path}: year 2002: only 3 usable points for 5 basis functions")


def test_empty_and_one_year_files_are_errors(tmp_path):
    empty = write_rows(tmp_path / "empty.csv", ["", "  "])
    with pytest.raises(DataFormatError, match="empty.csv: no observations found"):
        ingest(empty)
    one = write_rows(tmp_path / "one.csv", year_lines(2001))
    with pytest.raises(DataFormatError, match="one.csv: fewer than two usable years"):
        ingest(one)


def test_matches_the_per_year_oracle_with_gaps_and_a_dropped_year(tmp_path):
    rng = np.random.default_rng(20)
    lines = []
    for year in range(1998, 2007):
        start = datetime.date(year, 1, 1)
        days = (datetime.date(year + 1, 1, 1) - start).days
        keep = rng.random(days) > (0.2 if year == 2001 else 0.03)
        blank = rng.random(days) < 0.02
        for k in np.flatnonzero(keep):
            day = (start + datetime.timedelta(days=int(k))).isoformat()
            value = 10.0 * math.cos(2 * math.pi * k / days) + rng.standard_normal()
            lines.append(f"{day}," if blank[k] else f"{day},{value:.3f}")
    path = write_rows(tmp_path / "seeded.csv", lines)
    with pytest.warns(UserWarning, match="missing-data threshold: 2001$"):
        ingest(path)
    _, labels, dropped = assert_matches_oracle(path)
    assert dropped == [2001] and len(labels) == 8
    assert_matches_oracle(path, basis_size=9, max_missing=0.25)


def test_a_year_missing_exactly_the_threshold_is_kept(tmp_path):
    complete = year_lines(2001)
    gappy = year_lines(2002)
    del gappy[100:173]  # 73 of 365 days: exactly a fifth
    path = write_rows(tmp_path / "edge.csv", complete + gappy + year_lines(2003))
    assert assert_matches_oracle(path, max_missing=0.2)[1:] == (
        ["2001", "2002", "2003"], [])
    # with no missing days allowed, only the complete years stay
    with pytest.warns(UserWarning, match="threshold: 2002$"):
        _, labels, dropped = ingest(path, max_missing=0.0)
    assert labels == ["2001", "2003"] and dropped == [2002]
