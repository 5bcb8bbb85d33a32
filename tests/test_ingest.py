"""Characterisation of ``cli.ingest``: the parsing, grouping and fit rules of
daily ``date,value`` CSVs, and bit-equality with a per-year ``fit_curve``
oracle that reads the file row by row."""

import calendar
import csv
import datetime
import io
import math
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from funcbreak import cli
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
        days = 366 if calendar.isleap(year) else 365  # datetime stops at year 9999
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


def oracle_bad_lines(path):
    """Line numbers of the rows the oracle cannot read: an unparseable date
    or value, or an infinite value (rows are numbered from the header, 1)."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))[1:]
    bad = []
    for lineno, row in enumerate(rows, start=2):
        if not row or (len(row) == 1 and not row[0].strip()):
            continue
        try:
            day, text = row
            datetime.date.fromisoformat(day.strip())
            if math.isinf(float(text) if text.strip() else 0.0):
                bad.append(lineno)
        except ValueError:
            bad.append(lineno)
    return bad


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


def chunked_lines():
    """Rows of 14 years: more than two chunks of the bulk reader."""
    lines = [line for year in range(1990, 2004) for line in year_lines(year)]
    assert len("\n".join(lines)) > 1.2 * cli._CHUNK_CHARS
    return lines


def after_first_chunk(lines, back=0):
    """The index of a row well past the first chunk, ``back`` rows before the
    last one; the bulk reader accepts the first chunk before reaching it."""
    index = len(lines) - 1 - back
    assert len("\n".join(lines[:index])) > 1.1 * cli._CHUNK_CHARS
    return index


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
    # a repeat right after its first row leaves the dates in order, not increasing
    assert lines[59].startswith("2001-03-01,")
    next_row = write_rows(tmp_path / "next.csv", lines[:60] + ["2001-03-01,999.0"] + lines[60:])
    assert_matches_oracle(next_row, basis_size=5)


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


# every fourth year is a leap year, except centuries not divisible by 400
@pytest.mark.parametrize("year", [1900, 2000, 2004])
def test_feb_29_is_day_60_of_a_366_day_year(tmp_path, year):
    leap = calendar.isleap(year)
    lines = year_lines(year) + year_lines(year + 1)
    assert lines[59].startswith(f"{year}-02-29" if leap else f"{year}-03-01")
    series, labels, _ = assert_matches_oracle(
        write_rows(tmp_path / "leap.csv", lines), basis_size=5)
    assert labels == [str(year), str(year + 1)]
    # in a common year the same date is an unparseable row
    common = year + 1 if leap else year
    bad = write_rows(tmp_path / "bad.csv", lines + [f"{common}-02-29,1.0"])
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
    lines[18] = " ,1.0"  # line 20: blank date
    lines[21] = ",,"  # line 23: three blank columns
    path = write_rows(tmp_path / "bad.csv", lines)
    with pytest.raises(DataFormatError) as err:
        ingest(path)
    assert str(err.value) == (
        f"{path}: unparseable rows at lines 2, 6, 8, 11, 14, 17, 20, 23")


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


def count_lstsq_calls(monkeypatch) -> list:
    calls = []
    lstsq = np.linalg.lstsq

    def counting(*args, **kwargs):
        calls.append(args[0].shape)
        return lstsq(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "lstsq", counting)
    return calls


def test_a_year_too_sparse_for_the_normal_equations_is_fitted_by_lstsq(tmp_path,
                                                                       monkeypatch):
    # 25 days of one month: a Gram far from diagonally dominant
    sparse = year_lines(2002)[31:56]
    path = write_rows(tmp_path / "sparse.csv",
                      year_lines(2001) + sparse + year_lines(2003))
    calls = count_lstsq_calls(monkeypatch)
    series, labels, _ = ingest(path, max_missing=0.95)
    assert labels == ["2001", "2002", "2003"] and calls == [(25, 21)]
    monkeypatch.undo()
    assert_matches_oracle(path, max_missing=0.95)
    days = np.arange(32, 57)
    direct, *_ = np.linalg.lstsq(FourierBasis(21).design_matrix((days - 0.5) / 365),
                                 [float(line.split(",")[1]) for line in sparse],
                                 rcond=None)
    np.testing.assert_allclose(series.data[1], direct, rtol=1e-10)


def test_a_year_with_an_ill_conditioned_gram_is_fitted_by_lstsq(tmp_path, monkeypatch):
    # 200 days in a row: a positive definite Gram of condition number near 5e12
    path = write_rows(tmp_path / "span.csv",
                      year_lines(2001) + year_lines(2002)[31:231] + year_lines(2003))
    calls = count_lstsq_calls(monkeypatch)
    assert ingest(path, max_missing=0.95)[1] == ["2001", "2002", "2003"]
    assert calls == [(200, 21)]
    monkeypatch.undo()
    assert_matches_oracle(path, max_missing=0.95)


def test_years_missing_one_percent_of_days_take_no_lstsq(tmp_path, monkeypatch):
    lines = []
    for year in (2001, 2002, 2003):
        lines += [line for k, line in enumerate(year_lines(year)) if k % 100 != 7]
    path = write_rows(tmp_path / "gaps.csv", lines)
    calls = count_lstsq_calls(monkeypatch)
    assert ingest(path)[1] == ["2001", "2002", "2003"]
    assert calls == []
    monkeypatch.undo()
    assert_matches_oracle(path)


def test_years_missing_a_stretch_of_weeks_take_no_lstsq(tmp_path, monkeypatch):
    # a lost stretch of 3 to 5 weeks: the Gram is far from diagonally dominant,
    # yet its condition number is below 100
    lines = year_lines(2000)
    for year, start, weeks in ((2001, 0, 3), (2002, 150, 4), (2003, 320, 5)):
        lines += [line for k, line in enumerate(year_lines(year))
                  if not start <= k < start + 7 * weeks]
    path = write_rows(tmp_path / "weeks.csv", lines)
    calls = count_lstsq_calls(monkeypatch)
    series, labels, _ = ingest(path)
    assert labels == ["2000", "2001", "2002", "2003"] and calls == []
    monkeypatch.undo()
    assert_matches_oracle(path)
    days = np.array([k for k in range(1, 366) if not 151 <= k < 179])
    values = [float(line.split(",")[1]) for line in year_lines(2002)]
    direct, *_ = np.linalg.lstsq(FourierBasis(21).design_matrix((days - 0.5) / 365),
                                 [values[k - 1] for k in days], rcond=None)
    np.testing.assert_allclose(series.data[2], direct, rtol=1e-10)


def test_bad_rows_after_the_first_chunk_keep_their_line_numbers(tmp_path):
    lines = chunked_lines()
    bad_date, bad_value = after_first_chunk(lines, back=700), after_first_chunk(lines, 2)
    lines[bad_date] = "2001-02-29,1.0"
    lines[bad_value] = lines[bad_value].split(",")[0] + ",inf"
    path = write_rows(tmp_path / "late.csv", lines)
    with pytest.raises(DataFormatError) as err:
        ingest(path)
    assert str(err.value) == (
        f"{path}: unparseable rows at lines {bad_date + 2}, {bad_value + 2}")
    assert oracle_bad_lines(path) == [bad_date + 2, bad_value + 2]


@pytest.mark.parametrize("newline", ["\n", "\r\n"])
@pytest.mark.parametrize("last_newline", [True, False])
def test_crlf_and_a_missing_last_newline_read_the_same_rows(tmp_path, newline,
                                                           last_newline):
    lines = chunked_lines()
    lines[-1] = lines[-1].split(",")[0] + ","  # the last row is a blank value
    lf = write_rows(tmp_path / "lf.csv", lines)
    path = tmp_path / "copy.csv"
    text = newline.join(["date,value", *lines]) + (newline if last_newline else "")
    path.write_bytes(text.encode("utf-8"))
    series, labels, _ = assert_matches_oracle(path)
    assert np.array_equal(series.data, ingest(lf)[0].data)
    assert labels == [str(y) for y in range(1990, 2004)]


def test_quoted_and_padded_fields_after_the_first_chunk_match_the_oracle(tmp_path):
    lines = chunked_lines()
    plain = ingest(write_rows(tmp_path / "plain.csv", lines))[0].data
    quoted = list(lines)
    for i in range(after_first_chunk(lines, back=900), len(lines)):
        day, value = lines[i].split(",")
        quoted[i] = f'"{day}","{value}"' if i % 2 else f'{day},"{value}"'
    series, _, _ = assert_matches_oracle(write_rows(tmp_path / "quoted.csv", quoted))
    assert np.array_equal(series.data, plain)
    padded = list(lines)
    for i in range(after_first_chunk(lines, back=900), len(lines), 3):
        day, value = lines[i].split(",")
        padded[i] = f" {day} ,  {value}\t"
    series, _, _ = assert_matches_oracle(write_rows(tmp_path / "padded.csv", padded))
    assert np.array_equal(series.data, plain)


def test_a_value_over_the_csv_field_limit_is_unreadable(tmp_path):
    lines = chunked_lines()
    limit = csv.field_size_limit()
    late = after_first_chunk(lines, back=10)
    # a finite value, which only the field limit keeps from the bulk reader
    lines[late] = lines[late].split(",")[0] + "," + "0" * limit + "1"
    path = write_rows(tmp_path / "long.csv", lines)
    with pytest.raises(DataFormatError) as err:
        ingest(path)
    assert str(err.value) == (
        f"{path}: unreadable CSV: field larger than field limit ({limit})")


@pytest.mark.parametrize("row", [
    "0000-01-01,1.0", "2001/02/03,1.0", "+001-01-01,1.0", "200a-01-01,1.0",
    "2002-02-29,1.0", "20020304,1.0", "2002-03-04;1.0", "2002-03-04,1,5",
    "2002-03-04,-Infinity", "2002-03-04,  ", "2002-03-04,1_0", "2002-03-04,\u0661",
    '2002-03-04,"1.5"', "2001-04-31,1.0", "2001-13-01,1.0", "2001-00-10,1.0",
    "2001-02-00,1.0", "9999-12-31,-.5", "0001-01-01,007.25", "2002-03-04,-",
    "2002-03-04,1.234.567.890", "2002-03-04,1.2.3.4.5.6",
])
def test_an_edge_row_after_the_first_chunk_matches_the_oracle(tmp_path, row):
    lines = chunked_lines()
    late = after_first_chunk(lines, back=50)
    lines[late] = row
    path = write_rows(tmp_path / "edge.csv", lines)
    if oracle_bad_lines(path):
        with pytest.raises(DataFormatError) as err:
            ingest(path)
        assert str(err.value) == f"{path}: unparseable rows at lines {late + 2}"
    else:
        assert_matches_oracle(path)


def test_a_carriage_return_inside_a_row_of_a_text_stream_is_unreadable():
    # a text stream that splits lines at LF only hands the csv module the CR
    lines = chunked_lines()
    late = after_first_chunk(lines, back=50)
    lines[late] = lines[late].replace(",", ",\r")
    with pytest.raises(DataFormatError, match="^<stream>: unreadable CSV: new-line"):
        ingest(io.StringIO("\n".join(["date,value", *lines]) + "\n"))


EDGE_DATES = ["2001-02-29", "0000-01-01", "20010101", " 2002-03-04", "2002-3-04",
              "2001/02/03", "+001-01-01", "200a-01-01", "2001-13-01", "2001-00-10",
              "2001-04-31", "2001-02-00", "2000-02-29", "1900-02-29", "0001-01-01",
              "9999-12-31"]
EDGE_VALUES = ["", "  ", "nan", "1_0", "-Infinity", " 2.5 ", "1e3", "0x1", "\u0661", "1,5",
               "-0.000", ".5", "5.", "-.5", "+1.5", "007.25", "123456789012345",
               "1234567890123456", "0.12345678901234567", "-", ".", "1.234.567.890",
               "1.2.3.4.5.6"]
BASE_LINES = year_lines(2001) + year_lines(2002)


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    edits=st.lists(st.tuples(st.integers(0, len(BASE_LINES) - 1),
                             st.sampled_from([None, *EDGE_DATES]),
                             st.sampled_from([",", ";"]),
                             st.sampled_from([None, *EDGE_VALUES])), max_size=6),
    chunk=st.sampled_from([1, 300, 4000, 1 << 16]),
    newline=st.sampled_from(["\n", "\r\n", "\r\r\n"]),
)
def test_edge_rows_in_any_chunk_match_the_oracle(tmp_path, monkeypatch, edits,
                                                 chunk, newline):
    lines = list(BASE_LINES)
    for index, day, sep, value in edits:
        old_day, old_value = BASE_LINES[index].split(",")
        lines[index] = (old_day if day is None else day) + sep
        lines[index] += old_value if value is None else value
    path = tmp_path / "edges.csv"
    path.write_bytes((newline.join(["date,value", *lines]) + newline).encode("utf-8"))
    monkeypatch.setattr(cli, "_CHUNK_CHARS", chunk)
    bad = oracle_bad_lines(path)
    if bad:
        with pytest.raises(DataFormatError) as err:
            ingest(path, basis_size=5)
        assert str(err.value) == (
            f"{path}: unparseable rows at lines {', '.join(map(str, bad))}")
    else:
        assert_matches_oracle(path, basis_size=5)
