import csv
import datetime
import io
import json
import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from funcbreak.cli import DataFormatError, ingest, main, read_coeffs


def write_daily_csv(path, year_values, missing=()):
    """year_values: {year: constant or callable day->value}; missing: (year, day) pairs."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["date", "value"])
        for year, rule in year_values.items():
            start = datetime.date(year, 1, 1)
            days = (datetime.date(year, 12, 31) - start).days + 1
            for k in range(days):
                day = start + datetime.timedelta(days=k)
                if (year, k + 1) in missing:
                    writer.writerow([day.isoformat(), ""])
                else:
                    value = rule(k + 1) if callable(rule) else rule
                    writer.writerow([day.isoformat(), f"{value:.6f}"])
    return path


def seasonal_rule(amplitude, shift=0.0):
    def rule(day):
        return shift + amplitude * np.sin(2 * np.pi * day / 365.0)
    return rule


# a cheap null simulation for tests that check only exit codes and echoes
FAST = ["--seed", "1", "--reps", "50", "--grid", "100"]


@pytest.fixture
def step_file(tmp_path):
    # eight years of seasonal data with a mean shift in the last four
    years = {}
    for year in range(2000, 2008):
        shift = 0.0 if year < 2004 else 3.0
        years[year] = seasonal_rule(5.0, shift)
    return write_daily_csv(tmp_path / "step.csv", years)


def test_ingest_constant_years_yield_constant_coefficients(tmp_path):
    path = write_daily_csv(tmp_path / "flat.csv", {2001: 5.0, 2002: 5.0})
    series, labels, dropped = ingest(path, basis_size=5)
    assert labels == ["2001", "2002"]
    assert dropped == []
    np.testing.assert_allclose(series.data[:, 0], 5.0, atol=1e-8)
    np.testing.assert_allclose(series.data[:, 1:], 0.0, atol=1e-8)


def test_ingest_handles_leap_years(tmp_path):
    path = write_daily_csv(tmp_path / "leap.csv", {2004: 1.0, 2005: 1.0})
    series, labels, _ = ingest(path, basis_size=3)
    assert labels == ["2004", "2005"]
    # leap year day 366 maps strictly inside the unit interval
    assert (366 - 0.5) / 366 < 1.0


def test_ingest_drops_years_with_excess_missing(tmp_path):
    missing = {(2002, day) for day in range(1, 60)}  # 59 of 365 days > 10%
    path = write_daily_csv(tmp_path / "gappy.csv",
                           {2001: 1.0, 2002: 1.0, 2003: 1.0}, missing=missing)
    with pytest.warns(UserWarning, match="2002"):
        series, labels, dropped = ingest(path)
    assert labels == ["2001", "2003"]
    assert dropped == [2002]


def test_ingest_reports_unparseable_lines(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("date,value\n2001-01-01,1.0\nnot-a-date,2.0\n2001-01-03,x\n")
    with pytest.raises(DataFormatError) as err:
        ingest(path)
    assert "lines 3, 4" in str(err.value)


@pytest.mark.parametrize("text", ["inf", "-inf"])
def test_infinite_value_is_an_unparseable_row(tmp_path, capsys, text):
    path = write_daily_csv(tmp_path / "inf.csv",
                           {y: seasonal_rule(1.0, y % 2) for y in range(2000, 2004)})
    lines = path.read_text().splitlines()
    lines[4] = lines[4].split(",")[0] + "," + text
    path.write_text("\n".join(lines) + "\n")
    assert main(["detect", str(path), *FAST]) == 2
    assert "inf.csv: unparseable rows at lines 5" in capsys.readouterr().err


def test_ingest_rejects_missing_header(tmp_path):
    path = tmp_path / "hdr.csv"
    path.write_text("day,temp\n2001-01-01,1.0\n")
    with pytest.raises(DataFormatError, match="header"):
        ingest(path)


def test_detect_command_emits_full_report(step_file, tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main(["detect", str(step_file), "--seed", "7", "--reps", "200",
                 "--grid", "200", "--out", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["p_value"] <= 0.05  # the inserted shift is enormous
    assert report["k_hat_label"] == "2003"
    assert set(report["critical_values"]) == {"0.01", "0.05", "0.1"}
    cfg = report["config"]
    assert cfg["weight"] == "bartlett" and cfg["bandwidth"] == "n14"
    assert cfg["seed"] == 7 and cfg["reps"] == 200 and cfg["grid"] == 200
    assert cfg["alpha"] == 0.05 and cfg["basis_size"] == 21


def test_detect_command_is_byte_deterministic(step_file, capsys):
    args = ["detect", str(step_file), "--seed", "11", "--reps", "100",
            "--grid", "150"]
    assert main(args) == 0
    first = capsys.readouterr().out
    assert main(args) == 0
    second = capsys.readouterr().out
    assert first == second


def test_single_rep_pvalues_hit_the_convention(step_file, capsys):
    assert main(["detect", str(step_file), "--seed", "1", "--reps", "1",
                 "--grid", "100"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["p_value"] in (0.5, 1.0)


def test_coefficient_roundtrip_reproduces_analysis(step_file, tmp_path, capsys):
    dump = tmp_path / "coeffs.csv"
    args = ["detect", str(step_file), "--seed", "3", "--reps", "100",
            "--grid", "150", "--dump-coeffs", str(dump)]
    assert main(args) == 0
    direct = json.loads(capsys.readouterr().out)

    series, labels = read_coeffs(dump)
    assert series.n == 8 and labels[0] == "2000"
    assert main(["detect", str(dump), "--coeffs", "--seed", "3", "--reps",
                 "100", "--grid", "150"]) == 0
    roundtrip = json.loads(capsys.readouterr().out)
    assert roundtrip["stat"] == direct["stat"]
    assert roundtrip["p_value"] == direct["p_value"]


def with_bom(path):
    """A copy of the file prefixed with the UTF-8 byte-order mark."""
    marked = path.with_name("bom_" + path.name)
    marked.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
    return marked


def test_daily_csv_with_byte_order_mark_reads_as_plain(step_file, capsys):
    marked = with_bom(step_file)
    plain, plain_labels, plain_dropped = ingest(step_file)
    series, labels, dropped = ingest(marked)
    assert np.array_equal(series.data, plain.data)
    assert labels == plain_labels and dropped == plain_dropped
    assert main(["detect", str(step_file), *FAST]) == 0
    direct = capsys.readouterr().out
    assert main(["detect", str(marked), *FAST]) == 0
    assert capsys.readouterr().out == direct


def test_piped_daily_csv_with_byte_order_mark_reads_as_plain(step_file, monkeypatch,
                                                             capsys):
    assert main(["detect", str(step_file), *FAST]) == 0
    direct = capsys.readouterr().out
    piped = io.TextIOWrapper(io.BytesIO(with_bom(step_file).read_bytes()), encoding="utf-8")
    monkeypatch.setattr("sys.stdin", piped)
    assert main(["detect", "-", *FAST]) == 0
    assert capsys.readouterr().out == direct
    assert not piped.closed  # reading the piped bytes leaves stdin open


def test_coefficient_csv_with_byte_order_mark_reads_as_plain(step_file, tmp_path):
    dump = tmp_path / "coeffs.csv"
    assert main(["detect", str(step_file), *FAST, "--out", str(tmp_path / "r.json"),
                 "--dump-coeffs", str(dump)]) == 0
    plain, plain_labels = read_coeffs(dump)
    series, labels = read_coeffs(with_bom(dump))
    assert np.array_equal(series.data, plain.data)
    assert labels == plain_labels


def test_date_command_reports_interval_with_labels(step_file, capsys):
    assert main(["date", str(step_file), "--seed", "5", "--reps", "150",
                 "--grid", "150", "--xi-reps", "400"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["k_hat_label"] == "2003"
    ci = report["ci"]
    assert ci["lo"] <= report["k_hat"] <= ci["hi"]
    assert ci["lo_label"] <= ci["hi_label"]
    assert report["sigma2_hat"] <= report["lambda1_hat"] + 1e-10
    assert report["config"]["xi_reps"] == 400


def test_date_command_fpca_sidecar(step_file, capsys):
    assert main(["date", str(step_file), "--seed", "5", "--reps", "100",
                 "--grid", "150", "--xi-reps", "200", "--fpca", "--tve",
                 "0.9"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["fpca"]["tve"] == 0.9
    assert 1 <= report["fpca"]["d"] <= 21
    assert report["fpca"]["k_tilde_label"] == report["fpca"]["k_tilde_label"]


def test_date_command_on_noiseless_break_collapses_interval(tmp_path, capsys):
    years = {y: (0.0 if y < 2004 else 2.0) for y in range(2000, 2008)}
    path = write_daily_csv(tmp_path / "exact.csv", years)
    assert main(["date", str(path), "--seed", "2", "--reps", "50",
                 "--grid", "100", "--xi-reps", "100"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["k_hat_label"] == "2003"
    assert report["ci"]["lo"] == report["ci"]["hi"] == report["k_hat"]
    assert report["ci"]["lo_label"] == "2003"


def test_missing_file_exits_with_data_code(capsys):
    assert main(["detect", "/nonexistent/file.csv"]) == 2


def test_bad_rows_exit_with_data_code(tmp_path, capsys):
    path = tmp_path / "bad.csv"
    path.write_text("date,value\ngarbage,1\n")
    assert main(["detect", str(path)]) == 2


@pytest.mark.parametrize("extra, fragment", [
    (["--alpha", "1.5"], "--alpha must be in (0, 1), got 1.5"),
    (["--reps", "0"], "--reps must be at least 1, got 0"),
    (["--grid", "10"], "--grid must be at least 100, got 10"),
    (["--tve", "2"], "--tve must be in (0, 1], got 2.0"),
    (["--seed", "-1"], "--seed must be at least 0, got -1"),
    (["--coeffs", "--basis-size", "3"], "coeffs.csv: non-finite coefficient at line 3"),
], ids=["alpha", "reps", "grid", "tve", "seed", "nan-coefficient"])
def test_bad_input_exits_with_data_code_and_names_it(tmp_path, step_file, capsys,
                                                      extra, fragment):
    path = step_file
    if "--coeffs" in extra:
        path = tmp_path / "coeffs.csv"
        path.write_text("label,c1,c2,c3\n2001,1,0,0\n2002,nan,0,0\n2003,2,0,0\n")
    assert main(["date", str(path), "--seed", "1", *extra]) == 2
    assert fragment in capsys.readouterr().err


def test_degenerate_numeric_input_exits_with_numeric_code(tmp_path, capsys):
    # four identical constant years: zero break function, sigma^2 undefined
    path = write_daily_csv(tmp_path / "flat.csv", {y: 1.0 for y in range(2001, 2005)})
    assert main(["date", str(path), "--seed", "1", "--reps", "50",
                 "--grid", "100", "--xi-reps", "100"]) == 3


def scaled_step_coeffs(path, scale):
    """A coefficient CSV of 30 curves, D = 3, with a mean step after curve 15."""
    data = np.random.default_rng(3).standard_normal((30, 3))
    data[15:] += 1.0
    rows = [f"{i}," + ",".join(repr(float(v)) for v in row)
            for i, row in enumerate(scale * data)]
    path.write_text("label,c1,c2,c3\n" + "\n".join(rows) + "\n")
    return path


@pytest.mark.filterwarnings("error")  # a numpy RuntimeWarning fails the test
@pytest.mark.parametrize("scale", [1e155, 1e200, 1e80])
@pytest.mark.parametrize("command", [["detect"], ["date"], ["date", "--fpca"],
                                     ["date", "--bandwidth", "adaptive"]])
def test_coefficients_that_overflow_exit_with_one_numeric_message(tmp_path, capsys,
                                                                  command, scale):
    # squares (1e155) or fourth powers (1e80) of the coefficients overflow, which
    # the fit reports before any consumer sums them
    path = scaled_step_coeffs(tmp_path / "huge.csv", scale)
    assert main([*command, str(path), "--coeffs", "--basis-size", "3", *FAST]) == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("numerical error:") and "overflow" in err[0]


@pytest.mark.filterwarnings("error")
def test_coefficients_below_the_overflow_check_run_clean(tmp_path, capsys):
    # at 1e70 every fourth-order sum is finite: date runs without a warning
    path = scaled_step_coeffs(tmp_path / "large.csv", 1e70)
    assert main(["date", str(path), "--coeffs", "--basis-size", "3", "--fpca", *FAST]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["k_hat"] == 15 and report["ci"]["lo"] <= 15 <= report["ci"]["hi"]


def test_constant_daily_series_has_no_break(tmp_path, capsys):
    # the yearly fits differ only by rounding, which must not read as a break
    path = write_daily_csv(tmp_path / "const.csv", {y: 2.0 for y in range(2000, 2006)})
    assert main(["detect", str(path), *FAST]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["stat"] == 0.0 and report["p_value"] == 1.0
    assert report["k_hat"] == 1
    assert main(["date", str(path), *FAST]) == 3
    assert "break function is zero" in capsys.readouterr().err


# a value that is not UTF-8, and a quoted field over the csv module's limit
BAD_FIELDS = {"not-utf8": b"\xff\xfe", "long-field": b'"' + b"1" * 200_000 + b'"'}
HEADERS = {"daily": b"date,value",
           "coeffs": b"label," + b",".join(b"c%d" % i for i in range(1, 22))}


@pytest.mark.parametrize("fault", sorted(BAD_FIELDS))
@pytest.mark.parametrize("reader", sorted(HEADERS))
def test_unreadable_csv_bytes_are_a_data_error(tmp_path, capsys, monkeypatch,
                                               reader, fault):
    first = b"2000-01-01" if reader == "daily" else b"2000"
    rest = [] if reader == "daily" else [b"0"] * 20
    data = HEADERS[reader] + b"\n" + b",".join([first, BAD_FIELDS[fault], *rest]) + b"\n"
    path = tmp_path / "bad.csv"
    path.write_bytes(data)
    extra = ["--coeffs"] if reader == "coeffs" else []
    assert main(["detect", str(path), *FAST, *extra]) == 2
    assert f"error: {path}: unreadable CSV" in capsys.readouterr().err
    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(data), encoding="utf-8"))
    assert main(["detect", "-", *FAST, *extra]) == 2
    assert "error: <stream>: unreadable CSV" in capsys.readouterr().err


@pytest.mark.parametrize("years", [2, 3])
def test_fewer_than_four_years_is_a_data_error(tmp_path, capsys, years):
    path = write_daily_csv(tmp_path / "short.csv",
                           {y: seasonal_rule(1.0, y % 2) for y in range(2000, 2000 + years)})
    for command in ("detect", "date"):
        assert main([command, str(path), *FAST]) == 2
        assert f"short.csv: {years} curves, fewer than 4" in capsys.readouterr().err


def test_date_command_fits_the_break_once(step_file, monkeypatch, capsys):
    import funcbreak.basis as basis
    import funcbreak.detect as detect

    fits = []
    fit_break = detect.fit_break

    def counting(*args, **kwargs):
        fits.append(fit_break(*args, **kwargs))
        return fits[-1]

    # the CLI reaches the fit through the detect module, the one that holds it
    monkeypatch.setattr(detect, "fit_break", counting)
    # every namespace that holds the CUSUM or the decomposition by name counts its calls
    calls = {"cusum_paths": 0, "eigen_decompose": 0}
    originals = {"cusum_paths": detect.cusum_paths,
                 "eigen_decompose": basis.eigen_decompose}

    def counted(name):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return originals[name](*args, **kwargs)
        return wrapper

    for module_name, module in list(sys.modules.items()):
        for name, fn in originals.items():
            if (module_name.split(".")[0] == "funcbreak"
                    and getattr(module, name, None) is fn):
                monkeypatch.setattr(module, name, counted(name))
    # the test takes the kernel split at k_hat here, so the test and the
    # interval read one decomposition of it; fPCA adds the covariance spectrum
    for options, decompositions in (([], 1), (["--fpca"], 2)):
        fits.clear()
        calls.update(cusum_paths=0, eigen_decompose=0)
        assert main(["date", str(step_file), *FAST, *options]) == 0
        assert len(fits) == 1
        assert fits[0].null[0] == fits[0].k_hat
        assert calls == {"cusum_paths": 1, "eigen_decompose": decompositions}


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    n=st.integers(2, 8),
    d=st.integers(1, 3),
    constant=st.booleans(),
    values=st.lists(st.integers(-2, 2), min_size=24, max_size=24),
    command=st.sampled_from(["detect", "date"]),
)
def test_short_and_constant_coefficient_series_exit_with_a_code(
        tmp_path, capsys, n, d, constant, values, command):
    # few curves, ties and constant rows: never a traceback, only 0, 2 or 3
    rows = np.array(values[:n * d], dtype=float).reshape(n, d)
    if constant:
        rows[:] = rows[0]
    path = tmp_path / "coeffs.csv"
    header = ",".join(["label"] + [f"c{i}" for i in range(1, d + 1)])
    body = "".join(f"{2000 + i}," + ",".join(map(str, row)) + "\n"
                   for i, row in enumerate(rows))
    path.write_text(header + "\n" + body)
    capsys.readouterr()
    code = main([command, str(path), "--coeffs", "-D", str(d), *FAST])
    err = capsys.readouterr().err
    assert code in (0, 2, 3)
    assert (code == 0) == (err == "")
    if n < 4:
        # too few curves for a bandwidth rule: a data error naming the file
        assert code == 2 and "coeffs.csv" in err
    if constant and n >= 4:
        # stat 0 gives p = 1; a zero break function cannot be dated
        assert code == (0 if command == "detect" else 3)


def test_four_year_daily_series_is_analysed(tmp_path, capsys):
    years = {y: seasonal_rule(1.0, 0.5 * (y % 2)) for y in range(2000, 2004)}
    path = write_daily_csv(tmp_path / "four.csv", years)
    assert main(["detect", str(path), *FAST]) == 0
    assert json.loads(capsys.readouterr().out)["config"]["n_curves"] == 4
    assert main(["date", str(path), *FAST]) == 0
    assert 1 <= json.loads(capsys.readouterr().out)["k_hat"] <= 4


@pytest.mark.parametrize("command", ["detect", "date"])
def test_all_nan_year_is_reported_as_dropped(tmp_path, capsys, command):
    years = {y: seasonal_rule(1.0, 0.2 * (y % 3)) for y in range(2000, 2008)}
    missing = {(2003, day) for day in range(1, 366)}
    path = write_daily_csv(tmp_path / "gap.csv", years, missing=missing)
    with pytest.warns(UserWarning, match="2003"):
        assert main([command, str(path), *FAST]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["config"]["dropped_years"] == ["2003"]
    assert report["config"]["n_curves"] == 7


def test_simulate_grid_validation_exits_before_work(capsys):
    code = main(["simulate", "dating", "--m", "40", "--detectors", "FF",
                 "Aligned", "--sim-reps", "5", "--n", "20"])
    assert code == 2
    err = capsys.readouterr().err
    assert "m=40" in err and "Aligned" in err


@pytest.mark.parametrize("kind, detectors", [
    ("dating", {"FF", "fPCA@0.85", "fPCA@0.90", "fPCA@0.95"}),
    ("coverage", {"FF"}),
])
def test_simulate_default_detectors_are_those_the_kind_runs(tmp_path, capsys,
                                                             kind, detectors):
    # the default list holds Aligned, which no dating or coverage run takes
    out = tmp_path / f"{kind}.csv"
    assert main(["simulate", kind, "--setting", "1", "--n", "30", "--sim-reps", "2",
                 "--workers", "1", "--out", str(out)]) == 0
    rows = list(csv.DictReader(out.read_text().splitlines()))
    assert {r["detector"] for r in rows} == detectors
    # an unsupported detector named explicitly is still an error
    assert main(["simulate", kind, "--setting", "1", "--n", "30", "--sim-reps", "2",
                 "--workers", "1", "--detectors", "FF", "Aligned"]) == 2
    assert f"'Aligned' does not support {kind} runs" in capsys.readouterr().err


def test_simulate_repeated_detector_exits_before_work(tmp_path, capsys):
    # each detector would write its rows twice, and ExperimentResult.value
    # could no longer find one row per filter
    out = tmp_path / "dating.csv"
    code = main(["simulate", "dating", "--setting", "1", "--n", "20", "--sim-reps", "2",
                 "--workers", "1", "--detectors", "FF", "FF", "fpca@0.9", "fPCA@0.90",
                 "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert "'FF' and 'FF'" in err and "'fpca@0.9' and 'fPCA@0.90'" in err
    assert not out.exists()


@pytest.mark.parametrize("name", ["fpca@abc", "fpca@", "fPCA@1.5"])
def test_simulate_bad_tve_names_its_detector(tmp_path, capsys, name):
    out = tmp_path / "size.csv"
    assert main(["simulate", "size", "--setting", "1", "--n", "30", "--sim-reps", "2",
                 "--reps", "20", "--workers", "1", "--detectors", "FF", name,
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"TVE fraction in detector {name!r} is not a number in (0, 1]" in err
    assert not out.exists()


def test_simulate_break_spec_that_places_no_break_exits_before_work(capsys):
    # int(0.005 * 100) = 0 would shift every curve: a power run without a break
    code = main(["simulate", "power", "--setting", "2", "--n", "100", "--snr", "5.0",
                 "--theta", "0.005", "--detectors", "FF", "--sim-reps", "40",
                 "--reps", "99"])
    assert code == 2
    assert "theta=0.005 places no break at n=100" in capsys.readouterr().err


def test_detect_grid_defaults_to_the_number_of_curves(tmp_path, capsys):
    path = tmp_path / "coeffs.csv"
    data = np.random.default_rng(5).standard_normal((60, 3)) * [1.0, 0.5, 0.25]
    path.write_text("label,c1,c2,c3\n" + "".join(
        f"{1900 + i},{','.join(repr(float(v)) for v in row)}\n"
        for i, row in enumerate(data)))
    common = ["detect", str(path), "--coeffs", "--basis-size", "3", "--seed", "1",
              "--reps", "50"]
    assert main(common) == 0
    assert json.loads(capsys.readouterr().out)["config"]["grid"] == 60
    # an explicit grid approximates the continuous supremum and needs 100 steps
    assert main([*common, "--grid", "50"]) == 2
    assert "--grid must be at least 100, got 50" in capsys.readouterr().err


def test_simulate_grid_defaults_to_the_series_steps(tmp_path, monkeypatch):
    import funcbreak.cli as cli
    from funcbreak.simlab import DgpConfig, run_experiment

    grids = []

    def recording(*args, **kwargs):
        grids.append(kwargs["null_grid"])
        return run_experiment(*args, **kwargs)

    monkeypatch.setattr(cli, "run_experiment", recording)
    out = tmp_path / "default.csv"
    assert main(["simulate", "size", "--setting", "2", "--n", "20", "--sim-reps", "3",
                 "--reps", "19", "--detectors", "FF", "--seed", "4", "--workers", "1",
                 "--out", str(out)]) == 0
    assert grids == [None]
    direct = io.StringIO()
    run_experiment("size", DgpConfig(setting=2, n=20), detectors=["FF"], reps=3,
                   seed=4, workers=1, null_reps=19, null_grid=None).to_csv(direct)
    assert out.read_text(encoding="utf-8") == direct.getvalue()


@pytest.mark.parametrize("workers", ["0", "-4"])
def test_simulate_workers_below_one_exit_with_data_code(capsys, workers):
    code = main(["simulate", "size", "--setting", "1", "--n", "20", "--sim-reps", "1",
                 "--detectors", "FF", "--reps", "19", "--workers", workers])
    assert code == 2
    assert f"--workers must be at least 1, got {workers}" in capsys.readouterr().err


def test_simulate_non_integer_thread_cap_exits_with_data_code(monkeypatch, capsys):
    monkeypatch.setenv("FUNCBREAK_THREADS", "2.5")
    code = main(["simulate", "size", "--setting", "1", "--n", "20",
                 "--sim-reps", "1", "--detectors", "FF", "--workers", "1"])
    assert code == 2
    assert "FUNCBREAK_THREADS" in capsys.readouterr().err


def test_simulate_size_emits_schema_and_is_seed_stable(tmp_path):
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["simulate", "size", "--setting", "2", "--n", "20", "--sim-reps",
            "6", "--reps", "60", "--grid", "100", "--detectors", "FF",
            "fPCA@0.90", "--seed", "21", "--workers", "1"]
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    rows = list(csv.DictReader(out1.read_text().splitlines()))
    assert {r["detector"] for r in rows} == {"FF", "fPCA@0.90"}
    assert all(r["metric"] == "rejection_rate" for r in rows)


def test_simulate_table_has_full_grid_shape(tmp_path):
    out = tmp_path / "table.csv"
    args = ["simulate", "size", "--setting", "1", "2", "3", "--dependence",
            "iid", "far1", "--n", "20", "30", "--sim-reps", "2", "--reps",
            "40", "--grid", "100", "--seed", "1", "--workers", "2",
            "--out", str(out)]
    assert main(args) == 0
    rows = list(csv.DictReader(out.read_text().splitlines()))
    rate_rows = [r for r in rows if r["metric"] == "rejection_rate"]
    assert len(rate_rows) == 3 * 2 * 2 * 5  # settings x dgps x n x detectors
