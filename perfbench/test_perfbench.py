"""Tests of the benchmark itself: inputs, correctness checks, tracing, output.

Run from the root of the checkout: ``python3 -m pytest perfbench -q``.
The smoke runs start the real benchmark at its smallest size and take a few
minutes on two cores.
"""

import calendar
import copy
import datetime
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from checks import check_cli_report, check_repeats, check_sim_rows, run_checksum
from inputs import build_csv
from reference import sample
from tracing import Span, Tracer, layer_totals
from workloads import WORKLOADS

BENCH_DIR = Path(__file__).resolve().parent
CHECKOUT = BENCH_DIR.parent
SPEC = json.loads((CHECKOUT / "BENCHMARK.json").read_text(encoding="utf-8"))


def test_input_builder_is_deterministic_for_a_seed(tmp_path):
    first = build_csv(tmp_path / "a.csv", seed=7, index=1)
    again = build_csv(tmp_path / "b.csv", seed=7, index=1)
    other = build_csv(tmp_path / "c.csv", seed=8, index=1)
    text = Path(first.path).read_bytes()
    assert text == Path(again.path).read_bytes()
    assert text != Path(other.path).read_bytes()
    assert (first.break_year, first.dropped_year) == (again.break_year, again.dropped_year)


def test_input_has_leap_years_blanks_and_one_gappy_year(tmp_path):
    planted = build_csv(tmp_path / "a.csv", seed=3, index=0)
    rows = Path(planted.path).read_text(encoding="utf-8").splitlines()
    assert rows[0] == "date,value" and len(rows) - 1 == planted.rows
    per_year, blanks = {}, 0
    for row in rows[1:]:
        day, value = row.split(",")
        year = datetime.date.fromisoformat(day).year
        per_year[year] = per_year.get(year, 0) + 1
        blanks += value == ""
    assert len(per_year) == 150
    full = {y: n for y, n in per_year.items() if y != planted.dropped_year}
    assert all(n == (366 if calendar.isleap(y) else 365) for y, n in full.items())
    assert 366 in full.values() and full.get(1900, 365) == 365
    assert 0.005 < blanks / planted.rows < 0.02
    gappy = [y for y, n in per_year.items() if n < 0.9 * 365]
    assert gappy == [planted.dropped_year]
    assert planted.theta == 0.15
    assert planted.to_dict()["last_pre_break_year"] == planted.break_year - 1


def _date_report(planted) -> dict:
    return {
        "p_value": 0.001, "critical_values": {"0.01": 3.0, "0.05": 2.0, "0.1": 1.5},
        "k_hat": 22, "k_hat_label": str(planted["last_pre_break_year"]),
        "sigma2_hat": 0.5, "lambda1_hat": 0.9,
        "ci": {"lo": 20.5, "hi": 23.0},
        "config": {"dropped_years": [str(planted["dropped_year"])]},
    }


PLANTED = {"break_year": 1893, "dropped_year": 1950, "last_pre_break_year": 1892}


def test_valid_report_passes():
    assert check_cli_report("date", _date_report(PLANTED), PLANTED) == []
    assert check_cli_report("detect", _date_report(PLANTED), PLANTED) == []


@pytest.mark.parametrize("corrupt, message", [
    (lambda r: r.update(k_hat=30), "outside the CI"),
    (lambda r: r.update(sigma2_hat=1.0), "exceeds lambda1_hat"),
    (lambda r: r.update(p_value=1.5), "outside [0, 1]"),
    (lambda r: r["critical_values"].update({"0.1": 2.5}), "do not decrease"),
    (lambda r: r.update(k_hat_label="1930"), "from the planted break"),
    (lambda r: r["config"].update(dropped_years=[]), "dropped years"),
])
def test_corrupted_report_fails(corrupt, message):
    report = copy.deepcopy(_date_report(PLANTED))
    corrupt(report)
    problems = check_cli_report("date", report, PLANTED)
    assert any(message in p for p in problems), problems


def test_flipped_checksum_fails_the_repeat_check():
    digests = ["a" * 64, "b" * 64, "c" * 64, "a" * 64, "b" * 64]
    assert check_repeats(digests, 3) == []
    flipped = digests[:4] + ["f" + "b" * 63]
    assert len(check_repeats(flipped, 3)) == 1
    assert run_checksum(digests, 3) != run_checksum(["d" * 64] + digests[1:], 3)


def test_missing_simulation_rows_fail():
    exp = WORKLOADS["simlab-size"].experiment
    rows = [{"setting": s, "detector": d, "metric": "rejection_rate", "value": 0.1,
             "reps": exp["reps"]} for s in (1, 3) for d in exp["detectors"]]
    assert check_sim_rows(exp, rows) == []
    assert check_sim_rows(exp, rows[1:])
    rows[0] = {**rows[0], "reps": exp["reps"] - 1}
    assert check_sim_rows(exp, rows)


def test_self_time_excludes_children_and_same_layer_nesting():
    spans = [Span("op", 0, 100, -1, 0),
             Span("detect.test", 10, 90, 0, 0),
             Span("detect.cusum", 10, 30, 1, 0),
             Span("detect.cusum", 15, 25, 2, 0),
             Span("detect.null_limit", 40, 80, 1, 0, {"normals": 5})]
    totals = layer_totals(spans)
    assert totals["op"]["self_s"] == pytest.approx(20e-9)
    assert totals["detect.test"]["self_s"] == pytest.approx(20e-9)
    assert totals["detect.cusum"] == pytest.approx({"calls": 1, "total_s": 20e-9,
                                                    "self_s": 20e-9})
    assert totals["detect.null_limit"]["normals"] == 5


def test_wrapped_calls_nest_under_their_operation():
    tracer = Tracer()
    inner = tracer.wrap("inner", lambda x: x + 1)
    outer = tracer.wrap("outer", lambda x: inner(x) * 2)
    assert tracer.run_op(4, outer, 1) == 4
    assert [(s.name, s.parent, s.op) for s in tracer.spans] == [
        ("op", -1, 4), ("outer", 0, 4), ("inner", 1, 4)]


def test_reference_sample_is_the_same_work_in_process_and_over_a_pool():
    alone, pooled = sample(1), sample(2)
    assert alone["value"] == pooled["value"]
    assert alone["wall"] > 0 and alone["cpu"] > 0
    assert pooled["wall"] > 0 and pooled["cpu"] > 0


def test_benchmark_fails_without_the_program(tmp_path):
    shutil.copy(CHECKOUT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cli-date", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert proc.stdout == ""


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace, kind", [(0, "end_to_end"), (1, "per_layer")])
def test_smoke_run_emits_every_metric(workload, trace, kind):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "5",
         "--seconds", "0", "--trace", str(trace)],
        cwd=CHECKOUT, capture_output=True, text=True, timeout=180, check=True)
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC[kind]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
