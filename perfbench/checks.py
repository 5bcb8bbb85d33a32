"""Correctness checks on the outputs of one benchmark run.

Each check returns a list of problems; an empty list means the output passed.
The functions take plain JSON data, so a test can feed them corrupted reports.
"""

import hashlib
import json
import math

# largest distance in years between k-hat and the planted break that passes;
# with the inputs' break size the error stays within 4 years on 300 files
BREAK_TOLERANCE_YEARS = 10
# the program's own slack on the Rayleigh bound sigma^2 <= lambda_1
RAYLEIGH_SLACK = 1e-10

_SIM_METRICS = {"size": ("rejection_rate",), "coverage": ("coverage", "median_width"),
                "dating": ("bias", "median_abs_error", "q25", "q75")}
_RATES = ("rejection_rate", "coverage")


def digest(data) -> str:
    """SHA-256 of a JSON value with sorted keys, or of a string as UTF-8."""
    text = data if isinstance(data, str) else json.dumps(
        data, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def check_cli_report(command: str, report: dict, planted: dict) -> list:
    """Invariants of a ``detect`` or ``date`` JSON report for a generated CSV."""
    problems = []
    p = report.get("p_value")
    if not isinstance(p, (int, float)) or not 0.0 <= p <= 1.0:
        problems.append(f"p_value {p!r} outside [0, 1]")
    levels = sorted((float(a), q) for a, q in report.get("critical_values", {}).items())
    if not levels:
        problems.append("no critical values")
    if any(q1 < q2 for (_, q1), (_, q2) in zip(levels, levels[1:])):
        problems.append(f"critical values do not decrease in alpha: {levels}")
    expected = planted["last_pre_break_year"]
    k_year = int(report.get("k_hat_label", -10**6))
    if abs(k_year - expected) > BREAK_TOLERANCE_YEARS:
        problems.append(f"k_hat year {k_year} is more than {BREAK_TOLERANCE_YEARS} "
                        f"years from the planted break after {expected}")
    dropped = report.get("config", {}).get("dropped_years")
    if dropped != [str(planted["dropped_year"])]:
        problems.append(f"dropped years {dropped} != [{planted['dropped_year']}]")
    if command == "date":
        ci = report.get("ci", {})
        k_hat = report.get("k_hat")
        if not ci.get("lo", math.inf) <= k_hat <= ci.get("hi", -math.inf):
            problems.append(f"k_hat {k_hat} outside the CI [{ci.get('lo')}, {ci.get('hi')}]")
        sigma2, lambda1 = report.get("sigma2_hat"), report.get("lambda1_hat")
        if not (isinstance(sigma2, float) and isinstance(lambda1, float)
                and sigma2 <= lambda1 + RAYLEIGH_SLACK):
            problems.append(f"sigma2_hat {sigma2} exceeds lambda1_hat {lambda1}")
    return problems


def check_sim_rows(experiment: dict, rows: list) -> list:
    """Every cell and detector has its result rows, with full replication counts."""
    problems = []
    kind, reps = experiment["kind"], experiment["reps"]
    settings = sorted({d["setting"] for d in experiment["dgps"]})
    for setting in settings:
        for detector in experiment["detectors"]:
            for metric in _SIM_METRICS[kind]:
                found = [r for r in rows if r["setting"] == setting
                         and r["detector"] == detector and r["metric"] == metric]
                if len(found) != max(1, len(experiment["specs"])):
                    problems.append(f"setting {setting} {detector}: {len(found)} "
                                    f"{metric} rows")
                    continue
                for row in found:
                    value = row["value"]
                    if row["reps"] != reps:
                        problems.append(f"setting {setting} {detector} {metric}: "
                                        f"{row['reps']} of {reps} replications")
                    if not isinstance(value, (int, float)) or not math.isfinite(value):
                        problems.append(f"setting {setting} {detector} {metric}: {value!r}")
                    elif metric in _RATES and not 0.0 <= value <= 1.0:
                        problems.append(f"setting {setting} {detector} {metric}: "
                                        f"{value} outside [0, 1]")
    return problems


def sim_failures(rows: list) -> int:
    """Detector evaluations that raised, from the ``failures`` rows."""
    return int(sum(r["value"] for r in rows if r["metric"] == "failures"))


def check_repeats(digests: list, distinct: int) -> list:
    """Operation i repeats operation i - distinct, so their outputs must match."""
    return [f"operation {i} output {digests[i][:12]} differs from operation "
            f"{i - distinct} output {digests[i - distinct][:12]}"
            for i in range(distinct, len(digests))
            if digests[i] != digests[i - distinct]]


def run_checksum(digests: list, distinct: int) -> str:
    """Checksum of a run: the digests of its first ``distinct`` operations."""
    if len(digests) < distinct:
        raise ValueError(f"need {distinct} operation outputs, got {len(digests)}")
    return digest(digests[:distinct])
