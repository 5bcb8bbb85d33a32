"""Repeat the benchmark over seeds and summarise the spread of every metric.

Usage, from the root of a checkout:

    python3 perfbench/baseline.py [--workloads NAME ...] [--seeds 1 2 ...]
                                  [--trace-seed N] [--write]

Runs ``run.py --trace 0`` once per workload and seed, and ``--trace 1`` once
per workload on ``--trace-seed``, with ``run_seconds`` from BENCHMARK.json.
For each end-to-end metric it prints the median, the quartiles of
``statistics.quantiles(values, n=4)`` and their distance as a share of the
median, next to the metric's bound. With ``--write`` it stores the summary,
the per-layer numbers and every run's output checksum in
``perfbench/baseline.json``, the reference ``run.py`` compares checksums to.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
CHECKOUT = BENCH_DIR.parent
SPEC = json.loads((CHECKOUT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_once(workload: str, seed: int, trace: int) -> tuple[dict, dict]:
    cmd = [sys.executable, *SPEC["command"][1:], "--workload", workload,
           "--seed", str(seed), "--seconds", str(SPEC["run_seconds"]),
           "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=CHECKOUT, stdout=subprocess.PIPE, text=True,
                         check=True, timeout=180).stdout.splitlines()
    return json.loads(out[-2])["details"], json.loads(out[-1])


def summarise(values: list) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values), "values": values}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+",
                        default=[w["name"] for w in SPEC["workloads"]])
    parser.add_argument("--seeds", type=int, nargs="+", default=list(range(1, 11)))
    parser.add_argument("--trace-seed", type=int, default=None)
    parser.add_argument("--write", action="store_true")
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    summary, env, ok = {}, None, True
    for workload in args.workloads:
        values, checksums = {}, {}
        for seed in args.seeds:
            details, result = run_once(workload, seed, 0)
            ok &= result["correct"] and details["reference_match"] is not False
            env = details["env"]
            checksums[str(seed)] = details["checksum"]
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"reference_match={details['reference_match']} "
                  + " ".join(f"{k}={v['value']:.5g}" for k, v in result["metrics"].items()),
                  flush=True)
        entry = {"end_to_end": {k: summarise(v) for k, v in values.items()},
                 "checksums": checksums}
        for name, stats in entry["end_to_end"].items():
            flag = "" if stats["spread"] < bounds[name] / 3 else "  <-- above bound/3"
            print(f"  {name:14s} median {stats['median']:.6g}  spread "
                  f"{stats['spread']:.4f}  bound {bounds[name]}{flag}", flush=True)
        if args.trace_seed is not None:
            _, traced = run_once(workload, args.trace_seed, 1)
            ok &= traced["correct"]
            entry["per_layer"] = {k: v["value"] for k, v in traced["metrics"].items()}
        summary[workload] = entry
    if args.write:
        path = BENCH_DIR / "baseline.json"
        baseline = (json.loads(path.read_text(encoding="utf-8")) if path.is_file()
                    else {"workloads": {}, "checksums": {}})
        baseline.update(env=env, run_seconds=SPEC["run_seconds"], seeds=args.seeds,
                        trace_seed=args.trace_seed)
        for name, entry in summary.items():
            baseline["checksums"][name] = entry.pop("checksums")
            baseline["workloads"][name] = entry
        path.write_text(json.dumps(baseline, indent=1, sort_keys=True) + "\n",
                        encoding="utf-8")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
