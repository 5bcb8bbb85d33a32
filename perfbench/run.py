"""funcbreak benchmark: seeded workloads, end-to-end and per-layer metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The benchmark builds the workload's inputs from the seed, then runs its
operations in a fresh interpreter that imports funcbreak from ``src/``
(see ``runner.py``), in a closed loop for S seconds. It checks every output
(``checks.py``) and that repeated operations give identical outputs.

With ``--trace 0`` it also times set-up, fresh interpreters that import
funcbreak and build the CLI parser, before and after the timed pass, and
reports the end-to-end metrics. Each operation's and each set-up's timings
are divided by those of a fixed reference kernel timed just before it
(``reference.py``), because the host's speed drifts between and within
runs; set-up is then given in seconds at a nominal host speed. The raw
seconds are in the details line.
With ``--trace 1`` it reports the per-layer metrics instead: after the timed
pass it runs the workload's first operations twice more in one process
(workers=1), once plain and once with every layer wrapped by ``tracing.py``.

The last line of standard output is the result:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
The line before it holds the details: samples, checksum, environment and
any problems. Work files go to ``.perfbench/`` in the checkout.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

# pinned before numpy loads here, and inherited by every process started below
THREAD_PINS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
               "MKL_NUM_THREADS": "1"}
os.environ.update(THREAD_PINS)

import reference  # noqa: E402
from checks import check_repeats, run_checksum  # noqa: E402
from inputs import build_cli_inputs  # noqa: E402
from tracing import LAYER_NAMES, ROOT  # noqa: E402
from workloads import CLI_FILES, WORKERS, WORKLOADS  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
CHECKOUT = BENCH_DIR.parent
WORK_DIR = CHECKOUT / ".perfbench"
BASELINE = BENCH_DIR / "baseline.json"
# set-up samples per run, half taken before the timed pass and half after it
SETUP_RUNS = 10
# every process is stopped well inside a 180 s limit on one run
DEADLINE_S = 170.0

# per-layer work counts reported per operation, besides calls and times
_WORK_COUNTS = (("cli.ingest", "rows"), ("detect.null_limit", "normals"),
                ("simlab.critical_value", "normals"), ("dating.xi", "normals"),
                ("simlab.gen_errors", "curves"))


class BenchError(RuntimeError):
    """The benchmark could not run; no result is printed."""


def _run_child(cmd, deadline: float, **kwargs) -> int:
    """Run a process in its own group; kill the group if it outlives the deadline.

    The wait blocks rather than polls, so the set-up timings are not rounded
    to the polling interval.
    """
    proc = subprocess.Popen(cmd, cwd=CHECKOUT, start_new_session=True, **kwargs)
    kill = threading.Timer(max(1.0, deadline - time.monotonic()),
                           os.killpg, (proc.pid, signal.SIGKILL))
    kill.start()
    try:
        code = proc.wait()
    finally:
        kill.cancel()
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    if time.monotonic() >= deadline:
        raise BenchError(f"{cmd[1]} did not finish before the deadline")
    return code


def measure_setup(deadline: float, runs: int) -> list:
    """Seconds from a fresh interpreter to funcbreak imported and the CLI parser
    built, each with the wall seconds of an in-process reference sample timed
    just before it."""
    cmd = [sys.executable, "-m", "funcbreak.cli", "--help"]
    env = dict(os.environ, PYTHONPATH=str(CHECKOUT / "src"))
    times = []
    for _ in range(runs + 1):  # the first run only warms the file cache
        ref = reference.sample(1)["wall"]
        start = time.perf_counter()
        code = _run_child(cmd, deadline, env=env, stdout=subprocess.DEVNULL)
        times.append({"wall": time.perf_counter() - start, "ref": ref})
        if code != 0:
            raise BenchError(f"'funcbreak.cli --help' exited with {code}")
    return times[1:]


def run_pass(name: str, workload, seed: int, inputs: list, run_dir: Path, *,
             seconds: float, min_ops: int, workers: int, trace: bool,
             deadline: float, with_reference: bool = False) -> dict:
    """One runner process over the workload's operations; returns its result."""
    pass_dir = run_dir / name
    pass_dir.mkdir(parents=True, exist_ok=True)
    spec = {"root": str(CHECKOUT), "workdir": str(pass_dir), "workload": workload.name,
            "seed": seed, "inputs": inputs, "seconds": seconds, "min_ops": min_ops,
            "workers": workers, "trace": trace, "reference": with_reference}
    spec_path, result_path = pass_dir / "spec.json", pass_dir / "result.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    code = _run_child([sys.executable, str(BENCH_DIR / "runner.py"), str(spec_path),
                       str(result_path)], deadline, stdout=subprocess.DEVNULL)
    if code != 0:
        raise BenchError(f"runner pass {name!r} exited with {code}")
    return json.loads(result_path.read_text(encoding="utf-8"))


def _metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def op_seconds(workload, timed: dict) -> dict:
    """Medians over the timed pass: wall and CPU seconds per request or
    replication, and wall and CPU seconds of one reference sample."""
    units = workload.units_per_op
    ops, ref = timed["ops"], timed["reference"]
    return {
        "op_p50_s": statistics.median(o["wall"] / units for o in ops),
        "cpu_per_op_s": statistics.median(o["cpu"] / units for o in ops),
        "ref_p50_s": statistics.median(r["wall"] for r in ref),
        "ref_cpu_s": statistics.median(r["cpu"] for r in ref),
    }


def end_to_end(workload, timed: dict, setup: list) -> dict:
    """Set-up seconds at the nominal host speed (``reference.NOMINAL_S``),
    peak memory, and the medians over the timed pass of each operation's wall
    and CPU time per request or replication, divided by those of the
    reference sample taken just before it."""
    units = workload.units_per_op
    pairs = list(zip(timed["ops"], timed["reference"], strict=True))
    return {
        "setup_s": _metric(reference.NOMINAL_S * statistics.median(
            t["wall"] / t["ref"] for t in setup), "s"),
        "op_p50_rel": _metric(
            statistics.median(o["wall"] / units / r["wall"] for o, r in pairs), "ratio"),
        "cpu_per_op_rel": _metric(
            statistics.median(o["cpu"] / units / r["cpu"] for o, r in pairs), "ratio"),
        "peak_rss_mb": _metric(
            (timed["maxrss_kb"] + timed["children_maxrss_kb"]) / 1024.0, "MB"),
    }


def per_layer(workload, timed: dict, plain: dict, traced: dict) -> dict:
    """Per-operation layer numbers of the traced pass, plus efficiency and overhead."""
    layers = traced["layers"]
    units = workload.units_per_op * len(traced["ops"])
    metrics = {}
    for name in LAYER_NAMES:
        agg = layers.get(name, {})
        metrics[f"{name}.calls"] = _metric(agg.get("calls", 0) / units, "count/op")
        metrics[f"{name}.total_s"] = _metric(agg.get("total_s", 0.0) / units, "s/op")
        metrics[f"{name}.self_s"] = _metric(agg.get("self_s", 0.0) / units, "s/op")
    for name, count in _WORK_COUNTS:
        metrics[f"{name}.{count}"] = _metric(
            layers.get(name, {}).get(count, 0) / units, "count/op")
    ingest = layers.get("cli.ingest", {})
    metrics["cli.ingest.rows_per_s"] = _metric(
        ingest["rows"] / ingest["total_s"] if ingest.get("total_s") else 0.0, "1/s")
    for name in ("detect.null_limit", "simlab.critical_value", "dating.xi"):
        agg = layers.get(name, {})
        metrics[f"{name}.ns_per_normal"] = _metric(
            1e9 * agg["total_s"] / agg["normals"] if agg.get("normals") else 0.0, "ns")
    xi = layers.get("dating.xi", {})
    metrics["dating.xi.edge_share"] = _metric(
        xi["edge_draws"] / xi["draws"] if xi.get("draws") else 0.0, "ratio")
    metrics[f"{ROOT}.self_s"] = _metric(layers[ROOT]["self_s"] / units, "s/op")
    wall = sum(o["wall"] for o in timed["ops"])
    metrics["simlab.parallel_efficiency"] = _metric(
        sum(o["children_cpu"] for o in timed["ops"]) / (WORKERS * wall), "ratio")
    metrics["trace.overhead_s"] = _metric(
        sum(o["wall"] for o in traced["ops"]) - sum(o["wall"] for o in plain["ops"]), "s")
    return metrics


def _commit() -> str | None:
    head = CHECKOUT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text(encoding="utf-8").strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = CHECKOUT / ".git" / ref[5:]
    return ref_file.read_text(encoding="utf-8").strip() if ref_file.is_file() else None


def _src_digest() -> str:
    sha = hashlib.sha256()
    for path in sorted((CHECKOUT / "src").rglob("*.py")):
        sha.update(path.relative_to(CHECKOUT).as_posix().encode())
        sha.update(path.read_bytes())
    return sha.hexdigest()


def _stored_checksum(workload: str, seed: int) -> str | None:
    if not BASELINE.is_file():
        return None
    data = json.loads(BASELINE.read_text(encoding="utf-8"))
    return data.get("checksums", {}).get(workload, {}).get(str(seed))


def benchmark(workload, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """Run one benchmark; return (result line, details)."""
    deadline = time.monotonic() + DEADLINE_S
    run_dir = WORK_DIR / f"{workload.name}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(run_dir, ignore_errors=True)
    input_dir = run_dir / "inputs"
    try:
        inputs = ([p.to_dict() for p in build_cli_inputs(input_dir, seed, CLI_FILES)]
                  if workload.is_cli else [])
        setup = [] if trace else measure_setup(deadline, SETUP_RUNS // 2)
        common = {"workload": workload, "seed": seed, "inputs": inputs,
                  "run_dir": run_dir, "deadline": deadline}
        timed = run_pass("timed", **common, seconds=seconds,
                         min_ops=workload.distinct + 1, workers=WORKERS, trace=False,
                         with_reference=True)
        passes = [timed]
        if not trace:
            setup += measure_setup(deadline, SETUP_RUNS - len(setup))
        else:
            fixed = {"seconds": 0.0, "min_ops": workload.distinct, "workers": 1}
            plain = run_pass("plain", **common, **fixed, trace=False)
            traced = run_pass("traced", **common, **fixed, trace=True)
            passes += [plain, traced]
    finally:
        shutil.rmtree(input_dir, ignore_errors=True)

    problems = [p for run in passes for p in run["problems"]]
    problems += [p for run in passes for op in run["ops"] for p in op["problems"]]
    digests = [op["digest"] for op in timed["ops"]]
    problems += check_repeats(digests, workload.distinct)
    for run in passes[1:]:
        if [op["digest"] for op in run["ops"]] != digests[:len(run["ops"])]:
            problems.append("single-process pass outputs differ from the timed pass")
    checksum = run_checksum(digests, workload.distinct)
    stored = _stored_checksum(workload.name, seed)
    attempted = sum(op["attempted"] for run in passes for op in run["ops"])
    failed = sum(op["failed"] for run in passes for op in run["ops"])
    metrics = (per_layer(workload, timed, plain, traced) if trace
               else end_to_end(workload, timed, setup))
    details = {
        "workload": workload.name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "samples": {"ops": len(timed["ops"]), "units_per_op": workload.units_per_op,
                    "reference_samples": len(timed["reference"]), "setup_runs": len(setup)},
        "raw_seconds": op_seconds(workload, timed),
        "op_wall_s": [op["wall"] for op in timed["ops"]],
        "ref_wall_s": [r["wall"] for r in timed["reference"]],
        "setup_s": [t["wall"] for t in setup],
        "setup_ref_s": [t["ref"] for t in setup],
        "checksum": checksum,
        "reference_match": None if stored is None else stored == checksum,
        "env": {**timed["env"], "commit": _commit(), "src_sha256": _src_digest()},
        "problems": problems,
    }
    result = {"correct": not problems and failed == 0, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    (run_dir / "details.json").write_text(json.dumps(details, indent=1), encoding="utf-8")
    return result, details


def _terminate(signum, frame):
    raise BenchError(f"stopped by signal {signum}")


def main(argv=None) -> int:
    # turns SIGTERM into an exception, so the runner's process group is killed
    signal.signal(signal.SIGTERM, _terminate)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not (CHECKOUT / "src" / "funcbreak" / "__init__.py").is_file():
        print(f"error: no funcbreak package under {CHECKOUT / 'src'}", file=sys.stderr)
        return 2
    try:
        result, details = benchmark(WORKLOADS[args.workload], args.seed, args.seconds,
                                    bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"details": details}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
