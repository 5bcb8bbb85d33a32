"""One pass of a workload's operations, in a fresh interpreter.

Usage: python3 perfbench/runner.py SPEC.json RESULT.json

The spec names the checkout root, the workload, the seed, the generated
inputs, how long to run and with how many workers, and whether to trace.
funcbreak is imported from ``<root>/src`` and nowhere else. Operations run
in a closed loop until both ``min_ops`` operations are done and ``seconds``
have passed. For each operation the result records wall time, CPU time of
this process and its reaped children, the output digest and the problems
the correctness checks found. With ``reference`` set, a sample of the
reference kernel (``reference.py``) is timed before each operation, laid out
like the operation: in this process for the CLI, over a pool of ``workers``
processes for the simulations.
"""

import io
import json
import os
import resource
import sys
import time
import traceback
import warnings
from pathlib import Path

import reference
from checks import check_cli_report, check_sim_rows, digest, sim_failures
from workloads import WORKLOADS

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "FUNCBREAK_THREADS")


def _cpu() -> tuple[float, float]:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime, kids.ru_utime + kids.ru_stime


def cli_seed(seed: int, index: int) -> int:
    """The ``--seed`` passed with requests on input file ``index``."""
    return 1000 * seed + index


def _import_funcbreak(root: Path) -> None:
    src = (root / "src").resolve()
    sys.path.insert(0, str(src))
    import funcbreak
    import funcbreak.cli  # noqa: F401 - the package does not import its CLI

    if not Path(funcbreak.__file__).resolve().is_relative_to(src):
        raise ImportError(f"funcbreak was imported from {funcbreak.__file__}, not {src}")


class CliOps:
    """Requests ``<command> <csv> --seed S --out R`` with all other settings default."""

    def __init__(self, workload, spec, workdir: Path):
        from funcbreak import cli

        self.main = cli.main
        self.command = workload.command
        self.inputs = spec["inputs"]
        self.seed = spec["seed"]
        self.workdir = workdir
        self.attempts = 1

    def _argv(self, index: int, out: Path, extra=()) -> list:
        planted = self.inputs[index]
        return [self.command, planted["path"], "--seed", str(cli_seed(self.seed, index)),
                "--out", str(out), *extra]

    def warm_up(self) -> list:
        extra = ["--reps", "100"] + (["--xi-reps", "100"] if self.command == "date" else [])
        code = self.main(self._argv(0, self.workdir / "warm_up.json", extra))
        return [] if code == 0 else [f"warm-up request exited with {code}"]

    def call(self, i: int):
        index = i % len(self.inputs)
        out = self.workdir / f"report_{index}.json"
        return self.main(self._argv(index, out)), out

    def outcome(self, i: int, raw) -> dict:
        code, out = raw
        if code != 0:
            return {"attempted": 1, "failed": 1, "digest": None,
                    "problems": [f"request {i} exited with {code}"]}
        report = json.loads(out.read_text(encoding="utf-8"))
        planted = self.inputs[i % len(self.inputs)]
        return {"attempted": 1, "failed": 0, "digest": digest(report),
                "problems": check_cli_report(self.command, report, planted)}


class SimOps:
    """``run_experiment`` calls of one fixed experiment, seeded by the workload seed."""

    def __init__(self, workload, spec, workdir: Path):
        from funcbreak import BreakSpec, DgpConfig, run_experiment

        exp = workload.experiment
        self.exp = exp
        self.run = run_experiment
        self.args = (exp["kind"], [DgpConfig(**d) for d in exp["dgps"]],
                     [BreakSpec(**s) for s in exp["specs"]])
        self.kwargs = {k: v for k, v in exp.items()
                       if k not in ("kind", "dgps", "specs")}
        self.seed = spec["seed"]
        self.workers = spec["workers"]
        self.attempts = workload.units_per_op * len(exp["detectors"])

    def warm_up(self) -> list:
        kwargs = {**self.kwargs, "detectors": ["FF"], "reps": 1}
        if "xi_reps" in kwargs:
            kwargs["xi_reps"] = 100
        self.run(*self.args, **kwargs, seed=self.seed, workers=1, null_reps=100)
        return []

    def call(self, i: int):
        return self.run(*self.args, **self.kwargs, seed=self.seed, workers=self.workers)

    def outcome(self, i: int, result) -> dict:
        buf = io.StringIO()
        result.to_csv(buf)
        failed = sim_failures(result.rows)
        problems = check_sim_rows(self.exp, result.rows)
        if failed:
            problems.append(f"{failed} detector evaluations failed")
        return {"attempted": self.attempts, "failed": failed,
                "digest": digest(buf.getvalue()), "problems": problems}


def _environment(workers: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {k: os.environ.get(k) for k in THREAD_VARS},
        "workers": workers,
    }


def run(spec: dict) -> dict:
    root = Path(spec["root"])
    workdir = Path(spec["workdir"])
    workdir.mkdir(parents=True, exist_ok=True)
    _import_funcbreak(root)
    workload = WORKLOADS[spec["workload"]]
    ops = (CliOps if workload.is_cli else SimOps)(workload, spec, workdir)
    problems = ops.warm_up()
    tracer = None
    if spec["trace"]:
        from tracing import Tracer

        tracer = Tracer({p["path"]: p["rows"] for p in spec["inputs"]})
        tracer.install()

    ref_workers = 1 if workload.is_cli else spec["workers"]
    if spec["reference"]:
        reference.sample(ref_workers)  # warm-up
    records, ref_samples = [], []
    start = time.perf_counter()
    while len(records) < spec["min_ops"] or time.perf_counter() - start < spec["seconds"]:
        i = len(records)
        if spec["reference"]:
            ref_samples.append(reference.sample(ref_workers))
        cpu0, kids0 = _cpu()
        t0 = time.perf_counter()
        try:
            raw = tracer.run_op(i, ops.call, i) if tracer else ops.call(i)
        except Exception:  # noqa: BLE001 - a failed operation is counted, not fatal
            wall = time.perf_counter() - t0
            record = {"attempted": ops.attempts, "failed": ops.attempts, "digest": None,
                      "problems": [f"operation {i} raised:\n{traceback.format_exc()}"]}
        else:
            wall = time.perf_counter() - t0
            record = ops.outcome(i, raw)
        cpu1, kids1 = _cpu()
        record.update(wall=wall, cpu=(cpu1 - cpu0) + (kids1 - kids0),
                      children_cpu=kids1 - kids0)
        records.append(record)

    if len({r["value"] for r in ref_samples}) > 1:
        problems.append("reference kernel samples differ in value")
    result = {
        "ops": records,
        "reference": [{"wall": r["wall"], "cpu": r["cpu"]} for r in ref_samples],
        "problems": problems,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "children_maxrss_kb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
        "env": _environment(spec["workers"]),
    }
    if tracer:
        from tracing import layer_totals

        tracer.dump(workdir / "spans.json")
        result["layers"] = layer_totals(tracer.spans)
    return result


def main(argv) -> int:
    spec_path, result_path = argv
    spec = json.loads(Path(spec_path).read_text(encoding="utf-8"))
    # ingest warns once per process about the dropped year; the report lists it
    warnings.simplefilter("ignore", UserWarning)
    result = run(spec)
    Path(result_path).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
