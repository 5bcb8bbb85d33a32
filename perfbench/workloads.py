"""The benchmark's workloads, as plain data.

Each workload is a closed loop from one client: the next operation starts
when the previous one returns. An operation is one CLI request (``cli.main``
in-process) or one ``run_experiment`` call. The unit that timings are divided
by is a request for the CLI workloads and a replication (one replication of
one cell) for the simulation workloads.

This module imports nothing from ``funcbreak``, so the orchestrator and the
tests can read it without the package under test.
"""

from dataclasses import dataclass, field

# the simulation pool is sized for a 2-core machine; BLAS is pinned to 1 thread
WORKERS = 2
CLI_FILES = 3


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    command: str | None = None  # CLI subcommand, for CLI workloads
    experiment: dict = field(default_factory=dict)  # run_experiment arguments

    @property
    def is_cli(self) -> bool:
        return self.command is not None

    @property
    def distinct(self) -> int:
        """Distinct operations; operation i repeats operation i - distinct."""
        return CLI_FILES if self.is_cli else 1

    @property
    def units_per_op(self) -> int:
        if self.is_cli:
            return 1
        cells = len(self.experiment["dgps"]) * max(1, len(self.experiment["specs"]))
        return cells * self.experiment["reps"]


def _experiment(kind, dgps, specs, detectors, reps, **extra) -> dict:
    return {"kind": kind, "dgps": dgps, "specs": specs,
            "detectors": detectors, "reps": reps, **extra}


WORKLOADS = {w.name: w for w in (
    Workload(
        "cli-date",
        "analyst path: ingest and Fourier fit of 150-year daily CSVs, FF test, "
        "a second kernel estimate and the 10k-rep Xi simulation for the CI",
        command="date",
    ),
    Workload(
        "simlab-size",
        "null-limit simulation is ~99% and Xi is never called: the bypass "
        "for Xi changes; critical-value caches are rebuilt per pool worker",
        experiment=_experiment(
            "size", [{"setting": 1}, {"setting": 3}], [],
            ["FF", "Aligned"], 8),
    ),
    Workload(
        "simlab-coverage",
        "2000-rep Xi simulation on many calls is ~99% and the null limit "
        "never runs: the bypass for null-limit changes",
        experiment=_experiment(
            "coverage", [{"setting": 2, "dependence": "far1"}],
            [{"m": 1, "snr": 1.0, "theta": 0.25}], ["FF"], 8, xi_reps=2000),
    ),
    Workload(
        "simlab-dating",
        "no Monte Carlo: error generation, fPCA, eigen and CUSUM at about "
        "1 ms per replication, plus the pool's per-task overhead",
        experiment=_experiment(
            "dating", [{"setting": 3, "dependence": "far1"}],
            [{"m": 1, "snr": 0.5, "theta": 0.5}], ["FF", "fPCA@0.90"], 1000),
    ),
)}
