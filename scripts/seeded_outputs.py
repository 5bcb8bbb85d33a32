"""Seeded outputs of the CLI, to compare two checkouts byte for byte.

Usage, from the root of a checkout:

    python scripts/seeded_outputs.py run SRC OUT
    python scripts/seeded_outputs.py compare BASE HEAD

``run`` writes the outputs of the ``funcbreak`` package under SRC (a
checkout's ``src`` directory) into OUT: the ``detect``, ``date`` and
``date --fpca`` reports of three daily CSVs from the benchmark's
``build_csv``, and ``simulate`` size, power, dating and coverage CSVs at
``--workers 1`` and ``2``. The CSVs are written to ``.seeded/inputs``
unless it already holds them, so two runs read the same files. Each simulation cell has 1100 replications, so
every job holds more than one full block of 128 at either worker count.
A command that fails leaves its exit code and standard error in
``<name>.exit`` in place of its output.

``compare`` prints a Markdown table with one row per output: byte-equal,
differs, or missing on one side. It always exits 0: a change may alter
seeded outputs when its notes say why.
"""

import argparse
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
CSV_SEED, CSV_FILES = 1, 3
INPUTS = Path(".seeded/inputs")
SIM_REPS = 1100
# (name, simulate arguments): every detector of each kind, FAR(1) and iid errors
SIMULATIONS = (
    ("size", "size --setting 1 2 3 --dependence iid far1 --n 50 --reps 199"),
    ("power", "power --setting 1 3 --dependence iid far1 --n 50 --snr 0.02 0.05 --reps 199"),
    ("dating", "dating --setting 2 3 --dependence iid far1 --n 50 --snr 0.5"),
    ("coverage", "coverage --setting 2 --dependence iid far1 --n 50 --snr 1 "
                 "--theta 0.25 0.5"),
)


def build_inputs(directory: Path) -> list:
    """The benchmark's daily CSVs of seed ``CSV_SEED``, written unless present."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        from inputs import build_csv
    finally:
        sys.path.remove(str(ROOT / "perfbench"))
    directory.mkdir(parents=True, exist_ok=True)
    paths = [directory / f"daily_{CSV_SEED}_{i}.csv" for i in range(CSV_FILES)]
    for i, path in enumerate(paths):
        if not path.exists():
            build_csv(path, CSV_SEED, i)
    return paths


def commands(inputs: list) -> list:
    """(output name, CLI arguments before ``--out``) of every seeded output."""
    out = []
    for i, path in enumerate(inputs):
        for name, extra in (("detect", ["detect"]), ("date", ["date"]),
                            ("date-fpca", ["date", "--fpca"])):
            out.append((f"{name}-{i}.json", [*extra, str(path), "--seed", "7"]))
    for name, argv in SIMULATIONS:
        for workers in (1, 2):
            out.append((f"simulate-{name}-w{workers}.csv",
                        ["simulate", *argv.split(), "--sim-reps", str(SIM_REPS),
                         "--seed", "1", "--workers", str(workers)]))
    return out


def run(src: Path, out: Path) -> None:
    out.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, PYTHONPATH=str(src.resolve()))
    for name, argv in commands(build_inputs(INPUTS)):
        target = out / name
        proc = subprocess.run([sys.executable, "-m", "funcbreak.cli", *argv,
                               "--out", str(target)], env=env, capture_output=True,
                              text=True)
        if proc.returncode != 0:
            target.unlink(missing_ok=True)
            (out / f"{name}.exit").write_text(f"{proc.returncode}\n{proc.stderr}")
        print(f"{name}: exit {proc.returncode}", file=sys.stderr)


def compare(base: Path, head: Path) -> str:
    names = sorted({p.name for p in base.iterdir()} | {p.name for p in head.iterdir()})
    lines = ["| output | base vs head |", "| --- | --- |"]
    for name in names:
        a, b = base / name, head / name
        if not a.exists() or not b.exists():
            verdict = f"missing in {'base' if not a.exists() else 'head'}"
        else:
            verdict = "byte-equal" if a.read_bytes() == b.read_bytes() else "**differs**"
        lines.append(f"| `{name}` | {verdict} |")
    return "\n".join(["### Seeded outputs", "", *lines, ""])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="write the seeded outputs of one checkout")
    p_run.add_argument("src", type=Path)
    p_run.add_argument("out", type=Path)
    p_compare = sub.add_parser("compare", help="Markdown table of two runs")
    p_compare.add_argument("base", type=Path)
    p_compare.add_argument("head", type=Path)
    args = parser.parse_args()
    if args.command == "run":
        run(args.src, args.out)
    else:
        print(compare(args.base, args.head))
    return 0


if __name__ == "__main__":
    sys.exit(main())
