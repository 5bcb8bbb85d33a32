"""Seeded inputs for the benchmark workloads.

The CLI workloads read synthetic 150-year daily ``date,value`` CSVs. Each file
has leap years, about 1% blank values, one year with enough absent days to be
dropped by ``ingest``, and a planted mean break. Everything is derived from
the workload seed, so the same seed writes byte-identical files.
"""

import datetime
import math
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

FIRST_YEAR = 1870
N_YEARS = 150
BLANK_SHARE = 0.01
# 20% of the days of one year are left out; ingest drops years above 10%
GAP_SHARE = 0.20
# break fractions: the first file breaks near the edge, the others inside
EDGE_THETA = 0.15
INNER_THETA = (0.30, 0.70)
# coefficient scales of the year-to-year variation, in the first basis functions
YEAR_SCALES = 1.0 / np.arange(1, 10)
DAILY_SD = 2.0
# size of the planted break (L2 norm of the added curve)
BREAK_NORM = 4.0


@dataclass(frozen=True)
class CsvInput:
    """One generated daily CSV and what was planted in it."""

    path: str
    rows: int
    break_year: int  # first year carrying the shifted mean
    dropped_year: int
    theta: float

    @property
    def last_pre_break_year(self) -> int:
        """The year k-hat should name: the dropped year is never next to the break."""
        return self.break_year - 1

    def to_dict(self) -> dict:
        return {**asdict(self), "last_pre_break_year": self.last_pre_break_year}


def _fourier_columns(t: np.ndarray, count: int) -> np.ndarray:
    """First ``count`` orthonormal Fourier functions (1, sin, cos, ...) at t."""
    out = np.empty((t.size, count))
    out[:, 0] = 1.0
    for col in range(1, count):
        arg = 2.0 * np.pi * ((col + 1) // 2) * t
        out[:, col] = math.sqrt(2.0) * (np.sin(arg) if col % 2 else np.cos(arg))
    return out


def _days_in_year(year: int) -> int:
    return (datetime.date(year + 1, 1, 1) - datetime.date(year, 1, 1)).days


def build_csv(path: Path, seed: int, index: int) -> CsvInput:
    """Write file ``index`` of the CLI workload for ``seed``; return its record."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, index]))
    theta = EDGE_THETA if index == 0 else float(rng.uniform(*INNER_THETA))
    break_idx = int(round(theta * N_YEARS))
    break_year = FIRST_YEAR + break_idx
    # the dropped year stays clear of the break so the expected k-hat is fixed
    candidates = [y for y in range(FIRST_YEAR + 5, FIRST_YEAR + N_YEARS - 5)
                  if abs(y - break_year) > 5]
    dropped_year = int(rng.choice(candidates))
    direction = np.zeros(YEAR_SCALES.size)
    direction[:3] = rng.standard_normal(3)
    delta = BREAK_NORM * direction / np.linalg.norm(direction)

    lines = ["date,value"]
    for year in range(FIRST_YEAR, FIRST_YEAR + N_YEARS):
        days = _days_in_year(year)
        t = (np.arange(days) + 0.5) / days
        basis = _fourier_columns(t, YEAR_SCALES.size)
        coeffs = YEAR_SCALES * rng.standard_normal(YEAR_SCALES.size)
        if year >= break_year:
            coeffs = coeffs + delta
        values = (10.0 - 8.0 * np.cos(2.0 * np.pi * t) + basis @ coeffs
                  + DAILY_SD * rng.standard_normal(days))
        keep = np.ones(days, dtype=bool)
        if year == dropped_year:
            keep[rng.choice(days, size=int(GAP_SHARE * days), replace=False)] = False
        blank = rng.random(days) < BLANK_SHARE
        start = datetime.date(year, 1, 1).toordinal()
        for k in np.flatnonzero(keep):
            day = datetime.date.fromordinal(start + int(k)).isoformat()
            lines.append(f"{day}," if blank[k] else f"{day},{values[k]:.3f}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return CsvInput(str(path), len(lines) - 1, break_year, dropped_year, theta)


def build_cli_inputs(directory: Path, seed: int, count: int) -> list:
    """Write ``count`` CSVs for ``seed`` into ``directory``; return their records."""
    directory.mkdir(parents=True, exist_ok=True)
    return [build_csv(directory / f"daily_{seed}_{i}.csv", seed, i)
            for i in range(count)]
