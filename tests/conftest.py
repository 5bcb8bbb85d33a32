import sys
from pathlib import Path

import pytest


@pytest.fixture(scope="session")
def daily_csv(tmp_path_factory):
    """The benchmark's first daily CSV of seed 1: 150 years, one of them dropped."""
    perfbench = str(Path(__file__).resolve().parents[1] / "perfbench")
    sys.path.insert(0, perfbench)
    try:
        from inputs import build_csv
    finally:
        sys.path.remove(perfbench)
    path = tmp_path_factory.mktemp("daily") / "daily.csv"
    build_csv(path, 1, 0)
    return path
