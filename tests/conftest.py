import sys
from pathlib import Path

import pytest

import funcbreak.simlab as simlab


@pytest.fixture(autouse=True)
def no_kept_null_banks():
    """Each test starts with an empty cache of FF null banks in this process,
    so no serial run reads the draws, or a patched sampler's draws, of an
    earlier test. The kept pool's workers keep their own banks from test to
    test; no test patches a sampler and runs on the pool."""
    simlab._forget_banks()


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
