"""A fixed reference kernel, timed alongside the workload's operations.

The benchmark runs on a few cores of a shared host whose speed drifts by
tens of percent over minutes, so run-to-run differences in raw seconds are
mostly the host's. Before each timed operation the runner times one
reference sample: fixed work of the same kind as funcbreak's (Gaussian
draws, partial sums, a small Gram matrix and its eigenvalues, a Python-level
loop), laid out like the operation, in this process for the CLI workloads and
in a fresh pool of the same number of worker processes for the simulation
workloads. Each operation's end-to-end timings are divided by those of the
reference sample taken just before it, which cancels most of the drift;
each set-up launch is paired with an in-process sample the same way. The code
here never changes with funcbreak, so a change to the program moves the
relative timings exactly as it moves the raw ones.
"""

import resource
import time
from concurrent.futures import ProcessPoolExecutor

import numpy as np

# chunks of one sample, as simlab splits replications into chunks per worker
CHUNKS = 8
# wall seconds of an in-process sample at the nominal host speed: the typical
# value on the 2-vCPU host the benchmark was defined on; set-up times are
# reported as (launch seconds / in-process sample seconds) * NOMINAL_S
NOMINAL_S = 0.12
_ROUNDS = 24
_SHAPE = (50, 400)


def kernel(seed: int) -> float:
    """One chunk of fixed work, about 20 ms on one core."""
    rng = np.random.default_rng(seed)
    acc = 0.0
    for _ in range(_ROUNDS):
        paths = np.cumsum(rng.standard_normal(_SHAPE), axis=1)
        acc += float(np.linalg.eigvalsh(paths @ paths.T / _SHAPE[1])[-1])
        acc += sum(abs(x) for x in paths[:, -1].tolist()) / _SHAPE[0]
    return acc


def _cpu() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def sample(workers: int) -> dict:
    """Time one sample: ``CHUNKS`` kernel chunks, in-process or over a new pool."""
    cpu0, t0 = _cpu(), time.perf_counter()
    if workers == 1:
        value = sum(kernel(seed) for seed in range(CHUNKS))
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            value = sum(pool.map(kernel, range(CHUNKS)))
    wall = time.perf_counter() - t0
    return {"wall": wall, "cpu": _cpu() - cpu0, "value": value}
