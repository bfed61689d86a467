"""Speed sampler that puts timings from a machine of varying speed on one scale.

On a shared virtual machine the speed of a core changes by up to half within
seconds, far more than the changes the benchmark has to detect.  A worker
starts this module as a sampler process on the core it is pinned to.  Every
INTERVAL_S seconds the sampler wakes, solves one fixed small transport LP
(HiGHS through scipy, the solver that takes most of a qsmfg run) and records
the CPU seconds it took, so each sample reads the speed the core had at that
moment while the worker ran.  The benchmark scales a wall time by
REFERENCE_SAMPLE_S / the median sample taken during it.

Speed probes timed only before and after a run did not follow the 2D
workload, whose core speed changes during its 10 s solve; samples taken
during the run did.  The sampler costs the worker 2-3% of its core, the
same for every version of qsmfg, and uses no qsmfg code, so a change to qsmfg
moves the scaled times and not the scale.

    python3 perfbench/calibrate.py

prints ``ready`` once warm, samples until its standard input closes, then
prints the samples as JSON pairs ``[perf_counter time, CPU seconds]``.
"""

from __future__ import annotations

import json
import select
import statistics
import subprocess
import sys
import time
from pathlib import Path

# numpy and scipy are imported by the sampler process only: a worker imports
# this module before it times its own import of qsmfg, which loads them.

PROBE_ATOMS = 12
INTERVAL_S = 0.2
WARMUP_SOLVES = 5
# Typical sample on the machine the bounds were set on (2-core x86-64
# virtual machine, Python 3.11, scipy 1.17), so scaled times read as seconds
# on that machine.
REFERENCE_SAMPLE_S = 0.004


def _problem():
    import numpy as np
    import scipy.sparse as sparse

    rng = np.random.default_rng(0)
    n = PROBE_ATOMS
    cost = rng.random((n, n)).ravel()
    w1 = rng.random(n)
    w2 = rng.random(n)
    ii = np.repeat(np.arange(n), n)
    jj = np.tile(np.arange(n), n)
    var = np.arange(n * n)
    a_eq = sparse.coo_matrix(
        (np.ones(2 * n * n), (np.concatenate([ii, n + jj]), np.concatenate([var, var]))),
        shape=(2 * n, n * n),
    ).tocsr()[:-1]
    b_eq = np.concatenate([w1 / w1.sum(), w2 / w2.sum()])[:-1]
    return cost, a_eq, b_eq


def _solve(problem, linprog) -> None:
    cost, a_eq, b_eq = problem
    res = linprog(cost, A_eq=a_eq, b_eq=b_eq, bounds=(0, None), method="highs")
    if not res.success:
        raise RuntimeError(f"speed probe LP failed: {res.message}")


def _sample_until_stdin_closes() -> None:
    from scipy.optimize import linprog

    problem = _problem()
    for _ in range(WARMUP_SOLVES):
        _solve(problem, linprog)
    print("ready", flush=True)
    samples = []
    while not select.select([sys.stdin], [], [], INTERVAL_S)[0]:
        stamp = time.perf_counter()
        cpu = time.thread_time()
        _solve(problem, linprog)
        samples.append((stamp, time.thread_time() - cpu))
    print(json.dumps(samples), flush=True)


class Sampler:
    """A running sampler process; `stop` ends it and returns its samples."""

    def __init__(self) -> None:
        self._proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve())],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        if self._proc.stdout.readline().strip() != "ready":
            self._proc.kill()
            self._proc.wait()
            raise RuntimeError("speed sampler failed to start")

    def stop(self) -> list[tuple[float, float]]:
        out, _ = self._proc.communicate(timeout=60)
        return [tuple(s) for s in json.loads(out)]


def sample_seconds(samples, start: float, end: float) -> float:
    """Median sample taken in [start, end], or over all samples if none was."""
    inside = [cpu for stamp, cpu in samples if start <= stamp <= end]
    return statistics.median(inside or [cpu for _, cpu in samples])


if __name__ == "__main__":
    _sample_until_stdin_closes()
