"""One benchmark run of ``qsmfg run`` in a fresh interpreter.

    python3 perfbench/worker.py CONFIG MODE RESULT

MODE is ``solve`` (untraced), ``trace`` (spans and counters at the layer
boundaries) or ``setup`` (stop at the first solver call).  The worker pins
itself to one core, puts the checkout's ``src`` first on the import path,
calls ``qsmfg.cli.run`` on CONFIG and writes its timings to RESULT as JSON.
The only wrapper in an untraced run is a timestamp probe on
``qsmfg.cli.solve_system``, which splits set-up from the solve without
changing what either does.

While it runs, the speed sampler of ``calibrate.py`` shares its core; for
each time it reports, the worker also reports the median sample taken in the
window that time covers.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


class _StopAtSolve(Exception):
    """Raised by the probe in ``setup`` mode when the solve would start."""


def main(argv: list[str]) -> int:
    config, mode, result_path = argv
    if mode not in ("solve", "trace", "setup"):
        raise SystemExit(f"unknown mode {mode!r}")
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    sys.path.insert(0, str(SRC))
    sys.path.insert(1, str(HERE))
    import calibrate
    import tracing

    sampler = calibrate.Sampler()
    try:
        result = _run(config, mode, tracing)
    finally:
        samples = sampler.stop()
    windows = result.pop("windows")
    result["sample_s"] = {key: calibrate.sample_seconds(samples, *w) for key, w in windows.items()}
    Path(result_path).write_text(json.dumps(result))
    return result["exit_code"]


def _run(config: str, mode: str, tracing) -> dict:
    """Run ``qsmfg run`` once: its timings, and per timing the window it covers."""
    started = time.perf_counter()
    import qsmfg.cli as cli

    if Path(cli.__file__).resolve().parent.parent != SRC:
        raise SystemExit(f"imported qsmfg from {cli.__file__}, not from {SRC}")

    tracer = None
    if mode == "trace":
        tracer = tracing.Tracer()
        tracing.install(tracer)

    marks: dict[str, float] = {}
    solve_system = cli.solve_system

    def probe(*args, **kwargs):
        marks["solve_start"] = time.perf_counter()
        if mode == "setup":
            raise _StopAtSolve
        try:
            return solve_system(*args, **kwargs)
        finally:
            marks["solve_end"] = time.perf_counter()

    cli.solve_system = probe
    run_start = time.perf_counter()
    try:
        if tracer is None:
            code = cli.run(config)
        else:
            code = tracer.call(tracing.ROOT_SPAN, cli.run, config)
    except _StopAtSolve:
        code = 0
    run_end = time.perf_counter()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    import numpy
    import scipy

    result = {
        "exit_code": code,
        "cpu": os.sched_getaffinity(0).pop(),
        "peak_rss_mb": peak_rss_mb,
        "versions": {
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
        },
    }
    if mode == "setup":
        windows = {"setup_s": (started, marks["solve_start"])}
    else:
        windows = {"run_s": (run_start, run_end), "solve_s": (marks["solve_start"], marks["solve_end"])}
    result["windows"] = windows
    for key, (start, end) in windows.items():
        result[key] = end - start
    if tracer is not None:
        result["spans"] = tracer.spans
        result["counts"] = dict(tracer.counts)
    return result


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
