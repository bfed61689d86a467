"""qsmfg benchmark: time to a converged ``qsmfg run`` on pinned workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from anywhere inside a checkout; it uses the checkout's ``src``.  Each
workload is a config pinned under ``perfbench/workloads/NAME/`` with the
density trajectory its solve must reproduce.  Every run starts a fresh worker
process (``perfbench/worker.py``), so each one pays the import and starts
with no process-wide state from an earlier run.  The benchmark first makes
one untimed warm-up and SETUP_RUNS set-up-only runs, then solves back to
back until S seconds have passed and at least MIN_RUNS solves are done.
Every solve is checked by ``gate.check``.

Times are wall seconds scaled by the speed sampler of ``calibrate.py``,
which shares the worker's core: ``t * REFERENCE_SAMPLE_S / sample_s``, with
``sample_s`` the median sample taken while ``t`` ran.  The core speed of the
virtual machines this runs on changes by up to half within seconds, which
the scaling takes out; the unscaled seconds are kept in the record file.

With ``--trace 0`` it reports the medians of the end-to-end metrics.  With
``--trace 1`` it alternates untraced and traced solves and reports the
per-layer metrics of the traced ones in unscaled seconds, the difference of
their scaled ``run_s`` as ``trace.overhead_s``, and a table of self time per
span.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Per-run samples, the
environment and the spans of one traced run are written under
``.perfbench/`` in the checkout.

The config ``seed`` is set to ``--seed``; it drives the pair sampling of
``regularity_report``.  Each worker pins itself to one core.  Worker threads
default to one per BLAS pool (the variables in THREAD_VARS); values already
set in the environment are kept.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import calibrate  # noqa: E402
import gate  # noqa: E402
import tracing  # noqa: E402

WORKLOADS_DIR = HERE / "workloads"
STATE_DIR = ROOT / ".perfbench"
SETUP_RUNS = 3
# A 2D solve takes about 10 s and varies by a fifth from one process to the
# next, so a run needs a few of them however short it is.
MIN_RUNS = 3
RUN_DEADLINE_S = 170.0  # the whole benchmark run must end within 180 s
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
END_TO_END = (
    ("run_s", "s"),
    ("solve_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
)


class BenchError(RuntimeError):
    """The benchmark cannot produce a result."""


@dataclass(frozen=True)
class Workload:
    name: str
    config: dict
    reference: dict


def workload_names() -> list[str]:
    return sorted(p.name for p in WORKLOADS_DIR.iterdir() if (p / "config.json").is_file())


def load_workload(name: str) -> Workload:
    folder = WORKLOADS_DIR / name
    return Workload(
        name=name,
        config=json.loads((folder / "config.json").read_text()),
        reference=json.loads((folder / "reference.json").read_text()),
    )


def worker_env() -> dict[str, str]:
    env = dict(os.environ)
    for var in THREAD_VARS:
        env.setdefault(var, "1")
    env["TMPDIR"] = str(STATE_DIR / "tmp")
    return env


def run_worker(workload: Workload, seed: int, mode: str, deadline: float, keep_outputs=None) -> dict:
    """One fresh-process run; returns its timings and a list of problems.

    keep_outputs, when given, receives the run's output directory before it
    is deleted.
    """
    scratch = STATE_DIR / "tmp"
    scratch.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch) as tmp:
        tmp_path = Path(tmp)
        config = dict(workload.config, output_dir=str(tmp_path / "out"), seed=seed)
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(config))
        result_path = tmp_path / "result.json"
        cmd = [sys.executable, str(HERE / "worker.py"), str(config_path), mode, str(result_path)]
        try:
            proc = subprocess.run(
                cmd, cwd=ROOT, env=worker_env(), capture_output=True, text=True,
                timeout=max(1.0, deadline - time.monotonic()),
            )
        except subprocess.TimeoutExpired:
            return {"mode": mode, "problems": ["worker timed out"]}
        result = json.loads(result_path.read_text()) if result_path.exists() else {}
        result["mode"] = mode
        problems = []
        if proc.returncode != 0 or "sample_s" not in result:
            tail = proc.stderr.strip().splitlines()[-1:] or [""]
            problems.append(f"worker exited {proc.returncode}: {tail[0]}")
        elif mode != "setup":
            problems += gate.check(result["exit_code"], config, tmp_path / "out", workload.reference)
        if keep_outputs is not None:
            keep_outputs(tmp_path / "out")
        result["problems"] = problems
        return result


def measure(workload: Workload, seed: int, seconds: float, trace: bool) -> dict:
    """Warm up, time set-up alone, then solve until `seconds` have passed."""
    deadline = time.monotonic() + RUN_DEADLINE_S
    setups = [run_worker(workload, seed, "setup", deadline) for _ in range(1 + SETUP_RUNS)]
    broken = [p["problems"][0] for p in setups if p["problems"]]
    if broken:
        raise BenchError(f"set-up failed: {broken[0]}")
    modes = ("solve", "trace") if trace else ("solve",)
    runs: list[dict] = []
    start = time.monotonic()
    while len(runs) < MIN_RUNS or time.monotonic() - start < seconds:
        runs.append(run_worker(workload, seed, modes[len(runs) % len(modes)], deadline))
    return {"setups": setups[1:], "runs": runs}


def scaled(result: dict, key: str) -> float:
    """A worker's time in seconds at the reference speed."""
    return result[key] * calibrate.REFERENCE_SAMPLE_S / result["sample_s"][key]


def end_to_end_metrics(sample: dict) -> dict[str, list[float]]:
    """Samples per end-to-end metric from the untraced solves and set-up runs."""
    timed = [r for r in sample["runs"] if r["mode"] == "solve" and "run_s" in r]
    return {
        "run_s": [scaled(r, "run_s") for r in timed],
        "solve_s": [scaled(r, "solve_s") for r in timed],
        "setup_s": [scaled(p, "setup_s") for p in sample["setups"]],
        "peak_rss_mb": [r["peak_rss_mb"] for r in timed],
    }


def per_layer_metrics(sample: dict) -> dict[str, list[float]]:
    """Samples per per-layer metric from the traced runs."""
    traced = [r for r in sample["runs"] if r["mode"] == "trace" and "spans" in r]
    untraced = [scaled(r, "run_s") for r in sample["runs"] if r["mode"] == "solve" and "run_s" in r]
    summaries = [tracing.summarize(r["spans"], r["counts"]) for r in traced]
    values = {name: [s[name] for s in summaries] for name, _ in tracing.PER_LAYER if name != "trace.overhead_s"}
    values["trace.overhead_s"] = []
    if traced and untraced:
        traced_run = statistics.median(scaled(r, "run_s") for r in traced)
        values["trace.overhead_s"].append(traced_run - statistics.median(untraced))
    return values


def self_time_table(run: dict) -> list[str]:
    """Self time and share of run_s per span name and per layer, largest first."""
    own = tracing.self_times(run["spans"])
    calls = Counter(name for name, *_ in run["spans"])
    total = run["run_s"]
    lines = [f"  {'span':32s} {'calls':>7s} {'self_s':>9s} {'share':>7s}"]
    for name, value in sorted(own.items(), key=lambda kv: -kv[1]):
        lines.append(f"  {name:32s} {calls[name]:7d} {value:9.4f} {value / total:7.1%}")
    layers: Counter = Counter()
    for name, value in own.items():
        layers[name.split(".")[0]] += value
    lines.append(f"  {'layer':32s} {'':7s} {'self_s':>9s} {'share':>7s}")
    for layer, value in sorted(layers.items(), key=lambda kv: -kv[1]):
        lines.append(f"  {layer:32s} {'':7s} {value:9.4f} {value / total:7.1%}")
    return lines


def source_commit() -> str | None:
    """The checkout's git commit, read from .git without running git."""
    head_path = ROOT / ".git" / "HEAD"
    if not head_path.is_file():
        return None
    head = head_path.read_text().strip()
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    ref_path = ROOT / ".git" / ref
    if ref_path.is_file():
        return ref_path.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def environment(sample: dict) -> dict:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    env = worker_env()
    versions = next((r["versions"] for r in sample["setups"] if "versions" in r), {})
    return {
        "git_commit": source_commit(),
        "source_sha256": digest.hexdigest(),
        **versions,
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "worker_cpu": next((r["cpu"] for r in sample["setups"] if "cpu" in r), None),
        "threads": {var: env.get(var) for var in THREAD_VARS},
    }


def report(workload: Workload, seed: int, trace: bool, sample: dict) -> dict:
    """Print the human-readable report and return the result object."""
    runs = sample["runs"]
    failed = [r for r in runs if r["problems"]]
    print(f"workload {workload.name} seed {seed} trace {int(trace)}: "
          f"{len(runs)} runs, {len(failed)} failed, failed_share {len(failed) / len(runs):.3f}")
    for r in failed:
        print(f"  FAILED ({r['mode']}): {'; '.join(r['problems'])}")
    units = dict(tracing.PER_LAYER) if trace else dict(END_TO_END)
    samples = per_layer_metrics(sample) if trace else end_to_end_metrics(sample)
    metrics = {}
    for name, values in samples.items():
        if not values:
            continue
        value = statistics.median(values)
        metrics[name] = {"value": value, "unit": units[name]}
        print(f"  {name:36s} {value:14.6g} {units[name]:6s} median of {len(values)}"
              f" (min {min(values):.6g}, max {max(values):.6g})")
    traced = [r for r in runs if r["mode"] == "trace" and "spans" in r]
    if traced:
        print(f"self time per span, traced run of {traced[0]['run_s']:.3f} s:")
        print("\n".join(self_time_table(traced[0])))
    env = environment(sample)
    print("env " + json.dumps(env, sort_keys=True))
    STATE_DIR.mkdir(parents=True, exist_ok=True)
    stem = STATE_DIR / f"{workload.name}-seed{seed}-trace{int(trace)}"
    record = {
        "workload": workload.name, "seed": seed, "trace": trace, "env": env, "metrics": metrics,
        "runs": [{k: v for k, v in r.items() if k != "spans"} for r in runs],
        "setups": sample["setups"],
    }
    Path(f"{stem}.json").write_text(json.dumps(record, indent=1))
    if traced:
        Path(f"{stem}.spans.json").write_text(json.dumps(traced[0]["spans"]))
    return {
        "correct": not failed and len(metrics) == len(units),
        "attempted": len(runs),
        "failed": len(failed),
        "metrics": metrics,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "qsmfg" / "cli.py").is_file():
        print(f"error: no qsmfg sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.workload not in workload_names():
        print(f"error: unknown workload {args.workload!r}; choose from {workload_names()}", file=sys.stderr)
        return 2
    workload = load_workload(args.workload)
    try:
        sample = measure(workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    result = report(workload, args.seed, bool(args.trace), sample)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
