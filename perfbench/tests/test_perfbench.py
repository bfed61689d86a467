"""Tests of the benchmark harness on a tiny workload (d=1, n=8).

    python3 -m pytest perfbench/tests
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import make_reference  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402

TINY_CONFIG = {
    "model": {
        "name": "example1",
        "params": {"delta": 1.0, "eps": 0.05, "kappa": 0.05, "width": 0.2, "radius": 1.0, "potential": 0.3},
    },
    "grid": {"d": 1, "n": 8},
    "time": {"T": 0.1, "dt": 0.05},
    "mode": "discounted",
    "strategy": "gamma",
    "rho": 1.0,
    "tolerances": {"outer": 1e-9, "inner": 1e-9, "hjb": 1e-12},
    "m0": {"kind": "twobump", "centers": [0.25, 0.75], "concentration": 6.0},
}


@pytest.fixture(scope="module")
def tiny() -> run.Workload:
    reference, problems = make_reference.make_reference(run.Workload("tiny_1d", TINY_CONFIG, {}))
    assert problems == []
    return run.Workload("tiny_1d", TINY_CONFIG, reference)


@pytest.fixture(scope="module")
def traced_sample(tiny):
    return run.measure(tiny, seed=3, seconds=0, trace=True)


def _declared(kind: str) -> dict[str, str]:
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def test_every_end_to_end_metric_is_emitted_with_its_unit(tiny):
    result = run.report(tiny, 3, False, run.measure(tiny, seed=3, seconds=0, trace=False))
    assert result["correct"] and result["attempted"] == run.MIN_RUNS and result["failed"] == 0
    emitted = {name: m["unit"] for name, m in result["metrics"].items()}
    assert emitted == _declared("end_to_end")
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_every_per_layer_metric_is_emitted_with_its_unit(tiny, traced_sample):
    result = run.report(tiny, 3, True, traced_sample)
    assert result["correct"] and result["attempted"] == run.MIN_RUNS and result["failed"] == 0
    emitted = {name: m["unit"] for name, m in result["metrics"].items()}
    assert emitted == _declared("per_layer") == dict(tracing.PER_LAYER)
    assert result["metrics"]["hjb.solve_discounted.calls"]["value"] > 0
    assert result["metrics"]["coupling.joint_fp.iterations"]["value"] > 0


def test_self_times_are_non_negative_and_fit_in_the_run(traced_sample):
    (traced,) = [r for r in traced_sample["runs"] if r["mode"] == "trace"]
    own = tracing.self_times(traced["spans"])
    assert set(own) >= {tracing.ROOT_SPAN, "coupling.solve_system", "measure.w1_joint.same"}
    assert min(own.values()) >= 0.0
    assert sum(own.values()) <= traced["run_s"]


def test_corrupted_reference_fails_the_run(tiny):
    m = [[v * 1.001 for v in row] for row in tiny.reference["m"]]
    corrupted = run.Workload(tiny.name, tiny.config, dict(tiny.reference, m=m))
    result = run.report(corrupted, 3, False, run.measure(corrupted, seed=3, seconds=0, trace=False))
    assert not result["correct"]
    assert result["failed"] == result["attempted"] == run.MIN_RUNS


def test_exits_without_result_when_the_sources_are_missing(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "ergodic_1d", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
