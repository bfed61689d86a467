"""Pinned outputs of four configs, so numerical drift across commits shows.

The reference numbers in ``golden_outputs.json`` were recorded from the CLI
outputs of ``configs/example1_weak.json`` (gamma strategy),
``configs/example2_memory.json`` (psi strategy, memory model), the 2D
benchmark workload ``perfbench/workloads/gamma_2d/config.json`` and
``configs/example1_asym.json`` (strong coupling from an asymmetric ``m0``,
so the mean control and with it the maximizer's measure term are nonzero):
the CSV trajectories, and ``summary.json`` without its wall-clock
``timing_seconds``.  A change that is meant to alter these solutions
rewrites the file with

    PYTHONPATH=src python tests/test_golden.py

which first prints the largest absolute change per config and key.
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

from qsmfg.cli import main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden_outputs.json"
CONFIGS = {
    "example1_weak": ROOT / "configs" / "example1_weak.json",
    "example2_memory": ROOT / "configs" / "example2_memory.json",
    "gamma_2d": ROOT / "perfbench" / "workloads" / "gamma_2d" / "config.json",
    "example1_asym": ROOT / "configs" / "example1_asym.json",
}
TOL = 1e-12


def _numbers(path: Path) -> list[list[float]]:
    """Rows of a CSV output after its header; ';'-joined cells are split."""
    rows = []
    for line in path.read_text().strip().split("\n")[1:]:
        rows.append([float(v) for cell in line.split(",") for v in cell.split(";") if v])
    return rows


def _outputs(name: str, tmp_path: Path) -> dict:
    payload = json.loads(CONFIGS[name].read_text())
    out = tmp_path / name
    payload["output_dir"] = str(out)
    config = tmp_path / f"{name}.json"
    config.write_text(json.dumps(payload))
    assert main(["run", str(config)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    del summary["timing_seconds"]
    return {
        "m": [row[2] for row in _numbers(out / "trajectory_m.csv")],
        "u": [row[2] for row in _numbers(out / "trajectory_u.csv")],
        "mu": _numbers(out / "mu.csv"),
        "convergence": _numbers(out / "convergence.csv"),
        "summary": summary,
    }


def _leaves(value, path: str = "") -> dict:
    """The leaves of a nested summary, keyed by their dotted path."""
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, list):
        items = enumerate(value)
    else:
        return {path: value}
    return {k: v for key, item in items for k, v in _leaves(item, f"{path}.{key}").items()}


@pytest.mark.parametrize("name", CONFIGS)
def test_shipped_config_matches_golden(name, tmp_path):
    expected = json.loads(GOLDEN.read_text())[name]
    got = _outputs(name, tmp_path)
    assert [row[0] for row in got["convergence"]] == [row[0] for row in expected["convergence"]]
    for key in ("m", "u", "mu", "convergence"):
        np.testing.assert_allclose(got[key], expected[key], rtol=0, atol=TOL, err_msg=key)
    got_leaves, expected_leaves = _leaves(got["summary"]), _leaves(expected["summary"])
    assert got_leaves.keys() == expected_leaves.keys()
    for key, want in expected_leaves.items():
        if isinstance(want, float):
            assert abs(got_leaves[key] - want) <= TOL, key
        else:
            assert got_leaves[key] == want, key


def _largest_changes(old: dict, new: dict) -> list[str]:
    """One line per config and key: the largest absolute change, or the shape change;
    for the summary, the leaves that changed."""
    lines = []
    for name in CONFIGS:
        for key in ("m", "u", "mu", "convergence"):
            a = np.asarray(old.get(name, {}).get(key, []), dtype=float)
            b = np.asarray(new[name][key], dtype=float)
            change = f"{np.abs(a - b).max():.3g}" if a.shape == b.shape else f"shape {a.shape} -> {b.shape}"
            lines.append(f"{name} {key}: {change}")
        old_leaves, new_leaves = _leaves(old.get(name, {}).get("summary", {})), _leaves(new[name]["summary"])
        changed = sorted(k for k in old_leaves.keys() | new_leaves.keys() if old_leaves.get(k) != new_leaves.get(k))
        lines.append(f"{name} summary: changed {', '.join(changed) or 'nothing'}")
    return lines


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        golden = {name: _outputs(name, Path(tmp)) for name in CONFIGS}
    previous = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
    print("\n".join(_largest_changes(previous, golden)))
    GOLDEN.write_text(json.dumps(golden) + "\n")
    print(f"wrote {GOLDEN}", file=sys.stderr)
