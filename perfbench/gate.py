"""Correctness gate for one benchmark run, read from the files ``qsmfg run`` wrote.

A run passes when it exited 0, reports ``converged``, its final per-slice
residuals meet the config's ``hjb`` and ``inner`` tolerances, mass is
conserved to MASS_TOL, and its density trajectory lies within the
reference's stated tolerance (largest absolute difference) of the
trajectory stored with the workload.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

MASS_TOL = 1e-12


def read_trajectory(path: Path) -> np.ndarray:
    """Densities from ``trajectory_m.bin``, one row per time slice."""
    with open(path, "rb") as fh:
        header = json.loads(fh.readline().decode("ascii"))
        raw = fh.read()
    values = np.frombuffer(raw, dtype=np.float64)
    return values.reshape(header["steps"] + 1, header["n"] ** header["d"])


def _at_most(problems: list[str], summary: dict, key: str, bound: float) -> None:
    value = summary.get(key)
    if not isinstance(value, (int, float)) or not value <= bound:
        problems.append(f"{key} = {value!r} exceeds {bound:g}")


def check(exit_code: int, config: dict, out_dir: Path, reference: dict) -> list[str]:
    """Reasons the run fails the gate; empty when it passes."""
    problems = [] if exit_code == 0 else [f"exit code {exit_code}"]
    try:
        summary = json.loads((out_dir / "summary.json").read_text())
        trajectory = read_trajectory(out_dir / "trajectory_m.bin")
    except (OSError, ValueError, KeyError) as exc:
        return problems + [f"outputs unreadable: {exc}"]
    if summary.get("converged") is not True:
        problems.append("not converged")
    tolerances = config["tolerances"]
    _at_most(problems, summary, "hjb_residual_max", float(tolerances["hjb"]))
    _at_most(problems, summary, "mu_residual_max", float(tolerances["inner"]))
    _at_most(problems, summary, "mass_error_max", MASS_TOL)
    expected = np.asarray(reference["m"], dtype=float)
    if trajectory.shape != expected.shape:
        problems.append(f"trajectory shape {trajectory.shape} != reference {expected.shape}")
    else:
        gap = float(np.abs(trajectory - expected).max())
        if not gap <= reference["tolerance"]:
            problems.append(f"trajectory differs from reference by {gap:.3e}")
    return problems
