"""Write the reference density trajectory of a workload.

    python3 perfbench/make_reference.py NAME [NAME ...]

Runs the workload once in a fresh worker, stores its ``trajectory_m.bin`` as
``perfbench/workloads/NAME/reference.json`` with TOLERANCE, and checks the run
against the new reference.  A reference is a recorded result, so rewrite it
only when a change is meant to alter the solution.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

import gate
import run

# Largest absolute density difference a run may show against the reference.
# The solves stop at outer tolerances of 1e-9 or below; this leaves room for
# an exact change of algorithm that rounds differently, and none for a change
# of the solution.
TOLERANCE = 1e-7


def make_reference(workload: run.Workload, seed: int = 0) -> tuple[dict, list[str]]:
    """Solve once; return the reference and the gate's problems against it."""
    made: dict = {}

    def keep(out_dir: Path) -> None:
        trajectory = gate.read_trajectory(out_dir / "trajectory_m.bin")
        made["reference"] = {"tolerance": TOLERANCE, "m": trajectory.tolist()}
        made["problems"] = gate.check(0, workload.config, out_dir, made["reference"])

    blank = run.Workload(workload.name, workload.config, {"tolerance": TOLERANCE, "m": []})
    result = run.run_worker(blank, seed, "solve", time.monotonic() + run.RUN_DEADLINE_S, keep_outputs=keep)
    if "reference" not in made:
        raise run.BenchError(f"{workload.name}: {'; '.join(result['problems'])}")
    problems = made["problems"] + ([] if result["exit_code"] == 0 else [f"exit code {result['exit_code']}"])
    return made["reference"], problems


def main(names: list[str]) -> int:
    status = 0
    for name in names:
        folder = run.WORKLOADS_DIR / name
        config = json.loads((folder / "config.json").read_text())
        reference, problems = make_reference(run.Workload(name, config, {}))
        if problems:
            print(f"{name}: not written, {'; '.join(problems)}", file=sys.stderr)
            status = 1
            continue
        (folder / "reference.json").write_text(json.dumps(reference) + "\n")
        print(f"{name}: reference written")
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
