"""Write the outputs of every shipped config and benchmark workload to one tree.

    python tests/snapshot_outputs.py OUT

runs `qsmfg run` on configs/*.json and perfbench/workloads/*/config.json,
once with "diagnostics" false and once with it true, each into
OUT/<name>_<0|1>/.  The configs are only read: each run gets a copy with its
output_dir and diagnostics set.  "timing_seconds", the one entry that
changes from run to run, is dropped from summary.json.  The stdout of
`qsmfg validate` goes to OUT/<name>_validate.json, and every exit code to
OUT/exit_codes.txt.

The runs use the qsmfg sources of the checkout this file sits in, so
`diff -r` of the trees written by two checkouts is a byte-identity check of
their outputs.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _configs() -> list[tuple[str, Path]]:
    shipped = [(p.stem, p) for p in sorted((ROOT / "configs").glob("*.json"))]
    workloads = [(p.parent.name, p) for p in sorted((ROOT / "perfbench" / "workloads").glob("*/config.json"))]
    return shipped + workloads


def _qsmfg(*args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run(
        [sys.executable, "-m", "qsmfg.cli", *args], env=env, capture_output=True, text=True, check=False,
    )


def snapshot(out: Path) -> None:
    out.mkdir(parents=True, exist_ok=True)
    codes = []
    with tempfile.TemporaryDirectory() as tmp:
        for name, path in _configs():
            validated = _qsmfg("validate", str(path))
            (out / f"{name}_validate.json").write_text(validated.stdout)
            codes.append(f"{name} validate {validated.returncode}\n")
            for diagnostics in (0, 1):
                run_dir = out / f"{name}_{diagnostics}"
                payload = json.loads(path.read_text())
                payload.update(output_dir=str(run_dir), diagnostics=bool(diagnostics))
                config = Path(tmp) / f"{name}_{diagnostics}.json"
                config.write_text(json.dumps(payload))
                codes.append(f"{name}_{diagnostics} run {_qsmfg('run', str(config)).returncode}\n")
                summary_path = run_dir / "summary.json"
                if summary_path.exists():
                    summary = json.loads(summary_path.read_text())
                    summary.pop("timing_seconds", None)
                    summary_path.write_text(json.dumps(summary, indent=2, sort_keys=True))
    (out / "exit_codes.txt").write_text("".join(codes))


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(f"usage: {sys.argv[0]} OUT")
    snapshot(Path(sys.argv[1]))
