"""Write the outputs of every shipped config and benchmark workload to one tree.

    python tests/snapshot_outputs.py OUT

runs `qsmfg run` on configs/*.json and perfbench/workloads/*/config.json,
once with "diagnostics" false and once with it true, each into
OUT/<name>_<0|1>/.  The configs are only read: each run gets a copy with its
output_dir and diagnostics set.  "timing_seconds", the one entry that
changes from run to run, is dropped from every summary.json.  The stdout of
`qsmfg validate` goes to OUT/<name>_validate.json, and every exit code to
OUT/exit_codes.txt.  One `qsmfg sweep` of configs/example1_weak.json over two
values of eps, with diagnostics on, writes OUT/sweep/: sweep_summary.csv and
one run tree per point.

The runs use the qsmfg sources of the checkout this file sits in, so
`diff -r` of the trees written by two checkouts is a byte-identity check of
their outputs.

    python tests/snapshot_outputs.py --compare OLD NEW

prints, for each file that differs between two such trees, the largest
absolute change of its numbers: CSV cells (split on ';'), JSON leaves, and
the float64 payload of .bin trajectories.  JSON leaves are matched by key
path: leaves on one side only are named as added or removed (list entries
counted under one "[]" path), every changed leaf that is an integer on both
sides (a counter) or not a number is listed with its old and new value, and
the largest float change, with its key path, is taken over the other
numeric leaves both sides hold, so a moved counter cannot hide it.  Files
that exist on one side only are named.  It exits 1 if any file differs or exists on one side
only, and 0 if the two trees match byte for byte.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SWEEP_BASE = ROOT / "configs" / "example1_weak.json"
SWEEP = {"model.params.eps": [0.05, 0.1]}


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
        payload = json.loads(SWEEP_BASE.read_text())
        payload.update(output_dir=str(out / "sweep"), diagnostics=True, sweep=SWEEP)
        config = Path(tmp) / "sweep.json"
        config.write_text(json.dumps(payload))
        codes.append(f"{SWEEP_BASE.stem} sweep {_qsmfg('sweep', str(config)).returncode}\n")
    for summary_path in out.rglob("summary.json"):
        summary = json.loads(summary_path.read_text())
        summary.pop("timing_seconds", None)
        summary_path.write_text(json.dumps(summary, indent=2, sort_keys=True))
    (out / "exit_codes.txt").write_text("".join(codes))


def _number(token: str):
    try:
        return float(token)
    except ValueError:
        return token


def _leaves(value, path: str = "") -> dict:
    """The leaves of a JSON document by key path, such as "ergodic.increments[2]"."""
    if isinstance(value, dict):
        items = [(f"{path}.{key}" if path else str(key), v) for key, v in value.items()]
    elif isinstance(value, list):
        items = [(f"{path}[{i}]", v) for i, v in enumerate(value)]
    else:
        return {path: value}
    return {leaf: v for key, item in items for leaf, v in _leaves(item, key).items()}


def _values(path: Path) -> dict:
    """The values of an output file: JSON leaves by key path, the header and
    payload of a .bin trajectory and the cells of other files by position."""
    if path.suffix == ".bin":
        header, payload = path.read_bytes().split(b"\n", 1)
        return dict(enumerate([header.decode("ascii"), *np.frombuffer(payload, dtype=np.float64).tolist()]))
    text = path.read_text()
    if path.suffix == ".json" and text.strip():
        return _leaves(json.loads(text))
    return dict(enumerate(_number(token) for token in re.split(r"[,;\s]+", text.strip())))


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def compare(old: Path, new: Path) -> bool:
    """Print the differences of two snapshot trees; True if they match."""
    files = [{p.relative_to(root) for p in root.rglob("*") if p.is_file()} for root in (old, new)]
    for rel in sorted(files[0] ^ files[1]):
        print(f"only in {old if rel in files[0] else new}: {rel}")
    common = sorted(files[0] & files[1])
    differing = [rel for rel in common if (old / rel).read_bytes() != (new / rel).read_bytes()]
    for rel in differing:
        a, b = _values(old / rel), _values(new / rel)
        if rel.suffix == ".json":
            for verb, keys in (("removed", a.keys() - b.keys()), ("added", b.keys() - a.keys())):
                for key, count in sorted(Counter(re.sub(r"\[\d+\]", "[]", key) for key in keys).items()):
                    print(f"{rel}: {verb} {key}" + (f" ({count} leaves)" if count > 1 else ""))
        elif len(a) != len(b):
            print(f"{rel}: {len(a)} -> {len(b)} values")
            continue
        pairs = [(key, a[key], b[key]) for key in a if key in b]
        numeric = [(key, x, y) for key, x, y in pairs if _is_number(x) and _is_number(y)]
        moved = [key for key, x, y in pairs if x != y and not (_is_number(x) and _is_number(y))]
        if rel.suffix == ".json":
            counters = [key for key, x, y in numeric if x != y and isinstance(x, int) and isinstance(y, int)]
            for key in sorted(moved + counters):
                print(f"{rel}: {key}: {a[key]!r} -> {b[key]!r}")
            numeric = [(key, x, y) for key, x, y in numeric if key not in counters]
        elif moved:
            print(f"{rel}: non-numeric values differ")
        change, where = max(((abs(x - y), key) for key, x, y in numeric), default=(0.0, None))
        if rel.suffix == ".json":
            print(f"{rel}: largest float change {change:.3g}" + (f" ({where})" if change else ""))
        else:
            print(f"{rel}: largest absolute change {change:.3g}")
    return not differing and files[0] == files[1]


if __name__ == "__main__":
    if len(sys.argv) == 4 and sys.argv[1] == "--compare":
        sys.exit(0 if compare(Path(sys.argv[2]), Path(sys.argv[3])) else 1)
    elif len(sys.argv) == 2:
        snapshot(Path(sys.argv[1]))
    else:
        sys.exit(f"usage: {sys.argv[0]} OUT | --compare OLD NEW")
