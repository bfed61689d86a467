"""The --compare mode of tests/snapshot_outputs.py on two small trees."""

import importlib.util
import json
from pathlib import Path

SCRIPT = Path(__file__).parent / "snapshot_outputs.py"


def _snapshot_module():
    spec = importlib.util.spec_from_file_location("snapshot_outputs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _tree(root: Path, summary: dict, rows: str) -> Path:
    (root / "run").mkdir(parents=True)
    (root / "run" / "summary.json").write_text(json.dumps(summary))
    (root / "run" / "lambda.csv").write_text(rows)
    return root


def test_json_leaves_matched_by_key_path(tmp_path, capsys):
    old = _tree(tmp_path / "old", {"outer_iterations": 29, "ergodic": {"increments": [1e-3, 5e-4]}}, "t,lambda\n0,1\n")
    new = _tree(
        tmp_path / "new",
        {"outer_iterations": 18, "ergodic": {"level_outer_iterations": [3, 1], "increments": [1e-3, 5e-4 + 1e-9]}},
        "t,lambda\n0,1\n",
    )
    assert _snapshot_module().compare(old, new) is False
    out = capsys.readouterr().out.splitlines()
    assert out == [
        "run/summary.json: added ergodic.level_outer_iterations[] (2 leaves)",
        "run/summary.json: largest absolute change 11 (outer_iterations)",
    ]


def test_identical_trees_match(tmp_path, capsys):
    old = _tree(tmp_path / "old", {"converged": True}, "t,lambda\n0,1\n")
    new = _tree(tmp_path / "new", {"converged": True}, "t,lambda\n0,1\n")
    assert _snapshot_module().compare(old, new) is True
    assert capsys.readouterr().out == ""
