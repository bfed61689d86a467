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
        "run/summary.json: outer_iterations: 29 -> 18",
        "run/summary.json: largest float change 1e-09 (ergodic.increments[1])",
    ]


def test_counters_listed_apart_from_the_largest_float_change(tmp_path, capsys):
    # two counters move by 11 and 1 and a float by 2e-14: each counter gets
    # its own line, and the float move is still reported; CSV cells are all
    # floats and keep one largest change
    old = _tree(
        tmp_path / "old",
        {"outer_iterations": 29, "converged": True, "lp": {"rounds": [6, 2]}, "mu_holder_half": 0.25},
        "t,lambda\n0,1\n",
    )
    new = _tree(
        tmp_path / "new",
        {"outer_iterations": 18, "converged": False, "lp": {"rounds": [6, 3]}, "mu_holder_half": 0.25 + 2e-14},
        "t,lambda\n0,1.5\n",
    )
    assert _snapshot_module().compare(old, new) is False
    assert capsys.readouterr().out.splitlines() == [
        "run/lambda.csv: largest absolute change 0.5",
        "run/summary.json: converged: True -> False",
        "run/summary.json: lp.rounds[1]: 2 -> 3",
        "run/summary.json: outer_iterations: 29 -> 18",
        "run/summary.json: largest float change 2e-14 (mu_holder_half)",
    ]


def test_identical_trees_match(tmp_path, capsys):
    old = _tree(tmp_path / "old", {"converged": True}, "t,lambda\n0,1\n")
    new = _tree(tmp_path / "new", {"converged": True}, "t,lambda\n0,1\n")
    assert _snapshot_module().compare(old, new) is True
    assert capsys.readouterr().out == ""
