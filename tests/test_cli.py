import ast
import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from qsmfg.cli import ConfigError, build_initial_density, load_config, main, parse_config
from qsmfg.coupling import solve_system
from qsmfg.grid import Grid
from qsmfg.model import MODEL_BUILDERS, build_model, separated_cost

CONFIG_DIR = Path(__file__).parent.parent / "configs"
WORKLOAD_DIR = Path(__file__).parent.parent / "perfbench" / "workloads"
SRC_DIR = Path(__file__).parent.parent / "src" / "qsmfg"

MINIMAL = {
    "model": {"name": "separated", "params": {"coupling_weight": 0.0}},
    "grid": {"d": 1, "n": 32},
    "time": {"T": 0.5, "dt": 0.05},
    "mode": "discounted",
    "strategy": "gamma",
    "rho": 1.0,
}


def _write(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def _summary(out_dir):
    return json.loads((Path(out_dir) / "summary.json").read_text())


class TestConfigValidation:
    def test_minimal_parses(self):
        cfg = parse_config(dict(MINIMAL))
        assert cfg.model_name == "separated"
        assert cfg.n == 32

    def test_missing_field_named(self):
        bad = {k: v for k, v in MINIMAL.items() if k != "grid"}
        with pytest.raises(ConfigError) as err:
            parse_config(bad)
        assert "grid" in str(err.value)

    def test_nonpositive_rho_named(self):
        bad = dict(MINIMAL, rho=-1.0)
        with pytest.raises(ConfigError) as err:
            parse_config(bad)
        assert err.value.field_name == "rho"

    def test_history_model_requires_psi(self, monkeypatch):
        # the check reads the built model's kind, so a history model under
        # another name is refused too
        monkeypatch.setitem(MODEL_BUILDERS, "memory", MODEL_BUILDERS["example2"])
        for name in ("example2", "memory"):
            bad = dict(MINIMAL, model={"name": name, "params": {}}, strategy="gamma")
            with pytest.raises(ConfigError) as err:
                parse_config(bad)
            assert err.value.field_name == "strategy"

    def test_time_grid_must_divide(self):
        bad = dict(MINIMAL, time={"T": 0.5, "dt": 0.15})
        with pytest.raises(ConfigError) as err:
            parse_config(bad)
        assert err.value.field_name == "time.dt"

    @pytest.mark.parametrize("key", ["ot", "max_outr"])
    def test_unknown_top_level_key_rejected(self, tmp_path, capsys, key):
        payload = dict(MINIMAL, output_dir=str(tmp_path / "out"), **{key: {}})
        with pytest.raises(ConfigError) as err:
            parse_config(payload)
        assert err.value.field_name == key
        assert main(["run", _write(tmp_path, payload)]) == 2
        assert f"config field {key!r}: unknown config key" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["run", "validate"])
    @pytest.mark.parametrize(
        "model, field_name",
        [
            ({"name": "separated", "params": {"coupling_weigth": 0.1}}, "model.params.coupling_weigth"),
            ({"name": "separated", "params": {"radius": -1}}, "model.params"),
            ({"name": "example1", "params": {"delta": 0}}, "model.params"),
            ({"name": "example1", "params": {"mesh": 257}}, "model.params.mesh"),
        ],
    )
    def test_bad_model_param_exit_code(self, tmp_path, capsys, command, model, field_name):
        payload = dict(MINIMAL, model=model, output_dir=str(tmp_path / "out"))
        assert main([command, _write(tmp_path, payload)]) == 2
        assert f"config field {field_name!r}:" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["run", "validate"])
    @pytest.mark.parametrize(
        "field_name, change",
        [
            ("damping", {"damping": "x"}),
            ("rho", {"rho": "x"}),
            ("max_outer", {"max_outer": "x"}),
            ("max_outer", {"max_outer": True}),
            ("seed", {"seed": "x"}),
            ("diagnostics", {"diagnostics": "yes"}),
            ("tolerances.outer", {"tolerances": {"outer": "x"}}),
            ("m0", {"m0": "uniform"}),
            ("rho_sequence.count", {"mode": "ergodic", "rho_sequence": {"count": "x"}}),
            ("rho_sequence", {"mode": "ergodic", "rho_sequence": [1.0, 0.5]}),
            ("model.params", {"model": {"name": "separated", "params": [1]}}),
            ("grid.d", {"grid": {"d": True, "n": 32}}),
        ],
    )
    def test_wrongly_typed_value_exit_code(self, tmp_path, capsys, command, field_name, change):
        payload = dict(MINIMAL, output_dir=str(tmp_path / "out"), **change)
        assert main([command, _write(tmp_path, payload)]) == 2
        assert f"config field {field_name!r}: expected" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "command, payload, field_name",
        [
            ("run", 5, "json"),
            ("validate", None, "json"),
            ("run", [{"a": 1}], "json"),
            ("sweep", [{"a": 1}], "json"),
            ("sweep", dict(MINIMAL, sweep={"grid.n": 8}), "sweep.grid.n"),
            ("sweep", dict(MINIMAL, sweep=[1]), "sweep"),
            ("sweep", dict(MINIMAL, sweep={"rho": [1.0]}, output_dir=5), "output_dir"),
            ("sweep", dict(MINIMAL, sweep={"grid.n.x": [8]}), "grid.n.x"),
            ("sweep", dict(MINIMAL, sweep={"grid.n": []}), "sweep.grid.n"),
            ("sweep", dict(MINIMAL, sweep={"rho": [1.0, -1.0]}), "rho"),
            ("run", dict(MINIMAL, seed=-1), "seed"),
            ("validate", dict(MINIMAL, seed=-1), "seed"),
        ],
        ids=["run-int", "validate-null", "run-list", "sweep-list", "sweep-value", "sweep-list-spec",
             "sweep-output-dir", "sweep-path", "sweep-empty-values", "sweep-bad-point", "run-negative-seed",
             "validate-negative-seed"],
    )
    def test_malformed_config_exit_code(self, tmp_path, capsys, command, payload, field_name):
        # a config of the wrong shape, a seed numpy's generator refuses, or a
        # sweep point that is not a valid config is a config error before
        # anything is solved or written
        if isinstance(payload, dict):
            payload = {"output_dir": str(tmp_path / "out"), **payload}
        assert main([command, _write(tmp_path, payload)]) == 2
        assert f"error: config field {field_name!r}:" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["run", "validate", "sweep"])
    @pytest.mark.parametrize("key, value", [("rho_sequence", {"rho0": 1.0}), ("full_sequence", True)])
    def test_ergodic_key_in_discounted_mode_exit_code(self, tmp_path, capsys, command, key, value):
        # a discounted run never reads the discount sequence, so setting it
        # is a config error, for a sweep as soon as one point sets it
        payload = dict(MINIMAL, output_dir=str(tmp_path / "out"), **{key: value})
        if command == "sweep":
            payload["sweep"] = {"rho": [1.0, 0.5]}
        assert main([command, _write(tmp_path, payload)]) == 2
        assert f"error: config field {key!r}: only ergodic mode reads it" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_ergodic_requires_sequence(self):
        bad = dict(MINIMAL, mode="ergodic")
        with pytest.raises(ConfigError) as err:
            parse_config(bad)
        assert err.value.field_name == "rho_sequence"

    @pytest.mark.parametrize(
        "sequence",
        [
            {"rho0": -1.0},
            {"rho0": float("inf")},
            {"rho0": float("nan")},
            {"rho0": 5e-324, "factor": 0.9},
        ],
        ids=["negative", "infinite", "nan", "repeated-subnormal"],
    )
    def test_bad_discount_sequence_exit_code(self, tmp_path, capsys, sequence):
        # the sequence must give finite, positive, strictly decreasing
        # discounts; 5e-324 * 0.9 rounds back to 5e-324
        payload = dict(MINIMAL, mode="ergodic", rho_sequence=sequence, output_dir=str(tmp_path / "out"))
        assert main(["run", _write(tmp_path, payload)]) == 2
        assert "error: config field 'rho_sequence':" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_unknown_model(self):
        bad = dict(MINIMAL, model={"name": "mystery"})
        with pytest.raises(ConfigError) as err:
            parse_config(bad)
        assert err.value.field_name == "model.name"

    def test_bad_m0_kind(self):
        bad = dict(MINIMAL, m0={"kind": "spiky"})
        with pytest.raises(ConfigError) as err:
            parse_config(bad)
        assert err.value.field_name == "m0.kind"

    @pytest.mark.parametrize("command", ["run", "validate"])
    @pytest.mark.parametrize(
        "m0, field_name, reason",
        [
            ({"kind": "vonmises", "concentration": "x"}, "m0.concentration", "expected float"),
            ({"kind": "twobump", "centers": "x"}, "m0.centers", "expected list"),
            ({"kind": "twobump", "centres": [0.25, 0.75]}, "m0.centres", "not a parameter of m0 kind 'twobump'"),
            ({"kind": "twobump", "centers": [0.25]}, "m0.centers", "expected a list of 2 numbers"),
            ({"kind": "vonmises", "center": [0.5, 0.5]}, "m0.center", "expected a list of 1 numbers"),
            ({"kind": "vonmises", "center": ["x"]}, "m0.center.0", "expected float"),
            ({"kind": "uniform", "concentration": 4.0}, "m0.concentration", "not a parameter of m0 kind 'uniform'"),
        ],
    )
    def test_bad_m0_param_exit_code(self, tmp_path, capsys, command, m0, field_name, reason):
        payload = dict(MINIMAL, m0=m0, output_dir=str(tmp_path / "out"))
        assert main([command, _write(tmp_path, payload)]) == 2
        assert f"config field {field_name!r}: {reason}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_m0_params_typed(self):
        m0 = {"kind": "vonmises", "center": [0, 0.5], "concentration": 3}
        cfg = parse_config(dict(MINIMAL, grid={"d": 2, "n": 16}, m0=m0))
        assert cfg.m0_params == {"center": [0.0, 0.5], "concentration": 3.0}
        assert all(type(v) is float for v in cfg.m0_params["center"])
        cfg = parse_config(dict(MINIMAL, m0={"kind": "twobump", "centers": [0.2, 1]}))
        assert cfg.m0_params == {"centers": [0.2, 1.0]}

    def test_load_config_missing_file(self):
        with pytest.raises(ConfigError):
            load_config("/nonexistent/config.json")


class TestRun:
    def test_minimal_run_artifacts(self, tmp_path):
        payload = dict(MINIMAL, output_dir=str(tmp_path / "out"))
        code = main(["run", _write(tmp_path, payload)])
        assert code == 0
        out = tmp_path / "out"
        for name in (
            "summary.json",
            "trajectory_m.csv",
            "trajectory_m.bin",
            "trajectory_u.csv",
            "convergence.csv",
            "mu.csv",
        ):
            assert (out / name).exists(), name
        summary = _summary(out)
        assert summary["converged"] is True
        assert summary["outer_iterations"] in (1, 2)
        assert summary["mu_residual_max"] <= 1e-9
        assert summary["mass_error_max"] <= 1e-12

    def test_invalid_config_exit_code(self, tmp_path):
        payload = dict(MINIMAL, rho=-2.0)
        code = main(["run", _write(tmp_path, payload)])
        assert code == 2

    def test_non_convergence_exit_code(self, tmp_path):
        # strong coupling with a one-pass budget cannot reach 1e-8
        payload = dict(
            MINIMAL,
            model={"name": "example1", "params": {"eps": 0.4, "kappa": 0.4, "potential": 0.4}},
            max_outer=1,
            output_dir=str(tmp_path / "out"),
        )
        code = main(["run", _write(tmp_path, payload)])
        assert code == 3
        assert (tmp_path / "out" / "summary.json").exists()  # logs still written

    def test_unmet_hjb_tolerance_exit_code(self, tmp_path, capsys):
        # no HJB solve reaches 1e-17, so the run has not converged although
        # its outer loop has
        payload = json.loads((CONFIG_DIR / "example1_weak.json").read_text())
        payload.update(time={"T": 0.1, "dt": 0.05}, output_dir=str(tmp_path / "out"))
        payload["tolerances"]["hjb"] = 1e-17
        assert main(["run", _write(tmp_path, payload)]) == 3
        summary = _summary(tmp_path / "out")
        assert summary["converged"] is False
        assert "hjb" in summary["failures"] and "outer" not in summary["failures"]
        assert "hjb" in capsys.readouterr().err

    def test_solver_failure_exit_code(self, tmp_path, capsys, monkeypatch):
        # 32 atoms exceed a cap of 8: the transport solve raises inside the run
        monkeypatch.setattr("qsmfg.measure.ATOM_CAP", 8)
        capped = dict(MINIMAL, output_dir=str(tmp_path / "capped"))
        assert main(["run", _write(tmp_path, capped)]) == 3
        assert "error:" in capsys.readouterr().err
        assert not (tmp_path / "capped").exists()

    @pytest.mark.parametrize("strategy", ["gamma", "psi"])
    def test_non_finite_maximizer_exit_code(self, tmp_path, capsys, monkeypatch, strategy):
        # a maximizer that returns NaN makes the solve fail inside the run:
        # a solver failure, exit 3, reported without a traceback
        def nan_control(d=1, coupling_weight=0.3):
            spec = separated_cost(d=d, coupling_weight=coupling_weight)
            return replace(spec, closed_form_control=lambda x, p, nu: np.full(np.shape(p), np.nan))

        monkeypatch.setitem(MODEL_BUILDERS, "separated", nan_control)
        payload = dict(MINIMAL, strategy=strategy, output_dir=str(tmp_path / "out"))
        assert main(["run", _write(tmp_path, payload)]) == 3
        err = capsys.readouterr().err
        assert "error: solver failed" in err and "Traceback" not in err
        assert not (tmp_path / "out").exists()

    def test_diagnostics_flag_writes_residual_histories(self, tmp_path):
        payload = dict(MINIMAL, diagnostics=True, output_dir=str(tmp_path / "out"))
        assert main(["run", _write(tmp_path, payload)]) == 0
        lines = (tmp_path / "out" / "hjb_residuals.csv").read_text().strip().split("\n")
        assert lines[0] == "t,iteration,residual"
        assert len(lines) > 1

    def test_ergodic_run_writes_lambda(self, tmp_path):
        payload = dict(
            MINIMAL,
            mode="ergodic",
            rho_sequence={"rho0": 1.0, "factor": 0.5, "count": 6},
            tolerances={"ergodic": 1e-3},
            output_dir=str(tmp_path / "out"),
        )
        code = main(["run", _write(tmp_path, payload)])
        assert code == 0
        assert (tmp_path / "out" / "lambda.csv").exists()

    def test_level_outer_iterations_in_ergodic_summary_only(self, tmp_path):
        payload = dict(json.loads((CONFIG_DIR / "ergodic_weak.json").read_text()), output_dir=str(tmp_path / "erg"))
        assert main(["run", _write(tmp_path, payload, "ergodic.json")]) == 0
        summary = _summary(tmp_path / "erg")
        levels = summary["ergodic"]["level_outer_iterations"]
        assert len(levels) == len(summary["ergodic"]["rho_sequence"]) == 10
        assert sum(levels) == summary["outer_iterations"]
        assert summary["ergodic"]["ergodic_residual_max"] > summary["hjb_residual_max"]
        payload = dict(MINIMAL, output_dir=str(tmp_path / "disc"))
        assert main(["run", _write(tmp_path, payload, "discounted.json")]) == 0
        summary = _summary(tmp_path / "disc")
        assert summary["ergodic"] == {}
        assert "level_outer_iterations" not in json.dumps(summary)

    def test_deterministic_rerun_bit_exact(self, tmp_path):
        payload = dict(
            MINIMAL,
            model={"name": "example1", "params": {"eps": 0.1, "kappa": 0.1, "potential": 0.3}},
            output_dir=str(tmp_path / "out1"),
        )
        assert main(["run", _write(tmp_path, payload, "c1.json")]) == 0
        payload["output_dir"] = str(tmp_path / "out2")
        assert main(["run", _write(tmp_path, payload, "c2.json")]) == 0
        for name in ("trajectory_m.csv", "trajectory_u.csv", "convergence.csv", "mu.csv"):
            a = (tmp_path / "out1" / name).read_bytes()
            b = (tmp_path / "out2" / name).read_bytes()
            assert a == b, name
        s1 = _summary(tmp_path / "out1")
        s2 = _summary(tmp_path / "out2")
        s1.pop("timing_seconds")
        s2.pop("timing_seconds")
        assert s1 == s2


def _read_csv(path):
    header, *rows = path.read_text().strip().split("\n")
    return header, [row.split(",") for row in rows]


@pytest.fixture(scope="module", params=[1, 2], ids=["d1", "d2"])
def written_run(request, tmp_path_factory):
    """A diagnostics run through `qsmfg run` (d=1 n=32, d=2 n=8), its config,
    and the same solve in-process for the exact values."""
    tmp = tmp_path_factory.mktemp(f"run_d{request.param}")
    grid = {"d": request.param, "n": 32 if request.param == 1 else 8}
    payload = dict(MINIMAL, grid=grid, diagnostics=True, output_dir=str(tmp / "out"))
    path = _write(tmp, payload)
    assert main(["run", path]) == 0
    cfg = load_config(path)
    spec = build_model(cfg.model_name, d=cfg.d, **cfg.model_params)
    sol = solve_system(spec, build_initial_density(cfg, Grid(cfg.d, cfg.n)), cfg.coupling)
    return tmp / "out", cfg, sol


def _trajectory_values(path, grid):
    """The t,node,value rows of a trajectory CSV as one array per time slice."""
    header, rows = _read_csv(path)
    assert header == "t,node,value"
    values = np.array([float(row[2]) for row in rows]).reshape((-1,) + grid.shape)
    return np.array([float(row[0]) for row in rows[:: grid.size]]), values


class TestRunOutputs:
    """The output files of a real run, checked against the solve they write."""

    def test_trajectory_csv_rows(self, written_run):
        out, cfg, sol = written_run
        grid = Grid(cfg.d, cfg.n)
        for name, fields in (("trajectory_m.csv", [m.values for m in sol.m]), ("trajectory_u.csv", sol.u)):
            _, rows = _read_csv(out / name)
            assert len(rows) == (cfg.coupling.n_steps + 1) * grid.size
            assert [int(row[1]) for row in rows[: grid.size]] == list(range(grid.size))
            times, values = _trajectory_values(out / name, grid)
            np.testing.assert_array_equal(times, cfg.coupling.times())
            np.testing.assert_array_equal(values, np.stack(fields).reshape(values.shape))

    def test_trajectory_bin_matches_csv(self, written_run):
        out, cfg, _ = written_run
        header, payload = (out / "trajectory_m.bin").read_bytes().split(b"\n", 1)
        header = json.loads(header.decode("ascii"))
        times = cfg.coupling.times()
        steps = len(times) - 1
        assert header == {"d": cfg.d, "n": cfg.n, "dt": times[1] - times[0], "T": times[-1], "steps": steps}
        grid = Grid(cfg.d, cfg.n)
        binary = np.frombuffer(payload, dtype=np.float64).reshape((len(times),) + grid.shape)
        np.testing.assert_array_equal(binary, _trajectory_values(out / "trajectory_m.csv", grid)[1])

    def test_u_final_round_trip(self, written_run):
        out, cfg, sol = written_run
        header, rows = _read_csv(out / "u_final.csv")
        assert header == ",".join(["i", "j"][: cfg.d] + ["value"])
        assert len(rows) == cfg.n**cfg.d
        values = np.full((cfg.n,) * cfg.d, np.nan)
        for *idx, v in rows:
            values[tuple(int(i) for i in idx)] = float(v)
        np.testing.assert_array_equal(values.ravel(), sol.u[-1])

    def test_mu_csv_weights_are_density_times_cell_volume(self, written_run):
        out, cfg, sol = written_run
        header, rows = _read_csv(out / "mu.csv")
        assert header == ",".join(["t", *(f"x{i}" for i in range(cfg.d)), *(f"a{i}" for i in range(cfg.d)), "w"])
        grid = Grid(cfg.d, cfg.n)
        cells = np.array(rows, dtype=float).reshape(len(sol.times), grid.size, -1)
        _, density = _trajectory_values(out / "trajectory_m.csv", grid)
        np.testing.assert_array_equal(cells[:, 0, 0], sol.times)
        np.testing.assert_array_equal(cells[:, :, -1], density.reshape(len(sol.times), -1) * grid.cell_volume)
        np.testing.assert_array_equal(cells[:, :, 1 : 1 + cfg.d], np.stack([mu.x for mu in sol.mu]))
        np.testing.assert_array_equal(cells[:, :, 1 + cfg.d : -1], np.stack([mu.a for mu in sol.mu]))

    def test_logs_match_the_solve(self, written_run):
        out, _, sol = written_run
        header, rows = _read_csv(out / "convergence.csv")
        assert header == "iteration,outer_error,component_errors"
        parsed = [(int(k), float(err), *(float(c) for c in comps.split(";"))) for k, err, comps in rows]
        assert parsed == [tuple(row) for row in sol.outer_errors]
        header, rows = _read_csv(out / "hjb_residuals.csv")
        assert header == "t,iteration,residual"
        histories = sol.diagnostics["hjb_residual_histories"]
        expected = [(t, it, res) for t, hist in zip(sol.times, histories) for it, res in enumerate(hist, start=1)]
        assert [(float(t), int(it), float(res)) for t, it, res in rows] == expected


def test_only_the_cli_writes_files():
    # solver modules compute; cli.py is the one module that opens or writes files
    for path in sorted(SRC_DIR.glob("*.py")):
        if path.name == "cli.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", getattr(node.func, "attr", None))
                assert name not in ("open", "write_text", "write_bytes"), f"{path.name}:{node.lineno} calls {name}"


def test_only_grid_and_the_u_final_writer_read_grid_shape():
    # node data are flat arrays in node order: the (n,) * d index shape of a
    # grid is read only in grid.py and by the writer of u_final.csv's (i, j)
    # columns
    for path in sorted(SRC_DIR.glob("*.py")):
        if path.name == "grid.py":
            continue
        tree = ast.parse(path.read_text())
        writer = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and any(
                isinstance(arg, ast.BinOp) and getattr(arg.right, "value", None) == "u_final.csv" for arg in node.args
            ):
                writer.update(range(node.lineno, node.end_lineno + 1))
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and node.attr == "shape":
                owner = getattr(node.value, "id", getattr(node.value, "attr", ""))
                assert owner != "grid" or node.lineno in writer, f"{path.name}:{node.lineno} reads grid.shape"


def test_only_measure_binds_highs():
    # the private scipy HiGHS binding is imported in one module, and no
    # module imports or names linprog
    binders = set()
    for path in sorted(SRC_DIR.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom):
                names = [node.module or ""] + [f"{node.module}.{alias.name}" for alias in node.names]
            elif isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            else:
                names = [getattr(node, "id", getattr(node, "attr", ""))]
            assert not any("linprog" in name for name in names), f"{path.name}:{node.lineno} names linprog"
            if any("_highspy" in name for name in names):
                binders.add(path.name)
    assert binders == {"measure.py"}


class TestShippedConfigs:
    def test_reference_config_reproduces_acceptance_numbers(self, tmp_path):
        # the repo's own golden run: same model, grid, and tolerances as the
        # converged run shared by the acceptance suite
        base = json.loads((Path(__file__).parent.parent / "configs" / "example1_weak.json").read_text())
        base["output_dir"] = str(tmp_path / "golden")
        code = main(["run", _write(tmp_path, base)])
        assert code == 0
        summary = _summary(tmp_path / "golden")
        assert summary["converged"] is True
        assert summary["mu_residual_max"] <= base["tolerances"]["inner"]
        assert summary["hjb_residual_max"] <= base["tolerances"]["hjb"]
        assert summary["mass_error_max"] <= 1e-12
        consts = summary["empirical_constants"]
        assert consts["rho_u_sup"] <= consts["running_cost_sup"] + 1e-9
        for key in ("m_holder_half", "mu_holder_half", "du_holder_half"):
            assert np.isfinite(consts[key])

    def test_other_shipped_configs_parse(self):
        for name in ("example1_strong.json", "example2_memory.json", "ergodic_weak.json"):
            parse_config(json.loads((CONFIG_DIR / name).read_text()))


class TestValidate:
    def test_validate_prints_report(self, tmp_path, capsys):
        code = main(["validate", _write(tmp_path, dict(MINIMAL))])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["all_ok"] is True
        assert "closed_form_vs_brute_force" in report

    @pytest.mark.parametrize(
        "path",
        sorted(CONFIG_DIR.glob("*.json")) + sorted(WORKLOAD_DIR.glob("*/config.json")),
        ids=lambda p: p.stem if p.parent == CONFIG_DIR else p.parent.name,
    )
    def test_validate_shipped_config(self, capsys, path):
        # every check's flag must serialize: a numpy bool in the report
        # would make json.dumps raise; the 2D workload compares the closed
        # form against the polar control mesh, whose step is the arc or
        # radial step, not the 1D point spacing
        assert main(["validate", str(path)]) == 0
        assert json.loads(capsys.readouterr().out)["all_ok"] is True


class TestSweep:
    def test_sweep_two_points(self, tmp_path):
        payload = dict(
            MINIMAL,
            output_dir=str(tmp_path / "sweep"),
            sweep={"model.params.coupling_weight": [0.0, 0.2]},
        )
        code = main(["sweep", _write(tmp_path, payload)])
        assert code == 0
        rows = (tmp_path / "sweep" / "sweep_summary.csv").read_text().strip().split("\n")
        assert len(rows) == 3  # header + 2 points
        assert (tmp_path / "sweep" / "coupling_weight=0.0" / "summary.json").exists()

    def test_sweep_applies_transport_limits(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr("qsmfg.measure.ATOM_CAP", 8)
        payload = dict(
            MINIMAL,
            output_dir=str(tmp_path / "sweep"),
            sweep={"model.params.coupling_weight": [0.0]},
        )
        assert main(["sweep", _write(tmp_path, payload)]) == 3
        assert "error:" in capsys.readouterr().err

    def test_sweep_without_spec_is_config_error(self, tmp_path):
        code = main(["sweep", _write(tmp_path, dict(MINIMAL))])
        assert code == 2
