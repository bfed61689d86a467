import ast
import json
import os
import subprocess
import sys
from collections import Counter
from dataclasses import MISSING, fields, replace
from pathlib import Path

import numpy as np
import pytest

from qsmfg.cli import COUPLING_PATHS, ConfigError, RunConfig, load_config, main, parse_config
from qsmfg.coupling import CouplingConfig, solve_system
from qsmfg.grid import FieldError, Grid
from qsmfg.measure import two_bump_density, von_mises_density
from qsmfg.model import MODEL_BUILDERS, separated_cost

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
# ergodic mode reads no rho
ERGODIC = dict({k: v for k, v in MINIMAL.items() if k != "rho"}, mode="ergodic")


def _write(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def _summary(out_dir):
    return json.loads((Path(out_dir) / "summary.json").read_text())


class TestConfigValidation:
    def test_minimal_parses(self):
        cfg = parse_config(dict(MINIMAL))
        assert cfg.spec.name == "separated"
        assert cfg.m0.grid.n == 32
        # every coupling key the config leaves out takes CouplingConfig's default
        assert cfg.coupling == CouplingConfig(T=0.5, dt=0.05)
        sequence = tuple(0.5**k for k in range(10))
        assert parse_config(dict(ERGODIC, rho_sequence={})).coupling == CouplingConfig(
            T=0.5, dt=0.05, rho_sequence=sequence
        )

    def test_run_keys_left_out_take_run_config_defaults(self):
        # RunConfig owns the defaults of output_dir, diagnostics and seed
        cfg = parse_config(dict(MINIMAL))
        for f in fields(RunConfig):
            if f.default is not MISSING:
                assert getattr(cfg, f.name) == f.default, f.name

    def test_run_config_refuses_a_negative_seed(self):
        cfg = parse_config(dict(MINIMAL))
        with pytest.raises(FieldError, match="seed") as err:
            RunConfig(spec=cfg.spec, m0=cfg.m0, coupling=cfg.coupling, seed=-1)
        assert err.value.field == "seed"

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

    @pytest.mark.parametrize(
        "field_name, change",
        [
            ("grid.N", {"grid": {"d": 1, "n": 32, "N": 64}}),
            ("time.dT", {"time": {"T": 0.5, "dt": 0.05, "dT": 0.1}}),
            ("rho_sequence.rho_0", {"mode": "ergodic", "rho_sequence": {"rho_0": 4.0, "count": 3}}),
            ("tolerances.outr", {"tolerances": {"outr": 1e-8}}),
        ],
    )
    def test_unknown_nested_key_rejected(self, tmp_path, capsys, field_name, change):
        # a misspelled key inside an object is refused, not read as absent
        base = ERGODIC if change.get("mode") == "ergodic" else MINIMAL
        payload = dict(base, output_dir=str(tmp_path / "out"), **change)
        with pytest.raises(ConfigError) as err:
            parse_config(payload)
        assert err.value.field_name == field_name
        assert main(["run", _write(tmp_path, payload)]) == 2
        assert f"config field {field_name!r}: unknown config key" in capsys.readouterr().err
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
            ("model.params.eps", {"model": {"name": "example1", "params": {"eps": True}}}),
            ("model.params.eps", {"model": {"name": "example1", "params": {"eps": "0.1"}}}),
        ],
    )
    def test_wrongly_typed_value_exit_code(self, tmp_path, capsys, command, field_name, change):
        base = ERGODIC if change.get("mode") == "ergodic" else MINIMAL
        payload = dict(base, output_dir=str(tmp_path / "out"), **change)
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

    @pytest.mark.parametrize("command", ["run", "sweep"])
    @pytest.mark.parametrize("rho", [-5.0, 0.0, 1.0, 1e6])
    def test_rho_in_ergodic_mode_exit_code(self, tmp_path, capsys, command, rho):
        # an ergodic run never reads rho, so setting it is a config error
        # at any value, for a sweep as soon as one point sets it
        payload = dict(ERGODIC, rho_sequence={"count": 3}, output_dir=str(tmp_path / "out"))
        if command == "sweep":
            payload["sweep"] = {"rho": [rho]}
        else:
            payload["rho"] = rho
        assert main([command, _write(tmp_path, payload)]) == 2
        assert "error: config field 'rho': only discounted mode reads it" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_ergodic_requires_sequence(self):
        bad = dict(ERGODIC)
        with pytest.raises(ConfigError) as err:
            parse_config(bad)
        assert err.value.field_name == "rho_sequence"

    @pytest.mark.parametrize(
        "sequence, field_name",
        [
            ({"rho0": -1.0}, "rho_sequence"),
            ({"rho0": float("inf")}, "rho_sequence.rho0"),
            ({"rho0": float("nan")}, "rho_sequence.rho0"),
            ({"rho0": 5e-324, "factor": 0.9}, "rho_sequence"),
        ],
        ids=["negative", "infinite", "nan", "repeated-subnormal"],
    )
    def test_bad_discount_sequence_exit_code(self, tmp_path, capsys, sequence, field_name):
        # the sequence must give finite, positive, strictly decreasing
        # discounts; 5e-324 * 0.9 rounds back to 5e-324, and a non-finite
        # start is refused as the number it is
        payload = dict(ERGODIC, rho_sequence=sequence, output_dir=str(tmp_path / "out"))
        assert main(["run", _write(tmp_path, payload)]) == 2
        assert f"error: config field {field_name!r}:" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "field_name, change",
        [
            ("time.T", {"time": {"T": float("inf"), "dt": 0.05}}),
            ("tolerances.outer", {"tolerances": {"outer": float("nan")}}),
            ("rho", {"rho": float("nan")}),
            ("rho", {"rho": float("inf")}),
            ("model.params.delta", {"model": {"name": "example1", "params": {"delta": float("nan")}}}),
            ("model.params.radius", {"model": {"name": "example1", "params": {"radius": float("inf")}}}),
        ],
        ids=["T-infinite", "outer-nan", "rho-nan", "rho-infinite", "delta-nan", "radius-infinite"],
    )
    def test_non_finite_number_exit_code(self, tmp_path, capsys, field_name, change):
        # json reads the NaN and Infinity tokens as floats; each is a config
        # error naming its field, not a traceback, a stalled run or a run
        payload = dict(MINIMAL, output_dir=str(tmp_path / "out"), **change)
        path = _write(tmp_path, payload)
        text = Path(path).read_text()
        assert "NaN" in text or "Infinity" in text
        assert main(["run", path]) == 2
        err = capsys.readouterr().err
        assert f"error: config field {field_name!r}: must be finite" in err and "Traceback" not in err
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

    @pytest.mark.parametrize("command", ["run", "sweep"])
    def test_unbuildable_m0_exit_code(self, tmp_path, capsys, command):
        # exp overflows at this concentration, so the density cannot be
        # normalized: a config error while parsing, for every sweep point too
        m0 = {"kind": "vonmises", "concentration": 1e6}
        payload = dict(MINIMAL, m0=m0, output_dir=str(tmp_path / "out"))
        if command == "sweep":
            payload["sweep"] = {"rho": [1.0, 0.5]}
        assert main([command, _write(tmp_path, payload)]) == 2
        err = capsys.readouterr().err
        assert "error: config field 'm0': density contains non-finite values" in err and "Traceback" not in err
        assert not (tmp_path / "out").exists()

    def test_m0_params_typed(self):
        # integer parameters are read as the floats they stand for
        m0 = {"kind": "vonmises", "center": [0, 0.5], "concentration": 3}
        cfg = parse_config(dict(MINIMAL, grid={"d": 2, "n": 16}, m0=m0))
        expected = von_mises_density(Grid(2, 16), center=[0.0, 0.5], concentration=3.0)
        assert cfg.m0.grid == expected.grid
        assert cfg.m0.values.tobytes() == expected.values.tobytes()
        cfg = parse_config(dict(MINIMAL, m0={"kind": "twobump", "centers": [0.2, 1]}))
        assert cfg.m0.values.tobytes() == two_bump_density(Grid(1, 32), centers=[0.2, 1.0]).values.tobytes()

    def test_load_config_missing_file(self):
        with pytest.raises(ConfigError):
            load_config("/nonexistent/config.json")

    @pytest.mark.parametrize("command", ["run", "validate", "sweep"])
    @pytest.mark.parametrize(
        "kind, field_name",
        [("missing", "path"), ("directory", "path"), ("not-utf8", "json"), ("invalid-json", "json")],
    )
    def test_unreadable_config_file_exit_code(self, tmp_path, monkeypatch, capsys, command, kind, field_name):
        # every subcommand reads its config through one reader: a file that
        # cannot be read or decoded is a config error naming the field, with
        # no traceback and nothing written (a run would write to ./out)
        monkeypatch.chdir(tmp_path)
        path = tmp_path / "config.json"
        if kind == "directory":
            path.mkdir()
        elif kind == "not-utf8":
            path.write_bytes(b'{"model": "\xff"}')
        elif kind == "invalid-json":
            path.write_text("{")
        before = sorted(tmp_path.rglob("*"))
        assert main([command, str(path)]) == 2
        err = capsys.readouterr().err
        assert f"error: config field {field_name!r}:" in err and "Traceback" not in err
        assert sorted(tmp_path.rglob("*")) == before

    @pytest.mark.parametrize(
        "field_name, change",
        [
            ("model.params.d", {"model": {"name": "separated", "params": {"d": 1}}}),
            ("grid.d", {"grid": {"d": 3, "n": 32}}),
            ("grid.n", {"grid": {"d": 1, "n": 4}}),
            ("time.T", {"time": {"T": 0.0, "dt": 0.05}}),
            ("time.dt", {"time": {"T": 0.5, "dt": -0.05}}),
            ("mode", {"mode": "stationary"}),
            ("strategy", {"strategy": "delta"}),
            ("rho_sequence.factor", {"mode": "ergodic", "rho_sequence": {"factor": 1.5}}),
            ("rho_sequence.count", {"mode": "ergodic", "rho_sequence": {"count": 1}}),
            ("tolerances.outr", {"tolerances": {"outr": 1e-8}}),
            ("tolerances.hjb", {"tolerances": {"hjb": 0.0}}),
            ("damping", {"damping": 1.5}),
            ("max_outer", {"max_outer": 0}),
            ("rho", {"rho": 0.0}),
            ("time.dt", {"time": {"T": 0.5, "dt": 0.0}}),
            ("damping", {"damping": 0.0}),
            ("tolerances.inner", {"tolerances": {"inner": -1e-9}}),
            ("tolerances.ergodic", {"mode": "ergodic", "rho_sequence": {}, "tolerances": {"ergodic": 0.0}}),
        ],
    )
    def test_refused_value_exit_code(self, tmp_path, capsys, field_name, change):
        base = ERGODIC if change.get("mode") == "ergodic" else MINIMAL
        payload = dict(base, output_dir=str(tmp_path / "out"), **change)
        assert main(["run", _write(tmp_path, payload)]) == 2
        assert f"error: config field {field_name!r}:" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "path, change, kwargs",
        [
            ("time.dt", {"time": {"T": 0.5, "dt": 0.15}}, {"dt": 0.15}),
            ("damping", {"damping": 1.5}, {"damping": 1.5}),
            ("max_outer", {"max_outer": 0}, {"max_outer": 0}),
            ("tolerances.hjb", {"tolerances": {"hjb": -1e-12}}, {"hjb_tol": -1e-12}),
            ("strategy", {"strategy": "delta"}, {"strategy": "delta"}),
        ],
    )
    def test_refused_coupling_value_has_couplingconfigs_reason(self, path, change, kwargs):
        # the CLI reports the refusal of the value's owner under its path
        with pytest.raises(FieldError) as owner:
            CouplingConfig(**dict({"T": 0.5, "dt": 0.05}, **kwargs))
        with pytest.raises(ConfigError) as err:
            parse_config(dict(MINIMAL, **change))
        assert (err.value.field_name, err.value.reason) == (path, owner.value.reason)

    # a value CouplingConfig refuses at each config path; full_sequence, which
    # only ergodic mode reads and where the sequence is never empty, is
    # refused under the same path by discounted mode
    REFUSED = {
        "time.T": -0.5,
        "time.dt": 0.15,
        "rho": 0.0,
        "rho_sequence": {"rho0": -1.0},
        "full_sequence": True,
        "strategy": "delta",
        "damping": 0.0,
        "max_outer": 0,
        "tolerances.outer": 0.0,
        "tolerances.inner": 0.0,
        "tolerances.hjb": 0.0,
        "tolerances.ergodic": 0.0,
    }

    def test_path_table_covers_the_settable_fields(self):
        # every CouplingConfig field has one path
        assert set(self.REFUSED) == set(COUPLING_PATHS)
        assert sorted(COUPLING_PATHS.values()) == sorted(f.name for f in fields(CouplingConfig))

    @pytest.mark.parametrize("path", sorted(REFUSED))
    def test_every_coupling_refusal_names_its_path(self, path):
        payload = json.loads(json.dumps(ERGODIC if path == "rho_sequence" else MINIMAL))
        *where, key = path.split(".")
        node = payload.setdefault(where[0], {}) if where else payload
        node[key] = self.REFUSED[path]
        with pytest.raises(ConfigError) as err:
            parse_config(payload)
        assert err.value.field_name == path


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
        # each of the 11 slices takes one or two local steps
        header, rows = _read_csv(out / "convergence.csv")
        steps = Counter(int(j) for _, _, j in rows)
        assert sorted(steps) == list(range(11)) and set(steps.values()) <= {1, 2}
        assert summary["outer_iterations"] == len(rows)
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

    def test_report_failure_exit_code(self, tmp_path, capsys, monkeypatch):
        # MINIMAL's gamma solve takes no joint W1 maximum and its regularity
        # report does: a report that raises fails the run as its solve
        # would, exit 3, reported without a traceback, and no output is written
        def failing(pairs, scales, state_w1s, tol=-np.inf):
            raise RuntimeError("transport LP failed")

        monkeypatch.setattr("qsmfg.coupling._max_joint_w1", failing)
        payload = dict(MINIMAL, output_dir=str(tmp_path / "out"))
        assert main(["run", _write(tmp_path, payload)]) == 3
        err = capsys.readouterr().err
        assert "error: solver failed" in err and "transport LP failed" in err and "Traceback" not in err
        assert not (tmp_path / "out").exists()

    def test_singular_evaluation_exit_code(self, tmp_path, capsys, monkeypatch):
        # an all-zero evaluation matrix is exactly singular: the sparse solve
        # raises inside the run, exit 3, reported without a traceback
        zeros = lambda grid, bvals, rho: np.zeros(grid.size * (2 * grid.d + 1) + 1)  # noqa: E731
        monkeypatch.setattr("qsmfg.hjb._evaluation_values", zeros)
        payload = dict(MINIMAL, output_dir=str(tmp_path / "out"))
        assert main(["run", _write(tmp_path, payload)]) == 3
        err = capsys.readouterr().err
        assert "error: solver failed" in err and "exactly singular" in err and "Traceback" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("strategy", ["gamma", "psi"])
    def test_non_finite_maximizer_exit_code(self, tmp_path, capsys, monkeypatch, strategy):
        # a maximizer that returns NaN makes the solve fail inside the run:
        # a solver failure, exit 3, reported without a traceback
        def nan_control(d=1, coupling_weight=0.3):
            spec = separated_cost(d=d, coupling_weight=coupling_weight)
            nan_maximizer = lambda p: np.full(np.shape(p), np.nan)  # noqa: E731
            return replace(spec, coefficients=lambda x, nu: (*spec.coefficients(x, nu)[:2], nan_maximizer))

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
            ERGODIC,
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
    sol = solve_system(cfg.spec, cfg.m0, cfg.coupling)
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
        grid = cfg.m0.grid
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
        grid = cfg.m0.grid
        assert header == {"d": grid.d, "n": grid.n, "dt": times[1] - times[0], "T": times[-1], "steps": steps}
        grid = cfg.m0.grid
        binary = np.frombuffer(payload, dtype=np.float64).reshape((len(times),) + grid.shape)
        np.testing.assert_array_equal(binary, _trajectory_values(out / "trajectory_m.csv", grid)[1])

    def test_u_final_round_trip(self, written_run):
        out, cfg, sol = written_run
        header, rows = _read_csv(out / "u_final.csv")
        grid = cfg.m0.grid
        assert header == ",".join(["i", "j"][: grid.d] + ["value"])
        assert len(rows) == grid.size
        values = np.full(grid.shape, np.nan)
        for *idx, v in rows:
            values[tuple(int(i) for i in idx)] = float(v)
        np.testing.assert_array_equal(values.ravel(), sol.u[-1])

    def test_mu_csv_weights_are_density_times_cell_volume(self, written_run):
        out, cfg, sol = written_run
        header, rows = _read_csv(out / "mu.csv")
        grid = cfg.m0.grid
        assert header == ",".join(["t", *(f"x{i}" for i in range(grid.d)), *(f"a{i}" for i in range(grid.d)), "w"])
        cells = np.array(rows, dtype=float).reshape(len(sol.times), grid.size, -1)
        _, density = _trajectory_values(out / "trajectory_m.csv", grid)
        np.testing.assert_array_equal(cells[:, 0, 0], sol.times)
        np.testing.assert_array_equal(cells[:, :, -1], density.reshape(len(sol.times), -1) * grid.cell_volume)
        np.testing.assert_array_equal(cells[:, :, 1 : 1 + grid.d], np.stack([mu.x for mu in sol.mu]))
        np.testing.assert_array_equal(cells[:, :, 1 + grid.d : -1], np.stack([mu.a for mu in sol.mu]))

    def test_logs_match_the_solve(self, written_run):
        out, _, sol = written_run
        header, rows = _read_csv(out / "convergence.csv")
        assert header == "iteration,outer_error,slice"
        parsed = [(int(k), float(err), int(j)) for k, err, j in rows]
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


def test_no_nonlocal_state():
    # solver state is passed to and returned from functions, never rebound
    # in an enclosing function's scope
    for path in sorted(SRC_DIR.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            assert not isinstance(node, ast.Nonlocal), f"{path.name}:{node.lineno} declares nonlocal"


def test_no_node_or_weight_rechecks():
    # a measure on a grid holds atom i at node i, and a solution's measures
    # are the pushforwards of its densities, both by construction: outside
    # measure.py no np.array_equal reads a grid's coordinates() or a
    # measure's weights .w to find out
    rechecks = []
    for path in sorted(SRC_DIR.glob("*.py")):
        if path.name == "measure.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call) and ast.unparse(node.func) == "np.array_equal":
                reads = {n.attr for arg in node.args for n in ast.walk(arg) if isinstance(n, ast.Attribute)}
                if reads & {"coordinates", "w"}:
                    rechecks.append(f"{path.name}:{node.lineno}")
    assert rechecks == []


def test_no_private_parameters():
    # a setting a function takes is one its callers may set: no parameter
    # name starts with an underscore
    for path in sorted(SRC_DIR.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.arg):  # a parameter of a function or lambda
                assert not node.arg.startswith("_"), f"{path.name}:{node.lineno} takes {node.arg}"


def _import_time_nodes(tree):
    """The AST nodes of a module that run when it is imported: all but the
    bodies of its functions and lambdas (decorators and defaults run at
    definition)."""
    stack = [tree]
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            stack.extend(node.decorator_list + node.args.defaults + [d for d in node.args.kw_defaults if d])
        elif not isinstance(node, ast.Lambda):
            stack.extend(ast.iter_child_nodes(node))


def test_no_module_level_memo():
    # data derived from an input live on the object that owns them, as a
    # grid's patterns are cached properties of that grid: no functools.cache
    # or lru_cache made at import time, a memo every caller in the process
    # shares (a model's closures may memoize per model or per binding)
    for path in sorted(SRC_DIR.glob("*.py")):
        for node in _import_time_nodes(ast.parse(path.read_text())):
            name = getattr(node, "id", getattr(node, "attr", None))
            assert name not in ("cache", "lru_cache"), f"{path.name}:{node.lineno} memoizes at module level"


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


def _names(path):
    """Each AST node of the source file path with the names it imports or
    holds: module paths for an import or a grid._extension call, the id or
    attribute otherwise."""
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom):
            names = [node.module or ""] + [f"{node.module}.{alias.name}" for alias in node.names]
        elif isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_extension":
            names = [arg.value for arg in node.args if isinstance(arg, ast.Constant)]
        else:
            names = [getattr(node, "id", getattr(node, "attr", ""))]
        yield node, names


def test_only_measure_binds_highs():
    # the private scipy HiGHS binding is imported in one module, and no
    # module imports or names linprog
    binders = set()
    for path in sorted(SRC_DIR.glob("*.py")):
        for node, names in _names(path):
            assert not any("linprog" in name for name in names), f"{path.name}:{node.lineno} names linprog"
            if any("_highspy" in name for name in names):
                binders.add(path.name)
    assert binders == {"measure.py"}


def test_only_grid_binds_superlu():
    # the private scipy SuperLU binding is imported in one module, no module
    # imports or names spsolve, and the HJB and FP solvers do not import
    # scipy.sparse.linalg
    binders = set()
    for path in sorted(SRC_DIR.glob("*.py")):
        for node, names in _names(path):
            assert not any("spsolve" in name for name in names), f"{path.name}:{node.lineno} names spsolve"
            if any("_superlu" in name for name in names):
                binders.add(path.name)
            if path.name in ("hjb.py", "fp.py") and isinstance(node, (ast.Import, ast.ImportFrom)):
                imports_linalg = any(name.startswith("scipy.sparse.linalg") for name in names)
                assert not imports_linalg, f"{path.name}:{node.lineno} imports scipy.sparse.linalg"
    assert binders == {"grid.py"}


def _fresh_python(code: str) -> str:
    """stdout of code run in a new interpreter with this checkout's qsmfg."""
    env = dict(os.environ, PYTHONPATH=str(SRC_DIR.parent))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=False)
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_import_loads_only_the_compiled_solver_modules():
    # of scipy.optimize and scipy.sparse.linalg only the two compiled
    # modules the solvers call are loaded (and _core's own submodules), so
    # no package __init__ of theirs, nor scipy.fft or scipy.special, runs
    loaded = _fresh_python("import sys, qsmfg.cli; print(*sorted(sys.modules))").split()
    bindings = ("scipy.optimize._highspy._core", "scipy.sparse.linalg._dsolve._superlu")
    assert set(bindings) <= set(loaded)
    for name in loaded:
        if name.startswith(("scipy.optimize", "scipy.sparse.linalg", "scipy.fft", "scipy.special")):
            assert any(name == b or name.startswith(b + ".") for b in bindings), name


def test_from_import_finds_the_bound_compiled_modules():
    # a module grid._extension loaded is no attribute of its package, but a
    # later `from package import module` falls back to sys.modules and
    # finds the very module object qsmfg bound, never a second copy
    out = _fresh_python(
        "import qsmfg.cli, qsmfg.grid as grid, qsmfg.measure as measure\n"
        "from scipy.optimize._highspy import _core\n"
        "from scipy.sparse.linalg._dsolve import _superlu\n"
        "print(_core is measure._core, _superlu.gssv is grid.gssv)"
    )
    assert out.split() == ["True", "True"]


def test_scipy_optimize_works_after_import():
    # a later import of scipy.optimize finds the _core qsmfg loaded; its
    # linprog solves a 1D transport LP to wasserstein1_joint's value
    out = _fresh_python(
        """
import numpy as np
import qsmfg.cli
from scipy.optimize import linprog
from qsmfg.grid import Grid
from qsmfg.measure import joint_cost_matrix, pushforward, two_bump_density, von_mises_density, wasserstein1_joint

g = Grid(1, 8)
nu1 = pushforward(von_mises_density(g), np.full((8, 1), 0.2))
nu2 = pushforward(two_bump_density(g), np.linspace(-1.0, 1.0, 8)[:, None])
marginals = np.vstack([np.kron(np.eye(8), np.ones(8)), np.kron(np.ones(8), np.eye(8))])
res = linprog(
    joint_cost_matrix(nu1.x, nu1.a, nu2.x, nu2.a).ravel(),
    A_eq=marginals, b_eq=np.concatenate([nu1.w, nu2.w]), method="highs",
)
print(res.status, repr(res.fun), repr(wasserstein1_joint(nu1, nu2)))
"""
    )
    status, lp, w1 = out.split()
    assert status == "0"
    assert float(lp) == pytest.approx(float(w1), rel=1e-7, abs=1e-12)
    assert float(w1) > 0.1


def test_measure_read_only_through_bindings():
    # a slice's measure reaches the HJB solve only through its coefficient
    # binding, so hjb.py imports nothing from qsmfg.measure; and no module
    # reads b or l pointwise (spec.drift, spec.running_cost), a read that
    # would bind the measure again on every call
    for path in sorted(SRC_DIR.glob("*.py")):
        for node, names in _names(path):
            if path.name == "hjb.py" and isinstance(node, (ast.Import, ast.ImportFrom)):
                assert not any("measure" in name.split(".") for name in names), f"hjb.py:{node.lineno} imports measure"
            if isinstance(node, ast.Attribute):
                assert node.attr not in ("drift", "running_cost"), f"{path.name}:{node.lineno} reads .{node.attr}"


def test_no_module_reads_params():
    # a model is read through its binding, its control set and its declared
    # constants; no parameter dict names one model family's arguments
    for path in sorted(SRC_DIR.glob("*.py")):
        for node, names in _names(path):
            if isinstance(node, ast.Attribute):
                assert node.attr != "params", f"{path.name}:{node.lineno} reads .params"


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

    def test_2d_config_at_n32_converges(self, tmp_path):
        # example1 in 2D at n=32: 1024 atoms, within ATOM_CAP, for the
        # report's joint LP
        base = json.loads((CONFIG_DIR / "example1_2d.json").read_text())
        assert base["grid"] == {"d": 2, "n": 32}
        base["output_dir"] = str(tmp_path / "out")
        assert main(["run", _write(tmp_path, base)]) == 0
        summary = _summary(tmp_path / "out")
        assert summary["converged"] is True
        assert summary["mu_residual_max"] <= base["tolerances"]["inner"]
        assert summary["hjb_residual_max"] <= base["tolerances"]["hjb"]
        assert summary["final_outer_error"] <= base["tolerances"]["outer"]
        assert summary["mass_error_max"] <= 1e-12

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

    def test_sweep_point_whose_solve_fails_has_no_row(self, tmp_path, capsys, monkeypatch):
        # 32 atoms exceed a cap of 8, so the one point's solve raises: the
        # sweep reports it, exits 3 and writes a summary without its row
        monkeypatch.setattr("qsmfg.measure.ATOM_CAP", 8)
        payload = dict(
            MINIMAL,
            output_dir=str(tmp_path / "sweep"),
            sweep={"model.params.coupling_weight": [0.0]},
        )
        assert main(["sweep", _write(tmp_path, payload)]) == 3
        assert "error:" in capsys.readouterr().err
        rows = (tmp_path / "sweep" / "sweep_summary.csv").read_text().strip().split("\n")
        assert rows == ["point,converged,outer_iterations,final_outer_error"]
        assert not (tmp_path / "sweep" / "coupling_weight=0.0").exists()

    def test_sweep_without_spec_is_config_error(self, tmp_path):
        code = main(["sweep", _write(tmp_path, dict(MINIMAL))])
        assert code == 2
