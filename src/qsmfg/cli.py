"""Config-driven experiment runner: run, validate, and sweep subcommands.

Configs are single JSON files; outputs are data-only (CSV, compact binary,
summary JSON) for external plotting.  Exit codes: 0 success, every tolerance
met; 2 config error; 3 solver failure, or a run that missed a tolerance (logs
are still written, and summary.json names the failed checks).

parse_config reads only JSON types and the config format.  Grid,
CouplingConfig and RunConfig own the value rules and defaults of the grid,
coupling and run keys; a grid.FieldError they raise becomes a ConfigError
under the config path, with the owner's reason.  A model parameter is read
as the type of its builder's default.
"""

from __future__ import annotations

import argparse
import inspect
import itertools
import json
import sys
import time
import typing
from dataclasses import MISSING, dataclass, fields
from pathlib import Path

import numpy as np

from .coupling import (
    CouplingConfig,
    TrajectorySolution,
    regularity_report,
    solve_system,
)
from .grid import FieldError, Grid
from .measure import DensityField, two_bump_density, uniform_density, von_mises_density
from .model import MODEL_BUILDERS, ModelSpec, check_model

__all__ = ["RunConfig", "ConfigError", "load_config", "run", "validate", "sweep", "main"]

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NO_CONVERGENCE = 3

# config paths of the CouplingConfig fields a config sets, read both ways:
# parse_config reads a path into its field and names a refused field's path
COUPLING_PATHS = {
    "time.T": "T", "time.dt": "dt", "rho": "rho", "rho_sequence": "rho_sequence", "full_sequence": "full_sequence",
    "strategy": "strategy", "damping": "damping", "max_outer": "max_outer", "tolerances.outer": "outer_tol",
    "tolerances.inner": "inner_tol", "tolerances.hjb": "hjb_tol", "tolerances.ergodic": "ergodic_tol",
}

# initial-density kinds and their builders, called as builder(grid, **m0_params);
# the "m0" keys a kind takes besides "kind" are its builder's parameters after grid
M0_BUILDERS = {"uniform": uniform_density, "vonmises": von_mises_density, "twobump": two_bump_density}

# top-level config keys, the coupling paths' first parts among them; any other key is a config error
CONFIG_KEYS = frozenset({"model", "grid", "mode", "m0", "output_dir", "diagnostics", "seed"}).union(
    path.split(".")[0] for path in COUPLING_PATHS
)


class ConfigError(ValueError):
    def __init__(self, field_name: str, reason: str):
        super().__init__(f"config field {field_name!r}: {reason}")
        self.field_name = field_name
        self.reason = reason


@dataclass(frozen=True)
class RunConfig:
    """Validated run description, deserialized from a JSON config file: the
    model and initial density it describes, built once; the grid is
    m0.grid.  The one owner of the run keys' defaults and rules: a refused
    value is a grid.FieldError."""

    spec: ModelSpec
    m0: DensityField
    coupling: CouplingConfig  # time grid, discount or discount sequence, tolerances, strategy
    output_dir: str = "out"
    diagnostics: bool = False
    seed: int = 0

    def __post_init__(self) -> None:
        if self.seed < 0:
            raise FieldError("seed", f"must be nonnegative, got {self.seed}")

    @property
    def mode(self) -> str:  # "ergodic" exactly when the coupling has a discount sequence
        return "ergodic" if self.coupling.rho_sequence else "discounted"


_REQUIRED = object()


def _require_object(payload) -> None:
    """A config whose top level is not a JSON object is a ConfigError."""
    if not isinstance(payload, dict):
        raise ConfigError("json", "the top level must be an object")


def _get(payload: dict, key, kind, where: str = "", default=_REQUIRED):
    """payload[key] checked to be a kind, or default if the key is absent.

    A float field also takes an int; no numeric field takes a bool, and a
    float field takes no NaN or infinity (JSON's NaN and Infinity tokens).  A
    missing key without a default, or a value of another type, is a
    ConfigError naming the field.
    """
    name = f"{where}.{key}" if where else str(key)
    if key not in payload:
        if default is _REQUIRED:
            raise ConfigError(name, "missing")
        return default
    value = payload[key]
    if kind is float and isinstance(value, int) and not isinstance(value, bool):
        value = float(value)
    if not isinstance(value, kind) or (isinstance(value, bool) and kind is not bool):
        raise ConfigError(name, f"expected {kind.__name__}")
    if kind is float and not np.isfinite(value):
        raise ConfigError(name, "must be finite")
    return value


def _known(section: dict, paths, where: str = "") -> dict:
    """section, the object at config path where, whose keys' paths must all
    be in paths: any other key is a ConfigError under its path."""
    for key in section:
        path = f"{where}.{key}" if where else str(key)
        if path not in paths:
            raise ConfigError(path, "unknown config key")
    return section


def _floats(payload: dict, key, where: str, length: int) -> list:
    """payload[key] checked to be a list of length floats."""
    values = _get(payload, key, list, where)
    if len(values) != length:
        raise ConfigError(f"{where}.{key}", f"expected a list of {length} numbers")
    items = dict(enumerate(values))
    return [_get(items, i, float, f"{where}.{key}") for i in items]


def _m0_params(m0_cfg: dict, kind: str, d: int) -> dict:
    """The typed parameters of an m0 section; a key the kind does not take is
    a ConfigError naming it."""
    accepted = list(inspect.signature(M0_BUILDERS[kind]).parameters)[1:]
    for key in m0_cfg:
        if key != "kind" and key not in accepted:
            raise ConfigError(f"m0.{key}", f"not a parameter of m0 kind {kind!r}")
    params = {}
    if "concentration" in m0_cfg:
        params["concentration"] = _get(m0_cfg, "concentration", float, "m0")
    if "centers" in m0_cfg:
        params["centers"] = _floats(m0_cfg, "centers", "m0", 2)
    if isinstance(m0_cfg.get("center"), list):
        params["center"] = _floats(m0_cfg, "center", "m0", d)
    elif "center" in m0_cfg:
        params["center"] = _get(m0_cfg, "center", float, "m0")
    return params


def _coupling(payload: dict, mode: str) -> CouplingConfig:
    """The CouplingConfig of a config: each path of COUPLING_PATHS the config
    sets, read as its field's type (a field without a default must be set),
    and in ergodic mode the sequence rho0 * factor**k, k < count.  A value
    CouplingConfig refuses is a ConfigError under its path."""
    sections = {
        "": payload,
        "time": _known(_get(payload, "time", dict), COUPLING_PATHS, "time"),
        "tolerances": _known(_get(payload, "tolerances", dict, default={}), COUPLING_PATHS, "tolerances"),
    }
    kinds = typing.get_type_hints(CouplingConfig)
    required = {f.name for f in fields(CouplingConfig) if f.default is MISSING}
    values = {}
    for path, name in COUPLING_PATHS.items():
        where, _, key = path.rpartition(".")
        if name != "rho_sequence" and (key in sections[where] or name in required):
            values[name] = _get(sections[where], key, kinds[name], where)
    if mode == "ergodic":
        seq_paths = ("rho_sequence.rho0", "rho_sequence.factor", "rho_sequence.count")
        seq_cfg = _known(_get(payload, "rho_sequence", dict), seq_paths, "rho_sequence")
        rho0 = _get(seq_cfg, "rho0", float, "rho_sequence", 1.0)
        factor = _get(seq_cfg, "factor", float, "rho_sequence", 0.5)
        count = _get(seq_cfg, "count", int, "rho_sequence", 10)
        if not (0 < factor < 1):
            raise ConfigError("rho_sequence.factor", "must lie in (0, 1)")
        if count < 2:
            raise ConfigError("rho_sequence.count", "must be at least 2")
        values["rho_sequence"] = tuple(rho0 * factor**k for k in range(count))
    try:
        return CouplingConfig(**values)
    except FieldError as exc:
        raise ConfigError({name: path for path, name in COUPLING_PATHS.items()}[exc.field], exc.reason)


def parse_config(payload: dict) -> RunConfig:
    _require_object(payload)
    _known(payload, CONFIG_KEYS)
    model = _get(payload, "model", dict)
    name = _get(model, "name", str, "model")
    if name not in MODEL_BUILDERS:
        raise ConfigError("model.name", f"unknown model {name!r}; choose from {sorted(MODEL_BUILDERS)}")
    params = _get(model, "params", dict, "model", {})
    if "d" in params:
        raise ConfigError("model.params.d", "the dimension is set through grid.d")
    accepted = inspect.signature(MODEL_BUILDERS[name]).parameters
    for key in params:
        if key not in accepted:
            raise ConfigError(f"model.params.{key}", f"not a parameter of model {name!r}")
    params = {key: _get(params, key, type(accepted[key].default), "model.params") for key in params}

    grid_cfg = _known(_get(payload, "grid", dict), ("grid.d", "grid.n"), "grid")
    try:
        grid = Grid(_get(grid_cfg, "d", int, "grid"), _get(grid_cfg, "n", int, "grid"))
    except FieldError as exc:
        raise ConfigError(f"grid.{exc.field}", exc.reason)
    try:
        spec = MODEL_BUILDERS[name](d=grid.d, **params)
    except (TypeError, ValueError) as exc:
        raise ConfigError("model.params", str(exc))

    mode = _get(payload, "mode", str, default="discounted")
    if mode not in ("discounted", "ergodic"):
        raise ConfigError("mode", "must be 'discounted' or 'ergodic'")
    if mode == "discounted":
        for key in ("rho_sequence", "full_sequence"):
            if key in payload:
                raise ConfigError(key, "only ergodic mode reads it")
    elif "rho" in payload:
        raise ConfigError("rho", "only discounted mode reads it")
    coupling = _coupling(payload, mode)
    if spec.kind != "instant" and coupling.strategy != "psi":
        raise ConfigError("strategy", "history models require strategy 'psi'")

    m0_cfg = _get(payload, "m0", dict, default={})
    m0_kind = _get(m0_cfg, "kind", str, "m0", "uniform")
    if m0_kind not in M0_BUILDERS:
        raise ConfigError("m0.kind", "must be 'uniform', 'vonmises', or 'twobump'")
    m0_params = _m0_params(m0_cfg, m0_kind, grid.d)
    try:  # a density that overflows is non-finite, which its builder rejects
        with np.errstate(over="ignore", invalid="ignore"):
            m0 = M0_BUILDERS[m0_kind](grid, **m0_params)
    except ValueError as exc:
        raise ConfigError("m0", str(exc))

    kinds = typing.get_type_hints(RunConfig)
    options = {key: _get(payload, key, kinds[key]) for key in ("output_dir", "diagnostics", "seed") if key in payload}
    try:
        return RunConfig(spec=spec, m0=m0, coupling=coupling, **options)
    except FieldError as exc:
        raise ConfigError(exc.field, exc.reason)


def _read_config(path: str):
    """The JSON value in the config file at path: a file that cannot be read
    is a ConfigError naming 'path', one that is not UTF-8 JSON 'json'."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise ConfigError("path", f"cannot read config file: {exc}")
    except ValueError as exc:  # json.JSONDecodeError or UnicodeDecodeError
        raise ConfigError("json", f"config is not valid UTF-8 JSON: {exc}")


def load_config(path: str) -> RunConfig:
    return parse_config(_read_config(path))


def _write_csv(path: Path, header: str, rows) -> None:
    """A header line, then one line per row: string cells as given, numbers
    with 17 significant digits, which round-trip doubles."""
    with open(path, "w", encoding="ascii") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(c if isinstance(c, str) else format(c, ".17g") for c in row) + "\n")


def _write_trajectory_bin(path: Path, times, densities) -> None:
    """A JSON header line, then the C-order float64 bytes of the stacked
    densities on the uniform time grid times."""
    grid = densities[0].grid
    header = dict(d=grid.d, n=grid.n, dt=float(times[1] - times[0]), T=float(times[-1]), steps=len(densities) - 1)
    with open(path, "wb") as fh:
        fh.write((json.dumps(header) + "\n").encode("ascii") + np.stack([m.values for m in densities]).tobytes())


def _trajectory_rows(times, fields):
    """(t, node, value) rows of one flat (n^d,) array per time."""
    return ((t, node, v) for t, f in zip(times, fields) for node, v in enumerate(f))


def _write_outputs(cfg: RunConfig, sol: TrajectorySolution, kset: dict, out: Path, elapsed: float) -> None:
    """Write the run's files into out: kset is the solution's regularity
    report and elapsed the solve's time in seconds."""
    out.mkdir(parents=True, exist_ok=True)
    _write_csv(out / "trajectory_m.csv", "t,node,value", _trajectory_rows(sol.times, [m.values for m in sol.m]))
    _write_trajectory_bin(out / "trajectory_m.bin", sol.times, sol.m)
    _write_csv(out / "trajectory_u.csv", "t,node,value", _trajectory_rows(sol.times, sol.u))
    _write_csv(out / "convergence.csv", "iteration,outer_error,slice", sol.outer_errors)
    d, k = sol.mu[0].x.shape[1], sol.mu[0].a.shape[1]
    _write_csv(
        out / "mu.csv",
        ",".join(["t", *(f"x{i}" for i in range(d)), *(f"a{i}" for i in range(k)), "w"]),
        ((t, *x, *a, w) for t, nu in zip(sol.times, sol.mu) for x, a, w in zip(nu.x, nu.a, nu.w)),
    )
    if sol.lam is not None:
        _write_csv(out / "lambda.csv", "t,lambda", zip(sol.times, sol.lam))
    if cfg.diagnostics:
        grid = sol.m[0].grid
        _write_csv(
            out / "u_final.csv",
            ",".join(["i", "j"][: grid.d] + ["value"]),
            ((*idx, v) for idx, v in np.ndenumerate(sol.u[-1].reshape(grid.shape))),
        )
        histories = sol.diagnostics["hjb_residual_histories"]
        _write_csv(
            out / "hjb_residuals.csv",
            "t,iteration,residual",
            ((t, it, res) for t, hist in zip(sol.times, histories) for it, res in enumerate(hist, start=1)),
        )

    summary = {
        "model": cfg.spec.name,
        "mode": cfg.mode,
        "strategy": cfg.coupling.strategy,
        "converged": bool(sol.converged),
        "failures": sol.diagnostics["failures"],
        "outer_iterations": sol.diagnostics["outer_iterations"],
        "final_outer_error": sol.diagnostics["final_outer_error"],
        "hjb_residual_max": float(sol.hjb_residuals.max()),
        "mu_residual_max": float(sol.mu_residuals.max()),
        "mass_error_max": max(abs(m.mass() - 1.0) for m in sol.m),
        "empirical_constants": kset,
        "ergodic": {
            key: sol.diagnostics.get(key)
            for key in (
                "rho_sequence", "level_outer_iterations", "increments", "direct_gap_max", "ergodic_residual_max",
                "achieved_increment",
            )
            if key in sol.diagnostics
        },
        "timing_seconds": elapsed,
    }
    (out / "summary.json").write_text(json.dumps(summary, indent=2, sort_keys=True))


def _solve_and_write(cfg: RunConfig) -> TrajectorySolution | None:
    """Solve one validated config, measure its regularity report and write
    its outputs; the run path shared by run and sweep.  A failure of the
    solve or the report is reported, writes nothing and returns None."""
    started = time.perf_counter()
    try:
        sol = solve_system(cfg.spec, cfg.m0, cfg.coupling)
        elapsed = time.perf_counter() - started
        kset = regularity_report(sol, spec=cfg.spec, seed=cfg.seed)
    except (RuntimeError, ValueError) as exc:
        print(f"error: solver failed, no outputs in {cfg.output_dir}: {exc}", file=sys.stderr)
        return None
    _write_outputs(cfg, sol, kset, Path(cfg.output_dir), elapsed)
    return sol


def run(config_path: str) -> int:
    try:
        cfg = load_config(config_path)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    sol = _solve_and_write(cfg)
    if sol is None:
        return EXIT_NO_CONVERGENCE
    if not sol.converged:
        failures = ", ".join(sol.diagnostics["failures"])
        print(f"warning: tolerances not met ({failures}); logs written", file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    print(f"ok: {cfg.mode}/{cfg.coupling.strategy} run converged; outputs in {cfg.output_dir}")
    return EXIT_OK


def validate(config_path: str) -> int:
    try:
        cfg = load_config(config_path)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    report = check_model(cfg.spec, cfg.m0.grid, seed=cfg.seed)
    print(json.dumps(report, indent=2, sort_keys=True))
    return EXIT_OK


def _set_path(payload: dict, dotted: str, value) -> None:
    parts = dotted.split(".")
    node = payload
    for p in parts[:-1]:
        node = node.setdefault(p, {})
        if not isinstance(node, dict):
            raise ConfigError(dotted, f"{p!r} is not an object")
    node[parts[-1]] = value


def _sweep_points(payload) -> tuple[Path, list[tuple[str, RunConfig]]]:
    """The output directory of a sweep config and the (tag, config) of each
    of its points, every point validated before any is solved; a malformed
    sweep or an invalid point is a ConfigError."""
    _require_object(payload)
    sweep_spec = _get(payload, "sweep", dict)
    if not sweep_spec:
        raise ConfigError("sweep", "must not be empty")
    keys = sorted(sweep_spec)
    axes = [_get(sweep_spec, k, list, "sweep") for k in keys]
    for k, values in zip(keys, axes):
        if not values:
            raise ConfigError(f"sweep.{k}", "must not be empty")
    base_out = Path(_get(payload, "output_dir", str, default=RunConfig.output_dir))
    base = {k: v for k, v in payload.items() if k != "sweep"}
    points = []
    for combo in itertools.product(*axes):
        point = json.loads(json.dumps(base))  # deep copy
        tag = "_".join(f"{k.split('.')[-1]}={v}" for k, v in zip(keys, combo))
        for k, v in zip(keys, combo):
            _set_path(point, k, v)
        point["output_dir"] = str(base_out / tag)
        points.append((tag, parse_config(point)))
    return base_out, points


def sweep(config_path: str) -> int:
    """Cartesian sweep: the config carries a "sweep" object mapping dotted
    parameter paths to value lists; one summary row is emitted per solved
    point.  A point whose solve fails is reported on stderr and has no row."""
    try:
        base_out, points = _sweep_points(_read_config(config_path))
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    rows = []
    any_failed = False
    for tag, cfg in points:
        sol = _solve_and_write(cfg)
        any_failed |= sol is None or not sol.converged
        if sol is None:
            continue
        diagnostics = sol.diagnostics
        rows.append((tag, int(sol.converged), diagnostics["outer_iterations"], diagnostics["final_outer_error"]))
    base_out.mkdir(parents=True, exist_ok=True)
    _write_csv(base_out / "sweep_summary.csv", "point,converged,outer_iterations,final_outer_error", rows)
    print(f"sweep finished: {len(rows)} points, summary in {base_out / 'sweep_summary.csv'}")
    return EXIT_NO_CONVERGENCE if any_failed else EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="qsmfg",
        description="Quasi-stationary mean field games of controls: solvers and diagnostics",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("run", "execute the solve described by a JSON config"),
        ("validate", "run the model spot-checks without solving"),
        ("sweep", "Cartesian parameter sweep over a base config"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("config", help="path to the JSON config file")
    args = parser.parse_args(argv)
    if args.command == "run":
        return run(args.config)
    if args.command == "validate":
        return validate(args.config)
    return sweep(args.config)


if __name__ == "__main__":
    sys.exit(main())
