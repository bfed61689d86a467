"""Config-driven experiment runner: run, validate, and sweep subcommands.

Configs are single JSON files; outputs are data-only (CSV, compact binary,
summary JSON) for external plotting.  Exit codes: 0 success, every tolerance
met; 2 config error; 3 solver failure, or a run that missed a tolerance (logs
are still written, and summary.json names the failed checks).
"""

from __future__ import annotations

import argparse
import inspect
import itertools
import json
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .coupling import (
    CouplingConfig,
    TrajectorySolution,
    regularity_report,
    solve_system,
)
from .grid import Grid
from .measure import DensityField, two_bump_density, uniform_density, von_mises_density
from .model import MODEL_BUILDERS, ModelSpec, build_model, check_model

__all__ = ["RunConfig", "ConfigError", "load_config", "run", "validate", "sweep", "main"]

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NO_CONVERGENCE = 3

# config "tolerances" keys and the CouplingConfig fields they set
TOLERANCE_FIELDS = {"outer": "outer_tol", "inner": "inner_tol", "hjb": "hjb_tol", "ergodic": "ergodic_tol"}

# initial-density kinds and their builders, called as builder(grid, **m0_params);
# the "m0" keys a kind takes besides "kind" are its builder's parameters after grid
M0_BUILDERS = {"uniform": uniform_density, "vonmises": von_mises_density, "twobump": two_bump_density}

# top-level config keys; any other key is a config error
CONFIG_KEYS = frozenset({
    "model", "grid", "time", "mode", "strategy", "rho", "rho_sequence", "full_sequence", "tolerances",
    "damping", "max_outer", "m0", "output_dir", "diagnostics", "seed",
})


class ConfigError(ValueError):
    def __init__(self, field_name: str, reason: str):
        super().__init__(f"config field {field_name!r}: {reason}")
        self.field_name = field_name
        self.reason = reason


@dataclass(frozen=True)
class RunConfig:
    """Validated run description, deserialized from a JSON config file."""

    model_name: str
    model_params: dict
    d: int
    n: int
    coupling: CouplingConfig  # time grid, discount or discount sequence, tolerances, strategy
    m0_kind: str = "uniform"
    m0_params: dict = field(default_factory=dict)
    output_dir: str = "out"
    diagnostics: bool = False
    seed: int = 0

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

    A float field also takes an int; no numeric field takes a bool.  A missing
    key without a default, or a value of another type, is a ConfigError
    naming the field.
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
    return value


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


def parse_config(payload: dict) -> RunConfig:
    _require_object(payload)
    for key in payload:
        if key not in CONFIG_KEYS:
            raise ConfigError(key, "unknown config key")
    model = _get(payload, "model", dict)
    name = _get(model, "name", str, "model")
    if name not in MODEL_BUILDERS:
        raise ConfigError("model.name", f"unknown model {name!r}; choose from {sorted(MODEL_BUILDERS)}")
    params = dict(_get(model, "params", dict, "model", {}))
    if "d" in params:
        raise ConfigError("model.params.d", "the dimension is set through grid.d")
    accepted = inspect.signature(MODEL_BUILDERS[name]).parameters
    for key in params:
        if key not in accepted:
            raise ConfigError(f"model.params.{key}", f"not a parameter of model {name!r}")

    grid_cfg = _get(payload, "grid", dict)
    d = _get(grid_cfg, "d", int, "grid")
    n = _get(grid_cfg, "n", int, "grid")
    if d not in (1, 2):
        raise ConfigError("grid.d", "must be 1 or 2")
    if n < 8:
        raise ConfigError("grid.n", "must be at least 8")
    try:
        spec = build_model(name, d=d, **params)
    except (TypeError, ValueError) as exc:
        raise ConfigError("model.params", str(exc))

    time_cfg = _get(payload, "time", dict)
    T = _get(time_cfg, "T", float, "time")
    dt = _get(time_cfg, "dt", float, "time")
    if T <= 0:
        raise ConfigError("time.T", "must be positive")
    if dt <= 0:
        raise ConfigError("time.dt", "must be positive")
    if abs(round(T / dt) * dt - T) > 1e-9 * max(1.0, T):
        raise ConfigError("time.dt", "T must be an integer multiple of dt")

    mode = _get(payload, "mode", str, default="discounted")
    if mode not in ("discounted", "ergodic"):
        raise ConfigError("mode", "must be 'discounted' or 'ergodic'")
    strategy = _get(payload, "strategy", str, default="gamma")
    if strategy not in ("gamma", "psi"):
        raise ConfigError("strategy", "must be 'gamma' or 'psi'")
    if spec.kind != "instant" and strategy != "psi":
        raise ConfigError("strategy", "history models require strategy 'psi'")

    rho = _get(payload, "rho", float, default=1.0)
    if mode == "discounted" and rho <= 0:
        raise ConfigError("rho", "discounted mode requires rho > 0")

    rho_sequence: tuple[float, ...] = ()
    if mode == "discounted":
        for key in ("rho_sequence", "full_sequence"):
            if key in payload:
                raise ConfigError(key, "only ergodic mode reads it")
    else:
        seq_cfg = _get(payload, "rho_sequence", dict)
        rho0 = _get(seq_cfg, "rho0", float, "rho_sequence", 1.0)
        factor = _get(seq_cfg, "factor", float, "rho_sequence", 0.5)
        count = _get(seq_cfg, "count", int, "rho_sequence", 10)
        if not (0 < factor < 1):
            raise ConfigError("rho_sequence.factor", "must lie in (0, 1)")
        if count < 2:
            raise ConfigError("rho_sequence.count", "must be at least 2")
        rho_sequence = tuple(rho0 * factor**k for k in range(count))
        if not all(0.0 < b < a < np.inf for a, b in zip(rho_sequence, rho_sequence[1:])):
            raise ConfigError("rho_sequence", "discounts must be finite, positive and strictly decreasing")

    tols = _get(payload, "tolerances", dict, default={})
    for key in tols:
        if key not in TOLERANCE_FIELDS:
            raise ConfigError(f"tolerances.{key}", "unknown tolerance")
        if _get(tols, key, float, "tolerances") <= 0:
            raise ConfigError(f"tolerances.{key}", "must be positive")
    damping = _get(payload, "damping", float, default=0.5)
    if not (0 < damping <= 1):
        raise ConfigError("damping", "must lie in (0, 1]")
    max_outer = _get(payload, "max_outer", int, default=40)
    if max_outer < 1:
        raise ConfigError("max_outer", "must be at least 1")

    seed = _get(payload, "seed", int, default=0)
    if seed < 0:
        raise ConfigError("seed", "must be nonnegative")

    m0_cfg = _get(payload, "m0", dict, default={"kind": "uniform"})
    m0_kind = _get(m0_cfg, "kind", str, "m0", "uniform")
    if m0_kind not in M0_BUILDERS:
        raise ConfigError("m0.kind", "must be 'uniform', 'vonmises', or 'twobump'")

    return RunConfig(
        model_name=name,
        model_params=params,
        d=d,
        n=n,
        coupling=CouplingConfig(
            T=T,
            dt=dt,
            rho=rho,
            max_outer=max_outer,
            damping=damping,
            strategy=strategy,
            rho_sequence=rho_sequence,
            full_sequence=_get(payload, "full_sequence", bool, default=False),
            **{TOLERANCE_FIELDS[key]: float(value) for key, value in tols.items()},
        ),
        m0_kind=m0_kind,
        m0_params=_m0_params(m0_cfg, m0_kind, d),
        output_dir=_get(payload, "output_dir", str, default="out"),
        diagnostics=_get(payload, "diagnostics", bool, default=False),
        seed=seed,
    )


def load_config(path: str) -> RunConfig:
    try:
        payload = json.loads(Path(path).read_text())
    except FileNotFoundError:
        raise ConfigError("path", f"config file {path!r} not found")
    except json.JSONDecodeError as exc:
        raise ConfigError("json", f"config is not valid JSON: {exc}")
    return parse_config(payload)


def build_initial_density(cfg: RunConfig, grid: Grid) -> DensityField:
    return M0_BUILDERS[cfg.m0_kind](grid, **cfg.m0_params)


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


def _write_outputs(cfg: RunConfig, spec: ModelSpec, sol: TrajectorySolution, out: Path, elapsed: float) -> None:
    out.mkdir(parents=True, exist_ok=True)
    _write_csv(out / "trajectory_m.csv", "t,node,value", _trajectory_rows(sol.times, [m.values for m in sol.m]))
    _write_trajectory_bin(out / "trajectory_m.bin", sol.times, sol.m)
    _write_csv(out / "trajectory_u.csv", "t,node,value", _trajectory_rows(sol.times, sol.u))
    _write_csv(
        out / "convergence.csv",
        "iteration,outer_error,component_errors",
        ((k, err, ";".join(format(v, ".17g") for v in comps)) for k, err, *comps in sol.outer_errors),
    )
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
        histories = sol.diagnostics.get("hjb_residual_histories", ())
        _write_csv(
            out / "hjb_residuals.csv",
            "t,iteration,residual",
            ((t, it, res) for t, hist in zip(sol.times, histories) for it, res in enumerate(hist, start=1)),
        )

    kset = regularity_report(sol, spec=spec, seed=cfg.seed)
    summary = {
        "model": cfg.model_name,
        "mode": cfg.mode,
        "strategy": cfg.coupling.strategy,
        "converged": bool(sol.converged),
        "failures": sol.diagnostics["failures"],
        "outer_iterations": int(sol.diagnostics.get("outer_iterations", 0)),
        "final_outer_error": sol.diagnostics.get("final_outer_error"),
        "hjb_residual_max": float(sol.hjb_residuals.max()) if sol.hjb_residuals.size else None,
        "mu_residual_max": float(sol.mu_residuals.max()) if sol.mu_residuals.size else None,
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
    """Solve one validated config and write its outputs; the run path shared
    by run and sweep.  A solver failure is reported and returns None."""
    started = time.perf_counter()
    grid = Grid(cfg.d, cfg.n)
    spec = build_model(cfg.model_name, d=cfg.d, **cfg.model_params)
    m0 = build_initial_density(cfg, grid)
    try:
        sol = solve_system(spec, m0, cfg.coupling)
    except (RuntimeError, ValueError) as exc:
        print(f"error: solver failed, no outputs in {cfg.output_dir}: {exc}", file=sys.stderr)
        return None
    _write_outputs(cfg, spec, sol, Path(cfg.output_dir), time.perf_counter() - started)
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
    grid = Grid(cfg.d, cfg.n)
    spec = build_model(cfg.model_name, d=cfg.d, **cfg.model_params)
    report = check_model(spec, grid, seed=cfg.seed)
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
    base_out = Path(_get(payload, "output_dir", str, default="out"))
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
        payload = json.loads(Path(config_path).read_text())
    except (FileNotFoundError, json.JSONDecodeError) as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        base_out, points = _sweep_points(payload)
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
        rows.append(
            (tag, int(sol.converged), int(sol.diagnostics.get("outer_iterations", 0)),
             sol.diagnostics.get("final_outer_error"))
        )
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
