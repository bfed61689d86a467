"""The benchmark tracer's wrap targets exist in qsmfg, and its counters read
what qsmfg returns.

perfbench/tracing.py wraps qsmfg functions at the module-level names their
callers imported (``from .hjb import solve_discounted`` in qsmfg.coupling,
for example), and its counters read attributes and diagnostics keys of the
results.  A caller that stops importing such a name, or a result that
renames such a field, would only show in the slow perfbench suite (a renamed
diagnostics key silently counts 0); these tests load the tracer by path,
check every target with a stub that records, and feed the counters real
solver results.  They patch nothing.
"""

import importlib
import importlib.util
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np

from qsmfg.coupling import (
    CouplingConfig,
    solve_field_iteration,
    solve_joint_measure,
    solve_measure_iteration,
    solve_vanishing_discount,
)
from qsmfg.grid import Grid
from qsmfg.hjb import solve_discounted, solve_ergodic
from qsmfg.measure import two_bump_density
from qsmfg.model import example_one

TRACING = Path(__file__).parent.parent / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


class _RecordingTracer:
    def __init__(self):
        self.targets = []

    def wrap(self, module, attr, name, before=None, after=None, failed=None):
        self.targets.append((module, attr))


def test_every_traced_name_is_a_callable_of_its_module():
    stub = _RecordingTracer()
    _tracing().install(stub)
    for attr in (
        "solve_joint_measure", "solve_discounted", "equation_residual",
        "policy_field", "pushforward", "wasserstein1_joint", "wasserstein1_state",
    ):
        assert ("qsmfg.coupling", attr) in stub.targets
    for module, attr in stub.targets:
        assert callable(getattr(importlib.import_module(module), attr, None)), f"{module}.{attr}"


def test_counters_read_the_solvers_results():
    tracing = _tracing()
    grid = Grid(1, 16)
    spec = example_one(d=1, delta=1.0, eps=0.05, kappa=0.05, potential=0.3)
    m0 = two_bump_density(grid)
    cfg = CouplingConfig(T=0.1, dt=0.05, outer_tol=1e-9, inner_tol=1e-10, hjb_tol=1e-12)
    gamma = solve_field_iteration(spec, m0, cfg)
    psi = solve_measure_iteration(spec, m0, replace(cfg, strategy="psi"))
    ergodic = solve_vanishing_discount(spec, m0, replace(cfg, rho_sequence=(1.0, 0.5), full_sequence=True))
    counts = Counter()

    # one outer pass per logged error, summed over both strategies
    tracing._count_outer(counts, gamma)
    tracing._count_outer(counts, psi)
    assert counts["coupling.outer_iterations"] == len(gamma.outer_errors) + len(psi.outer_errors) > 1
    # the ergodic driver ran both levels, each with at least one pass
    tracing._count_levels(counts, ergodic)
    assert counts["coupling.vanishing.levels"] == 2
    counts["coupling.outer_iterations"] = 0
    tracing._count_outer(counts, ergodic)
    assert counts["coupling.outer_iterations"] > len(ergodic.outer_errors) >= 1

    # HJB solves in the runs' measures: a converged one, an ergodic one, and
    # one stopped after two iterations
    x = grid.coordinates()
    solved = solve_discounted(spec, spec.coefficients(x, psi.mu[0]), cfg.rho, grid, tol=cfg.hjb_tol)
    direct = solve_ergodic(spec, spec.coefficients(x, ergodic.mu[-1]), grid, tol=cfg.hjb_tol)
    stopped = solve_discounted(spec, spec.coefficients(x, gamma.mu[-1]), cfg.rho, grid, tol=1e-17, max_iter=2)
    for sol in (solved, direct, stopped):
        tracing._count_hjb(counts, sol)
    assert solved.converged and direct.converged and not stopped.converged
    want = len(solved.residual_history) + len(direct.residual_history) + 2
    assert counts["hjb.policy_iterations"] == want
    assert counts["hjb.unconverged"] == 1

    # joint-measure fixed points on gamma's last density, for a smooth
    # gradient: converged, damped (R L0 / delta = 3), and stopped at a
    # one-step budget
    x = grid.axis_coordinates()
    du = (0.5 + 0.3 * np.sin(2 * np.pi * (x - 0.3)))[:, None]
    supercritical = example_one(d=1, delta=0.2, eps=3.0, kappa=0.0)
    results = (
        solve_joint_measure(gamma.m[-1], du, spec, tol=cfg.inner_tol),
        solve_joint_measure(gamma.m[-1], du, supercritical, tol=1e-9, max_iter=10),
        solve_joint_measure(gamma.m[-1], du, spec, tol=1e-17, max_iter=1),
    )
    for res in results:
        tracing._count_joint_fp(counts, res)
    assert [(res.converged, res.damped) for res in results] == [(True, False), (True, True), (False, False)]
    assert counts["coupling.joint_fp.iterations"] == sum(len(res.increments) for res in results) > 3
    assert counts["coupling.joint_fp.unconverged"] == 1
    assert counts["coupling.joint_fp.damped"] == 1
