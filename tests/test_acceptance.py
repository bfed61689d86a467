"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Criteria that quantify converged coupled runs share the module-scoped
runs below; every tolerance is the one stated in the criterion.
"""

import functools

import numpy as np
import pytest
import scipy.linalg

from qsmfg.coupling import (
    CouplingConfig,
    regularity_report,
    solve_field_iteration,
    solve_joint_measure,
    solve_measure_iteration,
    solve_vanishing_discount,
)
from qsmfg.fp import fp_evolve, fp_step, transport_generator
from qsmfg.grid import Grid, gradient_central
from qsmfg.hjb import solve_discounted, solve_ergodic, value_function
from qsmfg.measure import (
    DensityField,
    JointMeasure,
    pushforward,
    two_bump_density,
    uniform_density,
    von_mises_density,
    wasserstein1_joint,
    wasserstein1_state,
)
from qsmfg.model import (
    ControlSet,
    ModelSpec,
    brute_force_argmax,
    example_one,
    hamiltonian_gradient_p,
    hamiltonian_value,
    optimal_control,
    policy_field,
    separated_cost,
    slice_measure,
)

GRID = Grid(1, 32)
WEAK = dict(delta=1.0, eps=0.05, kappa=0.05, potential=0.3)


def criterion(num, desc):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"\nFAIL  criterion {num:2d}: {desc}")
                raise
            print(f"\nPASS  criterion {num:2d}: {desc}")

        return wrapper

    return deco


def _random_density(grid, seed):
    rng = np.random.default_rng(seed)
    vals = 1.0 + rng.uniform(-0.5, 0.5, grid.size)
    return DensityField.from_values(grid, vals)


def _measure(seed, n_atoms=24):
    rng = np.random.default_rng(seed)
    x = rng.random((n_atoms, 1))
    a = rng.uniform(-0.8, 0.8, (n_atoms, 1))
    w = rng.random(n_atoms)
    return JointMeasure(x, a, w / w.sum())


# ---------------------------------------------------------------------------
# shared converged runs


@pytest.fixture(scope="module")
def weak_gamma():
    spec = example_one(d=1, **WEAK)
    cfg = CouplingConfig(T=0.5, dt=0.05, rho=1.0, outer_tol=1e-9, inner_tol=1e-9, hjb_tol=1e-12)
    sol = solve_field_iteration(spec, two_bump_density(GRID), cfg)
    assert sol.converged
    return spec, cfg, sol


@pytest.fixture(scope="module")
def weak_gamma_fine(weak_gamma):
    spec, cfg, _ = weak_gamma
    fine = CouplingConfig(
        T=cfg.T, dt=cfg.dt / 2, rho=cfg.rho, outer_tol=cfg.outer_tol,
        inner_tol=cfg.inner_tol, hjb_tol=cfg.hjb_tol,
    )
    sol = solve_field_iteration(spec, two_bump_density(GRID), fine)
    assert sol.converged
    return spec, fine, sol


@pytest.fixture(scope="module")
def weak_psi(weak_gamma):
    spec, cfg, _ = weak_gamma
    psi_cfg = CouplingConfig(
        T=cfg.T, dt=cfg.dt, rho=cfg.rho, outer_tol=cfg.outer_tol,
        inner_tol=cfg.inner_tol, hjb_tol=cfg.hjb_tol, strategy="psi",
    )
    sol = solve_measure_iteration(spec, two_bump_density(GRID), psi_cfg)
    assert sol.converged
    return spec, psi_cfg, sol


@pytest.fixture(scope="module")
def converged_runs(weak_gamma, weak_gamma_fine, weak_psi):
    return [weak_gamma, weak_gamma_fine, weak_psi]


# ---------------------------------------------------------------------------


@criterion(1, "FP mass conservation and positivity over 1000 random-drift steps")
def test_criterion_01_mass_positivity():
    rng = np.random.default_rng(0)
    m = von_mises_density(GRID, 0.3, 6.0)
    for _ in range(1000):
        g = rng.uniform(-5.0, 5.0, GRID.size)[:, None]
        m = fp_step(m, g, 0.01)  # raises if the pre-normalization drift > 1e-12
        assert abs(m.mass() - 1.0) <= 1e-12
        assert m.values.min() >= -1e-13


@criterion(2, "heat flow matches the matrix-exponential oracle at first order")
def test_criterion_02_heat_oracle():
    m0 = von_mises_density(GRID, 0.5, 8.0)
    T = 0.02
    n, h = GRID.n, GRID.h
    dense = np.zeros((n, n))
    for i in range(n):
        dense[i, i] = -2.0 / h**2
        dense[i, (i + 1) % n] = 1.0 / h**2
        dense[i, (i - 1) % n] = 1.0 / h**2
    exact = scipy.linalg.expm(T * dense) @ m0.values
    errors = {}
    for n_steps in (8, 16):
        dt = T / n_steps
        traj = fp_evolve(m0, [np.zeros((GRID.size, 1))] * n_steps, dt)
        errors[n_steps] = np.abs(traj[-1].values - exact).max()
    ratio = errors[8] / errors[16]
    print(f"    first-order errors {errors[8]:.3e} -> {errors[16]:.3e}, ratio {ratio:.3f}")
    assert 1.7 <= ratio <= 2.3


@criterion(3, "HJB identities: constant cost, separated shift, ergodic coincidence")
def test_criterion_03_hjb_identities():
    grid = Grid(1, 64)
    # (a) b = 0, l = c: u == c / rho within 1e-11
    control = ControlSet(k=1, radius=1.0)
    const = ModelSpec(
        name="const", control=control,
        coefficients=lambda x, nu: (
            lambda a: np.zeros(np.broadcast_shapes(np.shape(x), np.shape(a))),
            lambda a: np.full(np.broadcast_shapes(np.shape(x), np.shape(a))[:-1], 2.0),
            lambda p: np.zeros(np.shape(p)),
        ),
    )
    x = grid.coordinates()
    sol = solve_discounted(const, const.coefficients(x, _measure(1)), 1.0, grid, tol=1e-13)
    assert np.abs(value_function(sol.w, sol.s, 1.0)[0] - 2.0).max() <= 1e-11

    # (b) separated cost: discounted shift (l1(nu1) - l1(nu2)) / rho within 1e-10
    spec = separated_cost(d=1, coupling_weight=0.5)
    nu1, nu2 = _measure(2), _measure(3)
    rho = 0.7
    bound1, bound2 = spec.coefficients(x, nu1), spec.coefficients(x, nu2)
    s1 = solve_discounted(spec, bound1, rho, grid, tol=1e-13)
    s2 = solve_discounted(spec, bound2, rho, grid, tol=1e-13)
    shift = 0.5 * (nu1.mean_control()[0] - nu2.mean_control()[0]) / rho
    u1, u2 = value_function(s1.w, s1.s, rho)[0], value_function(s2.w, s2.s, rho)[0]
    assert np.abs((u1 - u2) - shift).max() <= 1e-10

    # (c) ergodic separated cost: u independent of the measure within 1e-9
    e1 = solve_ergodic(spec, bound1, grid, tol=1e-13)
    e2 = solve_ergodic(spec, bound2, grid, tol=1e-13)
    assert np.abs(value_function(e1.w, e1.s, 0.0)[0] - value_function(e2.w, e2.s, 0.0)[0]).max() <= 1e-9


@criterion(4, "discount-scaled value bound rho*|u| <= sup|l| on every converged run")
def test_criterion_04_comparison_bound(converged_runs):
    for spec, cfg, sol in converged_runs:
        rep = regularity_report(sol, spec=spec, seed=1)
        assert rep["rho_u_sup"] <= rep["running_cost_sup"] + 1e-9


@criterion(5, "measure fixed-point contraction tracks the configured R*L0/delta")
def test_criterion_05_mu_contraction():
    for lam0, bound in ((0.5, 0.55), (0.1, 0.15)):
        spec = example_one(d=1, delta=1.0, eps=lam0, kappa=0.3)
        assert spec.control_lip_measure == pytest.approx(lam0)
        rates = []
        rng = np.random.default_rng(10)
        trials = 0
        while len(rates) < 20 and trials < 40:
            trials += 1
            m = _random_density(GRID, 100 + trials)
            x = GRID.axis_coordinates()
            vals = rng.uniform(0.25, 0.55) + 0.2 * np.sin(2 * np.pi * (x - rng.random()))
            du = vals[:, None]
            res = solve_joint_measure(m, du, spec, tol=1e-10, max_iter=400)
            assert res.converged
            if res.rate is not None:
                rates.append(res.rate)
        assert len(rates) >= 20
        print(f"    lambda0={lam0}: {len(rates)} rates, max {max(rates):.4f} (bound {bound})")
        assert max(rates) <= bound


@criterion(6, "per-slice measure fixed-point residual within the inner tolerance")
def test_criterion_06_fixed_point_residual(converged_runs):
    for spec, cfg, sol in converged_runs:
        for j in range(sol.n_slices):
            nu = slice_measure(spec, sol.times[: j + 1], sol.mu[: j + 1])
            grid = sol.m[j].grid
            coefficients = spec.coefficients(grid.coordinates(), nu)
            probe = policy_field(spec, grid, gradient_central(grid, sol.u[j]), coefficients)
            residual = wasserstein1_joint(sol.mu[j], pushforward(sol.m[j], probe))
            assert residual <= cfg.inner_tol, (j, residual)


@criterion(7, "Holder-1/2 ratios of m and mu finite and stable under dt halving")
def test_criterion_07_holder_ratios(weak_gamma, weak_gamma_fine):
    spec, cfg, sol = weak_gamma
    _, _, fine = weak_gamma_fine
    coarse_rep = regularity_report(sol, spec, seed=2)
    fine_rep = regularity_report(fine, spec, seed=2)
    for key in ("m_holder_half", "mu_holder_half"):
        rc, rf = coarse_rep[key], fine_rep[key]
        assert np.isfinite(rc) and np.isfinite(rf) and rc > 0 and rf > 0
        print(f"    {key}: dt={cfg.dt} -> {rc:.4f}, dt={cfg.dt/2} -> {rf:.4f}")
        assert 0.5 <= rc / rf <= 2.0


@criterion(8, "two-seed agreement under weak coupling; strong coupling reported")
def test_criterion_08_two_seed(weak_gamma):
    spec, cfg, sol = weak_gamma
    n_slices = sol.n_slices
    seed_u = [0.2 * np.cos(2 * np.pi * GRID.axis_coordinates())] * n_slices
    seed_m = [uniform_density(GRID)] * n_slices
    other = solve_field_iteration(spec, two_bump_density(GRID), cfg, initial=(seed_u, seed_m))
    assert other.converged

    def seed_gap(a, b):
        return max(
            np.abs(gradient_central(GRID, a.u[j]) - gradient_central(GRID, b.u[j])).max()
            + wasserstein1_state(a.m[j], b.m[j])
            for j in range(n_slices)
        )

    gap = seed_gap(sol, other)
    print(f"    weak-coupling two-seed gap {gap:.3e} (tolerance {10 * cfg.outer_tol:.1e})")
    assert gap <= 10 * cfg.outer_tol

    # strong coupling: report-only, no pass/fail on the gap
    strong = example_one(d=1, delta=0.5, eps=1.2, kappa=1.0, potential=0.8)
    strong_cfg = CouplingConfig(
        T=0.3, dt=0.1, rho=1.0, outer_tol=1e-9, inner_tol=1e-8,
        hjb_tol=1e-11, max_outer=6,
    )
    m0 = two_bump_density(GRID)
    a = solve_field_iteration(strong, m0, strong_cfg)
    b = solve_field_iteration(
        strong, m0, strong_cfg,
        initial=([seed_u[0]] * (strong_cfg.n_steps + 1), [uniform_density(GRID)] * (strong_cfg.n_steps + 1)),
    )
    strong_gap = max(
        np.abs(gradient_central(GRID, a.u[j]) - gradient_central(GRID, b.u[j])).max()
        + wasserstein1_state(a.m[j], b.m[j])
        for j in range(strong_cfg.n_steps + 1)
    )
    print(
        f"    strong-coupling (R L0/delta = {strong.control_lip_measure:.1f}) report: "
        f"two-seed gap {strong_gap:.3e}, converged=({a.converged}, {b.converged})"
    )


@criterion(9, "field-iteration and measure-iteration strategies agree")
def test_criterion_09_strategy_equivalence(weak_gamma, weak_psi):
    spec, cfg, gamma_sol = weak_gamma
    _, _, psi_sol = weak_psi
    gap = max(
        np.abs(gradient_central(GRID, gamma_sol.u[j]) - gradient_central(GRID, psi_sol.u[j])).max()
        + wasserstein1_state(gamma_sol.m[j], psi_sol.m[j])
        for j in range(gamma_sol.n_slices)
    )
    print(f"    strategy gap {gap:.3e} (tolerance {10 * cfg.outer_tol:.1e})")
    assert gap <= 10 * cfg.outer_tol


@criterion(10, "vanishing-discount increments decrease and match direct solves")
def test_criterion_10_vanishing_discount():
    spec = example_one(d=1, **WEAK)
    m0 = two_bump_density(GRID)
    cfg = CouplingConfig(
        T=0.2, dt=0.05, outer_tol=1e-9, inner_tol=1e-10, hjb_tol=1e-12,
        rho_sequence=tuple(2.0**-k for k in range(10)), ergodic_tol=5e-4,
        full_sequence=True,
    )
    sol = solve_vanishing_discount(spec, m0, cfg)
    assert sol.converged
    incs = sol.diagnostics["value_increments"]  # |lambda_k - lambda_{k+1}| + |w_k - w_{k+1}|_inf
    assert len(incs) == 9  # k = 0..8
    print("    |lambda|+|w| increments:", " ".join(f"{v:.2e}" for v in incs))
    assert all(b < a for a, b in zip(incs, incs[1:]))
    combined = sol.diagnostics["increments"]  # driver's stopping quantity (adds the W1(m) part)
    assert all(b < a for a, b in zip(combined, combined[1:]))
    gap = sol.diagnostics["direct_gap_max"]
    print(f"    direct ergodic gap {gap:.3e} (tolerance {10 * cfg.ergodic_tol:.1e})")
    assert gap <= 10 * cfg.ergodic_tol


@criterion(11, "exact transport engine: LP vs circle-CDF and hand-computed atoms")
def test_criterion_11_ot_engines():
    zeros = np.zeros((GRID.n, 1))
    worst = 0.0
    for seed in range(50):
        m1 = _random_density(GRID, 1000 + seed)
        m2 = _random_density(GRID, 2000 + seed)
        cdf = wasserstein1_state(m1, m2)
        lp = wasserstein1_joint(pushforward(m1, zeros), pushforward(m2, zeros))
        worst = max(worst, abs(cdf - lp))
    print(f"    max |LP - circleCDF| over 50 pairs: {worst:.2e}")
    assert worst <= 1e-8

    atom = lambda x, a: JointMeasure(np.array([[x]]), np.array([[a]]), np.array([1.0]))
    assert wasserstein1_joint(atom(0.1, 0.0), atom(0.35, 0.0)) == pytest.approx(0.25, abs=1e-12)
    assert wasserstein1_joint(atom(0.9, 0.2), atom(0.1, 0.5)) == pytest.approx(0.5, abs=1e-12)


@criterion(12, "closed-form maximizer and Hamiltonian match brute force and finite differences")
def test_criterion_12_closed_forms():
    spec = example_one(d=1, delta=1.0, eps=0.3, kappa=0.3, potential=0.2)
    rng = np.random.default_rng(12)
    nu = _measure(40)
    x = rng.random((200, 1))
    p = rng.uniform(-3.0, 3.0, (200, 1))

    mesh_points = 1001  # snaps to 1025
    spacing = 2.0 * spec.control.radius / 1024
    coefficients = spec.coefficients(x, nu)
    a_closed = optimal_control(spec, coefficients, p)
    a_brute = brute_force_argmax(spec, coefficients, p, mesh=mesh_points)
    assert np.abs(a_closed - a_brute).max() <= spacing

    h_closed = hamiltonian_value(spec, coefficients, p)
    drift, cost, _ = coefficients
    bv, lv = drift(a_brute), cost(a_brute)
    h_brute = -(p * bv).sum(axis=-1) - lv
    bound = (spec.coef_bound + np.abs(p[:, 0]) * spec.coef_bound) * spacing
    assert np.all(h_closed - h_brute >= -1e-12)
    assert np.all(h_closed - h_brute <= bound)

    # envelope identity away from the branch-switch window
    lo = spec.control.radius / (1.0 + 0.3 * spec.control.radius)
    keep = (np.abs(p[:, 0]) < lo - 0.05) | (np.abs(p[:, 0]) > spec.control.radius / 1.0 + 0.05)
    xk, pk = x[keep], p[keep]
    kept = spec.coefficients(xk, nu)
    hp = hamiltonian_gradient_p(spec, kept, pk)
    step = 1e-5
    fd = (hamiltonian_value(spec, kept, pk + step) - hamiltonian_value(spec, kept, pk - step)) / (2 * step)
    assert np.abs(hp[:, 0] - fd).max() <= 1e-6
