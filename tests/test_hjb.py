"""HJB solver tests, including the damped value-iteration oracle.

The oracle solves the same discrete nonlinear system as policy iteration
(upwind advection + central Laplacian evaluation, central-gradient policy)
but by explicit damped fixed-point sweeps written directly with np.roll
stencils, sharing no solver code with the implementation.
"""

from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sparse
import scipy.sparse.linalg as spla

from qsmfg import model
from qsmfg.grid import Grid, gradient_central, gradient_upwind, laplacian, torus_distance
from qsmfg.hjb import (
    _evaluation_matrix,
    _policy_iteration,
    equation_residual,
    solve_discounted,
    solve_ergodic,
    value_function,
)
from qsmfg.measure import JointMeasure, pushforward, uniform_density, wasserstein1_joint
from qsmfg.model import (
    ControlSet,
    ModelSpec,
    example_one,
    memory_aggregate,
    optimal_control,
    policy_field,
    separated_cost,
)

GRID = Grid(1, 64)


def _measure(seed=0, scale=0.8):
    rng = np.random.default_rng(seed)
    x = rng.random((24, 1))
    a = rng.uniform(-scale, scale, (24, 1))
    w = rng.random(24)
    return JointMeasure(x, a, w / w.sum())


def _u(sol, rho):
    """The value function that a solve's normalized pair stands for."""
    return value_function(sol.w, sol.s, rho)[0]


def _const_model(c, k=1):
    control = ControlSet(k=k, radius=1.0)
    return ModelSpec(
        name="const",
        kind="instant",
        control=control,
        coefficients=lambda x, nu: (
            lambda a: np.zeros(np.broadcast_shapes(np.shape(x), np.shape(a))),
            lambda a: np.full(np.broadcast_shapes(np.shape(x), np.shape(a))[:-1], c),
        ),
        closed_form_control=lambda x, p, nu: np.zeros(np.shape(p)),
    )


class TestDiscounted:
    def test_constant_cost_closed_form(self):
        # b == 0, l == c: H = -c and u == c/rho solves the discrete system exactly
        spec = _const_model(2.0)
        sol = solve_discounted(spec, _measure(), 0.7, GRID, tol=1e-12)
        assert np.abs(_u(sol, 0.7) - 2.0 / 0.7).max() < 1e-11
        assert sol.residual < 1e-12

    def test_separated_cost_shift(self):
        spec = separated_cost(d=1, coupling_weight=0.5)
        nu1, nu2 = _measure(1), _measure(2)
        rho = 0.8
        s1 = solve_discounted(spec, nu1, rho, GRID, tol=1e-12)
        s2 = solve_discounted(spec, nu2, rho, GRID, tol=1e-12)
        shift = 0.5 * (nu1.mean_control()[0] - nu2.mean_control()[0]) / rho
        assert np.abs((_u(s1, rho) - _u(s2, rho)) - shift).max() < 1e-10

    def test_matches_value_iteration_oracle(self):
        spec = example_one(delta=1.0, eps=0.3, kappa=0.3, potential=0.3)
        nu = _measure(3)
        sol = solve_discounted(spec, nu, 1.0, GRID, tol=1e-11)
        assert sol.converged and sol.residual <= 1e-11
        oracle = _value_iteration_oracle(spec, nu, 1.0, GRID, tol=1e-9)
        assert np.abs(_u(sol, 1.0) - oracle).max() < 1e-7

    def test_comparison_principle_constant_shift(self):
        # raising l by a constant raises u by delta/rho exactly
        rho = 0.9
        base = solve_discounted(_const_model(1.0), _measure(), rho, GRID)
        shifted = solve_discounted(_const_model(1.6), _measure(), rho, GRID)
        np.testing.assert_allclose(
            _u(shifted, rho) - _u(base, rho), 0.6 / rho, atol=1e-10
        )

    def test_discount_bound(self):
        # |rho u| <= sup |l| for every solve
        for rho in (1.0, 0.1, 0.01):
            spec = example_one(delta=1.0, eps=0.4, kappa=0.4, potential=0.4)
            nu = _measure(4)
            sol = solve_discounted(spec, nu, rho, GRID, tol=1e-10)
            mesh = spec.control.mesh(257)
            x = GRID.coordinates()[:, None, :]
            ell_max = np.abs(spec.running_cost(x, mesh[None, :, :], nu)).max()
            assert rho * np.abs(_u(sol, rho)).max() <= ell_max + 1e-9

    def test_residual_history_nonincreasing(self):
        spec = example_one(delta=1.0, eps=0.3, kappa=0.3, potential=0.3)
        sol = solve_discounted(spec, _measure(5), 1.0, GRID, tol=1e-11)
        hist = np.array(sol.residual_history)
        assert np.all(hist[1:] <= hist[:-1] + 1e-12)

    def test_rejects_nonpositive_rho(self):
        with pytest.raises(ValueError):
            solve_discounted(_const_model(1.0), _measure(), 0.0, GRID)

    def test_non_finite_cost_is_a_solver_error(self):
        # a NaN running cost is raised as a solver failure before the
        # policy's evaluation is assembled, so no singular solve is attempted
        spec = _const_model(np.nan)
        with pytest.raises(RuntimeError, match="non-finite drift or cost"):
            solve_discounted(spec, _measure(), 1.0, GRID)
        with pytest.raises(RuntimeError, match="non-finite drift or cost"):
            solve_ergodic(spec, _measure(), GRID)

    def test_warm_start_converges_immediately(self):
        spec = example_one(delta=1.0, eps=0.3, kappa=0.3, potential=0.3)
        nu = _measure(6)
        first = solve_discounted(spec, nu, 1.0, GRID, tol=1e-11)
        again = solve_discounted(spec, nu, 1.0, GRID, tol=1e-11, warm_start=first.policy)
        assert again.iterations <= 2

    def test_non_convergence_reports_last_residual(self):
        spec = example_one(delta=1.0, eps=0.3, kappa=0.3, potential=0.3)
        sol = solve_discounted(spec, _measure(14), 1.0, GRID, tol=1e-15, max_iter=1)
        assert not sol.converged
        assert sol.residual == sol.residual_history[-1] > 0

    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize("max_iter", [1, 80])
    def test_policy_is_improved_policy_at_u(self, d, max_iter):
        # sol.policy is the improved policy at the pair (sol.w, sol.s),
        # converged or not: the probe of the coupled solvers' measured residuals
        grid = Grid(d, 16)
        spec = example_one(d=d, delta=1.0, eps=0.3, kappa=0.3, potential=0.3)
        rng = np.random.default_rng(15)
        nu = JointMeasure(rng.random((12, d)), rng.uniform(-0.5, 0.5, (12, d)), np.full(12, 1 / 12))
        sol = solve_discounted(spec, nu, 1.0, grid, tol=1e-11, max_iter=max_iter)
        assert sol.converged == (max_iter > 1)
        probe = policy_field(spec, grid, gradient_central(grid, sol.w), nu)
        np.testing.assert_array_equal(sol.policy, probe)
        assert sol.w.shape == (grid.size,) and not sol.w.flags.writeable


class TestCoefficientEvaluations:
    """A solve binds the coefficients once, so the measure terms are computed
    once per solve, and it evaluates each policy's drift and cost exactly
    once: for the starting policy, then in every improvement step."""

    @staticmethod
    def _counted(spec):
        calls = {"bind": 0, "drift": 0, "running_cost": 0}

        def counting(name, fn):
            def wrapped(a):
                calls[name] += 1
                return fn(a)

            return wrapped

        def coefficients(x, nu):
            calls["bind"] += 1
            drift, cost = spec.coefficients(x, nu)
            return counting("drift", drift), counting("running_cost", cost)

        return replace(spec, coefficients=coefficients), calls

    @pytest.mark.parametrize("start", ["cold", "warm", "ergodic"])
    def test_one_evaluation_per_policy(self, start):
        base = example_one(delta=1.0, eps=0.3, kappa=0.3, potential=0.3)
        nu = _measure(16)
        warm = solve_discounted(base, _measure(17), 1.0, GRID, tol=1e-11).policy if start == "warm" else None
        spec, calls = self._counted(base)
        if start == "ergodic":
            sol = solve_ergodic(spec, nu, GRID, tol=1e-11)
        else:
            sol = solve_discounted(spec, nu, 1.0, GRID, tol=1e-11, warm_start=warm)
        # with two or more iterations, one evaluation per step would be fewer
        assert sol.converged and sol.iterations >= 2
        assert calls == {"bind": 1, "drift": sol.iterations + 1, "running_cost": sol.iterations + 1}

    @pytest.fixture
    def torus_distance_calls(self, monkeypatch):
        calls = []

        def counting(x, y):
            calls.append(np.shape(x))
            return torus_distance(x, y)

        monkeypatch.setattr(model, "torus_distance", counting)
        return calls

    def test_measure_terms_once_per_solve(self, torus_distance_calls):
        # off the grid's nodes, the quadratic models' drift bump is their one
        # torus_distance call: one per solve, however many policies the solve
        # evaluates
        calls = torus_distance_calls
        spec = example_one(delta=1.0, eps=0.3, kappa=0.3, potential=0.3)
        sol = solve_discounted(spec, _measure(16), 1.0, GRID, tol=1e-11)
        assert sol.iterations >= 2 and calls == [(GRID.size, 1, 1)]

    def test_graph_measure_reads_grid_node_distances(self, torus_distance_calls):
        # a pushforward's atoms are the grid's nodes, so its bump reads
        # grid.node_distances() and computes no torus distance; a memory
        # aggregate, which carries no grid, and x off the nodes still do
        calls = torus_distance_calls
        spec = example_one(delta=1.0, eps=0.3, kappa=0.3, potential=0.3)
        rng = np.random.default_rng(3)
        mu = pushforward(uniform_density(GRID), rng.uniform(-0.8, 0.8, (GRID.size, 1)))
        sol = solve_discounted(spec, mu, 1.0, GRID, tol=1e-11)
        assert sol.iterations >= 2 and calls == []
        aggregate = memory_aggregate([0.0, 0.5], [mu, mu], lambda t: np.ones_like(t))
        assert aggregate.grid is None
        solve_discounted(spec, aggregate, 1.0, GRID, tol=1e-11)
        assert calls == [(GRID.size, 1, 1)]
        spec.drift(GRID.coordinates() + 0.5 * GRID.h, np.zeros((GRID.size, 1)), mu)
        spec.drift(GRID.coordinates()[:7], np.zeros((7, 1)), mu)
        # a grid attached to atoms that are not its nodes is not read either
        off = _measure(16)
        spec.drift(GRID.coordinates(), np.zeros((GRID.size, 1)), JointMeasure(off.x, off.a, off.w, grid=GRID))
        assert calls == [(GRID.size, 1, 1)] * 2 + [(7, 1, 1), (GRID.size, 1, 1)]


class TestPolicyRepeat:
    """Howard's loop stops at a policy that repeats bit for bit."""

    def test_repeated_policy_stops_the_solve(self):
        # the separated model at a small discount, with a tolerance below
        # the rounding floor, reaches a policy that no longer changes
        grid, rho, tol = Grid(1, 32), 2.0**-11, 1e-16
        spec = separated_cost(d=1, coupling_weight=0.4)
        nu = _measure(20)
        sol = _policy_iteration(spec, nu, rho, grid, tol, 80, None)
        assert sol.iterations < 80 and not sol.converged
        assert sol.residual == sol.residual_history[-1] > tol
        # one more evaluation of the returned policy reproduces the solve;
        # u = w + s/rho carries the normalization constant s, and lam is None
        more = _policy_iteration(spec, nu, rho, grid, tol, 1, sol.policy)
        np.testing.assert_array_equal(more.w, sol.w)
        assert more.s == sol.s
        u_more, lam_more = value_function(more.w, more.s, rho)
        u_sol, lam_sol = value_function(sol.w, sol.s, rho)
        np.testing.assert_array_equal(u_more, u_sol)
        np.testing.assert_array_equal(more.policy, sol.policy)
        assert lam_more is None and lam_sol is None and more.residual == sol.residual
        # the public solve reports the same stop
        public = solve_discounted(spec, nu, rho, grid, tol=tol)
        assert public.iterations == sol.iterations and public.residual == sol.residual


class TestSelfConvergence:
    def test_solution_converges_under_grid_refinement(self):
        # nodes of the coarse grids are subsets of the finer ones, so the
        # discrete solutions can be compared pointwise; the errors must
        # shrink at least at the upwind first-order rate
        spec = example_one(delta=1.0, eps=0.3, kappa=0.3, potential=0.3)
        nu = _measure(0)
        sols = {}
        for n in (32, 64, 128):
            sols[n] = _u(solve_discounted(spec, nu, 1.0, Grid(1, n), tol=1e-12), 1.0)
        e_coarse = np.abs(sols[32] - sols[64][::2]).max()
        e_fine = np.abs(sols[64] - sols[128][::2]).max()
        assert e_fine < e_coarse
        assert 1.8 <= e_coarse / e_fine <= 4.5  # between first and second order


class TestNormalizedEvaluation:
    @pytest.mark.parametrize("d,n", [(1, 32), (2, 8)])
    def test_augmented_solve_equals_plain_solve(self, d, n):
        # the normalized (w, s) system is algebraically the plain evaluation
        # solve for rho > 0: reconstruct u = w + s/rho and compare against a
        # direct sparse solve of (rho I - lap - b.grad_up) u = l
        grid = Grid(d, n)
        rng = np.random.default_rng(21)
        bvals = rng.uniform(-1.5, 1.5, (grid.size, d))
        ell = rng.uniform(-1.0, 1.0, grid.size)
        rho = 0.3
        mat = _evaluation_matrix(grid, bvals, rho)
        sol = spla.spsolve(mat, np.concatenate([ell, [0.0]]))
        w, s = sol[:-1], sol[-1]
        u_aug = w + s / rho
        plain = sparse.csr_matrix(mat.toarray()[: grid.size, : grid.size])
        u_plain = spla.spsolve(plain, ell)
        np.testing.assert_allclose(u_aug, u_plain, atol=1e-11)
        assert w[0] == 0.0  # normalization row is exact

    @pytest.mark.parametrize("rho", [0.0, 0.3])
    @pytest.mark.parametrize("d,n", [(1, 32), (2, 8), (2, 9)])
    def test_matrix_applies_the_grid_operators(self, d, n, rho):
        # rows :n of the matrix times (w, s) are rho*w - lap_h(w) - b.grad_h^up(w) + s,
        # row n reads w at the normalization node
        grid = Grid(d, n)
        rng = np.random.default_rng(100 * d + n)
        bvals = rng.uniform(-1.5, 1.5, (grid.size, d))
        w, s = rng.uniform(-1.0, 1.0, grid.size), float(rng.uniform(-1.0, 1.0))
        got = _evaluation_matrix(grid, bvals, rho) @ np.append(w, s)
        dup = gradient_upwind(grid, w, bvals)
        want = rho * w - laplacian(grid, w) - sum(bvals[:, ax] * dup[:, ax] for ax in range(d)) + s
        np.testing.assert_allclose(got[:-1], want, rtol=0, atol=1e-12 * np.abs(want).max())
        assert got[-1] == w[0]


class TestErgodic:
    def test_constant_cost(self):
        # b == 0, l == c: lambda = c, u == 0
        spec = _const_model(1.3)
        sol = solve_ergodic(spec, _measure(), GRID, tol=1e-12)
        u, lam = value_function(sol.w, sol.s, 0.0)
        assert lam == pytest.approx(1.3, abs=1e-11)
        assert np.abs(u).max() < 1e-11
        assert u[0] == 0.0  # normalization exact

    def test_separated_cost_measure_independent_u(self):
        spec = separated_cost(d=1, coupling_weight=0.5)
        s1 = solve_ergodic(spec, _measure(1), GRID, tol=1e-12)
        s2 = solve_ergodic(spec, _measure(2), GRID, tol=1e-12)
        assert np.abs(_u(s1, 0.0) - _u(s2, 0.0)).max() < 1e-9

    def test_modes_agree(self):
        # the discounted pair (s, w) = (rho * u(x0), u - u(x0)) approaches
        # the ergodic pair (lambda, u) at first order in rho
        spec = example_one(delta=1.0, eps=0.3, kappa=0.3, potential=0.3)
        nu = _measure(7)
        direct = solve_ergodic(spec, nu, GRID, tol=1e-12)
        u, lam = value_function(direct.w, direct.s, 0.0)
        assert lam == direct.s and u is direct.w
        gaps = []
        for rho in (2.0**-6, 2.0**-7, 2.0**-8):
            sol = solve_discounted(spec, nu, rho, GRID, tol=1e-12)
            gaps.append(abs(sol.s - direct.s) + np.abs(sol.w - direct.w).max())
        for coarse, fine in zip(gaps, gaps[1:]):
            assert 0.45 <= fine / coarse <= 0.55


def _dependence(spec, nu1, nu2, rho, tol=1e-11):
    """How far apart the discounted solutions for two measures are, read from
    their pairs: sup |w1 - w2|, the sup over axes of |Dw1 - Dw2|, and
    rho |u1 - u2| = sup |rho (w1 - w2) + s1 - s2|."""
    sol1 = solve_discounted(spec, nu1, rho, GRID, tol=tol)
    sol2 = solve_discounted(spec, nu2, rho, GRID, tol=tol)
    dw = sol1.w - sol2.w
    return (
        float(np.abs(dw).max()),
        float(np.abs(gradient_central(GRID, sol1.w) - gradient_central(GRID, sol2.w)).max()),
        float(np.abs(rho * dw + sol1.s - sol2.s).max()),
    )


class TestContinuousDependence:
    def test_identical_contexts(self):
        spec = example_one(delta=1.0, eps=0.3, kappa=0.3, potential=0.3)
        nu = _measure(9)
        normalized, gradient, _ = _dependence(spec, nu, nu, 1.0)
        assert normalized + gradient < 1e-10
        # the data of the two solves are the same, over the grid and a control mesh
        x, mesh = GRID.coordinates()[:, None, :], spec.control.mesh(129)[None, :, :]
        (drift1, cost1), (drift2, cost2) = spec.coefficients(x, nu), spec.coefficients(x, nu)
        assert np.abs(drift1(mesh) - drift2(mesh)).max() == 0.0
        assert np.abs(cost1(mesh) - cost2(mesh)).max() == 0.0

    def test_separated_cost_normalized_difference_zero(self):
        spec = separated_cost(d=1, coupling_weight=0.5)
        nu1, nu2 = _measure(1), _measure(2)
        normalized, gradient, rho_sup = _dependence(spec, nu1, nu2, 1.0)
        assert normalized < 1e-10
        assert gradient < 1e-10
        # the full difference is the constant shift |s1 - s2|, the cost gap
        assert rho_sup == pytest.approx(abs(0.5 * (nu1.mean_control()[0] - nu2.mean_control()[0])), rel=1e-6)

    def test_ratio_stable_over_discount_sweep(self):
        spec = example_one(delta=1.0, eps=0.4, kappa=0.4, potential=0.3)
        nu1, nu2 = _measure(10), _measure(11)
        w1 = wasserstein1_joint(nu1, nu2)
        ratios = []
        for rho in (1.0, 0.1, 0.01):
            normalized, gradient, _ = _dependence(spec, nu1, nu2, rho)
            ratios.append((normalized + gradient) / w1)
        assert max(ratios) <= 2.0 * min(ratios) + 1e-9
        assert all(np.isfinite(r) for r in ratios)


class TestSmoke2D:
    def test_constant_cost_2d(self):
        grid = Grid(2, 8)
        spec = _const_model(1.1, k=2)
        rng = np.random.default_rng(12)
        nu = JointMeasure(rng.random((10, 2)), np.zeros((10, 2)), np.full(10, 0.1))
        sol = solve_discounted(spec, nu, 1.0, grid, tol=1e-11)
        assert np.abs(_u(sol, 1.0) - 1.1).max() < 1e-10

    def test_example_one_2d(self):
        grid = Grid(2, 8)
        spec = example_one(d=2, delta=1.0, eps=0.2, kappa=0.2, potential=0.2)
        rng = np.random.default_rng(13)
        nu = JointMeasure(rng.random((10, 2)), rng.uniform(-0.5, 0.5, (10, 2)), np.full(10, 0.1))
        sol = solve_discounted(spec, nu, 1.0, grid, tol=1e-10)
        assert sol.converged
        res, _, _, _ = equation_residual(spec, nu, 1.0, grid, _u(sol, 1.0))
        assert res <= 1e-10


def _value_iteration_oracle(spec, nu, rho, grid, tol=1e-9, max_sweeps=400_000):
    """Damped explicit fixed point for the same monotone discrete system."""
    n = grid.n
    h = grid.h
    x = grid.coordinates()
    u = np.zeros(n)
    bound = spec.coef_bound
    tau = 1.0 / (rho + 2.0 / h**2 + 2.0 * bound / h)
    drift, cost = spec.coefficients(x, nu)  # the measure is fixed: bind once
    for sweep in range(max_sweeps):
        right, left = np.roll(u, -1), np.roll(u, 1)
        lap = (right + left - 2.0 * u) / h**2
        du_c = (right - left) / (2.0 * h)
        a = optimal_control(spec, x, du_c[:, None], nu)
        b = drift(a)[:, 0]
        ell = cost(a)
        fwd = (right - u) / h
        bwd = (u - left) / h
        du_up = np.where(b > 0, fwd, np.where(b < 0, bwd, du_c))
        residual = rho * u - lap - b * du_up - ell
        u = u - tau * residual
        if sweep % 200 == 0 and np.abs(residual).max() < tol:
            break
    return u
