"""HJB solver tests, including the damped value-iteration oracle.

The oracle solves the same discrete nonlinear system as policy iteration
(upwind advection + central Laplacian evaluation, central-gradient policy)
but by explicit damped fixed-point sweeps written directly with np.roll
stencils, sharing no solver code with the implementation.
"""

from dataclasses import replace
from functools import cached_property

import numpy as np
import pytest
import scipy.sparse as sparse
import scipy.sparse.linalg as spla

from qsmfg import model
from qsmfg.grid import Grid, gradient_central, gradient_upwind, laplacian, torus_distance_matrix
from qsmfg.hjb import (
    NORMALIZATION_NODE,
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


def _bind(spec, nu, grid=GRID):
    """The binding of spec's coefficients to grid's nodes and nu that the
    HJB solves read."""
    return spec.coefficients(grid.coordinates(), nu)


def _u(sol, rho):
    """The value function that a solve's normalized pair stands for."""
    return value_function(sol.w, sol.s, rho)[0]


def _const_model(c, k=1):
    control = ControlSet(k=k, radius=1.0)
    return ModelSpec(
        name="const",
        control=control,
        coefficients=lambda x, nu: (
            lambda a: np.zeros(np.broadcast_shapes(np.shape(x), np.shape(a))),
            lambda a: np.full(np.broadcast_shapes(np.shape(x), np.shape(a))[:-1], c),
            lambda p: np.zeros(np.shape(p)),
        ),
    )


class TestDiscounted:
    def test_constant_cost_closed_form(self):
        # b == 0, l == c: H = -c and u == c/rho solves the discrete system exactly
        spec = _const_model(2.0)
        sol = solve_discounted(spec, _bind(spec, _measure()), 0.7, GRID, tol=1e-12)
        assert np.abs(_u(sol, 0.7) - 2.0 / 0.7).max() < 1e-11
        assert sol.residual < 1e-12

    def test_separated_cost_shift(self):
        spec = separated_cost(d=1, coupling_weight=0.5)
        nu1, nu2 = _measure(1), _measure(2)
        rho = 0.8
        s1 = solve_discounted(spec, _bind(spec, nu1), rho, GRID, tol=1e-12)
        s2 = solve_discounted(spec, _bind(spec, nu2), rho, GRID, tol=1e-12)
        shift = 0.5 * (nu1.mean_control()[0] - nu2.mean_control()[0]) / rho
        assert np.abs((_u(s1, rho) - _u(s2, rho)) - shift).max() < 1e-10

    def test_matches_value_iteration_oracle(self):
        spec = example_one(delta=1.0, eps=0.3, kappa=0.3, potential=0.3)
        nu = _measure(3)
        sol = solve_discounted(spec, _bind(spec, nu), 1.0, GRID, tol=1e-11)
        assert sol.converged and sol.residual <= 1e-11
        oracle = _value_iteration_oracle(spec, nu, 1.0, GRID, tol=1e-9)
        assert np.abs(_u(sol, 1.0) - oracle).max() < 1e-7

    def test_comparison_principle_constant_shift(self):
        # raising l by a constant raises u by delta/rho exactly
        rho = 0.9
        base_spec, shifted_spec = _const_model(1.0), _const_model(1.6)
        base = solve_discounted(base_spec, _bind(base_spec, _measure()), rho, GRID)
        shifted = solve_discounted(shifted_spec, _bind(shifted_spec, _measure()), rho, GRID)
        np.testing.assert_allclose(
            _u(shifted, rho) - _u(base, rho), 0.6 / rho, atol=1e-10
        )

    def test_discount_bound(self):
        # |rho u| <= sup |l| for every solve
        for rho in (1.0, 0.1, 0.01):
            spec = example_one(delta=1.0, eps=0.4, kappa=0.4, potential=0.4)
            nu = _measure(4)
            sol = solve_discounted(spec, _bind(spec, nu), rho, GRID, tol=1e-10)
            mesh = spec.control.mesh(257)
            x = GRID.coordinates()[:, None, :]
            ell_max = np.abs(spec.coefficients(x, nu)[1](mesh[None, :, :])).max()
            assert rho * np.abs(_u(sol, rho)).max() <= ell_max + 1e-9

    def test_residual_history_nonincreasing(self):
        spec = example_one(delta=1.0, eps=0.3, kappa=0.3, potential=0.3)
        sol = solve_discounted(spec, _bind(spec, _measure(5)), 1.0, GRID, tol=1e-11)
        hist = np.array(sol.residual_history)
        assert np.all(hist[1:] <= hist[:-1] + 1e-12)

    def test_rejects_nonpositive_rho(self):
        spec = _const_model(1.0)
        with pytest.raises(ValueError):
            solve_discounted(spec, _bind(spec, _measure()), 0.0, GRID)

    def test_non_finite_cost_is_a_solver_error(self):
        # a NaN running cost is raised as a solver failure before the
        # policy's evaluation is assembled, so no singular solve is attempted
        spec = _const_model(np.nan)
        with pytest.raises(RuntimeError, match="non-finite drift or cost"):
            solve_discounted(spec, _bind(spec, _measure()), 1.0, GRID)
        with pytest.raises(RuntimeError, match="non-finite drift or cost"):
            solve_ergodic(spec, _bind(spec, _measure()), GRID)

    def test_warm_start_converges_immediately(self):
        spec = example_one(delta=1.0, eps=0.3, kappa=0.3, potential=0.3)
        coefficients = _bind(spec, _measure(6))
        first = solve_discounted(spec, coefficients, 1.0, GRID, tol=1e-11)
        again = solve_discounted(spec, coefficients, 1.0, GRID, tol=1e-11, warm_start=first.policy)
        assert again.iterations <= 2

    def test_non_convergence_reports_last_residual(self):
        spec = example_one(delta=1.0, eps=0.3, kappa=0.3, potential=0.3)
        sol = solve_discounted(spec, _bind(spec, _measure(14)), 1.0, GRID, tol=1e-15, max_iter=1)
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
        coefficients = _bind(spec, nu, grid)
        sol = solve_discounted(spec, coefficients, 1.0, grid, tol=1e-11, max_iter=max_iter)
        assert sol.converged == (max_iter > 1)
        probe = policy_field(spec, grid, gradient_central(grid, sol.w), coefficients)
        np.testing.assert_array_equal(sol.policy, probe)
        assert sol.w.shape == (grid.size,) and not sol.w.flags.writeable


class TestCoefficientEvaluations:
    """The caller binds the coefficients once, so the measure is read at the
    binding and never inside a solve, and a solve evaluates each policy's
    drift and cost exactly once: for the starting policy, then in every
    improvement step.  Every policy, the cold start's included, comes from
    the bound maximizer."""

    @staticmethod
    def _counted(spec, monkeypatch):
        calls = {"bind": 0, "drift": 0, "running_cost": 0, "maximizer": 0, "mean_control": 0}

        def counting(name, fn):
            def wrapped(arg):
                calls[name] += 1
                return fn(arg)

            return wrapped

        def coefficients(x, nu):
            calls["bind"] += 1
            return tuple(map(counting, ("drift", "running_cost", "maximizer"), spec.coefficients(x, nu)))

        monkeypatch.setattr(JointMeasure, "mean_control", counting("mean_control", JointMeasure.mean_control))
        return replace(spec, coefficients=coefficients), calls

    @pytest.mark.parametrize("start", ["cold", "warm", "ergodic"])
    def test_one_evaluation_per_policy(self, start, monkeypatch):
        base = example_one(delta=1.0, eps=0.3, kappa=0.3, potential=0.3)
        nu = _measure(16)
        warm = solve_discounted(base, _bind(base, _measure(17)), 1.0, GRID, tol=1e-11).policy if start == "warm" else None
        spec, calls = self._counted(base, monkeypatch)
        coefficients = _bind(spec, nu)
        # binding reads the measure (the cost weight's mean control); the
        # solve below reads it no more
        assert calls == {"bind": 1, "drift": 0, "running_cost": 0, "maximizer": 0, "mean_control": 1}
        if start == "ergodic":
            sol = solve_ergodic(spec, coefficients, GRID, tol=1e-11)
        else:
            sol = solve_discounted(spec, coefficients, 1.0, GRID, tol=1e-11, warm_start=warm)
        # with two or more iterations, one evaluation per step would be fewer
        assert sol.converged and sol.iterations >= 2
        evaluations = sol.iterations + 1
        assert calls == {
            "bind": 1, "drift": evaluations, "running_cost": evaluations,
            "maximizer": evaluations - (start == "warm"), "mean_control": 1,
        }

    @pytest.fixture
    def torus_distance_calls(self, monkeypatch):
        calls = []

        def counting(x, y):
            calls.append(np.shape(x))
            return torus_distance_matrix(x, y)

        monkeypatch.setattr(model, "torus_distance_matrix", counting)
        return calls

    def test_measure_terms_once_per_solve(self, torus_distance_calls):
        # off the grid's nodes, the quadratic models' drift bump is their one
        # torus_distance_matrix call: one per binding, made at its first
        # drift, however many policies and solves read the binding
        calls = torus_distance_calls
        spec = example_one(delta=1.0, eps=0.3, kappa=0.3, potential=0.3)
        coefficients = _bind(spec, _measure(16))
        assert calls == []
        sol = solve_discounted(spec, coefficients, 1.0, GRID, tol=1e-11)
        assert sol.iterations >= 2 and calls == [(GRID.size, 1)]
        solve_ergodic(spec, coefficients, GRID, tol=1e-11)
        assert calls == [(GRID.size, 1)]

    def test_graph_measure_reads_grid_node_distances(self, torus_distance_calls, monkeypatch):
        # a pushforward's atoms are the grid's nodes, so its bump reads the
        # spec's node kernel for the grid and computes no torus distance; the
        # kernel is built at the first on-grid bump, not before, and every
        # later binding on the grid reads the same object.  A memory
        # aggregate, which carries no grid, and x off the nodes compute one
        # torus distance per binding.  The kernel's build makes its own one
        # distance call, kept apart in builds
        calls = torus_distance_calls
        kernels, weights, builds = [], [], []
        build, average = model._node_kernel, model._bump_average

        def building(grid, width):
            kernels.append(build(grid, width))
            builds.append(calls.pop())
            return kernels[-1]

        def averaging(phi, nu, kappa):
            weights.append(phi)
            return average(phi, nu, kappa)

        monkeypatch.setattr(model, "_node_kernel", building)
        monkeypatch.setattr(model, "_bump_average", averaging)
        spec = example_one(delta=1.0, eps=0.3, kappa=0.3, potential=0.3)
        rng = np.random.default_rng(3)
        mu = pushforward(uniform_density(GRID), rng.uniform(-0.8, 0.8, (GRID.size, 1)))
        coefficients = _bind(spec, mu)
        assert kernels == []
        sol = solve_discounted(spec, coefficients, 1.0, GRID, tol=1e-11)
        assert sol.iterations >= 2 and calls == [] and len(kernels) == 1
        assert len(weights) == 1 and weights[0] is kernels[0]
        # a second binding on the same grid, and its solve, reuse the kernel
        again = pushforward(uniform_density(GRID), rng.uniform(-0.8, 0.8, (GRID.size, 1)))
        assert solve_discounted(spec, _bind(spec, again), 1.0, GRID, tol=1e-11).iterations >= 2
        assert calls == [] and len(kernels) == 1 and len(weights) == 2 and weights[1] is kernels[0]
        aggregate = memory_aggregate([0.0, 0.5], [mu, mu], lambda t: np.ones_like(t))
        assert aggregate.grid is None
        solve_discounted(spec, _bind(spec, aggregate), 1.0, GRID, tol=1e-11)
        assert calls == [(GRID.size, 1)] and builds == [(GRID.size, 1)]
        spec.coefficients(GRID.coordinates() + 0.5 * GRID.h, mu)[0](np.zeros((GRID.size, 1)))
        spec.coefficients(GRID.coordinates()[:7], mu)[0](np.zeros((7, 1)))
        # a grid cannot be attached to atoms that are not its nodes
        off = _measure(16)
        with pytest.raises(ValueError, match="atom i at node i"):
            JointMeasure(off.x, off.a, off.w, grid=GRID)
        assert calls == [(GRID.size, 1)] * 2 + [(7, 1)]
        assert len(kernels) == 1 and len(weights) == 5
        assert not any(phi is kernels[0] for phi in weights[2:])


def test_evaluation_pattern_built_once_per_grid(monkeypatch):
    # every solve on a grid reads the grid's one normalized pattern; hjb.py
    # keeps none, so an equal grid builds its own
    builds = []
    build = Grid._normalized_pattern.func

    def counted(grid):
        builds.append(grid)
        return build(grid)

    prop = cached_property(counted)
    prop.__set_name__(Grid, "_normalized_pattern")
    monkeypatch.setattr(Grid, "_normalized_pattern", prop)
    spec = example_one(delta=1.0, eps=0.3, kappa=0.3, potential=0.3)
    grid = Grid(1, 16)
    for seed in range(3):
        coefficients = _bind(spec, _measure(seed), grid)
        solve_discounted(spec, coefficients, 1.0, grid, tol=1e-11)
        solve_ergodic(spec, coefficients, grid, tol=1e-11)
    assert builds == [grid]
    other = Grid(1, 16)
    solve_discounted(spec, _bind(spec, _measure(), other), 1.0, other, tol=1e-11)
    assert len(builds) == 2 and builds[1] is other


class TestPolicyRepeat:
    """Howard's loop stops at a policy that repeats bit for bit."""

    def test_repeated_policy_stops_the_solve(self):
        # the separated model at a small discount, with a tolerance below
        # the rounding floor, reaches a policy that no longer changes
        grid, rho, tol = Grid(1, 32), 2.0**-11, 1e-16
        spec = separated_cost(d=1, coupling_weight=0.4)
        coefficients = _bind(spec, _measure(20), grid)
        sol = _policy_iteration(spec, coefficients, rho, grid, tol, 80, None)
        assert sol.iterations < 80 and not sol.converged
        assert sol.residual == sol.residual_history[-1] > tol
        # one more evaluation of the returned policy reproduces the solve;
        # u = w + s/rho carries the normalization constant s, and lam is None
        more = _policy_iteration(spec, coefficients, rho, grid, tol, 1, sol.policy)
        np.testing.assert_array_equal(more.w, sol.w)
        assert more.s == sol.s
        u_more, lam_more = value_function(more.w, more.s, rho)
        u_sol, lam_sol = value_function(sol.w, sol.s, rho)
        np.testing.assert_array_equal(u_more, u_sol)
        np.testing.assert_array_equal(more.policy, sol.policy)
        assert lam_more is None and lam_sol is None and more.residual == sol.residual
        # the public solve reports the same stop
        public = solve_discounted(spec, coefficients, rho, grid, tol=tol)
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
            grid = Grid(1, n)
            sols[n] = _u(solve_discounted(spec, _bind(spec, nu, grid), 1.0, grid, tol=1e-12), 1.0)
        e_coarse = np.abs(sols[32] - sols[64][::2]).max()
        e_fine = np.abs(sols[64] - sols[128][::2]).max()
        assert e_fine < e_coarse
        assert 1.8 <= e_coarse / e_fine <= 4.5  # between first and second order


def _plain_matrix(grid, bvals, rho):
    """Dense rho*I - lap_h - b.grad_h^up, column j the grid operators applied
    to the unit field at node j."""
    cols = []
    for e in np.eye(grid.size):
        dup = gradient_upwind(grid, e, bvals)
        cols.append(rho * e - laplacian(grid, e) - sum(bvals[:, ax] * dup[:, ax] for ax in range(grid.d)))
    return np.column_stack(cols)


def _evaluate_once(grid, bvals, ell, rho):
    """One policy evaluation of a policy whose drift and cost are bvals and ell."""
    spec = replace(
        _const_model(0.0, k=grid.d), coefficients=lambda x, nu: (lambda a: bvals, lambda a: ell, np.zeros_like)
    )
    return _policy_iteration(spec, _bind(spec, _measure(0), grid), rho, grid, 0.0, 1, None)


def _pair(x):
    """The normalized pair (w, s) a solution x of the normalized system
    stands for: s sits in the place of w(x0) = 0."""
    w = x.copy()
    w[NORMALIZATION_NODE] = 0.0
    return w, x[NORMALIZATION_NODE]


class TestNormalizedEvaluation:
    @pytest.mark.parametrize("d,n", [(1, 32), (2, 8)])
    def test_augmented_solve_equals_plain_solve(self, d, n):
        # the normalized (w, s) system is algebraically the plain evaluation
        # solve for rho > 0: reconstruct u = w + s/rho and compare against a
        # direct solve of (rho I - lap - b.grad_up) u = l
        grid = Grid(d, n)
        rng = np.random.default_rng(21)
        bvals = rng.uniform(-1.5, 1.5, (grid.size, d))
        ell = rng.uniform(-1.0, 1.0, grid.size)
        rho = 0.3
        w, s = _pair(spla.spsolve(_evaluation_matrix(grid, bvals, rho), ell))
        u_plain = np.linalg.solve(_plain_matrix(grid, bvals, rho), ell)
        np.testing.assert_allclose(w + s / rho, u_plain, atol=1e-11)

    @pytest.mark.parametrize("rho", [0.0, 0.3])
    @pytest.mark.parametrize("d,n", [(1, 32), (2, 8), (2, 9)])
    def test_matrix_applies_the_grid_operators(self, d, n, rho):
        # the n^d-square matrix times w, its x0 entry holding s, is
        # rho*w - lap_h(w) - b.grad_h^up(w) + s for a w that vanishes at x0:
        # the s column, all ones, replaces the column of x0
        grid = Grid(d, n)
        rng = np.random.default_rng(100 * d + n)
        bvals = rng.uniform(-1.5, 1.5, (grid.size, d))
        w, s = rng.uniform(-1.0, 1.0, grid.size), float(rng.uniform(-1.0, 1.0))
        w[NORMALIZATION_NODE] = 0.0
        mat = _evaluation_matrix(grid, bvals, rho)
        assert mat.shape == (grid.size, grid.size)
        np.testing.assert_array_equal(mat[:, [NORMALIZATION_NODE]].toarray(), 1.0)
        x = w.copy()
        x[NORMALIZATION_NODE] = s
        dup = gradient_upwind(grid, w, bvals)
        want = rho * w - laplacian(grid, w) - sum(bvals[:, ax] * dup[:, ax] for ax in range(d)) + s
        np.testing.assert_allclose(mat @ x, want, rtol=0, atol=1e-12 * np.abs(want).max())

    @pytest.mark.parametrize("rho", [0.0, 0.3])
    @pytest.mark.parametrize("d,n", [(1, 32), (2, 8), (2, 9), (2, 16)])
    def test_evaluation_solve_equals_spsolve(self, d, n, rho):
        # one policy evaluation, a SuperLU call in natural column order on the
        # normalized matrix M in the grid's solve order P, equals spsolve of
        # the scipy-built P M P^T under the same column order bit for bit,
        # and the unreordered spsolve to rounding
        grid = Grid(d, n)
        rng = np.random.default_rng(10 * n + d)
        bvals = rng.uniform(-1.5, 1.5, (grid.size, d))
        ell = rng.uniform(-1.0, 1.0, grid.size)
        mat = _evaluation_matrix(grid, bvals, rho).toarray()
        # no stencil value is zero; x0 and its 2d neighbours lose their x0 entry to the s column
        assert np.count_nonzero(mat) == grid.size * (2 * d + 2) - (2 * d + 1)
        perm = grid.stencil_pattern().perm
        solved = np.empty(grid.size)
        solved[perm] = spla.spsolve(sparse.csr_matrix(mat[np.ix_(perm, perm)]), ell[perm], permc_spec="NATURAL")
        sol = _evaluate_once(grid, bvals, ell, rho)
        w, s = _pair(solved)
        assert np.array_equal(sol.w, w) and sol.s == s
        w, s = _pair(spla.spsolve(sparse.csr_matrix(mat), ell))
        np.testing.assert_allclose(sol.w, w, rtol=1e-12, atol=0)
        assert sol.s == pytest.approx(s, rel=1e-12, abs=0)

    @pytest.mark.parametrize("rho", [0.0, 0.3])
    @pytest.mark.parametrize("d,n", [(1, 32), (2, 8), (2, 9), (2, 16)])
    def test_normalization_is_exact_and_pivoting_kept(self, d, n, rho):
        # w(x0) = 0 holds exactly, by construction, and the reordered sparse
        # solve agrees with a dense solve of the same matrix, at rho = 0 too,
        # where the stencil block without the s column is singular
        grid = Grid(d, n)
        rng = np.random.default_rng(n)
        bvals = rng.uniform(-1.5, 1.5, (grid.size, d))
        ell = rng.uniform(-1.0, 1.0, grid.size)
        sol = _evaluate_once(grid, bvals, ell, rho)
        assert sol.w[NORMALIZATION_NODE] == 0.0
        w, s = _pair(np.linalg.solve(_evaluation_matrix(grid, bvals, rho).toarray(), ell))
        np.testing.assert_allclose(sol.w, w, rtol=0, atol=1e-12)
        assert sol.s == pytest.approx(s, rel=0, abs=1e-12)


class TestErgodic:
    def test_constant_cost(self):
        # b == 0, l == c: lambda = c, u == 0
        spec = _const_model(1.3)
        sol = solve_ergodic(spec, _bind(spec, _measure()), GRID, tol=1e-12)
        u, lam = value_function(sol.w, sol.s, 0.0)
        assert lam == pytest.approx(1.3, abs=1e-11)
        assert np.abs(u).max() < 1e-11
        assert u[0] == 0.0  # normalization exact

    def test_separated_cost_measure_independent_u(self):
        spec = separated_cost(d=1, coupling_weight=0.5)
        s1 = solve_ergodic(spec, _bind(spec, _measure(1)), GRID, tol=1e-12)
        s2 = solve_ergodic(spec, _bind(spec, _measure(2)), GRID, tol=1e-12)
        assert np.abs(_u(s1, 0.0) - _u(s2, 0.0)).max() < 1e-9

    def test_modes_agree(self):
        # the discounted pair (s, w) = (rho * u(x0), u - u(x0)) approaches
        # the ergodic pair (lambda, u) at first order in rho
        spec = example_one(delta=1.0, eps=0.3, kappa=0.3, potential=0.3)
        coefficients = _bind(spec, _measure(7))
        direct = solve_ergodic(spec, coefficients, GRID, tol=1e-12)
        u, lam = value_function(direct.w, direct.s, 0.0)
        assert lam == direct.s and u is direct.w
        gaps = []
        for rho in (2.0**-6, 2.0**-7, 2.0**-8):
            sol = solve_discounted(spec, coefficients, rho, GRID, tol=1e-12)
            gaps.append(abs(sol.s - direct.s) + np.abs(sol.w - direct.w).max())
        for coarse, fine in zip(gaps, gaps[1:]):
            assert 0.45 <= fine / coarse <= 0.55


def _dependence(spec, nu1, nu2, rho, tol=1e-11):
    """How far apart the discounted solutions for two measures are, read from
    their pairs: sup |w1 - w2|, the sup over axes of |Dw1 - Dw2|, and
    rho |u1 - u2| = sup |rho (w1 - w2) + s1 - s2|."""
    sol1 = solve_discounted(spec, _bind(spec, nu1), rho, GRID, tol=tol)
    sol2 = solve_discounted(spec, _bind(spec, nu2), rho, GRID, tol=tol)
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
        (drift1, cost1, _), (drift2, cost2, _) = spec.coefficients(x, nu), spec.coefficients(x, nu)
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
        sol = solve_discounted(spec, _bind(spec, nu, grid), 1.0, grid, tol=1e-11)
        assert np.abs(_u(sol, 1.0) - 1.1).max() < 1e-10

    def test_example_one_2d(self):
        grid = Grid(2, 8)
        spec = example_one(d=2, delta=1.0, eps=0.2, kappa=0.2, potential=0.2)
        rng = np.random.default_rng(13)
        nu = JointMeasure(rng.random((10, 2)), rng.uniform(-0.5, 0.5, (10, 2)), np.full(10, 0.1))
        coefficients = _bind(spec, nu, grid)
        sol = solve_discounted(spec, coefficients, 1.0, grid, tol=1e-10)
        assert sol.converged
        res, _, _, _ = equation_residual(spec, coefficients, 1.0, grid, _u(sol, 1.0))
        assert res <= 1e-10


def _value_iteration_oracle(spec, nu, rho, grid, tol=1e-9, max_sweeps=400_000):
    """Damped explicit fixed point for the same monotone discrete system."""
    n = grid.n
    h = grid.h
    x = grid.coordinates()
    u = np.zeros(n)
    bound = spec.coef_bound
    tau = 1.0 / (rho + 2.0 / h**2 + 2.0 * bound / h)
    coefficients = spec.coefficients(x, nu)  # the measure is fixed: bind once
    drift, cost, _ = coefficients
    for sweep in range(max_sweeps):
        right, left = np.roll(u, -1), np.roll(u, 1)
        lap = (right + left - 2.0 * u) / h**2
        du_c = (right - left) / (2.0 * h)
        a = optimal_control(spec, coefficients, du_c[:, None])
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
