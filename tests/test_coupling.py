"""Coupled-system driver tests: measure fixed point, both outer strategies,
the ergodic limit, and the regularity report."""

from dataclasses import replace

import numpy as np
import pytest

from qsmfg import coupling, measure
from qsmfg.coupling import (
    CouplingConfig,
    blend_policies,
    regularity_report,
    solve_field_iteration,
    solve_joint_measure,
    solve_measure_iteration,
    solve_system,
    solve_vanishing_discount,
)
from qsmfg.grid import Grid, gradient_central
from qsmfg.hjb import equation_residual, solve_ergodic, value_function
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
    example_one,
    example_two,
    policy_field,
    separated_cost,
    slice_measure,
)

GRID = Grid(1, 32)


def _random_density(seed):
    rng = np.random.default_rng(seed)
    vals = 1.0 + rng.uniform(-0.5, 0.5, GRID.size)
    return DensityField.from_values(GRID, vals)


def _smooth_gradient(seed, offset=0.0, amplitude=0.5):
    rng = np.random.default_rng(seed)
    x = GRID.axis_coordinates()
    vals = offset + amplitude * np.sin(2 * np.pi * (x - rng.random()))
    return vals[:, None]


def _const_model(c=1.0):
    control = ControlSet(k=1, radius=1.0)
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


WEAK = dict(delta=1.0, eps=0.05, kappa=0.05, potential=0.3)


@pytest.fixture(scope="module")
def weak_gamma_solution():
    spec = example_one(d=1, **WEAK)
    m0 = two_bump_density(GRID)
    cfg = CouplingConfig(T=0.5, dt=0.1, rho=1.0, outer_tol=1e-9, inner_tol=1e-9, hjb_tol=1e-12)
    return spec, m0, cfg, solve_field_iteration(spec, m0, cfg)


class TestJointMeasureFixedPoint:
    def test_measure_independent_model_one_iteration(self):
        # alpha* without measure dependence: the map is constant
        spec = separated_cost(d=1)
        m = _random_density(0)
        res = solve_joint_measure(m, _smooth_gradient(1), spec, tol=1e-12)
        assert res.converged
        assert res.iterations == 1
        assert res.increments[0] == pytest.approx(0.0, abs=1e-12)

    def test_contraction_rate_below_configured_lambda0(self):
        spec = example_one(delta=1.0, eps=0.5, kappa=0.3)
        rates = []
        for seed in range(6):
            m = _random_density(seed)
            du = _smooth_gradient(seed + 50, offset=0.4, amplitude=0.15)
            res = solve_joint_measure(m, du, spec, tol=1e-10)
            assert res.converged
            if res.rate is not None:
                rates.append(res.rate)
        assert rates and max(rates) <= 0.5 + 0.05

    def test_fixed_point_residual_at_convergence(self):
        spec = example_one(delta=1.0, eps=0.4, kappa=0.3)
        m = _random_density(3)
        du = _smooth_gradient(4, offset=0.3)
        tol = 1e-10
        res = solve_joint_measure(m, du, spec, tol=tol)
        probe = policy_field(spec, GRID, du, res.mu)
        residual = wasserstein1_joint(res.mu, pushforward(m, probe))
        assert residual <= tol

    def test_returned_measure_is_exact_pushforward(self):
        spec = example_one(delta=1.0, eps=0.4, kappa=0.3)
        m = _random_density(5)
        res = solve_joint_measure(m, _smooth_gradient(6, offset=0.3), spec, tol=1e-10)
        np.testing.assert_array_equal(res.mu.x, GRID.coordinates())
        np.testing.assert_array_equal(res.mu.w, m.values * GRID.h)

    def test_history_model_rejected(self):
        # a memory model reads past measures, not the slice's mu alone
        with pytest.raises(ValueError, match="instant model"):
            solve_joint_measure(_random_density(20), _smooth_gradient(22), example_two(d=1))

    def test_policies_stay_in_control_set(self, weak_gamma_solution):
        spec, _, _, sol = weak_gamma_solution
        radius = spec.control.radius
        for pol in sol.policy:
            assert np.linalg.norm(pol, axis=-1).max() <= radius + 1e-12

    def test_supercritical_lambda0_damped_fallback(self):
        # R L0 / delta = 3: the plain map is not a contraction; the damped
        # retry must either converge or report failure without raising
        spec = example_one(delta=0.5, eps=1.5, kappa=0.0)
        m = _random_density(7)
        du = _smooth_gradient(8, offset=0.5, amplitude=0.3)
        res = solve_joint_measure(m, du, spec, tol=1e-9, max_iter=40)
        assert res.rate is None or res.rate < 10.0
        if not res.converged:
            assert res.damped
        else:
            probe = policy_field(spec, GRID, du, res.mu)
            assert wasserstein1_joint(res.mu, pushforward(m, probe)) <= 1e-8


def _scripted_w1(monkeypatch, values):
    """Make coupling's joint W1 return the given increments in order."""
    calls = []

    def scripted(nu1, nu2):
        calls.append(1)
        return values[len(calls) - 1]

    monkeypatch.setattr(coupling, "wasserstein1_joint", scripted)
    return calls


def _plain_ratios(increments):
    return [b / a for a, b in zip(increments, increments[1:]) if a >= coupling.RATE_FLOOR]


class TestJointMeasureLoop:
    """Exact iterations, rate and damped flag of solve_joint_measure's loop."""

    SPEC = example_one(delta=1.0, eps=0.5, kappa=0.3)

    def _start(self, m, du):
        zero = np.zeros((GRID.n, 1))
        return pushforward(m, policy_field(self.SPEC, GRID, du, pushforward(m, zero)))

    def test_zero_budget_returns_start_measure(self):
        m, du = _random_density(30), _smooth_gradient(31, offset=0.4, amplitude=0.15)
        res = solve_joint_measure(m, du, self.SPEC, tol=1e-9, max_iter=0)
        start = self._start(m, du)
        assert (res.iterations, res.converged, res.rate, res.damped, res.increments) == (0, False, None, False, ())
        np.testing.assert_array_equal(res.mu.a, start.a)
        np.testing.assert_array_equal(res.mu.w, start.w)

    def test_contractive_run_stopped_at_budget_is_plain_picard(self):
        m, du = _random_density(32), _smooth_gradient(33, offset=0.4, amplitude=0.15)
        res = solve_joint_measure(m, du, self.SPEC, tol=1e-30, max_iter=4)
        assert (res.iterations, res.converged, res.damped) == (4, False, False)
        assert res.rate == max(_plain_ratios(res.increments)) < 1.0
        mu = self._start(m, du)
        for d in res.increments:  # undamped: each policy is the map's own output
            policy = policy_field(self.SPEC, GRID, du, mu)
            mu_next = pushforward(m, policy)
            assert wasserstein1_joint(mu_next, mu) == d
            mu = mu_next
        np.testing.assert_array_equal(res.mu.a, policy)

    def test_damped_run_counts_and_rate(self):
        # R L0 / delta = 3: three plain steps grow, then damping converges
        spec = example_one(delta=0.2, eps=3.0, kappa=0.0)
        m, du = _random_density(7), _smooth_gradient(8, offset=0.5, amplitude=0.3)
        res = solve_joint_measure(m, du, spec, tol=1e-9, max_iter=10)
        assert res.converged and res.damped
        assert res.iterations == len(res.increments) > 10
        assert res.rate == max(_plain_ratios(res.increments[:10])) > 1.0

    @pytest.mark.parametrize(
        "increments, expected",
        [
            # contractive, unconverged: stop at the budget without damping
            ([1.0, 0.5, 0.25], (3, False, 0.5, False)),
            # non-contractive: damped steps converge; their ratios (5, 10)
            # do not enter the rate
            ([1.0, 2.0, 2.0, 10.0, 100.0, 1e-12], (6, True, 2.0, True)),
            # non-contractive and never converging: the ten-fold damped budget
            ([1.0, 2.0, 2.0] + [1.0] * 30, (33, False, 2.0, True)),
            # converged on the last plain step
            ([1.0, 2.0, 1e-12], (3, True, 2.0, False)),
        ],
    )
    def test_scripted_increments(self, monkeypatch, increments, expected):
        calls = _scripted_w1(monkeypatch, increments)
        res = solve_joint_measure(_random_density(34), _smooth_gradient(35), self.SPEC, tol=1e-9, max_iter=3)
        assert (res.iterations, res.converged, res.rate, res.damped) == expected
        assert res.increments == tuple(increments[: res.iterations]) and len(calls) == res.iterations


class TestOuterLoop:
    """The plain outer Picard loop both strategies share."""

    STRONG = dict(delta=0.5, eps=1.2, kappa=1.0, potential=0.8)  # criterion 8's strong model

    @pytest.mark.parametrize(
        "errors, converged",
        [
            ([1.0, 0.5, 0.25, 1e-13], True),
            # a growing error does not blend: every pass is the map's output
            ([1.0, 0.5, 0.5, 2.0, 1e-13], True),
            # unconverged at the pass budget
            ([1.0, 1.0, 1.0, 1.0], False),
        ],
    )
    def test_scripted_outer_errors(self, monkeypatch, errors, converged):
        spec = example_one(d=1, **WEAK)
        cfg = CouplingConfig(T=0.1, dt=0.1, outer_tol=1e-12, max_outer=len(errors))
        monkeypatch.setattr(coupling, "_evolve", lambda *args: "trajectory")
        received, evolved = [], []

        def slice_solve(policies_prev):
            received.append(policies_prev)
            return "measures", [("pass", len(received))]

        def outer_error(traj, policies):
            evolved.append(policies)
            return (errors[len(evolved) - 1],)

        log, policies, done = coupling._picard(spec, None, cfg, slice_solve, outer_error)
        assert done is converged
        assert log == [(k, e) for k, e in enumerate(errors, start=1)]
        # each pass evolves the map's own output and hands it to the next
        assert evolved == [[("pass", k)] for k in range(1, len(errors) + 1)]
        assert received == [None, *evolved[:-1]]
        assert policies == evolved[-1]

    @pytest.mark.parametrize("solve", [solve_field_iteration, solve_measure_iteration], ids=["gamma", "psi"])
    def test_strong_coupling_converges(self, solve):
        # R L0 / delta = 2.4: the inner fixed point damps, the outer map contracts
        spec = example_one(d=1, **self.STRONG)
        cfg = CouplingConfig(
            T=0.3, dt=0.1, rho=1.0, outer_tol=1e-9, inner_tol=1e-8,
            hjb_tol=1e-11, max_outer=6, inner_max_iter=15,
        )
        sol = solve(spec, two_bump_density(GRID), cfg)
        assert sol.converged
        assert sol.diagnostics["outer_iterations"] <= 4
        errors = [row[1] for row in sol.outer_errors]
        assert all(b < a for a, b in zip(errors, errors[1:]))


class TestMeasuredResiduals:
    """The stored residuals are the one probe's, recomputed from (m, mu, (w, s))."""

    @staticmethod
    def _recompute(spec, cfg, sol):
        hjb_res, mu_res = [], []
        for j in range(sol.n_slices):
            nu = slice_measure(spec, sol.times[: j + 1], sol.mu[: j + 1])
            r, probe, _, _ = equation_residual(spec, nu, cfg.rho, GRID, sol.w[j], sol.s[j])
            hjb_res.append(r)
            mu_res.append(wasserstein1_joint(sol.mu[j], pushforward(sol.m[j], probe)))
        return np.array(hjb_res), np.array(mu_res)

    def test_gamma(self, weak_gamma_solution):
        spec, _, cfg, sol = weak_gamma_solution
        hjb_res, mu_res = self._recompute(spec, cfg, sol)
        np.testing.assert_array_equal(sol.hjb_residuals, hjb_res)
        np.testing.assert_array_equal(sol.mu_residuals, mu_res)
        # the HJB solve's own last residual, and a probe that is not the
        # stored policy: the measure residual is positive
        assert [h[-1] for h in sol.diagnostics["hjb_residual_histories"]] == list(hjb_res)
        assert mu_res.max() > 0.0

    def test_psi(self, memory_psi_solution):
        spec, cfg, sol = memory_psi_solution
        hjb_res, mu_res = self._recompute(spec, cfg, sol)
        np.testing.assert_array_equal(sol.hjb_residuals, hjb_res)
        np.testing.assert_array_equal(sol.mu_residuals, mu_res)


class TestFieldIteration:
    def test_decoupled_model_converges_immediately(self):
        spec = _const_model(1.0)
        cfg = CouplingConfig(T=0.5, dt=0.1, rho=1.0, outer_tol=1e-8)
        sol = solve_field_iteration(spec, uniform_density(GRID), cfg)
        assert sol.converged
        assert sol.diagnostics["outer_iterations"] <= 2

    def test_separated_gradient_fixed_from_first_pass(self):
        # H = H0(x, p) - l1(mu): gradients never see the measure, so the
        # gradient component of the outer error vanishes from pass 2 on
        spec = separated_cost(d=1, coupling_weight=0.4)
        cfg = CouplingConfig(T=0.4, dt=0.1, rho=1.0, outer_tol=1e-10, hjb_tol=1e-12)
        sol = solve_field_iteration(spec, two_bump_density(GRID), cfg)
        assert sol.converged
        for row in sol.outer_errors[1:]:
            assert row[2] <= 1e-9  # du component

    def test_weak_coupling_invariants(self, weak_gamma_solution):
        spec, m0, cfg, sol = weak_gamma_solution
        assert sol.converged
        assert sol.hjb_residuals.max() <= cfg.hjb_tol
        assert sol.mu_residuals.max() <= cfg.inner_tol
        for j in range(sol.n_slices):
            assert abs(sol.m[j].mass() - 1.0) <= 1e-12
            np.testing.assert_array_equal(sol.mu[j].w, sol.m[j].values * GRID.h)

    def test_two_seed_uniqueness_weak_coupling(self, weak_gamma_solution):
        spec, m0, cfg, sol = weak_gamma_solution
        n_slices = sol.n_slices
        seed_u = [0.2 * np.cos(2 * np.pi * GRID.axis_coordinates())] * n_slices
        seed_m = [uniform_density(GRID)] * n_slices
        other = solve_field_iteration(spec, m0, cfg, initial=(seed_u, seed_m))
        assert other.converged
        gap = max(
            np.abs(gradient_central(GRID, sol.u[j]) - gradient_central(GRID, other.u[j])).max()
            + wasserstein1_state(sol.m[j], other.m[j])
            for j in range(n_slices)
        )
        assert gap <= 10 * cfg.outer_tol

    def test_rejects_history_models(self):
        spec = example_two(d=1)
        cfg = CouplingConfig(T=0.2, dt=0.1)
        with pytest.raises(ValueError):
            solve_field_iteration(spec, uniform_density(GRID), cfg)


@pytest.mark.parametrize("strategy", ["gamma", "psi"])
def test_warm_start_of_wrong_length_rejected(strategy):
    # five slices on [0, 0.2]; a warm start of two or of six slices is refused
    # instead of being cut to the shorter length
    spec, m0 = example_one(d=1, **WEAK), two_bump_density(GRID)
    cfg = CouplingConfig(T=0.2, dt=0.05, strategy=strategy)
    if strategy == "gamma":
        solve, first = solve_field_iteration, np.zeros(GRID.size)
    else:
        solve, first = solve_measure_iteration, pushforward(m0, np.zeros((GRID.size, 1)))
    for n in (2, 6):
        with pytest.raises(ValueError, match="initial .* trajectory has the wrong length"):
            solve(spec, m0, cfg, initial=([first] * n, [m0] * n))
    with pytest.raises(ValueError, match="wrong length"):
        solve(spec, m0, cfg, initial=([first] * 5, [m0] * 2))


class TestMeasureIteration:
    def test_zero_kernel_memory_model_decouples(self):
        spec = example_two(d=1, kernel_kind="zero", potential=0.3)
        cfg = CouplingConfig(T=0.3, dt=0.1, rho=1.0, outer_tol=1e-8, strategy="psi")
        sol = solve_measure_iteration(spec, two_bump_density(GRID), cfg)
        assert sol.converged
        assert sol.diagnostics["outer_iterations"] <= 2

    def test_strategy_equivalence_on_instant_model(self, weak_gamma_solution):
        spec, m0, cfg, sol = weak_gamma_solution
        cfg_psi = CouplingConfig(
            T=cfg.T, dt=cfg.dt, rho=cfg.rho, outer_tol=cfg.outer_tol,
            inner_tol=cfg.inner_tol, hjb_tol=cfg.hjb_tol, strategy="psi",
        )
        psi = solve_measure_iteration(spec, m0, cfg_psi)
        assert psi.converged
        gap = max(
            np.abs(gradient_central(GRID, sol.u[j]) - gradient_central(GRID, psi.u[j])).max()
            + wasserstein1_state(sol.m[j], psi.m[j])
            for j in range(sol.n_slices)
        )
        assert gap <= 10 * cfg.outer_tol

    def test_memory_model_per_slice_residuals(self):
        spec = example_two(d=1, eps=0.15, kappa=0.15, potential=0.3, kernel_scale=0.5)
        cfg = CouplingConfig(
            T=0.4, dt=0.1, rho=1.0, outer_tol=5e-9, inner_tol=1e-8, hjb_tol=1e-11, strategy="psi"
        )
        sol = solve_measure_iteration(spec, two_bump_density(GRID), cfg)
        assert sol.converged
        assert sol.mu_residuals.max() <= cfg.inner_tol
        assert sol.hjb_residuals.max() <= cfg.hjb_tol

    def test_memory_model_gradient_modulus_uniform_in_rho(self):
        # empirical gradient modulus in time, uniform over a discount sweep:
        # max over rho of the measured modulus within a factor 2 of the min
        spec = example_two(d=1, eps=0.15, kappa=0.15, potential=0.3, kernel_scale=0.5)
        m0 = two_bump_density(GRID)
        moduli = []
        for rho in (1.0, 0.1, 0.01):
            cfg = CouplingConfig(
                T=0.4, dt=0.1, rho=rho, outer_tol=1e-8, inner_tol=1e-8,
                hjb_tol=1e-11, strategy="psi",
            )
            sol = solve_measure_iteration(spec, m0, cfg)
            assert sol.converged
            worst = max(
                np.abs(gradient_central(GRID, sol.u[j]) - gradient_central(GRID, sol.u[k])).max()
                for j in range(sol.n_slices)
                for k in range(j + 1, sol.n_slices)
            )
            moduli.append(worst)
        assert max(moduli) <= 2.0 * min(moduli) + 1e-12


@pytest.fixture(scope="module", params=["gamma", "psi"])
def weak_ergodic_levels(request):
    """The weak ergodic solve of TestErgodicDriver, with every discount
    level's own solution."""
    spec, m0 = example_one(d=1, **WEAK), two_bump_density(GRID)
    cfg = CouplingConfig(
        T=0.2, dt=0.1, outer_tol=1e-9, inner_tol=1e-10, hjb_tol=1e-12, strategy=request.param,
        rho_sequence=tuple(2.0**-k for k in range(10)), ergodic_tol=5e-4, full_sequence=True,
    )
    levels = []

    def recorded(*args, _run=coupling._run_strategy, **kwargs):
        levels.append(_run(*args, **kwargs))
        return levels[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(coupling, "_run_strategy", recorded)
        sol = solve_vanishing_discount(spec, m0, cfg)
    return spec, m0, cfg, sol, levels


class TestExtrapolatedStart:
    def test_weights_reproduce_quadratics(self):
        nodes = (1.0, 0.5, 0.25)
        weights = coupling._lagrange_weights(nodes, 0.125)
        np.testing.assert_allclose(weights, [0.125, -0.875, 1.75], rtol=0, atol=1e-15)
        p = lambda r: 2.0 - 3.0 * r + 5.0 * r**2  # noqa: E731
        assert weights @ [p(r) for r in nodes] == pytest.approx(p(0.125), abs=1e-14)
        assert coupling._lagrange_weights((0.5,), 0.25).tolist() == [1.0]

    @pytest.mark.parametrize("strategy", ["gamma", "psi"])
    def test_start_reproduces_data_quadratic_in_rho(self, strategy):
        # fields inside the control ball and unit-mass densities, both
        # quadratic in rho: the start at the next discount is that quadratic
        rng = np.random.default_rng(7)
        spec, n_slices = example_one(d=1, **WEAK), 3
        shape = (n_slices, GRID.size) if strategy == "gamma" else (n_slices, GRID.size, 1)
        fa, fb, fc = rng.uniform(-0.3, 0.3, shape), rng.uniform(-0.2, 0.2, shape), rng.uniform(-0.2, 0.2, shape)
        x = GRID.axis_coordinates()
        base = two_bump_density(GRID).values
        db, dc = 0.3 * np.sin(2 * np.pi * x), 0.2 * np.cos(4 * np.pi * x)  # zero mean on the grid

        def level(r):
            return r, fa + r * fb + r**2 * fc, np.array([base + r * db + r**2 * dc] * n_slices)

        levels = [level(r) for r in (1.0, 0.5, 0.25)]
        _, fields, densities = level(0.125)
        start, m = coupling._extrapolated_start(spec, GRID, strategy, levels, 0.125)
        for m_j, d_j in zip(m, densities):
            np.testing.assert_allclose(m_j.values, d_j, rtol=0, atol=1e-13)
        if strategy == "gamma":
            np.testing.assert_allclose(np.array(start), fields, rtol=0, atol=1e-14)
        else:
            for mu_j, m_j, f_j in zip(start, m, fields):
                np.testing.assert_allclose(mu_j.a, f_j, rtol=0, atol=1e-14)
                np.testing.assert_array_equal(mu_j.w, m_j.values * GRID.cell_volume)

    def test_start_projects_policies_and_clips_densities(self):
        # levels whose quadratic leaves the control ball and goes negative
        spec, n_slices = example_one(d=1, **WEAK), 2
        base = two_bump_density(GRID).values
        dip = np.where(GRID.axis_coordinates() < 0.5, 1.0, -1.0)  # zero mean on the grid
        levels = [
            (r, np.full((n_slices, GRID.size, 1), a), np.array([base + c * dip] * n_slices))
            for r, a, c in ((1.0, 0.2, 0.0), (0.5, 0.6, 0.0), (0.25, 0.9, 0.5))
        ]
        start, m = coupling._extrapolated_start(spec, GRID, "psi", levels, 0.125)
        for mu_j, m_j in zip(start, m):
            assert m_j.values.min() == 0.0 and m_j.mass() == pytest.approx(1.0, abs=1e-14)
            np.testing.assert_array_equal(mu_j.a, np.full((GRID.size, 1), spec.control.radius))
            np.testing.assert_array_equal(mu_j.w, m_j.values * GRID.cell_volume)

    @pytest.mark.parametrize("strategy", ["gamma", "psi"])
    def test_one_level_starts_from_its_solution(self, weak_gamma_solution, strategy):
        spec, _, _, sol = weak_gamma_solution
        fields = sol.w if strategy == "gamma" else sol.policy
        level = (1.0, np.array(fields), np.array([m.values for m in sol.m]))
        start, m = coupling._extrapolated_start(spec, GRID, strategy, [level], 0.5)
        for ours, theirs in zip(m, sol.m):
            np.testing.assert_allclose(ours.values, theirs.values, rtol=1e-15, atol=0)
        if strategy == "gamma":
            np.testing.assert_array_equal(np.array(start), np.array(sol.w))
        else:
            for mu_j, a_j in zip(start, sol.policy):
                np.testing.assert_array_equal(mu_j.a, a_j)


class TestErgodicDriver:
    @pytest.mark.parametrize(
        "sequence", [(1.0,), (1.0, 1.0), (0.5, 1.0), (1.0, 0.5, 0.5), (1.0, 0.0), (1.0, -0.5),
                     (np.inf, 1.0), (1.0, np.nan)],
    )
    def test_discount_sequence_validated(self, sequence):
        # the warm starts divide by differences of discounts
        with pytest.raises(ValueError, match="rho_sequence"):
            CouplingConfig(T=0.2, dt=0.1, rho_sequence=sequence)
        for accepted in ((), (1.0, 0.5), (1.0, 0.5, 1e-3)):
            assert CouplingConfig(T=0.2, dt=0.1, rho_sequence=accepted).rho_sequence == accepted

    def test_extrapolated_starts_save_outer_passes(self, weak_ergodic_levels):
        # the plain warm start from the last level took 3 passes on each of
        # the first 9 levels and 2 on the last: 29 passes; the extrapolated
        # starts take 18, the last 5 levels one pass each
        *_, sol, levels = weak_ergodic_levels
        passes = [level.diagnostics["outer_iterations"] for level in levels]
        assert sol.diagnostics["level_outer_iterations"] == passes
        assert sum(passes) <= 20
        assert passes[-1] == 1
        assert sol.converged

    def test_last_level_matches_plain_warm_start(self, weak_ergodic_levels):
        spec, m0, cfg, sol, levels = weak_ergodic_levels
        prev = levels[-2]
        initial = (prev.w if cfg.strategy == "gamma" else prev.mu, prev.m)
        plain = coupling._run_strategy(spec, m0, replace(cfg, rho=cfg.rho_sequence[-1]), initial=initial)
        assert plain.converged
        assert plain.diagnostics["outer_iterations"] > levels[-1].diagnostics["outer_iterations"]
        tol = 10 * cfg.outer_tol
        assert np.abs(plain.s - sol.s).max() <= tol
        assert max(np.abs(a - b).max() for a, b in zip(plain.w, sol.w)) <= tol
        assert max(np.abs(a.values - b.values).max() for a, b in zip(plain.m, sol.m)) <= tol

    def test_constant_cost_limit(self):
        # b == 0, l == c: lambda(t) == c, u == 0, m is the heat flow of m0
        spec = _const_model(1.4)
        m0 = two_bump_density(GRID)
        cfg = CouplingConfig(
            T=0.3, dt=0.1, outer_tol=1e-9, hjb_tol=1e-12,
            rho_sequence=tuple(2.0**-k for k in range(8)), ergodic_tol=1e-6,
        )
        sol = solve_vanishing_discount(spec, m0, cfg)
        assert sol.converged
        np.testing.assert_allclose(sol.lam, 1.4, atol=1e-8)
        for u in sol.u:
            assert np.abs(u).max() < 1e-8
        from qsmfg.fp import fp_evolve

        heat = fp_evolve(m0, [np.zeros((GRID.size, 1))] * 3, 0.1)
        for ours, exact in zip(sol.m, heat):
            assert np.abs(ours.values - exact.values).max() < 1e-10

    def test_separated_cost_lambda_decomposition(self):
        # lambda(t) = (ergodic constant of the measure-free part) + l1(mu(t))
        spec = separated_cost(d=1, coupling_weight=0.4)
        base = separated_cost(d=1, coupling_weight=0.0)  # oracle: H0 alone
        m0 = two_bump_density(GRID)
        seq = tuple(2.0**-k for k in range(12))
        cfg = CouplingConfig(
            T=0.3, dt=0.1, outer_tol=1e-9, hjb_tol=1e-12,
            rho_sequence=seq, ergodic_tol=1e-5,
        )
        sol = solve_vanishing_discount(spec, m0, cfg)
        # the residual is measured on the pair (w, s) the solve computes, so
        # every tolerance is met down to rho = 2^-11
        assert sol.hjb_residuals.max() <= cfg.hjb_tol
        assert sol.converged and sol.diagnostics["failures"] == []
        nu_any = sol.mu[0]
        base_sol = solve_ergodic(base, nu_any, GRID, tol=1e-12)
        for j in range(sol.n_slices):
            expected = value_function(base_sol.w, base_sol.s, 0.0)[1] - 0.4 * sol.mu[j].mean_control()[0]
            assert sol.lam[j] == pytest.approx(expected, abs=2e-4)
        # u constant in time
        spread = max(
            np.abs(sol.u[j] - sol.u[0]).max() for j in range(sol.n_slices)
        )
        assert spread < 1e-4

    def test_increments_decrease_on_weak_coupling(self):
        spec = example_one(d=1, **WEAK)
        m0 = two_bump_density(GRID)
        cfg = CouplingConfig(
            T=0.2, dt=0.1, outer_tol=1e-9, inner_tol=1e-10, hjb_tol=1e-12,
            rho_sequence=tuple(2.0**-k for k in range(10)), ergodic_tol=5e-4,
            full_sequence=True,
        )
        sol = solve_vanishing_discount(spec, m0, cfg)
        incs = sol.diagnostics["increments"]
        assert len(incs) == 9
        assert all(b < a for a, b in zip(incs, incs[1:]))
        assert sol.diagnostics["direct_gap_max"] <= 10 * cfg.ergodic_tol
        assert sol.converged
        for u in sol.u:
            assert u[0] == 0.0  # normalization node pinned

    def test_ergodic_residual_measured_at_zero_discount(self):
        # the reported pairs solve the last discount's equation; in the
        # ergodic one (rho = 0) their residual is that residual minus
        # rho_last * w, so it reads rho_last * |w|_inf to rounding
        spec = example_one(d=1, **WEAK)
        cfg = CouplingConfig(
            T=0.1, dt=0.05, outer_tol=1e-9, inner_tol=1e-10, hjb_tol=1e-12,
            rho_sequence=(1.0, 0.5, 0.25), full_sequence=True,
        )
        sol = solve_vanishing_discount(spec, two_bump_density(GRID), cfg)
        measured = sol.diagnostics["ergodic_residual_max"]
        probes = [
            equation_residual(spec, sol.mu[j], 0.0, GRID, sol.w[j], sol.s[j])[0] for j in range(sol.n_slices)
        ]
        assert measured == max(probes)
        shift = 0.25 * max(float(np.abs(w).max()) for w in sol.w)
        assert measured == pytest.approx(shift, abs=sol.hjb_residuals.max() + 1e-15)
        assert measured > 1e3 * sol.hjb_residuals.max()

    @pytest.mark.parametrize("strategy", ["gamma", "psi"])
    def test_closing_pass_measures_only_the_hjb(self, monkeypatch, strategy):
        # after the last level the pairs are read in the ergodic equation and
        # against direct solves, one slice context each: no measure is
        # pushed forward and no transport LP is solved
        calls = []
        for name in ("_run_strategy", "pushforward", "wasserstein1_joint", "equation_residual", "solve_ergodic"):
            def recorded(*args, _name=name, _call=getattr(coupling, name), **kwargs):
                result = _call(*args, **kwargs)
                calls.append(_name)
                return result

            monkeypatch.setattr(coupling, name, recorded)
        cfg = CouplingConfig(
            T=0.1, dt=0.05, outer_tol=1e-9, inner_tol=1e-10, hjb_tol=1e-12, strategy=strategy,
            rho_sequence=(1.0, 0.5, 0.25), full_sequence=True,
        )
        sol = solve_vanishing_discount(example_one(d=1, **WEAK), two_bump_density(GRID), cfg)
        closing = calls[len(calls) - calls[::-1].index("_run_strategy"):]
        assert calls.count("_run_strategy") == 3
        assert closing == ["equation_residual", "solve_ergodic"] * sol.n_slices

    def test_psi_agrees_with_gamma(self):
        # psi's levels warm-start from the last level's (mu, m)
        spec = example_one(d=1, **WEAK)
        m0 = two_bump_density(GRID)
        cfg = CouplingConfig(
            T=0.2, dt=0.1, outer_tol=1e-9, inner_tol=1e-10, hjb_tol=1e-12,
            rho_sequence=tuple(2.0**-k for k in range(6)), ergodic_tol=5e-4,
            full_sequence=True,
        )
        gamma = solve_vanishing_discount(spec, m0, cfg)
        psi = solve_vanishing_discount(spec, m0, replace(cfg, strategy="psi"))
        assert gamma.converged and psi.converged
        assert np.abs(gamma.lam - psi.lam).max() <= 10 * cfg.outer_tol
        m_gap = max(np.abs(a.values - b.values).max() for a, b in zip(gamma.m, psi.m))
        assert m_gap <= 10 * cfg.outer_tol

    @pytest.mark.parametrize("strategy", ["gamma", "psi"])
    def test_outer_iterations_sum_over_levels(self, monkeypatch, strategy):
        # the driver reports the outer passes of every discount level, while
        # each level's strategy still returns its own count
        levels = []
        for name in ("solve_field_iteration", "solve_measure_iteration"):
            def counted(*args, _solve=getattr(coupling, name), **kwargs):
                sol = _solve(*args, **kwargs)
                levels.append(sol.diagnostics["outer_iterations"])
                return sol

            monkeypatch.setattr(coupling, name, counted)
        cfg = CouplingConfig(
            T=0.1, dt=0.05, outer_tol=1e-9, inner_tol=1e-10, hjb_tol=1e-12, strategy=strategy,
            rho_sequence=(1.0, 0.5, 0.25), full_sequence=True,
        )
        sol = solve_vanishing_discount(example_one(d=1, **WEAK), two_bump_density(GRID), cfg)
        assert len(levels) == 3 and min(levels) >= 1
        assert sol.diagnostics["level_outer_iterations"] == levels
        assert sol.diagnostics["outer_iterations"] == sum(levels) > levels[-1]
        assert sol.diagnostics["final_outer_error"] == sol.outer_errors[-1][1]
        assert len(sol.outer_errors) == levels[-1]

    def test_history_model_converges(self):
        spec = example_two(d=1, eps=0.15, kappa=0.15, potential=0.3, kernel_scale=0.5)
        cfg = CouplingConfig(
            T=0.2, dt=0.1, outer_tol=5e-9, inner_tol=1e-8, hjb_tol=1e-11, strategy="psi",
            rho_sequence=tuple(2.0**-k for k in range(10)), ergodic_tol=5e-4,
        )
        sol = solve_vanishing_discount(spec, two_bump_density(GRID), cfg)
        assert sol.converged
        assert sol.diagnostics["direct_gap_max"] <= 10 * cfg.ergodic_tol


class TestSelfConvergence:
    def test_coupled_solution_stable_under_grid_refinement(self):
        # joint measures live on atoms, so solutions from different grids are
        # directly comparable through the transport distance
        spec = example_one(d=1, **WEAK)
        results = {}
        for n in (32, 64):
            grid = Grid(1, n)
            cfg = CouplingConfig(T=0.3, dt=0.1, rho=1.0, outer_tol=1e-9, inner_tol=1e-9, hjb_tol=1e-12)
            sol = solve_field_iteration(spec, two_bump_density(grid), cfg)
            assert sol.converged
            results[n] = sol
        for j in range(results[32].n_slices):
            gap = wasserstein1_joint(results[32].mu[j], results[64].mu[j])
            assert gap < 0.02  # discretization gap, shrinking with h


class TestSmoke2D:
    def test_coupled_run_small_2d(self):
        grid = Grid(2, 8)
        spec = example_one(d=2, delta=1.0, eps=0.05, kappa=0.05, potential=0.2)
        m0 = uniform_density(grid)
        cfg = CouplingConfig(T=0.2, dt=0.1, rho=1.0, outer_tol=1e-7, inner_tol=1e-8, hjb_tol=1e-10)
        sol = solve_field_iteration(spec, m0, cfg)
        assert sol.converged
        assert sol.mu_residuals.max() <= cfg.inner_tol
        for m in sol.m:
            assert abs(m.mass() - 1.0) <= 1e-12
            assert m.values.min() >= 0.0


@pytest.fixture(scope="module")
def memory_psi_solution():
    spec = example_two(d=1, eps=0.15, kappa=0.15, potential=0.3, kernel_scale=0.5)
    cfg = CouplingConfig(T=0.4, dt=0.1, rho=1.0, outer_tol=5e-9, inner_tol=1e-8, hjb_tol=1e-11, strategy="psi")
    return spec, cfg, solve_measure_iteration(spec, two_bump_density(GRID), cfg)


def _counting_lp(monkeypatch):
    calls = []
    lp = measure._transport_lp

    def counting(*args, **kwargs):
        calls.append(1)
        return lp(*args, **kwargs)

    monkeypatch.setattr(measure, "_transport_lp", counting)
    return calls


def _unpruned_max(pairs, scales, _state_w1s, _tol=-np.inf):
    return max(wasserstein1_joint(nu1, nu2) / c for (nu1, nu2), c in zip(pairs, scales))


def _drifting_pairs(scaled):
    """A bump drifting under a drifting smooth policy, every time pair:
    (pairs, scales, state W1s)."""
    x = GRID.axis_coordinates()
    densities = [von_mises_density(GRID, 0.4 + 0.01 * t) for t in range(6)]
    mus = [
        pushforward(m, 0.05 * np.sin(2 * np.pi * (x - 0.02 * t))[:, None])
        for t, m in enumerate(densities)
    ]
    index = [(j, k) for j in range(6) for k in range(j + 1, 6)]
    pairs = [(mus[j], mus[k]) for j, k in index]
    scales = [np.sqrt(0.1 * (k - j)) if scaled else 1.0 for j, k in index]
    state = [wasserstein1_state(densities[j], densities[k]) for j, k in index]
    return pairs, scales, state


def _bounds(pairs, scales, state):
    return [measure.joint_w1_upper_bound(nu1, nu2, s) / c for (nu1, nu2), c, s in zip(pairs, scales, state)]


class TestPrunedMaximum:
    @pytest.mark.parametrize("scaled", [False, True])
    def test_equals_full_maximum_with_fewer_lps(self, scaled, monkeypatch):
        pairs, scales, state = _drifting_pairs(scaled)
        calls = _counting_lp(monkeypatch)
        full = _unpruned_max(pairs, scales, state)
        n_full = len(calls)
        pruned = coupling._max_joint_w1(pairs, scales, state)
        assert pruned == full
        assert n_full == len(pairs)
        assert len(calls) - n_full < n_full / 2

    def test_unknown_state_distance_solves_every_pair(self, monkeypatch):
        mus = [pushforward(von_mises_density(GRID, c), np.zeros((GRID.n, 1))) for c in (0.3, 0.4, 0.5)]
        pairs = [(mus[0], mus[1]), (mus[1], mus[2]), (mus[0], mus[2])]
        calls = _counting_lp(monkeypatch)
        value = coupling._max_joint_w1(pairs, [1.0] * 3, [np.inf] * 3)
        assert value == _unpruned_max(pairs, [1.0] * 3, None)
        assert len(calls) == 6
        assert coupling._max_joint_w1([], [], []) == -np.inf

    @pytest.mark.parametrize("scaled", [False, True])
    def test_bounds_at_tolerance_solve_no_lp(self, scaled, monkeypatch):
        pairs, scales, state = _drifting_pairs(scaled)
        top = max(_bounds(pairs, scales, state))
        calls = _counting_lp(monkeypatch)
        assert coupling._max_joint_w1(pairs, scales, state, top) == top
        assert coupling._max_joint_w1(pairs, scales, state, 2.0 * top) == top
        assert calls == []

    @pytest.mark.parametrize("scaled", [False, True])
    def test_one_bound_above_tolerance_gives_full_maximum(self, scaled, monkeypatch):
        pairs, scales, state = _drifting_pairs(scaled)
        bounds = sorted(_bounds(pairs, scales, state))
        assert bounds[-2] < bounds[-1]
        calls = _counting_lp(monkeypatch)
        value = coupling._max_joint_w1(pairs, scales, state, bounds[-2])
        assert calls
        assert value == _unpruned_max(pairs, scales, state) < bounds[-1]

    def test_infinite_bound_never_settles(self, monkeypatch):
        pairs, scales, state = _drifting_pairs(False)
        state[3] = np.inf
        calls = _counting_lp(monkeypatch)
        value = coupling._max_joint_w1(pairs, scales, state, np.inf)
        assert calls
        assert value == _unpruned_max(pairs, scales, state)

    def test_psi_run_matches_unpruned_outer_error(self, memory_psi_solution, monkeypatch):
        # passes the bounds do not settle log the exact maximum; a settled
        # pass logs a certified upper bound that meets outer_tol, between the
        # exact maximum and the tolerance, and solves no LP.  The iterates
        # do not depend on it.
        spec, cfg, sol = memory_psi_solution
        prune = coupling._max_joint_w1
        calls = _counting_lp(monkeypatch)
        passes = []  # (LPs solved, largest state W1) per outer-error call

        def recording(pairs, scales, state_w1s, tol=-np.inf):
            before = len(calls)
            value = prune(pairs, scales, state_w1s, tol)
            passes.append((len(calls) - before, max(state_w1s)))
            return value

        monkeypatch.setattr(coupling, "_max_joint_w1", recording)
        pruned = solve_measure_iteration(spec, two_bump_density(GRID), cfg)
        monkeypatch.setattr(coupling, "_max_joint_w1", _unpruned_max)
        full = solve_measure_iteration(spec, two_bump_density(GRID), cfg)
        assert pruned.outer_errors == sol.outer_errors
        assert len(passes) == len(full.outer_errors) == len(sol.outer_errors)
        for (lps, state_max), row, full_row in zip(passes, sol.outer_errors, full.outer_errors):
            assert row[0] == full_row[0]
            if lps:
                assert row == full_row
            else:
                assert state_max <= full_row[1] <= row[1] <= cfg.outer_tol
        assert passes[-1][0] == 0
        for a, b in zip(full.mu, sol.mu):
            assert np.array_equal(a.a, b.a) and np.array_equal(a.w, b.w)
        for a, b in zip(full.m, sol.m):
            assert np.array_equal(a.values, b.values)
        assert full.converged == sol.converged


class TestRegularityReport:
    def test_psi_run_matches_full_loop(self, memory_psi_solution, monkeypatch):
        spec, cfg, sol = memory_psi_solution
        calls = _counting_lp(monkeypatch)
        rep = regularity_report(sol, spec=spec)
        report_lps = len(calls)
        n = sol.n_slices
        best = 0.0
        for j in range(n):
            for k in range(j + 1, n):
                root = np.sqrt(sol.times[k] - sol.times[j])
                best = max(best, wasserstein1_joint(sol.mu[j], sol.mu[k]) / root)
        assert rep["mu_holder_half"] == best > 0.0
        assert report_lps < len(calls) - report_lps == n * (n - 1) // 2

    def test_unpushed_measures_are_not_bounded(self, memory_psi_solution):
        # measures that are not the pushforwards of the stored densities keep
        # the full loop: the densities' W1 says nothing about them.  Here
        # the stored densities are all m(0) and the measures push the run's
        # densities backwards in time through one policy, so a bound from
        # the stored densities' W1 would be zero.
        spec, cfg, sol = memory_psi_solution
        mu = tuple(pushforward(m, sol.policy[0]) for m in sol.m[::-1])
        rep = regularity_report(replace(sol, m=(sol.m[0],) * sol.n_slices, mu=mu))
        best = max(
            wasserstein1_joint(mu[j], mu[k]) / np.sqrt(sol.times[k] - sol.times[j])
            for j in range(sol.n_slices) for k in range(j + 1, sol.n_slices)
        )
        assert rep["mu_holder_half"] == best > 0.0

    def test_stationary_run_has_zero_holder_ratios(self):
        spec = _const_model(1.0)
        cfg = CouplingConfig(T=0.4, dt=0.1, rho=1.0, outer_tol=1e-8)
        sol = solve_field_iteration(spec, uniform_density(GRID), cfg)
        rep = regularity_report(sol, spec=spec)
        assert rep["du_holder_half"] == pytest.approx(0.0, abs=1e-10)
        assert rep["m_holder_half"] == pytest.approx(0.0, abs=1e-10)
        assert rep["mu_holder_half"] == pytest.approx(0.0, abs=1e-10)

    def test_discount_bound_and_finite_ratios(self, weak_gamma_solution):
        spec, m0, cfg, sol = weak_gamma_solution
        rep = regularity_report(sol, spec=spec)
        assert sol.rho == cfg.rho and "lambda_sup" not in rep
        assert rep["rho_u_sup"] <= rep["running_cost_sup"] + 1e-9
        for key in ("du_holder_half", "m_holder_half", "mu_holder_half"):
            assert np.isfinite(rep[key])


class TestDispatch:
    def test_solve_system_reads_the_mode_from_the_config(self):
        # a discount sequence selects the ergodic driver: it is never ignored
        spec = _const_model(1.0)
        m0 = uniform_density(GRID)
        cfg = CouplingConfig(T=0.2, dt=0.1, rho=0.5)
        disc = solve_system(spec, m0, cfg)
        assert disc.rho == 0.5 and disc.lam is None and "rho_sequence" not in disc.diagnostics
        np.testing.assert_array_equal(disc.u[0], disc.w[0] + disc.s[0] / 0.5)
        erg = solve_system(spec, m0, replace(cfg, rho_sequence=(1.0, 0.5, 0.25), ergodic_tol=1e-2))
        assert erg.rho == 0.0 and erg.diagnostics["rho_sequence"] == [1.0, 0.5]
        np.testing.assert_array_equal(erg.lam, erg.s)
        assert all(u is w for u, w in zip(erg.u, erg.w))
        assert "rho_u_sup" not in regularity_report(erg) and "lambda_sup" in regularity_report(erg)

    def test_blend_policies_stays_in_control_set(self):
        control = ControlSet(k=1, radius=1.0)
        a = np.full((GRID.n, 1), 1.0)
        b = np.full((GRID.n, 1), -1.0)
        mix = blend_policies(a, b, 0.5, control)
        assert np.abs(mix).max() <= 1.0
