"""Coupled-system driver tests: measure fixed point, both outer strategies,
the ergodic limit, and the regularity report."""

from dataclasses import replace

import numpy as np
import pytest

from qsmfg import coupling, measure
from qsmfg.coupling import (
    CouplingConfig,
    regularity_report,
    solve_field_iteration,
    solve_joint_measure,
    solve_measure_iteration,
    solve_system,
    solve_vanishing_discount,
)
from qsmfg.grid import FieldError, Grid, gradient_central
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
        control=control,
        coefficients=lambda x, nu: (
            lambda a: np.zeros(np.broadcast_shapes(np.shape(x), np.shape(a))),
            lambda a: np.full(np.broadcast_shapes(np.shape(x), np.shape(a))[:-1], c),
            lambda p: np.zeros(np.shape(p)),
        ),
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
        probe = policy_field(spec, GRID, du, spec.coefficients(GRID.coordinates(), res.mu))
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
            probe = policy_field(spec, GRID, du, spec.coefficients(GRID.coordinates(), res.mu))
            assert wasserstein1_joint(res.mu, pushforward(m, probe)) <= 1e-8


def _scripted_w1(monkeypatch, values):
    """Make coupling's joint W1 return the given increments in order."""
    calls = []

    def scripted(nu1, nu2):
        calls.append(1)
        return values[len(calls) - 1]

    monkeypatch.setattr(coupling, "wasserstein1_joint", scripted)
    return calls


def _alternating_policies(monkeypatch):
    """Make coupling's policy map return constant policies of alternating
    sign, so that no step's policy, plain or damped, repeats the one before
    (damped steps approach the 2-cycle +-1/6, never a fixed point)."""
    calls = []

    def alternating(spec, grid, du, coefficients):
        calls.append(1)
        return np.full((grid.size, spec.control.k), 0.5 * (-1) ** len(calls))

    monkeypatch.setattr(coupling, "policy_field", alternating)


def _plain_ratios(increments):
    return [b / a for a, b in zip(increments, increments[1:]) if a >= coupling.RATE_FLOOR]


def _plain_picard(m, du, spec, tol, max_iter):
    """The joint-measure fixed point as a plain Picard loop that pushes
    forward and solves W1 on every step: (last measure, increments)."""
    x = m.grid.coordinates()
    zero = pushforward(m, np.zeros((m.grid.size, spec.control.k)))
    mu = pushforward(m, policy_field(spec, m.grid, du, spec.coefficients(x, zero)))
    increments = []
    for _ in range(max_iter):
        mu_next = pushforward(m, policy_field(spec, m.grid, du, spec.coefficients(x, mu)))
        increments.append(wasserstein1_joint(mu_next, mu))
        mu = mu_next
        if increments[-1] <= tol:
            break
    return mu, tuple(increments)


class TestJointMeasureLoop:
    """Exact iterations, rate and damped flag of solve_joint_measure's loop."""

    SPEC = example_one(delta=1.0, eps=0.5, kappa=0.3)

    def _start(self, m, du):
        zero = np.zeros((GRID.n, 1))
        return pushforward(m, self._policy(du, pushforward(m, zero)))

    def _policy(self, du, mu):
        return policy_field(self.SPEC, GRID, du, self.SPEC.coefficients(GRID.coordinates(), mu))

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
            policy = self._policy(du, mu)
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
        # the policies never repeat, so every step pushes forward and reads
        # its scripted W1; the map's own policies can repeat bit for bit
        # within the damped budget, which stops the loop at an exact fixed point
        calls = _scripted_w1(monkeypatch, increments)
        _alternating_policies(monkeypatch)
        res = solve_joint_measure(_random_density(34), _smooth_gradient(35), self.SPEC, tol=1e-9, max_iter=3)
        assert (res.iterations, res.converged, res.rate, res.damped) == expected
        assert res.increments == tuple(increments[: res.iterations]) and len(calls) == res.iterations

    def test_repeated_policy_hands_its_binding_to_the_slice(self, weak_gamma_solution, monkeypatch):
        # on the symmetric two-bump data each slice's first step repeats the
        # start's policy: the fixed point binds the reference measure and its
        # start, pushes forward twice, solves no W1, and the slice's HJB solve
        # reads the fixed point's binding instead of binding a third time
        spec, _, cfg, sol = weak_gamma_solution
        counts = {"bindings": 0, "pushforward": 0, "w1": 0}

        def counted(name, fn):
            def call(*args):
                counts[name] += 1
                return fn(*args)
            return call

        counting = replace(spec, coefficients=counted("bindings", spec.coefficients))
        monkeypatch.setattr(coupling, "pushforward", counted("pushforward", coupling.pushforward))
        monkeypatch.setattr(coupling, "wasserstein1_joint", counted("w1", coupling.wasserstein1_joint))
        du = [gradient_central(GRID, w) for w in sol.w]
        fixed_points, bindings, _ = coupling._gamma_slices(counting, cfg, sol.m, du)
        steps = [(res.iterations, res.increments, res.converged) for res in fixed_points]
        assert steps == [(1, (0.0,), True)] * sol.n_slices
        assert counts == {"bindings": 2 * sol.n_slices, "pushforward": 2 * sol.n_slices, "w1": 0}
        assert all(b is res.binding for b, res in zip(bindings, fixed_points))

    @pytest.mark.parametrize("tol, max_iter, repeats", [(1e-30, 300, True), (1e-9, 300, False), (1e-9, 0, False)])
    def test_asymmetric_data_matches_plain_picard(self, tol, max_iter, repeats):
        # example1_asym's initial density and a gradient with a nonzero mean
        # take several steps.  At 1e-30 only a step that repeats its policy
        # stops them, which the plain loop measures as a W1 of exactly 0.0;
        # at 1e-9 the tolerance stops them, and a zero budget returns the
        # start.  Each time the binding is the returned measure's.
        spec = example_one(d=1, **WEAK)
        m = von_mises_density(GRID, center=0.3, concentration=4.0)
        du = _smooth_gradient(36, offset=0.5, amplitude=0.3)
        res = solve_joint_measure(m, du, spec, tol=tol, max_iter=max_iter)
        mu, increments = _plain_picard(m, du, spec, tol, max_iter)
        assert res.increments == increments and not res.damped
        assert len(increments) > 4 or max_iter == 0
        assert (len(increments) > 0 and increments[-1] == 0.0) == repeats
        np.testing.assert_array_equal(res.mu.a, mu.a)
        np.testing.assert_array_equal(res.mu.w, mu.w)
        fresh = spec.coefficients(GRID.coordinates(), res.mu)
        probe = np.random.default_rng(37).uniform(-1.0, 1.0, (GRID.size, 1))
        for a in (res.mu.a, probe):
            np.testing.assert_array_equal(res.binding[0](a), fresh[0](a))
            np.testing.assert_array_equal(res.binding[1](a), fresh[1](a))
        np.testing.assert_array_equal(res.binding[2](du), fresh[2](du))


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
    def test_scripted_outer_errors(self, errors, converged):
        cfg = CouplingConfig(T=0.1, dt=0.1, outer_tol=1e-12, max_outer=len(errors))
        received = []

        def step(state):
            received.append(state)
            k = len(received)
            return ("pass", k), (errors[k - 1], "part"), {"inner"} if k == 2 else {"hjb"} if k == 3 else set()

        state, log, failed, done = coupling._picard(cfg, "start", step)
        assert done is converged
        assert log == [(k, e, "part") for k, e in enumerate(errors, start=1)]
        # each pass steps from the state the pass before returned, and the
        # missed checks of every pass are kept
        assert received == ["start", *[("pass", k) for k in range(1, len(errors))]]
        assert state == ("pass", len(errors))
        assert failed == {"inner", "hjb"}

    @pytest.mark.parametrize("solve", [solve_field_iteration, solve_measure_iteration], ids=["gamma", "psi"])
    def test_strong_coupling_converges(self, solve):
        # R L0 / delta = 2.4: the inner fixed point damps, the outer map contracts
        spec = example_one(d=1, **self.STRONG)
        cfg = CouplingConfig(
            T=0.3, dt=0.1, rho=1.0, outer_tol=1e-9, inner_tol=1e-8,
            hjb_tol=1e-11, max_outer=6,
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
            coefficients = spec.coefficients(GRID.coordinates(), nu)
            r, probe, _, _ = equation_residual(spec, coefficients, cfg.rho, GRID, sol.w[j], sol.s[j])
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
        # the joint-measure fixed point of the first pass refuses the model
        spec = example_two(d=1)
        cfg = CouplingConfig(T=0.2, dt=0.1)
        with pytest.raises(ValueError, match="instant model"):
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

    def test_one_binding_per_slice(self):
        # each pass binds every slice's measure once, and the slice's HJB
        # solve and Fokker-Planck drift read that binding, so an FP step binds
        # nothing; the finish runs one more pass, and its probe binds each
        # stored measure once
        base = example_two(d=1, eps=0.15, kappa=0.15, potential=0.3, kernel_scale=0.5)
        bindings = []

        def coefficients(x, nu):
            bindings.append(nu)
            return base.coefficients(x, nu)

        spec = replace(base, coefficients=coefficients)
        cfg = CouplingConfig(T=0.4, dt=0.1, rho=1.0, outer_tol=5e-9, inner_tol=1e-8, hjb_tol=1e-11, strategy="psi")
        sol = solve_measure_iteration(spec, two_bump_density(GRID), cfg)
        passes = sol.diagnostics["outer_iterations"]
        assert sol.converged and passes >= 2
        assert len(bindings) == (passes + 2) * sol.n_slices

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


_PICARD = {"gamma": "_field_picard", "psi": "_measure_picard"}  # each strategy's Picard part
_SOLVE = {"gamma": solve_field_iteration, "psi": solve_measure_iteration}


@pytest.fixture(scope="module", params=["gamma", "psi"])
def weak_ergodic_levels(request):
    """The weak ergodic solve of TestErgodicDriver, with every discount
    level's Picard result: its last pass's pairs, evolved densities and
    stored measures, before the last level's finish."""
    spec, m0 = example_one(d=1, **WEAK), two_bump_density(GRID)
    cfg = CouplingConfig(
        T=0.2, dt=0.1, outer_tol=1e-9, inner_tol=1e-10, hjb_tol=1e-12, strategy=request.param,
        rho_sequence=tuple(2.0**-k for k in range(10)), ergodic_tol=5e-4, full_sequence=True,
    )
    levels = []
    name = _PICARD[request.param]

    def recorded(*args, _picard=getattr(coupling, name), **kwargs):
        levels.append(_picard(*args, **kwargs))
        return levels[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(coupling, name, recorded)
        sol = solve_vanishing_discount(spec, m0, cfg)
    return spec, m0, cfg, sol, levels


def _assert_same_solution(ours, theirs):
    """Every stored field of two TrajectorySolutions is equal bit for bit."""
    np.testing.assert_array_equal(ours.times, theirs.times)
    for a, b in zip(ours.m, theirs.m, strict=True):
        np.testing.assert_array_equal(a.values, b.values)
    for a, b in zip(ours.mu, theirs.mu, strict=True):
        for name in ("x", "a", "w"):
            np.testing.assert_array_equal(getattr(a, name), getattr(b, name))
    for name in ("w", "s", "outer_errors", "hjb_residuals", "mu_residuals"):
        np.testing.assert_array_equal(getattr(ours, name), getattr(theirs, name))
    assert ours.rho == theirs.rho
    np.testing.assert_equal(ours.diagnostics, theirs.diagnostics)


@pytest.mark.parametrize("strategy", ["gamma", "psi"])
def test_finish_reads_only_its_level(monkeypatch, strategy):
    # a copy of the level a public solve's Picard part returned, finished
    # again, is that solve's result bit for bit: the finish keeps no state
    # of the Picard loop
    spec, m0 = example_one(d=1, **WEAK), two_bump_density(GRID)
    cfg = CouplingConfig(T=0.2, dt=0.1, outer_tol=1e-9, inner_tol=1e-10, hjb_tol=1e-12, strategy=strategy)
    levels = []

    def recorded(*args, _picard=getattr(coupling, _PICARD[strategy]), **kwargs):
        levels.append(_picard(*args, **kwargs))
        return levels[-1]

    monkeypatch.setattr(coupling, _PICARD[strategy], recorded)
    sol = _SOLVE[strategy](spec, m0, cfg)
    assert len(levels) == 1 and sol.diagnostics["outer_iterations"] >= 2
    finished, bindings = coupling._finish(spec, m0, cfg, replace(levels[0]), strategy)
    _assert_same_solution(finished, sol)
    assert len(bindings) == sol.n_slices


def _finish_every_level(spec, m0, cfg):
    """Oracle for the ergodic driver: every discount level a full public
    solve (Picard loop, consistency pass and residual probe) from the
    extrapolated start, stopped on the driver's increment rule."""
    levels = []
    for rho in cfg.rho_sequence:
        fits = [
            (lv.rho, lv.w if cfg.strategy == "gamma" else lv.policy, [m.values for m in lv.m]) for lv in levels[-3:]
        ]
        initial = coupling._extrapolated_start(spec, GRID, cfg.strategy, fits, rho) if fits else None
        levels.append(_SOLVE[cfg.strategy](spec, m0, replace(cfg, rho=rho), initial=initial))
        done = len(levels) > 1 and coupling._level_increments(levels[-1], levels[-2])[1] <= cfg.ergodic_tol
        if done and not cfg.full_sequence:
            break
    return levels


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
        with pytest.raises(FieldError, match="rho_sequence") as err:
            CouplingConfig(T=0.2, dt=0.1, rho_sequence=sequence)
        assert err.value.field == "rho_sequence"
        for accepted in ((), (1.0, 0.5), (1.0, 0.5, 1e-3)):
            assert CouplingConfig(T=0.2, dt=0.1, rho_sequence=accepted).rho_sequence == accepted

    @pytest.mark.parametrize(
        "field_name, value",
        [("T", 0.0), ("T", np.nan), ("T", np.inf), ("dt", -0.1), ("dt", np.nan), ("dt", 0.15),
         ("rho", 0.0), ("rho", -1.0), ("rho", np.nan), ("rho", np.inf), ("outer_tol", 0.0), ("outer_tol", np.nan),
         ("outer_tol", np.inf), ("inner_tol", np.nan), ("hjb_tol", -1e-12), ("ergodic_tol", np.nan),
         ("max_outer", 0)],
    )
    def test_config_values_validated(self, field_name, value):
        # positivity checks reject NaN and infinities too, T must be a
        # multiple of dt (0.2 is not one of 0.15), and a cap of 0 iterations
        # would return an unsolved "solution"
        with pytest.raises(FieldError, match=field_name) as err:
            CouplingConfig(**{"T": 0.2, "dt": 0.1, field_name: value})
        assert err.value.field == field_name
        assert CouplingConfig(T=0.2, dt=0.1, max_outer=1).max_outer == 1

    def test_full_sequence_needs_a_sequence(self):
        # a discounted config has no sequence to run in full
        with pytest.raises(ValueError, match="full_sequence"):
            CouplingConfig(T=0.2, dt=0.1, full_sequence=True)
        assert CouplingConfig(T=0.2, dt=0.1, rho_sequence=(1.0, 0.5), full_sequence=True).full_sequence

    @pytest.mark.parametrize("full", [False, True], ids=["stopped", "full"])
    @pytest.mark.parametrize("strategy", ["gamma", "psi"])
    def test_picard_only_levels_match_finishing_every_level(self, monkeypatch, strategy, full):
        # an intermediate level only predicts the next one, so skipping its
        # consistency pass and probe moves the written tuple by rounding
        # alone and no level's pass count; the probe runs once per solve
        spec, m0 = example_one(d=1, **WEAK), two_bump_density(GRID)
        cfg = CouplingConfig(
            T=0.1, dt=0.05, outer_tol=1e-9, inner_tol=1e-10, hjb_tol=1e-12, strategy=strategy,
            rho_sequence=tuple(2.0**-k for k in range(8)), ergodic_tol=3e-4, full_sequence=full,
        )
        levels = _finish_every_level(spec, m0, cfg)
        assert len(levels) == (8 if full else 6)
        probes = []

        def probed(*args, _probe=coupling._solution):
            probes.append(args[2].rho)
            return _probe(*args)

        monkeypatch.setattr(coupling, "_solution", probed)
        sol = solve_vanishing_discount(spec, m0, cfg)
        assert probes == [levels[-1].rho]
        assert sol.diagnostics["level_outer_iterations"] == [lv.diagnostics["outer_iterations"] for lv in levels]
        old = levels[-1]
        assert np.abs(sol.s - old.s).max() <= 1e-12
        assert max(np.abs(a - b).max() for a, b in zip(sol.w, old.w)) <= 1e-12
        assert max(np.abs(a.values - b.values).max() for a, b in zip(sol.m, old.m)) <= 1e-12
        for ours, theirs in zip(sol.mu, old.mu):
            assert np.abs(ours.a - theirs.a).max() <= 1e-12 and np.abs(ours.w - theirs.w).max() <= 1e-12
        assert sol.converged and old.converged

    @pytest.mark.parametrize("strategy", ["gamma", "psi"])
    def test_unfinished_level_failure_is_reported(self, strategy):
        # the first levels need 3 passes and the last ones 1: at a budget of
        # 2 only levels that are never finished miss the outer tolerance
        cfg = CouplingConfig(
            T=0.1, dt=0.05, outer_tol=1e-9, inner_tol=1e-10, hjb_tol=1e-12, strategy=strategy, max_outer=2,
            rho_sequence=tuple(2.0**-k for k in range(8)), ergodic_tol=3e-4,
        )
        sol = solve_vanishing_discount(example_one(d=1, **WEAK), two_bump_density(GRID), cfg)
        passes = sol.diagnostics["level_outer_iterations"]
        assert passes[0] == cfg.max_outer and passes[-1] < cfg.max_outer
        assert sol.diagnostics["final_outer_error"] <= cfg.outer_tol
        assert sol.diagnostics["failures"] == ["outer"] and not sol.converged

    @pytest.mark.parametrize("strategy", ["gamma", "psi"])
    def test_direct_gap_halves_with_the_last_discount(self, strategy):
        # first-order vanishing-discount rate (Achdou & Capuzzo-Dolcetta,
        # SIAM J. Numer. Anal. 48(3), 2010): the written pairs lie O(rho)
        # from the direct ergodic solves
        grid = Grid(1, 16)
        spec, m0 = example_one(d=1, **WEAK), two_bump_density(grid)
        gaps = []
        for count in (6, 7, 8):
            cfg = CouplingConfig(
                T=0.1, dt=0.05, outer_tol=1e-9, inner_tol=1e-10, hjb_tol=1e-12, strategy=strategy,
                rho_sequence=tuple(2.0**-k for k in range(count)), full_sequence=True,
            )
            gaps.append(solve_vanishing_discount(spec, m0, cfg).diagnostics["direct_gap_max"])
        for ratio in (b / a for a, b in zip(gaps, gaps[1:])):
            assert 0.45 <= ratio <= 0.55

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
        plain = _SOLVE[cfg.strategy](spec, m0, replace(cfg, rho=cfg.rho_sequence[-1]), initial=initial)
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
        base_sol = solve_ergodic(base, base.coefficients(GRID.coordinates(), nu_any), GRID, tol=1e-12)
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
            equation_residual(spec, spec.coefficients(GRID.coordinates(), mu), 0.0, GRID, w, s)[0]
            for mu, w, s in zip(sol.mu, sol.w, sol.s)
        ]
        assert measured == max(probes)
        shift = 0.25 * max(float(np.abs(w).max()) for w in sol.w)
        assert measured == pytest.approx(shift, abs=sol.hjb_residuals.max() + 1e-15)
        assert measured > 1e3 * sol.hjb_residuals.max()

    @pytest.mark.parametrize("strategy", ["gamma", "psi"])
    def test_closing_pass_measures_only_the_hjb(self, monkeypatch, strategy):
        # after the last level's finish, whose residual probe (_solution) is
        # the one probe of the solve, the pairs are read in the ergodic
        # equation and against direct solves, one slice context each: no
        # measure is pushed forward and no transport LP is solved
        calls = []
        names = (_PICARD[strategy], "_solution", "pushforward", "wasserstein1_joint", "equation_residual", "solve_ergodic")
        for name in names:
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
        closing = calls[len(calls) - calls[::-1].index("_solution"):]
        assert calls.count(_PICARD[strategy]) == 3 and calls.count("_solution") == 1
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
        # each level's Picard result still holds its own count
        levels = []
        for name in _PICARD.values():
            def counted(*args, _picard=getattr(coupling, name), **kwargs):
                level = _picard(*args, **kwargs)
                levels.append(level.diagnostics["outer_iterations"])
                return level

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


@pytest.fixture(scope="module")
def gamma_2d_solution():
    """The gamma_2d benchmark's problem: example1 in 2D at n = 16, T = 0.1."""
    spec = example_one(d=2, **WEAK)
    cfg = CouplingConfig(T=0.1, dt=0.05, rho=1.0, outer_tol=1e-9, inner_tol=1e-9, hjb_tol=1e-12)
    return spec, solve_field_iteration(spec, two_bump_density(Grid(2, 16)), cfg)


def _one_shot_costs(spec, sol):
    """Each slice's running cost on every node and every point of the
    report's control mesh at once, an (n^d, M) array per slice."""
    mesh = spec.control.mesh(129)
    x = sol.m[0].grid.coordinates()[:, None, :]
    return [
        spec.coefficients(x, slice_measure(spec, sol.times[: j + 1], sol.mu[: j + 1]))[1](mesh[None, :, :])
        for j in range(sol.n_slices)
    ]


class TestRegularityReport:
    @pytest.mark.parametrize("k", [1, 2])
    def test_blocked_running_cost_sup_equals_one_shot_max(self, k, weak_gamma_solution, gamma_2d_solution):
        # the report evaluates the cost on COST_BLOCK mesh points at a time;
        # the max is exact, so the sup equals the max over the whole mesh
        if k == 2:
            spec, sol = gamma_2d_solution
        else:
            spec, _, _, sol = weak_gamma_solution
        costs = _one_shot_costs(spec, sol)
        blocks = -(-costs[0].shape[1] // coupling.COST_BLOCK)
        assert blocks == (9 if k == 2 else 1)  # mesh(129) has 2049 points for k = 2, 129 for k = 1
        one_shot = max(float(np.abs(c).max()) for c in costs)
        if k == 2:  # the sup sits on the boundary ring, past the first block
            assert max(float(np.abs(c[:, : coupling.COST_BLOCK]).max()) for c in costs) < one_shot
        assert regularity_report(sol, spec=spec)["running_cost_sup"] == one_shot

    def test_2d_report_memory_stays_small(self, gamma_2d_solution):
        # the report forms no (n^d, M) cost array and no (n1, n2, d)
        # transport temporary, so its traced peak stays small
        import tracemalloc

        spec, sol = gamma_2d_solution
        regularity_report(sol, spec=spec)  # first calls build the grid's cached arrays
        tracemalloc.start()
        try:
            regularity_report(sol, spec=spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4e6

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
        rep = regularity_report(replace(sol, m=(sol.m[0],) * sol.n_slices, mu=mu), spec)
        best = max(
            wasserstein1_joint(mu[j], mu[k]) / np.sqrt(sol.times[k] - sol.times[j])
            for j in range(sol.n_slices) for k in range(j + 1, sol.n_slices)
        )
        assert rep["mu_holder_half"] == best > 0.0

    def test_sampled_pairs_reach_the_state_w1_in_slice_order(self, monkeypatch):
        # 31 slices give 465 pairs, more than STATE_PAIRS, so the report
        # samples them; it hands each state W1 batch over in slice order,
        # which starts every flow from a neighbouring pair's basis, and the
        # draws and the set of pairs are those of the seed's generator
        spec = _const_model(1.0)
        sol = solve_field_iteration(spec, von_mises_density(GRID), CouplingConfig(T=3.0, dt=0.1))
        n = sol.n_slices
        pairs = [(j, k) for j in range(n) for k in range(j + 1, n)]
        assert len(pairs) > coupling.STATE_PAIRS
        slice_of = {id(m): j for j, m in enumerate(sol.m)}
        assert len(slice_of) == n
        batches = []

        def recording(m1, m2):
            batches.append([(slice_of[id(a)], slice_of[id(b)]) for a, b in zip(m1, m2)])
            return wasserstein1_state(m1, m2)

        monkeypatch.setattr(coupling, "wasserstein1_state", recording)
        regularity_report(sol, spec, seed=3)
        drawn = np.random.default_rng(3).choice(len(pairs), size=coupling.STATE_PAIRS, replace=False)
        assert batches[0] == sorted(pairs[int(c)] for c in drawn)
        assert all(batch == sorted(batch) for batch in batches)

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
        rep = regularity_report(erg, spec)
        assert "rho_u_sup" not in rep and "lambda_sup" in rep

    def test_blend_policies_stays_in_control_set(self):
        # a damped joint-measure run blends each policy with the last one
        # and projects the blend: every policy it settles on is admissible
        spec = example_one(delta=0.2, eps=3.0, kappa=0.0)
        m, du = _random_density(7), _smooth_gradient(8, offset=0.5, amplitude=0.3)
        res = solve_joint_measure(m, du, spec, tol=1e-9, max_iter=10)
        assert res.damped
        assert np.linalg.norm(res.mu.a, axis=-1).max() <= spec.control.radius
