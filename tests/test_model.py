import inspect
import math
import warnings
from dataclasses import fields, replace

import numpy as np
import pytest

from qsmfg import model
from qsmfg.grid import Grid
from qsmfg.measure import DensityField, JointMeasure, pushforward, wasserstein1_joint
from qsmfg.model import (
    MODEL_BUILDERS,
    ControlSet,
    ModelSpec,
    NonUniqueMaximizerWarning,
    brute_force_argmax,
    check_model,
    example_one,
    example_two,
    hamiltonian_gradient_p,
    hamiltonian_value,
    memory_aggregate,
    optimal_control,
    separated_cost,
    slice_measure,
)

GRID = Grid(1, 16)


def _zero_control_measure(seed=0, n_atoms=16, k=1, zero_a=True):
    rng = np.random.default_rng(seed)
    x = rng.random((n_atoms, 1))
    a = np.zeros((n_atoms, k)) if zero_a else rng.uniform(-0.8, 0.8, (n_atoms, k))
    w = rng.random(n_atoms)
    return JointMeasure(x, a, w / w.sum())


def _plain_nu():
    # zero controls: cost weight collapses to delta, drift bump to zero
    return _zero_control_measure()


def _coupled_nu(seed=1):
    return _zero_control_measure(seed, zero_a=False)


X0 = np.array([[0.3]])


class TestPinnedValues:
    """Hamiltonian and maximizer values frozen from the printed closed forms."""

    def test_hamiltonian_inner_branch(self):
        spec = example_one(delta=1.0, eps=0.0, kappa=0.0, radius=1.0)
        h = hamiltonian_value(spec, spec.coefficients(X0, _plain_nu()), np.array([[0.5]]))
        assert h[0] == pytest.approx(0.125, abs=1e-12)

    def test_hamiltonian_outer_branch(self):
        spec = example_one(delta=1.0, eps=0.0, kappa=0.0, radius=1.0)
        h = hamiltonian_value(spec, spec.coefficients(X0, _plain_nu()), np.array([[2.0]]))
        assert h[0] == pytest.approx(1.5, abs=1e-12)

    def test_constant_cost_zero_drift(self):
        control = ControlSet(k=1, radius=1.0)
        spec = ModelSpec(
            name="const",
            control=control,
            coefficients=lambda x, nu: (
                lambda a: np.zeros(np.broadcast_shapes(np.shape(x), np.shape(a))),
                lambda a: np.full(np.broadcast_shapes(np.shape(x), np.shape(a))[:-1], 3.25),
                None,
            ),
        )
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # flat objective trips the uniqueness probe
            h = hamiltonian_value(spec, spec.coefficients(X0, _plain_nu()), np.array([[1.7]]))
        assert h[0] == pytest.approx(-3.25, abs=1e-9)

    def test_optimal_control_inner(self):
        spec = example_one(delta=1.0, eps=0.0, kappa=0.0, radius=1.0)
        a = optimal_control(spec, spec.coefficients(X0, _plain_nu()), np.array([[0.5]]))
        assert a[0, 0] == pytest.approx(0.5, abs=1e-12)

    def test_optimal_control_zero_gradient(self):
        spec = example_one(delta=1.0, eps=0.0, kappa=0.0)
        a = optimal_control(spec, spec.coefficients(X0, _plain_nu()), np.array([[0.0]]))
        assert a[0, 0] == 0.0

    def test_optimal_control_radial_2d(self):
        spec = example_one(d=2, delta=1.0, eps=0.0, kappa=0.0, radius=1.0)
        nu = _zero_control_measure(k=2)
        a = optimal_control(spec, spec.coefficients(np.array([[0.5, 0.5]]), nu), np.array([[3.0, 4.0]]))
        np.testing.assert_allclose(a[0], [0.6, 0.8], atol=1e-12)

    def test_gradient_p_inner_branch(self):
        spec = example_one(delta=1.0, eps=0.0, kappa=0.0)
        hp = hamiltonian_gradient_p(spec, spec.coefficients(X0, _plain_nu()), np.array([[0.5]]))
        assert hp[0, 0] == pytest.approx(0.5, abs=1e-12)

    def test_gradient_p_zero(self):
        spec = example_one(delta=1.0, eps=0.0, kappa=0.0)
        hp = hamiltonian_gradient_p(spec, spec.coefficients(X0, _plain_nu()), np.array([[0.0]]))
        assert hp[0, 0] == 0.0


class TestGradientFiniteDifference:
    def test_envelope_identity_away_from_branch(self):
        spec = example_one(delta=1.0, eps=0.3, kappa=0.3, potential=0.2)
        nu = _coupled_nu()
        rng = np.random.default_rng(5)
        x = rng.random((200, 1))
        p = rng.uniform(-3, 3, (200, 1))
        # keep a margin around the branch-switch window |p| in [R/(d+eR), R/d]
        keep = (np.abs(p[:, 0]) < 1.0 / 1.3 - 0.05) | (np.abs(p[:, 0]) > 1.0 + 0.05)
        coefficients = spec.coefficients(x[keep], nu)
        p = p[keep]
        hp = hamiltonian_gradient_p(spec, coefficients, p)
        step = 1e-5
        fd = (hamiltonian_value(spec, coefficients, p + step) - hamiltonian_value(spec, coefficients, p - step)) / (2 * step)
        assert np.abs(hp[:, 0] - fd).max() < 1e-6


class TestBruteForce:
    def test_closed_form_vs_mesh(self):
        spec = example_one(delta=1.0, eps=0.4, kappa=0.4, potential=0.2)
        nu = _coupled_nu(2)
        rng = np.random.default_rng(6)
        x = rng.random((50, 1))
        p = rng.uniform(-2, 2, (50, 1))
        coefficients = spec.coefficients(x, nu)
        closed = optimal_control(spec, coefficients, p)
        brute = brute_force_argmax(spec, coefficients, p, mesh=1001)
        spacing = 2.0 * spec.control.radius / 1024  # snapped mesh has 1025 points
        assert np.abs(closed - brute).max() <= spacing

    def test_constant_objective_tie_break(self):
        control = ControlSet(k=1, radius=1.0)
        spec = ModelSpec(
            name="flat",
            control=control,
            coefficients=lambda x, nu: (
                lambda a: np.zeros(np.broadcast_shapes(np.shape(x), np.shape(a))),
                lambda a: np.zeros(np.broadcast_shapes(np.shape(x), np.shape(a))[:-1]),
                None,
            ),
        )
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            a = brute_force_argmax(spec, spec.coefficients(X0, _plain_nu()), np.array([[0.0]]), mesh=9)
        mesh = control.mesh(9)
        np.testing.assert_array_equal(a[0], mesh[0])

    def test_refinement_monotonicity(self):
        spec = example_one(delta=1.0, eps=0.3, kappa=0.3)
        nu = _coupled_nu(3)
        x = np.array([[0.4]])
        p = np.array([[0.9]])

        coefficients = spec.coefficients(x, nu)
        drift, cost, _ = coefficients

        def best_value(mesh_points):
            a = brute_force_argmax(spec, coefficients, p, mesh=mesh_points)
            b = drift(a)
            ell = cost(a)
            return float((-(p * b).sum(-1) - ell)[0])

        for m in (5, 9, 17, 33):
            assert best_value(2 * m) >= best_value(m) - 1e-15

    def test_non_uniqueness_warning_on_flat_objective(self):
        control = ControlSet(k=1, radius=1.0)
        spec = ModelSpec(
            name="flat",
            control=control,
            coefficients=lambda x, nu: (
                lambda a: np.zeros(np.broadcast_shapes(np.shape(x), np.shape(a))),
                lambda a: np.zeros(np.broadcast_shapes(np.shape(x), np.shape(a))[:-1]),
                None,
            ),
        )
        with pytest.warns(NonUniqueMaximizerWarning):
            brute_force_argmax(spec, spec.coefficients(X0, _plain_nu()), np.array([[0.0]]), mesh=65)


class TestInvariants:
    def test_closed_vs_brute_hamiltonian_bound(self):
        spec = example_one(delta=1.0, eps=0.3, kappa=0.3, potential=0.2)
        nu = _coupled_nu(4)
        rng = np.random.default_rng(8)
        x = rng.random((40, 1))
        p = rng.uniform(-2, 2, (40, 1))
        coefficients = spec.coefficients(x, nu)
        h_closed = hamiltonian_value(spec, coefficients, p)
        a_b = brute_force_argmax(spec, coefficients, p, mesh=257)
        drift, cost, _ = coefficients
        h_brute = -(p * drift(a_b)).sum(-1) - cost(a_b)
        spacing = 2.0 * spec.control.radius / 256
        bound = (spec.coef_bound + np.abs(p[:, 0]) * spec.coef_bound) * spacing
        assert np.all(h_closed - h_brute >= -1e-12)  # closed form attains the sup
        assert np.all(h_closed - h_brute <= bound)

    def test_h_convex_in_p(self):
        spec = example_one(delta=1.0, eps=0.3, kappa=0.3, potential=0.2)
        nu = _coupled_nu(5)
        rng = np.random.default_rng(9)
        x = rng.random((30, 1))
        p1 = rng.uniform(-2, 2, (30, 1))
        p2 = rng.uniform(-2, 2, (30, 1))
        coefficients = spec.coefficients(x, nu)
        mid = hamiltonian_value(spec, coefficients, (p1 + p2) / 2)
        avg = (hamiltonian_value(spec, coefficients, p1) + hamiltonian_value(spec, coefficients, p2)) / 2
        assert np.all(mid <= avg + 1e-9)

    def test_h_lipschitz_in_x(self):
        from qsmfg.grid import torus_distance

        spec = example_one(delta=1.0, eps=0.3, kappa=0.3, potential=0.2)
        nu = _coupled_nu(6)
        rng = np.random.default_rng(10)
        x1 = rng.random((60, 1))
        x2 = rng.random((60, 1))
        p = rng.uniform(-2, 2, (60, 1))
        h1 = hamiltonian_value(spec, spec.coefficients(x1, nu), p)
        h2 = hamiltonian_value(spec, spec.coefficients(x2, nu), p)
        dist = torus_distance(x1, x2)
        bound = spec.coef_lip_x * (1 + np.abs(p[:, 0])) * dist + 1e-9
        assert np.all(np.abs(h1 - h2) <= bound)

    def test_maximizer_measure_lipschitz_constant(self):
        # empirical |alpha*(nu1) - alpha*(nu2)| / W1(nu1, nu2) <= R eps / delta
        delta, eps = 1.0, 0.5
        spec = example_one(delta=delta, eps=eps, kappa=0.2)
        lam0 = spec.control_lip_measure
        assert lam0 == pytest.approx(0.5)
        rng = np.random.default_rng(11)
        worst = 0.0
        for seed in range(10):
            nu1 = _zero_control_measure(100 + seed, zero_a=False)
            nu2 = _zero_control_measure(200 + seed, zero_a=False)
            w1 = wasserstein1_joint(nu1, nu2)
            x = rng.random((40, 1))
            p = rng.uniform(-0.9, 0.9, (40, 1))
            a1 = optimal_control(spec, spec.coefficients(x, nu1), p)
            a2 = optimal_control(spec, spec.coefficients(x, nu2), p)
            worst = max(worst, np.abs(a1 - a2).max() / w1)
        assert worst <= lam0 + 0.05


@pytest.mark.parametrize("d,n", [(1, 32), (2, 16)])
@pytest.mark.parametrize("nodes_shape", ["flat", "column"])
def test_drift_bump_from_node_kernel_equals_general_path(d, n, nodes_shape):
    # a pushforward's bump reads the grid's node kernel; the same atoms
    # without a grid take the general path, and the drifts must agree bit for bit
    g = Grid(d, n)
    rng = np.random.default_rng(d)
    m = DensityField.from_values(g, rng.random(g.size) + 0.1)
    nu = pushforward(m, rng.uniform(-0.9, 0.9, (g.size, d)))
    gridless = JointMeasure(nu.x, nu.a, nu.w)
    x = g.coordinates() if nodes_shape == "flat" else g.coordinates()[:, None, :]
    a = rng.uniform(-1.0, 1.0, x.shape[:-1] + (d,))
    spec = example_one(d=d, eps=0.3, kappa=0.7, potential=0.2)
    drift, _, _ = spec.coefficients(x, nu)
    general, _, _ = spec.coefficients(x, gridless)
    assert np.abs(drift(a) + a).max() > 1e-3  # the bump is not zero
    np.testing.assert_array_equal(drift(a), general(a))


@pytest.mark.parametrize("d", [1, 2])
def test_drift_bump_equals_double_loop_oracle(d):
    # kappa * sum_j exp(-d_ij^2 / (2 width^2)) w_j a_j, summed atom by atom
    # in plain floats, against both the node kernel and the gridless path
    g = Grid(d, 8)
    kappa, width = 0.7, 0.2
    rng = np.random.default_rng(20 + d)
    m = DensityField.from_values(g, rng.random(g.size) + 0.1)
    nu = pushforward(m, rng.uniform(-0.9, 0.9, (g.size, d)))
    x = g.coordinates()
    expected = np.zeros((g.size, d))
    for i in range(g.size):
        for j in range(g.size):
            gaps = [abs(float(x[i, ax] - x[j, ax])) for ax in range(d)]
            dist = sum(min(gap, 1.0 - gap) for gap in gaps)
            weight = math.exp(-(dist**2) / (2.0 * width**2)) * float(nu.w[j])
            expected[i] += [kappa * weight * float(nu.a[j, c]) for c in range(d)]
    spec = example_one(d=d, eps=0.3, kappa=kappa, width=width, potential=0.2)
    zero = np.zeros((g.size, d))
    for measure in (nu, JointMeasure(nu.x, nu.a, nu.w)):
        bump = spec.coefficients(x, measure)[0](zero)
        assert np.abs(bump).max() > 1e-3
        np.testing.assert_allclose(bump, expected, rtol=0, atol=1e-15)


def _trajectory(n_slices=6, dt=0.1):
    g = GRID
    times = np.arange(n_slices) * dt
    m = DensityField.from_values(g, np.ones(g.size))
    rng = np.random.default_rng(12)
    measures = [
        pushforward(m, rng.uniform(-1, 1, (g.n, 1))) for _ in range(n_slices)
    ]
    return times, measures


class TestMemoryAggregate:
    def test_zero_kernel_gives_zero_measure(self):
        times, measures = _trajectory()
        agg = memory_aggregate(times, measures, lambda t: np.zeros_like(t))
        assert agg.mass() == 0.0

    def test_constant_kernel_mass(self):
        times, measures = _trajectory()
        constant = [measures[0]] * len(measures)
        agg = memory_aggregate(times, constant, lambda t: np.ones_like(t))
        assert agg.mass() == pytest.approx(times[-1], abs=1e-12)

    def test_linear_kernel_exact_trapezoid(self):
        times = np.arange(11) * 0.1
        _, measures = _trajectory(11)
        constant = [measures[0]] * 11
        agg = memory_aggregate(times, constant, lambda t: np.asarray(t))
        assert agg.mass() == pytest.approx(0.5, abs=1e-14)  # trapezoid exact for linear

    def test_length_mismatch_rejected(self):
        times, measures = _trajectory()
        with pytest.raises(ValueError, match="one length"):
            memory_aggregate(times, measures[:-1], lambda t: np.ones_like(t))
        with pytest.raises(ValueError, match="one length"):
            memory_aggregate(times[:0], measures[:0], lambda t: np.ones_like(t))

    def test_memory_model_decouples_at_time_zero(self):
        # empty aggregate at t = 0: couplings switch off (zero drift bump,
        # cost weight at its floor), matching the decoupled instant model
        spec = example_two(d=1, delta=1.0, eps=0.4, kappa=0.4)
        times, measures = _trajectory()
        nu0 = slice_measure(spec, times[:1], measures[:1])
        assert nu0.n_atoms == 0
        x = np.array([[0.3], [0.7]])
        a = np.array([[0.5], [-0.2]])
        drift, cost, _ = spec.coefficients(x, nu0)
        b0 = drift(a)
        np.testing.assert_allclose(b0, -a, atol=0)
        ell0 = cost(a)
        np.testing.assert_allclose(ell0, (a[:, 0] ** 2) / 2.0, atol=0)


class TestSliceMeasure:
    """slice_measure resolves the one measure a slice's Hamiltonian reads."""

    @pytest.mark.parametrize(
        "kernel_kind, kernel", [("constant", lambda t: np.ones_like(t)), ("linear", lambda t: np.asarray(t))]
    )
    def test_history_model_reads_unit_mass_aggregate(self, kernel_kind, kernel):
        spec = example_two(d=1, kernel_kind=kernel_kind, kernel_scale=1.0)
        times, measures = _trajectory()
        nu = slice_measure(spec, times, measures)
        agg = memory_aggregate(times, measures, kernel)
        assert nu.mass() == pytest.approx(1.0, abs=1e-14)
        np.testing.assert_array_equal(nu.x, agg.x)
        np.testing.assert_array_equal(nu.a, agg.a)
        np.testing.assert_allclose(nu.w, agg.w / agg.mass(), rtol=1e-15, atol=0)

    def test_kernels_give_different_measures(self):
        # each call reads the spec's own kernel: no result carries over
        times, measures = _trajectory()
        constant = slice_measure(example_two(d=1, kernel_kind="constant"), times, measures)
        linear = slice_measure(example_two(d=1, kernel_kind="linear"), times, measures)
        assert np.abs(constant.mean_control() - linear.mean_control()).max() > 1e-3

    def test_instant_model_reads_current_measure(self):
        times, measures = _trajectory()
        assert slice_measure(example_one(d=1), times, measures) is measures[-1]


class TestBuilders:
    def test_registry(self):
        # an unknown name is refused by parse_config (test_cli's test_unknown_model)
        assert sorted(MODEL_BUILDERS) == ["example1", "example2", "separated"]
        for name, builder in MODEL_BUILDERS.items():
            assert builder(d=1).name == name

    def test_separated_cost_adds_measure_term(self):
        # l = |a|^2/2 + V(x) + l1(mu), with l1 the weighted mean control
        spec, base = separated_cost(d=1, coupling_weight=0.4), separated_cost(d=1, coupling_weight=0.0)
        nu = _zero_control_measure(zero_a=False)
        x, a = GRID.coordinates(), np.full((GRID.size, 1), 0.3)
        shift = spec.coefficients(x, nu)[1](a) - base.coefficients(x, nu)[1](a)
        np.testing.assert_allclose(shift, 0.4 * nu.mean_control()[0], rtol=0, atol=1e-15)

    def test_validator_passes_builtin_models(self):
        for builder in MODEL_BUILDERS.values():
            report = check_model(builder(d=1), GRID, seed=3)
            assert report["all_ok"], report

    @pytest.mark.parametrize(
        "spec",
        [example_one(), example_two(), separated_cost(), example_one(delta=0.5, eps=1.2, kappa=1.0, potential=0.8)],
        ids=["example1", "example2", "separated", "example1_strong"],
    )
    def test_validator_measures_control_lipschitz_in_measure(self, spec):
        entry = check_model(spec, GRID, seed=3)["control_measure_lipschitz"]
        assert entry["ok"] and entry["declared"] == spec.control_lip_measure
        # separated costs leave the maximizer independent of the measure
        assert (entry["measured"] == 0.0) == (spec.name == "separated")

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_validator_envelope_check_reads_the_kink_off_the_binding(self, seed, monkeypatch):
        # b = -a and l = |a|^2/6 on the unit ball: alpha* = 3p reaches the
        # boundary at |p| = 1/3, a kink no built-in model has.  Only the
        # stencils that straddle it are dropped, so a coarse step passes
        control = ControlSet(k=1, radius=1.0)
        spec = ModelSpec(
            name="kink",
            control=control,
            coefficients=lambda x, nu: (
                lambda a: np.zeros(np.shape(x)) - a,
                lambda a: (np.asarray(a) ** 2).sum(axis=-1) / 6.0 + np.zeros(np.shape(x)[:-1]),
                lambda p: 3.0 * p,
            ),
        )
        monkeypatch.setattr(model, "FD_STEP", 0.05)
        report = check_model(spec, GRID, seed=seed)
        assert report["gradient_envelope_identity"]["measured"] <= 1e-12
        assert report["all_ok"], report

    def test_model_spec_fields(self):
        # each fact once: kind is read off the kernel, and no parameter dict
        # restates the builder's arguments
        assert [f.name for f in fields(ModelSpec)] == [
            "name", "control", "coefficients", "coef_bound", "coef_lip_x", "control_lip_measure", "kernel",
        ]
        assert example_two().kind == "history" and example_one().kind == "instant"
        assert replace(example_two(), kernel=None).kind == "instant"

    def test_validator_flags_understated_control_lipschitz_constant(self):
        report = check_model(replace(example_one(), control_lip_measure=0.0), GRID, seed=3)
        assert report["control_measure_lipschitz"]["measured"] > 0.0
        assert not report["control_measure_lipschitz"]["ok"]
        assert not report["all_ok"]

    @pytest.mark.parametrize("name", sorted(MODEL_BUILDERS))
    def test_every_builder_parameter_is_read(self, name):
        # a parameter that changes no coefficient and no maximizer is a
        # setting nothing reads.  kernel_scale is exempt: slice_measure scales
        # every positive aggregate to unit mass, so the scale cancels (up to
        # rounding) and only its value 0, which empties the aggregate, matters
        rng = np.random.default_rng(31)
        times, measures = _trajectory(n_slices=3)
        x = rng.random((16, 1))
        a = rng.uniform(-0.8, 0.8, (16, 1))
        p = rng.uniform(-2.0, 2.0, (16, 1))

        def read(spec):
            drift, cost, _ = coefficients = spec.coefficients(x, slice_measure(spec, times, measures))
            return drift(a), cost(a), optimal_control(spec, coefficients, p)

        builder = MODEL_BUILDERS[name]
        base = read(builder(d=1))
        for key, param in inspect.signature(builder).parameters.items():
            if key == "d":
                continue
            default = param.default
            if isinstance(default, str):
                changed = {"kernel_kind": "linear"}[key]
            else:
                changed = default + 1 if isinstance(default, int) else 1.5 * default + 0.25
            gap = max(float(np.abs(u - v).max()) for u, v in zip(base, read(builder(d=1, **{key: changed}))))
            if key == "kernel_scale":
                assert gap <= 1e-14, key
            else:
                assert gap > 1e-9, key

    def test_control_set_mesh_nesting(self):
        cs = ControlSet(k=1, radius=1.0)
        coarse = set(np.round(cs.mesh(9)[:, 0], 12))
        fine = set(np.round(cs.mesh(18)[:, 0], 12))
        assert coarse <= fine
