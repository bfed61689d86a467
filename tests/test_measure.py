import re
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse
from scipy.optimize import linprog

from qsmfg import measure
from qsmfg.grid import Grid
from qsmfg.measure import (
    DensityField,
    JointMeasure,
    joint_w1_upper_bound,
    pushforward,
    two_bump_density,
    uniform_density,
    von_mises_density,
    wasserstein1_joint,
    wasserstein1_state,
)
from qsmfg.model import drift_field, example_one


def _random_density(grid, seed):
    rng = np.random.default_rng(seed)
    vals = 1.0 + rng.uniform(-0.6, 0.6, grid.size)
    return DensityField.from_values(grid, vals)


def _atom(x, a, w=1.0):
    return JointMeasure(np.array([[x]]), np.array([[a]]), np.array([w]))


def test_density_invariants():
    g = Grid(1, 16)
    with pytest.raises(ValueError):
        DensityField(g, -np.ones(16))
    with pytest.raises(ValueError):
        DensityField(g, np.ones(16) * 2.0)  # mass 2
    m = uniform_density(g)
    assert m.mass() == pytest.approx(1.0, abs=1e-15)
    assert von_mises_density(g).mass() == pytest.approx(1.0, abs=1e-13)
    assert two_bump_density(g).mass() == pytest.approx(1.0, abs=1e-13)


@pytest.mark.parametrize("d", [1, 2])
def test_densities_and_policies_are_node_arrays(d):
    # a density is one (n^d,) array and a policy one (n^d, k) array, both in
    # node order; any other shape, such as the grid-shaped (n, n) density or
    # a policy with one row too few, is a ValueError naming the expected shape
    g = Grid(d, 8)
    spec = example_one(d=d)
    m = uniform_density(g)
    assert m.values.shape == (g.size,) and not m.values.flags.writeable
    mu = pushforward(m, np.zeros((g.size, d)))
    assert mu.a.shape == (g.size, d)
    coefficients = spec.coefficients(g.coordinates(), mu)
    assert drift_field(spec, g, np.zeros((g.size, d)), coefficients).shape == (g.size, d)
    grid_shaped = np.ones((8,) * d) if d == 2 else np.ones(g.size + 1)
    for build in (DensityField, DensityField.from_values):
        with pytest.raises(ValueError, match=re.escape(f"density needs shape {(g.size,)}, got {grid_shaped.shape}")):
            build(g, grid_shaped)
    bad_policies = [(g.size - 1, d), (g.size,)] + ([(8, 8, d)] if d == 2 else [])
    for shape in bad_policies:
        with pytest.raises(ValueError, match=re.escape(f"policy needs shape ({g.size}, ")):
            pushforward(m, np.zeros(shape))
        with pytest.raises(ValueError, match=re.escape(f"policy needs shape {(g.size, d)}, got {shape}")):
            drift_field(spec, g, np.zeros(shape), coefficients)


def test_pushforward_atoms_and_marginal():
    g = Grid(1, 16)
    m = _random_density(g, 0)
    a0 = 0.25
    mu = pushforward(m, np.full((16, 1), a0))
    assert mu.n_atoms == g.size
    assert mu.mass() == pytest.approx(1.0, abs=1e-12)
    np.testing.assert_array_equal(mu.a, np.full((16, 1), a0))
    # first marginal weights are exactly m(x_i) h
    np.testing.assert_array_equal(mu.w, m.values * g.h)


def test_pushforward_uniform_constant_control():
    g = Grid(1, 16)
    mu = pushforward(uniform_density(g), np.full((16, 1), 0.7))
    np.testing.assert_allclose(mu.w, np.full(16, 1.0 / 16), atol=1e-16)


def test_pushforward_test_function_identity():
    # integral of phi(x, a(x)) against mu equals the weighted node sum exactly
    g = Grid(1, 16)
    m = _random_density(g, 1)
    rng = np.random.default_rng(2)
    avals = rng.uniform(-1, 1, (16, 1))
    mu = pushforward(m, avals)

    def phi(x, a):
        return np.cos(2 * np.pi * x[:, 0]) + a[:, 0] ** 2

    lhs = (phi(mu.x, mu.a) * mu.w).sum()
    rhs = (phi(g.coordinates(), avals) * (m.values * g.h)).sum()
    assert lhs == rhs


def test_pushforward_of_concentrated_density():
    g = Grid(1, 16)
    vals = np.zeros(16)
    vals[5] = 1.0 / g.h
    m = DensityField(g, vals)
    rng = np.random.default_rng(3)
    mu = pushforward(m, rng.uniform(-1, 1, (16, 1)))
    live = mu.w > 0
    assert live.sum() == 1
    assert mu.x[live][0, 0] == pytest.approx(5 * g.h)
    assert mu.w[live][0] == pytest.approx(1.0)


def test_w1_identical_measures_is_zero():
    g = Grid(1, 16)
    mu = pushforward(_random_density(g, 4), np.zeros((16, 1)))
    assert wasserstein1_joint(mu, mu) == pytest.approx(0.0, abs=1e-12)


def test_w1_two_single_atoms_state_only():
    assert wasserstein1_joint(_atom(0.1, 0.0), _atom(0.35, 0.0)) == pytest.approx(0.25, abs=1e-12)


def test_w1_two_single_atoms_sum_metric():
    d = wasserstein1_joint(_atom(0.9, 0.2), _atom(0.1, 0.5))
    assert d == pytest.approx(0.5, abs=1e-12)


def test_w1_mass_mismatch_rejected():
    with pytest.raises(ValueError):
        wasserstein1_joint(_atom(0.1, 0.0, 1.0), _atom(0.2, 0.0, 0.5))


def test_w1_atom_cap(monkeypatch):
    g = Grid(1, 16)
    mu = pushforward(_random_density(g, 5), np.zeros((16, 1)))
    assert wasserstein1_joint(mu, mu) == 0.0
    monkeypatch.setattr("qsmfg.measure.ATOM_CAP", 8)
    with pytest.raises(ValueError, match="exceeds cap 8"):
        wasserstein1_joint(mu, mu)


def test_w1_state_identical_densities():
    g = Grid(1, 32)
    m = _random_density(g, 42)
    assert wasserstein1_state(m, m) == 0.0


def test_w1_state_two_deltas_half_circle():
    g = Grid(1, 32)
    v1 = np.zeros(32)
    v2 = np.zeros(32)
    v1[0] = 1.0 / g.h
    v2[16] = 1.0 / g.h
    d = wasserstein1_state(DensityField(g, v1), DensityField(g, v2))
    assert d == pytest.approx(0.5, abs=1e-12)


def test_w1_state_uniform_vs_delta():
    # mean torus distance to a point is 1/4
    g = Grid(1, 128)
    v = np.zeros(128)
    v[0] = 1.0 / g.h
    d = wasserstein1_state(uniform_density(g), DensityField(g, v))
    assert abs(d - 0.25) <= 2 * g.h


def test_w1_state_matches_atom_lp():
    g = Grid(1, 32)
    for seed in range(8):
        m1 = _random_density(g, 100 + seed)
        m2 = _random_density(g, 200 + seed)
        cdf = wasserstein1_state(m1, m2)
        zeros = np.zeros((32, 1))
        lp = wasserstein1_joint(pushforward(m1, zeros), pushforward(m2, zeros))
        assert abs(cdf - lp) < 1e-8


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10_000), size=st.integers(8, 64), shared=st.floats(0.0, 0.9))
def test_circle_w1_partition_median_is_numpys(seed, size, shared):
    # the middle element of the partition (odd length) or the mean of its
    # middle pair (even) is np.median bit for bit, so the W1 is too; equal
    # node masses make runs of equal cumulative differences, ties included
    rng = np.random.default_rng(seed)
    p, q = rng.dirichlet(np.ones(size)), rng.dirichlet(np.ones(size))
    same = rng.random(size) < shared
    q[same] = p[same]
    q /= q.sum()
    c, h = np.cumsum(p - q), 1.0 / size
    assert measure._circle_w1(p, q, h) == float(h * np.abs(c - np.median(c)).sum())


def test_w1_state_odd_grid_matches_reference_lp():
    # Grid(1, n) takes odd n, whose circle median is one middle element
    g = Grid(1, 9)
    x, zeros = g.coordinates(), np.zeros((g.size, 1))
    for seed in range(6):
        m1, m2 = _random_density(g, 400 + seed), _random_density(g, 500 + seed)
        reference = _reference_w1(x, zeros, m1.values * g.h, x, zeros, m2.values * g.h)
        assert wasserstein1_state(m1, m2) == pytest.approx(reference, rel=0, abs=1e-12)


def test_w1_symmetry_and_triangle():
    g = Grid(1, 16)
    rng = np.random.default_rng(6)
    mus = [
        pushforward(_random_density(g, 300 + i), rng.uniform(-1, 1, (16, 1)))
        for i in range(3)
    ]
    d01 = wasserstein1_joint(mus[0], mus[1])
    d10 = wasserstein1_joint(mus[1], mus[0])
    assert d01 == pytest.approx(d10, abs=1e-10)
    d02 = wasserstein1_joint(mus[0], mus[2])
    d12 = wasserstein1_joint(mus[1], mus[2])
    assert d02 <= d01 + d12 + 1e-9


def test_w1_marginal_contraction():
    g = Grid(1, 16)
    rng = np.random.default_rng(7)
    m1 = _random_density(g, 8)
    m2 = _random_density(g, 9)
    nu1 = pushforward(m1, rng.uniform(-1, 1, (16, 1)))
    nu2 = pushforward(m2, rng.uniform(-1, 1, (16, 1)))
    joint = wasserstein1_joint(nu1, nu2)
    zeros = np.zeros((16, 1))
    marg = _reference_w1(nu1.x, zeros, nu1.w, nu2.x, zeros, nu2.w)
    assert joint >= marg - 1e-9
    # and the marginal distance agrees with the density distance
    assert marg == pytest.approx(wasserstein1_state(m1, m2), abs=1e-9)


def test_w1_diagonal_coupling_bound():
    # pushforwards of the same density differ by at most the control gap
    g = Grid(1, 32)
    m = _random_density(g, 10)
    rng = np.random.default_rng(11)
    a1 = rng.uniform(-1, 1, (32, 1))
    a2 = a1 + rng.uniform(-0.3, 0.3, (32, 1))
    d = wasserstein1_joint(pushforward(m, a1), pushforward(m, a2))
    assert d <= np.abs(a1 - a2).max() + 1e-9


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10_000), freq=st.integers(1, 4), amp=st.floats(-1, 1))
def test_pushforward_integrates_test_functions_exactly(seed, freq, amp):
    g = Grid(1, 16)
    m = _random_density(g, seed)
    rng = np.random.default_rng(seed + 1)
    avals = rng.uniform(-1, 1, (16, 1))
    mu = pushforward(m, avals)
    phi = lambda x, a: np.sin(2 * np.pi * freq * x[:, 0]) + amp * a[:, 0]
    lhs = (phi(mu.x, mu.a) * mu.w).sum()
    # same association as the atom weights, so the identity is bitwise
    rhs = (phi(g.coordinates(), avals) * (m.values * g.h)).sum()
    assert lhs == rhs


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 1000))
def test_w1_state_nonnegative_and_symmetric(seed):
    g = Grid(1, 16)
    m1 = _random_density(g, seed)
    m2 = _random_density(g, seed + 5000)
    d = wasserstein1_state(m1, m2)
    assert d >= 0.0
    assert d == pytest.approx(wasserstein1_state(m2, m1), abs=1e-12)


def _dual_w1(nu1, nu2):
    """Independent oracle: the Kantorovich dual LP.

    max w1.phi - w2.psi subject to phi_i - psi_j <= C_ij, phi_0 = 0.
    Strong duality makes this equal the primal transport cost.
    """
    from qsmfg.measure import joint_cost_matrix

    keep1 = nu1.w > 0
    keep2 = nu2.w > 0
    x1, a1, w1 = nu1.x[keep1], nu1.a[keep1], nu1.w[keep1]
    x2, a2, w2 = nu2.x[keep2], nu2.a[keep2], nu2.w[keep2]
    cost = joint_cost_matrix(x1, a1, x2, a2)
    n1, n2 = cost.shape
    rows = np.arange(n1 * n2)
    ii = np.repeat(np.arange(n1), n2)
    jj = np.tile(np.arange(n2), n1)
    a_ub = sparse.coo_matrix(
        (
            np.concatenate([np.ones(n1 * n2), -np.ones(n1 * n2)]),
            (np.concatenate([rows, rows]), np.concatenate([ii, n1 + jj])),
        ),
        shape=(n1 * n2, n1 + n2),
    ).tocsr()
    c = -np.concatenate([w1, -w2])  # linprog minimizes
    bounds = [(0.0, 0.0)] + [(None, None)] * (n1 + n2 - 1)
    res = linprog(c, A_ub=a_ub, b_ub=cost.ravel(), bounds=bounds, method="highs")
    assert res.success, res.message
    return float(-res.fun)


def test_w1_joint_matches_dual_lp_oracle():
    g = Grid(1, 16)
    rng = np.random.default_rng(31)
    for seed in range(6):
        nu1 = pushforward(_random_density(g, 400 + seed), rng.uniform(-1, 1, (16, 1)))
        nu2 = pushforward(_random_density(g, 500 + seed), rng.uniform(-1, 1, (16, 1)))
        primal = wasserstein1_joint(nu1, nu2)
        dual = _dual_w1(nu1, nu2)
        assert primal == pytest.approx(dual, abs=1e-9)


def test_w1_joint_equal_nonunit_masses():
    # total mass 0.5 on both sides: transport scales linearly
    nu1 = JointMeasure(np.array([[0.1]]), np.array([[0.0]]), np.array([0.5]))
    nu2 = JointMeasure(np.array([[0.3]]), np.array([[0.0]]), np.array([0.5]))
    assert wasserstein1_joint(nu1, nu2) == pytest.approx(0.1, abs=1e-12)


def test_w1_state_2d_two_deltas_sum_metric():
    g = Grid(2, 8)
    v1 = np.zeros(g.size)
    v2 = np.zeros(g.size)
    v1[0] = 1.0 / g.cell_volume  # node (0, 0)
    v2[4 * g.n + 2] = 1.0 / g.cell_volume  # node (4, 2): torus distances 0.5 and 0.25
    d = wasserstein1_state(DensityField(g, v1), DensityField(g, v2))
    assert d == pytest.approx(0.75, abs=1e-10)


def test_w1_2d_marginal_contraction():
    g = Grid(2, 8)
    rng = np.random.default_rng(32)
    m1 = DensityField.from_values(g, 1 + rng.uniform(-0.4, 0.4, g.size))
    m2 = DensityField.from_values(g, 1 + rng.uniform(-0.4, 0.4, g.size))
    a1 = rng.uniform(-0.5, 0.5, (g.size, 2))
    a2 = rng.uniform(-0.5, 0.5, (g.size, 2))
    joint = wasserstein1_joint(pushforward(m1, a1), pushforward(m2, a2))
    assert joint >= wasserstein1_state(m1, m2) - 1e-9


def _reference_w1(x1, a1, w1, x2, a2, w2):
    """Atom LP built from the metric's definition, at tight HiGHS tolerances.

    The weights are scaled to mean one per atom, so that HiGHS's absolute
    1e-10 feasibility tolerance is small against every atom: unscaled, a
    plan with entries down to -5e-11 read W1 ~1e-6 about 2e-12 low.
    """
    gap = np.abs(x1[:, None, :] - x2[None, :, :])
    cost = np.minimum(gap, 1.0 - gap).sum(axis=-1)
    cost = cost + np.linalg.norm(a1[:, None, :] - a2[None, :, :], axis=-1)
    n1, n2 = cost.shape
    a_eq = sparse.vstack([
        sparse.kron(sparse.eye(n1), np.ones((1, n2))),
        sparse.kron(np.ones((1, n1)), sparse.eye(n2)),
    ]).tocsr()[:-1]
    scale = n1 / w1.sum()
    res = linprog(
        cost.ravel(), A_eq=a_eq, b_eq=scale * np.concatenate([w1, w2])[:-1], bounds=(0, None), method="highs",
        options={"primal_feasibility_tolerance": 1e-10, "dual_feasibility_tolerance": 1e-10},
    )
    assert res.success, res.message
    return float(res.fun) / scale


def _no_lp(*args, **kwargs):
    raise AssertionError("the atom LP was called")


def _smooth_policy(grid, k, rng):
    """Random (n^d, k) policy with Lipschitz constant 0.9 in the torus L1 metric."""
    x = grid.coordinates()
    vals = np.zeros((grid.size, k))
    for c in range(k):
        phase = rng.uniform(0, 2 * np.pi)
        vals[:, c] = np.sin(2 * np.pi * x.sum(axis=1) + phase)
    return vals * 0.9 / (2 * np.pi * np.sqrt(k))


@pytest.mark.parametrize("d,n", [(1, 32), (2, 8)])
@pytest.mark.parametrize("k", [1, 2])
def test_identity_coupling_matches_reference_lp(d, n, k, monkeypatch):
    # one certified policy suffices, whichever measure carries it
    monkeypatch.setattr(measure, "_transport_lp", _no_lp)
    g = Grid(d, n)
    rng = np.random.default_rng(40 + 10 * d + k)
    for seed in range(3):
        m = _random_density(g, 600 + seed)
        smooth = pushforward(m, _smooth_policy(g, k, rng))
        rough = pushforward(m, rng.uniform(-1, 1, (g.size, k)))
        identity = float(m.values @ np.linalg.norm(smooth.a - rough.a, axis=1)) * g.cell_volume
        ref = _reference_w1(smooth.x, smooth.a, smooth.w, rough.x, rough.a, rough.w)
        assert abs(identity - ref) <= 1e-12
        for nu1, nu2 in ((smooth, rough), (rough, smooth)):
            assert wasserstein1_joint(nu1, nu2) == pytest.approx(identity, rel=1e-14, abs=1e-16)


@pytest.mark.parametrize("d", [1, 2])
def test_uncertified_same_marginal_pair_takes_lp(d, monkeypatch):
    # neighbouring nodes swap controls with a jump J > h: moving the two
    # atoms one edge each costs 2h per unit weight, the identity 2J
    g = Grid(d, 8)
    jump = 0.5
    a1 = np.zeros((g.size, 1))
    a2 = np.zeros((g.size, 1))
    a1.reshape(-1)[0] = jump
    a2.reshape(-1)[1] = jump
    m = uniform_density(g)
    nu1 = pushforward(m, a1)
    nu2 = pushforward(m, a2)
    weight = g.cell_volume
    ref = _reference_w1(nu1.x, nu1.a, nu1.w, nu2.x, nu2.a, nu2.w)
    assert ref == pytest.approx(2 * g.h * weight, abs=1e-12)
    lp_calls = []
    lp = measure._transport_lp

    def counting_lp(*args, **kwargs):
        lp_calls.append(1)
        return lp(*args, **kwargs)

    monkeypatch.setattr(measure, "_transport_lp", counting_lp)
    assert wasserstein1_joint(nu1, nu2) == pytest.approx(ref, abs=1e-9)
    assert lp_calls == [1]
    assert 2 * jump * weight > ref + 0.01


def test_atom_lp_accurate_on_nearby_measures():
    # W1 of order 1e-6: at HiGHS's default tolerances the atom LP read up to
    # 2.5e-8 low here, while psi compares such values with 1e-9
    g = Grid(1, 32)
    rng = np.random.default_rng(3)
    for seed in range(4):
        m1 = _random_density(g, 900 + seed)
        m2 = DensityField.from_values(g, m1.values * (1 + 1e-5 * rng.uniform(-1, 1, g.size)))
        a1 = _smooth_policy(g, 1, rng)
        a2 = a1 + 1e-6 * rng.uniform(-1, 1, a1.shape)
        nu1, nu2 = pushforward(m1, a1), pushforward(m2, a2)
        ref = _reference_w1(nu1.x, nu1.a, nu1.w, nu2.x, nu2.a, nu2.w)
        assert 1e-7 < ref < 1e-5
        assert abs(wasserstein1_joint(nu1, nu2) - ref) <= 1e-13


@pytest.mark.parametrize("start, eps", [("twobump", 1e-8), ("uniform", 1e-9)])
def test_atom_lp_reads_state_w1_below_its_tolerance(start, eps):
    # under one constant policy the joint W1 is the state W1.  Solved on the
    # raw weights (of order 1/32), the LP read the two-bump pair 12% low and
    # the uniform pair 0.0: every marginal difference was below HiGHS's
    # absolute 1e-10 primal tolerance
    g = Grid(1, 32)
    m1 = two_bump_density(g) if start == "twobump" else uniform_density(g)
    x = g.axis_coordinates()
    m2 = DensityField.from_values(g, m1.values * (1 + eps * np.cos(2 * np.pi * x)))
    policy = np.full((g.n, 1), 0.3)
    state = wasserstein1_state(m1, m2)
    assert 1e-11 < state < 1e-9
    assert wasserstein1_joint(pushforward(m1, policy), pushforward(m2, policy)) == pytest.approx(state, rel=1e-6)


TAU = measure.LP_OPTIONS["dual_feasibility_tolerance"]


def _constraint_matrix(highs):
    """The constraint matrix of a HiGHS model, as a scipy CSC matrix."""
    a = highs.getLp().a_matrix_
    return sparse.csc_matrix((a.value_, a.index_, a.start_), shape=(highs.getNumRow(), highs.getNumCol()))


BASIC = measure._core.HighsBasisStatus.kBasic


def _basic_columns(highs):
    """Positions of the model's basic columns, as getBasis reports them."""
    return np.flatnonzero(np.array(highs.getBasis().col_status) == BASIC)


def _record_rounds(monkeypatch, limit=40, n1=0, row_dual_shift=0.0):
    """Wrap the LP's per-round solve: one record per round of the model, its
    constraint matrix as run (a_eq), its simplex strategy and iteration
    count, its basic columns and row statuses before the solve (start,
    start_rows) and its basic columns after it (end), its value and the
    duals handed back.

    row_dual_shift is added to the returned duals of the first n1 marginal
    rows.  More than limit rounds fail the test instead of running on.
    """
    rounds = []
    solve = measure._solve

    def recording(highs):
        if len(rounds) >= limit:
            raise AssertionError(f"more than {limit} LP rounds")
        a_eq = _constraint_matrix(highs)
        strategy = highs.getOptionValue("simplex_strategy")[1]
        start, start_rows = _basic_columns(highs), list(highs.getBasis().row_status)
        value, duals = solve(highs)
        duals[:n1] += row_dual_shift
        iterations = highs.getInfo().simplex_iteration_count
        rounds.append(SimpleNamespace(
            model=highs, a_eq=a_eq, strategy=strategy, iterations=iterations, start=start, start_rows=start_rows,
            end=_basic_columns(highs), value=value, duals=duals,
        ))
        return value, duals

    monkeypatch.setattr(measure, "_solve", recording)
    return rounds


def _arcs(a_eq, n1, n2):
    """Flat arc index i * n2 + j of every LP column: i from the first n1 rows
    of A_eq, j from the rest (no entry there: the dropped last column)."""
    i = a_eq[:n1].T @ np.arange(n1)
    j = a_eq[n1:].T @ np.arange(n2 - 1)
    last = np.asarray(a_eq[n1:].sum(axis=0)).ravel() == 0
    return np.rint(i * n2 + np.where(last, n2 - 1, j)).astype(int)


def _reduced_costs(cost, duals):
    dual = np.append(duals, 0.0)
    return cost - dual[: cost.shape[0], None] - dual[None, cost.shape[0]:]


def _check_pricing(rounds, cost):
    """Each round adds, from outside its arc set, the cheapest arc of some
    rows and columns, each below -tau; after the last no outside arc is."""
    n1, n2 = cost.shape
    sets = [_arcs(r.a_eq, n1, n2) for r in rounds]
    for arcs, r, after in zip(sets, rounds, sets[1:] + [None]):
        outside = _outside_reduced_costs(cost, r)
        if after is None:
            assert outside.min() >= -TAU
            break
        added = np.setdiff1d(after, arcs)
        assert added.size > 0 and np.isin(arcs, after).all()
        i, j = np.divmod(added, n2)
        assert (outside[i, j] < -TAU).all()
        assert ((outside[i, j] == outside[i].min(axis=1)) | (outside[i, j] == outside[:, j].min(axis=0))).all()


def _lp_pair(grid, kind, k, rng):
    """Two graph measures over different densities, so the pair takes the LP."""
    m1 = _random_density(grid, 950)
    if kind == "nearby":
        m2 = DensityField.from_values(grid, m1.values * (1 + 1e-5 * rng.uniform(-1, 1, grid.size)))
        a1 = _smooth_policy(grid, k, rng)
        a2 = a1 + 1e-6 * rng.uniform(-1, 1, a1.shape)
    elif kind == "rough":
        m2 = _random_density(grid, 951)
        a1, a2 = (rng.uniform(-1, 1, (grid.size, k)) for _ in range(2))
    else:
        m2 = _random_density(grid, 951)
        a1, a2 = _smooth_policy(grid, k, rng), _smooth_policy(grid, k, rng)
    return pushforward(m1, a1), pushforward(m2, a2)


@pytest.mark.parametrize("n", [12, 16])
@pytest.mark.parametrize("kind", ["nearby", "rough", "smooth"])
@pytest.mark.parametrize("k", [1, 2])
def test_priced_atom_lp_matches_reference_lp(n, kind, k, monkeypatch):
    g = Grid(2, n)
    nu1, nu2 = _lp_pair(g, kind, k, np.random.default_rng(90 + n + k))
    ref = _reference_w1(nu1.x, nu1.a, nu1.w, nu2.x, nu2.a, nu2.w)
    rounds = _record_rounds(monkeypatch)
    value = wasserstein1_joint(nu1, nu2)
    _check_pricing(rounds, measure.joint_cost_matrix(nu1.x, nu1.a, nu2.x, nu2.a))
    mean_weight = (nu1.w.sum() + nu2.w.sum()) / (2 * g.size)  # the LP solves weights over it
    assert value == mean_weight * rounds[-1].value
    if kind == "nearby":
        assert 1e-7 < ref < 1e-5
        assert abs(value - ref) <= 1e-13
    else:
        assert abs(value - ref) <= 1e-12


def test_256_atom_pair_solves_a_sparse_arc_set(monkeypatch):
    g = Grid(2, 16)
    nu1, nu2 = _lp_pair(g, "rough", 2, np.random.default_rng(97))
    rounds = _record_rounds(monkeypatch)
    wasserstein1_joint(nu1, nu2)
    sizes = [r.a_eq.shape[1] for r in rounds]
    assert len(rounds) > 1
    assert sizes == sorted(set(sizes))  # every round adds arcs
    assert sizes[-1] < g.size**2 // 4


def _outside_reduced_costs(cost, record):
    """A round's reduced costs, inf on the arcs of its model."""
    reduced = _reduced_costs(cost, record.duals)
    reduced.ravel()[_arcs(record.a_eq, *cost.shape)] = np.inf
    return reduced


def _slack_start_iterations(cost, w1, w2, arcs):
    """Simplex iterations of the first arc set's LP solved as before the
    north-west-corner start: dual simplex from the slack basis."""
    n1, n2 = cost.shape
    scale = (w1.sum() + w2.sum()) / (n1 + n2)
    b_eq = np.concatenate([w1, w2])[:-1] / scale
    highs = measure._lp_model(b_eq, cost.ravel()[arcs], measure._arc_rows(arcs, n1, n2), 1.0)
    highs.run()
    assert highs.getModelStatus() == measure.HighsModelStatus.kOptimal
    return highs.getInfo().simplex_iteration_count


def _check_north_west_start(first, w1, w2):
    """Round 1 runs primal simplex from exactly the north-west-corner arcs
    basic, every row nonbasic at its lower bound."""
    n1, n2 = len(w1), len(w2)
    assert first.strategy == 4
    np.testing.assert_array_equal(
        np.sort(_arcs(first.a_eq, n1, n2)[first.start]), measure._north_west_corner(w1, w2)
    )
    assert first.start_rows == [measure._core.HighsBasisStatus.kLower] * (n1 + n2 - 1)


def test_hot_start_grows_one_model_to_the_reference_value(monkeypatch):
    # one HiGHS model per transport problem, every round primal simplex:
    # round 1 starts from the north-west-corner basis, and each later round
    # appends exactly the priced arcs as columns and starts from the basis
    # the last round left
    g = Grid(2, 16)
    nu1, nu2 = _lp_pair(g, "rough", 2, np.random.default_rng(97))
    cost = measure.joint_cost_matrix(nu1.x, nu1.a, nu2.x, nu2.a)
    ref = _reference_w1(nu1.x, nu1.a, nu1.w, nu2.x, nu2.a, nu2.w)
    rounds = _record_rounds(monkeypatch)
    value = wasserstein1_joint(nu1, nu2)
    assert len(rounds) > 1
    n = g.size
    for before, after in zip(rounds, rounds[1:]):
        assert after.model is rounds[0].model
        kept = before.a_eq.shape[1]
        assert (after.a_eq[:, :kept] != before.a_eq).nnz == 0  # no column rebuilt or moved
        np.testing.assert_array_equal(after.start, before.end)  # the new columns start nonbasic
        outside = _outside_reduced_costs(cost, before)
        best_col, best_row = outside.argmin(axis=1), outside.argmin(axis=0)
        priced = np.union1d(
            (np.arange(n) * n + best_col)[outside[np.arange(n), best_col] < -TAU],
            (best_row * n + np.arange(n))[outside[best_row, np.arange(n)] < -TAU],
        )
        np.testing.assert_array_equal(np.sort(_arcs(after.a_eq, n, n)[kept:]), priced)
    assert [r.strategy for r in rounds] == [4] * len(rounds)
    _check_north_west_start(rounds[0], nu1.w, nu2.w)
    # a hot-started round takes fewer simplex iterations than a fresh solve
    # of the smaller first arc set
    fresh = _slack_start_iterations(cost, nu1.w, nu2.w, _arcs(rounds[0].a_eq, n, n))
    assert max(r.iterations for r in rounds[1:]) < fresh
    assert abs(value - ref) <= 1e-12
    assert _outside_reduced_costs(cost, rounds[-1]).min() >= -TAU


def test_north_west_start_saves_iterations_on_nearby_measures(monkeypatch):
    # the report's pairs are slices of one trajectory, close to each other;
    # there the north-west-corner plan is near optimal, and round 1 takes
    # far fewer simplex iterations than dual simplex from the slack basis
    g = Grid(2, 16)
    nu1, nu2 = _lp_pair(g, "nearby", 1, np.random.default_rng(97))
    cost = measure.joint_cost_matrix(nu1.x, nu1.a, nu2.x, nu2.a)
    rounds = _record_rounds(monkeypatch)
    wasserstein1_joint(nu1, nu2)
    fresh = _slack_start_iterations(cost, nu1.w, nu2.w, _arcs(rounds[0].a_eq, g.size, g.size))
    assert rounds[0].iterations < 0.75 * fresh


def _north_west_pair(case):
    """Graph measures on a 2D grid whose pair takes the priced LP: rough
    pairs at n = 9, 12 and 16; a uniform density against one alternating
    0.5 and 1.5, whose cumulative weights tie at every other atom, so the
    staircase holds zero-mass arcs; and a pair with zero-weight atoms, which
    the LP drops, so the two sides have different atom counts."""
    rng = np.random.default_rng(71)
    if case in (9, 12, 16):
        return _lp_pair(Grid(2, case), "rough", 2, rng)
    g = Grid(2, 16 if case == "tied" else 12)
    if case == "tied":
        # the weights are multiples of 2^-9, so their cumulative sums are exact
        m1 = uniform_density(g)
        m2 = DensityField(g, np.tile([0.5, 1.5], g.size // 2))
    else:
        m1 = _random_density(g, 972)
        v = 1.0 + rng.uniform(-0.6, 0.6, g.size)
        v[rng.choice(g.size, 40, replace=False)] = 0.0
        m2 = DensityField.from_values(g, v)
    a1, a2 = (rng.uniform(-1, 1, (g.size, 2)) for _ in range(2))
    return pushforward(m1, a1), pushforward(m2, a2)


@pytest.mark.parametrize("case", [9, 12, 16, "tied", "zero-weight"])
def test_north_west_start_matches_reference_lp(case, monkeypatch):
    nu1, nu2 = _north_west_pair(case)
    (_, _, w1), (_, _, w2) = measure._dedupe(nu1), measure._dedupe(nu2)
    if case == "tied":
        ends1, ends2 = np.cumsum(w1)[:-1], np.cumsum(w2)[:-1]
        assert np.isin(ends2, ends1).sum() >= len(w2) // 2 - 1
    if case == "zero-weight":
        assert len(w1) - len(w2) == 40
    ref = _reference_w1(nu1.x, nu1.a, nu1.w, nu2.x, nu2.a, nu2.w)
    rounds = _record_rounds(monkeypatch)
    value = wasserstein1_joint(nu1, nu2)
    _check_north_west_start(rounds[0], w1, w2)
    assert abs(value - ref) <= 1e-12


def test_refused_north_west_basis_raises(monkeypatch):
    # one arc short of a spanning tree is no basis: HiGHS refuses it, and
    # the LP raises instead of solving from the slack basis
    nu1, nu2 = _north_west_pair(12)
    corner = measure._north_west_corner
    monkeypatch.setattr(measure, "_north_west_corner", lambda w1, w2: corner(w1, w2)[:-1])
    with pytest.raises(RuntimeError, match="refused its north-west-corner basis"):
        wasserstein1_joint(nu1, nu2)


def test_joint_cost_matrix_is_bit_equal_to_the_metric_definition():
    # summed axis by axis, the costs equal torus_distance plus the control
    # norm on the full (n1, n2, d) and (n1, n2, k) arrays bit for bit
    from qsmfg.grid import torus_distance

    rng = np.random.default_rng(73)
    for d in (1, 2):
        for k in (1, 2):
            for n1, n2 in ((37, 53), (64, 9)):
                # coordinates near 0 and near 1, so pairs fall on both sides of the wrap
                x1 = np.concatenate([rng.uniform(0.0, 0.1, (n1 // 2, d)), rng.uniform(0.0, 1.0, (n1 - n1 // 2, d))])
                x2 = np.concatenate([rng.uniform(0.9, 1.0, (n2 // 2, d)), rng.uniform(0.0, 1.0, (n2 - n2 // 2, d))])
                a1, a2 = rng.uniform(-1, 1, (n1, k)), rng.uniform(-1, 1, (n2, k))
                old = torus_distance(x1[:, None], x2[None]) + np.linalg.norm(a1[:, None] - a2[None], axis=-1)
                new = measure.joint_cost_matrix(x1, a1, x2, a2)
                assert new.shape == (n1, n2)
                np.testing.assert_array_equal(new, old)
                gap = np.abs(x1[:, None] - x2[None])
                assert (gap > 0.5).any() and (gap < 0.5).any()  # both branches of the torus min


def test_priced_lp_ends_when_set_arcs_price_below_tau(monkeypatch):
    # HiGHS meets dual feasibility only to its tolerance, so arcs in the set
    # can price below -tau; the loop prices arcs outside the set only
    g = Grid(2, 12)
    nu1, nu2 = _lp_pair(g, "smooth", 1, np.random.default_rng(98))
    ref = _reference_w1(nu1.x, nu1.a, nu1.w, nu2.x, nu2.a, nu2.w)
    rounds = _record_rounds(monkeypatch, n1=g.size, row_dual_shift=2 * TAU)
    value = wasserstein1_joint(nu1, nu2)
    reduced = _reduced_costs(measure.joint_cost_matrix(nu1.x, nu1.a, nu2.x, nu2.a), rounds[-1].duals)
    assert reduced.ravel()[_arcs(rounds[-1].a_eq, g.size, g.size)].min() < -TAU
    assert abs(value - ref) <= 1e-12


def _dense_transport_lp(cost, w1, w2):
    """The atom LP over every arc, built as before the LP was priced."""
    n1, n2 = cost.shape
    ii = np.repeat(np.arange(n1), n2)
    jj = np.tile(np.arange(n2), n1)
    var = np.arange(n1 * n2)
    a_eq = sparse.coo_matrix(
        (np.ones(2 * n1 * n2), (np.concatenate([ii, n1 + jj]), np.concatenate([var, var]))),
        shape=(n1 + n2, n1 * n2),
    ).tocsr()[:-1]
    res = linprog(
        cost.ravel(), A_eq=a_eq, b_eq=np.concatenate([w1, w2])[:-1], bounds=(0, None), method="highs",
        options={"presolve": False, "primal_feasibility_tolerance": TAU, "dual_feasibility_tolerance": TAU},
    )
    assert res.success, res.message
    return float(res.fun)


def _one_d_density(grid, kind, rng):
    """A density on a 1D grid: random, random with a third of its nodes
    zero, or a smooth bump."""
    if kind == "smooth":
        return von_mises_density(grid, rng.uniform(0, 1), rng.uniform(0.5, 8.0))
    v = 1.0 + rng.uniform(-0.6, 0.6, grid.size)
    if kind == "zeros":
        v[rng.choice(grid.size, grid.size // 3, replace=False)] = 0.0
    return DensityField.from_values(grid, v)


def _one_d_policy(grid, kind, rng):
    """An (n, 1) policy: zero, random, smooth (1-Lipschitz), or rough, a
    random one with a jump of at least 1 on every other edge."""
    if kind == "zero":
        return np.zeros((grid.size, 1))
    if kind == "smooth":
        return _smooth_policy(grid, 1, rng)
    a = rng.uniform(-1, 1, (grid.size, 1))
    if kind == "rough":
        a[::2] += 3.0
    return a


_ONE_D_DRAWS = dict(
    n=st.sampled_from([8, 9, 16, 32]),
    seed=st.integers(0, 10_000),
    densities=st.tuples(
        st.sampled_from(["random", "zeros", "smooth"]),
        st.sampled_from(["random", "zeros", "smooth", "same"]),
    ),
    policies=st.tuples(
        st.sampled_from(["zero", "random", "smooth", "rough"]),
        st.sampled_from(["zero", "random", "smooth", "rough", "shared"]),
    ),
)


def _one_d_pair(n, seed, densities, policies):
    """Graph measures on Grid(1, n) with scalar controls.  A second density
    "same" is the first one, and then both policies are made rough, so that
    the identity coupling cannot certify the pair; a second policy "shared"
    is the first one."""
    g = Grid(1, n)
    rng = np.random.default_rng(seed)
    m1 = _one_d_density(g, densities[0], rng)
    same = densities[1] == "same"
    m2 = m1 if same else _one_d_density(g, densities[1], rng)
    kinds = ("rough", "rough") if same else policies
    a1 = _one_d_policy(g, kinds[0], rng)
    a2 = a1 if kinds[1] == "shared" else _one_d_policy(g, kinds[1], rng)
    nu1, nu2 = pushforward(m1, a1), pushforward(m2, a2)
    if same:
        assert not (measure._lipschitz_policy(nu1) or measure._lipschitz_policy(nu2))
    return nu1, nu2


def _full_reference(nu1, nu2):
    return _reference_w1(nu1.x, nu1.a, nu1.w, nu2.x, nu2.a, nu2.w)


@settings(max_examples=60, deadline=None)
@given(**_ONE_D_DRAWS)
def test_1d_engine_matches_reference_lp(n, seed, densities, policies):
    nu1, nu2 = _one_d_pair(n, seed, densities, policies)
    ref = _full_reference(nu1, nu2)
    assert abs(wasserstein1_joint(nu1, nu2) - ref) <= 1e-12
    assert abs(wasserstein1_joint(nu2, nu1) - ref) <= 1e-12


@settings(max_examples=60, deadline=None)
@given(**_ONE_D_DRAWS)
def test_1d_separable_bounds_enclose_reference_lp(n, seed, densities, policies):
    # the lower bound is the dual value of (u, v), which is feasible; the
    # upper bound is the cost of the lifted circle plan, which is a coupling
    nu1, nu2 = _one_d_pair(n, seed, densities, policies)
    cost = measure.joint_cost_matrix(nu1.x, nu1.a, nu2.x, nu2.a)
    lower, upper, u, v, plan = measure._separable_bounds(nu1, nu2, cost)
    ref = _full_reference(nu1, nu2)
    assert lower - 1e-12 <= ref <= upper + 1e-12
    assert (cost - u[:, None] - v).min() >= -1e-14
    assert u @ nu1.w + v @ nu2.w == pytest.approx(lower, rel=1e-12, abs=1e-15)
    state = wasserstein1_state(DensityField(nu1.grid, nu1.w * n), DensityField(nu2.grid, nu2.w * n))
    assert abs(lower - state - measure._line_potential(nu1.a[:, 0], nu1.w, nu2.a[:, 0], nu2.w)[0]) <= 1e-15
    # the plan's staircase alone holds a feasible plan, one of cost upper
    arcs = np.unique(plan)
    assert arcs.size <= 2 * n - 1
    b_eq = np.concatenate([nu1.w, nu2.w])[:-1] * n
    staircase = measure._solve(measure._lp_model(b_eq, cost.ravel()[arcs], measure._arc_rows(arcs, n, n), 1.0))[0] / n
    assert ref - 1e-12 <= staircase <= upper + 1e-12


@pytest.mark.parametrize("case", ["tied", "tied-odd", "random"])
def test_circle_potential_is_1_lipschitz_and_attains_w1(case):
    # tied: c = (a, a, a, a, 0, 0, 0, 0) exactly, so four edges carry no
    # flow and the median 0 leaves four edges of positive flow: stepping 0
    # on the no-flow edges would leave a closing step of 4h.  tied-odd adds
    # a ninth node of zero mass, a fifth edge without flow
    n = 9 if case == "tied-odd" else 8
    w2 = np.r_[np.full(8, 1.0 / 8), np.zeros(n - 8)]
    w1 = w2.copy()
    if case == "random":
        w1 = np.random.default_rng(5).dirichlet(np.ones(n))
    else:
        w1[0] += 1.0 / 16
        w1[4] -= 1.0 / 16
    h = 1.0 / n
    value, phi, cut = measure._circle_potential(w1, w2, h)
    assert value == pytest.approx(measure._circle_w1(w1, w2, h), abs=1e-16)
    assert phi @ (w1 - w2) == pytest.approx(value, abs=1e-16)
    assert np.abs(np.diff(np.r_[phi, phi[0]])).max() <= h * (1 + 1e-14)
    c = np.cumsum(w1 - w2)
    assert c[cut] == np.partition(c, (n - 1) // 2)[(n - 1) // 2]
    if case != "random":
        assert np.count_nonzero(c == c[cut]) >= 4


@pytest.mark.parametrize("n", [8, 9, 32])
def test_1d_pair_with_a_zero_policy_is_certified_without_an_lp(n, monkeypatch):
    # against a zero policy the lifted circle plan costs W1_state plus
    # sum_i w_i |a_i|, which is the lower bound: psi's first pass
    g = Grid(1, n)
    rng = np.random.default_rng(990 + n)
    zero = pushforward(_one_d_density(g, "zeros", rng), np.zeros((n, 1)))
    rough = pushforward(_one_d_density(g, "random", rng), _one_d_policy(g, "rough", rng))
    ref = _full_reference(rough, zero)
    built = _count_models(monkeypatch)
    monkeypatch.setattr(measure, "_transport_lp", _no_lp)
    for nu1, nu2 in ((rough, zero), (zero, rough)):
        assert abs(wasserstein1_joint(nu1, nu2) - ref) <= 1e-12
    assert built == []


def test_1d_pair_starts_from_the_tight_arcs_and_the_circle_plan(monkeypatch):
    # a pair the bounds leave apart takes the LP, from the arcs the lower
    # bound's duals price at most tau plus the circle plan's staircase, by
    # dual simplex from the slack basis
    g = Grid(1, 32)
    rng = np.random.default_rng(99)
    nu1, nu2 = (
        pushforward(_random_density(g, 960 + s), rng.uniform(-1, 1, (32, 1))) for s in range(2)
    )
    cost = measure.joint_cost_matrix(nu1.x, nu1.a, nu2.x, nu2.a)
    lower, upper, u, v, plan = measure._separable_bounds(nu1, nu2, cost)
    assert upper - lower > 1e-3
    dense = _dense_transport_lp(cost, nu1.w, nu2.w)
    rounds = _record_rounds(monkeypatch)
    assert abs(wasserstein1_joint(nu1, nu2) - dense) <= 1e-12
    first = _arcs(rounds[0].a_eq, 32, 32)
    np.testing.assert_array_equal(np.sort(first), np.union1d(np.flatnonzero(cost - u[:, None] - v <= TAU), plan))
    assert first.size < 32 * 32 // 4
    assert rounds[0].strategy == 1 and rounds[0].start.size == 0
    _check_pricing(rounds, cost)


def test_1d_pair_with_two_controls_takes_the_all_arc_lp(monkeypatch):
    # the separable bound needs scalar controls: a d=1, k=2 pair solves one
    # LP over every arc, as larger pairs than ALL_ARCS_PAIRS would be priced
    g = Grid(1, 32)
    rng = np.random.default_rng(98)
    nu1, nu2 = (pushforward(_random_density(g, 970 + s), rng.uniform(-1, 1, (32, 2))) for s in range(2))
    dense = _dense_transport_lp(measure.joint_cost_matrix(nu1.x, nu1.a, nu2.x, nu2.a), nu1.w, nu2.w)
    ref = _full_reference(nu1, nu2)
    rounds = _record_rounds(monkeypatch)
    assert wasserstein1_joint(nu1, nu2) == dense
    assert abs(dense - ref) <= 1e-12
    assert len(rounds) == 1
    np.testing.assert_array_equal(_arcs(rounds[0].a_eq, 32, 32), np.arange(32 * 32))


@pytest.mark.parametrize("d,n", [(1, 32), (2, 8)])
@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("densities", ["equal", "different"])
def test_joint_upper_bound_dominates_reference_lp(d, n, k, densities):
    g = Grid(d, n)
    rng = np.random.default_rng(80 + 10 * d + k)
    for seed in range(2):
        m1 = _random_density(g, 700 + seed)
        m2 = m1 if densities == "equal" else _random_density(g, 750 + seed)
        state = wasserstein1_state(m1, m2)
        policies = (_smooth_policy(g, k, rng), rng.uniform(-1, 1, (g.size, k)))
        for a1 in policies:
            for a2 in policies:
                nu1, nu2 = pushforward(m1, a1), pushforward(m2, a2)
                ref = _reference_w1(nu1.x, nu1.a, nu1.w, nu2.x, nu2.a, nu2.w)
                assert joint_w1_upper_bound(nu1, nu2, state) >= ref - 1e-12


def test_joint_upper_bound_inf_off_graph_measures():
    g = Grid(1, 8)
    m = uniform_density(g)
    nu = pushforward(m, np.zeros((8, 1)))
    loose = JointMeasure(nu.x, nu.a, nu.w)  # no grid attached
    with pytest.raises(ValueError, match="atom i at node i"):  # the grid's nodes, shuffled
        JointMeasure(nu.x[::-1], nu.a, nu.w, grid=g)
    other_grid = pushforward(uniform_density(Grid(1, 16)), np.zeros((16, 1)))
    heavier = nu.scaled(2.0)
    for a, b in ((loose, nu), (nu, loose), (nu, other_grid), (nu, heavier)):
        assert joint_w1_upper_bound(a, b, 0.0) == np.inf
    assert joint_w1_upper_bound(nu, nu, 0.0) == 0.0


@pytest.mark.parametrize("n", [8, 9, 16])
@pytest.mark.parametrize("kind", ["random", "dirac", "equal"])
def test_w1_state_2d_flow_matches_reference_lp(n, kind):
    g = Grid(2, n)
    if kind == "random":
        m1, m2 = _random_density(g, n), _random_density(g, n + 1)
    elif kind == "dirac":
        v1 = np.zeros(g.size)
        v2 = np.zeros(g.size)
        v1[0] = 1.0 / g.cell_volume
        v2[n // 2 * n + n // 3] = 1.0 / g.cell_volume  # node (n // 2, n // 3)
        m1, m2 = DensityField(g, v1), DensityField(g, v2)
    else:
        m1 = m2 = _random_density(g, n)
    x = g.coordinates()
    zeros = np.zeros((g.size, 1))
    ref = _reference_w1(x, zeros, m1.values * g.cell_volume, x, zeros, m2.values * g.cell_volume)
    assert abs(wasserstein1_state(m1, m2) - ref) <= 1e-12


def test_w1_state_2d_flow_reads_imbalances_below_lp_tolerance():
    # every node imbalance is below HiGHS's absolute 1e-7 tolerance, where an
    # unscaled flow admits the zero flow and reads W1 = 0.  W1 depends only
    # on p - q, so the reference transports its positive part onto its
    # negative part, which _reference_w1 scales to mean one per atom.  The
    # perturbations, powers of two near 1e-6, 1e-8 and 1e-10 times a
    # zero-sum direction of multiples of 2^-10, are exact in floating point
    g = Grid(2, 16)
    m1 = uniform_density(g)
    steps = np.random.default_rng(17).integers(-1024, 1025, (g.n, g.n))
    direction = ((steps - steps[::-1]) / 2048.0).ravel()
    x = g.coordinates()
    zeros = np.zeros((g.size, 1))
    per_unit = []
    for eps in (2.0**-20, 2.0**-27, 2.0**-33):
        m2 = DensityField(g, m1.values + eps * direction)
        gap = (m1.values - m2.values) * g.cell_volume
        np.testing.assert_array_equal(gap, -eps * direction.ravel() * g.cell_volume)
        assert 0.0 < np.abs(gap).max() < 1e-7
        pos, neg = gap > 0, gap < 0
        ref = _reference_w1(x[pos], zeros[pos], gap[pos], x[neg], zeros[neg], -gap[neg])
        w1 = wasserstein1_state(m1, m2)
        assert w1 == pytest.approx(ref, rel=1e-6)
        per_unit.append(w1 / eps)
    assert per_unit[1] == pytest.approx(per_unit[0], rel=1e-6)
    assert per_unit[2] == pytest.approx(per_unit[0], rel=1e-6)


def test_w1_state_2d_transport_limits(monkeypatch):
    g = Grid(2, 8)
    m1, m2 = _random_density(g, 70), _random_density(g, 71)
    with monkeypatch.context() as patch:
        patch.setattr("qsmfg.measure.ATOM_CAP", 8)
        with pytest.raises(ValueError, match="exceeds cap 8"):
            wasserstein1_state(m1, m2)
    solve = measure._solve

    def stopped(highs):
        # no simplex iteration allowed: HiGHS stops before the optimum
        highs.setOptionValue("simplex_iteration_limit", 0)
        return solve(highs)

    monkeypatch.setattr(measure, "_solve", stopped)
    with pytest.raises(RuntimeError, match="transport LP failed: Iteration limit reached"):
        wasserstein1_state(m1, m2)
    zero = np.zeros((g.size, 2))
    with pytest.raises(RuntimeError, match="transport LP failed: Iteration limit reached"):
        wasserstein1_joint(pushforward(m1, zero), pushforward(m2, zero))


def _flow_batch(g):
    """Pairs of 2D densities for one batch: a zero imbalance first and in
    the middle, near-proportional imbalances, and random pairs in both
    orders."""
    base, other, third = (_random_density(g, 300 + s) for s in range(3))
    rng = np.random.default_rng(g.n)
    # one zero-sum direction, each copy perturbed by a relative 1e-3
    shapes = rng.uniform(-1.0, 1.0, g.size) + 1e-3 * rng.uniform(-1.0, 1.0, (3, g.size))
    shapes -= shapes.mean(axis=1, keepdims=True)
    near = [DensityField(g, base.values + 0.1 * eps * s) for eps, s in zip((1.0, 0.5, 2.0), shapes)]
    firsts = [base, base, base, base, other, other, third, base, other]
    seconds = [base, *near, third, other, other, other, base]
    return firsts, seconds


def _count_models(monkeypatch):
    """Wrap _lp_model; the returned list gets one entry per model built."""
    built = []
    lp_model = measure._lp_model

    def counting(*args, **kwargs):
        built.append(args)
        return lp_model(*args, **kwargs)

    monkeypatch.setattr(measure, "_lp_model", counting)
    return built


@pytest.mark.parametrize("n", [8, 9, 16])
def test_w1_state_2d_batch_matches_reference_lp(n, monkeypatch):
    # one HiGHS model per batch; every LP after the first nonzero one is
    # hot-started from the basis the last solve left, and each value is the
    # reference LP's and the single-pair call's
    g = Grid(2, n)
    firsts, seconds = _flow_batch(g)
    singles = [wasserstein1_state(m1, m2) for m1, m2 in zip(firsts, seconds)]
    built = _count_models(monkeypatch)
    rounds = _record_rounds(monkeypatch)
    values = wasserstein1_state(firsts, seconds)
    assert len(built) == 1
    assert all(r.model is rounds[0].model for r in rounds)
    assert len(rounds) == len(firsts) - 2  # the two zero imbalances take no solve
    assert [values[0], values[5]] == [0.0, 0.0]
    x = g.coordinates()
    zeros = np.zeros((g.size, 1))
    for m1, m2, value, single in zip(firsts, seconds, values, singles):
        ref = _reference_w1(x, zeros, m1.values * g.cell_volume, x, zeros, m2.values * g.cell_volume)
        assert abs(value - ref) <= 1e-12
        assert abs(value - single) <= 1e-12
    # the near-proportional imbalances restart from a nearly optimal basis
    assert max(r.iterations for r in rounds[1:3]) < rounds[0].iterations // 10


def _beckmann_flow_w1(imbalances, grid):
    """W1 of each node-mass imbalance as Beckmann's min-cost flow, the primal
    of the potential LP: one forward and one backward flow column per edge
    of the periodic grid graph, each of cost h per unit mass, and one
    balance row per node but the last, on one model per nonzero imbalance,
    scaled to unit L1 mass."""
    tails = np.tile(np.arange(grid.size), grid.d)
    heads = grid.neighbors()[:, 0::2].T.ravel()  # the +1 neighbours, axis by axis
    edges = np.tile(np.stack([tails, heads], axis=1), (2, 1))
    signs = np.repeat([[1.0, -1.0], [-1.0, 1.0]], tails.size, axis=0)  # forward, then backward
    values = []
    for imbalance in imbalances:
        scale = np.abs(imbalance).sum()
        if scale == 0.0:
            values.append(0.0)
            continue
        highs = measure._lp_model(imbalance[:-1] / scale, np.full(len(edges), grid.h), edges, signs)
        values.append(scale * measure._solve(highs)[0])
    return values


@pytest.mark.parametrize("n", [8, 9, 16])
def test_w1_state_2d_potential_lp_equals_the_flow_lp(n):
    # LP duality: the potential LP's values are the min-cost flow's
    g = Grid(2, n)
    firsts, seconds = _flow_batch(g)
    imbalances = [(m1.values - m2.values) * g.cell_volume for m1, m2 in zip(firsts, seconds)]
    flows = _beckmann_flow_w1(imbalances, g)
    assert min(flows[1:5]) > 0.0
    np.testing.assert_allclose(wasserstein1_state(firsts, seconds), flows, rtol=0, atol=1e-15)


def test_w1_state_1d_batch_is_the_circle_cdf_pair_by_pair():
    g = Grid(1, 32)
    firsts = [_random_density(g, s) for s in range(4)]
    seconds = [firsts[0], firsts[2], firsts[1], _random_density(g, 9)]
    h, vol = g.h, g.cell_volume
    expected = [measure._circle_w1(m1.values * vol, m2.values * vol, h) for m1, m2 in zip(firsts, seconds)]
    assert wasserstein1_state(firsts, seconds) == expected
    assert [wasserstein1_state(m1, m2) for m1, m2 in zip(firsts, seconds)] == expected


@pytest.mark.parametrize("d", [1, 2])
def test_w1_state_empty_batch(d, monkeypatch):
    built = _count_models(monkeypatch)
    assert wasserstein1_state([], []) == []
    assert built == []


def test_w1_state_batch_failures(monkeypatch):
    g = Grid(2, 8)
    m1, m2 = _random_density(g, 70), _random_density(g, 71)
    m3 = _random_density(g, 72)
    built = _count_models(monkeypatch)
    # any pair above the cap rejects the whole batch before a model is built
    dirac = np.zeros(g.size)
    dirac[0] = 1.0 / g.cell_volume
    point = DensityField(g, dirac)
    with monkeypatch.context() as patch:
        patch.setattr("qsmfg.measure.ATOM_CAP", 8)
        wasserstein1_state([point], [point])
        with pytest.raises(ValueError, match="exceeds cap 8"):
            wasserstein1_state([point, m1], [point, m2])
    assert built == []
    with pytest.raises(ValueError, match="different grids"):
        wasserstein1_state([m1, m2], [m2, uniform_density(Grid(2, 9))])
    with pytest.raises(ValueError, match="differ in length"):
        wasserstein1_state([m1, m2], [m2])
    assert built == []

    # the batch's second solve stops at the iteration limit: an error, not
    # the value of the basis the first solve left
    solves = []
    solve = measure._solve

    def stopped_second(highs):
        solves.append(highs)
        if len(solves) == 2:
            highs.setOptionValue("simplex_iteration_limit", 0)
        return solve(highs)

    monkeypatch.setattr(measure, "_solve", stopped_second)
    with pytest.raises(RuntimeError, match="transport LP failed: Iteration limit reached"):
        wasserstein1_state([m1, m2, m1], [m2, m3, m3])
    assert len(solves) == 2 and len(built) == 1


@pytest.mark.parametrize("k", [1, 2])
def test_mean_control_has_k_components(k):
    np.testing.assert_array_equal(JointMeasure.empty(2, k).mean_control(), np.zeros(k))
    nu = JointMeasure(np.zeros((3, 2)), np.ones((3, k)), np.full(3, 0.5))
    np.testing.assert_array_equal(nu.mean_control(), np.full(k, 1.5))


def test_empty_measures_distance_zero():
    e1 = JointMeasure.empty()
    e2 = JointMeasure.empty()
    assert wasserstein1_joint(e1, e2) == 0.0
