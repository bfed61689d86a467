"""Fokker-Planck stepper tests against exact-in-time oracles.

The oracles integrate the same spatial semi-discretization exactly in time:
a dense matrix exponential for the heat flow and an FFT diagonalization of
the circulant generator for constant drift.  Both are built in this file
from the stencil definition, independent of the sparse implicit solver.
"""

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sparse
import scipy.sparse.linalg as spla

from qsmfg import fp
from qsmfg.fp import fp_evolve, fp_step, transport_generator
from qsmfg.grid import Grid
from qsmfg.measure import DensityField, two_bump_density, uniform_density, von_mises_density

GRID = Grid(1, 32)


def _const_drift(grid, value):
    return np.full((grid.size, grid.d), float(value))


def _dense_heat_generator(n, h):
    """Dense periodic Laplacian built from the 3-point stencil definition."""
    mat = np.zeros((n, n))
    for i in range(n):
        mat[i, i] = -2.0 / h**2
        mat[i, (i + 1) % n] = 1.0 / h**2
        mat[i, (i - 1) % n] = 1.0 / h**2
    return mat


class TestSingleStep:
    def test_uniform_is_heat_steady_state(self):
        # the uniform vector is an exact fixed point of the discrete operator
        m = uniform_density(GRID)
        gen = transport_generator(GRID, _const_drift(GRID, 0.0))
        mat = sparse.identity(GRID.size, format="csr") - 0.05 * gen
        np.testing.assert_array_equal(mat @ m.values, m.values)
        # and the solved step reproduces it to rounding
        out = fp_step(m, _const_drift(GRID, 0.0), 0.05)
        np.testing.assert_allclose(out.values, m.values, rtol=0, atol=5e-15)

    def test_mass_conserved_random_drift(self):
        rng = np.random.default_rng(0)
        m = von_mises_density(GRID, 0.3, 5.0)
        for _ in range(50):
            g = rng.uniform(-5, 5, GRID.size)[:, None]
            m = fp_step(m, g, 0.02)
            assert abs(m.mass() - 1.0) <= 1e-12
            assert m.values.min() >= 0.0

    def test_generator_column_sums_vanish(self):
        rng = np.random.default_rng(1)
        g = rng.uniform(-5, 5, GRID.size)[:, None]
        gen = transport_generator(GRID, g)
        np.testing.assert_allclose(np.asarray(gen.sum(axis=0)).ravel(), 0.0, atol=1e-12)

    def test_generator_offdiagonals_nonnegative(self):
        rng = np.random.default_rng(2)
        g = rng.uniform(-5, 5, GRID.size)[:, None]
        gen = transport_generator(GRID, g).toarray()
        off = gen - np.diag(np.diag(gen))
        assert off.min() >= 0.0

    @pytest.mark.parametrize("d,n", [(1, 16), (2, 8)])
    def test_rejects_drift_of_wrong_shape(self, d, n):
        # a transposed (d, n^d) array, a drift with the other d, and a flat one
        grid = Grid(d, n)
        for shape in ((d, grid.size), (grid.size, 3 - d), (grid.size,)):
            with pytest.raises(ValueError, match="drift needs shape"):
                transport_generator(grid, np.zeros(shape))
            with pytest.raises(ValueError, match="drift needs shape"):
                fp_step(uniform_density(grid), np.zeros(shape), 0.05)

    def test_rejects_nonpositive_dt(self):
        with pytest.raises(ValueError):
            fp_step(uniform_density(GRID), _const_drift(GRID, 0.0), 0.0)

    def test_mass_and_positivity_property(self):
        from hypothesis import given, settings
        from hypothesis import strategies as st

        @settings(max_examples=20, deadline=None)
        @given(seed=st.integers(0, 10_000), dt=st.floats(1e-4, 0.5), scale=st.floats(0.0, 5.0))
        def run(seed, dt, scale):
            rng = np.random.default_rng(seed)
            m = DensityField.from_values(
                GRID, 1.0 + rng.uniform(-0.8, 0.8, GRID.size)
            )
            g = rng.uniform(-scale, scale, GRID.size)[:, None]
            out = fp_step(m, g, dt)
            assert abs(out.mass() - 1.0) <= 1e-12
            assert out.values.min() >= 0.0

        run()

    @pytest.mark.parametrize("dt", [0.05, 0.5])
    @pytest.mark.parametrize("d,n", [(1, 32), (2, 8), (2, 9), (2, 16)])
    def test_step_equals_spsolve(self, d, n, dt):
        # the step, one SuperLU call in natural column order on the CSC form
        # of the stencil pattern, equals spsolve of P (I - dt*L) P^T built as
        # scipy matrices, P the grid's solve order, under the same column
        # order bit for bit, and the unreordered spsolve to rounding
        grid = Grid(d, n)
        rng = np.random.default_rng(10 * n + d)
        g = rng.uniform(-3.0, 3.0, (grid.size, d))
        m = DensityField.from_values(grid, 1.0 + rng.uniform(-0.8, 0.8, grid.size))
        gen = sparse.csr_matrix(transport_generator(grid, g).toarray())
        assert gen.nnz == grid.size * (2 * d + 1)  # no stencil value is zero
        mat = gen * -dt
        mat.setdiag(mat.diagonal() + 1.0)
        perm = grid.stencil_pattern().perm
        reordered = sparse.csc_matrix(mat.toarray()[np.ix_(perm, perm)])
        solved = np.empty(grid.size)
        solved[perm] = spla.spsolve(reordered, m.values[perm], permc_spec="NATURAL")

        def density(v):
            v = np.maximum(v, 0.0)
            return v / (v.sum() * grid.cell_volume)

        got = fp_step(m, g, dt).values
        assert np.array_equal(got, density(solved))
        np.testing.assert_allclose(got, density(spla.spsolve(mat.tocsc(), m.values)), rtol=1e-12, atol=0)

    @pytest.mark.parametrize("d,n", [(1, 32), (2, 8)])
    def test_step_density_equals_the_checked_constructors(self, d, n, monkeypatch):
        # the step builds its density without DensityField's second round of
        # checks; the public constructor, which copies and checks the same
        # array again, gives the same density bit for bit
        grid = Grid(d, n)
        rng = np.random.default_rng(20 * n + d)
        g = rng.uniform(-3.0, 3.0, (grid.size, d))
        m = DensityField.from_values(grid, 1.0 + rng.uniform(-0.8, 0.8, grid.size))
        out = fp_step(m, g, 0.05)
        assert not out.values.flags.writeable
        assert not np.shares_memory(out.values, m.values)
        monkeypatch.setattr(DensityField, "_checked", classmethod(lambda cls, grid, values: cls(grid, values)))
        checked = fp_step(m, g, 0.05)
        assert checked.grid == out.grid
        assert np.array_equal(checked.values, out.values)

    def test_2d_mass_and_positivity(self):
        grid = Grid(2, 8)
        rng = np.random.default_rng(3)
        m = von_mises_density(grid, (0.3, 0.7), 3.0)
        for _ in range(5):
            g = np.stack([rng.uniform(-3, 3, grid.size) for _ in range(2)], axis=-1)
            m = fp_step(m, g, 0.02)
            assert abs(m.mass() - 1.0) <= 1e-12
            assert m.values.min() >= 0.0

    @pytest.mark.parametrize(
        "message, alter",
        [
            ("non-finite values", lambda v: np.where(np.arange(v.size) == 3, np.nan, v)),
            ("positivity lost", lambda v: np.where(np.arange(v.size) == 3, -1e-10, v)),
            ("mass drift", lambda v: v * (1.0 + 1e-9)),
        ],
        ids=["non-finite", "negative", "mass-drift"],
    )
    def test_bad_solve_is_a_solver_error(self, monkeypatch, message, alter):
        # the M-matrix forbids each of these, so a linear solve that returns
        # a non-finite value, a value below -measure.NEGATIVE_TOL or a mass
        # off by more than measure.MASS_TOL is a RuntimeError, not a density
        solve = fp._direct_solve
        monkeypatch.setattr(fp, "_direct_solve", lambda *args, **kwargs: alter(solve(*args, **kwargs)))
        with pytest.raises(RuntimeError, match=message):
            fp_step(two_bump_density(GRID), _const_drift(GRID, 0.5), 0.05)


class TestHeatFlowOracle:
    def test_matches_matrix_exponential_first_order(self):
        m0 = von_mises_density(GRID, 0.5, 8.0)
        T = 0.02
        dense = _dense_heat_generator(GRID.n, GRID.h)
        exact = scipy.linalg.expm(T * dense) @ m0.values
        errors = {}
        for n_steps in (8, 16):
            dt = T / n_steps
            traj = fp_evolve(m0, [_const_drift(GRID, 0.0)] * n_steps, dt)
            errors[n_steps] = np.abs(traj[-1].values - exact).max()
        ratio = errors[8] / errors[16]
        assert 1.7 <= ratio <= 2.3

    def test_decay_toward_uniform_monotone(self):
        m0 = von_mises_density(GRID, 0.25, 10.0)
        traj = fp_evolve(m0, [_const_drift(GRID, 0.0)] * 20, 0.05)
        gaps = [np.abs(m.values - 1.0).max() for m in traj]
        assert all(b < a + 1e-15 for a, b in zip(gaps, gaps[1:]))
        assert gaps[-1] < 1e-3 * gaps[0]

    def test_sup_norm_bounded_by_heat_oracle(self):
        m0 = von_mises_density(GRID, 0.5, 8.0)
        dt = 0.01  # ten steps to T = 0.1
        traj = fp_evolve(m0, [_const_drift(GRID, 0.0)] * 10, dt)
        dense = _dense_heat_generator(GRID.n, GRID.h)
        exact_max = m0.values.max()
        vec = m0.values.copy()
        step_exp = scipy.linalg.expm(dt * dense)
        for _ in range(len(traj) - 1):
            vec = step_exp @ vec
            exact_max = max(exact_max, vec.max())
        assert max(m.values.max() for m in traj) <= exact_max * (1 + 1e-8)


class TestConstantDriftFourierOracle:
    def test_matches_circulant_exponential(self):
        # constant drift: the generator is circulant; integrate it exactly by FFT
        m0 = two_bump_density(GRID)
        c = 1.5
        T, dt = 0.05, 0.0025
        traj = fp_evolve(m0, [_const_drift(GRID, c)] * 20, dt)

        n, h = GRID.n, GRID.h
        # first column of the generator from the flux definition: velocity
        # v = -c at both interfaces of every cell
        col = np.zeros(n)
        vp, vm = max(-c, 0.0), min(-c, 0.0)
        col[0] += -2.0 / h**2 - (vp - vm) / h
        col[1] += 1.0 / h**2 + vp / h
        col[-1] += 1.0 / h**2 - vm / h
        eig = np.fft.fft(col)
        modes = np.fft.fft(m0.values)
        exact = np.real(np.fft.ifft(modes * np.exp(T * eig)))
        err = np.abs(traj[-1].values - exact).max()
        # implicit Euler is first order; bound measured generously
        assert err < 0.5
        finer = fp_evolve(m0, [_const_drift(GRID, c)] * 40, dt / 2)
        err2 = np.abs(finer[-1].values - exact).max()
        assert err2 < 0.75 * err

    def test_translation_of_profile(self):
        # the drifted solution is (approximately) the diffused translate
        m0 = von_mises_density(GRID, 0.5, 8.0)
        c = 2.0
        T = 0.25
        # mass moves with velocity -g: translate by -c*T = -0.5 on the torus
        traj = fp_evolve(m0, [_const_drift(GRID, c)] * 200, 0.00125)
        heat = fp_evolve(m0, [_const_drift(GRID, 0.0)] * 200, 0.00125)
        shift_nodes = int(round(-c * T / GRID.h)) % GRID.n
        translated = np.roll(heat[-1].values, shift_nodes)
        assert np.abs(traj[-1].values - translated).max() < 0.02


class TestEvolve:
    def test_zero_steps(self):
        m0 = uniform_density(GRID)
        assert fp_evolve(m0, [], 0.1) == (m0,)

    def test_each_drift_drives_its_step(self):
        m0 = von_mises_density(GRID, 0.3, 5.0)
        rng = np.random.default_rng(4)
        g0, g1 = (rng.uniform(-3, 3, GRID.size)[:, None] for _ in range(2))
        traj = fp_evolve(m0, [g0, g1], 0.05)
        assert len(traj) == 3 and traj[0] is m0
        np.testing.assert_array_equal(traj[1].values, fp_step(m0, g0, 0.05).values)
        np.testing.assert_array_equal(traj[2].values, fp_step(fp_step(m0, g0, 0.05), g1, 0.05).values)
        # the other order gives other densities: the drifts are not interchangeable
        assert not np.array_equal(traj[2].values, fp_step(fp_step(m0, g1, 0.05), g0, 0.05).values)
