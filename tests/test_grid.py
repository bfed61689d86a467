import importlib
import sys

import numpy as np
import pytest
import scipy.sparse as sparse
import scipy.sparse.linalg as spla
from hypothesis import given, settings
from hypothesis import strategies as st

from qsmfg.fp import transport_generator
from qsmfg.grid import (
    FieldError,
    Grid,
    _direct_solve,
    _extension,
    gradient_central,
    gradient_upwind,
    laplacian,
    torus_distance,
    torus_distance_matrix,
)


def _random_field(grid, seed):
    rng = np.random.default_rng(seed)
    return rng.uniform(-2.0, 2.0, grid.size)


def test_grid_validation():
    with pytest.raises(FieldError, match="^d ") as err:
        Grid(3, 16)
    assert err.value.field == "d"
    with pytest.raises(FieldError, match="^n ") as err:
        Grid(1, 4)
    assert err.value.field == "n"
    g = Grid(1, 48)
    assert g.n * g.h == pytest.approx(1.0, abs=0)
    assert g.shape == (48,)
    assert Grid(2, 8).size == 64


@pytest.mark.parametrize("d,n", [(1, 32.0), (1.0, 32), (True, 32), (1, True), (2, 16.5), ("1", 32)])
def test_grid_rejects_non_integer_sizes(d, n):
    with pytest.raises(FieldError) as err:
        Grid(d, n)
    # a refused d is named first; an accepted one leaves n
    assert err.value.field == ("n" if type(d) is int else "d")


def test_grid_accepts_numpy_integers():
    g = Grid(np.int64(2), np.int64(16))
    assert g == Grid(2, 16)
    assert g.neighbors().shape == (256, 4)
    np.testing.assert_array_equal(g.coordinates(), Grid(2, 16).coordinates())


@pytest.mark.parametrize("d,n", [(1, 8), (2, 9)])
def test_grid_arrays_built_once_and_read_only(d, n):
    g = Grid(d, n)
    for method in (g.coordinates, g.neighbors):
        arr = method()
        assert arr is method()
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0, 0] = arr[0, 0]
    # equal grids are equal values; each instance holds its own arrays
    assert Grid(d, n) == g and Grid(d, n).coordinates() is not g.coordinates()
    # the stencil's CSR pattern and the HJB solve's normalized one: each one
    # tuple of read-only arrays
    for method in (g.stencil_pattern, g.normalized_pattern):
        assert method() is method()
        for arr in method():
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = arr[0]
    pattern = g.stencil_pattern()
    width, nnz = 1 + 2 * d, g.size * (1 + 2 * d)
    np.testing.assert_array_equal(pattern.indptr, width * np.arange(g.size + 1))
    assert pattern.indices.dtype == pattern.indptr.dtype == np.intc
    rows = np.repeat(np.arange(g.size), width)
    cols = pattern.indices
    # columns ascend strictly within each row: canonical CSR
    assert (np.diff(cols.reshape(g.size, width), axis=1) > 0).all()
    # row and column k are node perm[k]: order gathers row-major
    # [i, neighbours...] values of node i into the slots of row place[i]
    perm = pattern.perm
    place = np.argsort(perm)
    rowmajor = np.column_stack([np.arange(g.size), g.neighbors()])
    np.testing.assert_array_equal(place[rowmajor.ravel()[pattern.order]], cols)
    np.testing.assert_array_equal(np.repeat(np.arange(g.size), width)[pattern.order], perm[rows])
    np.testing.assert_array_equal(np.sort(pattern.order), np.arange(nnz))
    # transpose maps slot (i, j) to slot (j, i) and undoes itself
    np.testing.assert_array_equal(rows[pattern.transpose], cols)
    np.testing.assert_array_equal(cols[pattern.transpose], rows)
    np.testing.assert_array_equal(pattern.transpose[pattern.transpose], np.arange(nnz))
    # so data[transpose] is the CSC data scipy's tocsc gives on the same pattern
    data = np.random.default_rng(d).uniform(-1.0, 1.0, nnz)
    csc = sparse.csr_matrix((data, cols, pattern.indptr), shape=(g.size, g.size)).tocsc()
    np.testing.assert_array_equal(csc.indices, cols)
    np.testing.assert_array_equal(csc.data, data[pattern.transpose])


@pytest.mark.parametrize("n", [8, 9, 15, 16, 17, 32])
def test_solve_order_is_a_permutation(n):
    # the identity for d = 1; for d = 2 a permutation with node 0, the HJB
    # normalization node, last
    np.testing.assert_array_equal(Grid(1, n).stencil_pattern().perm, np.arange(n))
    perm = Grid(2, n).stencil_pattern().perm
    np.testing.assert_array_equal(np.sort(perm), np.arange(n * n))
    assert perm[-1] == 0


@pytest.mark.parametrize("n", [16, 32])
def test_solve_order_fills_less_than_colamd(n):
    # SuperLU's L + U in natural column order on the reordered FP matrix
    # holds fewer nonzeros than under its default COLAMD order on the
    # matrix in node order.  This checks fill, not time
    g = Grid(2, n)
    gen = transport_generator(g, np.random.default_rng(n).uniform(-3.0, 3.0, (g.size, 2)))
    mat = (sparse.identity(g.size) - 0.05 * gen).tocsc()
    perm = g.stencil_pattern().perm
    ordered = spla.splu(mat[perm][:, perm].tocsc(), permc_spec="NATURAL")
    colamd = spla.splu(mat)
    assert ordered.L.nnz + ordered.U.nnz < colamd.L.nnz + colamd.U.nnz


@pytest.mark.parametrize("csc", [False, True])
def test_direct_solve_rejects_a_singular_matrix(csc):
    # an exactly singular matrix raises, with no MatrixRankWarning
    # (warnings are errors under pytest)
    data = np.array([1.0, 1.0, 1.0, 1.0])
    indices, indptr = np.array([0, 1, 0, 1], dtype=np.intc), np.array([0, 2, 4], dtype=np.intc)
    with pytest.raises(RuntimeError, match="exactly singular"):
        _direct_solve(data, indices, indptr, np.arange(2), np.ones(2), csc=csc)
    # the same call on a regular matrix solves it
    x = _direct_solve(np.array([2.0, 1.0, 1.0, 3.0]), indices, indptr, np.arange(2), np.array([3.0, 4.0]), csc=csc)
    np.testing.assert_allclose(x, [1.0, 1.0], rtol=1e-15)
    # in the order perm = (1, 0), the same arrays hold the matrix with rows
    # and columns swapped; the solution comes back in node order
    swapped = np.array([3.0, 1.0, 1.0, 2.0])
    x = _direct_solve(swapped, indices, indptr, np.array([1, 0]), np.array([4.0, 7.0]), csc=csc)
    np.testing.assert_allclose(x, [1.0, 2.0], rtol=1e-15)


def test_extension_returns_a_loaded_module():
    # a module already in sys.modules is never loaded a second time
    core = _extension("scipy.optimize._highspy._core")
    assert core is sys.modules["scipy.optimize._highspy._core"]
    assert _extension("scipy.sparse.linalg._dsolve._superlu") is sys.modules["scipy.sparse.linalg._dsolve._superlu"]


def test_extension_falls_back_to_import(tmp_path, monkeypatch):
    # with no file to load, the module comes from importlib.import_module
    name = "scipy._lib._bunch"
    monkeypatch.delitem(sys.modules, name, raising=False)
    monkeypatch.setattr("qsmfg.grid._SCIPY_DIR", str(tmp_path))
    imported = []
    real = importlib.import_module
    monkeypatch.setattr(importlib, "import_module", lambda n: imported.append(n) or real(n))
    module = _extension(name)
    assert imported == [name]
    assert module is sys.modules[name]
    assert module.__file__.endswith(".py")


def _roll_reference(v, ax, h, kind, b=None):
    """The operators as np.roll stencils on the (n,)*d array v."""
    up, down = np.roll(v, -1, axis=ax), np.roll(v, 1, axis=ax)
    if kind == "laplacian":
        return (up + down - 2.0 * v) / h**2
    if kind == "central":
        return (up - down) / (2.0 * h)
    fwd, bwd = (up - v) / h, (v - down) / h
    return np.where(b > 0, fwd, np.where(b < 0, bwd, 0.5 * (fwd + bwd)))


@pytest.mark.parametrize("d,n", [(1, 32), (2, 16)])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_operators_equal_roll_reference(d, n, seed):
    g = Grid(d, n)
    rng = np.random.default_rng(seed)
    f = rng.uniform(-2.0, 2.0, g.size)
    # a drift with exact zeros, which take the central fallback
    drift = np.stack(
        [np.where(rng.random(g.shape) < 0.3, 0.0, rng.uniform(-1.0, 1.0, g.shape)).ravel() for _ in range(d)],
        axis=-1,
    )
    v = f.reshape(g.shape)
    lap = np.zeros_like(v)
    for ax in range(d):
        lap += _roll_reference(v, ax, g.h, "laplacian")
    np.testing.assert_array_equal(laplacian(g, f), lap.ravel())
    ctr, upw = gradient_central(g, f), gradient_upwind(g, f, drift)
    assert ctr.shape == upw.shape == (g.size, d)
    for ax in range(d):
        b = drift[:, ax].reshape(g.shape)
        np.testing.assert_array_equal(ctr[:, ax], _roll_reference(v, ax, g.h, "central").ravel())
        np.testing.assert_array_equal(upw[:, ax], _roll_reference(v, ax, g.h, "upwind", b).ravel())
        assert (b == 0.0).any()


@pytest.mark.parametrize("d,n", [(1, 16), (2, 8)])
def test_gradient_upwind_rejects_drift_of_wrong_shape(d, n):
    g = Grid(d, n)
    f = _random_field(g, 5)
    for shape in ((d, g.size), (g.size, 3 - d), (g.size,)):
        with pytest.raises(ValueError, match="drift needs shape"):
            gradient_upwind(g, f, np.ones(shape))
    # the scalar field takes one value per node, as a flat array, in every operator
    drift = np.ones((g.size, d))
    operators = (lambda v: laplacian(g, v), lambda v: gradient_central(g, v), lambda v: gradient_upwind(g, v, drift))
    for shape in ((g.size + 1,), (g.size - 1,), (g.size, d), (1,) + g.shape):
        for operator in operators:
            with pytest.raises(ValueError, match="field needs shape"):
                operator(np.ones(shape))


def test_laplacian_of_constant_is_zero():
    g = Grid(1, 16)
    out = laplacian(g, np.full(g.size, 3.7))
    assert np.abs(out).max() == 0.0


def test_laplacian_discrete_delta_hand_stencil():
    # 3-point stencil with wrap on n=4 gives (-2, 1, 0, 1)/h^2
    # (requires n >= 8 in the library, so compute on n=8 and compare the
    #  same hand expansion: values (-2, 1, 0, ..., 0, 1)/h^2)
    g = Grid(1, 8)
    delta = np.zeros(8)
    delta[0] = 1.0
    out = laplacian(g, delta)
    h2 = g.h**2
    expected = np.zeros(8)
    expected[0] = -2.0 / h2
    expected[1] = 1.0 / h2
    expected[-1] = 1.0 / h2
    np.testing.assert_array_equal(out, expected)


def test_laplacian_sine_second_order():
    errs = {}
    for n in (64, 128):
        g = Grid(1, n)
        x = g.axis_coordinates()
        out = laplacian(g, np.sin(2 * np.pi * x))
        err = np.abs(out + 4 * np.pi**2 * np.sin(2 * np.pi * x)).max()
        # exact discrete symbol bound: |4 pi^2 - (2 - 2 cos(2 pi h))/h^2|,
        # dominated by the leading Taylor term (4 pi^4 / 3) h^2
        assert err <= (4 * np.pi**4 / 3) * g.h**2
        errs[n] = err
    assert errs[64] / errs[128] == pytest.approx(4.0, rel=0.05)


def test_gradient_central_of_constant_is_zero():
    g = Grid(1, 16)
    out = gradient_central(g, np.full(g.size, -1.3))
    assert np.abs(out).max() == 0.0


def test_gradient_central_sine():
    g = Grid(1, 64)
    x = g.axis_coordinates()
    out = gradient_central(g, np.sin(2 * np.pi * x))[:, 0]
    err = np.abs(out - 2 * np.pi * np.cos(2 * np.pi * x)).max()
    assert err <= ((2 * np.pi) ** 3 / 6) * g.h**2 * 1.001


def test_gradient_upwind_linear_ramp_forward():
    g = Grid(1, 16)
    f = g.axis_coordinates()
    drift = np.ones((g.size, 1))
    out = gradient_upwind(g, f, drift)[:, 0]
    # interior nodes see slope exactly 1; the wrap node sees the periodic jump
    assert np.abs(out[:-1] - 1.0).max() == 0.0
    assert out[-1] != pytest.approx(1.0)


def test_gradient_upwind_constant_field_any_drift():
    g = Grid(1, 16)
    f = np.full(g.size, 2.5)
    drift = _random_field(g, 3)[:, None]
    out = gradient_upwind(g, f, drift)
    assert np.abs(out).max() == 0.0


def test_gradient_upwind_zero_drift_is_central():
    g = Grid(1, 16)
    f = _random_field(g, 7)
    upw = gradient_upwind(g, f, np.zeros((g.size, 1)))
    ctr = gradient_central(g, f)
    np.testing.assert_array_equal(upw, ctr)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000), a=st.floats(-3, 3), b=st.floats(-3, 3))
def test_linearity_of_operators(seed, a, b):
    g = Grid(1, 16)
    f1 = _random_field(g, seed)
    f2 = _random_field(g, seed + 1)
    combo = a * f1 + b * f2
    lhs = laplacian(g, combo)
    rhs = a * laplacian(g, f1) + b * laplacian(g, f2)
    np.testing.assert_allclose(lhs, rhs, atol=1e-9)
    lhs_g = gradient_central(g, combo)
    rhs_g = a * gradient_central(g, f1) + b * gradient_central(g, f2)
    np.testing.assert_allclose(lhs_g, rhs_g, atol=1e-9)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10_000), shift=st.integers(1, 15))
def test_translation_equivariance(seed, shift):
    g = Grid(1, 16)
    f = _random_field(g, seed)
    shifted = np.roll(f, shift)
    np.testing.assert_array_equal(
        laplacian(g, shifted), np.roll(laplacian(g, f), shift)
    )
    np.testing.assert_array_equal(
        gradient_central(g, shifted)[:, 0], np.roll(gradient_central(g, f)[:, 0], shift)
    )


def test_laplacian_node_sum_vanishes():
    # discrete divergence theorem on the torus; rounding only
    for d, n in ((1, 64), (2, 16)):
        g = Grid(d, n)
        f = _random_field(g, 11 + d)
        assert abs(laplacian(g, f).sum()) < 1e-8


def test_laplacian_2d_separable_modes():
    g = Grid(2, 16)
    x = g.coordinates()
    vals = np.sin(2 * np.pi * x[:, 0]) * np.sin(2 * np.pi * x[:, 1])
    out = laplacian(g, vals)
    factor = -(2.0 - 2.0 * np.cos(2 * np.pi * g.h)) / g.h**2 * 2.0
    np.testing.assert_allclose(out, factor * vals, atol=1e-10)


@pytest.mark.parametrize("d,n", [(1, 8), (2, 9)])
def test_neighbors_step_one_node_along_each_axis(d, n):
    g = Grid(d, n)
    x = g.coordinates()
    nbr = g.neighbors()
    assert nbr.shape == (g.size, 2 * d)
    for ax in range(d):
        for col, sign in ((2 * ax, 1), (2 * ax + 1, -1)):
            step = np.mod(x[nbr[:, col]] - x + 0.5, 1.0) - 0.5  # signed offset on the torus
            expected = np.zeros(d)
            expected[ax] = sign * g.h
            np.testing.assert_allclose(step, np.broadcast_to(expected, step.shape), atol=1e-15)
            np.testing.assert_allclose(torus_distance(x[nbr[:, col]], x), g.h, atol=1e-15)


@pytest.mark.parametrize("d,n", [(1, 8), (2, 9)])
def test_torus_distance_matrix_equals_torus_distance(d, n):
    # between all node pairs: bit-equal to torus_distance, a metric's
    # symmetric matrix with a zero diagonal
    x = Grid(d, n).coordinates()
    dist = torus_distance_matrix(x, x)
    assert dist.shape == (x.shape[0], x.shape[0])
    np.testing.assert_array_equal(dist, torus_distance(x[:, None, :], x))
    np.testing.assert_array_equal(dist, dist.T)
    assert not dist.diagonal().any()
    # and between two unrelated point sets of different sizes
    rng = np.random.default_rng(d)
    y, z = rng.random((7, d)), rng.random((5, d))
    np.testing.assert_array_equal(torus_distance_matrix(y, z), torus_distance(y[:, None, :], z))


def test_torus_distance_basics():
    assert torus_distance(np.array([0.9]), np.array([0.1])) == pytest.approx(0.2)
    assert torus_distance(np.array([0.25]), np.array([0.75])) == pytest.approx(0.5)
    two = torus_distance(np.array([0.9, 0.1]), np.array([0.1, 0.2]))
    assert two == pytest.approx(0.3)


@settings(max_examples=30, deadline=None)
@given(
    x=st.floats(0, 0.999), y=st.floats(0, 0.999), z=st.floats(0, 0.999)
)
def test_torus_distance_metric_axioms(x, y, z):
    xa, ya, za = (np.array([v]) for v in (x, y, z))
    assert torus_distance(xa, ya) == pytest.approx(torus_distance(ya, xa))
    assert torus_distance(xa, xa) == 0.0
    assert torus_distance(xa, za) <= torus_distance(xa, ya) + torus_distance(ya, za) + 1e-12
