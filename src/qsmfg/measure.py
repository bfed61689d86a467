"""Probability densities on T^d, joint state-control measures, and W1 distances.

Densities and policies are node arrays in the grid's node order (grid.py).
A DensityField holds an (n^d,) array that is nonnegative and integrates to
one; a policy is a plain (n^d, k) array, row i the control at node i.  The
joint measures produced by the solvers are always graph measures: one
control per grid node, obtained by pushing the state density forward
through a policy.  Distances between them use the sum ground metric

    dist((x,a), (x',a')) = dist_torus(x,x') + |a - a'|,

so functions that are 1-Lipschitz in each argument are 1-Lipschitz jointly.
Every W1 value is exact; which engine computes it depends on the call:

- identity coupling, for joint measures over the same state marginal (both
  pushed from one density on one grid, as in every increment of the
  joint-measure fixed point and every residual probe) when either policy is
  1-Lipschitz from the torus L1 metric.  The value is sum_i w_i |a_i - a'_i|,
  and f(x,a) = |a - a'(x)| is a dual certificate of its optimality;
- the separable bound, for the other pairs of graph measures on one d=1
  grid with scalar controls.  Projecting a coupling gives W1_joint >=
  W1_state + W1 of the control marginals on the line, both in closed form,
  and their two Kantorovich potentials give a dual feasible point that
  attains it.  The optimal circle plan of the states, lifted to the joint
  measures, costs at least W1_joint.  Where the two bounds meet within tau
  times the mass, tau the atom LP's dual tolerance, the plan's cost is the
  value and no LP is built (psi's first step on slice 0, against its
  zero-policy start, is such a pair); otherwise the atom LP below starts from the arcs the
  dual point prices at most tau plus the plan's arcs;
- the atom linear program on the bipartite atom graph (HiGHS), for every
  other pair of joint measures, e.g. measures at two different times.  It is
  solved over a growing set of arcs: each round prices every atom pair with
  the round's duals and adds the most negative arcs outside the set, until
  none has reduced cost below the LP's dual tolerance tau.  The duals are
  then tau-feasible for the full LP, a certificate that the value is within
  tau times the mass of the optimum.  Each transport problem is one HiGHS
  model, and each later round appends the new arcs as columns and re-runs
  from the basis the last round left (a hot start).  The first round of a
  1D pair with scalar controls runs dual simplex from the slack basis on
  the separable bound's arcs; other small problems (1D pairs with k >= 2,
  2D n=8 pairs) start from every arc and solve one LP the same way; larger
  ones run primal simplex in every round, the first from the basis of the
  north-west-corner plan, a primal feasible spanning tree of arcs;
- the Kantorovich potential LP on the periodic grid graph, for d=2 state
  densities: the torus L1 distance between nodes is h times their path
  distance in that graph, so W1 is the largest (p - q) . phi over
  potentials phi that change by at most h along each edge, the LP dual of
  Beckmann's cheapest flow of p - q.  wasserstein1_state takes a batch of
  density pairs on one grid, and their LPs share one HiGHS model: its
  constraints depend on the grid alone, so only the objective changes from
  pair to pair.  A new objective keeps the last optimal basis primal
  feasible, and the solve re-runs from it (a hot start; for neighbouring
  slices a few pivots).  For d=1 state
  densities the circle CDF reduction is used, pair by pair.

The tests check every engine against an atom LP over every arc.

joint_w1_upper_bound gives a certified upper bound on the joint W1 between two
graph measures on one grid, from W1 between their state marginals: the
smaller over the two orders of (1 + L1) W1(m1, m2) + sum_i w2_i |a1_i - a2_i|,
where L1 is policy a1's largest nearest-neighbour jump over h.  Callers that
need only the maximum of many joint W1 values use it to skip the atom LPs
that cannot reach that maximum.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .grid import Grid, _extension, node_values, torus_distance_matrix

__all__ = [
    "DensityField",
    "JointMeasure",
    "pushforward",
    "wasserstein1_joint",
    "wasserstein1_state",
    "joint_w1_upper_bound",
    "uniform_density",
    "von_mises_density",
    "two_bump_density",
]

MASS_TOL = 1e-12
NEGATIVE_TOL = 1e-13
# The atom LP prices atoms^2 pairs from a dense cost matrix, so measures with
# more atoms than this (finer than a 2D n=64 grid) are rejected rather than
# handed to HiGHS
ATOM_CAP = 4096

_core = _extension("scipy.optimize._highspy._core")
HighsModelStatus, _Highs = _core.HighsModelStatus, _core._Highs


@dataclass(frozen=True)
class DensityField:
    """Nonnegative node array integrating to one (probability per volume):
    values is a read-only (n^d,) array in the grid's node order."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self) -> None:
        v = node_values(self.grid, self.values, "density").copy()
        if not np.all(np.isfinite(v)):
            raise ValueError("density contains non-finite values")
        if v.min() < -NEGATIVE_TOL:
            raise ValueError(f"density has negative value {v.min():.3e}")
        v[v < 0] = 0.0
        mass = v.sum() * self.grid.cell_volume
        if abs(mass - 1.0) > MASS_TOL:
            raise ValueError(f"density mass {mass!r} deviates from 1 by more than {MASS_TOL}")
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    @classmethod
    def _checked(cls, grid: Grid, values: np.ndarray) -> "DensityField":
        """The density of a (n^d,) float array the caller has already checked
        finite, nonnegative and of unit mass, as a solver's step does.  The
        array is not copied: it is set read-only and becomes values, so the
        caller must keep no writable alias of it."""
        values.setflags(write=False)
        density = object.__new__(cls)
        object.__setattr__(density, "grid", grid)
        object.__setattr__(density, "values", values)
        return density

    @classmethod
    def from_values(cls, grid: Grid, values: np.ndarray) -> "DensityField":
        """The density proportional to the positive part of the (n^d,) array values."""
        v = np.maximum(node_values(grid, values, "density"), 0.0)
        total = v.sum() * grid.cell_volume
        if total <= 0:
            raise ValueError("cannot normalize a density with nonpositive mass")
        return cls(grid, v / total)

    def mass(self) -> float:
        return float(self.values.sum() * self.grid.cell_volume)


def uniform_density(grid: Grid) -> DensityField:
    return DensityField(grid, np.ones(grid.size))


def von_mises_density(grid: Grid, center: float | tuple = 0.5, concentration: float = 4.0) -> DensityField:
    """Smooth periodic bump, the product of 1d von Mises profiles."""
    centers = np.broadcast_to(np.atleast_1d(np.asarray(center, dtype=float)), (grid.d,))
    x = grid.axis_coordinates()
    profiles = [np.exp(concentration * np.cos(2.0 * np.pi * (x - c))) for c in centers]
    v = profiles[0]
    for p in profiles[1:]:
        v = np.outer(v, p).ravel()
    return DensityField.from_values(grid, v)


def two_bump_density(
    grid: Grid,
    centers: tuple = (0.25, 0.75),
    concentration: float = 6.0,
) -> DensityField:
    """Equal-weight mixture of two smooth bumps; stays in H^1 for any concentration."""
    c0, c1 = centers
    b0 = von_mises_density(grid, c0, concentration).values
    b1 = von_mises_density(grid, c1, concentration).values
    return DensityField.from_values(grid, 0.5 * b0 + 0.5 * b1)


@dataclass(frozen=True)
class JointMeasure:
    """Weighted atoms (x_i, a_i, w_i) on T^d x A.

    Solver-produced measures are probability measures with one atom per grid
    node; memory-kernel aggregates may carry any nonnegative total mass.  A
    measure with a grid is a graph measure on it: atom i sits at node i, x
    being grid.coordinates(), and a measure whose x is not is a ValueError.
    """

    x: np.ndarray  # (N, d)
    a: np.ndarray  # (N, k)
    w: np.ndarray  # (N,)
    grid: Grid | None = field(default=None, compare=False)

    def __post_init__(self) -> None:
        x = np.atleast_2d(np.asarray(self.x, dtype=float))
        a = np.atleast_2d(np.asarray(self.a, dtype=float))
        w = np.atleast_1d(np.asarray(self.w, dtype=float))
        if x.shape[0] != a.shape[0] or x.shape[0] != w.shape[0]:
            raise ValueError("atom arrays disagree on atom count")
        if self.grid is not None and not np.array_equal(x, self.grid.coordinates()):
            raise ValueError("a joint measure on a grid must hold atom i at node i")
        if w.size and w.min() < -NEGATIVE_TOL:
            raise ValueError(f"negative atom weight {w.min():.3e}")
        w = np.maximum(w, 0.0)
        for arr in (x, a, w):
            if not np.all(np.isfinite(arr)):
                raise ValueError("joint measure contains non-finite entries")
            arr.setflags(write=False)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "w", w)

    @classmethod
    def _checked(cls, x: np.ndarray, a: np.ndarray, w: np.ndarray, grid: Grid) -> "JointMeasure":
        """The measure of (N, d), (N, k) and (N,) float arrays the caller has
        already checked finite, with w nonnegative and no -0.0 in it, as
        pushforward does.  The arrays are not copied: they are set read-only
        and become x, a and w, so the caller must keep no writable alias."""
        for arr in (x, a, w):
            arr.setflags(write=False)
        nu = object.__new__(cls)
        for name, value in (("x", x), ("a", a), ("w", w), ("grid", grid)):
            object.__setattr__(nu, name, value)
        return nu

    @property
    def n_atoms(self) -> int:
        return self.w.shape[0]

    def mass(self) -> float:
        return float(self.w.sum())

    def mean_control(self) -> np.ndarray:
        """Unnormalized control moment: integral of a against the measure, a
        (k,) array; zeros for an empty measure."""
        return self.a.T @ self.w

    def scaled(self, factor: float) -> "JointMeasure":
        return JointMeasure(self.x, self.a, self.w * factor, grid=self.grid)

    @classmethod
    def empty(cls, d: int = 1, k: int = 1) -> "JointMeasure":
        return cls(np.zeros((0, d)), np.zeros((0, k)), np.zeros(0))


def pushforward(m: DensityField, policy: np.ndarray) -> JointMeasure:
    """Image of the density under x -> (x, a(x)); weights are m(x_i) h^d.

    policy is an (n^d, k) array on m's grid, row i the control a(x_i); any
    other shape is a ValueError.  A float policy array is not copied: it
    becomes the measure's controls and is set read-only.  The first
    marginal of the result is m exactly: atom i sits at node i with weight
    m_i h^d, no aggregation or re-binning happens.
    """
    grid = m.grid
    a = node_values(grid, policy, "policy", np.shape(policy)[-1] if np.ndim(policy) == 2 else 1)
    if not np.all(np.isfinite(a)):
        raise ValueError("joint measure contains non-finite entries")
    # the coordinates are the grid's read-only (n^d, d) floats, and a checked
    # density's values are finite and nonnegative, so the weights are too;
    # adding 0.0 turns a -0.0 into 0.0, as the public constructor's clip does
    return JointMeasure._checked(grid.coordinates(), a, m.values * grid.cell_volume + 0.0, grid)


def _dedupe(nu: JointMeasure) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    keep = nu.w > 0.0
    return nu.x[keep], nu.a[keep], nu.w[keep]


def joint_cost_matrix(x1, a1, x2, a2) -> np.ndarray:
    """Ground costs dist_torus(x,x') + |a-a'| for all atom pairs, an (n1, n2)
    array summed axis by axis, so no (n1, n2, d) or (n1, n2, k) temporary is
    formed.  The per-axis terms are added in torus_distance's and
    np.linalg.norm's order, so the costs are bit-equal to theirs."""
    state = torus_distance_matrix(x1, x2)
    squares = np.zeros_like(state)
    for ax in range(a1.shape[1]):
        gap = np.subtract.outer(a1[:, ax], a2[:, ax])
        squares += gap * gap
    return state + np.sqrt(squares)


# Options of every transport LP: no log, dual simplex (the priced atom LP
# runs primal simplex from its north-west-corner basis instead), no
# presolve, which only costs time on these problems, and tight feasibility
# tolerances: at HiGHS's defaults (1e-7) atom-LP values of order 1e-6 come
# out up to about 1% low, while joint W1 values are compared with
# tolerances down to 1e-9
LP_OPTIONS = {
    "output_flag": False, "log_to_console": False, "simplex_strategy": 1,
    "presolve": "off", "primal_feasibility_tolerance": 1e-10, "dual_feasibility_tolerance": 1e-10,
}


def _add_columns(
    highs: _Highs, cost: np.ndarray, rows: np.ndarray, values: np.ndarray | float, col_lower: float = 0.0
) -> None:
    """Append one column col_lower <= z_k of cost cost[k] per row of rows to
    the model.

    Column k holds values[k, e] in constraint row rows[k, e] for each e
    (values broadcasts against rows); entries in a row past the model's last,
    the dropped redundant marginal row, are left out.
    """
    values = np.broadcast_to(values, rows.shape)
    keep = rows < highs.getNumRow()
    starts = np.concatenate([[0], np.cumsum(keep.sum(axis=1))[:-1]])
    n = len(cost)
    highs.addCols(
        n, cost, np.full(n, col_lower), np.full(n, np.inf),
        int(keep.sum()), starts.astype(np.int32), rows[keep].astype(np.int32), values[keep],
    )


def _lp_model(
    row_lower: np.ndarray, cost: np.ndarray, rows: np.ndarray, values,
    row_upper: np.ndarray | None = None, col_lower: float = 0.0, **options,
) -> _Highs:
    """HiGHS model of min cost.z subject to row_lower <= A z <= row_upper
    and z >= col_lower; row_upper None is row_upper = row_lower, the
    equality rows A z = b_eq.

    A has one row per entry of row_lower and one column per row of rows,
    built by _add_columns; options override LP_OPTIONS.
    """
    highs = _Highs()
    for key, value in {**LP_OPTIONS, **options}.items():
        highs.setOptionValue(key, value)
    empty = np.zeros(0, dtype=np.int32)
    upper = row_lower if row_upper is None else row_upper
    highs.addRows(row_lower.size, row_lower, upper, 0, empty, empty, np.zeros(0))
    _add_columns(highs, cost, rows, values, col_lower)
    return highs


def _solve(highs: _Highs) -> tuple[float, np.ndarray]:
    """Run the model; its optimal value and constraint-row duals.  Raises
    unless HiGHS reports the model optimal."""
    highs.run()
    status = highs.getModelStatus()
    if status != HighsModelStatus.kOptimal:
        raise RuntimeError(f"transport LP failed: {highs.modelStatusToString(status)}")
    return highs.getObjectiveValue(), np.array(highs.getSolution().row_dual)


# Transport problems with at most this many atom pairs and no given first arc
# set are solved over every arc in one LP: 1D pairs with k >= 2 controls and
# the 64x64-atom pairs of 2D n=8 grids, where one LP is quicker than pricing
ALL_ARCS_PAIRS = 4096
# Cheapest arcs per row and per column in the first arc set of larger problems
SEED_ARCS = 4


def _north_west_corner(w1: np.ndarray, w2: np.ndarray) -> np.ndarray:
    """Flat arc indices (i * n2 + j) of the north-west-corner transport plan.

    The plan walks from arc (0, 0) to (n1-1, n2-1), moving down a row when
    row i's cumulative mass is used up first and right a column otherwise;
    its n1 + n2 - 1 arcs span the bipartite atom graph, so the restricted LP
    over them is feasible.
    """
    n1, n2 = len(w1), len(w2)
    ends = np.concatenate([np.cumsum(w1)[:-1], np.cumsum(w2)[:-1]])
    down = np.argsort(ends, kind="stable") < n1 - 1
    i = np.concatenate([[0], np.cumsum(down)])
    j = np.concatenate([[0], np.cumsum(~down)])
    return i * n2 + j


def _seed_arcs(cost: np.ndarray, corner: np.ndarray) -> np.ndarray:
    """Sorted flat indices of the first arc set of the priced atom LP: the
    north-west-corner arcs corner plus the SEED_ARCS cheapest arcs of every
    row and every column."""
    n1, n2 = cost.shape
    k1, k2 = min(SEED_ARCS, n2), min(SEED_ARCS, n1)
    by_row = np.argpartition(cost, k1 - 1, axis=1)[:, :k1] + n2 * np.arange(n1)[:, None]
    by_col = n2 * np.argpartition(cost, k2 - 1, axis=0)[:k2, :] + np.arange(n2)
    return np.unique(np.concatenate([corner, by_row.ravel(), by_col.ravel()]))


def _set_basis(highs: _Highs, basic: np.ndarray) -> None:
    """Give the model the starting basis of the columns where basic is True,
    every other column and every row nonbasic at its lower bound.  Raises
    if HiGHS refuses it."""
    basis = _core.HighsBasis()
    status = _core.HighsBasisStatus
    basis.col_status = np.where(basic, status.kBasic, status.kLower).tolist()
    basis.row_status = [status.kLower] * highs.getNumRow()
    basis.valid, basis.alien = True, False
    if highs.setBasis(basis) != _core.HighsStatus.kOk:
        raise RuntimeError("transport LP refused its north-west-corner basis")


def _arc_rows(arcs: np.ndarray, n1: int, n2: int) -> np.ndarray:
    """Marginal rows (i, n1 + j) of the flat arcs i * n2 + j."""
    i, j = np.divmod(arcs, n2)
    return np.stack([i, n1 + j], axis=1)


def _transport_lp(cost: np.ndarray, w1: np.ndarray, w2: np.ndarray, arcs: np.ndarray | None = None) -> float:
    """Exact optimal transport cost by an atom LP priced with its own duals.

    Each round solves the LP over a set of arcs (HiGHS), reads the duals
    (u, v) of its marginal rows, the dropped redundant row's dual being 0,
    and prices every atom pair with its reduced cost c_ij - u_i - v_j.
    Outside the set, the most negative arc of each row and of each column is
    added.  The loop stops when no arc outside the set has reduced cost
    below -tau, tau being the LP's dual feasibility tolerance: (u, v) is
    then tau-feasible for the full dual problem, so the restricted optimum
    is within tau times the mass of the full one, the accuracy the LP is
    solved to anyway.  Every round but the last adds an arc, so the loop
    ends.  arcs, when given, are the flat arcs i * n2 + j of the first arc
    set, which must hold a feasible plan; problems with at most
    ALL_ARCS_PAIRS pairs otherwise start from every arc and solve one LP.
    Both run dual simplex from the slack basis.

    The rounds of one problem share one HiGHS model, and each later round
    appends the priced arcs as columns and re-runs from the basis the last
    round left, which the zero new columns keep primal feasible.  A larger
    problem without given arcs runs primal simplex in every round, the first
    from the north-west-corner plan: its n1 + n2 - 1 arcs, all in the first
    arc set, span the bipartite atom graph, so as the basis (every other
    column and every row nonbasic) they are nonsingular and primal feasible
    (Bertsimas & Tsitsiklis, sec. 7.2).
    For measures close to each other, as the slices of one trajectory are,
    that plan is near optimal: on a 256-atom pair of neighbouring slices the
    first round takes about 200 simplex iterations where dual simplex from
    the slack basis takes over a thousand.  (On unrelated random pairs it
    can take more.)

    The weights are divided by their mean atom weight before the solve and
    the value multiplied back, as the grid potential LP scales its imbalance:
    the optimal plan scales with the weights and the duals do not, so
    HiGHS's absolute primal tolerance then applies to weights of order one
    instead of 1/n^d.  Unscaled, marginals that differed by less than it at
    every atom could read W1 = 0.
    """
    n1, n2 = cost.shape
    tau = LP_OPTIONS["dual_feasibility_tolerance"]
    scale = (w1.sum() + w2.sum()) / (n1 + n2)
    b_eq = np.concatenate([w1, w2])[:-1] / scale
    rows, cols = np.arange(n1), np.arange(n2)
    if arcs is None and n1 * n2 <= ALL_ARCS_PAIRS:
        arcs = np.arange(n1 * n2)
    if arcs is not None:
        highs = _lp_model(b_eq, cost.ravel()[arcs], _arc_rows(arcs, n1, n2), 1.0)
    else:
        corner = _north_west_corner(w1, w2)
        arcs = _seed_arcs(cost, corner)
        highs = _lp_model(b_eq, cost.ravel()[arcs], _arc_rows(arcs, n1, n2), 1.0, simplex_strategy=4)  # primal
        _set_basis(highs, np.isin(arcs, corner))
    reduced = np.empty_like(cost)  # one buffer for every round's reduced costs
    while True:
        value, dual = _solve(highs)
        dual = np.append(dual, 0.0)
        np.subtract(cost, dual[:n1, None], out=reduced)
        reduced -= dual[None, n1:]
        reduced.ravel()[arcs] = np.inf
        best_col = reduced.argmin(axis=1)
        best_row = reduced.argmin(axis=0)
        priced = np.concatenate([
            (rows * n2 + best_col)[reduced[rows, best_col] < -tau],
            (best_row * n2 + cols)[reduced[best_row, cols] < -tau],
        ])
        if priced.size == 0:
            return float(scale * value)
        priced = np.unique(priced)
        arcs = np.concatenate([arcs, priced])
        # the new columns enter at zero, so the kept basis stays primal
        # feasible and the next round re-runs from it
        _add_columns(highs, cost.ravel()[priced], _arc_rows(priced, n1, n2), 1.0)


def _edge_jump(nu: JointMeasure) -> float:
    """Largest control change along a nearest-neighbour edge of the grid."""
    return float(np.linalg.norm(nu.a[:, None, :] - nu.a[nu.grid.neighbors()], axis=-1).max())


def _lipschitz_policy(nu: JointMeasure) -> bool:
    """True when node -> control is 1-Lipschitz from the torus L1 metric.

    The torus L1 distance between nodes is h times their path distance in
    the periodic grid graph, so checking every nearest-neighbour edge
    suffices.
    """
    return _edge_jump(nu) <= nu.grid.h


def _graph_measure(nu: JointMeasure, grid: Grid | None) -> bool:
    """True when nu holds atom i at node i of grid, as every measure on grid does."""
    return grid is not None and nu.grid == grid


def _same_marginal(nu1: JointMeasure, nu2: JointMeasure) -> bool:
    """True when both measures hold atom i at grid node i with equal weights."""
    grid = nu1.grid
    return np.array_equal(nu1.w, nu2.w) and _graph_measure(nu1, grid) and _graph_measure(nu2, grid)


def _equal_mass(nu1: JointMeasure, nu2: JointMeasure) -> bool:
    """True when the total masses agree within 1e-10, as joint W1 needs."""
    return abs(nu1.mass() - nu2.mass()) <= 1e-10


def joint_w1_upper_bound(nu1: JointMeasure, nu2: JointMeasure, state_w1: float) -> float:
    """Certified upper bound on wasserstein1_joint(nu1, nu2) for graph measures.

    state_w1 must be W1 between the two state marginals.  With rho the
    pushforward of nu2's marginal through nu1's policy a1, and L1 the
    Lipschitz constant of a1 in the torus L1 metric (its largest edge jump
    over h), lifting an optimal state coupling gives W1(nu1, rho) <=
    (1 + L1) state_w1, and the identity coupling gives W1(rho, nu2) <=
    sum_i w2_i |a1_i - a2_i|; the bound is the smaller of this sum and the
    one with the roles swapped.  Measures that are not graph measures on one
    grid with equal masses get inf.
    """
    grid = nu1.grid
    if not (_graph_measure(nu1, grid) and _graph_measure(nu2, grid) and _equal_mass(nu1, nu2)):
        return np.inf
    gaps = np.linalg.norm(nu1.a - nu2.a, axis=1)
    return min(
        (1.0 + _edge_jump(nu1) / grid.h) * state_w1 + float(nu2.w @ gaps),
        (1.0 + _edge_jump(nu2) / grid.h) * state_w1 + float(nu1.w @ gaps),
    )


def _circle_potential(w1: np.ndarray, w2: np.ndarray, h: float) -> tuple[float, np.ndarray, int]:
    """W1 between node masses w1 and w2 on the discrete circle of spacing h,
    a Kantorovich potential phi of it, and an edge that carries no flow.

    Edge k joins node k to node k + 1 (mod n), and an optimal flow on it is
    c_k - theta, c the cumulative sum of w1 - w2 and theta the lower median
    element of c, a minimizer of sum_k |c_k - theta| as in _circle_w1.
    phi steps by -h along an edge of positive flow and by h along one of
    negative flow, as complementary slackness asks.  The edges at theta
    carry none, and they share the step that closes the circle: that
    theta minimizes the sum bounds the step by h, so phi is 1-Lipschitz.
    The returned edge is the first of them.
    """
    c = np.cumsum(w1 - w2)
    k = (c.size - 1) // 2
    theta = np.partition(c, k)[k]
    above, below = c > theta, c < theta
    ups, downs = int(above.sum()), int(below.sum())
    steps = np.where(above, -h, np.where(below, h, h * (ups - downs) / (c.size - ups - downs)))
    phi = np.concatenate([[0.0], np.cumsum(steps[:-1])])
    return h * float(np.abs(c - theta).sum()), phi, int(np.flatnonzero(c == theta)[0])


def _line_potential(
    a1: np.ndarray, w1: np.ndarray, a2: np.ndarray, w2: np.ndarray
) -> tuple[float, np.ndarray, np.ndarray]:
    """W1 on the line between the control marginals, sum_i w1_i at a1_i and
    sum_j w2_j at a2_j, and a Kantorovich potential psi of it read at a1 and
    at a2.

    Between consecutive control values the optimal flow to the right is the
    difference F of the two CDFs there; psi steps by -gap where F > 0 and by
    gap where F < 0, so that the integral of psi against the difference of
    the marginals is sum gap |F|, the W1.
    """
    values = np.sort(np.concatenate([a1, a2]))
    at = values[:, None]
    cdf = ((a1 <= at) @ w1 - (a2 <= at) @ w2)[:-1]
    gaps = np.diff(values)
    psi = np.concatenate([[0.0], np.cumsum(np.where(cdf > 0, -gaps, np.where(cdf < 0, gaps, 0.0)))])
    return float(np.abs(cdf) @ gaps), psi[np.searchsorted(values, a1)], psi[np.searchsorted(values, a2)]


def _separable_bounds(nu1: JointMeasure, nu2: JointMeasure, cost: np.ndarray):
    """Bounds on the joint W1 of graph measures on one d=1 grid with scalar
    controls, cost being their joint_cost_matrix: (lower, upper, u, v, arcs).

    Projecting a coupling onto the states and onto the controls gives
    W1_joint >= W1_state + W1_line of the control marginals, the lower
    bound; with phi and psi the two Kantorovich potentials, u_i = phi_i +
    psi(a1_i) and v_j = -(phi_j + psi(a2_j)) satisfy u_i + v_j <= c_ij and
    attain it, a feasible point of the LP dual.  The upper bound is the cost
    of the optimal circle plan of the states, a coupling of the joint
    measures too: unrolled after an edge without flow, the circle is a line,
    and its monotone plan carries its mass.  arcs holds that plan's flat
    arcs i * n + j, a staircase from the first node after the edge to the
    last, on which the LP is feasible.
    """
    w1, w2, n = nu1.w, nu2.w, nu1.n_atoms
    state, phi, cut = _circle_potential(w1, w2, nu1.grid.h)
    line, psi1, psi2 = _line_potential(nu1.a[:, 0], w1, nu2.a[:, 0], w2)
    order = (np.arange(n) + cut + 1) % n
    ends1, ends2 = np.cumsum(w1[order]), np.cumsum(w2[order])
    ends = np.sort(np.concatenate([ends1, ends2]))
    # the piece of mass between consecutive ends belongs to the first atom
    # on each side whose cumulative mass reaches its end
    i = np.minimum(np.searchsorted(ends1, ends), n - 1)
    j = np.minimum(np.searchsorted(ends2, ends), n - 1)
    arcs = order[i] * n + order[j]
    upper = float(np.diff(ends, prepend=0.0) @ cost.ravel()[arcs])
    return state + line, upper, phi + psi1, -(phi + psi2), arcs


def wasserstein1_joint(nu1: JointMeasure, nu2: JointMeasure) -> float:
    """Exact W1 between joint measures under the sum ground metric.

    Requires equal total masses (within 1e-10); measures with more than
    ATOM_CAP atoms are rejected, since the LP is only intended for desk scale.
    Measures over the same state marginal take the identity coupling when
    either policy certifies it.  Other graph measures on one d=1 grid with
    scalar controls take the separable bounds (_separable_bounds): when the
    lifted circle plan's cost is within tau times the mass of the dual
    lower bound, tau the LP's dual tolerance, that cost is returned without
    an LP, the accuracy the LP certifies; otherwise the atom LP starts from
    the arcs the lower bound's duals price at most tau plus the plan's arcs.
    Every other pair takes the atom LP, priced with its duals so that only
    arcs that can carry mass are solved for.
    """
    if not _equal_mass(nu1, nu2):
        raise ValueError(f"mass mismatch: {nu1.mass()!r} vs {nu2.mass()!r}")
    x1, a1, w1 = _dedupe(nu1)
    x2, a2, w2 = _dedupe(nu2)
    if len(w1) == 0 and len(w2) == 0:
        return 0.0
    if max(len(w1), len(w2)) > ATOM_CAP:
        raise ValueError(f"atom count {max(len(w1), len(w2))} exceeds cap {ATOM_CAP}")
    if a1.shape[1] != a2.shape[1] or x1.shape[1] != x2.shape[1]:
        raise ValueError("joint measures live on different product spaces")
    if _same_marginal(nu1, nu2) and (_lipschitz_policy(nu1) or _lipschitz_policy(nu2)):
        # f(x,a) = |a - a'(x)| is 1-Lipschitz for the sum metric and attains
        # the identity coupling's cost, so that coupling is optimal
        return float(nu1.w @ np.linalg.norm(nu1.a - nu2.a, axis=1))
    grid = nu1.grid
    if _graph_measure(nu2, grid) and grid.d == 1 and a1.shape[1] == 1:
        # every node is an atom here, zero weights included: the circle
        # order needs atom i at node i
        cost = joint_cost_matrix(nu1.x, nu1.a, nu2.x, nu2.a)
        lower, upper, u, v, plan = _separable_bounds(nu1, nu2, cost)
        tau = LP_OPTIONS["dual_feasibility_tolerance"]
        if upper - lower <= tau * nu1.mass():
            return upper
        return _transport_lp(cost, nu1.w, nu2.w, np.union1d(np.flatnonzero(cost - u[:, None] - v <= tau), plan))
    cost = joint_cost_matrix(x1, a1, x2, a2)
    return _transport_lp(cost, w1, w2)


def _circle_w1(p: np.ndarray, q: np.ndarray, h: float) -> float:
    """Exact W1 on the discrete circle via cumulative sums.

    The transport cost equals the minimum over rotations theta of the L1 norm
    of the CDF difference; the minimizer is the median of the cumulative
    mass-difference sequence, taken from a partition: the middle element for
    an odd length, the mean of the middle pair for an even one, as np.median
    computes it, bit for bit, without its NaN check.
    """
    c = np.cumsum(p - q)
    k = c.size // 2
    if c.size % 2:
        theta = np.partition(c, k)[k]
    else:
        part = np.partition(c, [k - 1, k])
        theta = (part[k - 1] + part[k]) / 2
    return float(h * np.abs(c - theta).sum())


def _grid_flow_w1(imbalances: Sequence[np.ndarray], grid: Grid) -> list[float]:
    """Exact W1 of each node-mass imbalance f = p - q, as the Kantorovich
    potential LP on the periodic grid graph.

    The torus L1 distance between nodes is h times their path distance in
    the graph, so W1 is the largest f . phi over potentials phi with
    |phi_i - phi_j| <= h on every edge: the LP dual of Beckmann's min-cost
    flow, of equal value (Santambrogio, Optimal Transport for Applied
    Mathematicians, 2015, ch. 4).  It has one free column per node but the
    last, whose potential is 0, and one ranged row per edge.  Each imbalance
    is scaled to unit L1 mass before its solve and the value scaled back, as
    W1 is positively homogeneous, so the absolute tolerances apply to an
    objective of order one.  A zero imbalance reads 0 without a solve.

    The LPs of one call share one HiGHS model, as only the objective depends
    on the imbalance.  The first runs dual simplex from the slack basis;
    each later one changes the column costs and re-runs from the basis the
    last solve left, which a new objective keeps primal feasible; on nearby
    densities it is often optimal after a few pivots.
    """
    n, d, h = grid.size, grid.d, grid.h
    # row ax * n + i is the edge from node i to its +1 neighbour along axis
    # ax; node j is the tail of its own d edges and the head of the edges
    # of its -1 neighbours
    edges = n * np.arange(d)
    rows = np.concatenate([np.arange(n)[:, None] + edges, grid.neighbors()[:, 1::2] + edges], axis=1)
    signs = np.repeat([1.0, -1.0], d)
    nodes = np.arange(n - 1, dtype=np.int32)
    values, highs = [], None
    for imbalance in imbalances:
        scale = float(np.abs(imbalance).sum())
        if scale == 0.0:
            values.append(0.0)
            continue
        cost = -imbalance[:-1] / scale  # maximize f . phi; the last potential is 0
        if highs is None:
            bound = np.full(d * n, h)
            highs = _lp_model(-bound, cost, rows[:-1], signs, row_upper=bound, col_lower=-np.inf)
        else:
            highs.changeColsCost(n - 1, nodes, cost)
        values.append(-scale * _solve(highs)[0])
    return values


def wasserstein1_state(
    m1: DensityField | Sequence[DensityField], m2: DensityField | Sequence[DensityField]
) -> float | list[float]:
    """W1 between state densities: circle CDF for d=1, grid potential LP for d=2.

    m1 and m2 are two densities, for a float, or two equal-length sequences
    of densities on one grid, for the list of W1(m1[i], m2[i]) in order (an
    empty list for empty sequences).  A single pair is a batch of one.  For
    d=2 a batch's LPs share one HiGHS model, each hot-started from the
    basis of the one before, which a new objective keeps primal feasible
    (_grid_flow_w1), so a batch of neighbouring slices costs little more
    than one LP; batches with any density with more than ATOM_CAP nonzero
    nodes are rejected, as in wasserstein1_joint, before any model is built.
    """
    single = isinstance(m1, DensityField) and isinstance(m2, DensityField)
    firsts, seconds = ([m1], [m2]) if single else (list(m1), list(m2))
    if len(firsts) != len(seconds):
        raise ValueError(f"density sequences differ in length: {len(firsts)} vs {len(seconds)}")
    if not firsts:
        return []
    grid = firsts[0].grid
    if any(m.grid != grid for m in firsts + seconds):
        raise ValueError("densities live on different grids")
    vol = grid.cell_volume
    pairs = [(a.values * vol, b.values * vol) for a, b in zip(firsts, seconds)]
    if grid.d == 1:
        values = [_circle_w1(p, q, grid.h) for p, q in pairs]
    else:
        atoms = max(max(np.count_nonzero(p), np.count_nonzero(q)) for p, q in pairs)
        if atoms > ATOM_CAP:
            raise ValueError(f"atom count {atoms} exceeds cap {ATOM_CAP}")
        values = _grid_flow_w1([p - q for p, q in pairs], grid)
    return values[0] if single else values

