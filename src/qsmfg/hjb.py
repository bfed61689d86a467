"""Stationary HJB solves: discounted per-slice problems and the ergodic cell problem.

Policy iteration alternates two steps on the monotone discretization:

  evaluation   solve the linear periodic system
               rho*u - lap_h(u) - b(x,a) . grad_h^upwind(u) = l(x,a)
               for the frozen policy a;
  improvement  a(x) <- argmax_a { -grad_h^central(u)(x) . b(x,a) - l(x,a) }.

Upwinding by drift sign makes every evaluation matrix an M-matrix, so the
linear solves cannot fail for rho > 0 and the discrete comparison principle
holds.  Evaluation is performed in the normalized variables (w, s) with
w(x0) = 0 and s playing the role of rho*u(x0) (discounted) or the ergodic
constant (rho = 0); this keeps the systems well conditioned uniformly down to
vanishing discount, where the plain formulation degenerates along the
constant mode.  The normalized system is algebraically equivalent to the
plain one for every rho > 0.  At rho = 0 it is the ergodic cell problem with
the constant as an unknown (Achdou & Capuzzo-Dolcetta, SIAM J. Numer. Anal.
48(3), 2010), the one form solve_ergodic solves; the vanishing-discount limit
belongs to the coupled driver, coupling.solve_vanishing_discount.  Since
w(x0) = 0 is known, s takes the column of x0, as a column of ones, and the
system stays n^d-square with w(x0) = 0 exact by construction.  Its pattern
is the grid's stencil pattern, in the grid's solve order, with that column
filled in (Grid.normalized_pattern), built once per grid and read by every
solve on it; each evaluation, in every dimension, fills only the data array
in those CSR slots and makes one SuperLU solve (grid._direct_solve).

The pair (w, s) is the one form in which a value function leaves this
module: the residual is measured and the policy improved on it, and
value_function reads it as (u, lam), u = w + s/rho for rho > 0 and
(u, lam) = (w, s) for rho = 0.  Forming u = w + s/rho rounds w to the size
of s/rho, which grows as the discount vanishes, so residuals and policies are
computed on the pair, never on u.

The measure is frozen within a time slice, so a solve never sees it: the
caller binds the model's coefficients to the grid nodes and the slice's
measure once, coefficients = spec.coefficients(grid.coordinates(), nu), and
the solve reads only that binding's drift, cost and maximizer.  The same
binding then serves the slice's Fokker-Planck drift and residual checks, so
the measure terms are computed once per slice, and the drift and running
cost of each policy once per solve.  The improvement step is
equation_residual: at the current pair it returns the residual, the improved
policy, and that policy's drift and cost, which the next evaluation
assembles its matrix and right-hand side from.

Howard's loop stops when the residual meets the tolerance or when the
improved policy repeats the last one bit for bit.  A repeated policy is an
exact fixed point of the iteration (Bokanowski, Maroso & Zidani, SIAM J.
Numer. Anal. 47(4), 2009): every further evaluation would reproduce the same
values and residual, so the solve reports that residual and whether it meets
the tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sparse

from .grid import Grid, _direct_solve, gradient_central, gradient_upwind, laplacian, node_values
from .model import ModelSpec, policy_field

__all__ = [
    "HjbSolution",
    "solve_discounted",
    "solve_ergodic",
    "equation_residual",
    "value_function",
]

NORMALIZATION_NODE = 0  # flat index of the node at coordinate 0, whose column Grid.normalized_pattern frees


@dataclass(frozen=True)
class HjbSolution:
    """Normalized pair, policy, and solve diagnostics for one stationary problem.

    w is a read-only (n^d,) array that vanishes at NORMALIZATION_NODE; s is
    rho*u(x0) for a discounted problem and the ergodic constant for the cell
    problem.  value_function reads the pair as (u, lam).  policy is the
    read-only (n^d, k) policy improved at the pair.
    """

    w: np.ndarray
    s: float
    policy: np.ndarray
    residual: float
    iterations: int = 0
    converged: bool = True
    residual_history: tuple[float, ...] = ()


def value_function(w: np.ndarray, s: float, rho: float) -> tuple[np.ndarray, float | None]:
    """The value function and ergodic constant a normalized pair stands for:
    (w + s/rho, None) at a discount rho > 0, (w, s) for the ergodic problem."""
    if rho > 0:
        return w + s / rho, None
    return w, s


def _evaluation_values(grid: Grid, bvals: np.ndarray, rho: float) -> np.ndarray:
    """Values of rho*I - lap_h - b.grad_h^up, row-major, then the 1 of the s
    column.

    Row i of the first n^d (1 + 2d) values holds the diagonal and then the
    grid.neighbors() entries.  -lap_h gives the off-diagonals -1/h^2;
    -b.grad_h^up takes the forward difference where b > 0 and the backward
    one where b < 0.
    """
    n, h, width = grid.size, grid.h, 2 * grid.d + 1
    bp, bm = np.maximum(bvals, 0.0), np.minimum(bvals, 0.0)
    values = np.empty(n * width + 1)
    rows = values[:-1].reshape(n, width)
    rows[:, 0] = rho + 2.0 * grid.d / h**2
    for ax in range(grid.d):
        rows[:, 0] += (bp[:, ax] - bm[:, ax]) / h
    rows[:, 1::2] = -1.0 / h**2 - bp / h
    rows[:, 2::2] = -1.0 / h**2 + bm / h
    values[-1] = 1.0
    return values


def _evaluation_matrix(grid: Grid, bvals: np.ndarray, rho: float) -> sparse.csr_matrix:
    """The normalized evaluation matrix as a canonical scipy CSR matrix in
    node order: rho*I - lap_h - b.grad_h^up with the column of
    NORMALIZATION_NODE replaced by ones, the column of s."""
    indices, indptr, order = grid.normalized_pattern()
    solve_order = sparse.csr_matrix(
        (_evaluation_values(grid, bvals, rho)[order], indices, indptr), shape=(grid.size, grid.size)
    )
    place = np.argsort(grid.stencil_pattern().perm)
    return solve_order[place][:, place].sorted_indices()


def equation_residual(
    spec: ModelSpec,
    coefficients: tuple,
    rho: float,
    grid: Grid,
    w: np.ndarray,
    s: float = 0.0,
) -> tuple[float, np.ndarray, np.ndarray, np.ndarray]:
    """Sup-norm residual of the monotone discretization at the improved policy.

    Evaluates rho*w + s - lap_h(w) - b . grad_h^up(w) - l on the normalized
    pair (w, s), w an (n^d,) array on grid, with the policy recomputed from
    the central gradient of w; this is the quantity policy iteration drives
    to zero, for rho > 0 and rho = 0 alike.  Returns the residual, the
    improved policy, shape (n^d, k), and its drift b(x, a(x); nu), shape
    (n^d, d), and running cost l(x, a(x); nu), shape (n^d,), which the next
    policy evaluation uses.  coefficients is the measure's binding
    spec.coefficients(grid.coordinates(), nu).
    """
    policy = policy_field(spec, grid, gradient_central(grid, w), coefficients)
    drift, cost, _ = coefficients
    bvals, ell = drift(policy), cost(policy)
    dup = gradient_upwind(grid, w, bvals)
    advect = sum(bvals[:, ax] * dup[:, ax] for ax in range(grid.d))
    res = rho * w + s - laplacian(grid, w) - advect - ell
    return float(np.abs(res).max()), policy, bvals, ell


def solve_discounted(
    spec: ModelSpec,
    coefficients: tuple,
    rho: float,
    grid: Grid,
    tol: float = 1e-10,
    max_iter: int = 80,
    warm_start: np.ndarray | None = None,
) -> HjbSolution:
    """Policy iteration for the discounted stationary HJB equation of the
    binding coefficients = spec.coefficients(grid.coordinates(), nu), started
    from the (n^d, k) policy warm_start when one is given."""
    if rho <= 0:
        raise ValueError(f"discounted solve needs rho > 0, got {rho}")
    return _policy_iteration(spec, coefficients, rho, grid, tol, max_iter, warm_start)


def solve_ergodic(spec: ModelSpec, coefficients: tuple, grid: Grid, tol: float = 1e-10) -> HjbSolution:
    """Ergodic cell problem of the binding coefficients, normalized by
    w(x0) = 0: the ergodic constant is the unknown s of the normalized
    system (rho = 0), read as lam."""
    return _policy_iteration(spec, coefficients, 0.0, grid, tol, 80, None)


def _policy_iteration(spec, coefficients, rho, grid, tol, max_iter, warm_start) -> HjbSolution:
    """Howard's algorithm in the normalized variables (w, s), w(x0) = 0.

    Returns the pair at which the last residual was measured.  A policy
    with a non-finite drift or cost is a RuntimeError before its evaluation
    is assembled, and so is a singular evaluation or one with non-finite
    values.

    The evaluation pattern is the grid's, built once per grid.  Each
    policy's drift and cost are computed once: for the starting policy here,
    for every later one by the improvement step that produces it.
    The loop stops at the tolerance or at a policy that repeats bit for
    bit.
    """
    if warm_start is not None:
        policy = node_values(grid, warm_start, "warm_start", spec.control.k)
    else:
        policy = policy_field(spec, grid, np.zeros((grid.size, grid.d)), coefficients)
    indices, indptr, order = grid.normalized_pattern()
    perm = grid.stencil_pattern().perm
    drift, cost, _ = coefficients
    bvals, ell = drift(policy), cost(policy)
    history: list[float] = []
    w, s, residual = np.zeros(grid.size), 0.0, np.inf
    for _ in range(max_iter):
        if not (np.isfinite(bvals).all() and np.isfinite(ell).all()):
            raise RuntimeError("HJB policy has a non-finite drift or cost")
        data = _evaluation_values(grid, bvals, rho)[order]
        w = _direct_solve(data, indices, indptr, perm, ell, csc=False)
        if not np.isfinite(w).all():
            raise RuntimeError("HJB policy evaluation gave non-finite values")
        s = float(w[NORMALIZATION_NODE])
        w[NORMALIZATION_NODE] = 0.0  # exact: s took the column of w(x0) = 0
        w.setflags(write=False)
        previous = policy.tobytes()
        residual, policy, bvals, ell = equation_residual(spec, coefficients, rho, grid, w, s)
        history.append(residual)
        if residual <= tol or policy.tobytes() == previous:
            break
    return HjbSolution(
        w=w, s=s, policy=policy, residual=residual, iterations=len(history),
        converged=residual <= tol, residual_history=tuple(history),
    )
