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
constant mode.  The augmented system is algebraically equivalent to the plain
one for every rho > 0.  At rho = 0 it is the ergodic cell problem with the
constant as an unknown (Achdou & Capuzzo-Dolcetta, SIAM J. Numer. Anal.
48(3), 2010), the one form solve_ergodic solves; the vanishing-discount limit
belongs to the coupled driver, coupling.solve_vanishing_discount.  The CSR
matrix is filled row by row from the grid's neighbour table, and every
evaluation, in every dimension, is one sparse direct solve.

The pair (w, s) is the one form in which a value function leaves this
module: the residual is measured and the policy improved on it, and
value_function reads it as (u, lam), u = w + s/rho for rho > 0 and
(u, lam) = (w, s) for rho = 0.  Forming u = w + s/rho rounds w to the size
of s/rho, which grows as the discount vanishes, so residuals and policies are
computed on the pair, never on u.

The measure is frozen within a solve, so each solve binds the model's
coefficients to the grid nodes and the measure once (ModelSpec.coefficients)
and evaluates every policy through the bound functions: the measure terms are
computed once per solve, and the drift and running cost of each policy once.
The improvement step is equation_residual: at the current pair it returns
the residual, the improved policy, and that policy's drift and cost, which
the next evaluation assembles its matrix and right-hand side from.

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
import scipy.sparse.linalg as spla

from .grid import Grid, gradient_central, gradient_upwind, laplacian, node_values
from .measure import JointMeasure
from .model import ModelSpec, policy_field

__all__ = [
    "HjbSolution",
    "solve_discounted",
    "solve_ergodic",
    "equation_residual",
    "value_function",
]

NORMALIZATION_NODE = 0  # flat index of the node at coordinate 0


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


def _evaluation_matrix(grid: Grid, bvals: np.ndarray, rho: float) -> sparse.csr_matrix:
    """Augmented matrix [[rho*I - lap_h - b.grad_h^up, 1], [e_x0, 0]] in CSR.

    Row i holds the diagonal, the grid.neighbors() columns and the s column.
    -lap_h gives the off-diagonals -1/h^2; -b.grad_h^up takes the forward
    difference where b > 0 and the backward one where b < 0.
    """
    n, h = grid.size, grid.h
    bp, bm = np.maximum(bvals, 0.0), np.minimum(bvals, 0.0)
    diag = np.full(n, rho + 2.0 * grid.d / h**2)
    for ax in range(grid.d):
        diag += (bp[:, ax] - bm[:, ax]) / h
    off = np.stack([-1.0 / h**2 - bp / h, -1.0 / h**2 + bm / h], axis=-1).reshape(n, 2 * grid.d)
    cols = np.column_stack([np.arange(n), grid.neighbors(), np.full(n, n)])
    data = np.column_stack([diag, off, np.ones(n)])
    indptr = np.append(np.arange(n + 1) * cols.shape[1], cols.size + 1)
    mat = sparse.csr_matrix(
        (np.append(data.ravel(), 1.0), np.append(cols.ravel(), NORMALIZATION_NODE), indptr), shape=(n + 1, n + 1)
    )
    mat.sort_indices()  # canonical CSR: ascending columns in each row
    return mat


def equation_residual(
    spec: ModelSpec,
    nu: JointMeasure,
    rho: float,
    grid: Grid,
    w: np.ndarray,
    s: float = 0.0,
    coefficients: tuple | None = None,
) -> tuple[float, np.ndarray, np.ndarray, np.ndarray]:
    """Sup-norm residual of the monotone discretization at the improved policy.

    Evaluates rho*w + s - lap_h(w) - b . grad_h^up(w) - l on the normalized
    pair (w, s), w an (n^d,) array on grid, with the policy recomputed from
    the central gradient of w; this is the quantity policy iteration drives
    to zero, for rho > 0 and rho = 0 alike.  Returns the residual, the
    improved policy, shape (n^d, k), and its drift b(x, a(x); nu), shape
    (n^d, d), and running cost l(x, a(x); nu), shape (n^d,), which the next
    policy evaluation uses.  coefficients is
    spec.coefficients(grid.coordinates(), nu), bound here when not given.
    """
    policy = policy_field(spec, grid, gradient_central(grid, w), nu)
    drift, cost = spec.coefficients(grid.coordinates(), nu) if coefficients is None else coefficients
    bvals, ell = drift(policy), cost(policy)
    dup = gradient_upwind(grid, w, bvals)
    advect = sum(bvals[:, ax] * dup[:, ax] for ax in range(grid.d))
    res = rho * w + s - laplacian(grid, w) - advect - ell
    return float(np.abs(res).max()), policy, bvals, ell


def solve_discounted(
    spec: ModelSpec,
    nu: JointMeasure,
    rho: float,
    grid: Grid,
    tol: float = 1e-10,
    max_iter: int = 80,
    warm_start: np.ndarray | None = None,
) -> HjbSolution:
    """Policy iteration for the discounted stationary HJB equation, started
    from the (n^d, k) policy warm_start when one is given."""
    if rho <= 0:
        raise ValueError(f"discounted solve needs rho > 0, got {rho}")
    return _policy_iteration(spec, nu, rho, grid, tol, max_iter, warm_start)


def solve_ergodic(spec: ModelSpec, nu: JointMeasure, grid: Grid, tol: float = 1e-10) -> HjbSolution:
    """Ergodic cell problem, normalized by w(x0) = 0: the ergodic constant is
    the extra unknown s of the augmented system (rho = 0), read as lam."""
    return _policy_iteration(spec, nu, 0.0, grid, tol, 80, None)


def _policy_iteration(spec, nu, rho, grid, tol, max_iter, warm_start) -> HjbSolution:
    """Howard's algorithm in the normalized variables (w, s), w(x0) = 0.

    Returns the pair at which the last residual was measured.  A policy
    with a non-finite drift or cost is a RuntimeError before its evaluation
    is assembled, and so is an evaluation with non-finite values.

    The coefficients are bound once.  Each policy's drift and cost are
    computed once: for the starting policy here, for every later one by the
    improvement step that produces it.  The loop stops at the tolerance or
    at a policy that repeats bit for bit.
    """
    if warm_start is not None:
        policy = node_values(grid, warm_start, "warm_start", spec.control.k)
    else:
        policy = policy_field(spec, grid, np.zeros((grid.size, grid.d)), nu)
    coefficients = spec.coefficients(grid.coordinates(), nu)
    drift, cost = coefficients
    bvals, ell = drift(policy), cost(policy)
    history: list[float] = []
    w, s, residual = np.zeros(grid.size), 0.0, np.inf
    for _ in range(max_iter):
        if not (np.isfinite(bvals).all() and np.isfinite(ell).all()):
            raise RuntimeError("HJB policy has a non-finite drift or cost")
        ws = spla.spsolve(_evaluation_matrix(grid, bvals, rho), np.append(ell, 0.0))
        if not np.isfinite(ws).all():
            raise RuntimeError("HJB policy evaluation gave non-finite values")
        ws.setflags(write=False)  # w is a view of ws, so HjbSolution.w is read-only
        w, s = ws[:-1], float(ws[-1])
        previous = policy.tobytes()
        residual, policy, bvals, ell = equation_residual(spec, nu, rho, grid, w, s, coefficients)
        history.append(residual)
        if residual <= tol or policy.tobytes() == previous:
            break
    return HjbSolution(
        w=w, s=s, policy=policy, residual=residual, iterations=len(history),
        converged=residual <= tol, residual_history=tuple(history),
    )
