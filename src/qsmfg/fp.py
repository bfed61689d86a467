"""Conservative implicit time stepping for the Fokker-Planck equation.

The continuous equation is dm/dt = lap(m) + div(m g) with g the optimal
drift of the value function.  The spatial discretization combines the
periodic central Laplacian with upwind fluxes of the transport velocity -g
evaluated at cell interfaces; its generator has zero column sums (exact mass
conservation) and nonnegative off-diagonal entries, so the implicit Euler
matrix I - dt*L is an M-matrix and every step preserves positivity
unconditionally.  The drift is frozen at its left-endpoint value over each
step, matching the quasi-stationary reading of the coupled system.

The generator's values fill the slots of the grid's stencil pattern, whose
unknowns are in the grid's solve order.  A step scales them to I - dt*L in
place, permutes them to the CSC form of the same pattern, and makes one
SuperLU solve (grid._direct_solve).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np
import scipy.sparse as sparse

from .grid import Grid, _direct_solve, node_values
from .measure import MASS_TOL, NEGATIVE_TOL, DensityField

__all__ = ["fp_step", "fp_evolve", "transport_generator"]


def _generator_values(grid: Grid, g: np.ndarray) -> np.ndarray:
    """Values of transport_generator(grid, g), an (n^d, 1 + 2d) array whose
    row i holds the diagonal and then the grid.neighbors() entries."""
    garr = node_values(grid, g, "drift", grid.d)
    n, h, nbr = grid.size, grid.h, grid.neighbors()
    values = np.zeros((n, 1 + 2 * grid.d))
    diag = values[:, 0]
    for ax in range(grid.d):
        plus, minus = nbr[:, 2 * ax], nbr[:, 2 * ax + 1]
        # interface velocity between node i and its +1 neighbor along ax
        v_iface = -0.5 * (garr[:, ax] + garr[plus, ax])
        vp = np.maximum(v_iface, 0.0)
        vm = np.minimum(v_iface, 0.0)
        # diffusion 1/h^2 per neighbour, then upwind advection:
        # L[i,i] -= (vp[i+1/2] - vm[i-1/2])/h, L[i,i+1] -= vm[i+1/2]/h, L[i,i-1] += vp[i-1/2]/h
        diag += -2.0 / h**2
        diag += -(vp - vm[minus]) / h
        values[:, 1 + 2 * ax] = 1.0 / h**2 - vm / h
        values[:, 2 + 2 * ax] = 1.0 / h**2 + vp[minus] / h
    return values


def transport_generator(grid: Grid, g: np.ndarray) -> sparse.csr_matrix:
    """Spatial generator L with L m = lap_h(m) + div_h(m g), g an (n^d, d)
    drift array, as a canonical CSR matrix in node order.

    Advection uses upwind fluxes of the velocity v = -g averaged to cell
    interfaces.  Column sums vanish identically and off-diagonal entries are
    nonnegative, which is what the mass and positivity guarantees rest on.
    """
    n, width = grid.size, 1 + 2 * grid.d
    rows, cols = np.repeat(np.arange(n), width), np.column_stack([np.arange(n), grid.neighbors()]).ravel()
    return sparse.csr_matrix((_generator_values(grid, g).ravel(), (rows, cols)), shape=(n, n))


def fp_step(m: DensityField, g: np.ndarray, dt: float) -> DensityField:
    """One implicit Euler step of dm/dt = lap(m) + div(m g), g an (n^d, d)
    drift array."""
    if dt <= 0:
        raise ValueError(f"time step must be positive, got {dt}")
    grid = m.grid
    pattern = grid.stencil_pattern()
    values = _generator_values(grid, g) * -dt  # I - dt*L: scale L, then add 1 on its diagonal
    values[:, 0] += 1.0
    csc = values.ravel()[pattern.order][pattern.transpose]
    new = _direct_solve(csc, pattern.indices, pattern.indptr, pattern.perm, m.values, csc=True)
    if not np.all(np.isfinite(new)):
        raise RuntimeError("Fokker-Planck linear solve produced non-finite values")
    min_val = new.min()
    if min_val < -NEGATIVE_TOL:
        raise RuntimeError(
            f"positivity lost in Fokker-Planck step (min {min_val:.3e}); "
            "the M-matrix property should forbid this"
        )
    new = np.maximum(new, 0.0)
    mass = new.sum() * grid.cell_volume
    if abs(mass - 1.0) > MASS_TOL:
        raise RuntimeError(f"mass drift {mass - 1.0:.3e} exceeds tolerance in one step")
    # checked above: finite, nonnegative and, after the division, of unit mass
    return DensityField._checked(grid, new / mass)


def fp_evolve(m0: DensityField, drifts: Sequence[np.ndarray], dt: float) -> tuple[DensityField, ...]:
    """Densities at t_j = j*dt, j = 0..len(drifts): one implicit step per
    (n^d, d) drift array, drifts[j] frozen on [t_j, t_{j+1})."""
    densities = [m0]
    for g in drifts:
        densities.append(fp_step(densities[-1], g, dt))
    return tuple(densities)
