"""Conservative implicit time stepping for the Fokker-Planck equation.

The continuous equation is dm/dt = lap(m) + div(m g) with g the optimal
drift of the value function.  The spatial discretization combines the
periodic central Laplacian with upwind fluxes of the transport velocity -g
evaluated at cell interfaces; its generator has zero column sums (exact mass
conservation) and nonnegative off-diagonal entries, so the implicit Euler
matrix I - dt*L is an M-matrix and every step preserves positivity
unconditionally.  The drift is frozen at its left-endpoint value over each
step, matching the quasi-stationary reading of the coupled system.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
import scipy.sparse as sparse
import scipy.sparse.linalg as spla

from .grid import Grid, GridField
from .measure import DensityField

__all__ = [
    "FpTrajectory",
    "fp_step",
    "fp_evolve",
    "transport_generator",
    "trajectory_to_csv",
    "trajectory_to_binary",
    "trajectory_from_binary",
]

STEP_MASS_TOL = 1e-12
STEP_NEGATIVE_TOL = 1e-13


@dataclass(frozen=True)
class FpTrajectory:
    """Densities on the uniform time grid t_j = j*dt."""

    grid: Grid
    dt: float
    times: np.ndarray
    densities: tuple[DensityField, ...]

    def values(self) -> np.ndarray:
        """Stacked density values, shape (len(times), *grid.shape)."""
        return np.stack([m.values for m in self.densities])


def _as_drift_array(grid: Grid, g: Sequence[GridField]) -> np.ndarray:
    if len(g) != grid.d:
        raise ValueError(f"drift needs {grid.d} components, got {len(g)}")
    return np.stack([comp.values for comp in g])


def transport_generator(grid: Grid, g: Sequence[GridField]) -> sparse.csr_matrix:
    """Spatial generator L with L m = lap_h(m) + div_h(m g).

    Advection uses upwind fluxes of the velocity v = -g averaged to cell
    interfaces.  Column sums vanish identically and off-diagonal entries are
    nonnegative, which is what the mass and positivity guarantees rest on.
    """
    garr = _as_drift_array(grid, g).reshape(grid.d, grid.size)
    n, h, nbr = grid.size, grid.h, grid.neighbors()
    diag = np.zeros(n)
    off = np.empty((n, 2 * grid.d))
    for ax in range(grid.d):
        plus, minus = nbr[:, 2 * ax], nbr[:, 2 * ax + 1]
        # interface velocity between node i and its +1 neighbor along ax
        v_iface = -0.5 * (garr[ax] + garr[ax][plus])
        vp = np.maximum(v_iface, 0.0)
        vm = np.minimum(v_iface, 0.0)
        # diffusion 1/h^2 per neighbour, then upwind advection:
        # L[i,i] -= (vp[i+1/2] - vm[i-1/2])/h, L[i,i+1] -= vm[i+1/2]/h, L[i,i-1] += vp[i-1/2]/h
        diag += -2.0 / h**2
        diag += -(vp - vm[minus]) / h
        off[:, 2 * ax] = 1.0 / h**2 - vm / h
        off[:, 2 * ax + 1] = 1.0 / h**2 + vp[minus] / h
    cols = np.column_stack([np.arange(n), nbr])
    mat = sparse.csr_matrix(
        (np.column_stack([diag, off]).ravel(), cols.ravel(), np.arange(n + 1) * cols.shape[1]), shape=(n, n)
    )
    mat.sort_indices()  # canonical CSR: ascending columns in each row
    return mat


def fp_step(m: DensityField, g: Sequence[GridField], dt: float) -> DensityField:
    """One implicit Euler step of dm/dt = lap(m) + div(m g)."""
    if dt <= 0:
        raise ValueError(f"time step must be positive, got {dt}")
    grid = m.grid
    gen = transport_generator(grid, g)
    mat = sparse.identity(grid.size, format="csr") - dt * gen
    new = spla.spsolve(mat.tocsc(), m.flat())
    if not np.all(np.isfinite(new)):
        raise RuntimeError("Fokker-Planck linear solve produced non-finite values")
    min_val = new.min()
    if min_val < -STEP_NEGATIVE_TOL:
        raise RuntimeError(
            f"positivity lost in Fokker-Planck step (min {min_val:.3e}); "
            "the M-matrix property should forbid this"
        )
    new = np.maximum(new, 0.0)
    mass = new.sum() * grid.cell_volume
    if abs(mass - 1.0) > STEP_MASS_TOL:
        raise RuntimeError(f"mass drift {mass - 1.0:.3e} exceeds tolerance in one step")
    return DensityField(grid, (new / mass).reshape(grid.shape))


def fp_evolve(
    m0: DensityField,
    drift_provider: Callable[[int, float], Sequence[GridField]],
    T: float,
    dt: float,
) -> FpTrajectory:
    """Sequential implicit steps; drift_provider(j, t_j) supplies g on [t_j, t_{j+1})."""
    n_steps = int(round(T / dt))
    if abs(n_steps * dt - T) > 1e-9 * max(1.0, T):
        raise ValueError(f"horizon T={T} is not a multiple of dt={dt}")
    times = np.arange(n_steps + 1) * dt
    densities = [m0]
    for j in range(n_steps):
        densities.append(fp_step(densities[-1], tuple(drift_provider(j, times[j])), dt))
    return FpTrajectory(grid=m0.grid, dt=dt, times=times, densities=tuple(densities))


# ---------------------------------------------------------------------------
# trajectory serialization


def trajectory_to_csv(times, fields, path: str) -> None:
    """One "t,node,value" row per grid node of each field (densities or values)."""
    with open(path, "w", encoding="ascii") as fh:
        fh.write("t,node,value\n")
        for t, f in zip(times, fields):
            for node, v in enumerate(f.flat()):
                fh.write(f"{format(t, '.17g')},{node},{format(v, '.17g')}\n")


def trajectory_to_binary(times, densities, path: str) -> None:
    """JSON header line, then C-order float64 bytes of the stacked densities
    on the uniform time grid times."""
    grid = densities[0].grid
    header = {
        "d": grid.d,
        "n": grid.n,
        "dt": float(times[1] - times[0]),
        "T": float(times[-1]),
        "steps": len(densities) - 1,
    }
    payload = np.stack([m.values for m in densities]).astype(np.float64).tobytes(order="C")
    with open(path, "wb") as fh:
        fh.write((json.dumps(header) + "\n").encode("ascii"))
        fh.write(payload)


def trajectory_from_binary(path: str) -> tuple[Grid, float, np.ndarray]:
    with open(path, "rb") as fh:
        header = json.loads(fh.readline().decode("ascii"))
        raw = fh.read()
    grid = Grid(header["d"], header["n"])
    arr = np.frombuffer(raw, dtype=np.float64).reshape(
        (header["steps"] + 1,) + grid.shape
    )
    return grid, header["dt"], arr
