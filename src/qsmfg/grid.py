"""Periodic grids on the unit torus and finite-difference operators.

Node data are plain float arrays in the C order of the grid's nodes, row i
the datum at node i: a scalar field, such as a value function or a density,
has shape (n^d,); a field of k columns has shape (n^d, k), such as a
gradient or drift (k = d, column ax the component along axis ax) or a policy
(k the control dimension).  node_values is the one shape check.  Every
operator takes the grid and such an array, reads its stencil from the
grid's neighbour table, which wraps indices modulo n on each axis, and
returns a new array, never writing its input.  A grid builds its node
coordinates, neighbour table, stencil pattern and node-to-node torus
distance matrix once each, on first use, as read-only arrays.  Central
stencils are second order where the underlying function is smooth;
one-sided differences selected by drift sign keep the linear systems built
on top of them M-matrices.

Those systems live on the stencil pattern: the canonical CSR pattern of the
(1 + 2d)-point stencil with the unknowns in the grid's solve order, the
identity for d = 1 and a nested dissection of the torus for d = 2, so row k
holds node perm[k] and its neighbours in ascending column order, or on the
normalized pattern the HJB solve's systems take, the same pattern with node
0's column a column of ones; a grid builds each once, on first use.  A
solver fills only a data array in that pattern's slots and hands it to
_direct_solve, one SuperLU factorization and solve in natural column order,
which takes its right-hand side and returns its solution in node order.

The two compiled scipy modules the solvers call, SuperLU's _superlu here and
HiGHS's _highspy._core in measure.py, are bound through _extension, which
loads each from its file so that the scipy.sparse.linalg and scipy.optimize
package __init__s, and the modules they pull in, never run.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import numbers
import os
import sys
from dataclasses import dataclass
from functools import cached_property
from types import ModuleType
from typing import NamedTuple

import numpy as np
import scipy

__all__ = [
    "FieldError",
    "Grid",
    "StencilPattern",
    "laplacian",
    "gradient_central",
    "gradient_upwind",
    "torus_distance",
    "torus_distance_matrix",
    "node_values",
]

# the directory _extension looks for compiled scipy modules in
_SCIPY_DIR = os.path.dirname(scipy.__file__)


def _extension(name: str) -> ModuleType:
    """The compiled scipy module of dotted name name, loaded from its file
    without running the __init__ of any package above it.

    A module already in sys.modules is returned as it is: a second copy of a
    compiled module must never be loaded, and a later import of its package
    finds this one.  Otherwise the first file <scipy dir>/<path>.<suffix>
    with an extension-module suffix is loaded, registered in sys.modules
    under name before it runs.  If no such file exists, the module is
    imported the usual way, package __init__s and all.

    A module loaded from its file is not set as an attribute of its package,
    not even when the package is imported later: from package import module
    falls back to sys.modules and finds it, as do the scipy functions that
    import it, but the attribute chain package.module raises AttributeError.
    """
    if name in sys.modules:
        return sys.modules[name]
    stem = os.path.join(_SCIPY_DIR, *name.split(".")[1:])
    for suffix in importlib.machinery.EXTENSION_SUFFIXES:
        if os.path.isfile(stem + suffix):
            spec = importlib.util.spec_from_file_location(name, stem + suffix)
            module = importlib.util.module_from_spec(spec)
            sys.modules[name] = module
            try:
                spec.loader.exec_module(module)
            except BaseException:
                del sys.modules[name]
                raise
            return module
    return importlib.import_module(name)


gssv = _extension("scipy.sparse.linalg._dsolve._superlu").gssv


class StencilPattern(NamedTuple):
    """Canonical CSR pattern of the (1 + 2d)-point stencil on an n^d grid,
    the unknowns in the grid's solve order.

    Row and column k are node perm[k], so this is the pattern of P A P^T for
    a node-order stencil matrix A.  perm is the identity for d = 1 and a
    nested dissection of the torus for d = 2 (_dissection_order), which
    keeps SuperLU's fill low in natural column order.  indices and indptr
    are the np.intc CSR arrays, with ascending columns in each row and
    1 + 2d slots per row.  order gathers row-major stencil values, an
    (n^d, 1 + 2d) array whose row i holds node i and then its
    grid.neighbors(), into canonical slots: values.ravel()[order].
    transpose maps slot (k, l) to slot (l, k); the neighbour relation is
    mutual, so the pattern is symmetric, transpose is an involution, and
    data[transpose] is the CSC data of the same matrix on the same indices
    and indptr.
    """

    indices: np.ndarray
    indptr: np.ndarray
    order: np.ndarray
    transpose: np.ndarray
    perm: np.ndarray


class FieldError(ValueError):
    """A refused attribute value: field names the attribute, reason says why,
    and the message is the field name followed by the reason."""

    def __init__(self, field: str, reason: str):
        super().__init__(f"{field} {reason}")
        self.field = field
        self.reason = reason


@dataclass(frozen=True)
class Grid:
    """Uniform grid on the unit torus [0,1)^d with nodes x_i = i/n."""

    d: int
    n: int

    def __post_init__(self) -> None:
        if not _is_integer(self.d) or self.d not in (1, 2):
            raise FieldError("d", f"must be 1 or 2, got {self.d!r}")
        if not _is_integer(self.n) or self.n < 8:
            raise FieldError("n", f"must be an integer of at least 8, got {self.n!r}")

    @property
    def h(self) -> float:
        # spacing is derived from n, never stored, so n*h cannot drift
        return 1.0 / self.n

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.n,) * self.d

    @property
    def size(self) -> int:
        return self.n**self.d

    @property
    def cell_volume(self) -> float:
        return self.h**self.d

    def axis_coordinates(self) -> np.ndarray:
        return np.arange(self.n) / self.n

    def coordinates(self) -> np.ndarray:
        """All node coordinates as a read-only (n^d, d) array in C order."""
        return self._coordinates

    def neighbors(self) -> np.ndarray:
        """Flat indices of the periodic stencil neighbours, a read-only
        (n^d, 2d) array: column 2*ax holds the +1 neighbour along axis ax,
        column 2*ax + 1 the -1 neighbour."""
        return self._neighbors

    def stencil_pattern(self) -> StencilPattern:
        """The stencil's canonical CSR pattern in solve order, five read-only
        arrays."""
        return self._stencil_pattern

    def normalized_pattern(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """CSR indices, indptr and value order of the n^d-square normalized
        HJB matrix (hjb.py) in the stencil pattern's solve order, three
        read-only arrays.

        w(x0) = 0 is known at node 0, so its column is free: the unknown s
        takes it, as a column of ones, and the stencil entries it held are
        dropped.  Every row thus holds its stencil slots and one s slot, but
        node 0 and its neighbours hold one stencil slot fewer.  order gathers
        row-major stencil values, an (n^d, 1 + 2d) array as in
        StencilPattern.order, followed by the 1 of the s column, into these
        slots, the s slots from that final 1.
        """
        return self._normalized_pattern

    # derived data of a frozen value, built on first use and never written
    @cached_property
    def _coordinates(self) -> np.ndarray:
        axes = [self.axis_coordinates()] * self.d
        mesh = np.meshgrid(*axes, indexing="ij")
        return _read_only(np.stack([m.ravel() for m in mesh], axis=-1))

    @cached_property
    def _neighbors(self) -> np.ndarray:
        idx = np.arange(self.size).reshape(self.shape)
        return _read_only(
            np.stack([np.roll(idx, s, axis=ax).ravel() for ax in range(self.d) for s in (-1, 1)], axis=-1)
        )

    @cached_property
    def _stencil_pattern(self) -> StencilPattern:
        # n >= 8 makes the 2d neighbours of a node distinct from it and from
        # each other, so no slot holds two stencil entries
        n, width = self.size, 1 + 2 * self.d
        perm = np.arange(n) if self.d == 1 else _dissection_order(self.n)
        place = np.argsort(perm)
        # row k holds node perm[k] and its neighbours, renumbered by place
        cols = place[np.column_stack([perm, self.neighbors()[perm]])]
        sort = np.argsort(cols, axis=1)
        indices = cols.ravel()[(sort + width * np.arange(n)[:, None]).ravel()]
        order = (sort + width * perm[:, None]).ravel()
        rows = np.repeat(np.arange(n), width)
        # canonical slots sort by (row, column), so a slot is found by its key
        transpose = np.searchsorted(rows * n + indices, indices * n + rows)
        indptr = width * np.arange(n + 1, dtype=np.intc)
        return StencilPattern(*map(_read_only, (indices.astype(np.intc), indptr, order, transpose, perm)))

    @cached_property
    def _normalized_pattern(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        n, width, pattern = self.size, 1 + 2 * self.d, self.stencil_pattern()
        place = np.argsort(pattern.perm)
        x0 = place[0]
        # the stencil slots' columns, pattern.indices in np.intp: casting the
        # np.intc array would run numpy code no 1D solve otherwise runs, and map
        # more of numpy's library (0.1-0.2 MiB of peak RSS)
        cols = place[np.column_stack([np.arange(n), self.neighbors()]).ravel()[pattern.order]]
        keep = cols != x0
        rows = np.concatenate([np.repeat(np.arange(n), width)[keep], np.arange(n)])
        cols = np.concatenate([cols[keep], np.full(n, x0)])
        slots = np.argsort(rows * n + cols)  # canonical: by row, then column
        order = np.concatenate([pattern.order[keep], np.full(n, n * width)])[slots]
        indptr = np.searchsorted(rows[slots], np.arange(n + 1)).astype(np.intc)
        return tuple(map(_read_only, (cols[slots].astype(np.intc), indptr, order)))


def _dissection_order(n: int) -> np.ndarray:
    """The nodes of the 2D n x n torus in nested-dissection order (George,
    SIAM J. Numer. Anal. 10(2), 1973).

    Grid rows 0 and n/2 cut the torus into two strips, and columns 0 and n/2
    cut each strip into two open rectangles.  The parts come before the
    separators that split them, and node 0, NORMALIZATION_NODE of hjb.py,
    comes last.
    """
    nodes, half, parts = np.arange(n * n).reshape(n, n), n // 2, []
    for strip in (nodes[1:half], nodes[half + 1 :]):
        _dissect(strip[:, 1:half], parts)
        _dissect(strip[:, half + 1 :], parts)
        parts.append(strip[:, [0, half]].T)
    parts.append(np.roll(nodes[[0, half]], -1))
    return np.concatenate([part.ravel() for part in parts])


def _dissect(block: np.ndarray, parts: list) -> None:
    """Append the nodes of the open rectangle block, a 2D array of node
    indices, in nested-dissection order: the halves on either side of its
    middle line across the longer side, then that line."""
    if block.size == 0:
        return
    if block.shape[0] < block.shape[1]:
        block = block.T
    mid = block.shape[0] // 2
    _dissect(block[:mid], parts)
    _dissect(block[mid + 1 :], parts)
    parts.append(block[mid])


def _is_integer(v) -> bool:
    return isinstance(v, numbers.Integral) and not isinstance(v, bool)


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


def _direct_solve(
    data: np.ndarray, indices: np.ndarray, indptr: np.ndarray, perm: np.ndarray, rhs: np.ndarray, csc: bool
) -> np.ndarray:
    """Solution x of the sparse system A x = rhs, in node order.

    data, indices and indptr are the canonical (sorted, duplicate-free) CSR
    arrays, or CSC arrays when csc, of P A P^T, the unknowns in the order
    perm: row and column k stand for node perm[k].  One SuperLU gssv call in
    natural column order with scipy's default partial pivoting solves
    P A P^T y = rhs[perm], the call scipy.sparse.linalg.spsolve makes for
    the same arrays under permc_spec="NATURAL", so x[perm] = y is that
    call's bit for bit.  An exactly singular matrix is a RuntimeError.
    """
    y, info = gssv(rhs.size, data.size, data, indices, indptr, rhs[perm], int(csc), options={"ColPerm": "NATURAL"})
    if info != 0:
        # info in 1..n names the first zero pivot of an exactly singular matrix
        raise RuntimeError(f"sparse direct solve failed: SuperLU info {info}, the matrix is exactly singular")
    x = np.empty_like(y)
    x[perm] = y
    return x


def torus_distance(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Quotient metric on T^d: sum over axes of min(|x-y|, 1-|x-y|).

    Broadcasts over leading axes; the last axis holds coordinates.
    """
    diff = np.abs(np.asarray(x, dtype=float) - np.asarray(y, dtype=float))
    diff = np.minimum(diff, 1.0 - diff)
    return diff.sum(axis=-1)


def torus_distance_matrix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """torus_distance(x[:, None, :], y) for (n1, d) and (n2, d) point arrays,
    an (n1, n2) array.  The per-axis terms are summed into it axis by axis,
    in torus_distance's order, so it is bit-equal to that call without its
    (n1, n2, d) temporaries."""
    dist = np.zeros((len(x), len(y)))
    for ax in range(x.shape[1]):
        gap = np.abs(np.subtract.outer(x[:, ax], y[:, ax]))
        dist += np.minimum(gap, 1.0 - gap)
    return dist


def node_values(grid: Grid, values: np.ndarray, name: str, columns: int | None = None) -> np.ndarray:
    """values as float node data on grid: an (n^d,) scalar field, or for an
    integer columns an (n^d, columns) array, row i the datum at node i; any
    other shape is a ValueError naming name and the expected shape."""
    v = np.asarray(values, dtype=float)
    shape = (grid.size,) if columns is None else (grid.size, columns)
    if v.shape != shape:
        raise ValueError(f"{name} needs shape {shape}, got {v.shape}")
    return v


def laplacian(grid: Grid, f: np.ndarray) -> np.ndarray:
    """Second-order periodic Laplacian of the scalar field f; node sums
    vanish to machine precision."""
    v, nb = node_values(grid, f, "field"), grid.neighbors()
    out = np.zeros_like(v)
    for ax in range(grid.d):
        out += (v[nb[:, 2 * ax]] + v[nb[:, 2 * ax + 1]] - 2.0 * v) / grid.h**2
    return out


def gradient_central(grid: Grid, f: np.ndarray) -> np.ndarray:
    """Second-order periodic central gradient of the scalar field f, an
    (n^d, d) array whose column ax is the component along axis ax."""
    v, nb = node_values(grid, f, "field"), grid.neighbors()
    return (v[nb[:, 0::2]] - v[nb[:, 1::2]]) / (2.0 * grid.h)


def gradient_upwind(grid: Grid, f: np.ndarray, drift: np.ndarray) -> np.ndarray:
    """One-sided differences of the scalar field f selected per node by the
    sign of the drift.

    drift and the result are (n^d, d) arrays, column ax along axis ax.
    Positive drift takes the forward difference, negative drift the backward
    one; exactly zero drift falls back to the central difference.  This is the
    stencil choice that makes drift terms of the form b . grad(u) assemble
    into M-matrices.
    """
    b = node_values(grid, drift, "drift", grid.d)
    v, nb = node_values(grid, f, "field"), grid.neighbors()
    fwd = (v[nb[:, 0::2]] - v[:, None]) / grid.h
    bwd = (v[:, None] - v[nb[:, 1::2]]) / grid.h
    return np.where(b > 0, fwd, np.where(b < 0, bwd, 0.5 * (fwd + bwd)))
