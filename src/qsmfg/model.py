"""Control problem data: drift, running cost, Hamiltonian, optimal control.

A model is a coefficient map together with a compact control set and
declared regularity constants.  The coefficient map binds the state points x
and a measure nu once and returns a -> b(x,a;nu), a -> l(x,a;nu) and the
maximizer p -> alpha*(x,p;nu), or None for a model without a closed form.  In
the quasi-stationary system the measure is frozen within a time slice, so a
slice binds once, and its HJB solve, its Fokker-Planck drift (drift_field)
and its residual checks read the measure only through that binding.  There
is no pointwise read of b or l: every evaluation goes through a binding.
The Hamiltonian is always the control supremum

    H(x, p; nu) = sup_a { -p . b(x,a;nu) - l(x,a;nu) },

evaluated on a binding through its maximizer, or by brute-force mesh search
where it has none.  nu is the one joint state-control measure the
Hamiltonian reads at a time slice, resolved by slice_measure: the current
measure for instant models, the unit-mass kernel aggregate of the past
trajectory for memory models.

Coefficients are vectorized: x has shape (..., d), a has shape (..., k),
broadcastable against each other, and p has x's shape; b returns (..., d),
l returns (...,) and alpha* returns (..., k).
"""

from __future__ import annotations

import functools
import warnings
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .grid import Grid, node_values, torus_distance, torus_distance_matrix
from .measure import JointMeasure, wasserstein1_joint

__all__ = [
    "ControlSet",
    "ModelSpec",
    "hamiltonian_value",
    "optimal_control",
    "hamiltonian_gradient_p",
    "brute_force_argmax",
    "memory_aggregate",
    "slice_measure",
    "policy_field",
    "drift_field",
    "example_one",
    "example_two",
    "separated_cost",
    "build_model",
    "MODEL_BUILDERS",
    "check_model",
    "NonUniqueMaximizerWarning",
]

MESH_POINTS = 257  # default brute-force control mesh points per axis
CHECK_SAMPLES = 64  # random points check_model samples per check


class NonUniqueMaximizerWarning(UserWarning):
    """Two near-optimal controls are separated by more than the mesh spacing."""


def _snap_mesh_count(m: int) -> int:
    """Smallest 2^j + 1 >= m, so refining m -> 2m always nests the old mesh."""
    if m < 2:
        raise ValueError("control mesh needs at least 2 points per axis")
    j = int(np.ceil(np.log2(max(m - 1, 1))))
    return 2**j + 1


@dataclass(frozen=True)
class ControlSet:
    """Compact control set A in R^k: the centered ball of the given radius."""

    k: int
    radius: float = 1.0

    def __post_init__(self) -> None:
        if self.radius <= 0:
            raise ValueError("ball control set needs radius > 0")

    def project(self, a: np.ndarray) -> np.ndarray:
        a = np.asarray(a, dtype=float)
        norm = np.linalg.norm(a, axis=-1, keepdims=True)
        scale = np.where(norm > self.radius, self.radius / np.maximum(norm, 1e-300), 1.0)
        return a * scale

    def mesh(self, m: int = MESH_POINTS) -> np.ndarray:
        """Brute-force candidate controls, shape (M, k).

        Point counts snap to 2^j + 1 per axis so meshes nest under
        refinement; the first mesh point is the documented tie-break winner.
        """
        mm = _snap_mesh_count(m)
        if self.k == 1:
            return np.linspace(-self.radius, self.radius, mm)[:, None]
        if self.k == 2:
            # polar mesh: nested radii, angle count a power of two, exact boundary ring
            mr, na = _polar_counts(mm)
            radii = np.linspace(0.0, self.radius, mr)
            angles = 2.0 * np.pi * np.arange(na) / na
            rr, tt = np.meshgrid(radii[1:], angles, indexing="ij")
            pts = np.stack([rr.ravel() * np.cos(tt.ravel()), rr.ravel() * np.sin(tt.ravel())], axis=-1)
            return np.vstack([np.zeros((1, 2)), pts])
        raise ValueError(f"mesh generation supports k <= 2, got k={self.k}")


def _mesh_spacing(control: ControlSet, m: int) -> float:
    """Largest step of control.mesh(m): the point spacing for k = 1; for k = 2
    the larger of the radial step and the arc step on the boundary ring."""
    mm = _snap_mesh_count(m)
    if control.k == 1:
        return 2.0 * control.radius / (mm - 1)
    mr, na = _polar_counts(mm)
    return max(control.radius / (mr - 1), 2.0 * np.pi * control.radius / na)


def _polar_counts(mm: int) -> tuple[int, int]:
    """Radius and angle counts of the k = 2 polar mesh for mm points per axis."""
    mr = _snap_mesh_count(int(np.ceil(np.sqrt(mm))))
    return mr, 2 ** int(np.ceil(np.log2(4 * mr)))


def memory_aggregate(
    times: Sequence[float],
    measures: Sequence[JointMeasure],
    kernel: Callable[[np.ndarray], np.ndarray],
) -> JointMeasure:
    """Trapezoid-rule aggregate of a measure trajectory weighted by a kernel.

    Returns the nonnegative measure with total mass equal to the trapezoid
    value of the kernel integral over [times[0], times[-1]]; atoms are the
    concatenation of the per-slice atoms scaled by their quadrature weight.
    """
    times = np.asarray(times, dtype=float)
    if len(times) == 0 or len(times) != len(measures):
        raise ValueError("times and measures must be nonempty and of one length")
    kvals = np.asarray(kernel(times), dtype=float)
    if np.any(kvals < 0):
        raise ValueError("kernel must be nonnegative")
    dt = np.diff(times)
    quad = np.zeros(len(times))
    quad[:-1] += 0.5 * dt
    quad[1:] += 0.5 * dt
    weights = quad * kvals
    xs, as_, ws = [], [], []
    for nu, weight in zip(measures, weights):
        if weight == 0.0:
            continue
        xs.append(nu.x)
        as_.append(nu.a)
        ws.append(nu.w * weight)
    if not xs:
        first = measures[0]
        return JointMeasure.empty(first.x.shape[1], first.a.shape[1])
    return JointMeasure(np.vstack(xs), np.vstack(as_), np.concatenate(ws))


@dataclass(frozen=True)
class ModelSpec:
    """Coefficients, control set, and declared constants of one control problem.

    A model without a kernel reads the current joint measure; a memory model
    carries its kernel K(tau) and reads the past trajectory.  Declared
    constants are used by the validator spot-checks, never by the solvers.

    coefficients(x, nu) returns the triple (a -> b(x, a; nu), a -> l(x, a; nu),
    alpha) with x and nu bound, alpha being p -> alpha*(x, p; nu) or None.
    """

    name: str
    control: ControlSet
    coefficients: Callable  # (x, nu) -> (a -> b (..., d), a -> l (...,), p -> alpha* (..., k) or None)
    coef_bound: float = 1.0  # K: sup |b|, sup |l|
    coef_lip_x: float = 0.0  # L: Lipschitz constant in x
    control_lip_measure: float = 0.0  # lambda_0 of the maximizer w.r.t. W1
    kernel: Optional[Callable] = None  # memory kernel K(tau), history models

    @property
    def kind(self) -> str:
        """"history" for a model with a memory kernel, "instant" without one."""
        return "instant" if self.kernel is None else "history"


def slice_measure(spec: ModelSpec, times: Sequence[float], measures: Sequence[JointMeasure]) -> JointMeasure:
    """The joint measure the Hamiltonian reads at times[-1], the last slice of
    a trajectory prefix.

    Instant models read the current measure, measures[-1].  History models
    read the kernel aggregate over [0, times[-1]] scaled to unit mass, or the
    empty measure (no coupling) when the aggregate has no mass.
    """
    if spec.kind == "instant":
        return measures[-1]
    agg = memory_aggregate(times, measures, spec.kernel)
    mass = agg.mass()
    if mass <= 0.0:
        return JointMeasure.empty(agg.x.shape[1], agg.a.shape[1])
    return agg.scaled(1.0 / mass)


def brute_force_argmax(
    spec: ModelSpec,
    coefficients: tuple,
    p: np.ndarray,
    mesh: int = MESH_POINTS,
) -> np.ndarray:
    """Exhaustive maximization of -p.b - l over the control mesh, for the
    binding coefficients = spec.coefficients(x, nu) and p of x's shape.

    Ties go to the first mesh point.  Refining the mesh can only improve the
    achieved value because refined meshes contain the coarse ones.
    """
    p = np.atleast_2d(np.asarray(p, dtype=float))
    cand = spec.control.mesh(mesh)  # (M, k)
    drift, cost, _ = coefficients
    ab = cand[:, None, :]  # the candidates on a leading axis, against every point
    objective = (-(p * drift(ab)).sum(axis=-1) - cost(ab)).T  # (N, M)
    best = np.argmax(objective, axis=1)
    _flag_non_unique(cand, objective, best, _mesh_spacing(spec.control, mesh))
    return cand[best]


def _flag_non_unique(cand, objective, best, spacing) -> None:
    """NonUniqueMaximizerWarning when another near-maximal candidate lies
    farther than two mesh spacings from the winner."""
    best_vals = objective[np.arange(objective.shape[0]), best]
    near = objective >= best_vals[:, None] - 1e-9 * (1.0 + np.abs(best_vals[:, None]))
    for i in np.nonzero(near.sum(axis=1) > 1)[0][:4]:
        others = cand[near[i]]
        sep = np.linalg.norm(others - cand[best[i]], axis=-1).max()
        if sep > 2.0 * spacing:
            warnings.warn(
                f"near-optimal controls separated by {sep:.3g} (> mesh spacing); "
                "maximizer may not be unique",
                NonUniqueMaximizerWarning,
                stacklevel=3,
            )
            break


def optimal_control(spec: ModelSpec, coefficients: tuple, p: np.ndarray) -> np.ndarray:
    """The maximizing control of the binding coefficients at p; the bound
    alpha* when the model has one, brute force otherwise."""
    alpha = coefficients[2]
    if alpha is None:
        return brute_force_argmax(spec, coefficients, p)
    return spec.control.project(alpha(np.asarray(p, dtype=float)))


def hamiltonian_value(spec: ModelSpec, coefficients: tuple, p: np.ndarray) -> np.ndarray:
    """H(x,p;nu) of the binding coefficients, evaluated at the optimal control."""
    p = np.asarray(p, dtype=float)
    drift, cost, _ = coefficients
    a = optimal_control(spec, coefficients, p)
    return -(p * drift(a)).sum(axis=-1) - cost(a)


def hamiltonian_gradient_p(spec: ModelSpec, coefficients: tuple, p: np.ndarray) -> np.ndarray:
    """dH/dp = -b(x, alpha*(x,p;nu); nu), the envelope identity."""
    return -coefficients[0](optimal_control(spec, coefficients, p))


def policy_field(spec: ModelSpec, grid: Grid, du: np.ndarray, coefficients: tuple) -> np.ndarray:
    """Optimal control at every node for the value-function gradient du, an
    (n^d, d) array, and the binding spec.coefficients(grid.coordinates(), nu):
    the policy, a read-only (n^d, k) array whose row i is the control at
    node i."""
    a = optimal_control(spec, coefficients, node_values(grid, du, "gradient", grid.d))
    a.setflags(write=False)
    return a


def drift_field(spec: ModelSpec, grid: Grid, policy: np.ndarray, coefficients: tuple) -> np.ndarray:
    """The Fokker-Planck drift H_p = -b(x, a(x); nu) of the (n^d, k) policy
    as an (n^d, d) array, for the binding
    spec.coefficients(grid.coordinates(), nu)."""
    return -coefficients[0](node_values(grid, policy, "policy", spec.control.k))


# ---------------------------------------------------------------------------
# built-in models


def _quadratic_couplings(delta, eps, kappa, width, radius):
    """Shared coupling terms: cost weight from the mean control, drift bump
    from a periodic Gaussian average of controls around x.  An empty measure
    (a memory model's aggregate before any mass has built up) decouples.

    The bump weighs every atom by exp(-d^2 / (2 width^2)), d its torus
    distance to x.  When nu's atoms sit at the nodes of nu.grid (a
    pushforward) and x, flattened to (-1, d), is those same nodes (a slice's
    binding, which its HJB solve and FP drift share), these weights depend
    only on the grid: the couplings build them once per grid, as one
    read-only (n^d, n^d) kernel (N^2 floats: 0.5 MiB at 2D n=16, 8 MiB at
    n=32) that every later binding on that grid reuses.  Every other call
    (memory aggregates, which carry no grid, and off-grid points) computes
    the weights at each binding.  Both paths take the distances from
    torus_distance_matrix, with no (M, N, d) temporary, and compute the same
    products, so the bump is bit-equal.
    """
    node_kernel = functools.cache(lambda grid: _node_kernel(grid, width))

    def cost_weight(nu):
        if nu.n_atoms == 0:
            return delta
        mean_a = float(np.linalg.norm(nu.mean_control()))
        return float(np.clip(delta + eps * mean_a, delta, delta + eps * radius))

    def drift_bump(x, nu):
        # x: (..., d) -> (..., d)
        if nu.n_atoms == 0 or kappa == 0.0:
            return np.zeros(x.shape)
        points = x.reshape(-1, x.shape[-1])
        grid = nu.grid
        if grid is not None and np.array_equal(nu.x, grid.coordinates()) and np.array_equal(points, nu.x):
            phi = node_kernel(grid)
        else:
            phi = _gaussian(torus_distance_matrix(points, nu.x), width)
        return _bump_average(phi, nu, kappa).reshape(x.shape[:-1] + (nu.a.shape[1],))

    return cost_weight, drift_bump


def _gaussian(dist: np.ndarray, width: float) -> np.ndarray:
    """The bump's weights exp(-dist^2 / (2 width^2)), the one formula of
    both paths."""
    return np.exp(-(dist**2) / (2.0 * width**2))


def _node_kernel(grid: Grid, width: float) -> np.ndarray:
    """The bump's weights between all pairs of grid's nodes, a read-only
    (n^d, n^d) array."""
    x = grid.coordinates()
    kernel = _gaussian(torus_distance_matrix(x, x), width)
    kernel.setflags(write=False)
    return kernel


def _bump_average(phi: np.ndarray, nu: JointMeasure, kappa: float) -> np.ndarray:
    """kappa * sum_j phi[i, j] w_j a_j for the (M, N) weights phi of nu's N
    atoms, an (M, k) array.  One matrix-vector product per control column:
    one matrix product (BLAS gemm) raised the 2D benchmark's peak memory by
    about 0.2 MiB."""
    f = nu.w[:, None] * nu.a
    return np.stack([kappa * (phi @ f[:, c]) for c in range(f.shape[1])], axis=-1)


def _make_quadratic_model(
    name: str,
    d: int,
    delta: float,
    eps: float,
    kappa: float,
    width: float,
    radius: float,
    potential: float = 0.0,
    kernel=None,
) -> ModelSpec:
    """Quadratic-cost model with drift b = b0(x;nu) - a and cost
    |a|^2 / (2 l0(nu)) + V(x).  Binding computes l0(nu) and V(x), and
    b0(x;nu) on the first call of b: the joint-measure fixed point binds a
    new measure per iterate and reads only the maximizer.

    The maximizer has the exact two-branch form: l0 * p inside the control
    ball and the radial projection R p/|p| outside; no smoothing is applied at
    the branch switch.  The state potential V(x) = potential * cos(2 pi x_1)
    is control independent, so it shifts the Hamiltonian without touching the
    maximizer or its measure sensitivity; with the default potential = 0 the
    value function is identically zero (idling is free), so coupled runs that
    should exercise nontrivial dynamics need potential != 0.
    """
    if delta <= 0:
        raise ValueError("cost weight floor delta must be positive")
    control = ControlSet(k=d, radius=radius)
    cost_weight, drift_bump = _quadratic_couplings(delta, eps, kappa, width, radius)

    def coefficients(x, nu):
        x = np.asarray(x, dtype=float)
        bump = functools.cache(lambda: drift_bump(x, nu))
        l0 = cost_weight(nu)
        if potential == 0.0:
            state_cost = np.zeros(x.shape[:-1])
        else:
            state_cost = potential * np.cos(2.0 * np.pi * x[..., 0])

        def b(a):
            return bump() - np.asarray(a, dtype=float)

        def ell(a):
            a = np.asarray(a, dtype=float)
            return (a**2).sum(axis=-1) / (2.0 * l0) + state_cost

        def alpha(p):
            norm = np.linalg.norm(p, axis=-1, keepdims=True)
            return np.where(l0 * norm <= radius, l0 * p, radius * p / np.maximum(norm, 1e-300))

        return b, ell, alpha

    lip_phi = np.exp(-0.5) / width  # max slope of the Gaussian bump
    coef_bound = max(kappa * radius + radius, radius**2 / (2.0 * delta) + abs(potential))
    coef_lip_x = kappa * radius * lip_phi + 2.0 * np.pi * abs(potential)
    return ModelSpec(
        name=name,
        control=control,
        coefficients=coefficients,
        coef_bound=coef_bound,
        coef_lip_x=coef_lip_x,
        control_lip_measure=radius * eps / delta,
        kernel=kernel,
    )


def example_one(
    d: int = 1,
    delta: float = 1.0,
    eps: float = 0.1,
    kappa: float = 0.1,
    width: float = 0.2,
    radius: float = 1.0,
    potential: float = 0.0,
) -> ModelSpec:
    """Instant quadratic model; the maximizer is (R eps / delta)-Lipschitz
    in the measure, so eps and delta tune the measure fixed point above or
    below the contraction threshold."""
    return _make_quadratic_model("example1", d, delta, eps, kappa, width, radius, potential=potential)


def example_two(
    d: int = 1,
    delta: float = 1.0,
    eps: float = 0.1,
    kappa: float = 0.1,
    width: float = 0.2,
    radius: float = 1.0,
    potential: float = 0.0,
    kernel_kind: str = "constant",
    kernel_scale: float = 1.0,
) -> ModelSpec:
    """Memory model: the quadratic couplings read the kernel-weighted time
    aggregate of the past joint-measure trajectory, which slice_measure scales
    to unit mass (decoupled while the aggregate is empty).  That scaling
    removes kernel_scale from every positive kernel, so the scale only
    matters at 0, where it switches the coupling off."""
    if kernel_kind == "constant":
        kernel = lambda tau: kernel_scale * np.ones_like(np.asarray(tau, dtype=float))
    elif kernel_kind == "linear":
        kernel = lambda tau: kernel_scale * np.asarray(tau, dtype=float)
    elif kernel_kind == "zero":
        kernel = lambda tau: np.zeros_like(np.asarray(tau, dtype=float))
    else:
        raise ValueError(f"unknown kernel kind {kernel_kind!r}")
    return _make_quadratic_model("example2", d, delta, eps, kappa, width, radius, potential=potential, kernel=kernel)


def separated_cost(
    d: int = 1,
    radius: float = 1.0,
    drift_amplitude: float = 0.2,
    potential_amplitude: float = 0.3,
    coupling_weight: float = 0.3,
) -> ModelSpec:
    """Separated dependence on the measure: b = b0(x) - a and
    l = |a|^2/2 + V(x) + l1(mu) with l1 linear in the mean control.

    The Hamiltonian splits as H0(x,p) - l1(mu), so gradients of the value
    function never see the measure: discounted solutions for two measures
    differ by the constant (l1(mu1) - l1(mu2)) / rho and ergodic solutions
    coincide.
    """
    control = ControlSet(k=d, radius=radius)

    def b0(x):
        x = np.asarray(x, dtype=float)
        out = np.zeros(x.shape)
        out[..., 0] = drift_amplitude * np.sin(2.0 * np.pi * x[..., 0])
        return out

    def potential(x):
        x = np.asarray(x, dtype=float)
        return potential_amplitude * np.cos(2.0 * np.pi * x[..., 0])

    def ell1(nu: JointMeasure) -> float:
        return float(coupling_weight * nu.mean_control()[0])

    def coefficients(x, nu):
        drift0, state_cost, measure_cost = b0(x), potential(x), ell1(nu)

        def b(a):
            return drift0 - np.asarray(a, dtype=float)

        def ell(a):
            a = np.asarray(a, dtype=float)
            return (a**2).sum(axis=-1) / 2.0 + state_cost + measure_cost

        def alpha(p):
            norm = np.linalg.norm(p, axis=-1, keepdims=True)
            return p * np.where(norm > radius, radius / np.maximum(norm, 1e-300), 1.0)

        return b, ell, alpha

    coef_bound = max(
        drift_amplitude + radius,
        radius**2 / 2.0 + potential_amplitude + coupling_weight * radius,
    )
    return ModelSpec(
        name="separated",
        control=control,
        coefficients=coefficients,
        coef_bound=coef_bound,
        coef_lip_x=2.0 * np.pi * max(drift_amplitude, potential_amplitude),
        control_lip_measure=0.0,
    )


MODEL_BUILDERS = {
    "example1": example_one,
    "example2": example_two,
    "separated": separated_cost,
}


def build_model(name: str, **params) -> ModelSpec:
    if name not in MODEL_BUILDERS:
        raise ValueError(f"unknown model {name!r}; choose from {sorted(MODEL_BUILDERS)}")
    return MODEL_BUILDERS[name](**params)


# ---------------------------------------------------------------------------
# validator spot-checks


def _random_atoms(spec: ModelSpec, grid: Grid, rng: np.random.Generator) -> JointMeasure:
    """24 random atoms of unit total mass."""
    n_atoms = 24
    x = rng.random((n_atoms, grid.d))
    a = spec.control.project(rng.uniform(-1.0, 1.0, (n_atoms, spec.control.k)))
    w = rng.random(n_atoms)
    w = w / w.sum()
    return JointMeasure(x, a, w)


def _constant_read(spec: ModelSpec, nu: JointMeasure) -> JointMeasure:
    """The measure the Hamiltonian reads on the constant trajectory nu."""
    return slice_measure(spec, np.linspace(0.0, 0.5, 6), [nu] * 6)


def check_model(
    spec: ModelSpec,
    grid: Grid,
    seed: int = 0,
    fd_step: float = 1e-5,
) -> dict:
    """Spot-check the declared bounds and closed forms on random samples.

    The model is read only through its binding spec.coefficients(x, nu),
    its control set and its declared constants.  The envelope identity is
    checked by central differences of step fd_step, except at samples where,
    on some axis, the maximizers at p + dp and p - dp disagree on lying on
    the control ball's boundary: that stencil crosses the maximizer's kink.

    Returns a report dict with one entry per check: measured value, bound,
    and a pass flag.  Intended for the CLI `validate` subcommand; failures
    are reported, never raised.
    """
    rng = np.random.default_rng(seed)
    report: dict[str, dict] = {}
    nu = _constant_read(spec, _random_atoms(spec, grid, rng))
    x = rng.random((CHECK_SAMPLES, grid.d))
    a = spec.control.project(rng.uniform(-1.0, 1.0, (CHECK_SAMPLES, spec.control.k)))
    p = rng.uniform(-2.0, 2.0, (CHECK_SAMPLES, grid.d))

    coefficients = spec.coefficients(x, nu)
    drift, cost, alpha = coefficients
    bv, lv = drift(a), cost(a)
    b_sup = float(np.abs(bv).max())
    l_sup = float(np.abs(lv).max())
    report["coefficient_bound"] = {
        "measured": max(b_sup, l_sup),
        "declared": spec.coef_bound,
        "ok": bool(max(b_sup, l_sup) <= spec.coef_bound + 1e-9),
    }

    x2 = rng.random((CHECK_SAMPLES, grid.d))
    dist = torus_distance(x, x2)
    drift2, cost2, _ = spec.coefficients(x2, nu)
    bv2, lv2 = drift2(a), cost2(a)
    num = np.abs(bv - bv2).max(axis=-1) + np.abs(lv - lv2)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = np.where(dist > 1e-9, num / np.maximum(dist, 1e-300), 0.0)
    lip = float(ratios.max())
    report["coefficient_x_lipschitz"] = {
        "measured": lip,
        "declared": 2.0 * spec.coef_lip_x,
        "ok": bool(lip <= 2.0 * spec.coef_lip_x + 1e-9),
    }

    if alpha is not None:
        a_closed = optimal_control(spec, coefficients, p)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            a_brute = brute_force_argmax(spec, coefficients, p, mesh=1025)
        spacing = _mesh_spacing(spec.control, 1025)
        gap = float(np.linalg.norm(a_closed - a_brute, axis=-1).max())
        report["closed_form_vs_brute_force"] = {
            "measured": gap,
            "bound": 2.0 * spacing,
            "ok": bool(gap <= 2.0 * spacing),
        }

    hp = hamiltonian_gradient_p(spec, coefficients, p)
    fd = np.zeros_like(hp)
    smooth = np.ones(CHECK_SAMPLES, dtype=bool)
    edge = (1.0 - 1e-9) * spec.control.radius
    for ax in range(grid.d):
        dp = np.zeros(grid.d)
        dp[ax] = fd_step
        ends = (p + dp, p - dp)
        h_up, h_down = (hamiltonian_value(spec, coefficients, q) for q in ends)
        fd[:, ax] = (h_up - h_down) / (2.0 * fd_step)
        up, down = (np.linalg.norm(optimal_control(spec, coefficients, q), axis=-1) for q in ends)
        smooth &= (up >= edge) == (down >= edge)
    err = np.abs(hp - fd).max(axis=-1)[smooth]
    fd_err = float(err.max()) if err.size else 0.0
    report["gradient_envelope_identity"] = {
        "measured": fd_err,
        "bound": 1e-6,
        "ok": bool(fd_err <= 1e-6),
    }

    # W1-Lipschitz constant of the maximizer in the measure, over the same x
    # and p; its measures are drawn last, so the checks above keep their samples
    lip_mu = 0.0
    for _ in range(4):
        nu1, nu2 = _random_atoms(spec, grid, rng), _random_atoms(spec, grid, rng)
        a1 = optimal_control(spec, spec.coefficients(x, _constant_read(spec, nu1)), p)
        a2 = optimal_control(spec, spec.coefficients(x, _constant_read(spec, nu2)), p)
        gap = float(np.linalg.norm(a1 - a2, axis=-1).max())
        lip_mu = max(lip_mu, gap / wasserstein1_joint(nu1, nu2))
    report["control_measure_lipschitz"] = {
        "measured": lip_mu,
        "declared": spec.control_lip_measure,
        "ok": bool(lip_mu <= spec.control_lip_measure + 1e-9),
    }
    report["all_ok"] = all(v["ok"] for v in report.values() if isinstance(v, dict))
    return report
