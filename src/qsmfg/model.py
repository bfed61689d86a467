"""Control problem data: drift, running cost, Hamiltonian, optimal control.

A model is a coefficient map together with a compact control set and
declared regularity constants.  The coefficient map binds the state points x
and a measure nu once and returns the two control functions a -> b(x,a;nu)
and a -> l(x,a;nu); every measure-dependent term is computed at binding.  In
the quasi-stationary system the measure is frozen within a time slice, so a
slice's HJB solve binds once and evaluates every policy through the bound
functions.  ModelSpec.drift and ModelSpec.running_cost are the pointwise
reads of the same map.  The Hamiltonian is always the control supremum

    H(x, p; nu) = sup_a { -p . b(x,a;nu) - l(x,a;nu) },

evaluated through the model's closed-form maximizer when one is supplied and
through brute-force mesh search otherwise.  nu is the one joint
state-control measure the Hamiltonian reads at a time slice, resolved by
slice_measure: the current measure for instant models, the unit-mass kernel
aggregate of the past trajectory for memory models.

Coefficients are vectorized: x has shape (..., d), a has shape (..., k),
broadcastable against each other; b returns (..., d) and l returns (...,).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .grid import Grid, node_values, torus_distance
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

    def mesh(self, m: int = 257) -> np.ndarray:
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

    kind is "instant" for models reading the current joint measure and
    "history" for memory models reading the past trajectory.  Declared
    constants are used by the validator spot-checks, never by the solvers.

    coefficients(x, nu) returns the pair (a -> b(x, a; nu), a -> l(x, a; nu))
    of control functions with x and nu bound.
    """

    name: str
    kind: str
    control: ControlSet
    coefficients: Callable  # (x, nu) -> (a -> b (..., d), a -> l (...,))
    closed_form_control: Optional[Callable] = None  # alpha*(x, p, nu) -> (..., k)
    coef_bound: float = 1.0  # K: sup |b|, sup |l|
    coef_lip_x: float = 0.0  # L: Lipschitz constant in x
    control_lip_measure: float = 0.0  # lambda_0 of the maximizer w.r.t. W1
    kernel: Optional[Callable] = None  # memory kernel K(tau), history models
    params: dict = field(default_factory=dict)

    def drift(self, x, a, nu) -> np.ndarray:
        """b(x, a; nu), shape (..., d)."""
        return self.coefficients(x, nu)[0](a)

    def running_cost(self, x, a, nu) -> np.ndarray:
        """l(x, a; nu), shape (...,)."""
        return self.coefficients(x, nu)[1](a)


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
    x: np.ndarray,
    p: np.ndarray,
    nu: JointMeasure,
    mesh: int = 257,
    _warn: bool = True,
) -> np.ndarray:
    """Exhaustive maximization of -p.b - l over the control mesh.

    Ties go to the first mesh point.  Refining the mesh can only improve the
    achieved value because refined meshes contain the coarse ones.
    """
    x = np.atleast_2d(np.asarray(x, dtype=float))
    p = np.atleast_2d(np.asarray(p, dtype=float))
    cand = spec.control.mesh(mesh)  # (M, k)
    xb = x[:, None, :]
    pb = p[:, None, :]
    ab = np.broadcast_to(cand[None, :, :], (x.shape[0],) + cand.shape)
    drift, cost = spec.coefficients(xb, nu)
    bv, lv = drift(ab), cost(ab)
    objective = -(pb * bv).sum(axis=-1) - lv  # (N, M)
    best = np.argmax(objective, axis=1)
    if _warn:
        _warn_non_unique(cand, objective, best, _mesh_spacing(spec.control, mesh))
    return cand[best]


def _warn_non_unique(cand, objective, best, spacing) -> None:
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


def optimal_control(spec: ModelSpec, x: np.ndarray, p: np.ndarray, nu: JointMeasure) -> np.ndarray:
    """The maximizing control; closed form when available, brute force otherwise."""
    if spec.closed_form_control is not None:
        a = spec.closed_form_control(np.asarray(x, dtype=float), np.asarray(p, dtype=float), nu)
        return spec.control.project(a)
    return brute_force_argmax(spec, x, p, nu)


def hamiltonian_value(spec: ModelSpec, x: np.ndarray, p: np.ndarray, nu: JointMeasure) -> np.ndarray:
    """H(x,p;nu) evaluated at the optimal control."""
    x = np.asarray(x, dtype=float)
    p = np.asarray(p, dtype=float)
    a = optimal_control(spec, x, p, nu)
    drift, cost = spec.coefficients(x, nu)
    return -(p * drift(a)).sum(axis=-1) - cost(a)


def hamiltonian_gradient_p(spec: ModelSpec, x: np.ndarray, p: np.ndarray, nu: JointMeasure) -> np.ndarray:
    """dH/dp = -b(x, alpha*(x,p;nu); nu), the envelope identity."""
    x = np.asarray(x, dtype=float)
    a = optimal_control(spec, x, p, nu)
    return -spec.drift(x, a, nu)


def policy_field(spec: ModelSpec, grid: Grid, du: np.ndarray, nu: JointMeasure) -> np.ndarray:
    """Optimal control at every node for the value-function gradient du, an
    (n^d, d) array: the policy, a read-only (n^d, k) array whose row i is the
    control at node i."""
    a = optimal_control(spec, grid.coordinates(), node_values(grid, du, "gradient", grid.d), nu)
    a.setflags(write=False)
    return a


def drift_field(spec: ModelSpec, grid: Grid, policy: np.ndarray, nu: JointMeasure) -> np.ndarray:
    """The Fokker-Planck drift H_p = -b(x, a(x); nu) of the (n^d, k) policy
    as an (n^d, d) array."""
    return -spec.drift(grid.coordinates(), node_values(grid, policy, "policy", spec.control.k), nu)


# ---------------------------------------------------------------------------
# built-in models


def _quadratic_couplings(delta, eps, kappa, width, radius):
    """Shared coupling terms: cost weight from the mean control, drift bump
    from a periodic Gaussian average of controls around x.  An empty measure
    (a memory model's aggregate before any mass has built up) decouples.

    The bump weighs every atom by its torus distance to x.  When nu's atoms
    sit at the nodes of nu.grid (a pushforward) and x, flattened to (-1, d),
    is those same nodes (the HJB and FP bindings, and the (N, 1, d) ones of
    regularity_report and brute_force_argmax), the distances are read from
    the grid's node_distances(); every other call (memory aggregates, which
    carry no grid, and off-grid points) computes them with torus_distance.
    Both compute the same elementwise arithmetic, so the bump is bit-equal.
    """

    def cost_weight(nu):
        if nu.n_atoms == 0:
            return delta
        mean_a = float(np.linalg.norm(nu.mean_control()))
        return float(np.clip(delta + eps * mean_a, delta, delta + eps * radius))

    def drift_bump(x, nu):
        # x: (..., d) -> (..., d)
        if nu.n_atoms == 0 or kappa == 0.0:
            return np.zeros(x.shape)
        dist = _atom_distances(x, nu)  # (..., N)
        phi = np.exp(-(dist**2) / (2.0 * width**2))
        return kappa * np.einsum("...n,nk->...k", phi * nu.w, nu.a)

    return cost_weight, drift_bump


def _atom_distances(x: np.ndarray, nu: JointMeasure) -> np.ndarray:
    """torus_distance(x[..., None, :], nu.x), read from nu.grid's node
    distances when both x and nu's atoms are that grid's nodes."""
    grid = nu.grid
    if grid is not None:
        nodes = grid.coordinates()
        if np.array_equal(nu.x, nodes) and np.array_equal(x.reshape(-1, x.shape[-1]), nodes):
            return grid.node_distances().reshape(x.shape[:-1] + (grid.size,))
    return torus_distance(x[..., None, :], nu.x)


def _make_quadratic_model(
    name: str,
    kind: str,
    d: int,
    delta: float,
    eps: float,
    kappa: float,
    width: float,
    radius: float,
    potential: float = 0.0,
    kernel=None,
    params: dict | None = None,
) -> ModelSpec:
    """Quadratic-cost model with drift b = b0(x;nu) - a and cost
    |a|^2 / (2 l0(nu)) + V(x).  Binding computes b0(x;nu), l0(nu) and V(x).

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
        bump = drift_bump(x, nu)
        two_l0 = 2.0 * cost_weight(nu)
        if potential == 0.0:
            state_cost = np.zeros(x.shape[:-1])
        else:
            state_cost = potential * np.cos(2.0 * np.pi * x[..., 0])

        def b(a):
            return bump - np.asarray(a, dtype=float)

        def ell(a):
            a = np.asarray(a, dtype=float)
            return (a**2).sum(axis=-1) / two_l0 + state_cost

        return b, ell

    def alpha_star(x, p, nu):
        p = np.asarray(p, dtype=float)
        l0 = cost_weight(nu)
        norm = np.linalg.norm(p, axis=-1, keepdims=True)
        inside = l0 * norm <= radius
        radial = radius * p / np.maximum(norm, 1e-300)
        return np.where(inside, l0 * p, radial)

    lip_phi = np.exp(-0.5) / width  # max slope of the Gaussian bump
    coef_bound = max(kappa * radius + radius, radius**2 / (2.0 * delta) + abs(potential))
    coef_lip_x = kappa * radius * lip_phi + 2.0 * np.pi * abs(potential)
    return ModelSpec(
        name=name,
        kind=kind,
        control=control,
        coefficients=coefficients,
        closed_form_control=alpha_star,
        coef_bound=coef_bound,
        coef_lip_x=coef_lip_x,
        control_lip_measure=radius * eps / delta,
        kernel=kernel,
        params=dict(
            params or {},
            delta=delta, eps=eps, kappa=kappa, width=width, radius=radius, potential=potential,
        ),
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
    return _make_quadratic_model(
        "example1", "instant", d, delta, eps, kappa, width, radius, potential=potential
    )


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
    return _make_quadratic_model(
        "example2",
        "history",
        d,
        delta,
        eps,
        kappa,
        width,
        radius,
        potential=potential,
        kernel=kernel,
        params={"kernel_kind": kernel_kind, "kernel_scale": kernel_scale},
    )


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

        return b, ell

    def alpha_star(x, p, nu):
        p = np.asarray(p, dtype=float)
        norm = np.linalg.norm(p, axis=-1, keepdims=True)
        scale = np.where(norm > radius, radius / np.maximum(norm, 1e-300), 1.0)
        return p * scale

    coef_bound = max(
        drift_amplitude + radius,
        radius**2 / 2.0 + potential_amplitude + coupling_weight * radius,
    )
    return ModelSpec(
        name="separated",
        kind="instant",
        control=control,
        coefficients=coefficients,
        closed_form_control=alpha_star,
        coef_bound=coef_bound,
        coef_lip_x=2.0 * np.pi * max(drift_amplitude, potential_amplitude),
        control_lip_measure=0.0,
        params={
            "radius": radius,
            "drift_amplitude": drift_amplitude,
            "potential_amplitude": potential_amplitude,
            "coupling_weight": coupling_weight,
        },
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
    n_samples: int = 64,
    seed: int = 0,
    fd_step: float = 1e-5,
) -> dict:
    """Spot-check the declared bounds and closed forms on random samples.

    Returns a report dict with one entry per check: measured value, bound,
    and a pass flag.  Intended for the CLI `validate` subcommand; failures
    are reported, never raised.
    """
    rng = np.random.default_rng(seed)
    report: dict[str, dict] = {}
    nu = _constant_read(spec, _random_atoms(spec, grid, rng))
    x = rng.random((n_samples, grid.d))
    a = spec.control.project(rng.uniform(-1.0, 1.0, (n_samples, spec.control.k)))
    p = rng.uniform(-2.0, 2.0, (n_samples, grid.d))

    bv = spec.drift(x, a, nu)
    lv = spec.running_cost(x, a, nu)
    b_sup = float(np.abs(bv).max())
    l_sup = float(np.abs(lv).max())
    report["coefficient_bound"] = {
        "measured": max(b_sup, l_sup),
        "declared": spec.coef_bound,
        "ok": bool(max(b_sup, l_sup) <= spec.coef_bound + 1e-9),
    }

    x2 = rng.random((n_samples, grid.d))
    dist = torus_distance(x, x2)
    bv2 = spec.drift(x2, a, nu)
    lv2 = spec.running_cost(x2, a, nu)
    num = np.abs(bv - bv2).max(axis=-1) + np.abs(lv - lv2)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = np.where(dist > 1e-9, num / np.maximum(dist, 1e-300), 0.0)
    lip = float(ratios.max())
    report["coefficient_x_lipschitz"] = {
        "measured": lip,
        "declared": 2.0 * spec.coef_lip_x,
        "ok": bool(lip <= 2.0 * spec.coef_lip_x + 1e-9),
    }

    if spec.closed_form_control is not None:
        a_closed = optimal_control(spec, x, p, nu)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            a_brute = brute_force_argmax(spec, x, p, nu, mesh=1025)
        spacing = _mesh_spacing(spec.control, 1025)
        gap = float(np.linalg.norm(a_closed - a_brute, axis=-1).max())
        report["closed_form_vs_brute_force"] = {
            "measured": gap,
            "bound": 2.0 * spacing,
            "ok": bool(gap <= 2.0 * spacing),
        }

    # envelope identity away from points where the maximizer may switch branch
    hp = hamiltonian_gradient_p(spec, x, p, nu)
    fd = np.zeros_like(hp)
    for ax in range(grid.d):
        dp = np.zeros(grid.d)
        dp[ax] = fd_step
        fd[:, ax] = (
            hamiltonian_value(spec, x, p + dp, nu) - hamiltonian_value(spec, x, p - dp, nu)
        ) / (2.0 * fd_step)
    err = np.abs(hp - fd).max(axis=-1)
    # maximizers of the built-in models switch branch where |p| crosses
    # radius / cost-weight; exclude a margin around that whole window
    radius = spec.control.radius
    delta = float(spec.params.get("delta", 1.0))
    eps = float(spec.params.get("eps", 0.0))
    lo_switch = radius / (delta + eps * radius)
    hi_switch = radius / delta
    norm = np.linalg.norm(p, axis=-1)
    away = (norm < lo_switch - 0.05) | (norm > hi_switch + 0.05)
    err = err[away] if away.any() else err
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
        a1 = optimal_control(spec, x, p, _constant_read(spec, nu1))
        a2 = optimal_control(spec, x, p, _constant_read(spec, nu2))
        gap = float(np.linalg.norm(a1 - a2, axis=-1).max())
        lip_mu = max(lip_mu, gap / wasserstein1_joint(nu1, nu2))
    report["control_measure_lipschitz"] = {
        "measured": lip_mu,
        "declared": spec.control_lip_measure,
        "ok": bool(lip_mu <= spec.control_lip_measure + 1e-9),
    }
    report["all_ok"] = all(v["ok"] for v in report.values() if isinstance(v, dict))
    return report
