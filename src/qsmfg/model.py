"""Control problem data: drift, running cost, Hamiltonian, optimal control.

A model is a bundle of coefficient functions b(x,a;ctx) and l(x,a;ctx)
together with a compact control set and declared regularity constants.  The
Hamiltonian is always the control supremum

    H(x, p; ctx) = sup_a { -p . b(x,a;ctx) - l(x,a;ctx) },

evaluated through the model's closed-form maximizer when one is supplied and
through brute-force mesh search otherwise.  Contexts carry either the joint
state-control measure frozen at the current instant or, for memory models,
the past trajectory of joint measures.

Coefficient functions are vectorized: x has shape (..., d), a has shape
(..., k), broadcastable against each other; b returns (..., d) and l
returns (...,).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence, Union

import numpy as np

from .grid import Grid, GridField, torus_distance
from .measure import ControlField, JointMeasure

__all__ = [
    "ControlSet",
    "InstantContext",
    "HistoryContext",
    "MuContext",
    "ModelSpec",
    "hamiltonian_value",
    "optimal_control",
    "hamiltonian_gradient_p",
    "brute_force_argmax",
    "memory_aggregate",
    "policy_field",
    "drift_field",
    "example_one",
    "example_two",
    "separated_cost",
    "build_model",
    "MODEL_BUILDERS",
    "check_model",
    "MeshResolutionWarning",
    "NonUniqueMaximizerWarning",
]


class MeshResolutionWarning(UserWarning):
    """Brute-force maximum sits on a mesh edge with a large inward slope."""


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
    """Compact control set A in R^k: a centered ball or an axis box."""

    kind: str  # "ball" | "box"
    k: int
    radius: float = 1.0
    lo: tuple = ()
    hi: tuple = ()
    mesh_resolution: int = 257

    def __post_init__(self) -> None:
        if self.kind not in ("ball", "box"):
            raise ValueError(f"unknown control set kind {self.kind!r}")
        if self.kind == "ball" and self.radius <= 0:
            raise ValueError("ball control set needs radius > 0")
        if self.kind == "box":
            lo = np.asarray(self.lo, dtype=float)
            hi = np.asarray(self.hi, dtype=float)
            if lo.size != self.k or hi.size != self.k or np.any(lo >= hi):
                raise ValueError("box control set needs lo < hi componentwise of length k")

    def zero_control(self) -> np.ndarray:
        """The point of A closest to the origin."""
        if self.kind == "ball":
            return np.zeros(self.k)
        return np.clip(np.zeros(self.k), np.asarray(self.lo), np.asarray(self.hi))

    def project(self, a: np.ndarray) -> np.ndarray:
        a = np.asarray(a, dtype=float)
        if self.kind == "ball":
            norm = np.linalg.norm(a, axis=-1, keepdims=True)
            scale = np.where(norm > self.radius, self.radius / np.maximum(norm, 1e-300), 1.0)
            return a * scale
        return np.clip(a, np.asarray(self.lo), np.asarray(self.hi))

    def contains(self, a: np.ndarray, tol: float = 1e-12) -> np.ndarray:
        a = np.asarray(a, dtype=float)
        if self.kind == "ball":
            return np.linalg.norm(a, axis=-1) <= self.radius + tol
        lo = np.asarray(self.lo)
        hi = np.asarray(self.hi)
        return np.all((a >= lo - tol) & (a <= hi + tol), axis=-1)

    def mesh(self, m: int | None = None) -> np.ndarray:
        """Brute-force candidate controls, shape (M, k).

        Point counts snap to 2^j + 1 per axis so meshes nest under
        refinement; the first mesh point is the documented tie-break winner.
        """
        m = self.mesh_resolution if m is None else m
        mm = _snap_mesh_count(m)
        if self.kind == "box":
            axes = [np.linspace(self.lo[i], self.hi[i], mm) for i in range(self.k)]
            grids = np.meshgrid(*axes, indexing="ij")
            return np.stack([g.ravel() for g in grids], axis=-1)
        if self.k == 1:
            return np.linspace(-self.radius, self.radius, mm)[:, None]
        if self.k == 2:
            # polar mesh: nested radii, angle count a power of two, exact boundary ring
            mr = _snap_mesh_count(int(np.ceil(np.sqrt(mm))))
            na = 2 ** int(np.ceil(np.log2(4 * mr)))
            radii = np.linspace(0.0, self.radius, mr)
            angles = 2.0 * np.pi * np.arange(na) / na
            rr, tt = np.meshgrid(radii[1:], angles, indexing="ij")
            pts = np.stack([rr.ravel() * np.cos(tt.ravel()), rr.ravel() * np.sin(tt.ravel())], axis=-1)
            return np.vstack([np.zeros((1, 2)), pts])
        raise ValueError(f"mesh generation supports k <= 2, got k={self.k}")


@dataclass(frozen=True)
class InstantContext:
    """The joint measure frozen at the current instant (no anticipation)."""

    mu: JointMeasure


class HistoryContext:
    """Past trajectory of joint measures up to time t, on the solver time grid."""

    def __init__(self, t: float, times: Sequence[float], measures: Sequence[JointMeasure]):
        times = np.asarray(times, dtype=float)
        if len(times) != len(measures):
            raise ValueError("times and measures disagree in length")
        if len(times) == 0 or t > times[-1] + 1e-9:
            raise ValueError(f"trajectory (up to {times[-1] if len(times) else None}) shorter than t={t}")
        self.t = float(t)
        self.times = times
        self.measures = tuple(measures)
        self._aggregate_cache: dict[int, JointMeasure] = {}

    def aggregate(self, kernel: Callable[[np.ndarray], np.ndarray]) -> JointMeasure:
        key = id(kernel)
        if key not in self._aggregate_cache:
            self._aggregate_cache[key] = memory_aggregate(self.times, self.measures, kernel, self.t)
        return self._aggregate_cache[key]


MuContext = Union[InstantContext, HistoryContext]


def memory_aggregate(
    times: Sequence[float],
    measures: Sequence[JointMeasure],
    kernel: Callable[[np.ndarray], np.ndarray],
    t: float,
) -> JointMeasure:
    """Trapezoid-rule aggregate of a measure trajectory weighted by a kernel.

    Returns the nonnegative measure with total mass equal to the trapezoid
    value of the kernel integral over [0, t]; atoms are the concatenation of
    the per-slice atoms scaled by their quadrature weight.
    """
    times = np.asarray(times, dtype=float)
    if len(times) != len(measures):
        raise ValueError("times and measures disagree in length")
    if len(times) == 0 or t > times[-1] + 1e-9:
        raise ValueError("trajectory shorter than t")
    upto = int(np.searchsorted(times, t - 1e-12, side="left"))
    upto = min(upto, len(times) - 1)
    if abs(times[upto] - t) > 1e-9:
        raise ValueError(f"t={t} is not a trajectory grid point")
    if upto == 0:
        first = measures[0]
        return JointMeasure.empty(first.x.shape[1], first.a.shape[1])
    sub = times[: upto + 1]
    kvals = np.asarray(kernel(sub), dtype=float)
    if np.any(kvals < 0):
        raise ValueError("kernel must be nonnegative")
    dt = np.diff(sub)
    quad = np.zeros(upto + 1)
    quad[:-1] += 0.5 * dt
    quad[1:] += 0.5 * dt
    weights = quad * kvals
    xs, as_, ws = [], [], []
    for j in range(upto + 1):
        if weights[j] == 0.0:
            continue
        nu = measures[j]
        xs.append(nu.x)
        as_.append(nu.a)
        ws.append(nu.w * weights[j])
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
    """

    name: str
    kind: str
    control: ControlSet
    drift: Callable  # b(x, a, ctx) -> (..., d)
    running_cost: Callable  # l(x, a, ctx) -> (...,)
    closed_form_control: Optional[Callable] = None  # alpha*(x, p, ctx) -> (..., k)
    coef_bound: float = 1.0  # K: sup |b|, sup |l|
    coef_lip_x: float = 0.0  # L: Lipschitz constant in x
    coef_lip_measure: float = 0.0  # Lipschitz in the measure w.r.t. W1
    control_lip_measure: float = 0.0  # lambda_0 of the maximizer w.r.t. W1
    control_lip_xp: float = 1.0  # lambda_1 of the maximizer w.r.t. (x, p)
    drift_lip_control: Optional[float] = None  # Lipschitz of b in a, if declared
    measure_cost: Optional[Callable] = None  # additive cost term l1(mu), separated models
    kernel: Optional[Callable] = None  # memory kernel K(tau), history models
    params: dict = field(default_factory=dict)

    def context_kind_ok(self, ctx: MuContext) -> bool:
        if self.kind == "instant":
            return isinstance(ctx, InstantContext)
        return isinstance(ctx, HistoryContext)


def _check_ctx(spec: ModelSpec, ctx: MuContext) -> None:
    if not spec.context_kind_ok(ctx):
        raise TypeError(
            f"model {spec.name!r} expects a {spec.kind} context, got {type(ctx).__name__}"
        )


def brute_force_argmax(
    spec: ModelSpec,
    x: np.ndarray,
    p: np.ndarray,
    ctx: MuContext,
    mesh: int | None = None,
    _warn: bool = True,
) -> np.ndarray:
    """Exhaustive maximization of -p.b - l over the control mesh.

    Ties go to the first mesh point.  Refining the mesh can only improve the
    achieved value because refined meshes contain the coarse ones.
    """
    _check_ctx(spec, ctx)
    x = np.atleast_2d(np.asarray(x, dtype=float))
    p = np.atleast_2d(np.asarray(p, dtype=float))
    cand = spec.control.mesh(mesh)  # (M, k)
    xb = x[:, None, :]
    pb = p[:, None, :]
    ab = np.broadcast_to(cand[None, :, :], (x.shape[0],) + cand.shape)
    bv = spec.drift(xb, ab, ctx)
    lv = spec.running_cost(xb, ab, ctx)
    objective = -(pb * bv).sum(axis=-1) - lv  # (N, M)
    best = np.argmax(objective, axis=1)
    if _warn:
        _brute_force_diagnostics(spec, cand, objective, best)
    return cand[best]


def _brute_force_diagnostics(spec, cand, objective, best) -> None:
    m = cand.shape[0]
    best_vals = objective[np.arange(objective.shape[0]), best]
    # non-uniqueness: another near-maximal candidate far from the winner
    spacing = _mesh_spacing(spec.control, m)
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
    # coarse mesh: winner on the mesh hull with a steep inward slope
    if spec.control.kind == "ball":
        on_hull = np.linalg.norm(cand[best], axis=-1) >= spec.control.radius - 1e-12
    else:
        lo = np.asarray(spec.control.lo)
        hi = np.asarray(spec.control.hi)
        on_hull = np.any((cand[best] <= lo + 1e-12) | (cand[best] >= hi - 1e-12), axis=-1)
    if np.any(on_hull) and m < 9:
        warnings.warn(
            "brute-force maximum on the control-set boundary with a coarse mesh; "
            "the supremum may be unreliable",
            MeshResolutionWarning,
            stacklevel=3,
        )


def _mesh_spacing(control: ControlSet, m: int) -> float:
    mm = _snap_mesh_count(m)
    if control.kind == "ball":
        return 2.0 * control.radius / (mm - 1)
    widths = np.asarray(control.hi) - np.asarray(control.lo)
    return float(widths.max() / (mm - 1))


def optimal_control(spec: ModelSpec, x: np.ndarray, p: np.ndarray, ctx: MuContext) -> np.ndarray:
    """The maximizing control; closed form when available, brute force otherwise."""
    _check_ctx(spec, ctx)
    if spec.closed_form_control is not None:
        a = spec.closed_form_control(np.asarray(x, dtype=float), np.asarray(p, dtype=float), ctx)
        return spec.control.project(a)
    return brute_force_argmax(spec, x, p, ctx)


def hamiltonian_value(spec: ModelSpec, x: np.ndarray, p: np.ndarray, ctx: MuContext) -> np.ndarray:
    """H(x,p;ctx) evaluated at the optimal control."""
    x = np.asarray(x, dtype=float)
    p = np.asarray(p, dtype=float)
    a = optimal_control(spec, x, p, ctx)
    bv = spec.drift(x, a, ctx)
    lv = spec.running_cost(x, a, ctx)
    return -(p * bv).sum(axis=-1) - lv


def hamiltonian_gradient_p(spec: ModelSpec, x: np.ndarray, p: np.ndarray, ctx: MuContext) -> np.ndarray:
    """dH/dp = -b(x, alpha*(x,p;ctx); ctx), the envelope identity."""
    x = np.asarray(x, dtype=float)
    a = optimal_control(spec, x, p, ctx)
    return -spec.drift(x, a, ctx)


def policy_field(spec: ModelSpec, grid: Grid, du: Sequence[GridField], ctx: MuContext) -> ControlField:
    """Optimal control at every node for the given value-function gradient."""
    x = grid.coordinates()
    p = np.stack([g.flat() for g in du], axis=-1)
    a = optimal_control(spec, x, p, ctx)
    return ControlField(grid, a.reshape(grid.shape + (spec.control.k,)))


def drift_values(spec: ModelSpec, grid: Grid, policy: ControlField, ctx: MuContext) -> np.ndarray:
    """b(x, a(x); ctx) at every node, shape (n^d, d)."""
    x = grid.coordinates()
    return spec.drift(x, policy.flat(), ctx)


def drift_field(spec: ModelSpec, grid: Grid, policy: ControlField, ctx: MuContext) -> tuple[GridField, ...]:
    """The Fokker-Planck drift H_p = -b(x, a(x); ctx) as a vector grid field."""
    g = -drift_values(spec, grid, policy, ctx)
    return tuple(GridField(grid, g[:, ax].reshape(grid.shape)) for ax in range(grid.d))


def running_cost_values(spec: ModelSpec, grid: Grid, policy: ControlField, ctx: MuContext) -> np.ndarray:
    x = grid.coordinates()
    return spec.running_cost(x, policy.flat(), ctx)


# ---------------------------------------------------------------------------
# built-in models


def _instant_measure(ctx: MuContext, kernel=None) -> tuple[JointMeasure | None, float]:
    """Resolve a context to (measure, mass): instant measures pass through,
    history contexts aggregate through the kernel and normalize when the
    aggregate carries positive mass."""
    if isinstance(ctx, InstantContext):
        return ctx.mu, ctx.mu.mass()
    agg = ctx.aggregate(kernel)
    mass = agg.mass()
    if mass <= 0.0:
        return None, 0.0
    return agg.scaled(1.0 / mass), 1.0


def _quadratic_couplings(delta, eps, kappa, width, radius, kernel=None):
    """Shared coupling terms: cost weight from the mean control, drift bump
    from a periodic Gaussian average of controls around x."""

    def cost_weight(ctx):
        nu, _ = _instant_measure(ctx, kernel)
        if nu is None or nu.n_atoms == 0:
            return delta
        mean_a = float(np.linalg.norm(nu.mean_control()))
        return float(np.clip(delta + eps * mean_a, delta, delta + eps * radius))

    def drift_bump(x, ctx):
        # x: (..., d) -> (..., d); zero coupling for empty aggregates
        nu, _ = _instant_measure(ctx, kernel)
        if nu is None or nu.n_atoms == 0 or kappa == 0.0:
            return np.zeros(x.shape)
        dist = torus_distance(x[..., None, :], nu.x)  # (..., N)
        phi = np.exp(-(dist**2) / (2.0 * width**2))
        return kappa * np.einsum("...n,nk->...k", phi * nu.w, nu.a)

    return cost_weight, drift_bump


def _make_quadratic_model(
    name: str,
    kind: str,
    d: int,
    delta: float,
    eps: float,
    kappa: float,
    width: float,
    radius: float,
    mesh: int,
    potential: float = 0.0,
    kernel=None,
    params: dict | None = None,
) -> ModelSpec:
    """Quadratic-cost model with drift b = b0(x;nu) - a and cost
    |a|^2 / (2 l0(nu)) + V(x).

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
    control = ControlSet("ball", k=d, radius=radius, mesh_resolution=mesh)
    cost_weight, drift_bump = _quadratic_couplings(delta, eps, kappa, width, radius, kernel)

    def b(x, a, ctx):
        return drift_bump(np.asarray(x, dtype=float), ctx) - np.asarray(a, dtype=float)

    def ell(x, a, ctx):
        x = np.asarray(x, dtype=float)
        a = np.asarray(a, dtype=float)
        quad = (a**2).sum(axis=-1) / (2.0 * cost_weight(ctx))
        if potential == 0.0:
            return quad + np.zeros(x.shape[:-1])
        return quad + potential * np.cos(2.0 * np.pi * x[..., 0])

    def alpha_star(x, p, ctx):
        p = np.asarray(p, dtype=float)
        l0 = cost_weight(ctx)
        norm = np.linalg.norm(p, axis=-1, keepdims=True)
        inside = l0 * norm <= radius
        radial = radius * p / np.maximum(norm, 1e-300)
        return np.where(inside, l0 * p, radial)

    lip_phi = np.exp(-0.5) / width  # max slope of the Gaussian bump
    coef_bound = max(kappa * radius + radius, radius**2 / (2.0 * delta) + abs(potential))
    coef_lip_x = kappa * radius * lip_phi + 2.0 * np.pi * abs(potential)
    coef_lip_measure = max(kappa * max(1.0, radius * lip_phi), radius**2 * eps / (2.0 * delta**2))
    return ModelSpec(
        name=name,
        kind=kind,
        control=control,
        drift=b,
        running_cost=ell,
        closed_form_control=alpha_star,
        coef_bound=coef_bound,
        coef_lip_x=coef_lip_x,
        coef_lip_measure=coef_lip_measure,
        control_lip_measure=radius * eps / delta,
        control_lip_xp=delta + eps * radius,
        drift_lip_control=1.0,
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
    mesh: int = 257,
    potential: float = 0.0,
) -> ModelSpec:
    """Instant-context quadratic model; the maximizer is (R eps / delta)-Lipschitz
    in the measure, so eps and delta tune the measure fixed point above or
    below the contraction threshold."""
    return _make_quadratic_model(
        "example1", "instant", d, delta, eps, kappa, width, radius, mesh, potential=potential
    )


def example_two(
    d: int = 1,
    delta: float = 1.0,
    eps: float = 0.1,
    kappa: float = 0.1,
    width: float = 0.2,
    radius: float = 1.0,
    mesh: int = 257,
    potential: float = 0.0,
    kernel_kind: str = "constant",
    kernel_scale: float = 1.0,
) -> ModelSpec:
    """Memory model: the quadratic couplings read the kernel-weighted time
    aggregate of the past joint-measure trajectory (normalized when it has
    positive mass, decoupled when empty)."""
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
        mesh,
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
    mesh: int = 257,
) -> ModelSpec:
    """Separated dependence on the measure: b = b0(x) - a and
    l = |a|^2/2 + V(x) + l1(mu) with l1 linear in the mean control.

    The Hamiltonian splits as H0(x,p) - l1(mu), so gradients of the value
    function never see the measure: discounted solutions for two measures
    differ by the constant (l1(mu1) - l1(mu2)) / rho and ergodic solutions
    coincide.
    """
    control = ControlSet("ball", k=d, radius=radius, mesh_resolution=mesh)

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

    def b(x, a, ctx):
        return b0(x) - np.asarray(a, dtype=float)

    def ell(x, a, ctx):
        a = np.asarray(a, dtype=float)
        base = (a**2).sum(axis=-1) / 2.0 + potential(x)
        return base + ell1(ctx.mu)

    def alpha_star(x, p, ctx):
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
        drift=b,
        running_cost=ell,
        closed_form_control=alpha_star,
        coef_bound=coef_bound,
        coef_lip_x=2.0 * np.pi * max(drift_amplitude, potential_amplitude),
        coef_lip_measure=coupling_weight,
        control_lip_measure=0.0,
        control_lip_xp=1.0,
        drift_lip_control=1.0,
        measure_cost=ell1,
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


def _random_context(spec: ModelSpec, grid: Grid, rng: np.random.Generator) -> MuContext:
    n_atoms = 24
    x = rng.random((n_atoms, grid.d))
    a = spec.control.project(rng.uniform(-1.0, 1.0, (n_atoms, spec.control.k)))
    w = rng.random(n_atoms)
    w = w / w.sum()
    mu = JointMeasure(x, a, w)
    if spec.kind == "instant":
        return InstantContext(mu)
    times = np.linspace(0.0, 0.5, 6)
    return HistoryContext(0.5, times, [mu] * 6)


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
    ctx = _random_context(spec, grid, rng)
    x = rng.random((n_samples, grid.d))
    a = spec.control.project(rng.uniform(-1.0, 1.0, (n_samples, spec.control.k)))
    p = rng.uniform(-2.0, 2.0, (n_samples, grid.d))

    bv = spec.drift(x, a, ctx)
    lv = spec.running_cost(x, a, ctx)
    b_sup = float(np.abs(bv).max())
    l_sup = float(np.abs(lv).max())
    report["coefficient_bound"] = {
        "measured": max(b_sup, l_sup),
        "declared": spec.coef_bound,
        "ok": bool(max(b_sup, l_sup) <= spec.coef_bound + 1e-9),
    }

    x2 = rng.random((n_samples, grid.d))
    dist = torus_distance(x, x2)
    bv2 = spec.drift(x2, a, ctx)
    lv2 = spec.running_cost(x2, a, ctx)
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
        a_closed = optimal_control(spec, x, p, ctx)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            a_brute = brute_force_argmax(spec, x, p, ctx, mesh=1025)
        spacing = _mesh_spacing(spec.control, 1025)
        gap = float(np.linalg.norm(a_closed - a_brute, axis=-1).max())
        report["closed_form_vs_brute_force"] = {
            "measured": gap,
            "bound": 2.0 * spacing,
            "ok": bool(gap <= 2.0 * spacing),
        }

    # envelope identity away from points where the maximizer may switch branch
    hp = hamiltonian_gradient_p(spec, x, p, ctx)
    fd = np.zeros_like(hp)
    for ax in range(grid.d):
        dp = np.zeros(grid.d)
        dp[ax] = fd_step
        fd[:, ax] = (
            hamiltonian_value(spec, x, p + dp, ctx) - hamiltonian_value(spec, x, p - dp, ctx)
        ) / (2.0 * fd_step)
    err = np.abs(hp - fd).max(axis=-1)
    if spec.control.kind == "ball":
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
    report["all_ok"] = all(v["ok"] for v in report.values() if isinstance(v, dict))
    return report
