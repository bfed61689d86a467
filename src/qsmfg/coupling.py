"""Drivers coupling the HJB, Fokker-Planck, and measure equations.

The agent reacts only to the present measure, so the discrete system is
causal: slice j's HJB and measure equations read only its density m_j (a
history model also reads the measures of the slices before it,
model.slice_measure), and m_{j+1} is one Fokker-Planck step from m_j with
slice j's drift.  One sweep in time order therefore solves the whole
system, forward substitution on a block lower-triangular system (Saad,
Iterative Methods for Sparse Linear Systems, 2003, ch. 4): each slice
iterates its own (w, mu) coupling, the local loop, then steps to the next
density.  The strategy names the local loop:

  field iteration ("gamma")    from a value-function gradient du: the
      joint-measure fixed point on m_j, then the HJB solve in its binding
      from its policy; the next du is the gradient of the new w, and the
      error the sup distance between the two.  Requires an instant model.

  measure iteration ("psi")    from a joint measure mu_j on m_j: the HJB
      solve in the binding of the measure the slice reads, then mu_j is the
      pushforward of m_j through the optimal policy; the error is the joint
      W1 between the new and the old mu_j.  Works for instant and history
      models and needs no inner contraction.

A slice starts from a given warm start or from the slice before's result
(gamma: its gradient, psi: its policy, which also warm-starts the HJB
solve); slice 0 starts from the zero gradient or the zero policy.  Its loop
stops at a step whose error meets outer_tol, after at most max_outer steps;
a slice that misses adds the "outer" failure, and the sweep goes on.  The
local loops are plain (Banach) iterations, which contract on every shipped
config and on strongly coupled example1 models.  Only the joint-measure
fixed point, whose map stops contracting for strong coupling, blends
policies (damping).  Like Howard's loop in hjb.py, it stops at a policy that
repeats the current measure's controls bit for bit, an exact fixed point,
without pushing forward or solving W1 again, and it returns the binding of
its measure, which gamma's HJB solve of the slice reads instead of binding
it again.

A solved sweep, the level, is finished by a closing sweep: the same loop
body, with exactly one local step per slice from the level's state (gamma:
the gradients of its w, psi: its policies), on the closing sweep's own
densities.  A solution stores each slice's density and policy, and its
joint measure is the pushforward of one through the other, so the measure
equation's pushforward form holds by construction.  One probe then
measures, rather than assumes, the per-slice residuals of the HJB and
measure equations.  A solve whose residuals miss a tolerance is reported as
measured, not retried: converged holds only when every tolerance was met,
and diagnostics["failures"] names each check that missed one.

The ergodic system is solved by driving the discounted solver through a
decreasing discount sequence, which solve_system does exactly when the
config's rho_sequence is nonempty; each level's per-slice HJB pairs (w, s)
are the normalized value functions and cost estimates, the result reads the
last level's pairs at rho = 0, and the limit is cross-checked against direct
ergodic solves.  The solutions move smoothly with the discount, so each
level starts from the Lagrange polynomial in rho through the last (up to)
three levels, evaluated at its discount (polynomial continuation).  Only the
start depends on the earlier levels; the loop and its tolerances are those
of a discounted solve.  An intermediate level only predicts the next one, so
it runs the sweep alone, without the closing sweep and the probe.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Optional, Sequence

import numpy as np

from .fp import fp_evolve
from .grid import FieldError, Grid, gradient_central, laplacian
from .hjb import equation_residual, solve_discounted, solve_ergodic, value_function
from .measure import (
    DensityField,
    JointMeasure,
    joint_w1_upper_bound,
    pushforward,
    wasserstein1_joint,
    wasserstein1_state,
)
from .model import ModelSpec, drift_field, policy_field, slice_measure

__all__ = [
    "CouplingConfig",
    "MuFixedPointResult",
    "TrajectorySolution",
    "solve_joint_measure",
    "solve_field_iteration",
    "solve_measure_iteration",
    "solve_vanishing_discount",
    "solve_system",
    "regularity_report",
]

RATE_FLOOR = 1e-8  # increments below this are too small for reliable ratios
STATE_PAIRS = 400  # time pairs regularity_report samples for Du and m
MEASURE_PAIRS = 120  # and for the joint measure
COST_BLOCK = 256  # control mesh points per running-cost evaluation of regularity_report


@dataclass(frozen=True)
class CouplingConfig:
    """Tolerances, time grid, and strategy knobs for the coupled solvers, and the
    one owner of their defaults and rules: a refused value is a grid.FieldError."""

    T: float
    dt: float
    rho: float = 1.0
    outer_tol: float = 1e-8
    max_outer: int = 40
    damping: float = 0.5  # joint-measure fixed point's policy blending weight, in (0, 1]
    inner_tol: float = 1e-9
    hjb_tol: float = 1e-11
    strategy: str = "gamma"
    rho_sequence: tuple[float, ...] = ()
    ergodic_tol: float = 1e-4
    full_sequence: bool = False

    def __post_init__(self) -> None:
        # written as not 0 < value < inf, so that NaN is rejected too
        for name in ("T", "dt", "rho", "outer_tol", "inner_tol", "hjb_tol", "ergodic_tol"):
            if not 0 < getattr(self, name) < np.inf:
                raise FieldError(name, f"must be positive and finite, got {getattr(self, name)}")
        if self.max_outer < 1:
            raise FieldError("max_outer", f"must be at least 1, got {self.max_outer}")
        if not (0.0 < self.damping <= 1.0):
            raise FieldError("damping", f"must lie in (0, 1], got {self.damping}")
        if self.strategy not in ("gamma", "psi"):
            raise FieldError("strategy", f"must be 'gamma' or 'psi', got {self.strategy!r}")
        seq = self.rho_sequence
        if seq and (len(seq) < 2 or not all(0.0 < b < a < np.inf for a, b in zip(seq, seq[1:]))):
            why = "must be empty or at least two finite, positive, strictly decreasing discounts"
            raise FieldError("rho_sequence", f"{why}, got {seq!r}")
        if self.full_sequence and not seq:
            raise FieldError("full_sequence", "needs a nonempty rho_sequence")
        if abs(self.n_steps * self.dt - self.T) > 1e-9 * max(1.0, self.T):
            raise FieldError("dt", f"must divide T={self.T} a whole number of times, got {self.dt}")

    @property
    def n_steps(self) -> int:
        return int(round(self.T / self.dt))

    def times(self) -> np.ndarray:
        return np.arange(self.n_steps + 1) * self.dt


@dataclass(frozen=True)
class MuFixedPointResult:
    """Outcome of the per-slice joint-measure fixed point; mu.a is the
    (n^d, k) policy mu is the pushforward through, and binding is mu's
    binding spec.coefficients(m.grid.coordinates(), mu)."""

    mu: JointMeasure
    binding: tuple
    iterations: int
    converged: bool
    rate: Optional[float]  # max usable per-step contraction ratio
    increments: tuple[float, ...]
    damped: bool = False


@dataclass(frozen=True)
class TrajectorySolution:
    """Time-indexed solution tuple with convergence log and measured residuals.

    Only what was solved is stored.  w and s hold each slice's normalized
    HJB pair (hjb.HjbSolution), read at the discount rho: the config's for a
    discounted solve, 0.0 for the vanishing-discount result.  u and lam are
    value_function's reading of the pairs, and mu[j], computed at its first
    read unless the solve stored it, is the pushforward of m[j] through
    policy[j].  outer_errors holds one row (step, error, slice) per local
    step of the sweep, the steps numbered over the sweep.  converged holds
    when diagnostics["failures"] is empty; it names each check that missed
    its tolerance: "outer" for a slice whose local loop missed outer_tol,
    "inner" and "hjb" for any joint-measure fixed point or HJB solve,
    "hjb_residual" and "mu_residual" for measured residuals above hjb_tol
    and inner_tol, and "ergodic" for a discount sequence whose increments
    stayed above ergodic_tol.
    """

    times: np.ndarray
    m: tuple[DensityField, ...]
    policy: tuple  # one (n^d, k) array per time slice, row i the control at node i
    w: tuple  # one (n^d,) array per time slice, zero at the normalization node
    s: np.ndarray  # one value per time slice
    rho: float  # the discount (w, s) are read at, 0.0 for the ergodic problem
    outer_errors: tuple = ()  # rows (step, error, slice), one per local step
    hjb_residuals: np.ndarray = field(default_factory=lambda: np.zeros(0))
    mu_residuals: np.ndarray = field(default_factory=lambda: np.zeros(0))
    diagnostics: dict = field(default_factory=dict)

    @property
    def n_slices(self) -> int:
        return len(self.times)

    @property
    def u(self) -> tuple:
        return tuple(value_function(w, s, self.rho)[0] for w, s in zip(self.w, self.s))

    @property
    def lam(self) -> Optional[np.ndarray]:  # None for a discounted solution
        lam = [value_function(w, s, self.rho)[1] for w, s in zip(self.w, self.s)]
        return None if self.rho > 0 else np.array(lam)

    @cached_property
    def mu(self) -> tuple[JointMeasure, ...]:
        return tuple(pushforward(m, a) for m, a in zip(self.m, self.policy))

    @property
    def converged(self) -> bool:
        return not self.diagnostics.get("failures")

    def _replace(self, **changes) -> "TrajectorySolution":
        """dataclasses.replace for changes that leave m and policy, keeping
        mu if it was computed: the new solution's mu would be the same."""
        new = replace(self, **changes)
        if "mu" in self.__dict__:
            new.__dict__["mu"] = self.__dict__["mu"]
        return new


def solve_joint_measure(
    m: DensityField,
    du: np.ndarray,
    spec: ModelSpec,
    tol: float = CouplingConfig.inner_tol,
    max_iter: int = 300,
    damping: float = CouplingConfig.damping,
) -> MuFixedPointResult:
    """Picard iteration for mu = pushforward(m, alpha*(., du; mu)), for an
    instant model (a history model reads past measures, not mu alone); du is
    the (n^d, d) value-function gradient.

    Starts from the pushforward of m through the policy computed at the
    reference measure (m times the zero control), so runs are reproducible.
    The returned measure is exactly the pushforward of m through the returned
    policy, and its fixed-point residual is at most the contraction factor
    times tol.  If max_iter plain steps do not converge and the measured
    ratio reached one, the iteration goes on with damped policy updates for
    up to 10 * max_iter more steps; rate is taken from the plain steps only.
    Failure is reported in the result, not raised.

    A step whose policy repeats the current measure's controls bit for bit
    would push m forward to that measure again: it is an exact fixed point,
    logged with increment 0.0, W1's exact value for identical measures, and
    the loop stops without that pushforward and W1.  Its binding, which
    gave the policy, is the result's; any other result is bound once after
    the loop.
    """
    if spec.kind != "instant":
        raise ValueError("the joint-measure fixed point requires an instant model")
    grid, x = m.grid, m.grid.coordinates()
    nu_hat = pushforward(m, np.zeros((grid.size, spec.control.k)))
    policy = policy_field(spec, grid, du, spec.coefficients(x, nu_hat))
    mu_prev, binding = pushforward(m, policy), None

    increments: list[float] = []
    ratios: list[float] = []
    iterations, converged, damped = 0, False, False
    for it in range(1, 11 * max_iter + 1):
        if it == max_iter + 1:
            if not ratios or max(ratios) < 1.0:
                break
            damped = True  # non-contractive regime
        binding = spec.coefficients(x, mu_prev)
        target = policy_field(spec, grid, du, binding)
        policy = spec.control.project((1.0 - damping) * policy + damping * target) if damped else target
        if policy.tobytes() == mu_prev.a.tobytes():
            mu_next, d = mu_prev, 0.0
        else:
            mu_next, binding = pushforward(m, policy), None
            d = wasserstein1_joint(mu_next, mu_prev)
        if not damped and increments and increments[-1] >= RATE_FLOOR:
            ratios.append(d / increments[-1])
        increments.append(d)
        mu_prev, iterations = mu_next, it
        if d <= tol:
            converged = True
            break
    return MuFixedPointResult(
        mu=mu_prev, binding=binding if binding is not None else spec.coefficients(x, mu_prev),
        iterations=iterations, converged=converged,
        rate=max(ratios) if ratios else None, increments=tuple(increments), damped=damped,
    )


def _max_joint_w1(pairs, scales, state_w1s) -> float:
    """Largest wasserstein1_joint(nu1, nu2) / scale over the pairs; -inf for
    no pairs.

    state_w1s holds W1 between each pair's state marginals.  Pairs are
    solved in decreasing order of their bounds joint_w1_upper_bound / scale,
    and the loop stops once the next bound is below the largest value found:
    every pair left has W1 at most its bound, so none can set the maximum.
    The maximizer is solved exactly as in the full loop, so the result is
    its value bit for bit.
    """
    bounds = [joint_w1_upper_bound(nu1, nu2, s) / c for (nu1, nu2), c, s in zip(pairs, scales, state_w1s)]
    best = -np.inf
    for i in sorted(range(len(pairs)), key=lambda i: -bounds[i]):
        if bounds[i] * (1.0 + 1e-9) < best:
            break
        best = max(best, wasserstein1_joint(*pairs[i]) / scales[i])
    return best


def _failed_checks(**results) -> set:
    """The names whose group of solver results holds one that did not converge."""
    return {name for name, group in results.items() if not all(r.converged for r in group)}


def _gamma_local(spec, config, times, m, du, mu, earlier):
    """Gamma's local step on the density m from the gradient du (None: the
    zero gradient): the joint-measure fixed point, then the HJB solve in its
    binding from its policy.  Returns (the gradient of the new w, its sup
    distance from du, the HJB solution, the binding, the fixed point's
    measure, the missed checks); mu and earlier are psi's and not read."""
    grid = m.grid
    if du is None:
        du = np.zeros((grid.size, grid.d))
    res = solve_joint_measure(m, du, spec, tol=config.inner_tol, damping=config.damping)
    hjb = solve_discounted(spec, res.binding, config.rho, grid, tol=config.hjb_tol, warm_start=res.mu.a)
    du_new = gradient_central(grid, hjb.w)
    return du_new, float(np.abs(du_new - du).max()), hjb, res.binding, res.mu, _failed_checks(inner=[res], hjb=[hjb])


def _psi_local(spec, config, times, m, a, mu, earlier):
    """Psi's local step on the density m from the policy a (None: the zero
    policy and a cold HJB solve) and mu, the pushforward of m through it
    (None: not pushed yet): the HJB solve from a in the binding of the
    measure the slice reads, given the measures earlier of the slices
    before, then the pushforward of m through its policy.  Returns (that
    policy, the joint W1 between the new and the old measure, the HJB
    solution, the binding, the new measure, the missed checks)."""
    grid = m.grid
    if mu is None:
        mu = pushforward(m, np.zeros((grid.size, spec.control.k)) if a is None else a)
    binding = spec.coefficients(grid.coordinates(), slice_measure(spec, times, [*earlier, mu]))
    hjb = solve_discounted(spec, binding, config.rho, grid, tol=config.hjb_tol, warm_start=a)
    new = pushforward(m, hjb.policy)
    return hjb.policy, wasserstein1_joint(new, mu), hjb, binding, new, _failed_checks(hjb=[hjb])


def _sweep(spec, m0, config, strategy, starts, closing=False):
    """One sweep over the time slices in order: (unprobed solution, the
    binding each slice's last HJB solve read).

    Slice j takes strategy's local steps on its density from starts[j], or,
    for None, from the slice before's result (slice 0: the zero start).  It
    stops at a step whose error is at most outer_tol, after at most
    max_outer steps; a slice that misses adds the "outer" failure, and the
    sweep goes on.  One Fokker-Planck step with the drift of the slice's
    last HJB policy, in that solve's binding, then gives the next slice's
    density.  A closing sweep takes exactly one step per slice and logs
    nothing.  The log holds one row (step, error, slice) per local step,
    the steps numbered over the sweep, and final_outer_error is the
    largest, over the slices, of each one's last error.  Each slice stores
    its last measure, the pushforward of its density through its policy,
    as the solution's mu.
    """
    step = _gamma_local if strategy == "gamma" else _psi_local
    times, grid = config.times(), m0.grid
    m, state, log, failed, last = m0, None, [], set(), []
    densities, hjbs, bindings, mus = [], [], [], []
    for j in range(config.n_steps + 1):
        state, mu = state if starts[j] is None else starts[j], None
        for _ in range(1 if closing else config.max_outer):
            state, error, hjb, binding, mu, missed = step(spec, config, times[: j + 1], m, state, mu, mus)
            failed |= missed
            if not closing:
                log.append((len(log) + 1, error, j))
            if error <= config.outer_tol:
                break
        if error > config.outer_tol and not closing:
            failed.add("outer")
        last.append(error)
        densities.append(m)
        hjbs.append(hjb)
        bindings.append(binding)
        mus.append(mu)
        if j < config.n_steps:
            m = fp_evolve(m, [drift_field(spec, grid, hjb.policy, binding)], config.dt)[-1]
    diagnostics = {
        "outer_iterations": len(log),
        "final_outer_error": max(last),
        "failures": sorted(failed),
        "hjb_residual_histories": tuple(h.residual_history for h in hjbs),
    }
    sol = TrajectorySolution(
        times=times, m=tuple(densities), policy=tuple(mu.a for mu in mus), w=tuple(h.w for h in hjbs),
        s=np.array([h.s for h in hjbs]), rho=config.rho, outer_errors=tuple(log), diagnostics=diagnostics,
    )
    sol.__dict__["mu"] = tuple(mus)  # the measures mu would push forward again
    return sol, bindings


def _starts(config: CouplingConfig, strategy: str, grid: Grid, initial) -> list:
    """Each slice's start from the warm start initial, a pair of per-slice
    sequences (gamma: values and densities, psi: measures and densities),
    or None for every slice without one; a length other than the number of
    time slices is a ValueError.  The densities are not read: the sweep
    derives each slice's density from the slice before."""
    if initial is None:
        return [None] * (config.n_steps + 1)
    first, m = initial
    if len(first) != config.n_steps + 1 or len(m) != config.n_steps + 1:
        raise ValueError(f"initial {'value' if strategy == 'gamma' else 'measure'} trajectory has the wrong length")
    return [gradient_central(grid, u) for u in first] if strategy == "gamma" else [mu.a for mu in first]


def _solution(spec, config, sol, bindings) -> TrajectorySolution:
    """sol with its per-slice residuals measured, not assumed: slice j's HJB
    residual is equation_residual of its pair in bindings[j], the slice's
    binding, and its measure residual the joint W1 between mu[j] and the
    pushforward of m[j] through the improved policy that call returns.
    Residuals above hjb_tol and inner_tol add their failures."""
    hjb_res, mu_res = np.zeros(sol.n_slices), np.zeros(sol.n_slices)
    for j, (m_j, mu_j, w_j, s_j, coefficients) in enumerate(zip(sol.m, sol.mu, sol.w, sol.s, bindings)):
        hjb_res[j], probe, _, _ = equation_residual(spec, coefficients, sol.rho, m_j.grid, w_j, s_j)
        mu_res[j] = wasserstein1_joint(mu_j, pushforward(m_j, probe))
    failed = set(sol.diagnostics["failures"])
    if hjb_res.max() > config.hjb_tol:
        failed.add("hjb_residual")
    if mu_res.max() > config.inner_tol:
        failed.add("mu_residual")
    diagnostics = {**sol.diagnostics, "failures": sorted(failed)}
    return sol._replace(hjb_residuals=hjb_res, mu_residuals=mu_res, diagnostics=diagnostics)


def _closed(spec, m0, config, strategy, level: TrajectorySolution):
    """A sweep's solution, the level, closed by a closing sweep from its
    state (gamma: the gradients of its w, psi: its policies), then probed:
    (probed solution, the probe's bindings).  The log is the level's, the
    failures the level's and the closing sweep's.  Psi's probe reads the
    bindings of the closed measures."""
    grid = m0.grid
    starts = [gradient_central(grid, w) for w in level.w] if strategy == "gamma" else list(level.policy)
    sol, bindings = _sweep(spec, m0, config, strategy, starts, closing=True)
    if strategy == "psi":
        x, times, mus = grid.coordinates(), sol.times, sol.mu
        bindings = [spec.coefficients(x, slice_measure(spec, times[: j + 1], mus[: j + 1])) for j in range(len(mus))]
    diagnostics = {
        **level.diagnostics,
        "failures": sorted(set(level.diagnostics["failures"]) | set(sol.diagnostics["failures"])),
        "hjb_residual_histories": sol.diagnostics["hjb_residual_histories"],
    }
    sol = sol._replace(outer_errors=level.outer_errors, diagnostics=diagnostics)
    return _solution(spec, config, sol, bindings), bindings


def _solve(spec, m0, config, strategy, initial) -> TrajectorySolution:
    """A public solve: the sweep from initial, its closing sweep and the probe."""
    level, _ = _sweep(spec, m0, config, strategy, _starts(config, strategy, m0.grid, initial))
    return _closed(spec, m0, config, strategy, level)[0]


def solve_field_iteration(
    spec: ModelSpec,
    m0: DensityField,
    config: CouplingConfig,
    initial: Optional[tuple[Sequence[np.ndarray], Sequence[DensityField]]] = None,
) -> TrajectorySolution:
    """The discounted system by one sweep with gamma's local loop.

    Per slice, each local step solves the joint-measure fixed point from the
    gradient, then the discounted HJB problem; the error is the sup distance
    between consecutive gradients, taken of each slice's normalized w, not
    of u = w + s/rho.  The slice's last HJB policy then drives one
    Fokker-Planck step.  initial is a warm start (u, m), (n^d,) value arrays
    and densities, one per slice: slice j starts from the gradient of u[j].
    """
    return _solve(spec, m0, config, "gamma", initial)


def solve_measure_iteration(
    spec: ModelSpec,
    m0: DensityField,
    config: CouplingConfig,
    initial: Optional[tuple[Sequence[JointMeasure], Sequence[DensityField]]] = None,
) -> TrajectorySolution:
    """The discounted system by one sweep with psi's local loop.

    Per slice, each local step solves the HJB problem with the measures
    frozen (history models read their kernel aggregate of the earlier
    slices' measures and the slice's current one), then pushes the slice's
    density forward through the optimal policy; the error is the joint W1
    distance between consecutive measures of the slice, which share their
    state marginal.  initial is a warm start (mu, m), a measure trajectory
    and its state marginals: slice j starts from the policy of mu[j].
    """
    return _solve(spec, m0, config, "psi", initial)


def _lagrange_weights(nodes: Sequence[float], x: float) -> np.ndarray:
    """Weights c with p(x) = sum_i c[i] p(nodes[i]) for every polynomial p of
    degree below len(nodes); a single node has weight exactly 1."""
    return np.array([
        np.prod([(x - b) / (a - b) for j, b in enumerate(nodes) if j != i]) for i, a in enumerate(nodes)
    ])


def _extrapolated_start(spec: ModelSpec, grid: Grid, strategy: str, levels, rho: float):
    """Warm start of the discount level rho from the levels before it.

    levels holds (rho_k, fields_k, densities_k) of the last solved levels:
    per slice, w (gamma) or the policy (psi), and the density values, each
    a sequence of node arrays.
    Both are read at rho off the Lagrange polynomial in the discount through
    the levels.  The densities are clipped at zero and renormalized; psi's
    policies are projected onto the control set, and its measures are the
    pushforwards of the densities through them.  With one level the start is
    that level's solution.
    """
    weights = _lagrange_weights([level[0] for level in levels], rho)
    fields, densities = (sum(c * np.array(level[i]) for c, level in zip(weights, levels)) for i in (1, 2))
    m = [DensityField.from_values(grid, v) for v in densities]
    if strategy == "gamma":
        return list(fields), m
    return [pushforward(m_j, spec.control.project(a)) for m_j, a in zip(m, fields)], m


def _level_increments(sol: TrajectorySolution, prev: TrajectorySolution) -> tuple[float, float]:
    """The value increment, the largest per-slice |s diff| + |w diff|_inf,
    and the increment, the same with the state W1 distance added, between
    two discount levels."""
    gaps = [abs(s1 - s0) + float(np.abs(w1 - w0).max()) for s1, s0, w1, w0 in zip(sol.s, prev.s, sol.w, prev.w)]
    return max(gaps), max(g + w1 for g, w1 in zip(gaps, wasserstein1_state(sol.m, prev.m)))


def solve_vanishing_discount(
    spec: ModelSpec,
    m0: DensityField,
    config: CouplingConfig,
) -> TrajectorySolution:
    """Ergodic driver: discounted solves along a decreasing discount sequence.

    Each level starts from the quadratic extrapolation in rho of the last
    three levels (_extrapolated_start): gamma's slices from the gradients of
    the extrapolated w, psi's from the extrapolated policies; the sweep
    derives each slice's density itself.  The second level, with one level
    before it, starts from that level's solution, the third from the line
    through two.  Each level runs its strategy's sweep alone; the starts and
    the increments read its per-slice HJB pairs (w, s), the normalized
    values, zero at the HJB normalization node, and cost estimates, and its
    densities.  The driver stops when the combined per-slice increments
    (including the state W1 distance) fall below the ergodic tolerance, or
    runs the whole sequence if configured to.  Only this last level, the one
    reported, gets the closing sweep and the residual probe, and the result
    is its solution read at rho = 0.  Its pairs are then measured slice by
    slice in the ergodic equation and against direct ergodic solves:
    ergodic_residual_max is their largest HJB residual at rho = 0, where
    hjb_residuals are measured at the last discount, and it does not enter
    converged.  The diagnostics are the last level's, except
    level_outer_iterations, the local steps of each level's sweep,
    outer_iterations, their sum, and failures: the outer, inner and hjb
    checks of any level, the measured hjb_residual and mu_residual checks of
    the result only, and "ergodic" if the increments never reached the
    tolerance.
    """
    if not config.rho_sequence:
        raise ValueError("ergodic driver needs a nonempty rho_sequence")
    grid, strategy = m0.grid, config.strategy
    levels: list[TrajectorySolution] = []  # every level's sweep, in order
    increments: list[tuple[float, float]] = []  # (value increment, increment) per pair of levels
    for rho in map(float, config.rho_sequence):
        fits = [(lv.rho, lv.w if strategy == "gamma" else lv.policy, [m.values for m in lv.m]) for lv in levels[-3:]]
        initial = _extrapolated_start(spec, grid, strategy, fits, rho) if fits else None
        levels.append(_sweep(spec, m0, replace(config, rho=rho), strategy, _starts(config, strategy, grid, initial))[0])
        if len(levels) > 1:
            increments.append(_level_increments(levels[-1], levels[-2]))
        converged = bool(increments) and increments[-1][1] <= config.ergodic_tol
        if converged and not config.full_sequence:
            break

    # the reported level alone is closed and probed; its pairs are then
    # measured in the ergodic equation (rho = 0) and against the direct
    # ergodic solver, both on the probe's binding of each slice
    sol, bindings = _closed(spec, m0, replace(config, rho=levels[-1].rho), strategy, levels[-1])
    levels[-1] = sol
    ergodic_res, direct_gaps = [], []
    for w, s, coefficients in zip(sol.w, sol.s, bindings):
        ergodic_res.append(equation_residual(spec, coefficients, 0.0, grid, w, s)[0])
        es = solve_ergodic(spec, coefficients, grid, tol=config.hjb_tol)
        direct_gaps.append(abs(es.s - s) + float(np.abs(es.w - w).max()))

    failed = set().union(*(lv.diagnostics["failures"] for lv in levels))
    if not converged:
        failed.add("ergodic")
    passes = [lv.diagnostics["outer_iterations"] for lv in levels]
    diagnostics = dict(sol.diagnostics)
    diagnostics.update(
        {
            "outer_iterations": sum(passes),
            "level_outer_iterations": passes,
            "failures": sorted(failed),
            "rho_sequence": [lv.rho for lv in levels],
            "increments": [inc for _, inc in increments],
            "value_increments": [inc for inc, _ in increments],
            "direct_gap_max": float(np.max(direct_gaps)),
            "ergodic_residual_max": float(np.max(ergodic_res)),
            "achieved_increment": increments[-1][1],
        }
    )
    return sol._replace(rho=0.0, diagnostics=diagnostics)


def solve_system(spec: ModelSpec, m0: DensityField, config: CouplingConfig) -> TrajectorySolution:
    """The entry point the CLI uses: the ergodic system through the discount
    sequence when config.rho_sequence is nonempty, else the discounted
    system at config.rho, each with config.strategy."""
    if config.rho_sequence:
        return solve_vanishing_discount(spec, m0, config)
    return (solve_field_iteration if config.strategy == "gamma" else solve_measure_iteration)(spec, m0, config)


def regularity_report(sol: TrajectorySolution, spec: ModelSpec, seed: int = 0) -> dict:
    """Empirical counterparts of the a-priori estimates on a converged run of spec.

    Reports sup norms of u, Du, lap(u), for a discounted solution the
    discount-scaled sup of u against the running-cost bound, for an ergodic
    one the sup of lam, and Holder-1/2 ratios in time for Du, the state
    density (W1), and the joint measure (W1), over subsampled time pairs.
    Derivatives of u are taken of the normalized w, which differs from u by
    a constant per slice, so the rounding of u = w + s/rho does not enter
    them.  All quantities are measured from the run; nothing is derived
    from proof constants.  Each stored measure is the pushforward of its
    slice's density, so a pair's state W1 gives a certified upper bound on
    its joint W1, and of the joint-measure pairs only those whose bound can
    reach the maximum ratio are solved.
    """
    rng = np.random.default_rng(seed)
    n, grid = sol.n_slices, sol.m[0].grid
    report: dict[str, float | None] = {}

    u_sup = max(float(np.abs(u).max()) for u in sol.u)
    du_sup = max(float(np.abs(gradient_central(grid, w)).max()) for w in sol.w)
    lap_sup = max(float(np.abs(laplacian(grid, w)).max()) for w in sol.w)
    report["u_sup"] = u_sup
    report["du_sup"] = du_sup
    report["laplacian_u_sup"] = lap_sup
    if sol.rho > 0:
        report["rho_u_sup"] = sol.rho * u_sup
    else:
        report["lambda_sup"] = float(np.abs(sol.lam).max())

    # each slice is bound once and its cost evaluated on COST_BLOCK mesh
    # points at a time; the max is exact, so blocking leaves it unchanged
    mesh = spec.control.mesh(129)[None, :, :]
    ell_max = 0.0
    x = grid.coordinates()[:, None, :]
    for j in range(n):
        ell = spec.coefficients(x, slice_measure(spec, sol.times[: j + 1], sol.mu[: j + 1]))[1]
        for start in range(0, mesh.shape[1], COST_BLOCK):
            ell_max = max(ell_max, float(np.abs(ell(mesh[:, start : start + COST_BLOCK])).max()))
    report["running_cost_sup"] = ell_max

    def _pairs(count: int) -> list[tuple[int, int]]:
        allp = [(j, k) for j in range(n) for k in range(j + 1, n)]
        if len(allp) > count:
            # slice order, so that each flow of a state W1 batch starts from a neighbouring pair's basis
            chosen = np.sort(rng.choice(len(allp), size=count, replace=False))
            allp = [allp[int(c)] for c in chosen]
        return allp

    def _state_w1(pairs) -> dict[tuple[int, int], float]:
        """State W1 of each slice pair, the pairs' flows solved as one batch."""
        values = wasserstein1_state([sol.m[j] for j, _ in pairs], [sol.m[k] for _, k in pairs])
        return dict(zip(pairs, values))

    du_fields = [gradient_central(grid, w) for w in sol.w]
    state_pairs = _pairs(STATE_PAIRS)
    state_w1 = _state_w1(state_pairs)
    best_du = best_m = 0.0
    for j, k in state_pairs:
        root = np.sqrt(sol.times[k] - sol.times[j])
        best_du = max(best_du, float(np.abs(du_fields[j] - du_fields[k]).max()) / root)
        best_m = max(best_m, state_w1[j, k] / root)
    mu_pairs = _pairs(MEASURE_PAIRS)
    missing = [pair for pair in mu_pairs if pair not in state_w1]
    if missing:
        state_w1.update(_state_w1(missing))
    best_mu = max(0.0, _max_joint_w1(
        [(sol.mu[j], sol.mu[k]) for j, k in mu_pairs],
        [np.sqrt(sol.times[k] - sol.times[j]) for j, k in mu_pairs],
        [state_w1[j, k] for j, k in mu_pairs],
    ))
    report["du_holder_half"] = best_du
    report["m_holder_half"] = best_m
    report["mu_holder_half"] = best_mu

    # discrete space-time Sobolev surrogate for the density:
    # sum_j dt * sum_x h^d (m^2 + |grad_h m|^2)
    dt = float(sol.times[1] - sol.times[0]) if n > 1 else 0.0
    h1 = 0.0
    for m in sol.m:
        gm = gradient_central(grid, m.values)
        dens = (m.values**2).sum() + sum((gm[:, ax] ** 2).sum() for ax in range(grid.d))
        h1 += dt * grid.cell_volume * dens
    report["m_h1_surrogate"] = h1
    return report
