"""Fixed-point drivers coupling the HJB, Fokker-Planck, and measure equations.

Two outer strategies solve the discounted system:

  field iteration ("gamma")    Picard on the pair (u, m): each pass first
      solves the joint-measure fixed point per time slice from the previous
      gradients and densities, then the per-slice HJB problems, then one
      Fokker-Planck evolution with the optimal drifts.  Requires an
      instant model.

  measure iteration ("psi")    Picard on the joint-measure trajectory alone:
      each pass solves the per-slice HJB problems with the trajectory frozen
      (memory models aggregate the past trajectory), evolves the density, and
      pushes it forward through the optimal policies.  Works for instant and
      history models and needs no inner contraction.

Both run the same plain Picard loop over explicit state, the iterates; a
strategy supplies only its step, one pass and its outer error.  The agent
reacts only to the present measure, and the outer map contracts on every
shipped config and on strongly coupled example1 models, so plain (Banach)
iteration converges at the map's own rate.  Only the joint-measure fixed
point, whose map stops contracting for strong coupling, blends policies
(damping).  Like Howard's loop in hjb.py, it stops at a policy that repeats
the current measure's controls bit for bit, an exact fixed point, without
pushing forward or solving W1 again, and it returns the binding of its
measure, which gamma's HJB solve of the slice reads instead of binding it
again.

Psi's outer error and the regularity report's joint-measure Holder ratio are
maxima of joint W1 values between measures with different state marginals,
each an atom LP.  Both go through one pruned maximum: pairs are solved in
decreasing order of the certified upper bound joint_w1_upper_bound, and the
loop stops once no remaining bound reaches the largest value found.  The
result is the full loop's maximum bit for bit, with only the LPs that can set
it solved.  Psi's outer error asks for no digits below the outer tolerance:
on a pass where every bound is at or below it, the largest bound is logged,
a certified upper bound on the error, and no LP is solved.  The bound
settles only passes the exact maximum would settle too, so the iterates and
pass counts do not depend on it.

The ergodic system is solved by driving the discounted solver through a
decreasing discount sequence, which solve_system does exactly when the
config's rho_sequence is nonempty; each level's per-slice HJB pairs (w, s)
are the normalized value functions and cost estimates, the result reads the
last level's pairs at rho = 0, and the limit is cross-checked against direct
ergodic solves.  The solutions move smoothly with the
discount, so each level starts from the Lagrange polynomial in rho through
the last (up to) three levels, evaluated at its discount (polynomial
continuation).  Only the start depends on the earlier levels; the loop and
its tolerances are those of a discounted solve.  An intermediate level only
predicts the next one, so it runs the Picard part alone, without the finish.

Each strategy is a Picard part, which returns its level (the last pass's
unprobed solution), and the one finish of either strategy's level: a
consistency pass that reads nothing but the level (gamma re-solves each slice
once on its densities and the gradients of its w, psi runs one more pass from
its measures and policies).  The stored joint measure is then an exact
pushforward of the stored density through the stored policy, and one probe
measures, rather than assumes, the per-slice residuals of the HJB and measure
equations.  A pass whose residuals miss a tolerance is reported as measured,
not retried: converged holds only when every tolerance was met, and
diagnostics["failures"] names each check that missed one.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import partial
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
    value_function's reading of the pairs, and policy[j] is mu[j].a, the
    policy mu[j] pushes m[j] through.  converged holds when
    diagnostics["failures"] is empty; it names each check that missed its
    tolerance: "outer", "inner" and "hjb" for any outer loop, joint-measure
    fixed point or HJB solve, "hjb_residual" and "mu_residual" for measured
    residuals above hjb_tol and inner_tol, and "ergodic" for a discount
    sequence whose increments stayed above ergodic_tol.
    """

    times: np.ndarray
    m: tuple[DensityField, ...]
    mu: tuple[JointMeasure, ...]
    w: tuple  # one (n^d,) array per time slice, zero at the normalization node
    s: np.ndarray  # one value per time slice
    rho: float  # the discount (w, s) are read at, 0.0 for the ergodic problem
    outer_errors: tuple = ()  # rows (iteration, total, component...) per pass
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

    @property
    def policy(self) -> tuple:
        return tuple(nu.a for nu in self.mu)

    @property
    def converged(self) -> bool:
        return not self.diagnostics.get("failures")


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


def _max_joint_w1(pairs, scales, state_w1s, tol: float = -np.inf) -> float:
    """Largest wasserstein1_joint(nu1, nu2) / scale over the pairs, or a
    certified upper bound on it at or below tol; -inf for no pairs.

    state_w1s holds W1 between each pair's state marginals.  When every
    joint_w1_upper_bound / scale is finite and at or below tol, the largest
    bound is returned and no LP is solved: the maximum is then known to meet
    tol, and its digits below tol are not computed.  Otherwise pairs are
    solved in decreasing order of their bounds, and the loop stops once the
    next bound is below the largest value found: every pair left has W1 at
    most its bound, so none can set the maximum.  The maximizer is solved
    exactly as in the full loop, so the result is its value bit for bit.
    """
    bounds = [joint_w1_upper_bound(nu1, nu2, s) / c for (nu1, nu2), c, s in zip(pairs, scales, state_w1s)]
    top = max(bounds, default=-np.inf)
    if np.isfinite(top) and top <= tol:
        return top
    best = -np.inf
    for i in sorted(range(len(pairs)), key=lambda i: -bounds[i]):
        if bounds[i] * (1.0 + 1e-9) < best:
            break
        best = max(best, wasserstein1_joint(*pairs[i]) / scales[i])
    return best


def _evolve(spec: ModelSpec, m0: DensityField, config: CouplingConfig, bindings, policies):
    """One Fokker-Planck evolution from m0: the drift of slice j's policy in
    slice j's binding, the one its HJB solve read, drives the step from t_j,
    so the last slice's drift is not needed."""
    steps = zip(policies[: config.n_steps], bindings)
    return fp_evolve(m0, [drift_field(spec, m0.grid, a, c) for a, c in steps], config.dt)


def _picard(config: CouplingConfig, state, step):
    """The outer Picard loop both strategies share: step(state) runs one
    pass and returns (next state, row, missed), row's first entry the total
    error tested against the outer tolerance and missed the checks the pass
    missed.  Returns (last state, log of rows (pass, *row), every pass's
    missed checks, converged)."""
    log, failed = [], set()
    for k in range(1, config.max_outer + 1):
        state, row, missed = step(state)
        log.append((k, *row))
        failed |= missed
        if row[0] <= config.outer_tol:
            return state, log, failed, True
    return state, log, failed, False


def _failed_checks(**results) -> set:
    """The names whose group of solver results holds one that did not converge."""
    return {name for name, group in results.items() if not all(r.converged for r in group)}


def _warm_start(config: CouplingConfig, initial, what: str) -> tuple[list, list]:
    """A strategy's start, two per-slice sequences, as lists; a length other
    than the number of time slices is a ValueError."""
    first, m = list(initial[0]), list(initial[1])
    if len(first) != config.n_steps + 1 or len(m) != config.n_steps + 1:
        raise ValueError(f"initial {what} trajectory has the wrong length")
    return first, m


def _unprobed(config, log, failed, m, hjbs, mu) -> TrajectorySolution:
    """TrajectorySolution of an outer strategy from its last per-slice HJB
    solutions and the stored (m, mu), with its shared diagnostics and no
    measured residuals; failed holds the checks missed so far."""
    diagnostics = {
        "outer_iterations": len(log),
        "final_outer_error": log[-1][1],
        "failures": sorted(failed),
        "hjb_residual_histories": tuple(h.residual_history for h in hjbs),
    }
    return TrajectorySolution(
        times=config.times(), m=tuple(m), mu=tuple(mu), w=tuple(h.w for h in hjbs), s=np.array([h.s for h in hjbs]),
        rho=config.rho, outer_errors=tuple(log), diagnostics=diagnostics,
    )


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
    return replace(sol, hjb_residuals=hjb_res, mu_residuals=mu_res, diagnostics=diagnostics)


def _gamma_slices(spec, config, m_list, du_list):
    """Per slice the joint-measure fixed point from the density and
    gradient, its binding (the fixed point's own), and the HJB solve in that
    binding from the fixed point's policy: (fixed points, bindings, HJB
    solutions)."""
    fixed_points, bindings, hjbs = [], [], []
    for m, du in zip(m_list, du_list):
        res = solve_joint_measure(m, du, spec, tol=config.inner_tol, damping=config.damping)
        fixed_points.append(res)
        bindings.append(res.binding)
        hjbs.append(solve_discounted(spec, res.binding, config.rho, m.grid, tol=config.hjb_tol, warm_start=res.mu.a))
    return fixed_points, bindings, hjbs


def _gamma_step(spec, m0, config, state):
    """One gamma pass from state (m, mu, hjbs, du): the next state, holding
    the evolved densities and the gradients of the new w, and the row
    (total, gradient part, density part) of the outer error."""
    m_list, _, _, du_list = state
    fixed_points, bindings, hjbs = _gamma_slices(spec, config, m_list, du_list)
    traj = _evolve(spec, m0, config, bindings, [h.policy for h in hjbs])
    du_new = [gradient_central(m0.grid, h.w) for h in hjbs]
    du_errs = [float(np.abs(a - b).max()) for a, b in zip(du_new, du_list)]
    m_errs = wasserstein1_state(traj, m_list)
    row = (max(a + b for a, b in zip(du_errs, m_errs)), max(du_errs), max(m_errs))
    state = (list(traj), [res.mu for res in fixed_points], hjbs, du_new)
    return state, row, _failed_checks(inner=fixed_points, hjb=hjbs)


def solve_field_iteration(
    spec: ModelSpec,
    m0: DensityField,
    config: CouplingConfig,
    initial: Optional[tuple[Sequence[np.ndarray], Sequence[DensityField]]] = None,
) -> TrajectorySolution:
    """Outer Picard iteration on (u, m) for the discounted system.

    Per pass and per time slice: joint-measure fixed point from the previous
    gradients and densities, discounted HJB solve, then one Fokker-Planck
    evolution driven by the optimal policies.  The outer error sums the
    gradient sup-distance and the state W1 distance per slice; gradients
    are taken of each slice's normalized w, not of u = w + s/rho.  initial
    is a warm start (u, m): (n^d,) value arrays and densities, one per slice.
    """
    return _finish(spec, m0, config, _field_picard(spec, m0, config, initial), "gamma")[0]


def _field_picard(spec, m0, config, initial=None) -> TrajectorySolution:
    """solve_field_iteration's Picard part: its level, the last pass's unprobed solution."""
    n = config.n_steps + 1
    u_list, m_list = _warm_start(config, initial or ([np.zeros(m0.grid.size)] * n, [m0] * n), "value")
    start = (m_list, None, None, [gradient_central(m0.grid, u) for u in u_list])
    (m, mu, hjbs, _), log, failed, converged = _picard(config, start, partial(_gamma_step, spec, m0, config))
    return _unprobed(config, log, failed if converged else failed | {"outer"}, m, hjbs, mu)


def _bind(spec, config, grid, mu_traj) -> list:
    """Each slice's binding of the measure its Hamiltonian reads in mu_traj."""
    times, x = config.times(), grid.coordinates()
    return [spec.coefficients(x, slice_measure(spec, times[: j + 1], mu_traj[: j + 1])) for j in range(len(mu_traj))]


def _psi_slices(spec, config, grid, mu_traj, warm):
    """The bindings of the frozen trajectory mu_traj and the HJB solve in
    each, from warm[j] (cold for warm None): (bindings, HJB solutions)."""
    bindings = _bind(spec, config, grid, mu_traj)
    return bindings, [
        solve_discounted(spec, coefficients, config.rho, grid, tol=config.hjb_tol, warm_start=warm[j] if warm else None)
        for j, coefficients in enumerate(bindings)
    ]


def _psi_step(spec, m0, config, state):
    """One psi pass from state (m, mu, hjbs), warm-started at the policies of
    hjbs, the pass before's (None before the first): the next state and the
    row (total, the same) of the outer error."""
    m_traj, mu_traj, hjbs = state
    bindings, hjbs = _psi_slices(spec, config, m0.grid, mu_traj, None if hjbs is None else [h.policy for h in hjbs])
    traj = _evolve(spec, m0, config, bindings, [h.policy for h in hjbs])
    mu_new = [pushforward(m, h.policy) for m, h in zip(traj, hjbs)]
    state_w1s = wasserstein1_state(traj, m_traj)
    e_k = _max_joint_w1(list(zip(mu_new, mu_traj)), [1.0] * len(traj), state_w1s, config.outer_tol)
    return (list(traj), mu_new, hjbs), (e_k, e_k), _failed_checks(hjb=hjbs)


def solve_measure_iteration(
    spec: ModelSpec,
    m0: DensityField,
    config: CouplingConfig,
    initial: Optional[tuple[Sequence[JointMeasure], Sequence[DensityField]]] = None,
) -> TrajectorySolution:
    """Outer Picard iteration on the joint-measure trajectory.

    Each pass maps the whole trajectory through: per-slice HJB solves with
    the trajectory frozen (history models read their kernel aggregate of the
    past), one Fokker-Planck evolution, and pushforwards of the new densities
    through the optimal policies.  The outer error is the sup over slices of
    the joint W1 distance between consecutive trajectories; only the slices
    whose certified upper bound can reach the sup are solved, and none when
    every bound meets outer_tol, in which case the largest bound is the
    pass's logged error.  initial is a warm start (mu, m): a measure
    trajectory and its state marginals.
    """
    return _finish(spec, m0, config, _measure_picard(spec, m0, config, initial), "psi")[0]


def _measure_picard(spec, m0, config, initial=None) -> TrajectorySolution:
    """solve_measure_iteration's Picard part: its level, the last pass's unprobed solution."""
    n = config.n_steps + 1
    start = initial or ([pushforward(m0, np.zeros((m0.grid.size, spec.control.k)))] * n, [m0] * n)
    mu_traj, m_traj = _warm_start(config, start, "measure")
    step = partial(_psi_step, spec, m0, config)
    (m, mu, hjbs), log, failed, converged = _picard(config, (m_traj, mu_traj, None), step)
    return _unprobed(config, log, failed if converged else failed | {"outer"}, m, hjbs, mu)


def _finish(spec, m0, config, level: TrajectorySolution, strategy: str):
    """A Picard part's level finished by one consistency pass that reads
    nothing but the level, then the residual probe: (probed solution, the
    bindings of its stored measures).  Gamma re-solves each slice once on
    the level's densities and the gradients of its w; psi runs one more pass
    from its measures and policies.  The failures are the level's and the
    pass's."""
    grid = m0.grid
    if strategy == "gamma":
        du = [gradient_central(grid, w) for w in level.w]
        fixed_points, bindings, hjbs = _gamma_slices(spec, config, level.m, du)
        m, mu, missed = level.m, [res.mu for res in fixed_points], _failed_checks(inner=fixed_points, hjb=hjbs)
    else:
        bindings, hjbs = _psi_slices(spec, config, grid, level.mu, level.policy)
        m = _evolve(spec, m0, config, bindings, [h.policy for h in hjbs])
        mu = [pushforward(m_j, h.policy) for m_j, h in zip(m, hjbs)]
        bindings, missed = _bind(spec, config, grid, mu), _failed_checks(hjb=hjbs)
    sol = _unprobed(config, level.outer_errors, set(level.diagnostics["failures"]) | missed, m, hjbs, mu)
    return _solution(spec, config, sol, bindings), bindings


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
    three levels (_extrapolated_start): gamma from extrapolated (w, m), psi
    from extrapolated policies and densities and the pushforwards of one
    through the other.  The second level, with one level before it, starts
    from that level's solution, the third from the line through two.  Each
    level runs its strategy's Picard part alone; the starts and the increments
    read its last pass's per-slice HJB pairs (w, s), the normalized values,
    zero at the HJB normalization node, and cost estimates, and its evolved
    densities.  The driver stops when the combined per-slice increments
    (including the state W1 distance) fall below the ergodic tolerance, or
    runs the whole sequence if configured to.  Only this last level, the one
    reported, gets its strategy's finish (consistency pass and residual
    probe), and the result is its solution read at rho = 0.  Its pairs are
    then measured slice by slice in the ergodic equation and against direct
    ergodic solves: ergodic_residual_max is their largest HJB residual at
    rho = 0, where hjb_residuals are measured at the last discount, and it
    does not enter converged.  The diagnostics are the last level's, except
    level_outer_iterations, the outer passes of each level, outer_iterations,
    their sum, and failures: the outer, inner and hjb checks of any level,
    the measured hjb_residual and mu_residual checks of the result only, and
    "ergodic" if the increments never reached the tolerance.
    """
    if not config.rho_sequence:
        raise ValueError("ergodic driver needs a nonempty rho_sequence")
    grid = m0.grid
    picard = _field_picard if config.strategy == "gamma" else _measure_picard
    levels: list[TrajectorySolution] = []  # every level's Picard result, in order
    increments: list[tuple[float, float]] = []  # (value increment, increment) per pair of levels
    for rho in map(float, config.rho_sequence):
        fits = [
            (lv.rho, lv.w if config.strategy == "gamma" else lv.policy, [m.values for m in lv.m]) for lv in levels[-3:]
        ]
        initial = _extrapolated_start(spec, grid, config.strategy, fits, rho) if fits else None
        levels.append(picard(spec, m0, replace(config, rho=rho), initial))
        if len(levels) > 1:
            increments.append(_level_increments(levels[-1], levels[-2]))
        converged = bool(increments) and increments[-1][1] <= config.ergodic_tol
        if converged and not config.full_sequence:
            break

    # the reported level alone is finished; its pairs are then measured in
    # the ergodic equation (rho = 0) and against the direct ergodic solver,
    # both on the finish's binding of each slice
    sol, bindings = _finish(spec, m0, replace(config, rho=levels[-1].rho), levels[-1], config.strategy)
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
    return replace(sol, rho=0.0, diagnostics=diagnostics)


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
    from proof constants.  Of the joint-measure pairs only those whose
    certified upper bound can reach the maximum ratio are solved.
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
    # the densities' W1 bounds the joint W1 only where each stored measure
    # is the pushforward of the stored density
    pushed = [np.array_equal(nu.w, m.values * grid.cell_volume) for nu, m in zip(sol.mu, sol.m)]
    mu_pairs = _pairs(MEASURE_PAIRS)
    missing = [pair for pair in mu_pairs if pair not in state_w1]
    if missing:
        state_w1.update(_state_w1(missing))
    best_mu = max(0.0, _max_joint_w1(
        [(sol.mu[j], sol.mu[k]) for j, k in mu_pairs],
        [np.sqrt(sol.times[k] - sol.times[j]) for j, k in mu_pairs],
        [state_w1[j, k] if pushed[j] and pushed[k] else np.inf for j, k in mu_pairs],
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
