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

Both run the same plain Picard loop; a strategy supplies only its per-slice
solve and its outer error.  The agent reacts only to the present measure, and
the outer map contracts on every shipped config and on strongly coupled
example1 models, so plain (Banach) iteration converges at the map's own rate.
Only the joint-measure fixed point, whose map stops contracting for strong
coupling, blends policies (damping).

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
its tolerances are those of a discounted solve.

Both strategies finish with one consistency pass: gamma re-solves each slice
once on the final densities and gradients, psi runs one more pass.  The
stored joint measure is an exact pushforward of the stored density through
the stored policy, and one probe measures, rather than assumes, the per-slice
residuals of the HJB and measure equations.  A pass whose residuals miss a
tolerance is reported as measured, not retried: converged holds only when
every tolerance was met, and diagnostics["failures"] names each check that
missed one.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional, Sequence

import numpy as np

from .fp import fp_evolve
from .grid import Grid, gradient_central, laplacian
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
    "blend_policies",
]

RATE_FLOOR = 1e-8  # increments below this are too small for reliable ratios
STATE_PAIRS = 400  # time pairs regularity_report samples for Du and m
MEASURE_PAIRS = 120  # and for the joint measure


@dataclass(frozen=True)
class CouplingConfig:
    """Tolerances, time grid, and strategy knobs for the coupled solvers."""

    T: float
    dt: float
    rho: float = 1.0
    outer_tol: float = 1e-8
    max_outer: int = 40
    damping: float = 0.5  # joint-measure fixed point's policy blending weight, in (0, 1]
    inner_tol: float = 1e-9
    inner_max_iter: int = 300
    hjb_tol: float = 1e-11
    strategy: str = "gamma"
    rho_sequence: tuple[float, ...] = ()
    ergodic_tol: float = 1e-4
    full_sequence: bool = False

    def __post_init__(self) -> None:
        if self.T <= 0 or self.dt <= 0:
            raise ValueError("T and dt must be positive")
        if not (0.0 < self.damping <= 1.0):
            raise ValueError(f"damping must lie in (0, 1], got {self.damping}")
        for name in ("outer_tol", "inner_tol", "hjb_tol", "ergodic_tol"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.strategy not in ("gamma", "psi"):
            raise ValueError(f"strategy must be 'gamma' or 'psi', got {self.strategy!r}")
        seq = self.rho_sequence
        if seq and (len(seq) < 2 or not all(0.0 < b < a < np.inf for a, b in zip(seq, seq[1:]))):
            raise ValueError(
                "rho_sequence must be empty or at least two finite, positive, strictly decreasing "
                f"discounts, got {seq!r}"
            )

    @property
    def n_steps(self) -> int:
        n = int(round(self.T / self.dt))
        if abs(n * self.dt - self.T) > 1e-9 * max(1.0, self.T):
            raise ValueError(f"T={self.T} is not a multiple of dt={self.dt}")
        return n

    def times(self) -> np.ndarray:
        return np.arange(self.n_steps + 1) * self.dt


@dataclass(frozen=True)
class MuFixedPointResult:
    """Outcome of the per-slice joint-measure fixed point; mu.a is the
    (n^d, k) policy mu is the pushforward through."""

    mu: JointMeasure
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


def blend_policies(old: np.ndarray, new: np.ndarray, weight: float, control) -> np.ndarray:
    """Convex combination of two (n^d, k) policies, projected onto the
    control set."""
    return control.project((1.0 - weight) * old + weight * new)


def _zero_policy(spec: ModelSpec, grid: Grid) -> np.ndarray:
    return np.zeros((grid.size, spec.control.k))


def solve_joint_measure(
    m: DensityField,
    du: np.ndarray,
    spec: ModelSpec,
    tol: float = 1e-9,
    max_iter: int = 300,
    damping: float = 0.5,
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
    """
    if spec.kind != "instant":
        raise ValueError("the joint-measure fixed point requires an instant model")
    grid = m.grid
    nu_hat = pushforward(m, _zero_policy(spec, grid))
    policy = policy_field(spec, grid, du, nu_hat)
    mu_prev = pushforward(m, policy)

    increments: list[float] = []
    ratios: list[float] = []
    iterations, converged, damped = 0, False, False
    for it in range(1, 11 * max_iter + 1):
        if it == max_iter + 1:
            if not ratios or max(ratios) < 1.0:
                break
            damped = True  # non-contractive regime
        target = policy_field(spec, grid, du, mu_prev)
        policy = blend_policies(policy, target, damping, spec.control) if damped else target
        mu_next = pushforward(m, policy)
        d = wasserstein1_joint(mu_next, mu_prev)
        if not damped and increments and increments[-1] >= RATE_FLOOR:
            ratios.append(d / increments[-1])
        increments.append(d)
        mu_prev, iterations = mu_next, it
        if d <= tol:
            converged = True
            break
    return MuFixedPointResult(
        mu=mu_prev, iterations=iterations, converged=converged,
        rate=max(ratios) if ratios else None, increments=tuple(increments), damped=damped,
    )


def _slice_context(spec: ModelSpec, times: np.ndarray, mu_traj: Sequence[JointMeasure], j: int) -> JointMeasure:
    """The measure the Hamiltonian of slice j reads."""
    return slice_measure(spec, times[: j + 1], mu_traj[: j + 1])


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


def _evolve(spec: ModelSpec, m0: DensityField, config: CouplingConfig, measures, policies):
    """One Fokker-Planck evolution from m0: the drift of slice j's policy and
    measure drives the step from t_j, so the last slice's drift is not needed."""
    steps = zip(policies[: config.n_steps], measures)
    return fp_evolve(m0, [drift_field(spec, m0.grid, a, nu) for a, nu in steps], config.dt)


def _picard(spec, m0, config, slice_solve, outer_error):
    """The outer Picard loop both strategies share.

    Each pass calls slice_solve(previous policies), which returns the
    per-slice measures the Hamiltonians read and the optimal policies;
    evolves the density once with their drifts; and logs the row
    (pass, *outer_error(trajectory, policies)), whose first entry is the
    total error tested against the outer tolerance.  Returns
    (log, last policies, converged).
    """
    log: list[tuple] = []
    policies = None
    for k in range(1, config.max_outer + 1):
        measures, policies = slice_solve(policies)
        traj = _evolve(spec, m0, config, measures, policies)
        log.append((k, *outer_error(traj, policies)))
        if log[-1][1] <= config.outer_tol:
            return log, policies, True
    return log, policies, False


def _failed_checks(**results) -> set:
    """The names whose group of solver results holds one that did not converge."""
    return {name for name, group in results.items() if not all(r.converged for r in group)}


def _solution(spec, config, log, converged, failed, m, hjbs, mu):
    """TrajectorySolution of an outer strategy from its last per-slice HJB
    solutions and the stored (m, mu), with its shared diagnostics.

    The per-slice residuals are measured, not assumed: slice j's HJB
    residual is equation_residual of its pair in the measure the slice's
    Hamiltonian reads, and its measure residual the joint W1 between mu[j]
    and the pushforward of m[j] through the improved policy that call
    returns.  failed holds the checks the slice solves missed; an
    unconverged outer loop and the measured residuals add theirs.
    """
    times, grid = config.times(), m[0].grid
    w, s = tuple(h.w for h in hjbs), np.array([h.s for h in hjbs])
    hjb_res, mu_res = np.zeros(len(m)), np.zeros(len(m))
    for j, (m_j, mu_j, w_j, s_j) in enumerate(zip(m, mu, w, s)):
        nu = _slice_context(spec, times, mu, j)
        hjb_res[j], probe, _, _ = equation_residual(spec, nu, config.rho, grid, w_j, s_j)
        mu_res[j] = wasserstein1_joint(mu_j, pushforward(m_j, probe))
    failed = set(failed)
    if not converged:
        failed.add("outer")
    if hjb_res.max() > config.hjb_tol:
        failed.add("hjb_residual")
    if mu_res.max() > config.inner_tol:
        failed.add("mu_residual")
    diagnostics = {
        "outer_iterations": len(log),
        "final_outer_error": log[-1][1] if log else 0.0,
        "failures": sorted(failed),
        "hjb_residual_histories": tuple(h.residual_history for h in hjbs),
    }
    return TrajectorySolution(
        times=times,
        m=tuple(m),
        mu=tuple(mu),
        w=w,
        s=s,
        rho=config.rho,
        outer_errors=tuple(log),
        hjb_residuals=hjb_res,
        mu_residuals=mu_res,
        diagnostics=diagnostics,
    )


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
    if spec.kind != "instant":
        raise ValueError("field iteration requires an instant model")
    grid = m0.grid
    n_slices = config.n_steps + 1

    if initial is None:
        u_list = [np.zeros(grid.size) for _ in range(n_slices)]
        m_list: list[DensityField] = [m0] * n_slices
    else:
        u_list, m_list = list(initial[0]), list(initial[1])
        if len(u_list) != n_slices or len(m_list) != n_slices:
            raise ValueError("initial value trajectory has the wrong length")
    du_list = [gradient_central(grid, u) for u in u_list]
    fixed_points: list = []  # per-slice joint-measure fixed points of the last solve
    hjbs: list = []  # and the HJB solutions in their measures
    failed: set = set()

    def slice_solve(_policies_prev):
        nonlocal fixed_points, hjbs
        fixed_points, hjbs = [], []
        for m, du in zip(m_list, du_list):
            res = solve_joint_measure(
                m, du, spec, tol=config.inner_tol, max_iter=config.inner_max_iter, damping=config.damping,
            )
            fixed_points.append(res)
            hjbs.append(solve_discounted(
                spec, res.mu, config.rho, grid, tol=config.hjb_tol, warm_start=res.mu.a,
            ))
        failed.update(_failed_checks(inner=fixed_points, hjb=hjbs))
        return [res.mu for res in fixed_points], [h.policy for h in hjbs]

    def outer_error(traj, _policies):
        nonlocal m_list, du_list
        new_du = [gradient_central(grid, h.w) for h in hjbs]
        du_errs = [float(np.abs(a - b).max()) for a, b in zip(new_du, du_list)]
        m_errs = [wasserstein1_state(a, b) for a, b in zip(traj, m_list)]
        m_list, du_list = list(traj), new_du
        return max(a + b for a, b in zip(du_errs, m_errs)), max(du_errs), max(m_errs)

    log, _, converged = _picard(spec, m0, config, slice_solve, outer_error)
    slice_solve(None)  # consistency solve on the final densities and gradients
    return _solution(spec, config, log, converged, failed, m_list, hjbs, [res.mu for res in fixed_points])


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
    grid = m0.grid
    times = config.times()
    n_slices = config.n_steps + 1

    if initial is None:
        mu_traj = [pushforward(m0, _zero_policy(spec, grid))] * n_slices
        m_traj = [m0] * n_slices
    else:
        mu_traj, m_traj = list(initial[0]), list(initial[1])
        if len(mu_traj) != n_slices or len(m_traj) != n_slices:
            raise ValueError("initial measure trajectory has the wrong length")
    hjbs: list = []
    failed: set = set()

    def slice_solve(warm):
        nonlocal hjbs
        measures = [_slice_context(spec, times, mu_traj, j) for j in range(n_slices)]
        hjbs = [
            solve_discounted(
                spec, nu, config.rho, grid, tol=config.hjb_tol, warm_start=warm[j] if warm else None,
            )
            for j, nu in enumerate(measures)
        ]
        failed.update(_failed_checks(hjb=hjbs))
        return measures, [h.policy for h in hjbs]

    def outer_error(traj, policies):
        nonlocal mu_traj, m_traj
        mu_new = [pushforward(m, a) for m, a in zip(traj, policies)]
        state_w1s = [wasserstein1_state(new, old) for new, old in zip(traj, m_traj)]
        e_k = _max_joint_w1(list(zip(mu_new, mu_traj)), [1.0] * n_slices, state_w1s, config.outer_tol)
        mu_traj, m_traj = mu_new, list(traj)
        return e_k, e_k

    log, policies, converged = _picard(spec, m0, config, slice_solve, outer_error)
    # consistency pass: one more pass, so each stored measure is the
    # pushforward of its density through the stored policy
    measures, policies = slice_solve(policies)
    traj = _evolve(spec, m0, config, measures, policies)
    mu_traj = [pushforward(m, a) for m, a in zip(traj, policies)]
    return _solution(spec, config, log, converged, failed, traj, hjbs, mu_traj)


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


def _run_strategy(spec, m0, config, initial=None) -> TrajectorySolution:
    if config.strategy == "gamma":
        return solve_field_iteration(spec, m0, config, initial=initial)
    return solve_measure_iteration(spec, m0, config, initial=initial)


def _level_increments(sol: TrajectorySolution, prev: TrajectorySolution) -> tuple[float, float]:
    """The value increment, the largest per-slice |s diff| + |w diff|_inf,
    and the increment, the same with the state W1 distance added, between
    two discount levels."""
    gaps = [abs(s1 - s0) + float(np.abs(w1 - w0).max()) for s1, s0, w1, w0 in zip(sol.s, prev.s, sol.w, prev.w)]
    return max(gaps), max(g + wasserstein1_state(m1, m0) for g, m1, m0 in zip(gaps, sol.m, prev.m))


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
    level's per-slice HJB pairs (w, s) are the normalized values, zero at the
    HJB normalization node, and the per-slice cost estimates; the driver
    stops when the combined per-slice increments (including the state W1
    distance) fall below the ergodic tolerance, or runs the whole sequence if
    configured to.  The result is the last level's solution read at rho = 0.
    Its pairs are then measured slice by slice in the ergodic equation and
    against direct ergodic solves: ergodic_residual_max is their largest HJB
    residual at rho = 0, where the solution's hjb_residuals are measured at
    the last discount, and it does not enter converged.  The diagnostics
    are the last level's, except level_outer_iterations, the outer passes of
    each level, outer_iterations, their sum, and failures, which names the
    checks any level missed and "ergodic" if the increments never reached
    the tolerance.
    """
    if not config.rho_sequence:
        raise ValueError("ergodic driver needs a nonempty rho_sequence")
    grid = m0.grid
    levels: list[TrajectorySolution] = []  # every solved level, in order
    increments: list[tuple[float, float]] = []  # (value increment, increment) per pair of levels
    for rho in map(float, config.rho_sequence):
        fits = [
            (lv.rho, lv.w if config.strategy == "gamma" else lv.policy, [m.values for m in lv.m]) for lv in levels[-3:]
        ]
        initial = _extrapolated_start(spec, grid, config.strategy, fits, rho) if fits else None
        levels.append(_run_strategy(spec, m0, replace(config, rho=rho), initial=initial))
        if len(levels) > 1:
            increments.append(_level_increments(levels[-1], levels[-2]))
        converged = bool(increments) and increments[-1][1] <= config.ergodic_tol
        if converged and not config.full_sequence:
            break

    # the reported pairs measured in the ergodic equation (rho = 0), and a
    # per-slice cross-check against the direct ergodic solver
    sol, times = levels[-1], config.times()
    ergodic_res, direct_gaps = [], []
    for j, (w, s) in enumerate(zip(sol.w, sol.s)):
        nu = _slice_context(spec, times, sol.mu, j)
        ergodic_res.append(equation_residual(spec, nu, 0.0, grid, w, s)[0])
        es = solve_ergodic(spec, nu, grid, tol=config.hjb_tol)
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
    return _run_strategy(spec, m0, config)


def regularity_report(sol: TrajectorySolution, spec: ModelSpec | None = None, seed: int = 0) -> dict:
    """Empirical counterparts of the a-priori estimates on a converged run.

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

    if spec is not None:
        mesh = spec.control.mesh(129)
        ell_max = 0.0
        x = grid.coordinates()[:, None, :]
        for j in range(n):
            nu = _slice_context(spec, sol.times, sol.mu, j)
            vals = spec.running_cost(x, mesh[None, :, :], nu)
            ell_max = max(ell_max, float(np.abs(vals).max()))
        report["running_cost_sup"] = ell_max

    def _pairs(count: int) -> list[tuple[int, int]]:
        allp = [(j, k) for j in range(n) for k in range(j + 1, n)]
        if len(allp) > count:
            chosen = rng.choice(len(allp), size=count, replace=False)
            allp = [allp[int(c)] for c in chosen]
        return allp

    du_fields = [gradient_central(grid, w) for w in sol.w]
    state_w1: dict[tuple[int, int], float] = {}
    best_du = best_m = 0.0
    for j, k in _pairs(STATE_PAIRS):
        root = np.sqrt(sol.times[k] - sol.times[j])
        best_du = max(best_du, float(np.abs(du_fields[j] - du_fields[k]).max()) / root)
        state_w1[j, k] = wasserstein1_state(sol.m[j], sol.m[k])
        best_m = max(best_m, state_w1[j, k] / root)
    # the densities' W1 bounds the joint W1 only where each stored measure
    # is the pushforward of the stored density
    pushed = [np.array_equal(nu.w, m.values * grid.cell_volume) for nu, m in zip(sol.mu, sol.m)]
    mu_pairs = _pairs(MEASURE_PAIRS)
    for j, k in mu_pairs:
        if (j, k) not in state_w1:
            state_w1[j, k] = wasserstein1_state(sol.m[j], sol.m[k])
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
