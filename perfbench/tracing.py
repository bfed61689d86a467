"""In-memory span tracer for one benchmark worker, and the per-layer summary.

The tracer wraps public qsmfg functions at the names the calling module
bound with ``from .x import y``: that binding is what the caller looks up
at call time, so wrapping ``qsmfg.measure.wasserstein1_joint`` would miss
every call made from ``qsmfg.coupling``.  Spans are plain lists
``[name, start, end, parent]`` kept in memory; the worker writes them out
after the run.  Nothing here imports qsmfg at module level, so importing this
module costs nothing in the untraced run.
"""

from __future__ import annotations

import importlib
import time
from collections import Counter, defaultdict

ROOT_SPAN = "cli.run"

# Per-layer metric names and units, in the order the benchmark reports them.
PER_LAYER = (
    ("measure.w1_joint.same.calls", "count"),
    ("measure.w1_joint.same.busy_s", "s"),
    ("measure.w1_joint.cross.calls", "count"),
    ("measure.w1_joint.cross.busy_s", "s"),
    ("measure.w1_joint.lp_vars", "count"),
    ("measure.w1_joint.failed", "count"),
    ("measure.w1_state.calls", "count"),
    ("measure.w1_state.busy_s", "s"),
    ("measure.pushforward.calls", "count"),
    ("measure.pushforward.busy_s", "s"),
    ("hjb.solve_discounted.calls", "count"),
    ("hjb.solve_discounted.busy_s", "s"),
    ("hjb.policy_iterations", "count"),
    ("hjb.unconverged", "count"),
    ("hjb.solve_ergodic.calls", "count"),
    ("hjb.solve_ergodic.busy_s", "s"),
    ("hjb.equation_residual.calls", "count"),
    ("hjb.equation_residual.busy_s", "s"),
    ("fp.evolve.calls", "count"),
    ("fp.evolve.busy_s", "s"),
    ("fp.step.calls", "count"),
    ("fp.step.busy_s", "s"),
    ("model.policy_field.calls", "count"),
    ("model.policy_field.busy_s", "s"),
    ("model.drift_field.calls", "count"),
    ("model.drift_field.busy_s", "s"),
    ("coupling.solve_system.self_s", "s"),
    ("coupling.outer_iterations", "count"),
    ("coupling.joint_fp.calls", "count"),
    ("coupling.joint_fp.busy_s", "s"),
    ("coupling.joint_fp.iterations", "count"),
    ("coupling.joint_fp.unconverged", "count"),
    ("coupling.joint_fp.damped", "count"),
    ("coupling.vanishing.levels", "count"),
    ("coupling.regularity_report.busy_s", "s"),
    ("cli.run.self_s", "s"),
    ("trace.overhead_s", "s"),
)

# Counters taken from arguments and return values; every one is reported,
# so each starts at zero.
COUNTERS = (
    "measure.w1_joint.lp_vars",
    "measure.w1_joint.failed",
    "hjb.policy_iterations",
    "hjb.unconverged",
    "coupling.outer_iterations",
    "coupling.joint_fp.iterations",
    "coupling.joint_fp.unconverged",
    "coupling.joint_fp.damped",
    "coupling.vanishing.levels",
)


class Tracer:
    """Records nested spans and counters for one process."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter = Counter({name: 0 for name in COUNTERS})
        self._stack: list[int] = []

    def call(self, name: str, fn, *args, **kwargs):
        """Run fn inside a span called name."""
        index = len(self.spans)
        record = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1]
        self.spans.append(record)
        self._stack.append(index)
        record[1] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    def wrap(self, module: str, attr: str, name, before=None, after=None, failed=None) -> None:
        """Replace module.attr with a traced wrapper.

        name is a span name, a function of the call's arguments returning one,
        or None for a wrapper that only counts.  before(counts, args, kwargs)
        and after(counts, result) update the counters; a call that raises adds
        one to the counter named by failed.
        """
        mod = importlib.import_module(module)
        fn = getattr(mod, attr)
        counts = self.counts

        def traced(*args, **kwargs):
            if before is not None:
                before(counts, args, kwargs)
            span = name(args, kwargs) if callable(name) else name
            try:
                result = fn(*args, **kwargs) if span is None else self.call(span, fn, *args, **kwargs)
            except Exception:
                if failed is not None:
                    counts[failed] += 1
                raise
            if after is not None:
                after(counts, result)
            return result

        setattr(mod, attr, traced)


def _w1_joint_kind(args, kwargs) -> str:
    """"same" when both measures share atom positions and weights, i.e. the
    same state marginal pushed through two policies."""
    nu1, nu2 = args[0], args[1]
    same = (
        nu1.x.shape == nu2.x.shape
        and nu1.w.shape == nu2.w.shape
        and bool((nu1.x == nu2.x).all())
        and bool((nu1.w == nu2.w).all())
    )
    return "measure.w1_joint.same" if same else "measure.w1_joint.cross"


def _count_lp_vars(counts, args, kwargs) -> None:
    nu1, nu2 = args[0], args[1]
    counts["measure.w1_joint.lp_vars"] += int((nu1.w > 0).sum()) * int((nu2.w > 0).sum())


def _count_hjb(counts, sol) -> None:
    counts["hjb.policy_iterations"] += int(sol.iterations)
    counts["hjb.unconverged"] += int(not sol.converged)


def _count_joint_fp(counts, res) -> None:
    counts["coupling.joint_fp.iterations"] += int(res.iterations)
    counts["coupling.joint_fp.unconverged"] += int(not res.converged)
    counts["coupling.joint_fp.damped"] += int(res.damped)


def _count_outer(counts, sol) -> None:
    counts["coupling.outer_iterations"] += int(sol.diagnostics.get("outer_iterations", 0))


def _count_levels(counts, sol) -> None:
    counts["coupling.vanishing.levels"] += len(sol.diagnostics.get("rho_sequence", ()))


def install(tracer: Tracer) -> None:
    """Wrap every traced qsmfg function at the site its caller imported it."""
    wrap = tracer.wrap
    wrap("qsmfg.cli", "solve_system", "coupling.solve_system", after=_count_levels)
    wrap("qsmfg.cli", "regularity_report", "coupling.regularity_report")
    wrap("qsmfg.coupling", "solve_joint_measure", "coupling.joint_fp", after=_count_joint_fp)
    # counting only: a span here would take the outer loops' own time out of
    # coupling.solve_system's self time
    wrap("qsmfg.coupling", "solve_field_iteration", None, after=_count_outer)
    wrap("qsmfg.coupling", "solve_measure_iteration", None, after=_count_outer)
    wrap(
        "qsmfg.coupling", "wasserstein1_joint", _w1_joint_kind,
        before=_count_lp_vars, failed="measure.w1_joint.failed",
    )
    wrap("qsmfg.coupling", "wasserstein1_state", "measure.w1_state")
    wrap("qsmfg.coupling", "pushforward", "measure.pushforward")
    wrap("qsmfg.coupling", "solve_discounted", "hjb.solve_discounted", after=_count_hjb)
    wrap("qsmfg.coupling", "solve_ergodic", "hjb.solve_ergodic", after=_count_hjb)
    for module in ("qsmfg.coupling", "qsmfg.hjb"):
        wrap(module, "equation_residual", "hjb.equation_residual")
        wrap(module, "policy_field", "model.policy_field")
    wrap("qsmfg.coupling", "drift_field", "model.drift_field")
    wrap("qsmfg.coupling", "fp_evolve", "fp.evolve")
    wrap("qsmfg.fp", "fp_step", "fp.step")


def self_times(spans) -> dict[str, float]:
    """Per span name: summed duration minus the time covered by child spans."""
    out: dict[str, float] = defaultdict(float)
    for name, start, end, parent in spans:
        out[name] += end - start
        if parent >= 0:
            out[spans[parent][0]] -= end - start
    return dict(out)


def summarize(spans, counts) -> dict[str, float]:
    """Per-layer metrics of one traced run, except trace.overhead_s."""
    calls: Counter = Counter()
    busy: dict[str, float] = defaultdict(float)
    for name, start, end, _ in spans:
        calls[name] += 1
        busy[name] += end - start
    own = self_times(spans)
    values: dict[str, float] = {}
    for metric, _unit in PER_LAYER:
        stem, _, kind = metric.rpartition(".")
        if kind == "calls":
            values[metric] = calls[stem]
        elif kind == "busy_s":
            values[metric] = busy.get(stem, 0.0)
        elif kind == "self_s":
            values[metric] = own.get(stem, 0.0)
        elif metric in counts:
            values[metric] = counts[metric]
    return values
