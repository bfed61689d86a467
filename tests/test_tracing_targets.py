"""The benchmark tracer's wrap targets exist in qsmfg.

perfbench/tracing.py wraps qsmfg functions at the module-level names their
callers imported (``from .hjb import solve_discounted`` in qsmfg.coupling,
for example).  A caller that stops importing such a name would only fail in
the slow perfbench suite; this test loads the tracer by path and checks every
target with a stub that records, and patches nothing.
"""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).parent.parent / "perfbench" / "tracing.py"


class _RecordingTracer:
    def __init__(self):
        self.targets = []

    def wrap(self, module, attr, name, before=None, after=None, failed=None):
        self.targets.append((module, attr))


def test_every_traced_name_is_a_callable_of_its_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    stub = _RecordingTracer()
    tracing.install(stub)
    for attr in (
        "solve_joint_measure", "solve_discounted", "equation_residual",
        "policy_field", "pushforward", "wasserstein1_joint",
    ):
        assert ("qsmfg.coupling", attr) in stub.targets
    for module, attr in stub.targets:
        assert callable(getattr(importlib.import_module(module), attr, None)), f"{module}.{attr}"
