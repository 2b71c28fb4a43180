"""FlexGen baseline (Sheng et al., ICML'23) on the shared substrate.

What it shares with LM-Offload: the zig-zag block schedule, the six
overlapped tasks, the LP placement search over wg/cg/hg and the attention
placement choice.

What it lacks (the paper's §2.2 critique): a model of quantization
overhead/benefit — its search runs with quantization off — and any
thread-level parallelism control — it inherits PyTorch defaults.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.engine import OffloadEngine, Plan
from repro.perfmodel.constants import EngineCalibration
from repro.perfmodel.notation import Workload


@dataclass
class FlexGenEngine(OffloadEngine):
    """FlexGen: LP placement, no quant-awareness, default threading.

    Of the degradation rungs, ``force_quant`` is inert — FlexGen has no
    quantization model, the honest reproduction of its §2.2 gap — and
    ``force_cpu_attention`` applies (its search has the attention
    placement choice).
    """

    calibration: EngineCalibration = field(
        default_factory=EngineCalibration.paper_defaults
    )
    name: str = "flexgen"

    # The per-layer tracer (perfbench/tracing.py) wraps these on each
    # engine class's own namespace.
    plan_cached = OffloadEngine.plan_cached
    retarget = OffloadEngine.retarget
    set_degradation = OffloadEngine.set_degradation
    run = OffloadEngine.run

    def plan(self, workload: Workload) -> Plan:
        """The quantization-blind search under PyTorch's default threading."""
        ctx = self.default_context()
        policy, _ = self.planner(ctx).search(workload)
        return policy, ctx, None
