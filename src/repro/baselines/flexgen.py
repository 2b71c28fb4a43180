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

from repro.core.plan_cache import PLAN_CACHE, platform_signature
from repro.core.report import InferenceReport
from repro.hardware.platform import Platform
from repro.offload.planner import PolicyPlanner
from repro.offload.policy import OffloadPolicy
from repro.parallel.speedup import ContentionModel
from repro.parallel.topology import CpuTopology
from repro.perfmodel.constants import EngineCalibration
from repro.perfmodel.latency import CostModel, CpuExecutionContext
from repro.perfmodel.notation import HardwareParams, Workload


@dataclass
class FlexGenEngine:
    """FlexGen: LP placement, no quant-awareness, default threading."""

    platform: Platform
    calibration: EngineCalibration = field(
        default_factory=EngineCalibration.paper_defaults
    )
    name: str = "flexgen"

    def __post_init__(self) -> None:
        self._degradation = None
        self._rebuild()

    def _rebuild(self) -> None:
        self.hw = HardwareParams.from_platform(self.platform)
        self.topology = CpuTopology.from_device(self.platform.cpu)
        self.contention = ContentionModel(self.topology, self.platform.cache)
        self.ctx = CpuExecutionContext.pytorch_default(self.topology, self.contention)
        self._platform_sig = platform_signature(self.platform, self.hw)

    def retarget(self, platform: Platform) -> None:
        """Re-derive everything from a (degraded) platform; the new
        platform signature keys the next plan request."""
        self.platform = platform
        self._rebuild()

    def set_degradation(self, rung) -> None:
        """Degradation hook (uniform engine interface).

        FlexGen has no quantization model, so ``force_quant`` is inert —
        the honest reproduction of its §2.2 gap; ``force_cpu_attention``
        does apply (its search has the attention placement choice).
        """
        self._degradation = rung

    def plan(self, workload: Workload) -> OffloadPolicy:
        rung = self._degradation
        allow_gpu_attention = not (rung is not None and rung.force_cpu_attention)
        planner = PolicyPlanner(
            hw=self.hw,
            cpu_ctx=self.ctx,
            quant_aware=False,
            allow_gpu_attention=allow_gpu_attention,
            calibration=self.calibration,
        )
        policy, _ = planner.search(workload)
        return policy

    def plan_cached(
        self, workload: Workload
    ) -> tuple[OffloadPolicy, CpuExecutionContext, None]:
        """Planned-step costing hook (same shape and shared cache as
        LMOffloadEngine's)."""
        key = (
            type(self), self.calibration, self._platform_sig, self._degradation,
            workload,
        )
        return PLAN_CACHE.get(key, lambda: (self.plan(workload), self.ctx, None))

    def planned_cost_model(self, workload: Workload) -> CostModel:
        policy, ctx, _ = self.plan_cached(workload)
        return CostModel(workload, policy, self.hw, ctx, self.calibration)

    def run(
        self, workload: Workload, policy: OffloadPolicy | None = None
    ) -> InferenceReport:
        if policy is None:
            policy = self.plan(workload)
        model = CostModel(workload, policy, self.hw, self.ctx, self.calibration)
        return InferenceReport(
            engine=self.name,
            workload=workload,
            policy=policy,
            breakdown=model.breakdown(),
            gpu_bytes=model.gpu_bytes_required(),
            cpu_bytes=model.cpu_bytes_required(),
            parallelism=None,
        )
