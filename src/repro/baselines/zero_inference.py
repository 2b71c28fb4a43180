"""ZeRO-Inference baseline (Aminabadi et al., SC'22) on the shared substrate.

Per the paper's §5.1 configuration: ZeRO-Inference "does not support
partial tensor-offloading" — each tensor class is either fully on GPU or
fully offloaded.  The evaluated setting keeps **all weights GPU-resident
in 4-bit** (its default quantization) and **offloads the whole KV cache**
to host memory, streaming it through the GPU for attention.  It has no
zig-zag blocking, so batch sizes are limited by what fits alongside the
resident weights — the paper reports ~24x smaller batches than
LM-Offload.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.plan_cache import PLAN_CACHE, platform_signature
from repro.core.report import InferenceReport
from repro.errors import PolicyError
from repro.hardware.platform import Platform
from repro.offload.policy import OffloadPolicy
from repro.parallel.speedup import ContentionModel
from repro.parallel.topology import CpuTopology
from repro.perfmodel.constants import EngineCalibration
from repro.perfmodel.latency import CostModel, CpuExecutionContext
from repro.perfmodel.notation import HardwareParams, Workload
from repro.quant.config import QuantConfig


@dataclass
class ZeroInferenceEngine:
    """ZeRO-Inference: whole-tensor offloading, 4-bit resident weights."""

    platform: Platform
    calibration: EngineCalibration = field(
        default_factory=EngineCalibration.deepspeed_defaults
    )
    max_batch: int = 64
    name: str = "zero-inference"

    def __post_init__(self) -> None:
        self._degradation = None
        self._rebuild()

    def _rebuild(self) -> None:
        self.hw = HardwareParams.from_platform(self.platform)
        self.topology = CpuTopology.from_device(self.platform.cpu)
        self.contention = ContentionModel(self.topology, self.platform.cache)
        self.ctx = CpuExecutionContext.pytorch_default(self.topology, self.contention)
        # DeepSpeed streams through pre-pinned buffers: no staging limits.
        self.ctx.io_staging_threads = {}
        self.quant = QuantConfig(bits=4, group_size=64)
        self._platform_sig = platform_signature(self.platform, self.hw)

    def retarget(self, platform: Platform) -> None:
        """Re-derive everything from a (degraded) platform; the new
        platform signature keys the next plan request."""
        self.platform = platform
        self._rebuild()

    def set_degradation(self, rung) -> None:
        """Degradation hook (uniform engine interface).

        ZeRO-Inference already runs W4 resident weights and streams the
        whole KV cache, so the quant/attention rungs are inert; only the
        batch-shrink/backpressure mechanics (owned by the serving loop)
        apply.  The rung still keys the plan cache."""
        self._degradation = rung

    def _policy(self, batch: int) -> OffloadPolicy:
        return OffloadPolicy(
            wg=1.0,               # whole weight tensor on GPU...
            cg=0.0,               # ...whole KV cache off GPU,
            hg=1.0,               # activations stay on GPU,
            attention_on_cpu=False,  # attention on GPU over the streamed cache
            weight_quant=self.quant,
            kv_quant=None,
            quantize_resident_weights=True,
            gpu_batch_size=batch,
            num_gpu_batches=1,    # no zig-zag blocking
        )

    def plan(self, workload: Workload, batch: int | None = None) -> OffloadPolicy:
        """Largest power-of-two batch (<= max_batch) that fits in memory.

        ``batch`` forces a specific size (used by the Table 3 harness to
        replicate the paper's measured ZeRO-Inference configurations).
        """
        if batch is not None:
            policy = self._policy(batch)
            CostModel(
                workload.with_batches(batch, 1), policy, self.hw, self.ctx,
                self.calibration,
            ).check_feasible()
            return policy
        batch = self.max_batch
        while batch >= 1:
            trial = workload.with_batches(batch, 1)
            policy = self._policy(batch)
            try:
                CostModel(
                    trial, policy, self.hw, self.ctx, self.calibration
                ).check_feasible()
                return policy
            except PolicyError:
                batch //= 2
        raise PolicyError(
            f"ZeRO-Inference cannot fit {workload.model.name} at any batch size"
        )

    def plan_cached(
        self, workload: Workload
    ) -> tuple[OffloadPolicy, CpuExecutionContext, None]:
        """Planned-step costing hook.

        ZeRO-Inference has no zig-zag blocking, so the workload's whole
        block runs as a single batch: the returned policy has
        ``num_gpu_batches=1`` and ``gpu_batch_size == block_size`` (raises
        :class:`PolicyError` when that batch does not fit).  Shares
        LMOffloadEngine's process-wide plan cache.
        """
        block = workload.block_size
        key = (
            type(self), self.calibration, self.max_batch, self.quant,
            self._platform_sig, self._degradation, workload,
        )

        def search() -> tuple[OffloadPolicy, CpuExecutionContext, None]:
            policy = self.plan(workload.with_batches(block, 1), batch=block)
            return policy, self.ctx, None

        return PLAN_CACHE.get(key, search)

    def planned_cost_model(self, workload: Workload) -> CostModel:
        policy, ctx, _ = self.plan_cached(workload)
        trial = workload.with_batches(policy.gpu_batch_size, 1)
        return CostModel(trial, policy, self.hw, ctx, self.calibration)

    def run(self, workload: Workload, batch: int | None = None) -> InferenceReport:
        policy = self.plan(workload, batch=batch)
        trial = workload.with_batches(policy.gpu_batch_size, 1)
        model = CostModel(trial, policy, self.hw, self.ctx, self.calibration)
        return InferenceReport(
            engine=self.name,
            workload=trial,
            policy=policy,
            breakdown=model.breakdown(),
            gpu_bytes=model.gpu_bytes_required(),
            cpu_bytes=model.cpu_bytes_required(),
            parallelism=None,
        )
