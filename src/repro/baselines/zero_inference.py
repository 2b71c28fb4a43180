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

from repro.core.engine import OffloadEngine, Plan
from repro.core.report import InferenceReport
from repro.errors import PolicyError
from repro.offload.policy import OffloadPolicy
from repro.perfmodel.constants import EngineCalibration
from repro.perfmodel.latency import CpuExecutionContext
from repro.perfmodel.notation import Workload
from repro.quant.config import QuantConfig

#: ZeRO-Inference's default weight quantization.
W4 = QuantConfig(bits=4, group_size=64)
#: The batch its own search starts halving from.
MAX_BATCH = 64


@dataclass
class ZeroInferenceEngine(OffloadEngine):
    """ZeRO-Inference: whole-tensor offloading, 4-bit resident weights.

    It already runs W4 resident weights and streams the whole KV cache,
    so the quant/attention degradation rungs are inert; only the
    batch-shrink/backpressure mechanics (owned by the serving loop)
    apply.  The rung still keys the plan cache.
    """

    calibration: EngineCalibration = field(
        default_factory=EngineCalibration.deepspeed_defaults
    )
    name: str = "zero-inference"

    # The per-layer tracer (perfbench/tracing.py) wraps these on each
    # engine class's own namespace.
    plan_cached = OffloadEngine.plan_cached
    retarget = OffloadEngine.retarget
    set_degradation = OffloadEngine.set_degradation

    def default_context(self) -> CpuExecutionContext:
        """PyTorch threading without staging limits: DeepSpeed streams
        through pre-pinned buffers."""
        ctx = super().default_context()
        ctx.io_staging_threads = {}
        return ctx

    def _fitting(
        self, workload: Workload, batch: int, ctx: CpuExecutionContext
    ) -> OffloadPolicy:
        """The policy at ``batch``; raises :class:`PolicyError` when it
        does not fit in memory."""
        policy = OffloadPolicy(
            wg=1.0,               # whole weight tensor on GPU...
            cg=0.0,               # ...whole KV cache off GPU,
            hg=1.0,               # activations stay on GPU,
            attention_on_cpu=False,  # attention on GPU over the streamed cache
            weight_quant=W4,
            kv_quant=None,
            quantize_resident_weights=True,
            gpu_batch_size=batch,
            num_gpu_batches=1,    # no zig-zag blocking
        )
        self.cost_model(workload.with_batches(batch, 1), policy, ctx).check_feasible()
        return policy

    def plan(self, workload: Workload, batch: int | None = None) -> Plan:
        """Largest power-of-two batch (<= :data:`MAX_BATCH`) that fits in
        memory.

        ``batch`` forces a specific size (used by the Table 3 harness to
        replicate the paper's measured ZeRO-Inference configurations).
        """
        ctx = self.default_context()
        if batch is not None:
            return self._fitting(workload, batch, ctx), ctx, None
        batch = MAX_BATCH
        while batch >= 1:
            try:
                return self._fitting(workload, batch, ctx), ctx, None
            except PolicyError:
                batch //= 2
        raise PolicyError(
            f"ZeRO-Inference cannot fit {workload.model.name} at any batch size"
        )

    def _search(self, workload: Workload) -> Plan:
        """The planned-step costing search.

        ZeRO-Inference has no zig-zag blocking, so the workload's whole
        block runs as a single batch: the policy has ``num_gpu_batches=1``
        and ``gpu_batch_size == block_size`` (raises :class:`PolicyError`
        when that batch does not fit).
        """
        block = workload.block_size
        return self.plan(workload.with_batches(block, 1), batch=block)

    def run(self, workload: Workload, batch: int | None = None) -> InferenceReport:
        """Plan (at ``batch`` when given) and evaluate end to end."""
        return self._report(workload, *self.plan(workload, batch=batch))
