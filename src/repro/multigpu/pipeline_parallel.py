"""Pipeline-parallel offloaded inference across multiple GPUs.

The paper's §5.5 setup: the POWER9 + 4x V100 node, OPT-13B / LLaMA-13B,
prompt 256, generation 64, *weak scaling* (the inference batch doubles
with the GPU count), LM-Offload vs FlexGen.

Model: the transformer stack is split into one contiguous stage per GPU.
During decode, every token flows through the stages in order; the
steady-state per-token latency is the **slowest stage** (plus a one-off
pipeline-fill latency of the other stages).  All stages feed their
offloaded tensors from the *shared* host memory, so the aggregate feed
bandwidth is capped by the host DRAM: with ``G`` GPUs each stage's
achievable interconnect rate is ``min(link, cpu_mem_bdw / G)``.

That shared-feed cap is exactly why the paper's gap *grows* with GPU
count: FlexGen streams uncompressed weights and hits the DRAM wall at
small ``G``, while LM-Offload's quantized streams stay under it longer.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

from repro.errors import ConfigError
from repro.hardware.platform import Platform, power9_4xv100
from repro.models.config import ModelConfig
from repro.offload.policy import OffloadPolicy
from repro.perfmodel.constants import EngineCalibration
from repro.perfmodel.latency import CostModel, CpuExecutionContext
from repro.perfmodel.notation import HardwareParams, Workload
from repro.units import dtype_bytes


@dataclass(frozen=True)
class PipelineReport:
    """Weak-scaling datapoint for one (engine, #GPUs)."""

    engine: str
    num_gpus: int
    workload: Workload
    per_token_seconds: float
    fill_seconds: float
    total_seconds: float
    stage_layers: tuple[int, ...]

    @property
    def throughput(self) -> float:
        return self.workload.block_size * self.workload.gen_len / self.total_seconds


def _split_layers(total: int, stages: int) -> tuple[int, ...]:
    """Contiguous near-equal layer split."""
    base, extra = divmod(total, stages)
    return tuple(base + (1 if i < extra else 0) for i in range(stages))


@dataclass
class PipelineParallelRunner:
    """Runs one engine pipeline-parallel over 1..4 V100s.

    Each stage picks its best policy from the engine's menu:

    * FlexGen considers CPU or GPU attention, never quantization, and runs
      default threading;
    * LM-Offload additionally considers weight/KV quantization and uses
      the parallelism controller's threading.

    Shared resources are modelled explicitly: all stages split the one
    host CPU (``cpu_share = 1/G``) and the host DRAM feed
    (per-stage link = ``min(NVLink, cpu_mem_bdw / G)``), which is the
    mechanism behind the paper's widening gap.
    """

    engine_name: str
    calibration: EngineCalibration = field(
        default_factory=EngineCalibration.paper_defaults
    )
    use_quant: bool = False
    parallelism_control: bool = False

    def _stage_contexts(
        self, platform: Platform, num_gpus: int
    ) -> list[CpuExecutionContext]:
        from repro.core.engine import Substrate

        sub = Substrate.of(platform)
        default = sub.default_context()
        default.cpu_share = 1.0 / num_gpus
        contexts = [default]
        if self.parallelism_control:
            from repro.parallel.controller import ParallelismController
            from repro.runtime.graph import build_attention_graph

            controller = ParallelismController(
                topology=sub.topology, contention=sub.contention
            )
            plan = controller.plan(build_attention_graph(4))
            controlled = sub.controlled_context(plan)
            controlled.cpu_share = 1.0 / num_gpus
            contexts.append(controlled)
        return contexts

    def _candidate_policies(self, workload: Workload) -> list[OffloadPolicy]:
        from repro.quant.config import QuantConfig

        q4 = QuantConfig(bits=4, group_size=64)
        base = dict(
            wg=0.0, cg=0.0, hg=1.0,
            gpu_batch_size=workload.gpu_batch_size,
            num_gpu_batches=workload.num_gpu_batches,
        )
        candidates = [
            OffloadPolicy(attention_on_cpu=True, **base),
            OffloadPolicy(attention_on_cpu=False, **base),
        ]
        if self.use_quant:
            candidates += [
                OffloadPolicy(attention_on_cpu=True, weight_quant=q4, **base),
                OffloadPolicy(attention_on_cpu=False, weight_quant=q4, **base),
                OffloadPolicy(attention_on_cpu=False, kv_quant=q4, **base),
                OffloadPolicy(
                    attention_on_cpu=False, weight_quant=q4, kv_quant=q4, **base
                ),
            ]
        return candidates

    def run(self, model: ModelConfig, num_gpus: int, workload: Workload) -> PipelineReport:
        """Evaluate the pipeline at ``num_gpus`` stages."""
        if num_gpus < 1:
            raise ConfigError("num_gpus must be >= 1")
        platform = power9_4xv100(num_gpus)
        contexts = self._stage_contexts(platform, num_gpus)
        stage_layers = _split_layers(model.num_layers, num_gpus)

        stage_times: list[float] = []
        for gi, layers in enumerate(stage_layers):
            stage_model = dataclasses.replace(
                model, name=f"{model.name}-stage{gi}", num_layers=layers
            )
            stage_workload = Workload(
                model=stage_model,
                prompt_len=workload.prompt_len,
                gen_len=workload.gen_len,
                gpu_batch_size=workload.gpu_batch_size,
                num_gpu_batches=workload.num_gpu_batches,
            )
            hw = HardwareParams.from_platform(platform, gpu_name=f"gpu{gi}")
            # Shared host DRAM feeds every stage: cap the per-stage link.
            shared = min(hw.pcie_bdw, hw.cpu_mem_bdw / num_gpus)
            hw = dataclasses.replace(hw, pcie_bdw=shared)
            iters = layers * workload.num_gpu_batches
            mid_token = max(0, (workload.gen_len - 1) // 2)
            best: float | None = None
            for ctx in contexts:
                for policy in self._candidate_policies(stage_workload):
                    try:
                        cost = CostModel(
                            stage_workload, policy, hw, ctx, self.calibration
                        )
                        cost.check_feasible()
                    except Exception:
                        continue
                    t = cost.step_seconds(cost.decode_task_costs(mid_token)) * iters
                    if best is None or t < best:
                        best = t
            if best is None:
                raise ConfigError(
                    f"no feasible stage policy for {stage_model.name} on {num_gpus} GPUs"
                )
            stage_times.append(best)

        per_token = max(stage_times)
        # Inter-stage activation handoff rides NVLink; tiny but charged.
        link = platform.link_between("gpu0", "gpu1") if num_gpus > 1 else None
        if link is not None:
            act = (
                workload.block_size
                * model.hidden_size
                * dtype_bytes("fp16")
            )
            per_token += (num_gpus - 1) * link.transfer_time(act) / num_gpus
        fill = sum(stage_times) - per_token
        total = fill + per_token * workload.gen_len
        return PipelineReport(
            engine=self.engine_name,
            num_gpus=num_gpus,
            workload=workload,
            per_token_seconds=per_token,
            fill_seconds=max(fill, 0.0),
            total_seconds=total,
            stage_layers=stage_layers,
        )


def weak_scaling_sweep(
    model: ModelConfig,
    base_batch: int = 32,
    gen_len: int = 64,
    prompt_len: int = 256,
    gpu_counts: tuple[int, ...] = (1, 2, 4),
) -> dict[str, list[PipelineReport]]:
    """Figure 9's sweep: batch doubles with GPU count, both engines."""
    flexgen = PipelineParallelRunner(engine_name="flexgen", use_quant=False)
    lm = PipelineParallelRunner(
        engine_name="lm-offload", use_quant=True, parallelism_control=True
    )
    out: dict[str, list[PipelineReport]] = {"flexgen": [], "lm-offload": []}
    for g in gpu_counts:
        workload = Workload(
            model=model,
            prompt_len=prompt_len,
            gen_len=gen_len,
            gpu_batch_size=base_batch * g,
            num_gpu_batches=4,
        )
        out["flexgen"].append(flexgen.run(model, g, workload))
        out["lm-offload"].append(lm.run(model, g, workload))
    return out
