"""LM-Offload engine: model-guided policy + parallelism planning.

Planning is two-pass, mirroring how the paper's pieces compose:

1. a provisional policy search under default threading estimates the I/O
   volumes each of the five load/store tasks will carry;
2. Algorithm 3 allocates threads against those volumes and the attention
   op graph, yielding the controlled CPU execution context;
3. the quantization-aware policy search re-runs under the controlled
   context (thread allocation shifts the CPU-attention/GPU trade-off, so
   placement can change).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.config import EngineConfig
from repro.core.plan_cache import PLAN_CACHE, platform_signature
from repro.core.report import InferenceReport
from repro.obs.profiling import span
from repro.hardware.platform import Platform
from repro.offload.planner import PolicyPlanner
from repro.offload.policy import OffloadPolicy
from repro.parallel.controller import ParallelismController, ParallelismPlan
from repro.parallel.speedup import ContentionModel
from repro.parallel.topology import CpuTopology
from repro.perfmodel.latency import CostModel, CpuExecutionContext
from repro.perfmodel.notation import HardwareParams, Workload
from repro.runtime.graph import build_attention_graph


@dataclass
class LMOffloadEngine:
    """The full system (paper §5's "LM-Offload" rows)."""

    platform: Platform
    config: EngineConfig = field(default_factory=EngineConfig)
    name: str = "lm-offload"

    def __post_init__(self) -> None:
        #: Active degradation rung (``None`` = nominal); see
        #: :data:`repro.faults.LADDER` and :meth:`set_degradation`.
        self._degradation = None
        self._rebuild()

    def _rebuild(self) -> None:
        """Derive every platform-dependent structure."""
        self.hw = HardwareParams.from_platform(self.platform)
        self.topology = CpuTopology.from_device(self.platform.cpu)
        self.contention = ContentionModel(self.topology, self.platform.cache)
        self._platform_sig = platform_signature(self.platform, self.hw)

    def retarget(self, platform: Platform) -> None:
        """Point the engine at a (possibly degraded) platform.

        The drift watchdog calls this when the effective hardware deviates
        beyond tolerance: every derived structure (hardware rates, CPU
        topology, contention model) is rebuilt from the new specs.  The
        platform signature is part of the plan-cache key, so the next plan
        request searches against reality — or finds the plan already
        searched on these specs.
        """
        self.platform = platform
        self._rebuild()

    def set_degradation(self, rung) -> None:
        """Engage a :class:`~repro.faults.DegradationRung` (``None`` resets).

        ``force_quant`` constrains the policy search to quantized W/KV
        candidates; ``force_cpu_attention`` pins attention to the CPU so
        the KV cache stays off the (degraded) interconnect.  The rung is
        part of the plan-cache key: rung changes change the search space.
        """
        self._degradation = rung

    @property
    def calibration(self):
        """Calibration constants (uniform accessor across all engines)."""
        return self.config.calibration

    # -- contexts ---------------------------------------------------------

    def default_context(self) -> CpuExecutionContext:
        return CpuExecutionContext.pytorch_default(self.topology, self.contention)

    def _planner(self, ctx: CpuExecutionContext) -> PolicyPlanner:
        rung = self._degradation
        allow_gpu_attention = self.config.allow_gpu_attention
        require_quant = False
        if rung is not None:
            require_quant = rung.force_quant and self.config.quant_aware
            if rung.force_cpu_attention:  # reach: tests/test_chaos_serving.py::test_host_memory_shrink_walks_the_ladder_and_recovers
                allow_gpu_attention = False
        return PolicyPlanner(
            hw=self.hw,
            cpu_ctx=ctx,
            quant_aware=self.config.quant_aware,
            quant=self.config.quant,
            wg_step=self.config.wg_step,
            allow_gpu_attention=allow_gpu_attention,
            require_quant=require_quant,
            calibration=self.config.calibration,
        )

    def planner(self, ctx: CpuExecutionContext | None = None) -> PolicyPlanner:
        """A policy planner on this engine's hardware (public hook for
        geometry searches and diagnostics — e.g. surfacing
        ``last_geometry_failures`` in the CLI)."""
        return self._planner(ctx or self.default_context())

    def _io_volumes(self, workload: Workload, policy: OffloadPolicy) -> dict[str, float]:
        """Per-decode-step byte volumes of the five I/O tasks."""
        model = CostModel(
            workload, policy, self.hw, self.default_context(), self.config.calibration
        )
        mid = max(0, (workload.gen_len - 1) // 2)
        stored = model.kv_store_bytes_per_token()
        ctx_len = workload.prompt_len + 1 + mid
        streamed = 0.0 if policy.attention_on_cpu else (1.0 - policy.cg)
        act = model.fp.activation_bytes_per_layer
        return {
            "load_weight": model.offloaded_weight_bytes_per_layer()
            * workload.model.num_layers,
            "load_cache": ctx_len * stored * streamed * workload.model.num_layers,
            "store_cache": stored * streamed * workload.model.num_layers,
            "load_activation": act * workload.model.num_layers,
            "store_activation": act * workload.model.num_layers,
        }

    def plan_parallelism(
        self, workload: Workload, policy: OffloadPolicy
    ) -> ParallelismPlan:
        """Run Algorithm 3 for the given policy's I/O volumes."""
        iters = workload.model.num_layers * policy.num_gpu_batches
        # Per-iteration volumes: the controller reasons about one
        # (layer, batch) schedule step at a time.
        volumes = {
            task: vol / iters
            for task, vol in self._io_volumes(workload, policy).items()
        }
        controller = ParallelismController(
            topology=self.topology,
            contention=self.contention,
            io_volumes=volumes,
        )
        graph = build_attention_graph(min(4, max(1, policy.num_gpu_batches)))
        pcie = self.hw.pcie_bdw * self.config.calibration.pcie_efficiency
        wire = {task: vol / pcie for task, vol in volumes.items()}
        return controller.plan(graph, io_wire_seconds=wire)

    # -- the public API ---------------------------------------------------

    def plan(self, workload: Workload) -> tuple[OffloadPolicy, CpuExecutionContext, ParallelismPlan | None]:
        """Two-pass planning; returns (policy, cpu context, thread plan).

        Pass 2's policy search runs under the controlled *compute*
        threading but without per-task staging-thread limits (those are a
        refinement tied to a specific policy's volumes); the final thread
        plan is then rebuilt for the policy actually chosen, when pass 2
        chose a different one.

        Pass 1's policy joins pass 2's candidate set, so the known-good
        point survives any LP drift under the controlled threading.  Pass
        2 re-screens memory from scratch: the screen is one array pass per
        strategy, so replaying pass 1's verdicts would save nothing.
        """
        with span("engine.plan"):
            base_ctx = self.default_context()
            with span("engine.plan.pass1"):
                policy, _ = self._planner(base_ctx).search(workload)
            if not self.config.parallelism_control:
                return policy, base_ctx, None
            plan = self.plan_parallelism(workload, policy)
            search_ctx = CpuExecutionContext.from_plan(
                self.topology, self.contention, plan
            )
            search_ctx.io_staging_threads = {}
            with span("engine.plan.pass2"):
                final, _ = self._planner(search_ctx).search(workload, seed=policy)
            if final != policy:
                # Algorithm 3 is pure in (workload, policy): a pass-1
                # policy that survives pass 2 keeps its thread plan.
                plan = self.plan_parallelism(workload, final)
            ctx = CpuExecutionContext.from_plan(self.topology, self.contention, plan)
            return final, ctx, plan

    def plan_cached(
        self, workload: Workload
    ) -> tuple[OffloadPolicy, CpuExecutionContext, ParallelismPlan | None]:
        """Memoized :meth:`plan` — the planned-step costing hook.

        Looks the answer up in the process-wide
        :data:`~repro.core.plan_cache.PLAN_CACHE` under everything the
        search reads — engine type, config, platform signature, rung and
        the (frozen) workload — so repeat callers, identical replicas and
        an engine retargeted back to known specs all get the searched
        (policy, context, thread plan) back without re-running the
        two-pass search.  The returned tuple is shared: read-only.
        """
        key = (
            type(self), self.config, self._platform_sig, self._degradation, workload
        )
        return PLAN_CACHE.get(key, lambda: self.plan(workload))

    def planned_cost_model(self, workload: Workload) -> CostModel:
        """Plan (memoized) and bind the cost model — one call from any
        (prompt_len, gen_len, batch geometry) point to per-step prices."""
        policy, ctx, _ = self.plan_cached(workload)
        return CostModel(workload, policy, self.hw, ctx, self.config.calibration)

    def run(
        self, workload: Workload, policy: OffloadPolicy | None = None
    ) -> InferenceReport:
        """Plan (unless a policy is forced) and evaluate end to end."""
        if policy is None:
            policy, ctx, plan = self.plan(workload)
        else:  # reach: tests/test_core_engine.py::test_forced_policy_respected (a caller-supplied policy)
            ctx, plan = self.default_context(), None
            if self.config.parallelism_control:
                plan = self.plan_parallelism(workload, policy)
                ctx = CpuExecutionContext.from_plan(self.topology, self.contention, plan)
        model = CostModel(workload, policy, self.hw, ctx, self.config.calibration)
        breakdown = model.breakdown()
        return InferenceReport(
            engine=self.name,
            workload=workload,
            policy=policy,
            breakdown=breakdown,
            gpu_bytes=model.gpu_bytes_required(),
            cpu_bytes=model.cpu_bytes_required(),
            parallelism=plan,
        )
