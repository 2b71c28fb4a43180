"""The engine substrate and LM-Offload's engine.

The paper's §5 compares LM-Offload, FlexGen and ZeRO-Inference on one
substrate: the same zig-zag schedule, the same Eq. 1/2 cost model and
the same LP.  :class:`Substrate` is what pricing derives from a platform
(hardware rates, CPU topology, contention model, the PyTorch-default
threading), and :class:`OffloadEngine` is what the engines share on top
of it: retargeting, the degradation rung, the rung's search space, the
plan-cache key, binding a cost model and building the report.  Each
engine keeps only its search.

LM-Offload's planning is two-pass, mirroring how the paper's pieces
compose:

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
from typing import ClassVar, Hashable

from repro.core.config import EngineConfig
from repro.core.plan_cache import PLAN_CACHE
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

#: What a search returns: (policy, cpu context, Algorithm 3 thread plan).
Plan = tuple[OffloadPolicy, CpuExecutionContext, ParallelismPlan | None]


@dataclass(frozen=True)
class Substrate:
    """What pricing derives from a :class:`Platform`: the Table 2 rates,
    the CPU topology and its shared-cache contention model.

    The engines, the drift audit, the experiment runners, the what-if
    sweep and the pipeline-parallel stages all derive these here, so a
    degraded platform re-derives every one of them alike.
    """

    hw: HardwareParams
    topology: CpuTopology
    contention: ContentionModel
    #: The plan-cache key part: ``Platform`` itself is mutable and
    #: unhashable, so the key names the rates, the CPU spec (topology)
    #: and the shared-cache spec (contention model).
    signature: tuple

    @classmethod
    def of(cls, platform: Platform) -> "Substrate":
        hw = HardwareParams.from_platform(platform)
        topology = CpuTopology.from_device(platform.cpu)
        return cls(
            hw, topology, ContentionModel(topology, platform.cache),
            (hw, platform.cpu, platform.cache),
        )

    def default_context(self) -> CpuExecutionContext:
        """PyTorch's default threading.  A new context per call: callers
        that adjust one (staging threads, CPU share) own it."""
        return CpuExecutionContext.pytorch_default(self.topology, self.contention)

    def controlled_context(self, plan: ParallelismPlan) -> CpuExecutionContext:
        """The threading an Algorithm 3 ``plan`` allocates (a new context)."""
        return CpuExecutionContext.from_plan(self.topology, self.contention, plan)


@dataclass
class OffloadEngine:
    """What every engine shares: a substrate derived from ``platform``,
    the degradation rung, the memoized search and the report.

    A subclass sets ``name`` and ``calibration`` and defines
    :meth:`plan`, which returns a :data:`Plan`.
    """

    platform: Platform

    #: Whether the policy search may choose quantization.
    quant_aware: ClassVar[bool] = False

    def __post_init__(self) -> None:
        #: Active degradation rung (``None`` = nominal); see
        #: :data:`repro.faults.LADDER` and :meth:`set_degradation`.
        self._degradation = None
        self.substrate = Substrate.of(self.platform)

    @property
    def hw(self) -> HardwareParams:
        return self.substrate.hw

    def retarget(self, platform: Platform) -> None:
        """Point the engine at a (possibly degraded) platform.

        The drift watchdog calls this when the effective hardware deviates
        beyond tolerance: the substrate (hardware rates, CPU topology,
        contention model) is derived again from the new specs.  Its
        signature is part of the plan-cache key, so the next plan request
        searches against reality — or finds the plan already searched on
        these specs.
        """
        self.platform = platform
        self.substrate = Substrate.of(platform)

    def set_degradation(self, rung) -> None:
        """Engage a :class:`~repro.faults.DegradationRung` (``None`` resets).

        The rung is part of the plan-cache key: rung changes change the
        search space (see :meth:`planner`).
        """
        self._degradation = rung

    def default_context(self) -> CpuExecutionContext:
        return self.substrate.default_context()

    def planner(self, ctx: CpuExecutionContext | None = None) -> PolicyPlanner:
        """The policy search on this engine's hardware under the active
        rung (``ctx`` defaults to :meth:`default_context`).

        ``force_cpu_attention`` pins attention to the CPU so the KV cache
        stays off the (degraded) interconnect; ``force_quant`` constrains
        a quantization-aware search to quantized W/KV candidates and is
        inert for a quantization-blind one.
        """
        rung = self._degradation
        return PolicyPlanner(
            hw=self.hw,
            cpu_ctx=ctx or self.default_context(),
            quant_aware=self.quant_aware,
            allow_gpu_attention=rung is None or not rung.force_cpu_attention,
            require_quant=rung is not None and rung.force_quant and self.quant_aware,
            calibration=self.calibration,
        )

    def cost_model(
        self, workload: Workload, policy: OffloadPolicy, ctx: CpuExecutionContext
    ) -> CostModel:
        """The Eq. 1/2 cost model of ``policy`` on this engine's hardware
        and calibration."""
        return CostModel(workload, policy, self.hw, ctx, self.calibration)

    def _knobs(self) -> Hashable:
        """The engine settings its search reads (a plan-cache key part)."""
        return self.calibration

    def _search(self, workload: Workload) -> Plan:
        return self.plan(workload)

    def plan_cached(self, workload: Workload) -> Plan:
        """Memoized :meth:`plan` — the planned-step costing hook.

        Looks the answer up in the process-wide
        :data:`~repro.core.plan_cache.PLAN_CACHE` under everything the
        search reads — engine type, knobs, substrate signature, rung and
        the (frozen) workload — so repeat callers, identical replicas and
        an engine retargeted back to known specs all get the searched
        (policy, context, thread plan) back without searching again.  The
        returned tuple is shared: read-only.
        """
        key = (
            type(self), self._knobs(), self.substrate.signature,
            self._degradation, workload,
        )
        return PLAN_CACHE.get(key, lambda: self._search(workload))

    def planned_cost_model(self, workload: Workload) -> CostModel:
        """Plan (memoized) and bind the cost model — one call from any
        (prompt_len, gen_len, batch geometry) point to per-step prices.
        The model runs the batch geometry the policy plans."""
        policy, ctx, _ = self.plan_cached(workload)
        return self.cost_model(_geometry(workload, policy), policy, ctx)

    def _report(
        self,
        workload: Workload,
        policy: OffloadPolicy,
        ctx: CpuExecutionContext,
        plan: ParallelismPlan | None,
    ) -> InferenceReport:
        """Evaluate a planned policy end to end."""
        workload = _geometry(workload, policy)
        model = self.cost_model(workload, policy, ctx)
        return InferenceReport(
            engine=self.name,
            workload=workload,
            policy=policy,
            breakdown=model.breakdown(),
            gpu_bytes=model.gpu_bytes_required(),
            cpu_bytes=model.cpu_bytes_required(),
            parallelism=plan,
        )

    def run(self, workload: Workload) -> InferenceReport:
        """Plan and evaluate end to end."""
        return self._report(workload, *self.plan(workload))


def _geometry(workload: Workload, policy: OffloadPolicy) -> Workload:
    """``workload`` at the batch geometry ``policy`` runs."""
    return workload.with_batches(policy.gpu_batch_size, policy.num_gpu_batches)


@dataclass
class LMOffloadEngine(OffloadEngine):
    """The full system (paper §5's "LM-Offload" rows)."""

    config: EngineConfig = field(default_factory=EngineConfig)
    name: str = "lm-offload"

    # The per-layer tracer (perfbench/tracing.py) wraps these on each
    # engine class's own namespace.
    plan_cached = OffloadEngine.plan_cached
    retarget = OffloadEngine.retarget
    set_degradation = OffloadEngine.set_degradation
    run = OffloadEngine.run

    @property
    def calibration(self):
        return self.config.calibration

    @property
    def quant_aware(self) -> bool:
        return self.config.quant_aware

    def _knobs(self) -> Hashable:
        return self.config

    def plan_parallelism(
        self, workload: Workload, policy: OffloadPolicy
    ) -> ParallelismPlan:
        """Run Algorithm 3 for the given policy's I/O volumes."""
        model = self.cost_model(workload, policy, self.default_context())
        iters = workload.model.num_layers * policy.num_gpu_batches
        # Per-iteration volumes: the controller reasons about one
        # (layer, batch) schedule step at a time.
        volumes = {task: vol / iters for task, vol in _io_volumes(model).items()}
        controller = ParallelismController(
            topology=self.substrate.topology,
            contention=self.substrate.contention,
            io_volumes=volumes,
        )
        graph = build_attention_graph(min(4, max(1, policy.num_gpu_batches)))
        wire = {task: vol / model.pcie_bw for task, vol in volumes.items()}
        return controller.plan(graph, io_wire_seconds=wire)

    def plan(self, workload: Workload) -> Plan:
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
                policy, _ = self.planner(base_ctx).search(workload)
            if not self.config.parallelism_control:
                return policy, base_ctx, None
            plan = self.plan_parallelism(workload, policy)
            search_ctx = self.substrate.controlled_context(plan)
            search_ctx.io_staging_threads = {}
            with span("engine.plan.pass2"):
                final, _ = self.planner(search_ctx).search(workload, seed=policy)
            if final != policy:
                # Algorithm 3 is pure in (workload, policy): a pass-1
                # policy that survives pass 2 keeps its thread plan.
                plan = self.plan_parallelism(workload, final)
            return final, self.substrate.controlled_context(plan), plan


def _io_volumes(model: CostModel) -> dict[str, float]:
    """Per-decode-step byte volumes of the five I/O tasks."""
    workload, policy = model.w, model.p
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
