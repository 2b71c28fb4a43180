"""Multi-model serving: K models time-sharing one offloading platform.

One GPU box serving several model sizes (the OPT ladder) cannot hold all
of them resident: weights live in host/disk tiers and the *resident*
model's working set owns the GPU.  Serving a request for another model
first pays a **swap** — the incoming model's weight bytes over the same
PCIe link every other offloading transfer uses (and the fault layer can
degrade), so model switching is priced by exactly the transfer model the
paper calibrates, not a made-up constant.

:class:`MultiModelSimulator` is a driver over the same
:class:`~repro.serving.kernel.ReplicaKernel` as
:class:`~repro.serving.simulator.ServingSimulator` — ingest, expire, then
the kernel's admit → prefill → decode iteration, one priced step per
iteration — with one extra decision before admission: *which model
deserves the platform now*.  The kernel then admits only the resident
model's requests (its ordered queue, filtered) and steps on the resident
slot's :class:`~repro.serving.costing.StepCostOracle`.

* **swap-on-idle** — when nothing is running, the head of the ordered
  queue decides and the platform swaps to its model (FCFS
  chases the oldest wait, SJF the shortest predicted job, priority the
  highest class).
* **cross-model preemption** — a preemptive policy may evict the entire
  resident batch when the head waiting request belongs to another model
  and outranks (strictly higher ``priority``) everything running; the
  victims are requeued (their re-prefill on return is the preemption
  cost, as in single-model preemption) and the swap is charged on top.
* **predicted-SJF across models** — ranking with
  :class:`~repro.serving.policies.PredictedSJFPolicy` makes the
  between-model choice length-aware without oracle knowledge.

With one slot no swap can ever occur and the driver collapses to the
single-model one: a K=1 run with the oracle predictor is
byte-identical to :meth:`ServingSimulator.run` (pinned by an equivalence
matrix across policies and traces).

Faults (transient aborts, the drift watchdog, the degradation ladder)
are the single-model driver's; this driver prices steps and swaps on
nominal specs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Sequence

from repro.errors import ConfigError, ServingError
from repro.models.config import ModelConfig
from repro.models.registry import get_model
from repro.obs.profiling import PROFILER, span
from repro.obs.registry import Histogram
from repro.perfmodel.notation import HardwareParams
from repro.serving.arrivals import RequestTrace
from repro.serving.costing import StepCostOracle
from repro.serving.kernel import ReplicaKernel
from repro.serving.policies import SchedulerPolicy
from repro.serving.request import Request, RequestState
from repro.serving.simulator import ServingConfig, ServingResult
from repro.units import dtype_bytes

#: Bundled model mixes for ``serve-sim --models``.  Each entry lists the
#: co-resident model ids, smallest first; per-model SLO classes come from
#: :data:`SLO_CLASSES`.
MODEL_PRESETS: dict[str, tuple[str, ...]] = {
    "opt-duo": ("opt-13b", "opt-30b"),
    "opt-trio": ("opt-6.7b", "opt-13b", "opt-30b"),
}

#: Per-model SLO class (ttft_slo_s, tpot_slo_s): smaller models serve
#: interactive traffic under tight latency promises, larger ones batch
#: traffic under looser ones.  Models not listed inherit the run's
#: :class:`~repro.serving.simulator.ServingConfig` SLOs.
SLO_CLASSES: dict[str, tuple[float, float]] = {
    "opt-6.7b": (10.0, 1.0),
    "opt-13b": (20.0, 2.0),
    "opt-30b": (30.0, 3.5),
    "opt-66b": (90.0, 10.0),
}


@dataclass(frozen=True)
class ModelSlot:
    """One co-resident model: id, shape, and its SLO class.

    ``None`` SLO fields fall back to the run's ``ServingConfig`` targets,
    so a slot without a class behaves exactly like single-model serving.
    """

    name: str
    model: ModelConfig
    ttft_slo_s: float | None = None
    tpot_slo_s: float | None = None

    @property
    def weight_bytes(self) -> float:
        """Bytes a swap-in must move: the full (uncompressed) weight set."""
        return self.model.total_weights * dtype_bytes(self.model.dtype)


def make_slots(spec: str) -> tuple[ModelSlot, ...]:
    """Resolve a preset name or comma-separated model ids into slots."""
    names = MODEL_PRESETS.get(spec, tuple(s.strip() for s in spec.split(",") if s.strip()))
    if not names:
        raise ServingError(
            f"--models: empty model list {spec!r}; expected a preset "
            f"({', '.join(sorted(MODEL_PRESETS))}) or comma-separated model ids"
        )
    slots = []
    for name in names:
        slo = SLO_CLASSES.get(name)
        slots.append(
            ModelSlot(
                name=name,
                model=get_model(name),
                ttft_slo_s=slo[0] if slo else None,
                tpot_slo_s=slo[1] if slo else None,
            )
        )
    return tuple(slots)


@dataclass(frozen=True)
class SwapRecord:
    """One model swap: when, between which models, and what it cost."""

    start_s: float
    end_s: float
    from_model: str
    to_model: str
    bytes_moved: float
    #: "idle" (swap-on-idle) or "preempt" (cross-model preemption).
    reason: str

    @property
    def duration_s(self) -> float:
        return self.end_s - self.start_s


@dataclass
class MultiModelResult:
    """A multi-model run: the standard serving result plus swap ledger."""

    serving: ServingResult
    slots: tuple[ModelSlot, ...]
    swaps: list[SwapRecord]
    #: Wall seconds each model spent resident (sums to the makespan).
    residency_s: dict[str, float]

    @property
    def swap_time_s(self) -> float:
        return sum(s.duration_s for s in self.swaps)

    def requests_for(self, slot: ModelSlot) -> list[Request]:
        """Requests served by ``slot`` (untagged requests belong to the
        default — first — slot)."""
        default = self.slots[0].name
        return [
            r
            for r in self.serving.requests
            if (r.model or default) == slot.name
        ]

    def per_model(self) -> dict[str, dict[str, Any]]:
        """Per-model summary under each slot's own SLO class."""
        out: dict[str, dict[str, Any]] = {}
        for slot in self.slots:
            doc = slot_summary(
                self.requests_for(slot), slot, self.serving.config,
                self.serving.makespan_s,
            )
            doc["residency_s"] = self.residency_s.get(slot.name, 0.0)
            doc["swaps_in"] = sum(
                1 for s in self.swaps if s.to_model == slot.name
            )
            out[slot.name] = doc
        return out

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready document (the bench artifact's per-run section)."""
        return {
            "trace": self.serving.trace_name,
            "scheduler": self.serving.policy_name,
            "models": [s.name for s in self.slots],
            "makespan_s": self.serving.makespan_s,
            "swaps": len(self.swaps),
            "swap_time_s": self.swap_time_s,
            "per_model": self.per_model(),
        }


def _summary(values: list[float]) -> dict[str, float]:
    return Histogram(name="latency", values=list(values)).summary((50, 95, 99))


def slot_summary(
    requests: list[Request],
    slot: ModelSlot,
    config: ServingConfig,
    makespan_s: float,
) -> dict[str, Any]:
    """One model's request-level summary under its own SLO class.

    Shared between the co-resident result (:meth:`MultiModelResult.per_model`)
    and the dedicated-replica baseline in :mod:`repro.bench.multimodel`,
    so the two sides of the comparison are scored by identical code.
    """
    finished = [r for r in requests if r.state is RequestState.FINISHED]
    ttft = slot.ttft_slo_s if slot.ttft_slo_s is not None else config.ttft_slo_s
    tpot = slot.tpot_slo_s if slot.tpot_slo_s is not None else config.tpot_slo_s
    slo_ok = [r for r in finished if r.meets_slo(ttft, tpot)]
    return {
        "requests": len(requests),
        "finished": len(finished),
        "dropped": sum(1 for r in requests if r.state is RequestState.DROPPED),
        "preemptions": sum(r.preemptions for r in requests),
        "slo": {
            "ttft_slo_s": ttft,
            "tpot_slo_s": tpot,
            "attainment": (len(slo_ok) / len(requests)) if requests else 0.0,
            "goodput_rps": len(slo_ok) / makespan_s if makespan_s > 0 else 0.0,
        },
        "latency_s": {
            "ttft": _summary([r.ttft_s for r in finished if r.ttft_s is not None]),
            "e2e": _summary([r.e2e_s for r in finished if r.e2e_s is not None]),
        },
    }


class MultiModelSimulator:
    """Continuous batching across K co-resident models on one engine.

    ``engine`` is shared (plans are memoized per workload, and a workload
    carries its model); each slot gets its own :class:`StepCostOracle` so
    step prices reflect the resident model's shape.  ``trace`` requests
    are routed by their ``model`` tag; untagged requests go to the first
    slot, which keeps single-model traces valid as-is.
    """

    def __init__(
        self,
        engine: Any,
        slots: Sequence[ModelSlot],
        trace: RequestTrace,
        policy: SchedulerPolicy | None = None,
        config: ServingConfig | None = None,
        collect_steps: bool = True,
        initial_model: str | None = None,
    ) -> None:
        if not slots:
            raise ConfigError("multi-model simulator: at least one ModelSlot required")
        names = [s.name for s in slots]
        if len(set(names)) != len(names):
            raise ConfigError(
                f"multi-model simulator: duplicate model slots in {names}"
            )
        self.engine = engine
        self.slots = tuple(slots)
        self.trace = trace
        self.policy = policy or SchedulerPolicy()
        self.config = config or ServingConfig()
        self.collect_steps = collect_steps
        self.base_platform = engine.platform
        self._by_name = {s.name: s for s in self.slots}
        tagged = {r.model for r in trace.requests if r.model}
        unknown = tagged - set(names)
        if unknown:
            raise ConfigError(
                f"multi-model simulator: trace {trace.name!r} tags models "
                f"{sorted(unknown)} with no matching slot (have {names})"
            )
        initial = initial_model or self.slots[0].name
        if initial not in self._by_name:
            raise ConfigError(
                f"multi-model simulator: initial model {initial!r} is not a "
                f"slot (have {names})"
            )
        self._initial = self._by_name[initial]
        self._oracles: dict[str, StepCostOracle] = {
            s.name: StepCostOracle.for_requests(
                engine, s.model, trace.requests, self.config
            )
            for s in self.slots
        }

    # -- swap pricing ------------------------------------------------------

    def _slot_of(self, req: Request) -> ModelSlot:
        return self._by_name[req.model] if req.model else self.slots[0]

    def swap_seconds(self, slot: ModelSlot) -> float:
        """Wall seconds to stream ``slot``'s weights in over PCIe.

        Swap-out is free: resident weights are read-only (no writeback),
        and the evicted requests' KV is re-prefilled on return, a cost the
        preemption path already charges.
        """
        hw = HardwareParams.from_platform(self.base_platform)
        bw = hw.pcie_bdw * self.engine.calibration.pcie_efficiency
        return slot.weight_bytes / bw

    # -- the loop ----------------------------------------------------------

    def run(self) -> MultiModelResult:
        with span("serving.multimodel.run"):
            return self._run()

    def _run(self) -> MultiModelResult:
        cfg = self.config
        policy = self.policy
        pending = [
            Request.from_spec(i, spec) for i, spec in enumerate(self.trace.requests)
        ]
        all_requests = list(pending)
        active = self._initial
        kern = ReplicaKernel(
            self._oracles[active.name], cfg, policy,
            collect_steps=self.collect_steps,
        )
        queue = kern.queue
        swaps: list[SwapRecord] = []
        residency: dict[str, float] = {s.name: 0.0 for s in self.slots}
        resident_since = 0.0
        i = 0
        n_pending = len(pending)

        def swap_to(slot: ModelSlot, reason: str) -> None:
            """Charge the swap and make ``slot`` resident.  Recorded as a
            ``"swap"`` step so timelines and step counters carry it."""
            nonlocal active, resident_since
            start = kern.t
            dur = self.swap_seconds(slot)
            t = kern.t = start + dur
            residency[active.name] += start - resident_since
            resident_since = t
            swaps.append(
                SwapRecord(
                    start_s=start, end_s=t, from_model=active.name,
                    to_model=slot.name, bytes_moved=slot.weight_bytes,
                    reason=reason,
                )
            )
            active = slot
            kern.oracle = self._oracles[slot.name]
            kern.emit("swap", start, t, dur, 1, 0, 0, (), len(kern.running))
            if PROFILER.enabled:
                PROFILER.count("serving.steps.swap")

        while i < n_pending or queue.waiting or kern.running:
            if not queue.waiting and not kern.running:
                kern.t = max(kern.t, pending[i].arrival_s)
            while i < n_pending and pending[i].arrival_s <= kern.t:
                queue.offer(pending[i], pending[i].arrival_s)
                i += 1
            queue.expire(kern.t)

            # -- between-model scheduling ----------------------------------
            candidates: list[Request] | None = None
            if queue.waiting:
                ordered = kern.ordered()
                head_slot = self._slot_of(ordered[0])
                if not kern.running:
                    # Swap-on-idle: the platform follows the policy's head.
                    if head_slot is not active:
                        swap_to(head_slot, "idle")
                elif (
                    policy.preemptive
                    and head_slot is not active
                    and ordered[0].priority
                    > max(r.priority for r in kern.running)
                ):
                    # Cross-model preemption: evict the whole resident
                    # batch (another model's requests cannot share a step),
                    # then pay the swap.  Re-prefill on return is the
                    # standard preemption cost; the victims re-enter the
                    # queue with their tokens intact.
                    for victim in kern.running.drain():
                        victim.preemptions += 1
                        queue.requeue(victim, kern.t)
                    swap_to(head_slot, "preempt")
                    ordered = kern.ordered()
                candidates = [r for r in ordered if self._slot_of(r) is active]
            kern.iterate(cfg.max_batch, candidates)

        residency[active.name] += kern.t - resident_since

        serving = ServingResult(
            engine=self.engine.name,
            trace_name=self.trace.name,
            policy_name=self.policy.name,
            config=cfg,
            requests=all_requests,
            step_runs=kern.runs,
            aggregates=kern.agg,
            makespan_s=kern.t,
        )
        return MultiModelResult(
            serving=serving,
            slots=self.slots,
            swaps=swaps,
            residency_s=residency,
        )
