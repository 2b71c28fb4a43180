"""Single-engine serving: the reference driver over the replica kernel.

:class:`ServingSimulator` replays a request trace against one engine.
Each loop iteration performs the four phases a real offloading serving
loop would:

1. **ingest** — arrivals up to the clock enter the bounded admission
   queue (overflow and timeouts are dropped with accounting);
2. **admit** — :func:`admit_batch`: the scheduler policy orders the
   queue; requests are admitted while a GPU slot is free *and* the
   cost model's peak-byte kernel says the enlarged batch still fits
   (admission control is the same feasibility question the policy search
   asks).  Preemptive policies may evict a running victim at this token
   boundary;
3. **prefill** and 4. **decode** — the shared
   :class:`~repro.serving.kernel.ReplicaKernel` steps, priced by the
   performance model (Eq. 2's max over the six tasks, times the
   ``l x k`` zig-zag iterations).

The same kernel runs under the multi-model and fleet drivers; this
driver adds only ingest, the drift watchdog/degradation ladder and stall
handling.  It is event-driven: between scheduling events — the next
arrival, the next queue-deadline expiry, the earliest request
completion, and the next step-price bucket boundary — the batch and its
bucketed step price are constant, so the kernel advances a whole run of
identical decode steps in one multiply.  Coalesced runs are recorded as
:class:`StepRun` entries that expand lazily into the exact per-step
:class:`StepRecord` sequence only when something iterates steps;
summary metrics come from running aggregates, so results are
byte-identical whether per-step collection is on or off.  The per-step
loop is kept as :meth:`ServingSimulator._run_reference`, and an
equivalence matrix pins the two byte for byte across traces, policies
and fault scenarios.

Fault injection (optional, off by default): pass a
:class:`~repro.faults.FaultSchedule` and the loop gains chaos semantics —
a **drift watchdog** re-derives the effective platform at every fault
segment boundary, retargets the engine and invalidates the oracle's plans
and prices when the deviation exceeds ``drift_tolerance``, and walks the
:data:`~repro.faults.LADDER` until a rung plans again; the kernel's
**transient faults** abort in-flight steps and retry after a seeded
backoff.  Chaos draws one RNG sample per attempted step, so runs are
never coalesced under a non-empty schedule.  With no schedule (or an
empty one) none of this code runs.

Nothing here is stochastic unless a fault schedule says so: traces are
frozen up front, ties are total orders, and every fault draw comes from
one named seeded stream — two runs with the same trace, schedule and
seed are byte-identical, which the tests assert.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.errors import ConfigError
from repro.faults import LADDER, FaultSchedule, FaultStats, RetryPolicy, relative_drift
from repro.models.config import ModelConfig
from repro.obs.profiling import span
from repro.obs.registry import MetricsRegistry
from repro.perfmodel.notation import HardwareParams
from repro.serving.arrivals import RequestTrace
from repro.serving.costing import StepCostOracle
from repro.serving.kernel import (
    ReplicaKernel,
    RunningBatch,
    ServingAggregates,
    StepRecord,
    StepRun,
)
from repro.serving.policies import SchedulerPolicy
from repro.serving.queue import AdmissionQueue
from repro.serving.request import DropReason, Request, RequestState
from repro.util.rng import seeded_rng


@dataclass(frozen=True)
class ServingConfig:
    """Knobs of the serving loop (not of any single policy)."""

    #: Defaults are calibrated to the offloaded-30B regime on the single
    #: A100 reference platform: a weight-streaming engine's decode step is
    #: wire-bound near ~3 s, so the TPOT target sits between LM-Offload's
    #: planned step (~2.9 s) and FlexGen's (~4.1 s) — tight enough to
    #: separate planners, attainable by the best one.
    max_batch: int = 64
    num_gpu_batches: int = 1
    queue_capacity: int = 128
    queue_timeout_s: float | None = None
    ttft_slo_s: float = 30.0
    tpot_slo_s: float = 3.5
    ctx_bucket: int = 32

    # -- fault semantics (only consulted when a schedule is injected) -----
    #: Aborted steps a single request may survive before RETRY_EXHAUSTED.
    retry_limit: int = 3
    #: Capped exponential backoff after an aborted step: the k-th
    #: consecutive abort waits ``min(cap, base * 2^(k-1) * (1+jitter*u))``.
    backoff_base_s: float = 0.5
    backoff_cap_s: float = 8.0
    backoff_jitter: float = 0.1
    #: Max relative deviation of any effective hardware rate/capacity from
    #: the currently applied specs before the watchdog retargets + replans.
    drift_tolerance: float = 0.05
    #: Arrival-to-now budget checked when a request is caught in an abort;
    #: exceeding it drops the request FAULT_ABORT.  ``None`` = no deadline.
    request_deadline_s: float | None = None

    def __post_init__(self) -> None:
        if self.max_batch <= 0:
            raise ConfigError(
                f"serving config: max_batch must be positive (got "
                f"{self.max_batch}); the loop needs at least one GPU slot"
            )
        if self.num_gpu_batches <= 0:
            raise ConfigError(
                f"serving config: num_gpu_batches must be positive (got "
                f"{self.num_gpu_batches})"
            )
        if self.ttft_slo_s <= 0 or self.tpot_slo_s <= 0:
            raise ConfigError(
                "serving config: SLO targets must be positive (got "
                f"ttft_slo_s={self.ttft_slo_s}, tpot_slo_s={self.tpot_slo_s})"
            )
        if self.drift_tolerance <= 0:
            raise ConfigError(
                f"serving config: drift_tolerance must be > 0 (got "
                f"{self.drift_tolerance}); a zero tolerance would replan on "
                "every float-level wobble"
            )
        if self.request_deadline_s is not None and self.request_deadline_s <= 0:
            raise ConfigError(
                f"serving config: request_deadline_s must be positive when "
                f"set (got {self.request_deadline_s}); use None for no "
                "deadline"
            )
        # Backoff shape is validated by the policy it will construct —
        # single source of truth for those (actionable) messages.
        self.retry_policy()

    def retry_policy(self) -> RetryPolicy:
        # The request deadline doubles as the backoff's total-elapsed cap:
        # a retry is never scheduled past the point where the deadline
        # check would drop the request anyway.
        return RetryPolicy(
            base_s=self.backoff_base_s,
            cap_s=self.backoff_cap_s,
            jitter=self.backoff_jitter,
            limit=self.retry_limit,
            max_elapsed_s=self.request_deadline_s,
        )


@dataclass
class ServingResult:
    """Everything a simulation produced, metrics-layer ready.

    Steps are stored as coalesced :class:`StepRun` entries plus running
    :class:`ServingAggregates`; the legacy ``steps`` / ``queue_depth``
    views expand lazily (and cache) the first time something iterates
    them — summary metrics never trigger the expansion.  When the
    simulator ran with ``collect_steps=False`` the runs are not retained
    and both views are empty; every aggregate-derived metric is
    byte-identical either way.
    """

    engine: str
    trace_name: str
    policy_name: str
    config: ServingConfig
    requests: list[Request]
    step_runs: list[StepRun]
    aggregates: ServingAggregates
    makespan_s: float
    #: Fault-layer bookkeeping; ``None`` when no (non-empty) schedule was
    #: injected, so fault-free results stay byte-identical to the
    #: pre-fault-layer simulator.
    fault_stats: FaultStats | None = None
    fault_schedule: FaultSchedule | None = None
    #: Per-step time-series curves (queue depth, step price, batch, rung)
    #: sampled live by the loop — only when a registry was injected via
    #: ``ServingSimulator(metrics=...)``; ``None`` otherwise, and nothing
    #: serialized from this result ever includes it implicitly.
    timeseries: MetricsRegistry | None = None

    _steps_cache: list[StepRecord] | None = field(
        default=None, init=False, repr=False, compare=False
    )
    _depth_cache: list[tuple[float, int, int]] | None = field(
        default=None, init=False, repr=False, compare=False
    )

    @property
    def steps(self) -> list[StepRecord]:
        """Per-step records, expanded lazily from the coalesced runs."""
        if self._steps_cache is None:
            self._steps_cache = [
                rec for run in self.step_runs for rec in run.expand()
            ]
        return self._steps_cache

    @property
    def queue_depth(self) -> list[tuple[float, int, int]]:
        """(clock, waiting, running) sampled after every step boundary,
        expanded lazily from the coalesced runs."""
        if self._depth_cache is None:
            self._depth_cache = [
                d for run in self.step_runs for d in run.expand_depth()
            ]
        return self._depth_cache

    @property
    def finished(self) -> list[Request]:
        return [r for r in self.requests if r.state is RequestState.FINISHED]

    @property
    def dropped(self) -> list[Request]:
        return [r for r in self.requests if r.state is RequestState.DROPPED]


def admit_batch(
    policy: SchedulerPolicy,
    oracle: StepCostOracle,
    queue: AdmissionQueue,
    running: RunningBatch,
    now: float,
    limit: int,
    candidates: list[Request] | None = None,
) -> list[Request]:
    """Move requests queue -> GPU per the policy, bounded by slots and
    by memory feasibility of the enlarged batch.

    The one admission routine of all three drivers — the 1-replica and
    K=1 byte-identity guarantees depend on it.

    ``candidates`` overrides the admission view: a policy-ordered subset
    of ``queue.waiting`` to consider (the multi-model simulator passes
    only the resident model's requests).  ``None`` — every single-model
    caller — reads the queue's pre-sorted view or re-sorts, as before.
    """
    if candidates is None:
        ordered = queue.ordered_view()
        candidates = (
            list(ordered)
            if ordered is not None
            else policy.order(list(queue.waiting), now)
        )
    admitted: list[Request] = []
    # The candidate loop needs max(context_len + 1) over running and
    # admitted at every step: the batch answers the running part from
    # its heap (again only when preemption removes a victim), and the
    # admitted part is tracked incrementally.
    run_ctx = running.max_context() + 1 if running else 0
    adm_ctx = 0
    for req in candidates:
        occupied = len(running) + len(admitted)
        if occupied >= limit:
            if not (policy.preemptive and running):
                break
            victim = policy.victim(running, req)
            if victim is None:
                break
            running.leave(victim)
            victim.preemptions += 1
            queue.requeue(victim, now)
            run_ctx = running.max_context() + 1 if running else 0
        ctx = max(run_ctx, adm_ctx, req.context_len + 1)
        if not oracle.feasible(len(running) + len(admitted) + 1, ctx):
            if not running and not admitted:
                # Even alone this request can never fit: drop it rather
                # than wedge the loop — carrying the planner's own
                # error message when planning (not the prescreen) said no.
                queue.take(req)
                req.state = RequestState.DROPPED
                req.drop_s = now
                req.drop_reason = DropReason.INFEASIBLE
                req.drop_detail = oracle.last_plan_error(1) or (
                    f"memory prescreen rejected a singleton batch at context {ctx}"  # reach: tests/test_serving_sim.py::test_infeasible_lone_request_dropped_not_wedged (no plan error to carry)
                )
                queue.dropped.append(req)
                continue
            break  # reach: tests/test_batch_clock.py::test_clock_matches_eager_when_the_watchdog_sheds
        admitted.append(queue.take(req))
        if req.context_len + 1 > adm_ctx:
            adm_ctx = req.context_len + 1
    return admitted


class ServingSimulator:
    """Trace-driven continuous batching on top of one engine."""

    def __init__(
        self,
        engine: Any,
        model: ModelConfig,
        trace: RequestTrace,
        policy: SchedulerPolicy | None = None,
        config: ServingConfig | None = None,
        faults: FaultSchedule | None = None,
        seed: int = 0,
        metrics: MetricsRegistry | None = None,
        collect_steps: bool = True,
    ) -> None:
        if faults is not None and faults.has_replica_faults:
            raise ConfigError(
                f"serving simulator: fault schedule {faults.name!r} contains "
                "replica-level faults (replica_crash/replica_restart); a "
                "single engine has nowhere to fail over to, so the window "
                "would be silently ignored — run it through "
                "repro.serving.fleet.FleetSimulator instead"
            )
        self.engine = engine
        self.model = model
        self.trace = trace
        self.policy = policy or SchedulerPolicy()
        self.config = config or ServingConfig()
        self.faults = faults
        self.seed = seed
        #: Optional per-step time-series sink.  ``None`` (the default) is
        #: structurally inert: the loop takes no RNG draw, touches no
        #: state and branches on nothing because of it, so a run with and
        #: without sampling is byte-identical (tested).  A registry also
        #: forces per-step advance (no coalescing) so every step is
        #: sampled live — byte-identical too, just slower.
        self.metrics = metrics
        #: Retain the coalesced step runs on the result (``steps`` /
        #: ``queue_depth`` views need them).  ``False`` skips all step
        #: record-keeping for maximum throughput; everything derived from
        #: aggregates — ``compute_metrics`` included — is byte-identical.
        self.collect_steps = collect_steps
        #: Length predictor riding on the policy (PredictedSJFPolicy): the
        #: loop feeds it every completed request so it learns online.  The
        #: oracle predictor's ``observe`` is a no-op, and policies without
        #: a predictor skip the hook entirely — byte-identical either way.
        self._predictor = getattr(self.policy, "predictor", None)
        #: Chaos mode is engaged only by a non-empty schedule; an empty
        #: one runs the exact fault-free code path.
        self._chaos = faults is not None and len(faults.faults) > 0
        #: The pristine platform every degraded overlay derives from.
        self.base_platform = engine.platform
        self.oracle = StepCostOracle.for_requests(
            engine, model, trace.requests, self.config
        )

    # -- the loop ----------------------------------------------------------

    def run(self) -> ServingResult:
        """The event-driven engine (run-length decode advance)."""
        with span("serving.run"):
            return self._run(coalesce=True)

    def _run_reference(self) -> ServingResult:  # reach: the per-step reference the event loop must equal (tests/test_batch_clock.py::test_clock_matches_eager_single_engine)
        """The pre-rewrite per-step engine, kept as the equivalence
        reference: one priced step per iteration, a full policy re-sort
        per admission and the linear ``expire`` scan — no run-length
        advance, no deadline heap, no pre-sorted admission view."""
        with span("serving.run_reference"):
            return self._run(coalesce=False)

    def _run(self, coalesce: bool) -> ServingResult:
        cfg = self.config
        policy = self.policy
        chaos = self._chaos
        pending = [
            Request.from_spec(i, spec) for i, spec in enumerate(self.trace.requests)
        ]
        all_requests = list(pending)
        queue = AdmissionQueue(
            cfg.queue_capacity, cfg.queue_timeout_s, use_heap=coalesce
        )
        if coalesce and getattr(policy, "static_order", False):
            queue.attach_order(policy.sort_key)
        i = 0
        n_pending = len(pending)

        stats: FaultStats | None = None
        rng = None
        rung_idx = 0
        if chaos:
            assert self.faults is not None
            stats = FaultStats(schedule_name=self.faults.name)
            rng = seeded_rng(self.seed, "serving", "chaos", self.faults.name)
            base_hw = HardwareParams.from_platform(self.base_platform)
            applied_hw = base_hw
            fault_key: tuple | None = None
            degraded_since: float | None = None
            # The loop's planning ceiling under nominal specs: the rung
            # probe divides this rather than max_batch so a ceiling the
            # engine never planned at doesn't masquerade as fault damage.
            probe_n = self.oracle.warm_up(cfg.max_batch)
        kern = ReplicaKernel(
            self.oracle, queue, cfg,
            collect_steps=self.collect_steps,
            predictor=self._predictor,
            faults=self.faults if chaos else None,
            rng=rng,
            fault_stats=stats,
        )

        reg = self.metrics
        if reg is not None:
            def sample_step(start: float, end: float, batch: int) -> None:
                """One point per curve at each step boundary, timestamped
                with the clock the loop actually advanced to (aborted steps
                land after their backoff)."""
                t = kern.t
                reg.timeseries("curve.queue_waiting").sample(t, float(len(queue)))
                reg.timeseries("curve.in_system").sample(
                    t, float(len(queue) + len(kern.running))
                )
                reg.timeseries("curve.step_s").sample(t, end - start)
                reg.timeseries("curve.batch").sample(t, float(batch))
                reg.timeseries("curve.rung").sample(t, float(rung_idx))

            kern.sample = sample_step
        # Run-length advance only when every per-step observer is inert:
        # chaos draws one RNG sample per attempted step, and a live
        # registry samples each step's curves — both force k=1.
        fast = coalesce and not chaos and reg is None

        def admission_can_act() -> bool:
            # False proves admission a no-op: an empty queue admits
            # nothing, and a full batch under a non-preemptive policy
            # breaks at the first candidate without touching any state.
            return bool(queue.waiting) and (
                policy.preemptive or len(kern.running) < cfg.max_batch
            )

        def probe_ladder() -> int:
            """First rung (mildest first) whose constrained search still
            plans on the degraded platform, or the last rung, which never
            admits; engages it on the engine."""
            for idx, rung in enumerate(LADDER):
                if not rung.admit:  # reach: tests/test_chaos_serving.py::test_host_memory_shrink_walks_the_ladder_and_recovers
                    self.engine.set_degradation(rung)
                    self.oracle.invalidate()
                    return idx
                self.engine.set_degradation(rung if idx > 0 else None)
                self.oracle.invalidate()
                target = max(1, probe_n // rung.batch_divisor)
                if self.oracle.planned(target) is not None:
                    return idx

        def sync_faults(now: float) -> None:
            """Drift watchdog: runs once per fault segment (cheap key check
            otherwise); retargets/replans/walks the ladder on drift and
            unwinds everything on recovery."""
            nonlocal fault_key, applied_hw, rung_idx, degraded_since
            assert self.faults is not None and stats is not None
            key = self.faults.segment_key(now)
            if key != fault_key:
                fault_key = key
                effective = self.base_platform.with_faults(self.faults, now)
                eff_hw = HardwareParams.from_platform(effective)
                if relative_drift(applied_hw, eff_hw) > cfg.drift_tolerance:
                    self.engine.retarget(effective)
                    self.oracle.invalidate()
                    base_drift = relative_drift(base_hw, eff_hw)
                    recovered = base_drift <= cfg.drift_tolerance
                    # On recovery the overlay returns the base platform
                    # itself; track that by identity so the degraded-time
                    # window closes.
                    applied_hw = base_hw if recovered else eff_hw
                    cause = "recovery" if recovered else "drift"
                    stats.replans.append((now, cause, base_drift))
                    if recovered:
                        self.engine.set_degradation(None)
                        self.oracle.invalidate()
                        new_idx = 0
                    else:
                        new_idx = probe_ladder()
                    if new_idx != rung_idx:  # reach: tests/test_chaos_serving.py::test_host_memory_shrink_walks_the_ladder_and_recovers
                        stats.transitions.append(
                            (now, LADDER[rung_idx].name, LADDER[new_idx].name, cause)
                        )
                        rung_idx = new_idx
                    # Shed the most recently admitted requests until the
                    # running batch fits the degraded platform again.
                    running = kern.running
                    newest_last = list(running)
                    while newest_last and not self.oracle.feasible(  # reach: tests/test_chaos_serving.py::test_host_memory_shrink_walks_the_ladder_and_recovers
                        len(running), running.max_context() + 1
                    ):
                        victim = newest_last.pop()
                        running.leave(victim)
                        victim.preemptions += 1
                        queue.requeue(victim, now)
                        stats.sheds.append((now, victim.rid))
            degraded = rung_idx > 0 or applied_hw is not base_hw
            if degraded and degraded_since is None:
                degraded_since = now
            elif not degraded and degraded_since is not None:
                stats.degraded_s += now - degraded_since
                degraded_since = None

        while i < n_pending or queue.waiting or kern.running:
            if not queue.waiting and not kern.running:
                # Idle: jump the clock to the next arrival.
                kern.t = max(kern.t, pending[i].arrival_s)
            t = kern.t
            while i < n_pending and pending[i].arrival_s <= t:
                queue.offer(pending[i], pending[i].arrival_s)
                i += 1
            queue.expire(t)
            limit = cfg.max_batch
            if chaos:
                sync_faults(t)
                rung = LADDER[rung_idx]
                limit = max(1, limit // rung.batch_divisor) if rung.admit else 0
            elif coalesce and not admission_can_act():
                limit = 0
            admitted = (
                admit_batch(policy, self.oracle, queue, kern.running, t, limit)
                if limit else []
            )

            if admitted:
                kern.prefill(admitted)
            if kern.running:
                kern.decode(
                    coalesce=fast and not admission_can_act(),
                    next_arrival=pending[i].arrival_s if i < n_pending else None,
                )
            elif chaos and not admitted and queue.waiting:  # reach: tests/test_chaos_serving.py::test_host_memory_shrink_walks_the_ladder_and_recovers
                # Stalled: this iteration ran no step — backpressure (or
                # blanket infeasibility) with nothing to advance the clock.
                # Jump to whatever can change the situation — the next
                # arrival or the next fault transition; if neither exists
                # the degradation is permanent and the queue can only be
                # drained by dropping.
                horizon = [
                    x
                    for x in (
                        pending[i].arrival_s if i < n_pending else None,
                        self.faults.next_change_after(t),
                    )
                    if x is not None and x > t
                ]
                if horizon:
                    kern.t = min(horizon)
                else:  # reach: safety code, drains a queue that no fault transition or arrival can unblock
                    for req in list(queue.waiting):
                        queue.take(req)
                        req.state = RequestState.DROPPED
                        req.drop_s = t
                        req.drop_reason = DropReason.INFEASIBLE
                        req.drop_detail = (
                            "backpressure never lifted: no feasible plan on "
                            "the degraded platform and no fault transition "
                            "or arrival ahead"
                        )
                        queue.dropped.append(req)

        if chaos:
            assert stats is not None
            if degraded_since is not None:
                stats.degraded_s += kern.t - degraded_since
            stats.final_rung = LADDER[rung_idx].name
            # Leave the engine as we found it: callers may reuse it for a
            # fault-free run afterwards.
            if applied_hw is not base_hw:
                self.engine.retarget(self.base_platform)
            self.engine.set_degradation(None)
            self.oracle.invalidate()

        return ServingResult(
            engine=self.engine.name,
            trace_name=self.trace.name,
            policy_name=policy.name,
            config=cfg,
            requests=all_requests,
            step_runs=kern.runs,
            aggregates=kern.agg,
            makespan_s=kern.t,
            fault_stats=stats,
            fault_schedule=self.faults if chaos else None,
            timeseries=reg,
        )
