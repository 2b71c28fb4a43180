"""Fleet-scale serving: N replicas, one virtual clock, crash-recovery.

:class:`FleetSimulator` is the third driver over the replica kernel
(:class:`~repro.serving.kernel.ReplicaKernel`): ``N`` heterogeneous
replicas, each a kernel over its own engine, platform, step oracle and
admission queue, under a cluster router and a fault layer the
single-engine driver cannot express — whole-replica crashes and
restarts, fault-domain correlation, failover migration, hedged requests
and per-replica circuit breakers.

**Clock discipline.**  Every replica advances its own clock one step at a
time, but the fleet processes events in global time order: the next
arrival, the next migration delivery, the next hedge deadline and each
busy replica's next step boundary compete on a ``(time, kind, index)``
key (arrivals < deliveries < hedges < boundaries at equal times).  At a
replica boundary the fleet handles outage windows and expiry, then runs
one :meth:`~repro.serving.kernel.ReplicaKernel.iterate` — admit,
prefill, decode — whose per-step settlement the replica overrides:
admission's infeasible drops, then for each step the breaker update and
the requests it finished (hedge races) or dropped.  The iteration is the
single engine's own, so a 1-replica zero-fault fleet replays
:class:`~repro.serving.ServingSimulator` byte for byte (pinned in
``tests/test_fleet.py``).

**Routing.**  Placement follows a Firmament-style cost model (OCTOPUS
load balancing): ``cost = in_system * BUSY_PU_OFFSET + step_price +
replica_index``, where the step price is the replica's planned per-
sequence decode-step time in integer points.  Queue depth dominates;
the performance-model price breaks ties toward faster replicas; the
index makes ties total.  Down, draining, breaker-open, full and
unplannable replicas are excluded; a request with no schedulable replica
is dropped (``REPLICA_LOST``, or ``QUEUE_FULL`` when capacity was the
only obstacle, matching the single-engine stamp byte for byte).

**Crash semantics.**  A ``REPLICA_CRASH`` window destroys the replica's
in-flight batch and KV state at the window start: a step in flight is
cut short (recorded as a ``crash-prefill``/``crash-decode`` slice with
no tokens credited), and every casualty — running, mid-admission and
queued — is migrated.  Survivors keep their generated tokens but lost
their KV cache, so re-admission elsewhere pays a full re-prefill at the
accumulated context (the true cost of failover under offloading — the
same asymmetry preemption has).  ``REPLICA_RESTART`` drains gracefully:
running work completes in place, queued work migrates, and no new work
is placed for the window.  Crash windows that elapse while a replica is
idle destroy nothing.

**Migration.**  Displaced requests re-route at the displacement time
through the same router (their origin and any live hedge sibling's
replica excluded), bounded by a per-request migration budget shared
between a request and its hedge (``FAILOVER_EXHAUSTED`` beyond it).
Deliveries are events, not instant hops: a request migrated at ``t``
lands in the destination queue at ``t``, after every replica boundary
earlier than ``t`` has been processed, so causality holds under
desynchronized replica clocks.

**Hedging.**  With ``hedge_after_s`` set, a request still queued (no
token yet) that long after arrival launches a clone on a different
replica; the first copy to finish wins and the loser is cancelled, its
generated tokens accounted as waste.  The canonical request object (the
one in ``FleetResult.requests``) always carries the winning outcome.  A
hedge and its primary are never co-resident on one replica (the router
excludes the sibling's replica), which also keeps the queue's
equality-based removal safe for same-``rid`` clones.

**Circuit breakers.**  Each replica carries a breaker: ``threshold``
consecutive aborted steps trip it OPEN (no placements); after
``cooldown_s`` it admits exactly one HALF_OPEN probe, closing on the
probe's successful step and re-opening on an abort.  A crash forces the
breaker open until the outage window ends.  Breakers gate *new
placements* only — work already queued keeps draining.  All transitions
are deterministic and timestamped.

Determinism: per-replica chaos RNG streams are seeded
``(seed, "fleet", replica_name, "chaos")``; everything else is pure
float arithmetic over frozen traces and schedules — two runs with the
same inputs are byte-identical (tested, and the bench artifact is
``cmp``-compared in CI).
"""

from __future__ import annotations

import enum
import heapq
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.errors import ConfigError
from repro.faults import (
    LADDER,
    REPLICA_KINDS,
    FaultKind,
    FaultSchedule,
    FaultSpec,
    FaultStats,
)
from repro.models.config import ModelConfig
from repro.obs.profiling import span
from repro.obs.registry import MetricsRegistry
from repro.serving.arrivals import RequestTrace
from repro.serving.costing import StepCostOracle
from repro.serving.kernel import ReplicaKernel, ServingAggregates
from repro.serving.metrics import compute_metrics
from repro.serving.policies import SchedulerPolicy
from repro.serving.request import DropReason, Request, RequestState
from repro.serving.simulator import ServingConfig, ServingResult
from repro.serving.timeline import add_queue_counters, add_step_slices
from repro.trace.chrome import ChromeTraceBuilder
from repro.util.rng import seeded_rng

#: Router cost per request already on a replica (queued + running).  The
#: Firmament/OCTOPUS idiom: load dominates, the per-replica step price
#: (typically < 100 points) breaks ties toward faster replicas.
BUSY_PU_OFFSET = 100
#: Step-price scale: planned per-sequence decode-step seconds are priced
#: in integer milliseconds so router costs stay exact integers.
PRICE_POINTS_PER_SECOND = 1000

_RUNGS = {rung.name: rung for rung in LADDER}

# Event kinds, in tie-break order at equal times.
_EV_ARRIVAL = 0
_EV_DELIVER = 1
_EV_HEDGE = 2
_EV_BOUNDARY = 3


@dataclass(frozen=True)
class ReplicaSpec:
    """One replica: engine + platform + static degradation + fault domain.

    ``degradation`` names a :data:`~repro.faults.LADDER` rung the replica
    permanently runs at (static heterogeneity — e.g. a box that only
    serves quantized); it must be an admitting rung.  ``fault_domain``
    groups replicas that fail together (one rack, one PDU): a replica-
    level fault window targeting the domain hits every member.
    """

    name: str
    engine: str = "lm-offload"
    platform: str = "single-a100"
    degradation: str | None = None
    fault_domain: str = "dom0"

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigError("replica spec: name must be non-empty")
        # Imported here so importing repro.serving loads no engine.
        from repro.baselines import check_engine_names

        try:
            check_engine_names(self.engine, self.platform)
        except ConfigError as exc:
            raise ConfigError(f"replica {self.name!r}: {exc}") from None
        if self.degradation is not None:
            rung = _RUNGS.get(self.degradation)
            if rung is None:
                raise ConfigError(
                    f"replica {self.name!r}: unknown degradation rung "
                    f"{self.degradation!r} (choose from "
                    f"{', '.join(sorted(_RUNGS))})"
                )
            if not rung.admit:
                raise ConfigError(
                    f"replica {self.name!r}: degradation rung "
                    f"{self.degradation!r} does not admit work; a replica "
                    "pinned to backpressure can never serve — leave it out "
                    "of the fleet instead"
                )
        if not self.fault_domain:
            raise ConfigError(
                f"replica {self.name!r}: fault_domain must be non-empty"
            )


@dataclass(frozen=True)
class FleetConfig:
    """Cluster-level knobs layered over the per-replica serving config."""

    serving: ServingConfig = field(default_factory=ServingConfig)
    #: Times a request (and its hedge, jointly) may be displaced by a
    #: crash/restart before it is dropped ``FAILOVER_EXHAUSTED``.
    migration_budget: int = 2
    #: Launch a hedge clone for a request still token-less this long
    #: after arrival; ``None`` disables hedging.
    hedge_after_s: float | None = None
    #: Consecutive aborted steps that trip a replica's breaker; ``0``
    #: disables the breakers.
    breaker_threshold: int = 3
    #: OPEN -> HALF_OPEN cooldown.
    breaker_cooldown_s: float = 10.0

    def __post_init__(self) -> None:
        if self.migration_budget < 0:
            raise ConfigError(
                f"fleet config: migration_budget must be >= 0 (got "
                f"{self.migration_budget})"
            )
        if self.hedge_after_s is not None and self.hedge_after_s <= 0:
            raise ConfigError(
                f"fleet config: hedge_after_s must be positive when set "
                f"(got {self.hedge_after_s}); use None to disable hedging"
            )
        if self.breaker_threshold < 0:
            raise ConfigError(
                f"fleet config: breaker_threshold must be >= 0 (got "
                f"{self.breaker_threshold}); 0 disables the breakers"
            )
        if self.breaker_cooldown_s <= 0:
            raise ConfigError(
                f"fleet config: breaker_cooldown_s must be positive (got "
                f"{self.breaker_cooldown_s})"
            )


class BreakerState(enum.Enum):
    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half_open"


class CircuitBreaker:
    """Per-replica placement gate: trip on consecutive aborted steps,
    probe one request after a cooldown, close on the probe's success.

    The breaker gates *placements only* (router + hedges + migrations);
    work already on the replica keeps draining.  Crashes force it OPEN
    for the outage window.  Every transition is recorded as
    ``(t, from, to, cause)`` — deterministic, no randomness anywhere.
    """

    def __init__(self, threshold: int, cooldown_s: float) -> None:
        self.threshold = threshold
        self.cooldown_s = cooldown_s
        self.state = BreakerState.CLOSED
        self.consecutive_failures = 0
        self.opened_at = 0.0
        self.probe_rid: int | None = None
        self.trips = 0
        self.transitions: list[tuple[float, str, str, str]] = []

    def _goto(self, now: float, to: BreakerState, cause: str) -> None:
        self.transitions.append((now, self.state.value, to.value, cause))
        self.state = to

    def allow(self, now: float) -> bool:
        """May the router place a request here at ``now``?  (Transitions
        OPEN -> HALF_OPEN as a side effect once the cooldown has passed.)
        """
        if self.threshold <= 0:
            return True
        if self.state is BreakerState.CLOSED:
            return True
        if self.state is BreakerState.OPEN:
            if now >= self.opened_at + self.cooldown_s:
                self._goto(now, BreakerState.HALF_OPEN, "cooldown")
                self.probe_rid = None
                return True
            return False  # reach: tests/test_batch_clock.py::test_clock_matches_eager_fleet (an open breaker inside its cooldown)
        # HALF_OPEN admits exactly one in-flight probe.
        return self.probe_rid is None

    def note_placed(self, now: float, rid: int) -> None:
        if self.state is BreakerState.HALF_OPEN and self.probe_rid is None:
            self.probe_rid = rid

    def on_success(self, now: float, rids: tuple[int, ...]) -> None:
        """A step completed; close a half-open breaker if the probe ran."""
        self.consecutive_failures = 0
        if (
            self.state is BreakerState.HALF_OPEN
            and self.probe_rid is not None
            and self.probe_rid in rids
        ):
            self._goto(now, BreakerState.CLOSED, "probe-success")
            self.probe_rid = None

    def on_abort(self, now: float) -> None:
        """A step aborted (transient fault) at ``now``."""
        if self.threshold <= 0:
            return
        if self.state is BreakerState.HALF_OPEN:  # reach: tests/test_fleet.py::test_conservation_under_stress (a half-open probe aborts)
            self.trips += 1
            self.opened_at = now
            self._goto(now, BreakerState.OPEN, "probe-failure")
            self.probe_rid = None
            self.consecutive_failures = 0
            return
        self.consecutive_failures += 1
        if (
            self.state is BreakerState.CLOSED
            and self.consecutive_failures >= self.threshold
        ):
            self.trips += 1
            self.opened_at = now
            self._goto(now, BreakerState.OPEN, "threshold")

    def on_crash(self, now: float, restart_at: float) -> None:
        """The replica crashed: hold OPEN until the outage window ends
        (the cooldown is backdated so a HALF_OPEN probe is available the
        moment the replica is back)."""
        if self.threshold <= 0:
            return
        if self.state is not BreakerState.OPEN:
            self.trips += 1
            self._goto(now, BreakerState.OPEN, "crash")
        self.opened_at = restart_at - self.cooldown_s
        self.probe_rid = None
        self.consecutive_failures = 0

    def forget(self, rid: int) -> None:
        """The in-flight probe left this replica (migrated/cancelled):
        clear it so HALF_OPEN cannot wedge waiting on a ghost."""
        if self.probe_rid == rid:  # reach: tests/test_fleet.py::test_breaker_forget_clears_probe
            self.probe_rid = None

    def to_dict(self) -> dict:
        return {
            "state": self.state.value,
            "trips": self.trips,
            "consecutive_failures": self.consecutive_failures,
            "transitions": [list(t) for t in self.transitions],
        }


@dataclass
class FleetStats:
    """Cluster-level event record (per-replica detail lives on the
    replicas' own :class:`~repro.faults.FaultStats` / breakers)."""

    placements: int = 0
    router_drops: int = 0
    migrations: int = 0
    failover_exhausted: int = 0
    replica_lost: int = 0
    hedges_launched: int = 0
    hedges_won: int = 0
    hedges_cancelled: int = 0
    hedges_dropped: int = 0
    hedge_wasted_tokens: int = 0
    crash_events: int = 0
    restart_events: int = 0
    #: ``(t, rid, from_replica, to_replica)`` per successful migration.
    migration_events: list[tuple[float, int, str, str]] = field(
        default_factory=list
    )
    #: ``(t, rid, kind)`` with kind in launch/win/cancel/drop.
    hedge_events: list[tuple[float, int, str]] = field(default_factory=list)
    #: ``(t, replica, casualties, window_end)`` per crash that fired.
    crash_log: list[tuple[float, str, int, float]] = field(
        default_factory=list
    )


class _Replica(ReplicaKernel):
    """One replica (internal): the shared step kernel plus its engine,
    router price, breaker and outage windows, settling each step with
    its ``fleet``."""

    def __init__(
        self,
        fleet: FleetSimulator,
        idx: int,
        spec: ReplicaSpec,
        model: ModelConfig,
        trace: RequestTrace,
        scfg: ServingConfig,
        policy: SchedulerPolicy,
        schedule: FaultSchedule | None,
        breaker: CircuitBreaker,
        seed: int,
        collect_steps: bool,
    ) -> None:
        self.fleet = fleet
        self.idx = idx
        self.spec = spec
        from repro.baselines import make_engine

        self.engine = make_engine(spec.engine, spec.platform)
        rung = _RUNGS[spec.degradation] if spec.degradation else None
        if rung is not None:
            self.engine.set_degradation(rung)
        self.limit = max(
            1, scfg.max_batch // (rung.batch_divisor if rung else 1)
        )
        oracle = StepCostOracle.for_requests(
            self.engine, model, trace.requests, scfg
        )
        chaos = schedule is not None and any(
            f.kind is FaultKind.TRANSIENT_ERROR for f in schedule.faults
        )
        super().__init__(
            oracle, scfg, policy,
            collect_steps=collect_steps,
            faults=schedule if chaos else None,
            rng=seeded_rng(seed, "fleet", spec.name, "chaos"),
            fault_stats=(
                FaultStats(schedule_name=schedule.name)
                if schedule is not None and len(schedule.faults) > 0
                else None
            ),
        )
        # The breaker reads every step's batch, kept or not.
        self.want_rids = True
        self.breaker = breaker
        self.schedule = schedule
        # Static outage windows, merged per kind, consumed by pointer.
        self.crash_windows = _merged_windows(schedule, FaultKind.REPLICA_CRASH)
        self.restart_windows = _merged_windows(
            schedule, FaultKind.REPLICA_RESTART
        )
        self.crash_i = 0
        self.restart_i = 0
        self.restart_migrated = False
        # Router price: planned per-sequence decode-step time in points.
        n_ref = oracle.warm_up(self.limit)
        self.price_points: int | None = None
        if oracle.planned(n_ref) is not None:
            step_s = oracle.decode_step_seconds(n_ref, oracle.plan_prompt_len + 1)
            self.price_points = int(
                round(PRICE_POINTS_PER_SECOND * step_s / n_ref)
            )
        # Accounting counters.
        self.placements = 0
        self.migrations_in = 0
        self.migrations_out = 0
        self.crashes = 0
        self.down_s = 0.0

    def _cut(
        self, kind: str, start: float, end: float, n: int, max_ctx: int,
        admitted: list[Request] | None,
    ) -> bool:
        """A crash window opens strictly inside the step: the replica dies
        at the window start, and the step is recorded as a
        ``crash-<kind>`` slice with no tokens credited."""
        if not (
            self.crash_i < len(self.crash_windows)
            and start < self.crash_windows[self.crash_i][0] < end
        ):
            return False
        cs, ce = self.crash_windows[self.crash_i]
        self.crash_i += 1
        rids = (
            self.running.rids() if admitted is None
            else tuple(req.rid for req in admitted)
        )
        self.fleet._crash(self, now=cs, window_end=ce, extra=admitted)
        self.emit(f"crash-{kind}", start, cs, cs - start, 1, n, max_ctx, rids, 0)
        return True

    def _settle(
        self, ok: bool | None, rids: tuple[int, ...], reqs: list[Request]
    ) -> None:
        """Fleet-wide settlement: the breaker sees the step first, then its
        finishes run their hedge races and its drops settle."""
        fleet = self.fleet
        if ok:
            self.breaker.on_success(self.t, rids)
            for req in reqs:
                fleet._on_finish(req, self, self.t)
            return
        if ok is False:
            self.breaker.on_abort(self.fault_stats.aborts[-1][1])
        for req in reqs:
            fleet._on_drop(req, self)

    # -- outage-window queries (static: schedules are frozen) --------------

    def is_down(self, t: float) -> bool:
        return any(s <= t < e for s, e in self.crash_windows)

    def in_restart(self, t: float) -> bool:
        return any(s <= t < e for s, e in self.restart_windows)

    def empty(self) -> bool:
        return not self.queue.waiting and not self.running


def _merged_windows(
    schedule: FaultSchedule | None, kind: FaultKind
) -> list[tuple[float, float]]:
    """Sorted, overlap-merged ``[start, end)`` windows of one kind."""
    if schedule is None:
        return []
    spans = sorted(
        (f.start_s, f.end_s) for f in schedule.faults if f.kind is kind
    )
    merged: list[tuple[float, float]] = []
    for s, e in spans:
        if merged and s <= merged[-1][1]:  # reach: input: overlapping outage windows (no bundled fleet scenario has them)
            merged[-1] = (merged[-1][0], max(merged[-1][1], e))
        else:
            merged.append((s, e))
    return merged


@dataclass
class ReplicaResult:
    """One replica's view of a fleet run: a full single-engine
    :class:`ServingResult` over the requests that reached their terminal
    state here, plus placement/failover/breaker accounting."""

    spec: ReplicaSpec
    serving: ServingResult
    breaker: dict
    placements: int
    migrations_in: int
    migrations_out: int
    crashes: int
    down_s: float
    price_points: int | None


@dataclass
class FleetResult:
    """Everything a fleet simulation produced."""

    trace_name: str
    policy_name: str
    config: FleetConfig
    #: Canonical request objects in rid order — exactly one per trace
    #: entry, each carrying its fleet-wide terminal outcome (hedge races
    #: are folded into these).
    requests: list[Request]
    replicas: list[ReplicaResult]
    makespan_s: float
    stats: FleetStats
    fault_schedule: FaultSchedule | None
    #: rid -> replica index where the request reached its terminal state
    #: (``None`` for fleet-level drops: router/migration failures).
    terminal_replica: dict[int, int | None]

    @property
    def finished(self) -> list[Request]:
        return [r for r in self.requests if r.state is RequestState.FINISHED]

    @property
    def dropped(self) -> list[Request]:
        return [r for r in self.requests if r.state is RequestState.DROPPED]

    def accounting(self) -> dict:
        """Conservation check: every admitted request reaches exactly one
        terminal outcome fleet-wide, attributed exactly once."""
        total = len(self.requests)
        finished = len(self.finished)
        dropped = len(self.dropped)
        per_replica = [0] * len(self.replicas)
        fleet_level = 0
        covered = 0
        for req in self.requests:
            if req.rid in self.terminal_replica:
                covered += 1
                where = self.terminal_replica[req.rid]
                if where is None:
                    fleet_level += 1
                else:
                    per_replica[where] += 1
        s = self.stats
        hedge_balance = s.hedges_launched == (
            s.hedges_won + s.hedges_cancelled + s.hedges_dropped
        )
        ok = (
            finished + dropped == total
            and covered == total
            and len(self.terminal_replica) == total
            and sum(per_replica) + fleet_level == total
            and hedge_balance
        )
        return {
            "total": total,
            "finished": finished,
            "dropped": dropped,
            "nonterminal": total - finished - dropped,
            "terminal_covered": covered,
            "per_replica": {
                self.replicas[i].spec.name: n
                for i, n in enumerate(per_replica)
            },
            "fleet_level": fleet_level,
            "hedge_balance": hedge_balance,
            "ok": ok,
        }


class FleetSimulator:
    """N replicas + router + fault domains on one shared virtual clock."""

    def __init__(
        self,
        specs: tuple[ReplicaSpec, ...] | list[ReplicaSpec],
        model: ModelConfig,
        trace: RequestTrace,
        policy: SchedulerPolicy | None = None,
        config: FleetConfig | None = None,
        faults: FaultSchedule | None = None,
        seed: int = 0,
        collect_steps: bool = True,
    ) -> None:
        if not specs:
            raise ConfigError("fleet: at least one replica spec is required")
        names = [s.name for s in specs]
        if len(set(names)) != len(names):
            raise ConfigError(
                f"fleet: replica names must be unique (duplicated: "
                f"{', '.join(sorted({n for n in names if names.count(n) > 1}))})"
            )
        self.specs = tuple(specs)
        self.model = model
        self.trace = trace
        self.policy = policy or SchedulerPolicy()
        self.config = config or FleetConfig()
        self.seed = seed
        self.collect_steps = collect_steps
        self.faults = faults
        if faults is not None:
            domains = {s.fault_domain for s in self.specs}
            for f in faults.faults:
                if (
                    f.kind not in REPLICA_KINDS
                    and f.kind is not FaultKind.TRANSIENT_ERROR
                ):
                    raise ConfigError(
                        f"fleet: fault schedule {faults.name!r} contains a "
                        f"{f.kind.value} fault; capability faults need the "
                        "single-engine drift watchdog and degradation "
                        "ladder — run them through ServingSimulator, and "
                        "model static per-replica hardware differences via "
                        "ReplicaSpec.degradation"
                    )
                if f.domain is not None and f.domain not in domains:
                    raise ConfigError(
                        f"fleet: fault schedule {faults.name!r} targets "
                        f"domain {f.domain!r} but no replica is in it "
                        f"(known domains: {', '.join(sorted(domains))})"
                    )
        active = faults if faults is not None and len(faults.faults) else None
        cfg = self.config
        self.replicas = [
            _Replica(
                self,
                idx=i,
                spec=spec,
                model=model,
                trace=trace,
                scfg=cfg.serving,
                policy=self.policy,
                schedule=self._derive_schedule(active, spec),
                breaker=CircuitBreaker(
                    cfg.breaker_threshold, cfg.breaker_cooldown_s
                ),
                seed=seed,
                collect_steps=collect_steps,
            )
            for i, spec in enumerate(self.specs)
        ]
        self._active_schedule = active

    @staticmethod
    def _derive_schedule(
        faults: FaultSchedule | None, spec: ReplicaSpec
    ) -> FaultSchedule | None:
        """The fleet schedule as one replica experiences it: every fault
        whose domain matches (or targets the whole fleet)."""
        if faults is None:
            return None
        match = tuple(
            f
            for f in faults.faults
            if f.domain is None or f.domain == spec.fault_domain
        )
        if not match:
            return None
        return FaultSchedule(
            name=f"{faults.name}@{spec.name}", faults=match, seed=faults.seed
        )

    # -- run ---------------------------------------------------------------

    def run(self) -> FleetResult:
        with span("fleet.run"):
            return self._run()

    def _run(self) -> FleetResult:
        cfg = self.config
        pending = [
            Request.from_spec(i, spec)
            for i, spec in enumerate(self.trace.requests)
        ]
        self.requests = list(pending)
        self.stats = FleetStats()
        self.terminal: dict[int, int | None] = {}
        self.hedges: dict[int, Request] = {}
        self.primary_dead: set[int] = set()
        self.mig_count: dict[int, int] = {}
        self._events: list[tuple[float, int, int, Any]] = []
        self._eseq = 0
        self._makespan = 0.0
        i = 0
        n_pending = len(pending)

        while True:
            best: tuple[float, int, int] | None = None
            if i < n_pending:
                best = (pending[i].arrival_s, _EV_ARRIVAL, -1)
            if self._events:
                ev = self._events[0]
                cand = (ev[0], ev[1], -1)
                if best is None or cand < best:
                    best = cand
            for r in self.replicas:
                if r.queue.waiting or r.running:
                    cand = (r.t, _EV_BOUNDARY, r.idx)
                    if best is None or cand < best:
                        best = cand
            if best is None:
                break
            _, kind, idx = best
            if kind == _EV_ARRIVAL:
                self._arrival(pending[i])
                i += 1
            elif kind == _EV_BOUNDARY:
                self._boundary(self.replicas[idx])
            else:
                t_ev, ev_kind, _, payload = heapq.heappop(self._events)
                if ev_kind == _EV_DELIVER:
                    self._deliver(t_ev, *payload)
                else:
                    self._hedge_fire(t_ev, payload)

        for r in self.replicas:
            if r.fault_stats is not None:
                r.fault_stats.final_rung = r.spec.degradation or "nominal"

        terminal = self.terminal
        replica_results = []
        for r in self.replicas:
            mine = [
                req for req in self.requests if terminal.get(req.rid) == r.idx
            ]
            serving = ServingResult(
                engine=r.engine.name,
                trace_name=self.trace.name,
                policy_name=self.policy.name,
                config=cfg.serving,
                requests=mine,
                step_runs=r.runs,
                aggregates=r.agg,
                makespan_s=r.t,
                fault_stats=r.fault_stats,
                fault_schedule=r.schedule,
            )
            replica_results.append(
                ReplicaResult(
                    spec=r.spec,
                    serving=serving,
                    breaker=r.breaker.to_dict(),
                    placements=r.placements,
                    migrations_in=r.migrations_in,
                    migrations_out=r.migrations_out,
                    crashes=r.crashes,
                    down_s=r.down_s,
                    price_points=r.price_points,
                )
            )

        return FleetResult(
            trace_name=self.trace.name,
            policy_name=self.policy.name,
            config=cfg,
            requests=self.requests,
            replicas=replica_results,
            makespan_s=self._makespan,
            stats=self.stats,
            fault_schedule=self._active_schedule,
            terminal_replica=terminal,
        )

    # -- routing -----------------------------------------------------------

    def _route(
        self, now: float, exclude: tuple[int, ...] = ()
    ) -> tuple[_Replica | None, bool]:
        """Cheapest schedulable replica at ``now`` (Firmament/OCTOPUS
        cost), or ``None``.  The second element reports whether some
        otherwise-alive replica was excluded *only* for being full —
        callers stamp that as ``QUEUE_FULL`` rather than ``REPLICA_LOST``.
        """
        best: _Replica | None = None
        best_cost = 0
        any_full = False
        for r in self.replicas:
            if r.idx in exclude or r.price_points is None:
                continue
            if r.is_down(now) or r.in_restart(now):
                continue
            if not r.breaker.allow(now):
                continue
            if len(r.queue.waiting) >= r.queue.capacity:  # reach: input: a full replica queue (fleet-sim sets no queue capacity)
                any_full = True
                continue
            cost = (
                (len(r.queue.waiting) + len(r.running)) * BUSY_PU_OFFSET
                + r.price_points
                + r.idx
            )
            if best is None or cost < best_cost:
                best, best_cost = r, cost
        return best, any_full

    def _replica_of(self, obj: Request) -> _Replica | None:
        """Which replica currently holds this exact object (identity, not
        equality — a hedge clone compares equal to its canonical)."""
        for r in self.replicas:
            if obj in r.running:
                return r
            if any(x is obj for x in r.queue.waiting):
                return r
        return None

    def _place(self, r: _Replica, req: Request, now: float) -> None:
        """Put a routed request on a replica (capacity was pre-checked)."""
        if r.empty():
            # Idle-jump (the single-engine loop's `t = max(t, arrival)`),
            # and retire outage windows that elapsed while empty — a crash
            # with nothing in flight destroys nothing.
            r.t = max(r.t, now)
            while (  # reach: tests/test_fleet.py::test_crash_destroys_in_flight_work_and_migrates
                r.crash_i < len(r.crash_windows)
                and r.crash_windows[r.crash_i][1] <= now
            ):
                r.crash_i += 1
            while (
                r.restart_i < len(r.restart_windows)
                and r.restart_windows[r.restart_i][1] <= now
            ):
                r.restart_i += 1
                r.restart_migrated = False
        if req.tokens_done or req.state is RequestState.RUNNING:
            r.queue.requeue(req, now)
        else:
            placed = r.queue.offer(req, now)
            assert placed, "router placed onto a full replica"
        r.placements += 1
        r.breaker.note_placed(now, req.rid)

    def _arrival(self, req: Request) -> None:
        a = req.arrival_s
        r, any_full = self._route(a)
        if r is None:  # reach: input: an arrival when every replica is down, draining, breaker-open, unplannable or full
            req.state = RequestState.DROPPED
            req.drop_s = a
            if any_full:
                # Capacity was the only obstacle: the same stamp (and no
                # detail) the single-engine queue's offer() produces, so
                # a 1-replica fleet stays byte-identical.
                req.drop_reason = DropReason.QUEUE_FULL
            else:
                req.drop_reason = DropReason.REPLICA_LOST
                req.drop_detail = (
                    "no schedulable replica at arrival: every replica is "
                    "down, draining, breaker-open or unplannable"
                )
                self.stats.router_drops += 1
            self._on_drop(req, None)
            return
        self._place(r, req, a)
        self.stats.placements += 1
        if self.config.hedge_after_s is not None:
            heapq.heappush(
                self._events,
                (
                    a + self.config.hedge_after_s,
                    _EV_HEDGE,
                    self._next_seq(),
                    req.rid,
                ),
            )

    def _next_seq(self) -> int:
        self._eseq += 1
        return self._eseq

    # -- migration ---------------------------------------------------------

    def _push_deliver(self, now: float, req: Request, from_idx: int) -> None:
        heapq.heappush(
            self._events,
            (now, _EV_DELIVER, self._next_seq(), (req, from_idx)),
        )

    def _deliver(self, now: float, req: Request, from_idx: int) -> None:
        """Re-place a displaced request: budget check, then route with the
        origin and any live hedge sibling's replica excluded.  A racer
        whose race settled while it was in transit is discarded."""
        rid = req.rid
        if rid in self.terminal:  # reach: tests/test_fleet.py::test_cancelled_racer_in_transit_is_not_replaced
            return
        count = self.mig_count.get(rid, 0) + 1
        self.mig_count[rid] = count
        from_name = self.replicas[from_idx].spec.name
        if count > self.config.migration_budget:
            req.state = RequestState.DROPPED
            req.drop_s = now
            req.drop_reason = DropReason.FAILOVER_EXHAUSTED
            req.drop_detail = (
                f"displaced {count} times (budget "
                f"{self.config.migration_budget}); last replica {from_name}"
            )
            self.stats.failover_exhausted += 1
            self._on_drop(req, None)
            return
        exclude = [from_idx]
        canonical = self.requests[rid]
        clone = self.hedges.get(rid)
        sibling = None
        if clone is not None:
            sibling = canonical if req is clone else clone
        if sibling is not None:
            sib_r = self._replica_of(sibling)
            if sib_r is not None:
                exclude.append(sib_r.idx)
        dest, _ = self._route(now, exclude=tuple(exclude))
        if dest is None:  # reach: input: a failover when every other replica is down, draining, breaker-open or full
            req.state = RequestState.DROPPED
            req.drop_s = now
            req.drop_reason = DropReason.REPLICA_LOST
            req.drop_detail = (
                f"no failover target at t={now:.3f}s (origin {from_name} "
                "excluded; every other replica down, draining, breaker-open "
                "or full)"
            )
            self.stats.replica_lost += 1
            self._on_drop(req, None)
            return
        req.migrations += 1
        self.stats.migrations += 1
        dest.migrations_in += 1
        self.stats.migration_events.append(
            (now, rid, from_name, dest.spec.name)
        )
        self._place(dest, req, now)

    # -- hedging -----------------------------------------------------------

    def _hedge_fire(self, due: float, rid: int) -> None:
        req = self.requests[rid]
        if (
            req.state is not RequestState.QUEUED
            or req.tokens_done
            or req.first_token_s is not None
            or rid in self.hedges
            or rid in self.primary_dead
        ):
            return
        home = self._replica_of(req)
        if home is None:  # reach: input: a hedge that falls due while its request migrates
            # Mid-migration limbo: don't hedge a moving target.
            return
        dest, _ = self._route(due, exclude=(home.idx,))
        if dest is None:  # reach: input: a hedge that falls due when no other replica is schedulable
            return
        clone = Request(
            rid=rid,
            arrival_s=req.arrival_s,
            prompt_len=req.prompt_len,
            gen_len=req.gen_len,
            priority=req.priority,
        )
        self.hedges[rid] = clone
        self.stats.hedges_launched += 1
        self.stats.hedge_events.append((due, rid, "launch"))
        self._place(dest, clone, due)

    def _cancel(self, obj: Request) -> None:
        """Remove a losing racer from wherever it lives (by identity); a
        racer in transit has no replica, and :meth:`_deliver` discards it."""
        r = self._replica_of(obj)
        if r is not None:
            if any(x is obj for x in r.queue.waiting):
                r.queue.take(obj)
            else:
                r.running.leave(obj)
            r.breaker.forget(obj.rid)
        # Kill the lifecycle so nothing (expiry, admission) can touch a
        # cancelled racer again.
        obj.state = RequestState.DROPPED

    # -- terminal bookkeeping ----------------------------------------------

    def _on_finish(self, obj: Request, r: _Replica, now: float) -> None:
        rid = obj.rid
        canonical = self.requests[rid]
        clone = self.hedges.get(rid)
        if obj is canonical:
            if clone is not None:
                self.stats.hedges_cancelled += 1
                self.stats.hedge_wasted_tokens += clone.tokens_done
                self.stats.hedge_events.append((now, rid, "cancel"))
                self._cancel(clone)
                del self.hedges[rid]
            self.terminal[rid] = r.idx
            return
        # The hedge finished first: fold its outcome into the canonical
        # record (the user saw exactly one response).
        self.stats.hedges_won += 1
        self.stats.hedge_events.append((now, rid, "win"))
        self.stats.hedge_wasted_tokens += canonical.tokens_done
        if rid in self.primary_dead:
            self.primary_dead.discard(rid)
        else:
            self._cancel(canonical)
        firsts = [
            x
            for x in (canonical.first_token_s, obj.first_token_s)
            if x is not None
        ]
        admits = [
            x for x in (canonical.admit_s, obj.admit_s) if x is not None
        ]
        canonical.state = RequestState.FINISHED
        canonical.finish_s = obj.finish_s
        canonical.first_token_s = min(firsts) if firsts else None
        canonical.admit_s = min(admits) if admits else None
        canonical.tokens_done = obj.tokens_done
        canonical.preemptions += obj.preemptions
        canonical.retries += obj.retries
        canonical.migrations += obj.migrations
        canonical.drop_s = None
        canonical.drop_reason = None
        canonical.drop_detail = None
        del self.hedges[rid]
        self.terminal[rid] = r.idx

    def _on_drop(self, obj: Request, r: _Replica | None) -> None:
        """``obj`` was stamped DROPPED (at ``drop_s``); settle the
        fleet-wide outcome."""
        rid, now = obj.rid, obj.drop_s
        rep = r.idx if r is not None else None
        canonical = self.requests[rid]
        clone = self.hedges.get(rid)
        if obj is canonical:
            if clone is not None:
                # The hedge is still racing: the request is not terminal
                # yet — its fate is whatever the hedge produces.
                self.primary_dead.add(rid)
                return
            self.terminal[rid] = rep
            return
        # A hedge clone dropped.
        del self.hedges[rid]
        self.stats.hedges_dropped += 1
        self.stats.hedge_events.append((now, rid, "drop"))
        if rid in self.primary_dead:
            # Both racers died: report the later (hedge) verdict, keep the
            # larger token count, sum the effort counters.
            self.primary_dead.discard(rid)
            canonical.drop_s = obj.drop_s
            canonical.drop_reason = obj.drop_reason
            canonical.drop_detail = obj.drop_detail
            canonical.tokens_done = max(canonical.tokens_done, obj.tokens_done)
            canonical.retries += obj.retries
            canonical.preemptions += obj.preemptions
            canonical.migrations += obj.migrations
            self.terminal[rid] = rep
        else:
            # The primary lives on; the hedge's partial work is waste.
            self.stats.hedge_wasted_tokens += obj.tokens_done

    # -- crash / restart ---------------------------------------------------

    def _crash(
        self,
        r: _Replica,
        now: float,
        window_end: float,
        extra: list[Request] | None = None,
    ) -> None:
        """The replica dies at ``now``: in-flight batch and KV state are
        destroyed; every casualty migrates (running first, then any
        mid-admission batch, then the queue in insertion order)."""
        casualties = r.running.drain()
        if extra:
            casualties.extend(extra)
        for req in list(r.queue.waiting):
            r.queue.take(req)
            casualties.append(req)
        r.t = max(r.t, now)
        r.crashes += 1
        r.down_s += max(0.0, window_end - now)
        r.consec_aborts = 0
        r.breaker.on_crash(now, window_end)
        self.stats.crash_events += 1
        self.stats.crash_log.append(
            (now, r.spec.name, len(casualties), window_end)
        )
        for req in casualties:
            r.breaker.forget(req.rid)
            r.migrations_out += 1
            self._push_deliver(now, req, r.idx)
        if r.t > self._makespan:
            self._makespan = r.t

    def _boundary(self, r: _Replica) -> None:
        """One driver iteration for one replica: outage windows and expiry
        here, then one kernel iteration (no run-length advance: the router
        reads replica state between steps)."""
        t = r.t

        # 1. Outage windows.  Late-firing (a window that closed during a
        # backoff gap with work in flight) still destroys the batch: the
        # replica was down while the work sat on it.
        if (  # reach: input: a crash window that opens during a backoff gap with work in flight
            r.crash_i < len(r.crash_windows)
            and r.crash_windows[r.crash_i][0] <= t
        ):
            _, ce = r.crash_windows[r.crash_i]
            r.crash_i += 1
            self._crash(r, now=t, window_end=ce)
            return
        while (
            r.restart_i < len(r.restart_windows)
            and r.restart_windows[r.restart_i][1] <= t
        ):
            r.restart_i += 1
            r.restart_migrated = False
        draining = r.in_restart(t)
        if draining and not r.restart_migrated:
            # Graceful drain: queued work leaves, running work completes.
            r.restart_migrated = True
            self.stats.restart_events += 1
            for req in list(r.queue.waiting):
                r.queue.take(req)
                r.breaker.forget(req.rid)
                r.migrations_out += 1
                self._push_deliver(t, req, r.idx)

        # 2. Expire queue deadlines.
        for req in r.queue.expire(t):  # reach: tests/test_admission_queue.py::test_fleet_expiry_on_the_heap_equals_the_scan_reference (fleet-sim sets no queue timeout)
            self._on_drop(req, r)

        # 3. Admit, prefill, decode (no admission while draining).
        r.iterate(0 if draining else r.limit)
        if r.t > self._makespan:
            self._makespan = r.t


# -- metrics / export ------------------------------------------------------


def compute_fleet_metrics(result: FleetResult) -> dict[str, Any]:
    """The full fleet metrics document (JSON-ready): fleet-wide SLO
    metrics over the canonical requests, per-replica breakdowns, router /
    hedge / crash counters and the conservation accounting."""
    merged = ServingAggregates()
    for rr in result.replicas:
        a = rr.serving.aggregates
        for kind, n in a.step_counts.items():
            merged.count_steps(kind, n)
        merged.depth_samples += a.depth_samples
        merged.waiting_sum += a.waiting_sum
        merged.max_waiting = max(merged.max_waiting, a.max_waiting)
        merged.max_in_system = max(merged.max_in_system, a.max_in_system)
    fleet_view = ServingResult(
        engine="fleet",
        trace_name=result.trace_name,
        policy_name=result.policy_name,
        config=result.config.serving,
        requests=list(result.requests),
        step_runs=[],
        aggregates=merged,
        makespan_s=result.makespan_s,
    )
    replicas = []
    for rr in result.replicas:
        replicas.append(
            {
                "name": rr.spec.name,
                "engine": rr.spec.engine,
                "platform": rr.spec.platform,
                "degradation": rr.spec.degradation,
                "fault_domain": rr.spec.fault_domain,
                "placements": rr.placements,
                "migrations_in": rr.migrations_in,
                "migrations_out": rr.migrations_out,
                "crashes": rr.crashes,
                "down_s": rr.down_s,
                "price_points": rr.price_points,
                "breaker": rr.breaker,
                "metrics": compute_metrics(rr.serving),
            }
        )
    doc: dict[str, Any] = {
        "fleet": compute_metrics(fleet_view),
        "replicas": replicas,
        "router": {
            "placements": result.stats.placements,
            "router_drops": result.stats.router_drops,
            "migrations": result.stats.migrations,
            "failover_exhausted": result.stats.failover_exhausted,
            "replica_lost": result.stats.replica_lost,
        },
        "hedges": {
            "launched": result.stats.hedges_launched,
            "won": result.stats.hedges_won,
            "cancelled": result.stats.hedges_cancelled,
            "dropped": result.stats.hedges_dropped,
            "wasted_tokens": result.stats.hedge_wasted_tokens,
        },
        "crashes": {
            "crash_events": result.stats.crash_events,
            "restart_events": result.stats.restart_events,
        },
        "accounting": result.accounting(),
    }
    return doc


def fleet_metrics_registry(result: FleetResult) -> MetricsRegistry:
    """Machine-facing registry for one fleet run (Chrome-exportable)."""
    reg = MetricsRegistry(namespace="fleet")
    reg.counter("requests.total").inc(len(result.requests))
    reg.counter("requests.finished").inc(len(result.finished))
    reg.counter("requests.dropped").inc(len(result.dropped))
    for req in result.dropped:
        assert req.drop_reason is not None
        reg.counter(f"drops.{req.drop_reason.value}").inc()
    s = result.stats
    reg.counter("router.placements").inc(s.placements)
    reg.counter("router.drops").inc(s.router_drops)
    reg.counter("router.migrations").inc(s.migrations)
    reg.counter("hedges.launched").inc(s.hedges_launched)
    reg.counter("hedges.won").inc(s.hedges_won)
    reg.counter("hedges.cancelled").inc(s.hedges_cancelled)
    reg.counter("hedges.dropped").inc(s.hedges_dropped)
    reg.counter("crashes.events").inc(s.crash_events)
    reg.counter("crashes.restarts").inc(s.restart_events)
    for req in result.finished:
        for name, value in (
            ("ttft_s", req.ttft_s),
            ("tpot_s", req.tpot_s),
            ("e2e_s", req.e2e_s),
        ):
            if value is not None:
                reg.histogram(f"latency.{name}").observe(value)
    cfg = result.config.serving
    slo_ok = sum(
        1
        for req in result.finished
        if req.meets_slo(cfg.ttft_slo_s, cfg.tpot_slo_s)
    )
    reg.gauge("makespan_s").set(result.makespan_s)
    reg.gauge("slo.attainment").set(
        slo_ok / len(result.requests) if result.requests else 0.0
    )
    for rr in result.replicas:
        name = rr.spec.name
        reg.counter(f"breaker.trips.{name}").inc(rr.breaker["trips"])
        curve = reg.timeseries(f"curve.{name}.in_system")
        for t, waiting, running in rr.serving.queue_depth:
            curve.sample(t, float(waiting + running))
    return reg


def export_fleet_timeline(
    result: FleetResult, builder: ChromeTraceBuilder | None = None
) -> ChromeTraceBuilder:
    """Chrome-trace rows per replica (gpu steps, queue counters, breaker
    transitions) plus a fleet-level faults row (outage windows, migration
    and hedge instants)."""
    builder = builder or ChromeTraceBuilder(
        process_name=f"fleet-sim:{result.trace_name}"
    )
    for rr in result.replicas:
        name = rr.spec.name
        add_step_slices(builder, rr.serving, f"{name}/gpu")
        add_queue_counters(builder, rr.serving, f"{name}/queue")
        for t, frm, to, cause in rr.breaker["transitions"]:
            builder.add_instant(
                f"breaker {frm}->{to}", f"{name}/breaker", t, cause=cause
            )
    if result.fault_schedule is not None:
        for f in result.fault_schedule.faults:
            builder.add_slice(
                f"fault {f.kind.value}",
                "fleet/faults",
                f.start_s,
                f.duration_s,
                severity=f.severity,
                domain=f.domain or "all",
            )
    for t, rid, frm, to in result.stats.migration_events:
        builder.add_instant(
            f"migrate r{rid} {frm}->{to}", "fleet/faults", t
        )
    for t, rid, kind in result.stats.hedge_events:
        builder.add_instant(f"hedge {kind} r{rid}", "fleet/faults", t)
    return builder


# -- presets ---------------------------------------------------------------


def _uniform_fleet(size: int, domains: int) -> tuple[ReplicaSpec, ...]:
    """``size`` default LM-Offload replicas striped over ``domains``."""
    return tuple(
        ReplicaSpec(name=f"r{i}", fault_domain=f"d{i % domains}")
        for i in range(size)
    )


def _hetero_fleet() -> tuple[ReplicaSpec, ...]:
    """Four LM-Offload, two FlexGen and two ZeRO-Inference replicas; r2
    runs on the POWER9 box and r3 starts on a degradation rung."""
    return tuple(
        ReplicaSpec(
            name=f"r{i}",
            engine=(
                "lm-offload" if i < 4 else ("flexgen" if i < 6 else "zero-inference")
            ),
            platform="power9-4xv100" if i == 2 else "single-a100",
            degradation="shrink-batch" if i == 3 else None,
            fault_domain=f"d{i % 4}",
        )
        for i in range(8)
    )


#: Bundled fleet shapes for the CLI and the bench, in sweep order.
FLEET_PRESETS: dict[str, Callable[[], tuple[ReplicaSpec, ...]]] = {
    "uniform-6": lambda: _uniform_fleet(6, 3),
    "hetero-8": _hetero_fleet,
    "uniform-16": lambda: _uniform_fleet(16, 4),
}


def make_fleet(name: str) -> tuple[ReplicaSpec, ...]:
    """A bundled fleet preset by name."""
    try:
        builder = FLEET_PRESETS[name]
    except KeyError:
        raise ConfigError(
            f"unknown fleet preset {name!r} (choose from "
            f"{', '.join(FLEET_PRESETS)})"
        ) from None
    return builder()


def _window(
    kind: FaultKind, start: float, duration: float, domain: str, h: float,
    severity: float = 1.0,
) -> FaultSpec:
    """A fault window over ``domain``, placed in fractions of ``h``."""
    return FaultSpec(
        kind=kind, start_s=start * h, duration_s=duration * h,
        severity=severity, domain=domain,
    )


#: Bundled chaos scenarios for fleets, in sweep order: each maps
#: ``(horizon_s, domains)`` to its fault windows.
#:
#: * ``none`` — empty schedule (the identity element);
#: * ``replica-crash`` — two disjoint crash windows hitting the first
#:   and last fault domain;
#: * ``domain-outage`` — one long correlated crash of a whole domain;
#: * ``flaky-replica`` — a transient-abort window over one domain;
#: * ``rolling-restart`` — staggered graceful restarts, one domain at a
#:   time (a deploy sweeping the fleet).
FLEET_SCENARIOS: dict[
    str, Callable[[float, tuple[str, ...]], tuple[FaultSpec, ...]]
] = {
    "none": lambda h, d: (),
    "replica-crash": lambda h, d: (
        _window(FaultKind.REPLICA_CRASH, 0.25, 0.15, d[0], h),
        _window(FaultKind.REPLICA_CRASH, 0.55, 0.15, d[-1], h),
    ),
    "domain-outage": lambda h, d: (
        _window(FaultKind.REPLICA_CRASH, 0.35, 0.3, d[0], h),
    ),
    "flaky-replica": lambda h, d: (
        _window(FaultKind.TRANSIENT_ERROR, 0.2, 0.6, d[0], h, severity=0.25),
    ),
    "rolling-restart": lambda h, d: tuple(
        _window(FaultKind.REPLICA_RESTART, 0.2 + 0.12 * i, 0.1, dom, h)
        for i, dom in enumerate(d)
    ),
}


def make_fleet_scenario(
    name: str,
    horizon_s: float,
    domains: tuple[str, ...] = ("d0", "d1", "d2"),
    seed: int = 0,
) -> FaultSchedule:
    """A bundled fleet fault schedule (see :data:`FLEET_SCENARIOS`)
    scaled to ``horizon_s``."""
    if horizon_s <= 0:
        raise ConfigError(
            f"fleet scenario {name!r}: horizon_s must be positive "
            f"(got {horizon_s})"
        )
    if not domains:
        raise ConfigError(f"fleet scenario {name!r}: domains must be non-empty")
    try:
        builder = FLEET_SCENARIOS[name]
    except KeyError:
        raise ConfigError(
            f"unknown fleet scenario {name!r} (choose from "
            f"{', '.join(FLEET_SCENARIOS)})"
        ) from None
    return FaultSchedule(
        name=f"fleet-{name}", faults=builder(horizon_s, domains), seed=seed
    )
