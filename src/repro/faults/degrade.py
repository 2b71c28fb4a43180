"""Graceful-degradation ladder + fault-event bookkeeping.

When the drift watchdog detects that the effective platform has moved
beyond tolerance, the engine replans against the degraded specs.  If the
replan cannot cover the serving loop's batch ceiling any more, the loop
walks this ladder, applying progressively more drastic mitigations until
one plans — the order mirrors how a production offloading stack would
shed capability:

1. ``nominal``          — replan only; keep the configured batch ceiling.
2. ``shrink-batch``     — halve the ceiling (less KV/activation memory,
   shorter steps; cheapest lever, no quality impact).
3. ``aggressive-quant`` — constrain the policy search to quantized
   W/KV candidates only (trades accuracy headroom for memory/wire).
4. ``cpu-attention``    — force attention onto the CPU so the KV cache
   never crosses the degraded interconnect; quarter the ceiling.
5. ``backpressure``     — stop admitting; hold the queue until the
   platform recovers (or requests time out / are dropped INFEASIBLE).

Each transition is recorded in :class:`FaultStats`, which also tallies
aborts, backoffs, replans and shed requests for the metrics layer
(availability, degraded-time fraction) and the Chrome-trace export.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class DegradationRung:
    """One rung: which mitigations are in force."""

    name: str
    #: Divide the serving loop's configured batch ceiling by this.
    batch_divisor: int = 1
    #: Constrain the policy search to quantized W/KV candidates only.
    force_quant: bool = False
    #: Force CPU attention (KV never crosses the interconnect).
    force_cpu_attention: bool = False
    #: When False, admission stops entirely (backpressure).
    admit: bool = True


#: Mildest first.  The last rung never admits, so the serving loop's
#: ladder probe always ends on some rung.
LADDER: tuple[DegradationRung, ...] = (
    DegradationRung("nominal"),
    DegradationRung("shrink-batch", batch_divisor=2),
    DegradationRung("aggressive-quant", batch_divisor=2, force_quant=True),
    DegradationRung(
        "cpu-attention",
        batch_divisor=4,
        force_quant=True,
        force_cpu_attention=True,
    ),
    DegradationRung(
        "backpressure",
        batch_divisor=4,
        force_quant=True,
        force_cpu_attention=True,
        admit=False,
    ),
)


@dataclass
class FaultStats:
    """Everything the fault layer did to one serving run (JSON-ready).

    Times are virtual-clock seconds; intervals are ``(start, end)``.
    """

    schedule_name: str
    #: Aborted steps: (start, end, kind, batch).
    aborts: list[tuple[float, float, str, int]] = field(default_factory=list)
    #: Backoff waits: (start, end, attempt).
    backoffs: list[tuple[float, float, int]] = field(default_factory=list)
    #: Replans: (t, cause, drift_vs_base).  cause is "drift" | "recovery".
    replans: list[tuple[float, str, float]] = field(default_factory=list)
    #: Ladder transitions: (t, from_rung, to_rung, reason).
    transitions: list[tuple[float, str, str, str]] = field(default_factory=list)
    #: Requests shed (requeued) because the running batch stopped fitting:
    #: (t, rid).
    sheds: list[tuple[float, int]] = field(default_factory=list)
    #: Wall-clock (virtual) seconds lost to aborted work + backoff waits.
    lost_s: float = 0.0
    #: Seconds spent with a degraded platform applied or a rung above
    #: nominal engaged.
    degraded_s: float = 0.0
    #: Rung in force when the run ended.
    final_rung: str = "nominal"

    def availability(self, makespan_s: float) -> float:
        """Fraction of the run not lost to aborts/backoff."""
        if makespan_s <= 0:  # reach: input: a zero-makespan run (tests/test_fleet.py::test_fleet_bench_quick_payload_deterministic)
            return 1.0
        return max(0.0, 1.0 - self.lost_s / makespan_s)

    def degraded_fraction(self, makespan_s: float) -> float:
        if makespan_s <= 0:  # reach: input: a zero-makespan run (tests/test_fleet.py::test_fleet_bench_quick_payload_deterministic)
            return 0.0
        return min(1.0, self.degraded_s / makespan_s)

    def fill_registry(self, reg, makespan_s: float) -> None:
        """Record this run's fault bookkeeping into a metrics registry.

        ``reg`` is a :class:`~repro.obs.registry.MetricsRegistry`
        (duck-typed; faults stays import-light).  Series land under the
        ``faults.`` prefix so they compose with the serving series in one
        registry.
        """
        reg.counter("faults.aborted_steps").inc(len(self.aborts))
        reg.counter("faults.backoffs").inc(len(self.backoffs))
        reg.counter("faults.replans").inc(len(self.replans))
        for _, cause, _ in self.replans:
            reg.counter(f"faults.replans_by_cause.{cause}").inc()
        reg.counter("faults.rung_transitions").inc(len(self.transitions))
        reg.counter("faults.shed_requests").inc(len(self.sheds))
        for start, end, _ in self.backoffs:
            reg.histogram("faults.backoff_s").observe(end - start)
        reg.gauge("faults.lost_s").set(self.lost_s)
        reg.gauge("faults.availability").set(self.availability(makespan_s))
        reg.gauge("faults.degraded_time_fraction").set(
            self.degraded_fraction(makespan_s)
        )

    def to_dict(self, makespan_s: float) -> dict:
        return {
            "schedule": self.schedule_name,
            "aborted_steps": len(self.aborts),
            "backoffs": len(self.backoffs),
            "replans": len(self.replans),
            "replan_causes": [
                {"t_s": round(t, 6), "cause": cause, "drift": round(d, 6)}
                for t, cause, d in self.replans
            ],
            "rung_transitions": [
                {"t_s": round(t, 6), "from": a, "to": b, "reason": r}  # reach: tests/test_chaos_serving.py::test_host_memory_shrink_walks_the_ladder_and_recovers
                for t, a, b, r in self.transitions
            ],
            "shed_requests": len(self.sheds),
            "final_rung": self.final_rung,
            "lost_s": round(self.lost_s, 6),
            "availability": round(self.availability(makespan_s), 6),
            "degraded_time_fraction": round(
                self.degraded_fraction(makespan_s), 6
            ),
        }
