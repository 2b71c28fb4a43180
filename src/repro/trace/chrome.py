"""Chrome-trace (``chrome://tracing``) export of simulated schedules.

The JSON produced follows the Trace Event Format's complete-event ("X")
records: ``{"name", "ph": "X", "ts", "dur", "pid", "tid"}`` with
microsecond timestamps.  Load the file in Perfetto or chrome://tracing to
see the six tasks overlapping across the H2D / D2H / compute rows.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from repro.errors import ScheduleError
from repro.runtime.executor import OverlappedExecutor
from repro.runtime.tasks import TaskCosts

#: Resource rows the repo's exporters use, in their canonical display
#: order.  Row numbering starts from this order, then falls back to
#: alphabetical for anything unlisted, so a trace's tid layout is a
#: function of *which* resources appear — never of which one happened to
#: log first.
CANONICAL_RESOURCES = (
    "h2d",
    "d2h",
    "compute",
    "gpu",
    "requests",
    "faults",
    "metrics",
    "counters",
)


@dataclass
class ChromeTraceBuilder:
    """Accumulates trace slices and serialises them.

    Resources map to ``tid`` rows under a single ``pid``; slice name is
    the task label.  Events carry their resource *name* until
    serialization, when tids are materialized from the deterministic
    resource ordering (:meth:`resource_tids`) — first-touch order used to
    leak into the numbering, so two traces of the same run could disagree
    just because their exporters emitted rows in a different order.
    Counter events ("C") carry an explicit ``tid`` too; some viewers
    misgroup counters that omit it.
    """

    process_name: str = "lm-offload-sim"
    #: (resource, event-without-tid) in emission order.
    _events: list[tuple[str, dict]] = field(default_factory=list)

    def add_slice(
        self,
        name: str,
        resource: str,
        start_s: float,
        duration_s: float,
        **args,
    ) -> None:
        """Record one task execution (seconds in, microseconds out)."""
        if duration_s < 0:
            raise ScheduleError("duration must be non-negative")
        self._events.append(
            (
                resource,
                {
                    "name": name,
                    "ph": "X",
                    "ts": start_s * 1e6,
                    "dur": duration_s * 1e6,
                    "pid": 0,
                    "args": args,
                },
            )
        )

    def add_instant(self, name: str, resource: str, ts_s: float, **args) -> None:
        """Record an instant event ("i") — lifecycle markers like request
        arrival/finish that have a time but no duration."""
        self._events.append(
            (
                resource,
                {
                    "name": name,
                    "ph": "i",
                    "s": "t",  # thread-scoped marker
                    "ts": ts_s * 1e6,
                    "pid": 0,
                    "args": args,
                },
            )
        )

    def add_counter(
        self, name: str, ts_s: float, resource: str = "counters", **series: float
    ) -> None:
        """Record a counter sample ("C") — e.g. queue depth over time."""
        self._events.append(
            (
                resource,
                {
                    "name": name,
                    "ph": "C",
                    "ts": ts_s * 1e6,
                    "pid": 0,
                    "args": dict(series),
                },
            )
        )

    @property
    def num_slices(self) -> int:
        return sum(1 for _, e in self._events if e.get("ph") == "X")

    def resource_tids(self) -> dict[str, int]:
        """Deterministic resource -> tid map for the resources present:
        canonical rows first (in :data:`CANONICAL_RESOURCES` order), any
        others after, alphabetically."""
        present = {res for res, _ in self._events}
        ordered = [r for r in CANONICAL_RESOURCES if r in present]
        ordered.extend(sorted(present.difference(CANONICAL_RESOURCES)))
        return {res: tid for tid, res in enumerate(ordered)}

    def build_events(self) -> list[dict]:
        """Final event list: all thread_name metadata up front (tid
        order), then the recorded events in emission order with their
        materialized tids."""
        tids = self.resource_tids()
        events: list[dict] = [
            {
                "name": "thread_name",
                "ph": "M",
                "pid": 0,
                "tid": tid,
                "args": {"name": res},
            }
            for res, tid in sorted(tids.items(), key=lambda kv: kv[1])
        ]
        for res, event in self._events:
            events.append({**event, "tid": tids[res]})
        return events

    def to_json(self, indent: int | None = None) -> str:
        doc = {
            "traceEvents": self.build_events(),
            "displayTimeUnit": "ms",
            "otherData": {"process": self.process_name},
        }
        return json.dumps(doc, indent=indent)

    def save(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_json())


def trace_decode_schedule(
    costs_per_token: list[TaskCosts],
    num_layers: int,
    num_gpu_batches: int,
    builder: ChromeTraceBuilder | None = None,
) -> ChromeTraceBuilder:
    """Run Algorithm 1 for the given per-token costs, capturing slices.

    Each token is one :meth:`~repro.runtime.executor.OverlappedExecutor.run_token`
    with the builder attached, so the trace is the executor's schedule:
    its last slice ends at the executor's makespan.
    """
    builder = builder or ChromeTraceBuilder()
    executor = OverlappedExecutor(num_layers, num_gpu_batches)
    for costs in costs_per_token:
        executor.run_token(costs, start_at=executor.sim.makespan, builder=builder)
    return builder
