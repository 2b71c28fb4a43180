"""Chrome-trace export of a serving run's request timeline.

Reuses :class:`~repro.trace.chrome.ChromeTraceBuilder` (same Trace Event
Format the decode-schedule exporter emits) with three rows:

* ``gpu``      — one complete slice per prefill/decode step (batch size,
  max context and participating request ids in ``args``);
* ``requests`` — instant markers for every lifecycle event (arrival,
  admit, first_token, finish, drop, preempt);
* a ``queue`` counter series sampling waiting/running depth after each
  step, rendered by Perfetto as a stacked area chart.

:func:`add_step_slices` and :func:`add_queue_counters` draw the ``gpu``
and ``queue`` rows; the fleet exporter draws each replica's with them.

Chaos runs add a ``faults`` row — injected fault windows, aborted-step
and backoff slices, replan/rung-transition/shed instants — so the causal
chain (fault window -> aborts -> backoff -> replan -> rung change) reads
left to right in the viewer.  Fault-free runs emit exactly the original
three rows.

Open the file in chrome://tracing or https://ui.perfetto.dev.
"""

from __future__ import annotations

from repro.serving.simulator import ServingResult
from repro.trace.chrome import ChromeTraceBuilder


def add_step_slices(
    builder: ChromeTraceBuilder, result: ServingResult, resource: str
) -> None:
    """One complete slice per step of ``result`` on the ``resource`` row."""
    for step in result.steps:
        builder.add_slice(
            f"{step.kind} b={step.batch}",
            resource,
            step.start_s,
            step.duration_s,
            batch=step.batch,
            max_ctx=step.max_ctx,
            rids=list(step.rids),
        )


def add_queue_counters(
    builder: ChromeTraceBuilder, result: ServingResult, name: str
) -> None:
    """The ``name`` counter: waiting/running depth after every step."""
    for t, waiting, running in result.queue_depth:
        builder.add_counter(name, t, waiting=waiting, running=running)


def export_request_timeline(
    result: ServingResult, builder: ChromeTraceBuilder | None = None
) -> ChromeTraceBuilder:
    """Render one serving run into a trace builder (new one by default)."""
    builder = builder or ChromeTraceBuilder(
        process_name=f"serve-sim:{result.engine}"
    )
    add_step_slices(builder, result, "gpu")
    for req in sorted(result.requests, key=lambda r: r.rid):
        builder.add_instant(f"arrive r{req.rid}", "requests", req.arrival_s,
                            prompt=req.prompt_len, gen=req.gen_len)
        if req.admit_s is not None:
            builder.add_instant(f"admit r{req.rid}", "requests", req.admit_s)
        if req.first_token_s is not None:
            builder.add_instant(
                f"first_token r{req.rid}", "requests", req.first_token_s
            )
        if req.finish_s is not None:
            builder.add_instant(f"finish r{req.rid}", "requests", req.finish_s,
                                tokens=req.tokens_done)
        if req.drop_s is not None:
            assert req.drop_reason is not None
            builder.add_instant(f"drop r{req.rid}", "requests", req.drop_s,
                                reason=req.drop_reason.value)
    add_queue_counters(builder, result, "queue")
    if result.fault_schedule is not None:
        for f in result.fault_schedule.faults:
            builder.add_slice(
                f"fault {f.kind.value}", "faults", f.start_s, f.duration_s,
                severity=f.severity,
            )
    if result.fault_stats is not None:
        stats = result.fault_stats
        for s0, s1, kind, batch in stats.aborts:
            builder.add_slice(f"abort {kind}", "faults", s0, s1 - s0, batch=batch)
        for s0, s1, attempt in stats.backoffs:
            builder.add_slice(f"backoff #{attempt}", "faults", s0, s1 - s0)
        for t, cause, drift in stats.replans:
            builder.add_instant(f"replan ({cause})", "faults", t, drift=drift)
        for t, from_rung, to_rung, reason in stats.transitions:  # reach: tests/test_chaos_serving.py::test_host_memory_shrink_walks_the_ladder_and_recovers
            builder.add_instant(
                f"rung {from_rung}->{to_rung}", "faults", t, reason=reason
            )
        for t, rid in stats.sheds:  # reach: tests/test_chaos_serving.py::test_host_memory_shrink_walks_the_ladder_and_recovers
            builder.add_instant(f"shed r{rid}", "faults", t)
    return builder
