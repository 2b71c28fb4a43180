"""SLO metrics for a serving run: latency percentiles, goodput, drops.

Percentiles use the nearest-rank method on exactly-sorted values — no
interpolation — so metrics are bit-stable across runs and platforms (the
determinism tests compare serialized metrics byte for byte).

Vocabulary (the standard LLM-serving metric set):

* **TTFT** — time to first token: arrival -> end of the prefill step;
* **TPOT** — time per output token after the first (queueing and
  preemption stalls included, as the user experiences them);
* **e2e**  — arrival -> last token;
* **goodput** — *SLO-compliant* completions per second: requests that
  finished with ``TTFT <= ttft_slo`` and ``TPOT <= tpot_slo``, divided by
  the makespan.  Throughput counts tokens; goodput counts kept promises.

Chaos runs (a fault schedule was injected) additionally carry a
``faults`` section — aborted steps, retries, replans, ladder transitions,
availability (fraction of the run not lost to aborts/backoff), degraded
time fraction, and SLO attainment *under chaos*.  The section is omitted
entirely for fault-free runs so their documents stay byte-identical.
"""

from __future__ import annotations

from typing import Any

from repro.obs.registry import Histogram, MetricsRegistry
from repro.serving.simulator import ServingResult

PERCENTILES = (50, 95, 99, 99.9)


def _summary(values: list[float]) -> dict[str, float]:
    return Histogram(name="latency", values=list(values)).summary(PERCENTILES)


def compute_metrics(result: ServingResult) -> dict[str, Any]:
    """The full metrics document for one serving run (JSON-ready)."""
    cfg = result.config
    finished = result.finished
    dropped = result.dropped

    ttft = [r.ttft_s for r in finished if r.ttft_s is not None]
    tpot = [r.tpot_s for r in finished if r.tpot_s is not None]
    e2e = [r.e2e_s for r in finished if r.e2e_s is not None]

    slo_ok = [r for r in finished if r.meets_slo(cfg.ttft_slo_s, cfg.tpot_slo_s)]
    # A zero makespan (empty trace, or every request dropped before a
    # single step ran) has no rate: report 0.0 explicitly rather than
    # dividing by a phantom second.
    makespan = result.makespan_s
    gen_tokens = sum(r.tokens_done for r in result.requests)

    drop_counts: dict[str, int] = {}
    for r in dropped:
        assert r.drop_reason is not None
        drop_counts[r.drop_reason.value] = drop_counts.get(r.drop_reason.value, 0) + 1

    # Queue-depth and step-count stats come from the loop's running
    # aggregates, not from expanding per-step records: integer sums and
    # maxima are exact, so the document is byte-identical to the old
    # list-derived values — and independent of ``collect_steps``.
    agg = result.aggregates

    doc = {
        "engine": result.engine,
        "trace": result.trace_name,
        "scheduler": result.policy_name,
        "requests": {
            "total": len(result.requests),
            "finished": len(finished),
            "dropped": sum(drop_counts.values()),
            "drop_reasons": drop_counts,
            "preemptions": sum(r.preemptions for r in result.requests),
        },
        "latency_s": {
            "ttft": _summary(ttft),
            "tpot": _summary(tpot),
            "e2e": _summary(e2e),
        },
        "slo": {
            "ttft_slo_s": cfg.ttft_slo_s,
            "tpot_slo_s": cfg.tpot_slo_s,
            "attainment": (len(slo_ok) / len(result.requests))
            if result.requests
            else 0.0,  # reach: input: a run with no requests (tests/test_fleet.py::test_fleet_bench_quick_payload_deterministic)
            "goodput_rps": len(slo_ok) / makespan if makespan > 0 else 0.0,
        },
        "throughput": {
            "tokens_per_s": gen_tokens / makespan if makespan > 0 else 0.0,
            "requests_per_s": len(finished) / makespan if makespan > 0 else 0.0,
        },
        "queue_depth": {
            "mean_waiting": (
                agg.waiting_sum / agg.depth_samples if agg.depth_samples else 0.0
            ),
            "max_waiting": agg.max_waiting,
            "max_in_system": agg.max_in_system,
        },
        "steps": {
            "prefill": agg.steps_of_kind("prefill"),
            "decode": agg.steps_of_kind("decode"),
        },
        "makespan_s": result.makespan_s,
    }
    if result.fault_stats is not None:
        # Present only for chaos runs, so fault-free metrics documents stay
        # byte-identical to the pre-fault-layer output.
        doc["steps"]["aborted"] = agg.aborted_steps
        faults = result.fault_stats.to_dict(result.makespan_s)
        faults["retries"] = sum(r.retries for r in result.requests)
        faults["slo_attainment_under_chaos"] = doc["slo"]["attainment"]
        doc["faults"] = faults
    return doc


def metrics_registry(result: ServingResult) -> MetricsRegistry:
    """Typed series for one run: the export surface for JSON + trace rows.

    The document from :func:`compute_metrics` is the human-facing summary;
    this registry is the machine-facing one — every tally a Counter, every
    sampled quantity a Histogram/Gauge, serialized deterministically and
    renderable as Chrome-trace counter rows via
    :meth:`~repro.obs.registry.MetricsRegistry.export_chrome`.
    """
    reg = MetricsRegistry(namespace="serving")
    reg.counter("requests.total").inc(len(result.requests))
    reg.counter("requests.finished").inc(len(result.finished))
    reg.counter("requests.dropped").inc(len(result.dropped))
    for r in result.requests:
        if r.preemptions:
            reg.counter("requests.preemptions").inc(r.preemptions)
    for r in result.dropped:
        assert r.drop_reason is not None
        reg.counter(f"drops.{r.drop_reason.value}").inc()
    for r in result.finished:
        for name, value in (
            ("ttft_s", r.ttft_s), ("tpot_s", r.tpot_s), ("e2e_s", r.e2e_s)
        ):
            if value is not None:
                reg.histogram(f"latency.{name}").observe(value)
    # Step counters and queue/batch summaries come from the loop's running
    # aggregates — exact integer sums and maxima, byte-identical whether
    # per-step records were retained or not.  (They used to be derived by
    # iterating ``result.steps`` / ``result.queue_depth``, which are empty
    # under ``collect_steps=False``, so ``serve-sim --no-steps
    # --metrics-out`` silently dropped every ``steps.*`` and ``queue.*``
    # series while the metrics document still reported them.)
    agg = result.aggregates
    for kind in sorted(agg.step_counts):
        reg.counter(f"steps.{kind}").inc(agg.step_counts[kind])
    if agg.depth_samples:
        reg.gauge("batch.max").set(agg.max_batch)
        reg.gauge("queue.max_waiting").set(agg.max_waiting)
        reg.gauge("queue.mean_waiting").set(agg.waiting_sum / agg.depth_samples)
        reg.gauge("queue.max_in_system").set(agg.max_in_system)
    # Per-step distributions and trajectories genuinely need the retained
    # records; they are emitted only when the run kept them.
    for step in result.steps:
        reg.histogram(f"step_duration_s.{step.kind}").observe(step.duration_s)
        reg.gauge("batch").set(step.batch)
    for _, waiting, running in result.queue_depth:
        reg.gauge("queue.waiting").set(waiting)
        reg.gauge("queue.in_system").set(waiting + running)
    reg.gauge("makespan_s").set(result.makespan_s)
    if result.fault_stats is not None:
        result.fault_stats.fill_registry(reg, result.makespan_s)
    if result.timeseries is not None:
        # The loop sampled per-step curves live (``curve.*`` — a disjoint
        # namespace from the aggregates above); fold them in so one export
        # carries both the end-of-run summary and the trajectories.
        reg.merge(result.timeseries)
    return reg


def metrics_row(metrics: dict[str, Any]) -> dict[str, Any]:
    """Flatten one metrics document into a table row for the CLI."""
    lat = metrics["latency_s"]
    return {
        "engine": metrics["engine"],
        "sched": metrics["scheduler"],
        "done": metrics["requests"]["finished"],
        "drop": metrics["requests"]["dropped"],
        "ttft_p50": round(lat["ttft"]["p50"], 3),
        "ttft_p95": round(lat["ttft"]["p95"], 3),
        "ttft_p99": round(lat["ttft"]["p99"], 3),
        "tpot_p50": round(lat["tpot"]["p50"], 4),
        "tpot_p95": round(lat["tpot"]["p95"], 4),
        "tpot_p99": round(lat["tpot"]["p99"], 4),
        "e2e_p50": round(lat["e2e"]["p50"], 3),
        "e2e_p95": round(lat["e2e"]["p95"], 3),
        "e2e_p99": round(lat["e2e"]["p99"], 3),
        "goodput_rps": round(metrics["slo"]["goodput_rps"], 3),
        "slo_att": round(metrics["slo"]["attainment"], 3),
        "tok_per_s": round(metrics["throughput"]["tokens_per_s"], 1),
    }
