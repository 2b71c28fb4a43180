"""Serving benchmark: LM-Offload vs. baselines under identical traces.

Replays one frozen arrival trace through a :class:`ServingSimulator`
built on each engine and writes ``BENCH_serving.json`` — the serving
analogue of ``BENCH_timing.json``.  The headline number is **goodput**
(SLO-compliant completions per second): offline throughput comparisons
(Table 3) reward big blocks, but online serving also charges for the
queueing those big blocks cause, which is exactly the regime the paper's
baselines never measured.

Every engine sees byte-identical requests (traces are frozen
``RequestSpec`` tuples; each run materializes fresh ``Request`` records),
so differences are attributable to planning quality alone.
"""

from __future__ import annotations

from typing import Any

from repro.baselines import make_engine
from repro.models import get_model
from repro.serving.arrivals import RequestTrace, default_trace
from repro.serving.metrics import compute_metrics
from repro.serving.policies import make_policy
from repro.serving.simulator import ServingConfig, ServingResult, ServingSimulator

SCHEMA_VERSION = 1

#: The default comparison: the paper's system and its two §5.1
#: baselines.  The opt-in speculative engine (``--spec``, or an explicit
#: ``engines`` tuple) stays out so the committed artifacts stay stable.
ENGINES = ("lm-offload", "flexgen", "zero-inference")


def simulate_engine(
    engine_name: str,
    model_name: str,
    trace: RequestTrace,
    scheduler: str = "fcfs",
    config: ServingConfig | None = None,
    collect_steps: bool = True,
    faults: Any = None,
    seed: int = 0,
) -> ServingResult:
    """One engine, one trace -> the full simulation result.

    ``collect_steps=False`` skips retaining per-step records entirely
    (the throughput setting for huge traces); every summary metric is
    byte-identical either way, only the ``steps``/``queue_depth`` views
    (timeline export and the ``curve.*`` time series) need it on.
    ``faults`` (a :class:`~repro.faults.FaultSchedule`) plus ``seed``
    switch the run into the fault-injected regime.
    """
    sim = ServingSimulator(
        engine=make_engine(engine_name),
        model=get_model(model_name),
        trace=trace,
        policy=make_policy(scheduler),
        config=config,
        collect_steps=collect_steps,
        faults=faults,
        seed=seed,
    )
    return sim.run()


def run_serving_comparison(
    model_name: str = "opt-30b",
    trace: RequestTrace | None = None,
    scheduler: str = "fcfs",
    config: ServingConfig | None = None,
    engines: tuple[str, ...] = ENGINES,
    quick: bool = False,
    seed: int = 0,
    collect_steps: bool = True,
    scenario: str | None = None,
) -> tuple[dict[str, Any], dict[str, ServingResult]]:
    """Run every engine on the same trace.

    Returns ``(payload, results)``: the JSON-ready comparison document and
    the raw per-engine :class:`ServingResult` (for timeline export).
    ``collect_steps`` is forwarded to :func:`simulate_engine`; the payload
    never contains per-step data, so it is byte-identical whatever its
    setting.

    ``scenario`` names a bundled fault scenario
    (:func:`repro.faults.make_scenario`) to run every engine under: each
    engine first runs fault-free to measure its makespan (the chaos-bench
    horizon idiom — windows are fractions of the engine's own busy
    period), then reruns with the scaled schedule; the reported metrics
    are the faulted run's, and the payload gains a ``"scenario"`` section
    recording the per-engine schedules.  ``None`` (the default) leaves
    both runs and payload exactly as before.
    """
    trace = trace or default_trace(quick=quick, seed=seed)
    config = config or ServingConfig()
    results: dict[str, ServingResult] = {}
    metrics: dict[str, Any] = {}
    scenario_doc: dict[str, Any] | None = None
    if scenario is not None:
        scenario_doc = {"name": scenario, "engines": {}}
    for name in engines:
        results[name] = simulate_engine(
            name, model_name, trace, scheduler=scheduler, config=config,
            collect_steps=collect_steps,
        )
        if scenario is not None and scenario_doc is not None:
            from repro.faults import make_scenario

            schedule = make_scenario(scenario, results[name].makespan_s, seed)
            scenario_doc["engines"][name] = {
                "baseline_makespan_s": results[name].makespan_s,
                "schedule": schedule.to_dict(),
            }
            results[name] = simulate_engine(
                name, model_name, trace, scheduler=scheduler, config=config,
                collect_steps=collect_steps,
                faults=schedule, seed=seed,
            )
        metrics[name] = compute_metrics(results[name])

    comparison: dict[str, Any] = {}
    if "flexgen" in metrics:
        ref = metrics["flexgen"]["slo"]["goodput_rps"]
        comparison["goodput_vs_flexgen"] = {
            name: (m["slo"]["goodput_rps"] / ref) if ref > 0 else None
            for name, m in metrics.items()
        }
    payload = {
        "schema_version": SCHEMA_VERSION,
        "model": model_name,
        "trace": {
            "name": trace.name,
            "requests": len(trace),
            "horizon_s": trace.horizon_s,
            "total_tokens": trace.total_tokens,
        },
        "scheduler": scheduler,
        "config": {
            "max_batch": config.max_batch,
            "num_gpu_batches": config.num_gpu_batches,
            "queue_capacity": config.queue_capacity,
            "queue_timeout_s": config.queue_timeout_s,
            "ttft_slo_s": config.ttft_slo_s,
            "tpot_slo_s": config.tpot_slo_s,
        },
        "engines": metrics,
        "comparison": comparison,
    }
    if scenario_doc is not None:
        payload["scenario"] = scenario_doc
    return payload, results
