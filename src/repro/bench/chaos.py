"""Chaos benchmark: every engine through every fault scenario.

``python -m repro chaos`` replays one frozen arrival trace through each
engine under each bundled fault scenario (plus a fault-free baseline for
reference) and writes ``BENCH_chaos.json``.  The headline questions are
robustness ones:

* does any (engine, scenario) pair crash?  (It must not — every rejection
  has to be a typed drop; ``accounting_ok`` asserts
  ``finished + dropped + still-queued-at-end == arrived`` per run.)
* how much goodput/SLO attainment survives each fault class, relative to
  the same engine's fault-free run on the same trace?
* how often did each engine replan, walk the degradation ladder, or shed
  requests, and what availability / degraded-time fraction resulted?

Every run is seeded end to end — trace, fault windows, abort draws and
backoff jitter all derive from one ``--seed`` — so two invocations with
the same arguments produce byte-identical JSON (asserted in
``tests/test_chaos_serving.py`` and by the acceptance criteria).

Engines are constructed *fresh per run*: chaos runs retarget the engine
at degraded platforms mid-flight, and although the simulator restores the
base platform on exit, sharing one engine across scenarios would let a
bug in that restore leak state between runs.
"""

from __future__ import annotations

from typing import Any

from repro.baselines import make_engine
from repro.faults import SCENARIOS, make_scenario
from repro.models import get_model
from repro.obs.drift import (
    DEFAULT_SERVING_DRIFT_TOLERANCE,
    DEFAULT_TOLERANCE,
    DriftGate,
)
from repro.serving.arrivals import RequestTrace, default_trace
from repro.serving.metrics import compute_metrics
from repro.serving.policies import make_policy
from repro.serving.request import RequestState
from repro.serving.simulator import (
    BACKOFF_JITTER,
    DRIFT_TOLERANCE,
    ServingConfig,
    ServingResult,
    ServingSimulator,
)
from repro.bench.serving import ENGINES

SCHEMA_VERSION = 1


def _accounting(result: ServingResult) -> dict[str, Any]:
    """Conservation check: every arrived request ends in exactly one of
    finished/dropped (the loop never exits with work in flight)."""
    finished = len(result.finished)
    dropped = len(result.dropped)
    unresolved = [
        r.rid  # reach: safety code, names the requests a failed accounting check left unresolved
        for r in result.requests
        if r.state not in (RequestState.FINISHED, RequestState.DROPPED)
    ]
    untyped = [
        r.rid for r in result.dropped if r.drop_reason is None
    ]
    return {
        "arrived": len(result.requests),
        "finished": finished,
        "dropped": dropped,
        "unresolved_rids": unresolved,
        "untyped_drop_rids": untyped,
        "accounting_ok": not unresolved and not untyped
        and finished + dropped == len(result.requests),
    }


def _drift_window(engine_name: str, schedule, workload):
    """The plan-window pricer for one engine's schedule: at instant ``t``
    a fresh engine replans the serving workload on the faulted platform,
    and Eq. 1/2's steady-state step time is checked against the
    overlapped executor on the same task costs — the exact numbers the
    admission loop trusts mid-outage."""
    from repro.errors import MemoryCapacityError, PolicyError
    from repro.obs.drift import steady_state

    def price(t: float) -> dict[str, Any]:
        engine = make_engine(engine_name)
        engine.retarget(engine.platform.with_faults(schedule, t))
        try:
            model = engine.planned_cost_model(workload)
        except (PolicyError, MemoryCapacityError) as exc:
            # An unplannable window is a capacity verdict, not model drift;
            # the serving loop sheds under it (INFEASIBLE / degradation
            # ladder), so the gate records it without failing.
            return {"plannable": False, "plan_error": f"{type(exc).__name__}: {exc}"}
        return {"plannable": True, **steady_state(model)[0]}

    return price


def _drift_sweep(
    engines: tuple[str, ...],
    schedules: dict[tuple[str, str], Any],
    scenarios: tuple[str, ...],
    config: ServingConfig,
    model_name: str,
    gate: DriftGate,
) -> dict[str, Any]:
    """The drift-gate payload section: every engine's distinct degraded
    capability windows checked by ``gate``.  Scenarios with no capability
    windows (pure transient-abort storms) contribute nothing: aborts
    perturb outcomes, not step prices."""
    from repro.obs.drift import price_windows
    from repro.perfmodel.notation import Workload

    k = config.num_gpu_batches
    workload = Workload(
        get_model(model_name), 64, 32, max(1, -(-config.max_batch // k)), k
    )
    doc_engines: dict[str, Any] = {}
    for engine_name in engines:
        doc_scenarios: dict[str, Any] = {}
        for scenario_name in scenarios:
            schedule = schedules[(engine_name, scenario_name)]
            windows = price_windows(
                schedule, _drift_window(engine_name, schedule, workload)
            )
            for idx, w in enumerate(windows):
                if w["plannable"]:
                    gate.add(f"{engine_name}/{scenario_name}/{idx}", w["rel_err"])
            doc_scenarios[scenario_name] = {
                "num_unique_windows": len(windows),
                "windows": windows,
                "max_rel_err": max(
                    (w["rel_err"] for w in windows if w["plannable"]),
                    default=0.0,
                ),
            }
        doc_engines[engine_name] = doc_scenarios
    return {
        "tolerance": gate.tolerance,
        "workload": {
            "prompt_len": 64,
            "gen_len": 32,
            "max_batch": config.max_batch,
            "num_gpu_batches": config.num_gpu_batches,
        },
        "engines": doc_engines,
        "summary": {"num_windows_priced": len(gate.errs), **gate.summary()},
    }


def _rung_intervals(result: ServingResult) -> list[tuple[float, float]]:
    """Clock intervals during which a non-nominal degradation rung was
    engaged, reconstructed from the watchdog's transition log.  Steps
    executed inside them were priced from a rung-constrained search space
    a fresh unconstrained engine will not reproduce, so the serving drift
    gate skips them."""
    from repro.faults import LADDER

    assert result.fault_stats is not None
    nominal = LADDER[0].name
    intervals: list[tuple[float, float]] = []
    open_since: float | None = None
    for now, _from_rung, to_rung, _cause in result.fault_stats.transitions:  # reach: tests/test_chaos_serving.py::test_host_memory_shrink_walks_the_ladder_and_recovers
        if to_rung != nominal and open_since is None:
            open_since = now
        elif to_rung == nominal and open_since is not None:
            intervals.append((open_since, now))
            open_since = None
    if open_since is not None:  # reach: input: a run that ends on a degraded rung
        intervals.append((open_since, result.makespan_s))
    return intervals


def _serving_drift_run(
    engine_name: str,
    schedule,
    result: ServingResult,
    config: ServingConfig,
    model_cfg,
    tolerance: float,
) -> dict[str, Any]:
    """Audit one faulted run's *executed* step prices.

    Where the plan-level drift gate prices hypothetical windows, this
    gate walks the steps the serving loop actually charged, groups them
    by (fault segment, kind, batch, context bucket), and re-prices each
    group with a fresh engine retargeted at the exactly-faulted platform
    of that segment — the price the loop *should* have used if its
    watchdog were perfectly synchronized.  Deviations beyond the
    watchdog's deliberate staleness budget indicate the loop served steps
    at prices the fault overlay cannot justify.
    """
    from repro.errors import ServingError
    from repro.serving.costing import StepCostOracle

    intervals = _rung_intervals(result)

    # Group executed steps; aborted steps are skipped (their recorded
    # interval is lost work, priced like the step that would have run —
    # auditing the completed twin of the same group covers the price).
    # One reference oracle per fault segment: a fresh engine retargeted
    # at the overlay's effective platform where the segment's first
    # executed step starts.
    groups: dict[tuple, dict[str, Any]] = {}
    oracles: dict[tuple, StepCostOracle] = {}
    skipped_degraded = 0
    for step in result.steps:
        if step.kind not in ("prefill", "decode"):
            continue
        if any(a <= step.start_s < b for a, b in intervals):  # reach: input: a serving drift gate over a run that left the nominal rung (no bundled scenario does)
            skipped_degraded += 1
            continue
        seg = schedule.segment_key(step.start_s)
        if seg not in oracles:
            engine = make_engine(engine_name)
            engine.retarget(engine.platform.with_faults(schedule, step.start_s))
            oracles[seg] = StepCostOracle.for_requests(
                engine, model_cfg, result.requests, config
            )
        ctx_b = oracles[seg]._bucket_ctx(step.max_ctx)
        g = groups.setdefault(
            (seg, step.kind, step.batch, ctx_b),
            {"start_s": step.start_s, "steps": 0, "durations": set()},
        )
        g["steps"] += 1
        g["durations"].add(step.duration_s)

    gate = DriftGate(tolerance)
    windows: list[dict[str, Any]] = []
    for key in sorted(groups, key=lambda k: (groups[k]["start_s"], k[1], k[2], k[3])):
        seg, kind, batch, ctx_b = key
        g = groups[key]
        oracle = oracles[seg]
        record: dict[str, Any] = {
            "kind": kind,
            "batch": batch,
            "ctx_bucket": ctx_b,
            "start_s": g["start_s"],
            "steps": g["steps"],
        }
        windows.append(record)
        try:
            if kind == "prefill":
                ref = oracle.prefill_seconds(batch, ctx_b)
            else:
                ref = oracle.decode_step_seconds(batch, ctx_b)
        except ServingError as exc:
            # The exactly-faulted platform cannot plan this level at all:
            # a capacity verdict (the loop was running on a tolerably
            # stale plan), recorded but not counted as price drift.
            record["plannable"] = False
            record["plan_error"] = str(exc)
            continue
        err = max(
            abs(dur - ref) / ref for dur in g["durations"]
        ) if ref > 0 else 0.0
        record.update(
            {
                "plannable": True,
                "reference_s": ref,
                "executed_s": sorted(g["durations"]),
                "rel_err": err,
            }
        )
        gate.add(str(len(windows) - 1), err)
    return {
        "num_step_groups": len(windows),
        "skipped_degraded_steps": skipped_degraded,
        "max_rel_err": gate.max_rel_err,
        "over_tolerance": len(gate.over),
        "windows": windows,
    }


def _serving_drift_sweep(
    engines: tuple[str, ...],
    schedules: dict[tuple[str, str], Any],
    scenarios: tuple[str, ...],
    results: dict[tuple[str, str], ServingResult],
    config: ServingConfig,
    model_name: str,
    gate: DriftGate,
) -> dict[str, Any]:
    """The serving-drift payload section: every faulted run's executed
    steps audited against freshly-priced faulted platforms.  ``gate``
    rolls up one entry per run, its worst step group."""
    model_cfg = get_model(model_name)
    doc_engines: dict[str, Any] = {}
    priced = 0
    for engine_name in engines:
        doc_scenarios: dict[str, Any] = {}
        for scenario_name in scenarios:
            run = _serving_drift_run(
                engine_name,
                schedules[(engine_name, scenario_name)],
                results[(engine_name, scenario_name)],
                config,
                model_cfg,
                gate.tolerance,
            )
            doc_scenarios[scenario_name] = run
            priced += sum(1 for w in run["windows"] if w["plannable"])
            gate.add(f"{engine_name}/{scenario_name}", run["max_rel_err"])
        doc_engines[engine_name] = doc_scenarios
    return {
        "tolerance": gate.tolerance,
        "engines": doc_engines,
        "summary": {"num_step_groups_priced": priced, **gate.summary()},
    }


def run_chaos(
    model_name: str = "opt-30b",
    trace: RequestTrace | None = None,
    scheduler: str = "fcfs",
    config: ServingConfig | None = None,
    engines: tuple[str, ...] = ENGINES,
    scenarios: tuple[str, ...] = tuple(SCENARIOS),
    quick: bool = False,
    seed: int = 0,
    drift_gate: bool = False,
    drift_tolerance: float = DEFAULT_TOLERANCE,
    serving_drift_gate: bool = False,
    serving_drift_tolerance: float = DEFAULT_SERVING_DRIFT_TOLERANCE,
) -> tuple[dict[str, Any], dict[tuple[str, str], ServingResult]]:
    """Every engine x every scenario (+ a fault-free baseline per engine).

    Returns ``(payload, results)``; ``results`` is keyed by
    ``(engine, scenario)`` with ``"baseline"`` for the fault-free run.

    ``drift_gate=True`` adds the faulted serving drift gate: every
    degraded capability window of every schedule is re-priced with a
    fresh engine retargeted at the faulted platform, and Eq. 1/2's
    steady-state prediction is checked against the overlapped executor
    at ``drift_tolerance``.  The payload gains ``"drift"`` and
    ``"all_drift_ok"`` sections (absent otherwise, so the default
    payload stays byte-identical).

    ``serving_drift_gate=True`` adds the *executed-step* audit: every
    faulted run's completed prefill/decode prices are grouped by (fault
    segment, kind, batch, context bucket) and re-priced by a fresh
    engine retargeted at the exactly-faulted platform, checked at
    ``serving_drift_tolerance`` (looser than the plan gate: the watchdog
    legitimately serves on plans up to
    :data:`~repro.serving.simulator.DRIFT_TOLERANCE` stale).
    Adds ``"serving_drift"`` / ``"all_serving_drift_ok"`` sections.
    """
    plan_gate = DriftGate(drift_tolerance, "drift_tolerance") if drift_gate else None
    step_gate = (
        DriftGate(serving_drift_tolerance, "serving_drift_tolerance")
        if serving_drift_gate
        else None
    )
    trace = trace or default_trace(quick=quick, seed=seed)
    config = config or ServingConfig()
    results: dict[tuple[str, str], ServingResult] = {}
    schedules: dict[tuple[str, str], Any] = {}
    doc_engines: dict[str, Any] = {}

    for engine_name in engines:
        runs: dict[str, Any] = {}
        baseline = ServingSimulator(
            engine=make_engine(engine_name),
            model=get_model(model_name),
            trace=trace,
            policy=make_policy(scheduler),
            config=config,
        ).run()
        results[(engine_name, "baseline")] = baseline
        base_metrics = compute_metrics(baseline)
        runs["baseline"] = {
            "metrics": base_metrics,
            "accounting": _accounting(baseline),
        }
        base_goodput = base_metrics["slo"]["goodput_rps"]
        # Fault windows are fractions of this engine's own fault-free
        # makespan, not of the arrival horizon: offloaded engines serve a
        # 6 s trace over minutes, and a window scaled to the horizon would
        # fall inside a single step and never be observed by the watchdog.
        # Every engine gets the same *fractional* exposure, and the
        # baseline makespan is deterministic, so so is the schedule.
        fault_horizon = baseline.makespan_s
        for scenario_name in scenarios:
            schedule = make_scenario(scenario_name, fault_horizon, seed)
            schedules[(engine_name, scenario_name)] = schedule
            result = ServingSimulator(
                engine=make_engine(engine_name),
                model=get_model(model_name),
                trace=trace,
                policy=make_policy(scheduler),
                config=config,
                faults=schedule,
                seed=seed,
            ).run()
            results[(engine_name, scenario_name)] = result
            metrics = compute_metrics(result)
            goodput = metrics["slo"]["goodput_rps"]
            runs[scenario_name] = {
                "schedule": schedule.to_dict(),
                "metrics": metrics,
                "accounting": _accounting(result),
                #: Goodput retained vs the same engine's fault-free run.
                "goodput_retention": (goodput / base_goodput)
                if base_goodput > 0
                else None,
            }
        doc_engines[engine_name] = runs

    payload = {
        "schema_version": SCHEMA_VERSION,
        "model": model_name,
        "seed": seed,
        "trace": {
            "name": trace.name,
            "requests": len(trace),
            "horizon_s": trace.horizon_s,
            "total_tokens": trace.total_tokens,
        },
        "scheduler": scheduler,
        "config": {
            "max_batch": config.max_batch,
            "retry_limit": config.retry_limit,
            "backoff_base_s": config.backoff_base_s,
            "backoff_cap_s": config.backoff_cap_s,
            "backoff_jitter": BACKOFF_JITTER,
            "drift_tolerance": DRIFT_TOLERANCE,
            "request_deadline_s": config.request_deadline_s,
        },
        "scenarios": list(scenarios),
        "engines": doc_engines,
        "all_accounting_ok": all(
            runs[s]["accounting"]["accounting_ok"]
            for runs in doc_engines.values()
            for s in runs
        ),
    }
    if plan_gate is not None:
        payload["drift"] = _drift_sweep(
            engines, schedules, scenarios, config, model_name, plan_gate
        )
        payload["all_drift_ok"] = plan_gate.ok
    if step_gate is not None:
        payload["serving_drift"] = _serving_drift_sweep(
            engines, schedules, scenarios, results, config, model_name, step_gate
        )
        payload["all_serving_drift_ok"] = step_gate.ok
    return payload, results


def chaos_rows(payload: dict[str, Any]) -> list[dict[str, Any]]:
    """Flatten one chaos payload into CLI/markdown table rows."""
    rows: list[dict[str, Any]] = []
    for engine_name, runs in payload["engines"].items():
        for scenario_name, run in runs.items():
            m = run["metrics"]
            f = m.get("faults", {})
            rows.append(
                {
                    "engine": engine_name,
                    "scenario": scenario_name,
                    "done": m["requests"]["finished"],
                    "drop": m["requests"]["dropped"],
                    "aborts": f.get("aborted_steps", 0),
                    "replans": f.get("replans", 0),
                    "final_rung": f.get("final_rung", "-"),
                    "avail": round(f.get("availability", 1.0), 3),
                    "degr_frac": round(f.get("degraded_time_fraction", 0.0), 3),
                    "goodput_rps": round(m["slo"]["goodput_rps"], 3),
                    "retention": (
                        round(run["goodput_retention"], 3)
                        if run.get("goodput_retention") is not None
                        else "-"
                    ),
                    "slo_att": round(m["slo"]["attainment"], 3),
                    "ok": run["accounting"]["accounting_ok"],
                }
            )
    return rows
