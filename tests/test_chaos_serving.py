"""Fault-aware serving: zero-fault identity, determinism, typed drops,
retry/backoff schedules, degraded-mode replanning and the chaos bench."""

import json

import pytest

from repro.baselines import ZeroInferenceEngine
from repro.core import LMOffloadEngine
from repro.errors import ConfigError
from repro.faults import (
    FaultKind,
    FaultSchedule,
    FaultSpec,
    make_scenario,
)
from repro.hardware import single_a100
from repro.models import get_model
from repro.serving import (
    DropReason,
    RequestState,
    ServingConfig,
    ServingSimulator,
    compute_metrics,
    default_trace,
)
from tests.traces import replay_trace


@pytest.fixture(scope="module")
def model():
    return get_model("opt-1.3b")


@pytest.fixture(scope="module")
def trace():
    return default_trace(quick=True, seed=0)


def simulate(model, trace, faults=None, seed=0, **cfg):
    # Fresh engine per run: chaos runs retarget the engine mid-flight and
    # a shared fixture would let restore bugs leak between tests.
    return ServingSimulator(
        engine=ZeroInferenceEngine(single_a100()),
        model=model,
        trace=trace,
        config=ServingConfig(**cfg),
        faults=faults,
        seed=seed,
    ).run()


def metrics_json(result):
    return json.dumps(compute_metrics(result), sort_keys=True)


# -- zero-fault identity ---------------------------------------------------


def test_empty_schedule_reproduces_fault_free_run(model, trace):
    """The fault layer's identity element: an empty schedule must take the
    exact fault-free code path, byte for byte (PR 2's numbers)."""
    plain = simulate(model, trace)
    zeroed = simulate(model, trace, faults=FaultSchedule("no-faults"))
    assert plain.fault_stats is None and zeroed.fault_stats is None
    assert metrics_json(plain) == metrics_json(zeroed)


def test_fault_free_metrics_have_no_faults_section(model, trace):
    doc = compute_metrics(simulate(model, trace))
    assert "faults" not in doc
    assert "aborted" not in doc["steps"]


# -- determinism -----------------------------------------------------------

def _horizon(model, trace):
    return simulate(model, trace).makespan_s


@pytest.mark.parametrize("scenario", ["pcie-degrade", "flaky-pcie", "multi-fault"])
def test_same_seed_identical_chaos_run(model, trace, scenario):
    horizon = _horizon(model, trace)
    sched = make_scenario(scenario, horizon_s=horizon, seed=0)
    r1 = simulate(model, trace, faults=sched, seed=0)
    r2 = simulate(model, trace, faults=sched, seed=0)
    assert metrics_json(r1) == metrics_json(r2)
    assert [
        (s.kind, s.start_s, s.end_s, s.rids) for s in r1.steps
    ] == [(s.kind, s.start_s, s.end_s, s.rids) for s in r2.steps]
    assert r1.fault_stats.backoffs == r2.fault_stats.backoffs
    assert r1.fault_stats.replans == r2.fault_stats.replans


def test_different_seed_changes_abort_timeline(model, trace):
    horizon = _horizon(model, trace)
    sched = make_scenario("flaky-pcie", horizon_s=horizon, seed=0)
    r1 = simulate(model, trace, faults=sched, seed=0)
    r2 = simulate(model, trace, faults=sched, seed=99)
    assert r1.fault_stats.aborts != r2.fault_stats.aborts


def test_finished_batch_is_not_a_stall(model):
    """A batch that simply completes while requests wait is not a stall:
    on a healthy platform with no arrival or fault change ahead, the
    waiting requests must run, not be dropped INFEASIBLE."""
    trace = replay_trace([(0.0, 16, 8)] * 8, name="backlog")
    blip = FaultSchedule(
        name="pcie-blip",
        faults=(FaultSpec(FaultKind.PCIE_DEGRADE, 0.0, 0.01, 0.5),),
    )
    result = simulate(model, trace, faults=blip, max_batch=2)
    assert len(result.finished) == 8 and result.dropped == []


# -- retry/backoff semantics ----------------------------------------------


def _always_abort(duration_s=1e9, severity=1.0):
    return FaultSchedule(
        name="always-abort",
        faults=(FaultSpec(FaultKind.TRANSIENT_ERROR, 0.0, duration_s, severity),),
    )


def test_persistent_transient_fault_exhausts_retries(model, trace):
    result = simulate(model, trace, faults=_always_abort(), retry_limit=2)
    assert result.finished == []
    assert all(
        r.drop_reason is DropReason.RETRY_EXHAUSTED for r in result.dropped
    )
    assert all(r.retries > 2 for r in result.dropped)
    assert all("retry budget" in (r.drop_detail or "") or r.drop_detail
               for r in result.dropped)


def test_backoff_delays_monotone_and_capped(model, trace):
    cap = 4.0
    result = simulate(
        model, trace, faults=_always_abort(), retry_limit=6,
        backoff_base_s=0.5, backoff_cap_s=cap, backoff_jitter=0.1,
    )
    backoffs = result.fault_stats.backoffs
    assert backoffs, "a persistent transient fault must force backoffs"
    # Consecutive aborts: attempts count up, delays never shrink, cap holds.
    for (s0, e0, a0), (s1, e1, a1) in zip(backoffs, backoffs[1:]):
        if a1 == a0 + 1:  # same consecutive-abort streak
            assert e1 - s1 >= e0 - s0 - 1e-12
    assert all(e - s <= cap + 1e-12 for s, e, _ in backoffs)


def test_deadline_produces_fault_abort_drops(model, trace):
    result = simulate(
        model, trace, faults=_always_abort(), retry_limit=50,
        request_deadline_s=5.0,
    )
    assert result.finished == []
    assert all(r.drop_reason is DropReason.FAULT_ABORT for r in result.dropped)
    assert all("deadline" in r.drop_detail for r in result.dropped)


def test_aborted_steps_recorded_and_clock_advances(model, trace):
    result = simulate(model, trace, faults=_always_abort(), retry_limit=1)
    kinds = {s.kind for s in result.steps}
    assert kinds <= {"abort-prefill", "abort-decode"}
    stats = result.fault_stats
    assert stats.lost_s > 0
    assert stats.availability(result.makespan_s) < 1.0
    # Conservation: every arrival is finished or dropped with a reason.
    assert all(
        r.state in (RequestState.FINISHED, RequestState.DROPPED)
        for r in result.requests
    )
    assert all(r.drop_reason is not None for r in result.dropped)


# -- degraded-mode replanning ---------------------------------------------


def test_capability_fault_triggers_replan_and_recovery(model, trace):
    horizon = _horizon(model, trace)
    sched = make_scenario("pcie-degrade", horizon_s=horizon, seed=0)
    result = simulate(model, trace, faults=sched, seed=0)
    causes = [cause for _, cause, _ in result.fault_stats.replans]
    assert "drift" in causes
    assert result.fault_stats.degraded_s > 0
    # All work still completes on this small model.
    assert not result.dropped


def test_mem_shrink_routes_through_prescreen_not_exception(model, trace):
    horizon = _horizon(model, trace)
    sched = make_scenario("mem-crunch", horizon_s=horizon, seed=0)
    result = simulate(model, trace, faults=sched, seed=0)  # must not raise
    assert all(
        r.state in (RequestState.FINISHED, RequestState.DROPPED)
        for r in result.requests
    )


def test_lm_offload_replans_under_pcie_degrade(trace):
    """Acceptance criterion: LM-Offload replans at least once under
    pcie-degrade and completes without crashing."""
    base = single_a100()
    engine = LMOffloadEngine(base)
    sched = FaultSchedule(
        name="pcie-degrade-long",
        faults=(FaultSpec(FaultKind.PCIE_DEGRADE, 20.0, 1e9, severity=0.6),),
    )
    result = ServingSimulator(
        engine=engine,
        model=get_model("opt-30b"),
        trace=trace,
        config=ServingConfig(),
        faults=sched,
        seed=0,
    ).run()
    assert len(result.fault_stats.replans) >= 1
    admitted_or_resolved = [
        r
        for r in result.requests
        if r.state in (RequestState.FINISHED, RequestState.DROPPED)
    ]
    assert len(admitted_or_resolved) == len(result.requests)
    assert all(r.drop_reason is not None for r in result.dropped)
    # The engine is restored for reuse after a chaos run.
    assert engine.platform is base
    assert engine._degradation is None


#: The degradation ladder under a real host-memory fault, with no patched
#: oracle: a ``HOST_MEM_SHRINK`` window over [5, 15) s on the quick
#: default trace (opt-30b, seed 0).  ``(engine, severity)`` -> the rung
#: transitions ``(t rounded to ms, from, to, cause)`` and whether the
#: watchdog sheds running requests.  LM-Offload stays nominal up to
#: severity 0.999, because its disk tier absorbs the shrink; at 0.9999 its
#: probe tries every rung, the forced-quantization ones included, before
#: backpressure.
LADDER_RUNS = {
    ("flexgen", 0.999): (
        [(7.913, "nominal", "backpressure", "drift"),
         (15.0, "backpressure", "nominal", "recovery")],
        True,
    ),
    ("zero-inference", 0.999): (
        [(5.433, "nominal", "backpressure", "drift"),
         (15.0, "backpressure", "nominal", "recovery")],
        True,
    ),
    ("zero-inference", 0.99): (
        [(5.433, "nominal", "cpu-attention", "drift"),
         (15.378, "cpu-attention", "nominal", "recovery")],
        False,
    ),
    ("lm-offload", 0.9999): (
        [(5.502, "nominal", "backpressure", "drift"),
         (15.0, "backpressure", "nominal", "recovery")],
        True,
    ),
}


@pytest.mark.parametrize("engine_name,severity", list(LADDER_RUNS))
def test_host_memory_shrink_walks_the_ladder_and_recovers(
    trace, engine_name, severity
):
    """A host-memory shrink walks the ladder down and back up: the
    watchdog engages a rung, backpressure sheds the newest running
    requests and stalls admission until the window closes, and every
    request still finishes on the recovered platform."""
    from repro.baselines import make_engine
    from repro.bench.chaos import _rung_intervals
    from repro.serving import export_request_timeline

    transitions, sheds = LADDER_RUNS[engine_name, severity]
    shrink = FaultSchedule(
        name="host-shrink",
        faults=(FaultSpec(FaultKind.HOST_MEM_SHRINK, 5.0, 10.0, severity),),
    )
    result = ServingSimulator(
        engine=make_engine(engine_name),
        model=get_model("opt-30b"),
        trace=trace,
        config=ServingConfig(),
        faults=shrink,
        seed=0,
    ).run()
    stats = result.fault_stats
    assert [(round(t, 3), a, b, c) for t, a, b, c in stats.transitions] == transitions
    assert (len(stats.sheds) >= 1) is sheds
    assert len(result.finished) == len(result.requests) == 9
    assert stats.final_rung == "nominal"
    faults = compute_metrics(result)["faults"]
    assert [(round(x["t_s"], 3), x["from"], x["to"], x["reason"])
            for x in faults["rung_transitions"]] == transitions
    assert faults["shed_requests"] == len(stats.sheds)
    assert _rung_intervals(result) == [
        (stats.transitions[0][0], stats.transitions[1][0])
    ]
    instants = {
        e["name"]
        for e in json.loads(export_request_timeline(result).to_json())["traceEvents"]
        if e["ph"] == "i"
    }
    assert {f"rung {a}->{b}" for _, a, b, _ in transitions} <= instants
    assert {f"shed r{rid}" for _, rid in stats.sheds} <= instants


# -- config validation -----------------------------------------------------


def test_serving_config_rejects_zero_backoff_base():
    with pytest.raises(ConfigError, match="tight loop"):
        ServingConfig(backoff_base_s=0.0)


def test_serving_config_rejects_bad_drift_tolerance():
    with pytest.raises(ConfigError, match="drift_tolerance"):
        ServingConfig(drift_tolerance=0.0)


def test_serving_config_rejects_negative_deadline():
    with pytest.raises(ConfigError, match="request_deadline_s"):
        ServingConfig(request_deadline_s=-1.0)


def test_serving_config_rejects_cap_below_base():
    with pytest.raises(ConfigError, match="cap"):
        ServingConfig(backoff_base_s=4.0, backoff_cap_s=1.0)


# -- chaos bench -----------------------------------------------------------


def test_chaos_bench_payload_deterministic_and_accounted(model):
    from repro.bench.chaos import run_chaos

    kwargs = dict(
        model_name="opt-1.3b",
        scheduler="fcfs",
        engines=("zero-inference",),
        scenarios=("pcie-degrade", "flaky-pcie"),
        quick=True,
        seed=0,
    )
    p1, _ = run_chaos(**kwargs)
    p2, _ = run_chaos(**kwargs)
    assert json.dumps(p1, sort_keys=True) == json.dumps(p2, sort_keys=True)
    assert p1["all_accounting_ok"]
    runs = p1["engines"]["zero-inference"]
    assert set(runs) == {"baseline", "pcie-degrade", "flaky-pcie"}
    assert "faults" not in runs["baseline"]["metrics"]
    assert runs["pcie-degrade"]["metrics"]["faults"]["replans"] >= 1
    # Both drift gates are strictly opt-in: the default payload (and its
    # byte identity with pre-gate artifacts) is untouched.
    assert "drift" not in p1 and "serving_drift" not in p1


def test_serving_drift_gate_reprices_executed_steps(model):
    from repro.bench.chaos import run_chaos
    from repro.obs.drift import DEFAULT_SERVING_DRIFT_TOLERANCE

    payload, _ = run_chaos(
        model_name="opt-1.3b",
        scheduler="fcfs",
        engines=("zero-inference",),
        scenarios=("pcie-degrade", "flaky-pcie"),
        quick=True,
        seed=0,
        serving_drift_gate=True,
    )
    assert payload["all_serving_drift_ok"]
    gate = payload["serving_drift"]
    assert gate["tolerance"] == DEFAULT_SERVING_DRIFT_TOLERANCE
    summary = gate["summary"]
    assert summary["ok"] and not summary["over_tolerance"]
    assert summary["num_step_groups_priced"] > 0
    # Fresh fault-retargeted engines reprice the executed steps through
    # the same cost model, so agreement is near-exact, far inside the
    # tolerance that absorbs legitimate watchdog staleness.
    assert summary["max_rel_err"] < 1e-6
    for scenario in ("pcie-degrade", "flaky-pcie"):
        run = gate["engines"]["zero-inference"][scenario]
        assert run["num_step_groups"] > 0
        assert not run["over_tolerance"]


def test_plan_window_drift_gate_dedupes_windows(model):
    from repro.bench.chaos import run_chaos
    from repro.faults.overlay import capability_windows

    payload, results = run_chaos(
        model_name="opt-1.3b",
        engines=("zero-inference",),
        scenarios=("flaky-pcie", "multi-fault"),
        quick=True,
        seed=0,
        drift_gate=True,
    )
    assert payload["all_drift_ok"]
    makespan = results[("zero-inference", "baseline")].makespan_s
    gate = payload["drift"]
    doc = gate["engines"]["zero-inference"]
    raw = {
        name: capability_windows(make_scenario(name, makespan, 0))
        for name in ("flaky-pcie", "multi-fault")
    }
    # Every flap of the link is the same regime: one pricing, seven tallies.
    flaky = doc["flaky-pcie"]
    assert flaky["num_unique_windows"] == 1
    assert flaky["windows"][0]["window"]["occurrences"] == len(raw["flaky-pcie"]) == 7
    # multi-fault: pcie, pcie+cpu and cpu regimes out of five windows.
    multi = doc["multi-fault"]
    assert multi["num_unique_windows"] == 3
    assert sum(w["window"]["occurrences"] for w in multi["windows"]) == 5
    assert len(raw["multi-fault"]) == 5

    priced = {
        f"zero-inference/{name}/{idx}": w["rel_err"]
        for name, scenario in doc.items()
        for idx, w in enumerate(scenario["windows"])
        if w["plannable"]
    }
    summary = gate["summary"]
    assert summary["num_windows_priced"] == len(priced) > 0
    assert summary["max_rel_err"] == max(priced.values())
    assert priced[summary["worst"]] == summary["max_rel_err"]
