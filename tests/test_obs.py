"""Observability layer: registry, profiling hooks, drift audit.

Covers the three obs contracts:

* the metrics registry serializes deterministically and its nearest-rank
  percentile arithmetic is exact for float percentiles (property-tested
  against a from-first-principles reference);
* profiling is zero-overhead and zero-*effect* when disabled — enabling
  it must never change a simulation's output (byte-identical documents);
* the drift audit is deterministic and its tolerance gate actually
  fails when tolerance is exceeded.
"""

import json
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    PROFILER,
    Profiler,
    exact_nearest_rank,
    profiling_enabled,
    span,
)


# -- exact nearest-rank percentiles -----------------------------------------


def reference_nearest_rank(values, pct):
    """Definition-level reference: the smallest ordered value whose
    cumulative count reaches ``n * pct / 100`` (rationals throughout)."""
    ordered = sorted(values)
    n = len(ordered)
    target = Fraction(str(pct)) * n / 100
    count = 0
    for v in ordered:
        count += 1
        if count >= target:
            return v
    return ordered[-1]


def test_p999_rounds_up_not_down():
    # 1000 samples: p99.9 is rank ceil(1000 * 999/1000) = 999... exactly
    # 999? No: 1000 * 99.9 / 100 = 999 exactly -> rank 999.  With 1001
    # samples the target is 999.999 -> rank 1000; the old float
    # floor-division picked 999.
    values = [float(i) for i in range(1, 1002)]
    assert exact_nearest_rank(values, 99.9) == 1000.0


def test_old_float_rank_bug_is_fixed():
    # The seed implementation computed max(1, -(-n * pct // 100)) in float
    # arithmetic.  When n * pct / 100 is mathematically an integer but the
    # float product lands epsilon above it, the ceiling bumps the rank by
    # one: n=250, pct=64.4 -> exact rank 161 (250 * 64.4 = 16100 exactly),
    # but float 250 * 64.4 = 16100.000000000002 -> old rank 162.
    n, pct = 250, 64.4
    old_rank = max(1, -(-n * pct // 100))
    assert old_rank == 162  # the bug this PR fixes
    values = [float(i) for i in range(1, n + 1)]
    assert exact_nearest_rank(values, pct) == 161.0


def test_nearest_rank_edge_percentiles():
    values = [3.0, 1.0, 2.0]
    assert exact_nearest_rank(values, 0) == 1.0
    assert exact_nearest_rank(values, 100) == 3.0
    assert exact_nearest_rank([], 50) == 0.0


def test_nearest_rank_rejects_out_of_range():
    with pytest.raises(ValueError):
        exact_nearest_rank([1.0], 101)
    with pytest.raises(ValueError):
        exact_nearest_rank([1.0], -1)


@settings(max_examples=200, deadline=None)
@given(
    values=st.lists(
        st.floats(allow_nan=False, allow_infinity=False, width=32),
        min_size=1,
        max_size=200,
    ),
    pct=st.one_of(
        st.integers(min_value=0, max_value=100),
        st.decimals(
            min_value=0, max_value=100, allow_nan=False, allow_infinity=False,
            places=3,
        ).map(float),
    ),
)
def test_nearest_rank_matches_reference(values, pct):
    assert exact_nearest_rank(values, pct) == reference_nearest_rank(values, pct)


# -- registry series --------------------------------------------------------


def test_counter_monotone():
    c = Counter(name="x")
    c.inc()
    c.inc(2.5)
    assert c.value == 3.5
    with pytest.raises(ValueError):
        c.inc(-1)


def test_gauge_tracks_extremes():
    g = Gauge(name="x")
    for v in (5.0, -2.0, 3.0):
        g.set(v)
    assert g.value == 3.0 and g.min == -2.0 and g.max == 5.0 and g.samples == 3


def test_histogram_summary_keys():
    h = Histogram(name="x")
    for v in range(1, 101):
        h.observe(float(v))
    s = h.summary((50, 95, 99, 99.9))
    assert set(s) == {"p50", "p95", "p99", "p99.9", "mean"}
    assert s["p50"] == 50.0 and s["p99.9"] == 100.0


def test_registry_get_or_create_and_type_conflict():
    reg = MetricsRegistry()
    c = reg.counter("a.b")
    assert reg.counter("a.b") is c
    with pytest.raises(TypeError):
        reg.gauge("a.b")


def test_registry_serialization_is_deterministic():
    def build(order):
        reg = MetricsRegistry(namespace="t")
        for name in order:
            reg.counter(name).inc()
        reg.histogram("h").observe(1.0)
        return reg.to_json()

    assert build(["z", "a", "m"]) == build(["a", "m", "z"])
    doc = json.loads(build(["z", "a"]))
    assert list(doc["series"]) == sorted(doc["series"])


def test_registry_export_chrome_counter_rows():
    from repro.trace import ChromeTraceBuilder

    reg = MetricsRegistry()
    reg.counter("reqs").inc(3)
    reg.gauge("depth").set(2.0)
    reg.histogram("lat").observe(0.5)
    b = ChromeTraceBuilder()
    reg.export_chrome(b, ts_s=1.0)
    events = json.loads(b.to_json())["traceEvents"]
    counters = [e for e in events if e["ph"] == "C"]
    assert {e["name"] for e in counters} == {"reqs", "depth", "lat"}
    tids = {e["args"]["name"]: e["tid"] for e in events if e["ph"] == "M"}
    assert all(e["tid"] == tids["metrics"] for e in counters)


# -- profiling hooks --------------------------------------------------------


def test_disabled_span_is_shared_noop_singleton():
    p = Profiler(enabled=False)
    assert p.span("a") is p.span("b")
    with p.span("a"):
        pass
    assert p.report()["scopes"] == {}


def test_disabled_profiler_records_nothing():
    p = Profiler(enabled=False)
    p.count("n")
    p.cache("c", hit=True)
    rep = p.report()
    assert rep["counts"] == {} and rep["caches"] == {}


def test_enabled_profiler_accumulates():
    p = Profiler(enabled=True)
    with p.span("s"):
        pass
    with p.span("s"):
        pass
    p.count("n", 3)
    p.cache("c", hit=True)
    p.cache("c", hit=False)
    rep = p.report()
    assert rep["scopes"]["s"]["calls"] == 2
    assert rep["counts"]["n"] == 3
    assert rep["caches"]["c"] == {"hits": 1, "misses": 1, "hit_rate": 0.5}


def test_profiling_enabled_restores_prior_state():
    assert not PROFILER.enabled
    with profiling_enabled():
        assert PROFILER.enabled
        with span("x"):
            pass
        assert PROFILER.report()["scopes"]["x"]["calls"] == 1
    assert not PROFILER.enabled


def test_profiling_captures_planner_and_executor_spans():
    from repro.core import LMOffloadEngine
    from repro.hardware import single_a100
    from repro.models import get_model
    from repro.perfmodel import Workload

    engine = LMOffloadEngine(single_a100())
    w = Workload(get_model("opt-1.3b"), 64, 8, 8, 2)
    with profiling_enabled() as p:
        engine.plan_cached(w)
        engine.plan_cached(w)
    rep = p.report()
    for name in ("engine.plan", "engine.plan.pass1", "planner.search",
                 "parallel.controller.plan"):
        assert rep["scopes"][name]["calls"] >= 1, name
    memo = rep["caches"]["engine.plan_memo"]
    assert memo == {"hits": 1, "misses": 1, "hit_rate": 0.5}
    # One grid pass per strategy search, never one pricing per candidate.
    searches = rep["scopes"]["planner.search_fixed"]["calls"]
    assert searches >= 1
    assert rep["scopes"]["planner.score_grid"]["calls"] == searches


# -- zero-overhead / zero-effect contract -----------------------------------


def _serving_doc():
    from repro.baselines import ZeroInferenceEngine
    from repro.hardware import single_a100
    from repro.models import get_model
    from repro.serving import ServingSimulator, compute_metrics
    from tests.traces import replay_trace

    trace = replay_trace(
        [(0.0, 16, 4), (0.3, 16, 8), (0.8, 16, 4)], name="obs-identity"
    )
    result = ServingSimulator(
        engine=ZeroInferenceEngine(single_a100()),
        model=get_model("opt-1.3b"),
        trace=trace,
    ).run()
    return json.dumps(compute_metrics(result), sort_keys=True)


def test_observability_disabled_vs_enabled_output_is_byte_identical():
    """Recording must never change the thing being recorded: the serving
    metrics document with profiling enabled is byte-for-byte the one the
    disabled (default, PR 3 baseline) path produces."""
    assert not PROFILER.enabled
    baseline = _serving_doc()
    with profiling_enabled() as p:
        profiled = _serving_doc()
        assert p.report()["counts"]["serving.steps.decode"] > 0
    assert baseline == profiled
    assert _serving_doc() == baseline  # and disabling again restores nothing


def test_metrics_registry_view_matches_document():
    from repro.baselines import ZeroInferenceEngine
    from repro.hardware import single_a100
    from repro.models import get_model
    from repro.serving import ServingSimulator, compute_metrics, metrics_registry
    from tests.traces import replay_trace

    trace = replay_trace([(0.0, 16, 4), (0.5, 16, 4)], name="reg")
    result = ServingSimulator(
        engine=ZeroInferenceEngine(single_a100()),
        model=get_model("opt-1.3b"),
        trace=trace,
    ).run()
    doc = compute_metrics(result)
    reg = metrics_registry(result)
    series = reg.to_dict()["series"]
    assert series["requests.finished"]["value"] == doc["requests"]["finished"]
    assert series["steps.decode"]["value"] == doc["steps"]["decode"]
    assert series["latency.ttft_s"]["p50"] == doc["latency_s"]["ttft"]["p50"]
    assert series["makespan_s"]["value"] == doc["makespan_s"]
    # Registry JSON itself is deterministic.
    assert reg.to_json() == metrics_registry(result).to_json()


# -- drift audit ------------------------------------------------------------


def test_audit_quick_passes_and_is_deterministic():
    from repro.obs.audit import run_audit

    p1 = run_audit(quick=True)
    p2 = run_audit(quick=True)
    assert json.dumps(p1, sort_keys=True) == json.dumps(p2, sort_keys=True)
    assert p1["summary"]["ok"]
    assert p1["summary"]["num_cases"] == len(p1["cases"]) >= 3
    for record in p1["cases"]:
        ss = record["steady_state"]
        assert ss["rel_err"] <= p1["tolerance"]
        assert ss["dominant_term"] in ("h2d", "d2h", "compute")
        # Literal Eq. 2 is optimistic (or exact) vs the grouped model.
        assert ss["literal_eq2_optimism"] >= -1e-12


def test_audit_gate_fails_on_tiny_tolerance():
    from repro.obs.audit import run_audit

    payload = run_audit(tolerance=1e-18, quick=True)
    assert not payload["summary"]["ok"]
    assert payload["summary"]["over_tolerance"]


def test_audit_full_includes_generation_checks():
    from repro.obs.audit import run_audit

    payload = run_audit(quick=False)
    assert payload["summary"]["ok"]
    full = [r for r in payload["cases"] if "full_generation" in r]
    assert len(full) == len(payload["cases"])
    for record in full:
        assert record["full_generation"]["rel_err"] <= payload["e2e_tolerance"]


def test_audit_metrics_section_counts_cases():
    from repro.obs.audit import run_audit

    payload = run_audit(quick=True)
    series = payload["metrics"]["series"]
    assert series["audit.cases"]["value"] == payload["summary"]["num_cases"]
    assert series["audit.steady_state.rel_err"]["count"] == (
        payload["summary"]["num_cases"]
    )


# -- time series ------------------------------------------------------------


def test_timeseries_points_chronological_and_summary():
    reg = MetricsRegistry()
    ts = reg.timeseries("curve.x")
    for i in range(5):
        ts.sample(float(i), float(i) * 2.0)
    assert reg.timeseries("curve.x") is ts  # get-or-create
    assert ts.count == 5 and ts.dropped == 0
    assert ts.points() == [(float(i), float(i) * 2.0) for i in range(5)]
    doc = ts.to_dict()
    assert doc["type"] == "timeseries"
    assert doc["first_t_s"] == 0.0 and doc["last_t_s"] == 4.0
    assert doc["min"] == 0.0 and doc["max"] == 8.0 and doc["last"] == 8.0
    assert doc["points"] == [[float(i), float(i) * 2.0] for i in range(5)]


def test_timeseries_ring_evicts_oldest_and_counts_drops():
    reg = MetricsRegistry()
    ts = reg.timeseries("curve.ring", capacity=4)
    for i in range(7):
        ts.sample(float(i), float(i))
    assert ts.count == 4 and ts.dropped == 3
    # Chronological order survives the wraparound.
    assert ts.points() == [(float(i), float(i)) for i in (3, 4, 5, 6)]
    doc = ts.to_dict()
    assert doc["dropped"] == 3 and doc["first_t_s"] == 3.0
    # Capacity binds at creation only; a later different value is ignored.
    assert reg.timeseries("curve.ring", capacity=999).capacity == 4


def test_timeseries_rejects_nonpositive_capacity_and_type_conflicts():
    reg = MetricsRegistry()
    with pytest.raises(ValueError):
        reg.timeseries("bad", capacity=0)
    reg.counter("c")
    with pytest.raises(TypeError):
        reg.timeseries("c")
    reg.timeseries("t")
    with pytest.raises(TypeError):
        reg.histogram("t")


def test_timeseries_empty_to_dict_has_no_point_keys():
    ts = MetricsRegistry().timeseries("curve.empty")
    assert ts.to_dict() == {
        "type": "timeseries", "count": 0, "capacity": 4096, "dropped": 0,
    }


def test_registry_merge_adopts_by_reference_and_rejects_collisions():
    a = MetricsRegistry(namespace="a")
    b = MetricsRegistry(namespace="b")
    ts = b.timeseries("curve.q")
    ts.sample(0.0, 1.0)
    b.counter("other").inc()
    a.counter("reqs").inc(2)
    a.merge(b)
    assert a.timeseries("curve.q") is ts  # adopted, not copied
    assert json.loads(a.to_json())["series"].keys() == {
        "curve.q", "other", "reqs",
    }
    c = MetricsRegistry()
    c.gauge("reqs").set(1.0)
    with pytest.raises(ValueError):
        a.merge(c)


def test_timeseries_export_chrome_one_row_per_point():
    from repro.trace import ChromeTraceBuilder

    reg = MetricsRegistry()
    ts = reg.timeseries("curve.depth")
    for t, v in ((0.5, 1.0), (1.5, 3.0), (2.5, 2.0)):
        ts.sample(t, v)
    b = ChromeTraceBuilder()
    reg.export_chrome(b)
    counters = [
        e for e in json.loads(b.to_json())["traceEvents"] if e["ph"] == "C"
    ]
    assert len(counters) == 3
    assert [(e["ts"], e["args"]["value"]) for e in counters] == [
        (int(0.5e6), 1.0), (int(1.5e6), 3.0), (int(2.5e6), 2.0),
    ]


# -- per-step curve sampling (structurally inert when off) ------------------


def test_serving_timeseries_collection_is_structurally_inert():
    """The acceptance contract: the serving comparison payload is
    byte-identical with per-step sampling on and off."""
    from repro.bench.serving import run_serving_comparison

    docs = {}
    for collect in (False, True):
        payload, results = run_serving_comparison(
            engines=("zero-inference",), quick=True,
            collect_timeseries=collect,
        )
        docs[collect] = json.dumps(payload, sort_keys=True)
        ts = results["zero-inference"].timeseries
        assert (ts is not None) is collect
    assert docs[False] == docs[True]


def test_serving_simulator_samples_per_step_curves():
    from repro.bench.serving import simulate_engine
    from repro.serving import default_trace
    from repro.serving.metrics import metrics_registry

    result = simulate_engine(
        "zero-inference", "opt-1.3b", default_trace(quick=True),
        collect_timeseries=True,
    )
    reg = result.timeseries
    curves = {
        name: reg.timeseries(name)
        for name in (
            "curve.queue_waiting", "curve.in_system", "curve.step_s",
            "curve.batch", "curve.rung",
        )
    }
    counts = {name: ts.count for name, ts in curves.items()}
    assert len(set(counts.values())) == 1  # one sample per loop event, each
    assert counts["curve.step_s"] == len(result.queue_depth) > 0
    for ts in curves.values():
        times = [t for t, _ in ts.points()]
        assert times == sorted(times)
    assert all(v == 0.0 for _, v in curves["curve.rung"].points())  # no chaos
    assert max(v for _, v in curves["curve.batch"].points()) >= 1.0
    # The aggregate view folds the curves in alongside the scalar series.
    merged = metrics_registry(result).to_dict()["series"]
    assert "curve.step_s" in merged and "queue.waiting" in merged


def test_decode_loop_sampling_inert_and_curves_match_trace():
    from repro.runtime.pipeline import DecodeLoop
    from repro.runtime.tasks import TaskCosts

    costs = TaskCosts(0.01, 0.002, 0.001, 0.002, 0.001, 0.02)
    gen_len = 6
    bare = DecodeLoop(num_layers=3, num_gpu_batches=2).run(
        costs, lambda t: costs, gen_len
    )
    reg = MetricsRegistry()
    sampled = DecodeLoop(num_layers=3, num_gpu_batches=2, metrics=reg).run(
        costs, lambda t: costs, gen_len
    )
    assert sampled == bare  # structurally inert
    prefill = reg.timeseries("curve.prefill_s")
    tokens = reg.timeseries("curve.token_s")
    assert prefill.count == 1
    assert prefill.points()[0] == (
        sampled.prefill_seconds, sampled.prefill_seconds
    )
    assert tokens.count == gen_len - 1
    token_s = [v for _, v in tokens.points()]
    assert token_s == list(sampled.per_token_seconds)
    assert sum(token_s) == pytest.approx(sampled.decode_seconds)


def test_controller_samples_search_landscape(topo, contention):
    from repro.parallel.controller import ParallelismController
    from repro.runtime.graph import build_attention_graph

    kwargs = dict(
        topology=topo, contention=contention,
        io_volumes={"load_weight": 30e6, "load_activation": 1e5},
    )
    graph = build_attention_graph(4)
    bare = ParallelismController(**kwargs).plan(graph)
    reg = MetricsRegistry()
    plan = ParallelismController(**kwargs, metrics=reg).plan(graph)
    assert plan == bare  # structurally inert
    steps = reg.timeseries("curve.search.step_s")
    compute = reg.timeseries("curve.search.compute_s")
    assert steps.count == compute.count > 1
    # The landscape's floor is exactly the chosen plan's step time, at the
    # chosen intra width.
    best_t, best_v = min(steps.points(), key=lambda p: (p[1], p[0]))
    assert best_v == plan.predicted_step_seconds
    assert best_t == float(plan.compute.intra_op)


def test_bench_timing_registry_records_distribution_and_trajectory(
    quick_bench_timing,
):
    reg = quick_bench_timing.registry
    payload = quick_bench_timing.payload
    for label, repeats in (("plan", 2), ("breakdown", 20)):
        hist = reg.histogram(f"timing.{label}.wall_s")
        traj = reg.timeseries(f"timing.{label}.trajectory")
        assert hist.count == traj.count == repeats
        assert [t for t, _ in traj.points()] == [float(i) for i in range(repeats)]
        assert [v for _, v in traj.points()] == hist.values  # same samples, both views
        assert payload["targets"][label]["best_s"] == min(hist.values)
    assert "timing.tab3.wall_s" not in json.loads(reg.to_json())["series"]


# -- fault-aware drift audit ------------------------------------------------


def test_faulted_audit_deterministic_and_within_tolerance():
    from repro.faults.scenarios import SCENARIOS
    from repro.obs.audit import run_audit

    p1 = run_audit(quick=True, faults=True)
    p2 = run_audit(quick=True, faults=True)
    assert json.dumps(p1, sort_keys=True) == json.dumps(p2, sort_keys=True)
    faulted = p1["faulted"]
    assert faulted["tolerance"] == p1["fault_tolerance"]
    summary = faulted["summary"]
    assert summary["ok"] and not summary["over_tolerance"]
    assert summary["num_scenarios"] == len(SCENARIOS)
    assert tuple(s["scenario"] for s in faulted["scenarios"]) == tuple(SCENARIOS)
    assert summary["max_rel_err"] <= p1["fault_tolerance"]
    assert summary["dominant_fault"] in summary["by_fault_kind"]


def test_faulted_audit_window_accounting():
    from repro.obs.audit import faulted_rows, run_audit

    payload = run_audit(quick=True, faults=True)
    faulted = payload["faulted"]
    case_names = [c["name"] for c in payload["cases"]]
    for scenario in faulted["scenarios"]:
        windows = scenario["windows"]
        assert scenario["num_unique_windows"] == len(windows)
        assert scenario["num_windows"] == sum(
            w["window"]["occurrences"] for w in windows
        ) >= len(windows)
        assert 0 <= scenario["worst_window"] < len(windows)
        for w in windows:
            assert [c["name"] for c in w["cases"]] == case_names
            assert w["window"]["start_s"] < w["window"]["end_s"]
            assert w["window"]["kinds"]
            assert w["max_rel_err"] == max(
                c["steady_state"]["rel_err"] for c in w["cases"]
            )
    priced = sum(
        len(w["cases"]) for s in faulted["scenarios"] for w in s["windows"]
    )
    assert faulted["summary"]["num_cases_priced"] == priced
    assert len(faulted_rows(payload)) == sum(
        s["num_unique_windows"] for s in faulted["scenarios"]
    )
    # The sweep's own telemetry lands in the shared metrics section.
    series = payload["metrics"]["series"]
    assert series["audit.faulted.rel_err"]["count"] == priced


def test_faulted_audit_gate_fails_on_tiny_tolerance():
    from repro.obs.audit import run_audit

    payload = run_audit(quick=True, faults=True, fault_tolerance=1e-18)
    assert payload["summary"]["ok"]  # the base gate is untouched
    assert not payload["faulted"]["summary"]["ok"]
    assert payload["faulted"]["summary"]["over_tolerance"]


def test_audit_without_faults_stays_clean_of_fault_keys():
    """Zero-fault byte-identity, schema half: the default audit document
    carries no fault keys and no ``audit.faulted.*`` series, so the
    pre-existing artifact contract is untouched."""
    from repro.obs.audit import run_audit

    payload = run_audit(quick=True)
    assert "faulted" not in payload and "fault_tolerance" not in payload
    assert not [
        name for name in payload["metrics"]["series"]
        if name.startswith("audit.faulted.")
    ]
