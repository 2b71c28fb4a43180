import json

import pytest

from repro.errors import ScheduleError
from repro.runtime.tasks import TaskCosts
from repro.trace import ChromeTraceBuilder, trace_decode_schedule


def test_builder_slices_and_metadata():
    b = ChromeTraceBuilder()
    b.add_slice("load_weight t0", "h2d", 0.0, 0.001)
    b.add_slice("compute t0", "compute", 0.001, 0.002, token=0)
    assert b.num_slices == 2
    doc = json.loads(b.to_json())
    events = doc["traceEvents"]
    xs = [e for e in events if e["ph"] == "X"]
    assert xs[0]["ts"] == 0.0
    assert xs[0]["dur"] == pytest.approx(1000.0)  # 1 ms in us
    # Thread-name metadata precedes slices for each resource row.
    meta = [e for e in events if e["ph"] == "M"]
    assert {m["args"]["name"] for m in meta} == {"h2d", "compute"}


def test_builder_rejects_negative_duration():
    with pytest.raises(ScheduleError):
        ChromeTraceBuilder().add_slice("x", "h2d", 0.0, -1.0)


def test_trace_decode_schedule_counts():
    costs = TaskCosts(load_weight=0.001, load_cache=0.0005, compute=0.002,
                      store_cache=0.0003)
    builder = trace_decode_schedule([costs, costs], num_layers=3, num_gpu_batches=2)
    # 4 nonzero tasks x 2 tokens x 3 layers x 2 batches.
    assert builder.num_slices == 4 * 2 * 3 * 2


def test_trace_skips_zero_cost_tasks():
    costs = TaskCosts(compute=0.001)
    builder = trace_decode_schedule([costs], num_layers=1, num_gpu_batches=1)
    assert builder.num_slices == 1


def test_trace_slices_never_overlap_per_resource():
    costs = TaskCosts(load_weight=0.002, load_cache=0.001, compute=0.004)
    builder = trace_decode_schedule([costs] * 3, num_layers=2, num_gpu_batches=2)
    doc = json.loads(builder.to_json())
    by_tid: dict[int, list] = {}
    for e in doc["traceEvents"]:
        if e["ph"] == "X":
            by_tid.setdefault(e["tid"], []).append((e["ts"], e["ts"] + e["dur"]))
    for intervals in by_tid.values():
        intervals.sort()
        for (s1, e1), (s2, _) in zip(intervals, intervals[1:]):
            assert s2 >= e1 - 1e-6  # FIFO resources: no overlap


def test_trace_save(tmp_path):
    builder = trace_decode_schedule(
        [TaskCosts(compute=0.001)], num_layers=1, num_gpu_batches=1
    )
    path = tmp_path / "trace.json"
    builder.save(str(path))
    doc = json.loads(path.read_text())
    assert doc["displayTimeUnit"] == "ms"


def test_trace_invalid_geometry():
    with pytest.raises(ScheduleError):
        trace_decode_schedule([TaskCosts()], num_layers=0, num_gpu_batches=1)


# -- serving timeline export (instant/counter events, tid stability) --------


def _serving_result():
    from repro.baselines import ZeroInferenceEngine
    from repro.hardware import single_a100
    from repro.models import get_model
    from repro.serving import ServingSimulator
    from tests.traces import replay_trace

    trace = replay_trace(
        [(0.0, 16, 4), (0.5, 16, 8), (1.0, 16, 4)], name="timeline"
    )
    sim = ServingSimulator(
        engine=ZeroInferenceEngine(single_a100()),
        model=get_model("opt-1.3b"),
        trace=trace,
    )
    return sim.run()


def test_instant_and_counter_events_follow_trace_event_format():
    b = ChromeTraceBuilder()
    b.add_instant("arrive r0", "requests", 0.5, prompt=16)
    b.add_counter("queue", 0.5, waiting=2, running=1)
    events = json.loads(b.to_json())["traceEvents"]
    inst = next(e for e in events if e["ph"] == "i")
    assert inst["ts"] == pytest.approx(0.5e6)  # seconds in, microseconds out
    assert inst["s"] == "t" and "tid" in inst and "pid" in inst
    ctr = next(e for e in events if e["ph"] == "C")
    assert ctr["args"] == {"waiting": 2, "running": 1}


def test_resource_tid_mapping_is_stable():
    b = ChromeTraceBuilder()
    b.add_slice("a", "gpu", 0.0, 0.001)
    b.add_instant("m", "requests", 0.0)
    b.add_slice("b", "gpu", 0.002, 0.001)
    b.add_instant("n", "requests", 0.003)
    events = json.loads(b.to_json())["traceEvents"]
    tids = {}
    for e in events:
        if e["ph"] == "M":
            tids[e["args"]["name"]] = e["tid"]
    xs = [e for e in events if e["ph"] == "X"]
    assert {e["tid"] for e in xs} == {tids["gpu"]}
    instants = [e for e in events if e["ph"] == "i"]
    assert {e["tid"] for e in instants} == {tids["requests"]}


def test_tid_assignment_is_independent_of_emission_order():
    """tids are a function of which resources appear, not who logged
    first: canonical ordering puts h2d < d2h < compute regardless of the
    order slices were added."""

    def build(order):
        b = ChromeTraceBuilder()
        for res in order:
            b.add_slice(f"task {res}", res, 0.0, 0.001)
        return b

    forward = build(["h2d", "d2h", "compute"])
    backward = build(["compute", "d2h", "h2d"])
    assert forward.resource_tids() == backward.resource_tids()
    assert forward.resource_tids() == {"h2d": 0, "d2h": 1, "compute": 2}
    # Unlisted resources number after the canonical rows, alphabetically.
    b = build(["zebra", "compute", "alpha"])
    assert b.resource_tids() == {"compute": 0, "alpha": 1, "zebra": 2}


def test_counter_events_carry_explicit_tid():
    b = ChromeTraceBuilder()
    b.add_counter("queue", 0.0, waiting=1)  # default "counters" resource
    b.add_counter("reqs", 0.0, resource="metrics", value=3.0)
    events = json.loads(b.to_json())["traceEvents"]
    tids = {e["args"]["name"]: e["tid"] for e in events if e["ph"] == "M"}
    counters = {e["name"]: e for e in events if e["ph"] == "C"}
    assert counters["queue"]["tid"] == tids["counters"]
    assert counters["reqs"]["tid"] == tids["metrics"]


def test_metadata_rows_precede_all_events():
    b = ChromeTraceBuilder()
    b.add_slice("a", "compute", 0.0, 0.001)
    b.add_counter("c", 0.0)
    b.add_slice("b", "h2d", 0.0, 0.001)
    events = json.loads(b.to_json())["traceEvents"]
    phases = [e["ph"] for e in events]
    n_meta = phases.count("M")
    assert n_meta == 3  # compute, h2d, counters
    assert all(ph == "M" for ph in phases[:n_meta])
    assert all(ph != "M" for ph in phases[n_meta:])
    # Metadata rows come out in tid order.
    meta_tids = [e["tid"] for e in events[:n_meta]]
    assert meta_tids == sorted(meta_tids)


def test_request_timeline_export_is_valid_and_monotonic():
    from repro.serving import export_request_timeline

    result = _serving_result()
    builder = export_request_timeline(result)
    doc = json.loads(builder.to_json())
    events = doc["traceEvents"]
    # Every event carries the required Trace Event Format keys.
    for e in events:
        assert {"name", "ph", "pid"} <= set(e)
        assert e["ph"] in {"X", "M", "i", "C"}
        if e["ph"] != "M":
            assert e["ts"] >= 0
    # GPU slices are emitted in step order: monotonic start times per tid.
    xs = [e for e in events if e["ph"] == "X"]
    starts = [e["ts"] for e in xs]
    assert starts == sorted(starts)
    # One slice per step; one counter sample per depth sample.
    assert len(xs) == len(result.steps)
    assert sum(1 for e in events if e["ph"] == "C") == len(result.queue_depth)
    # Lifecycle instants cover every finished request's full arc.
    names = {e["name"] for e in events if e["ph"] == "i"}
    for req in result.requests:
        assert f"arrive r{req.rid}" in names
        assert f"finish r{req.rid}" in names
