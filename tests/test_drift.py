"""The shared drift pricer: window dedupe, steady-state pricing and the
tolerance gate every model-vs-runtime check rolls up through."""

import math

import pytest

from repro.errors import ConfigError
from repro.faults import (
    FaultKind,
    FaultSchedule,
    FaultSpec,
    make_scenario,
    zero_schedule,
)
from repro.faults.overlay import capability_windows, fault_signature
from repro.obs.drift import DEFAULT_TOLERANCE, DriftGate, price_windows, steady_state


@pytest.mark.parametrize("scenario", ["flaky-pcie", "multi-fault", "pcie-degrade"])
def test_price_windows_prices_once_per_distinct_signature(scenario):
    sched = make_scenario(scenario, horizon_s=100.0, seed=0)
    raw = capability_windows(sched)
    calls: list[float] = []

    def price(t):
        calls.append(t)
        return {"t": t}

    records = price_windows(sched, price)
    signatures = []
    for _, _, active in raw:
        if fault_signature(active) not in signatures:
            signatures.append(fault_signature(active))
    assert len(calls) == len(records) == len(signatures)
    # Every window is tallied exactly once, on its signature's record.
    assert sum(r["window"]["occurrences"] for r in records) == len(raw)
    # Each distinct regime is priced at the midpoint of its first window.
    firsts = [
        next((a, b, act) for a, b, act in raw if fault_signature(act) == sig)
        for sig in signatures
    ]
    for record, (a, b, active) in zip(records, firsts):
        assert record["t"] == (a + b) / 2.0
        assert record["window"] == {
            "start_s": a,
            "end_s": b,
            "occurrences": record["window"]["occurrences"],
            "kinds": sorted({f.kind.value for f in active}),
        }
        assert list(record) == ["window", "t"]


def test_price_windows_skips_transient_only_schedules():
    storm = FaultSchedule(
        "storm", (FaultSpec(FaultKind.TRANSIENT_ERROR, 10.0, 20.0, 0.5),)
    )
    for sched in (storm, zero_schedule()):
        assert price_windows(sched, lambda t: pytest.fail("priced")) == []


def test_steady_state_matches_executor_on_a_planned_model():
    from repro.core import LMOffloadEngine
    from repro.hardware import single_a100
    from repro.models import get_model
    from repro.perfmodel.notation import Workload

    engine = LMOffloadEngine(single_a100())
    model = engine.planned_cost_model(Workload(get_model("opt-1.3b"), 64, 32, 8, 1))
    record, costs = steady_state(model)
    assert list(record) == ["predicted_s", "simulated_s", "rel_err"]
    assert record["predicted_s"] > 0 and record["simulated_s"] > 0
    assert record["rel_err"] < 1e-9
    assert costs == model.decode_task_costs(15)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, -0.1])
def test_gate_rejects_bad_tolerance(bad):
    with pytest.raises(ConfigError, match="fault_tolerance"):
        DriftGate(bad, "fault_tolerance")


def test_gate_rollup():
    assert DriftGate(0.0).ok
    empty = DriftGate(DEFAULT_TOLERANCE).summary()
    assert empty == {
        "max_rel_err": 0.0,
        "worst": None,
        "mean_rel_err": 0.0,
        "over_tolerance": [],
        "ok": True,
    }
    gate = DriftGate(0.1)
    for ref, err in [("b", 0.3), ("a", 0.05), ("c", 0.3), ("d", 0.1)]:
        gate.add(ref, err)
    summary = gate.summary()
    # Exact ties on the worst error resolve to the greatest ref.
    assert summary["worst"] == "c"
    assert summary["max_rel_err"] == 0.3
    assert summary["mean_rel_err"] == pytest.approx(0.1875)
    # Strictly greater than the tolerance fails; the refs come out sorted.
    assert summary["over_tolerance"] == ["b", "c"]
    assert not summary["ok"] and not gate.ok
