"""The process-wide plan cache: key completeness, sharing, LRU bound and
cache-on/off identity of whole simulations."""

import dataclasses
import json

import pytest

from repro.baselines import FlexGenEngine, SpecOffloadEngine, ZeroInferenceEngine
from repro.core import EngineConfig, LMOffloadEngine
from repro.core.plan_cache import PLAN_CACHE, PlanCache
from repro.faults import LADDER, FaultKind, FaultSpec, degraded_platform, make_scenario
from repro.hardware import single_a100
from repro.models import get_model
from repro.obs import profiling_enabled
from repro.perfmodel import Workload
from repro.perfmodel.constants import EngineCalibration
from repro.serving import (
    FleetSimulator,
    ServingConfig,
    ServingSimulator,
    compute_fleet_metrics,
    compute_metrics,
    make_fleet,
    make_fleet_scenario,
    make_policy,
    poisson_trace,
)
from repro.serving.fleet import FleetConfig


@pytest.fixture(scope="module")
def model():
    return get_model("opt-1.3b")


@pytest.fixture(scope="module")
def workload(model):
    return Workload(model, 64, 8, 8, 2)


def _pcie_degraded(base):
    return degraded_platform(
        base, [FaultSpec(FaultKind.PCIE_DEGRADE, 0.0, 1e9, 0.5)], 1.0
    )


def _smt_changed(base):
    """The same machine with SMT off: only the CPU spec differs (the
    Table 2 rates do not read the SMT width)."""
    cpu = dataclasses.replace(base.cpu, smt=1)
    devices = {**base.devices, cpu.name: cpu}
    return dataclasses.replace(base, devices=devices)


def _cache_changed(base):
    return dataclasses.replace(
        base, cache=dataclasses.replace(base.cache, llc_bytes=base.cache.llc_bytes / 2)
    )


def _lookups(prof):
    """(misses, hits) of the plan cache in a profiler report."""
    memo = prof.report()["caches"].get("engine.plan_memo", {})
    return memo.get("misses", 0), memo.get("hits", 0)


def _with_rung(engine):
    engine.set_degradation(LADDER[2])
    return engine


# Each pair differs from its reference engine in exactly one key part.
KEY_PARTS = {
    "engine-type": (
        lambda: LMOffloadEngine(single_a100()),
        lambda: SpecOffloadEngine(single_a100()),
    ),
    "engine-config": (
        lambda: LMOffloadEngine(single_a100()),
        lambda: LMOffloadEngine(
            single_a100(), config=EngineConfig(parallelism_control=False)
        ),
    ),
    "calibration": (
        lambda: FlexGenEngine(single_a100()),
        lambda: FlexGenEngine(
            single_a100(), calibration=EngineCalibration.ideal_kernels()
        ),
    ),
    "zero-max-batch": (
        lambda: ZeroInferenceEngine(single_a100()),
        lambda: ZeroInferenceEngine(single_a100(), max_batch=32),
    ),
    "pcie-degraded-hw": (
        lambda: LMOffloadEngine(single_a100()),
        lambda: LMOffloadEngine(_pcie_degraded(single_a100())),
    ),
    "cpu-spec": (
        lambda: LMOffloadEngine(single_a100()),
        lambda: LMOffloadEngine(_smt_changed(single_a100())),
    ),
    "cache-spec": (
        lambda: LMOffloadEngine(single_a100()),
        lambda: LMOffloadEngine(_cache_changed(single_a100())),
    ),
    "rung": (
        lambda: LMOffloadEngine(single_a100()),
        lambda: _with_rung(LMOffloadEngine(single_a100())),
    ),
}


@pytest.mark.parametrize("part", sorted(KEY_PARTS))
def test_engines_differing_in_one_key_part_do_not_share(part, workload):
    make_ref, make_other = KEY_PARTS[part]
    ref, other = make_ref(), make_other()
    if part == "cpu-spec":
        assert other.hw == ref.hw and other.platform.cpu != ref.platform.cpu
    with profiling_enabled() as prof:
        ref.plan_cached(workload)
        other.plan_cached(workload)
    assert _lookups(prof) == (2, 0) and len(PLAN_CACHE) == 2


@pytest.mark.parametrize(
    "make", [LMOffloadEngine, FlexGenEngine, ZeroInferenceEngine],
    ids=lambda cls: cls.__name__,
)
def test_identical_engines_share_one_entry(make, workload):
    one, two = make(single_a100()), make(single_a100())
    with profiling_enabled() as prof:
        assert two.plan_cached(workload) is one.plan_cached(workload)
    assert _lookups(prof) == (1, 1) and len(PLAN_CACHE) == 1


def test_retarget_round_trip_hits(workload):
    """base -> degraded -> base searches twice, not three times: the
    return to known specs finds the first plan."""
    base = single_a100()
    engine = LMOffloadEngine(base)
    with profiling_enabled() as prof:
        first = engine.plan_cached(workload)
        engine.retarget(_pcie_degraded(base))
        degraded = engine.plan_cached(workload)
        engine.retarget(base)
        assert engine.plan_cached(workload) is first
    assert degraded is not first
    assert _lookups(prof) == (2, 1)


def test_rung_round_trip_hits(workload):
    engine = LMOffloadEngine(single_a100())
    with profiling_enabled() as prof:
        first = engine.plan_cached(workload)
        engine.set_degradation(LADDER[3])
        engine.plan_cached(workload)
        engine.set_degradation(None)
        assert engine.plan_cached(workload) is first
    assert _lookups(prof) == (2, 1)


def test_lru_bound_evicts_least_recent_and_counts():
    cache = PlanCache(maxsize=2)
    calls = []

    def planner(key):
        return lambda: calls.append(key) or (key,)

    with profiling_enabled() as prof:
        cache.get("a", planner("a"))
        cache.get("b", planner("b"))
        cache.get("a", planner("a"))      # hit: "a" becomes most recent
        cache.get("c", planner("c"))      # evicts "b"
        cache.get("a", planner("a"))      # still cached
        cache.get("b", planner("b"))      # searched again, evicts "c"
    assert calls == ["a", "b", "c", "b"] and len(cache) == 2
    assert _lookups(prof) == (4, 2)
    assert prof.report()["counts"]["engine.plan_memo.evictions"] == 2


def test_failed_plan_is_not_cached():
    cache = PlanCache()
    calls = []

    def boom():
        calls.append(1)
        raise RuntimeError("no feasible policy")

    for _ in range(2):
        with pytest.raises(RuntimeError):
            cache.get("k", boom)
    assert len(calls) == 2 and len(cache) == 0


def test_zero_bound_stores_nothing(monkeypatch, workload):
    monkeypatch.setattr(PLAN_CACHE, "maxsize", 0)
    engine = LMOffloadEngine(single_a100())
    with profiling_enabled() as prof:
        assert engine.plan_cached(workload) is not engine.plan_cached(workload)
    assert _lookups(prof) == (2, 0) and len(PLAN_CACHE) == 0


# -- cache on == cache off ---------------------------------------------------


def _fleet_run():
    """A uniform LM-Offload fleet whose replicas crash mid-run."""
    trace = poisson_trace(rate=2.4, horizon_s=4.0, seed=3)
    config = FleetConfig(serving=ServingConfig(max_batch=3))

    def run(faults=None):
        return FleetSimulator(
            make_fleet("uniform-6"), get_model("opt-30b"), trace,
            policy=make_policy("fcfs"), config=config, faults=faults, seed=0,
            collect_steps=False,
        ).run()

    faults = make_fleet_scenario(
        "replica-crash", run().makespan_s, ("d0", "d1", "d2"), 0
    )

    def doc():
        result = run(faults)
        assert result.stats.crash_events > 0
        return json.dumps(compute_fleet_metrics(result), sort_keys=True)

    return doc


def _chaos_run():
    """One LM-Offload replica under the multi-fault scenario."""
    trace = poisson_trace(rate=8.0, horizon_s=1.0, seed=0)

    def run(faults=None):
        return ServingSimulator(
            LMOffloadEngine(single_a100()), get_model("opt-1.3b"), trace,
            policy=make_policy("fcfs"), config=ServingConfig(max_batch=4),
            faults=faults, seed=0, collect_steps=False,
        ).run()

    faults = make_scenario("multi-fault", run().makespan_s, 0)

    def doc():
        result = run(faults)
        assert result.fault_stats.replans
        return json.dumps(compute_metrics(result), sort_keys=True)

    return doc


@pytest.mark.parametrize("setup", [_fleet_run, _chaos_run], ids=["fleet", "chaos"])
def test_cache_off_run_is_byte_identical(setup, monkeypatch):
    doc = setup()
    PLAN_CACHE.clear()
    with profiling_enabled() as prof:
        on = doc()
    assert _lookups(prof)[1] > 0
    PLAN_CACHE.clear()
    monkeypatch.setattr(PLAN_CACHE, "maxsize", 0)
    with profiling_enabled() as prof:
        off = doc()
    assert _lookups(prof)[1] == 0 and len(PLAN_CACHE) == 0
    assert off == on
