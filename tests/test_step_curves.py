"""The exported ``curve.*`` time series == the live per-step sampler.

:func:`~repro.serving.metrics.metrics_registry` derives the five serving
curves (waiting queue, requests in system, step price, batch, ladder
rung) from a run's step record.  The serving loop used to sample them
live instead, through a registry that also forced the per-step loop.
:func:`reference_curves` keeps that sampler as the reference: it wraps
:meth:`~repro.serving.kernel.ReplicaKernel.emit` under
:meth:`~repro.serving.simulator.ServingSimulator._run_reference` and
records, after every step, the clock, the queue and batch lengths, the
step's ``end - start``, its batch and the engine's rung.  Each run below
must export exactly the series that sampler records, point for point
and bit for bit: the quick trace on every engine and scheduler, a long
timeout-bound trace whose coalesced runs overflow the ring buffers,
every bundled chaos scenario, and the host-memory ladder runs.
"""

import json
from unittest.mock import patch

import pytest

from repro.baselines import make_engine
from repro.faults import (
    LADDER,
    SCENARIOS,
    FaultKind,
    FaultSchedule,
    FaultSpec,
    make_scenario,
)
from repro.models import get_model
from repro.obs.registry import MetricsRegistry
from repro.serving import (
    ServingConfig,
    ServingSimulator,
    default_trace,
    make_policy,
    metrics_registry,
    poisson_trace,
)
from repro.serving.kernel import ReplicaKernel
from tests.test_chaos_serving import LADDER_RUNS

CURVES = (
    "curve.queue_waiting", "curve.in_system", "curve.step_s",
    "curve.batch", "curve.rung",
)
ENGINES = ("lm-offload", "flexgen", "zero-inference")


def reference_curves(sim: ServingSimulator) -> MetricsRegistry:
    """Run ``sim``'s per-step loop, sampling every curve at each step."""
    reg = MetricsRegistry(namespace="serving")
    engine = sim.engine
    emit = ReplicaKernel.emit

    def sampled(kern, kind, start, end, dur, count, batch, max_ctx, rids,
                running_after):
        emit(kern, kind, start, end, dur, count, batch, max_ctx, rids,
             running_after)
        t = kern.t
        rung = engine._degradation
        reg.timeseries("curve.queue_waiting").sample(t, float(len(kern.queue)))
        reg.timeseries("curve.in_system").sample(
            t, float(len(kern.queue) + len(kern.running))
        )
        reg.timeseries("curve.step_s").sample(t, end - start)
        reg.timeseries("curve.batch").sample(t, float(batch))
        reg.timeseries("curve.rung").sample(
            t, 0.0 if rung is None else float(LADDER.index(rung))
        )

    with patch.object(ReplicaKernel, "emit", sampled):
        sim._run_reference()
    return reg


def assert_curves_match(sim: ServingSimulator) -> dict:
    """The run's exported curves equal the reference sampler's; returns
    the exported curve documents."""
    want = reference_curves(sim).to_dict()["series"]
    got = metrics_registry(sim.run()).to_dict()["series"]
    curves = {name: doc for name, doc in got.items() if name.startswith("curve.")}
    assert sorted(curves) == sorted(want) == sorted(CURVES)
    assert json.dumps(curves, sort_keys=True) == json.dumps(want, sort_keys=True)
    return curves


def simulator(engine_name, trace, model="opt-30b", scheduler="fcfs",
              config=None, faults=None):
    return ServingSimulator(
        engine=make_engine(engine_name),
        model=get_model(model),
        trace=trace,
        policy=make_policy(scheduler),
        config=config or ServingConfig(),
        faults=faults,
        seed=0,
    )


@pytest.mark.parametrize("scheduler", ["fcfs", "sjf", "priority-preempt"])
@pytest.mark.parametrize("engine_name", ENGINES)
def test_quick_trace_curves_equal_the_live_sampler(engine_name, scheduler):
    curves = assert_curves_match(
        simulator(engine_name, default_trace(quick=True, seed=0),
                  scheduler=scheduler)
    )
    assert curves["curve.rung"]["max"] == 0.0  # no chaos


def test_coalesced_timeout_run_curves_equal_the_live_sampler():
    """A long run whose decode runs coalesce and whose queue times out:
    the expanded record reproduces every per-step point, and the rings
    evict the same points the live sampler's did."""
    sim = simulator(
        "zero-inference", poisson_trace(12.0, 600.0, seed=0), model="opt-1.3b",
        config=ServingConfig(queue_timeout_s=20.0),
    )
    result = sim.run()
    assert any(run.count > 1 for run in result.step_runs)
    assert len(result.queue_depth) > 4096
    curves = assert_curves_match(sim)
    assert all(doc["dropped"] == len(result.queue_depth) - 4096
               for doc in curves.values())


@pytest.mark.parametrize("scenario", list(SCENARIOS))
@pytest.mark.parametrize("engine_name", ENGINES)
def test_chaos_scenario_curves_equal_the_live_sampler(engine_name, scenario):
    trace = default_trace(quick=True, seed=0)
    baseline = simulator(engine_name, trace).run().makespan_s
    assert_curves_match(
        simulator(engine_name, trace,
                  faults=make_scenario(scenario, baseline, 0))
    )


#: The rungs a step of each ladder run executes on.  Where backpressure
#: sheds every running request, no step runs until the recovery.
LADDER_RUNGS = {
    ("flexgen", 0.999): {0.0},
    ("zero-inference", 0.999): {0.0, 4.0},
    ("zero-inference", 0.99): {0.0, 3.0},
    ("lm-offload", 0.9999): {0.0},
}


@pytest.mark.parametrize("engine_name,severity", list(LADDER_RUNS))
def test_ladder_run_rung_curve_equals_the_live_sampler(engine_name, severity):
    shrink = FaultSchedule(
        name="host-shrink",
        faults=(FaultSpec(FaultKind.HOST_MEM_SHRINK, 5.0, 10.0, severity),),
    )
    curves = assert_curves_match(
        simulator(engine_name, default_trace(quick=True, seed=0), faults=shrink)
    )
    rungs = {v for _, v in curves["curve.rung"]["points"]}
    assert rungs == LADDER_RUNGS[engine_name, severity]
