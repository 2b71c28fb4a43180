"""Perf-regression harness for the planner/cost-model hot path.

The analytic cost model is the product here — ``plan()`` is called inside
sweeps (Tab. 3 runs it for every engine/model/batch cell), so its wall
time gates every experiment.  This module times the hot entry points
on fixed workloads and writes ``BENCH_timing.json`` so a perf
regression shows up as a number, not a feeling:

* ``plan``      — ``LMOffloadEngine.plan`` on OPT-30B (s=64, n=32,
  bsz=64, k=10), fresh engine per repeat so no cross-repeat cache
  (contention memo, plan cache) flatters the result;
* ``breakdown`` — ``CostModel`` construction + ``breakdown()`` for the
  policy ``plan`` chooses on that workload;
* ``tab3``      — ``run_tab3_overall()``, the heaviest experiment sweep;
* ``serve_sim`` — the event-driven serving simulator on a large seeded
  Poisson trace (OPT-1.3B on ZeRO-Inference, ~100k requests at
  near-saturation; a ~5k-request slice in ``--quick``), reporting
  ``sim_steps_per_s`` and ``requests_per_s_of_simulation`` alongside the
  wall times;
* ``fleet_sim`` — the fleet bench on the uniform-6 preset (six identical
  LM-Offload replicas, OPT-30B): the fault-free run plus the
  replica-crash run, the ``fleet-sim --quick`` trace in ``--quick``;
* ``chaos`` — the quick chaos matrix (every engine x every fault
  scenario): ``run_chaos(quick=True)`` in ``--quick``, and the document
  ``chaos --quick --drift-gate --serving-drift-gate`` writes otherwise.

Every repeat starts from empty process-wide plan and curve caches
(:data:`~repro.core.plan_cache.PLAN_CACHE`,
:data:`~repro.core.plan_cache.CURVE_CACHE`), so each target times a cold
run, as its pinned baseline did.

``BASELINES`` pins the pre-optimization medians (measured on the same
container this harness first shipped from) so ``speedup_vs_baseline``
reports how much the vectorized cost path + planner caching bought.
The ``serve_sim`` baselines are the pre-rewrite per-step engine
(``ServingSimulator._run_reference``) on the identical trace/config,
measured the same way — quick and full workloads each pin their own.
The ``fleet_sim`` baselines are the same calls with per-engine plan
memos, before engines shared one plan cache.  The ``chaos`` baselines
are the same calls with the planner scoring one candidate at a time,
before it priced each strategy's placement grid in one array pass.

Run it with ``python -m repro bench-timing [--quick] [--output PATH]``.
"""

from __future__ import annotations

import statistics
import time
from typing import Any, Callable

from repro.obs.registry import Histogram, MetricsRegistry
from repro.util import write_json

SCHEMA_VERSION = 1

#: Pre-optimization medians (seconds) of each target, measured at the
#: commit right before the vectorized cost path landed, same workloads,
#: same methodology.  These are *reference points*, not assertions — CI
#: machines differ; the JSON records the ratio for humans to eyeball.
BASELINES: dict[str, float] = {
    "plan": 0.712,
    "breakdown": 9.35e-4,
    "tab3": 12.52,
    "serve_sim": 18.92,
    "serve_sim_quick": 0.397,
    "fleet_sim": 75.06,
    "fleet_sim_quick": 13.17,
    "chaos": 13.87,
    "chaos_quick": 12.70,
}


def _bench_workload():
    from repro.models import get_model
    from repro.perfmodel import Workload

    return Workload(get_model("opt-30b"), 64, 32, 64, 10)


def _serve_sim_case(quick: bool):
    """The serve-sim timing workload: a seeded near-saturation Poisson
    trace (arrival rate ~= the batch-64 decode service rate, so the
    queue stays busy without pegging) and a fresh simulator per repeat
    (fresh engine too — no plan/price caches carry across repeats).

    Returns ``(trace, build)`` where ``build()`` constructs the
    simulator; the same trace/config pair is what the pinned
    ``serve_sim`` / ``serve_sim_quick`` baselines were measured on.
    """
    from repro.baselines import make_engine
    from repro.models import get_model
    from repro.serving import (
        LengthSampler,
        ServingConfig,
        ServingSimulator,
        make_policy,
        poisson_trace,
    )

    lengths = LengthSampler(prompt_mean=64, gen_mean=32, max_len=256)
    trace = poisson_trace(
        25.0, 200.0 if quick else 4000.0, seed=42, lengths=lengths,
        name="bench-serve-sim",
    )
    config = ServingConfig(max_batch=64, queue_capacity=4096)
    model = get_model("opt-1.3b")

    def build() -> ServingSimulator:
        return ServingSimulator(
            make_engine("zero-inference"), model, trace,
            policy=make_policy("fcfs"), config=config,
            collect_steps=False,
        )

    return trace, build


def _cold(fn: Callable[[], Any]) -> Callable[[], Any]:
    """``fn`` behind emptied process-wide plan and curve caches, so no
    plan or schedule computed by an earlier repeat is reused."""
    from repro.core.plan_cache import CURVE_CACHE, PLAN_CACHE

    def run() -> Any:
        PLAN_CACHE.clear()
        CURVE_CACHE.clear()
        return fn()

    return run


def time_callable(
    fn: Callable[[], Any],
    repeats: int,
    warmup: int = 1,
    registry: MetricsRegistry | None = None,
    label: str = "",
) -> dict[str, Any]:
    """Median/best wall time of ``fn`` over ``repeats`` calls.

    Samples accumulate in an :class:`~repro.obs.registry.Histogram`
    (the registry's raw-sample series type); the median stays
    ``statistics.median`` — interpolating, unlike the histogram's
    nearest-rank percentiles — so ``BASELINES`` comparisons keep their
    original semantics.

    When a ``registry`` and ``label`` are given, the samples also land in
    it: the distribution under ``timing.<label>.wall_s`` and, so warm-up
    drift is visible, a ``timing.<label>.trajectory`` time series keyed by
    repeat index (the harness's virtual clock — nothing else about the
    run is time-shaped).  The registry's *structure* is deterministic;
    the recorded values are wall clock by definition.
    """
    for _ in range(warmup):
        fn()
    hist = Histogram(name="wall_s")
    trajectory = None
    if registry is not None and label:
        hist = registry.histogram(f"timing.{label}.wall_s")
        trajectory = registry.timeseries(f"timing.{label}.trajectory")
    for i in range(repeats):
        t0 = time.perf_counter()
        fn()
        elapsed = time.perf_counter() - t0
        hist.observe(elapsed)
        if trajectory is not None:
            trajectory.sample(float(i), elapsed)
    return {
        "median_s": statistics.median(hist.values),
        "best_s": min(hist.values),
        "mean_s": hist.mean,
        "repeats": repeats,
    }


def _with_baseline(name: str, result: dict[str, Any]) -> dict[str, Any]:
    baseline = BASELINES[name]
    result["baseline_median_s"] = baseline
    result["speedup_vs_baseline"] = baseline / result["median_s"]
    return result


def run_bench_timing(
    quick: bool = False, registry: MetricsRegistry | None = None
) -> dict[str, Any]:
    """Time the hot entry points; returns the ``BENCH_timing.json`` payload.

    ``quick`` trims repeat counts and skips the tab3 sweep — the CI smoke
    configuration (verifies the harness runs, not the speedup).  Passing a
    ``registry`` additionally records every raw sample (see
    :func:`time_callable`) for ``--metrics-out``.
    """
    from repro.bench.chaos import run_chaos
    from repro.bench.fleet import run_fleet_bench
    from repro.core import LMOffloadEngine
    from repro.hardware import single_a100
    from repro.perfmodel import CostModel

    workload = _bench_workload()
    results: dict[str, Any] = {}

    def fresh_plan():
        # A fresh engine per repeat: the engine-lifetime caches (speedup
        # memo) must not carry over, or repeat 2+
        # would measure cache hits instead of a cold plan().
        LMOffloadEngine(single_a100()).plan(workload)

    results["plan"] = _with_baseline(
        "plan",
        time_callable(
            _cold(fresh_plan), repeats=2 if quick else 5,
            registry=registry, label="plan",
        ),
    )

    engine = LMOffloadEngine(single_a100())
    policy, ctx, _ = engine.plan(workload)

    def construct_and_breakdown():
        CostModel(
            workload, policy, engine.hw, ctx, engine.config.calibration
        ).breakdown()

    results["breakdown"] = _with_baseline(
        "breakdown",
        time_callable(
            construct_and_breakdown, repeats=20 if quick else 100,
            registry=registry, label="breakdown",
        ),
    )

    if not quick:
        from repro.bench.experiments import run_tab3_overall

        results["tab3"] = _with_baseline(
            "tab3",
            time_callable(
                run_tab3_overall, repeats=1, warmup=0,
                registry=registry, label="tab3",
            ),
        )

    trace, build_sim = _serve_sim_case(quick)
    last_run: dict[str, Any] = {}

    def serve_sim():
        last_run["result"] = build_sim().run()

    serve_result = time_callable(
        _cold(serve_sim), repeats=1 if quick else 3, warmup=0 if quick else 1,
        registry=registry, label="serve_sim",
    )
    # The simulation is deterministic, so the step count is the same on
    # every repeat; derive the throughput figures from the median wall.
    agg = last_run["result"].aggregates
    sim_steps = sum(agg.step_counts.values())
    serve_result["sim_requests"] = len(trace.requests)
    serve_result["sim_steps"] = sim_steps
    serve_result["sim_steps_per_s"] = sim_steps / serve_result["median_s"]
    serve_result["requests_per_s_of_simulation"] = (
        len(trace.requests) / serve_result["median_s"]
    )
    results["serve_sim"] = _with_baseline(
        "serve_sim_quick" if quick else "serve_sim", serve_result
    )

    def fleet_sim():
        run_fleet_bench(
            presets=("uniform-6",), scenarios=("replica-crash",), quick=quick
        )

    results["fleet_sim"] = _with_baseline(
        "fleet_sim_quick" if quick else "fleet_sim",
        time_callable(
            _cold(fleet_sim), repeats=1 if quick else 3,
            warmup=0 if quick else 1, registry=registry, label="fleet_sim",
        ),
    )

    def chaos():
        run_chaos(quick=True, drift_gate=not quick, serving_drift_gate=not quick)

    results["chaos"] = _with_baseline(
        "chaos_quick" if quick else "chaos",
        time_callable(
            _cold(chaos), repeats=1 if quick else 3,
            warmup=0 if quick else 1, registry=registry, label="chaos",
        ),
    )

    return {
        "schema_version": SCHEMA_VERSION,
        "quick": quick,
        "workload": workload.describe(),
        "policy": policy.describe(),
        "targets": results,
    }


def write_bench_timing(
    path: str = "BENCH_timing.json",
    quick: bool = False,
    registry: MetricsRegistry | None = None,
) -> dict[str, Any]:
    """Run the harness and write the payload to ``path``."""
    payload = run_bench_timing(quick=quick, registry=registry)
    write_json(path, payload)
    return payload
