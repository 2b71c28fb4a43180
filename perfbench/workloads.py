"""The four perfbench workloads.

Each workload turns a seed into inputs, builds the system under test,
makes one timed call into ``repro`` and summarises the result.  The
summary carries the output document whose sha256 is the correctness
digest, the number of operations, invariant violations, and the counts
the per-layer report reads from result objects rather than from spans.

A repetition costs a few seconds, and its cost must not depend on the
seed.  Planning dominates the two fault workloads, and an engine plans
once per (platform, concurrency level) its oracle meets between
invalidations, so both are shaped to meet the same pairs at every seed:
fleet replicas run at their batch cap, and the chaos batch is admitted
before the faults begin and completes after they end.
"""

from __future__ import annotations

import hashlib
import json
import random
import time
from dataclasses import dataclass, field, replace
from typing import Any, Callable

from repro.baselines import FlexGenEngine, ZeroInferenceEngine
from repro.bench import paper_data
from repro.bench.fleet import default_fleet_config
from repro.core import LMOffloadEngine
from repro.faults import make_scenario
from repro.hardware import single_a100
from repro.models import get_model
from repro.perfmodel import Workload as PlanWorkload
from repro.serving import (
    FleetSimulator,
    LengthSampler,
    RequestTrace,
    ServingConfig,
    ServingSimulator,
    compute_fleet_metrics,
    compute_metrics,
    make_fleet,
    make_fleet_scenario,
    make_policy,
    mmpp_trace,
    poisson_trace,
)

TAB3_MODELS = ("opt-30b", "opt-66b", "llama-30b", "llama-65b")
TAB3_GEN_LENS = (8, 16, 32, 64, 128)
TAB3_ENGINES = ("flexgen", "zero-inference", "lm-offload")

LENGTHS = LengthSampler(prompt_mean=64, gen_mean=32, max_len=256)

#: chaos-multi is an offline batch: seeded prompt lengths, the fixed
#: generation length of the paper's runs, and every request submitted
#: within a fraction of a second.  The engine admits it in two groups,
#: and each group finishes at a single step.
CHAOS_REQUESTS = 8
CHAOS_LENGTHS = LengthSampler(prompt_mean=64, gen_mean=32, gen_cv=0.0, max_len=256)
#: Multi-fault windows cover [0.2, 0.9] of this horizon: after the batch
#: is admitted (~5.5 s) and before it completes (~110 s).
CHAOS_HORIZON_S = 80.0
#: Enough requests queue on each replica that all of them reach the cap.
#: Hedging stays off: a crash can strand a cancelled hedge clone in
#: transit, and ``FleetSimulator`` then fails when it finishes.
FLEET_REQUESTS, FLEET_MAX_BATCH = 36, 3
#: The fault-free makespan of the seed-0 fleet trace.
FLEET_HORIZON_S = 211.17015325144754


@dataclass
class Summary:
    """What one repetition produced, beyond its timings."""

    ops: int
    outputs: Any
    problems: list[str] = field(default_factory=list)
    counters: dict[str, float] = field(default_factory=dict)
    #: Seconds of each ``engine.run`` call (plan-sweep only).
    cell_s: list[float] = field(default_factory=list)

    @property
    def digest(self) -> str:
        text = json.dumps(self.outputs, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(text.encode()).hexdigest()


@dataclass(frozen=True)
class BenchWorkload:
    """One workload: ``inputs(seed, small)`` -> ``build(inputs)`` ->
    the timed ``run(state)`` -> ``summarize(inputs, result)``.

    ``attempted(inputs)`` is the number of operations the run attempts,
    known before the timed call so a raising call still counts them.
    ``small`` shrinks the input for fast tests."""

    name: str
    inputs: Callable[[int, bool], Any]
    build: Callable[[Any], Any]
    run: Callable[[Any], Any]
    summarize: Callable[[Any, Any], Summary]
    attempted: Callable[[Any], int]


# -- plan-sweep ---------------------------------------------------------------


def _sweep_inputs(seed: int, small: bool) -> list[tuple[str, int, str]]:
    """The Tab. 3 cells in a seeded order.  Every engine's plan is
    independent of what it planned before, so the order changes no
    output and the digest is the same for every seed."""
    cells = [
        (m, n, e) for m in TAB3_MODELS for n in TAB3_GEN_LENS for e in TAB3_ENGINES
    ]
    if small:
        cells = [c for c in cells if c[0] == "opt-30b" and c[1] == 8]
    random.Random(seed).shuffle(cells)
    return cells


def _sweep_build(cells: list[tuple[str, int, str]]) -> tuple:
    # One engine of each kind per model, as run_tab3_overall builds them.
    engines = {
        m: {
            "flexgen": FlexGenEngine(single_a100()),
            "zero-inference": ZeroInferenceEngine(single_a100()),
            "lm-offload": LMOffloadEngine(single_a100()),
        }
        for m in sorted({c[0] for c in cells})
    }
    return cells, engines


def _sweep_run(state: tuple) -> tuple[dict, list[float]]:
    """Every cell's ``engine.run``, each call timed on its own."""
    cells, engines = state
    reports: dict[tuple[str, int, str], Any] = {}
    cell_s: list[float] = []
    for m, n, e in cells:
        ref = paper_data.TAB3[m][n]
        b, k = paper_data.bls_split(ref["flexgen"][0])
        workload = PlanWorkload(get_model(m), 64, n, b, k)
        t0 = time.perf_counter()
        if e == "zero-inference":
            rep = engines[m][e].run(workload, batch=ref[e][0])
        else:
            rep = engines[m][e].run(workload)
        cell_s.append(time.perf_counter() - t0)
        reports[(m, n, e)] = rep
    return reports, cell_s


def tab3_rows(reports: dict) -> list[dict[str, Any]]:
    """The rows ``repro.bench.experiments.run_tab3_overall`` returns, in
    its order, built from the swept reports."""
    rows = []
    for m in TAB3_MODELS:
        for n in TAB3_GEN_LENS:
            if (m, n, "lm-offload") not in reports:
                continue
            lm = reports[(m, n, "lm-offload")]
            for e in TAB3_ENGINES:
                rep = reports[(m, n, e)]
                row = rep.table_row()
                row["model"] = m
                row["paper_tput"] = paper_data.TAB3[m][n][e][1]
                row["norm_tput"] = round(rep.normalized_to(lm), 2)
                rows.append(row)
    return rows


def _sweep_summarize(cells: list, result: tuple) -> Summary:
    reports, cell_s = result
    return Summary(ops=len(reports), outputs=tab3_rows(reports), cell_s=cell_s)


# -- serving workloads --------------------------------------------------------


def first_requests(trace: RequestTrace, n: int, name: str) -> RequestTrace:
    """The first ``n`` arrivals of ``trace`` (which must hold more)."""
    if len(trace) <= n:
        raise ValueError(f"{trace.name} has {len(trace)} requests, need > {n}")
    return RequestTrace(
        name=name, requests=trace.requests[:n], horizon_s=trace.requests[n].arrival_s
    )


def _serving_summary(trace: RequestTrace, result: Any, metrics: dict) -> Summary:
    terminal = len(result.finished) + len(result.dropped)
    problems = []
    if terminal != len(trace):
        problems.append(f"{terminal} terminal requests of {len(trace)}")
    return Summary(ops=terminal, outputs=metrics, problems=problems)


def _fault_counts(stats_list: list) -> dict[str, float]:
    stats = [s for s in stats_list if s is not None]
    return {
        "faults.aborts": sum(len(s.aborts) for s in stats),
        "faults.backoffs": sum(len(s.backoffs) for s in stats),
        "faults.replans": sum(len(s.replans) for s in stats),
    }


def _steady_inputs(seed: int, small: bool) -> RequestTrace:
    return poisson_trace(
        12.0, 60.0 if small else 3000.0, seed=seed, lengths=LENGTHS,
        name="perfbench-serve-steady",
    )


def _steady_build(trace: RequestTrace) -> ServingSimulator:
    return ServingSimulator(
        ZeroInferenceEngine(single_a100()), get_model("opt-1.3b"), trace,
        policy=make_policy("fcfs"),
        config=ServingConfig(max_batch=64, queue_capacity=4096),
        collect_steps=False,
    )


def _single_summarize(trace: RequestTrace, result: Any) -> Summary:
    summary = _serving_summary(trace, result, compute_metrics(result))
    summary.counters = {
        "loop.steps": sum(result.aggregates.step_counts.values()),
        **_fault_counts([result.fault_stats]),
    }
    return summary


def _chaos_inputs(seed: int, small: bool) -> tuple[RequestTrace, Any, int]:
    n = 4 if small else CHAOS_REQUESTS
    trace = first_requests(
        poisson_trace(100.0, 1.0, seed=seed, lengths=CHAOS_LENGTHS),
        n, f"perfbench-chaos-n{n}",
    )
    return trace, make_scenario("multi-fault", CHAOS_HORIZON_S, seed), seed


def _chaos_build(inputs: tuple) -> ServingSimulator:
    trace, schedule, seed = inputs
    return ServingSimulator(
        LMOffloadEngine(single_a100()), get_model("opt-30b"), trace,
        policy=make_policy("fcfs"), config=ServingConfig(),
        faults=schedule, seed=seed, collect_steps=False,
    )


def _fleet_inputs(seed: int, small: bool) -> tuple[RequestTrace, Any, int]:
    n = 10 if small else FLEET_REQUESTS
    # The arrival rates of repro.bench.fleet.fleet_trace for six replicas.
    trace = first_requests(
        mmpp_trace(1.8, 4.8, 120.0, seed=seed, lengths=LENGTHS),
        n, f"perfbench-fleet-n{n}",
    )
    schedule = make_fleet_scenario(
        "replica-crash", FLEET_HORIZON_S, ("d0", "d1", "d2"), seed
    )
    return trace, schedule, seed


def _fleet_build(inputs: tuple) -> FleetSimulator:
    trace, schedule, seed = inputs
    return FleetSimulator(
        make_fleet("uniform-6"), get_model("opt-30b"), trace,
        policy=make_policy("fcfs"),
        config=replace(
            default_fleet_config(),
            serving=ServingConfig(max_batch=FLEET_MAX_BATCH),
            hedge_after_s=None,
        ),
        faults=schedule, seed=seed, collect_steps=False,
    )


def _fleet_summarize(inputs: tuple, result: Any) -> Summary:
    trace = inputs[0]
    summary = _serving_summary(trace, result, compute_fleet_metrics(result))
    if not result.accounting()["ok"]:
        summary.problems.append("fleet accounting does not balance")
    stats = result.stats
    summary.counters = {
        "loop.steps": sum(
            sum(r.serving.aggregates.step_counts.values()) for r in result.replicas
        ),
        **_fault_counts([r.serving.fault_stats for r in result.replicas]),
        "router.placements": stats.placements,
        "router.migrations": stats.migrations,
        "router.crash_events": stats.crash_events,
    }
    return summary


def _run_sim(sim: Any) -> Any:
    return sim.run()


WORKLOADS: dict[str, BenchWorkload] = {
    w.name: w
    for w in (
        BenchWorkload(
            "plan-sweep", _sweep_inputs, _sweep_build, _sweep_run,
            _sweep_summarize, len,
        ),
        BenchWorkload(
            "serve-steady", _steady_inputs, _steady_build, _run_sim,
            _single_summarize, len,
        ),
        BenchWorkload(
            "chaos-multi", _chaos_inputs, _chaos_build, _run_sim,
            lambda inputs, result: _single_summarize(inputs[0], result),
            lambda inputs: len(inputs[0]),
        ),
        BenchWorkload(
            "fleet-crash", _fleet_inputs, _fleet_build, _run_sim,
            _fleet_summarize, lambda inputs: len(inputs[0]),
        ),
    )
}
