"""Serving simulator: determinism, scheduling invariants, drop accounting."""

import json

import pytest

from repro.baselines import ZeroInferenceEngine
from repro.hardware import single_a100
from repro.models import get_model
from repro.perfmodel import CostModel
from repro.serving import (
    DropReason,
    RequestState,
    ServingConfig,
    ServingSimulator,
    StepCostOracle,
    compute_metrics,
    default_trace,
    make_policy,
)
from repro.obs.registry import exact_nearest_rank
from repro.units import GB
from tests import reference_costs as ref
from tests.traces import replay_trace


@pytest.fixture(scope="module")
def engine():
    # ZeRO-Inference plans instantly (no LP search), which keeps the
    # behavioural tests fast; the CLI test exercises the full engine set.
    return ZeroInferenceEngine(single_a100())


@pytest.fixture(scope="module")
def model():
    return get_model("opt-1.3b")


def simulate(engine, model, trace, scheduler="fcfs", **cfg):
    sim = ServingSimulator(
        engine=engine,
        model=model,
        trace=trace,
        policy=make_policy(scheduler),
        config=ServingConfig(**cfg),
    )
    return sim.run()


# -- determinism -----------------------------------------------------------


def test_same_trace_byte_identical_metrics(engine, model):
    trace = default_trace(quick=True, seed=0)
    m1 = compute_metrics(simulate(engine, model, trace))
    m2 = compute_metrics(simulate(engine, model, trace))
    assert json.dumps(m1, sort_keys=True) == json.dumps(m2, sort_keys=True)


def test_different_seed_different_metrics(engine, model):
    m1 = compute_metrics(simulate(engine, model, default_trace(quick=True, seed=0)))
    m2 = compute_metrics(simulate(engine, model, default_trace(quick=True, seed=1)))
    assert m1 != m2


# -- scheduling invariants -------------------------------------------------


def batch_one_trace():
    """Four same-instant arrivals with distinct generation lengths."""
    return replay_trace(
        [(0.0, 16, 32), (0.0, 16, 4), (0.0, 16, 16), (0.0, 16, 8)],
        name="batch-one",
    )


def finish_order(result):
    done = [r for r in result.requests if r.state is RequestState.FINISHED]
    return [r.rid for r in sorted(done, key=lambda r: r.finish_s)]


def test_fcfs_runs_in_arrival_order(engine, model):
    result = simulate(engine, model, batch_one_trace(), "fcfs", max_batch=1)
    assert finish_order(result) == [0, 1, 2, 3]


def test_sjf_runs_shortest_first(engine, model):
    result = simulate(engine, model, batch_one_trace(), "sjf", max_batch=1)
    assert finish_order(result) == [1, 3, 2, 0]


def test_sjf_never_worse_mean_latency(engine, model):
    """SJF minimises mean completion time on a single server — the classic
    scheduling-theory invariant, here paid in performance-model seconds."""
    trace = batch_one_trace()
    fcfs = simulate(engine, model, trace, "fcfs", max_batch=1)
    sjf = simulate(engine, model, trace, "sjf", max_batch=1)

    def mean_e2e(result):
        vals = [r.e2e_s for r in result.requests if r.e2e_s is not None]
        return sum(vals) / len(vals)

    assert mean_e2e(sjf) <= mean_e2e(fcfs)


def test_priority_preemption_at_token_boundary(engine, model):
    trace = replay_trace(
        [(0.0, 16, 64, 0), (0.1, 16, 4, 1)], name="preempt"
    )
    result = simulate(
        engine, model, trace, "priority-preempt", max_batch=1
    )
    low, high = result.requests
    assert low.state is RequestState.FINISHED
    assert high.state is RequestState.FINISHED
    assert low.preemptions == 1
    assert high.finish_s < low.finish_s
    metrics = compute_metrics(result)
    assert metrics["requests"]["preemptions"] == 1


def test_non_preemptive_priority_does_not_evict(engine, model):
    trace = replay_trace(
        [(0.0, 16, 64, 0), (0.1, 16, 4, 1)], name="no-preempt"
    )
    result = simulate(engine, model, trace, "priority", max_batch=1)
    low, high = result.requests
    assert low.preemptions == 0
    assert low.finish_s < high.finish_s  # ran to completion first


# -- admission control and drops -------------------------------------------


def test_queue_full_drops_are_accounted(engine, model):
    trace = replay_trace(
        [(0.0, 16, 4)] * 6, name="overflow"
    )
    result = simulate(
        engine, model, trace, max_batch=1, queue_capacity=2
    )
    metrics = compute_metrics(result)
    assert metrics["requests"]["finished"] == 2
    assert metrics["requests"]["drop_reasons"] == {"queue_full": 4}
    dropped = [r for r in result.requests if r.state is RequestState.DROPPED]
    assert all(r.drop_reason is DropReason.QUEUE_FULL for r in dropped)


def test_timeout_drops_unstarted_requests(engine, model):
    trace = replay_trace(
        [(0.0, 16, 32), (0.0, 16, 32)], name="timeout"
    )
    result = simulate(
        engine, model, trace, max_batch=1, queue_timeout_s=1e-6
    )
    first, second = result.requests
    assert first.state is RequestState.FINISHED
    assert second.state is RequestState.DROPPED
    assert second.drop_reason is DropReason.TIMEOUT
    assert compute_metrics(result)["requests"]["drop_reasons"] == {"timeout": 1}


def test_infeasible_lone_request_dropped_not_wedged(engine, model):
    trace = replay_trace([(0.0, 16, 4)], name="infeasible")
    sim = ServingSimulator(engine=engine, model=model, trace=trace)
    sim.oracle.feasible = lambda n, ctx: False  # force memory rejection
    result = sim.run()
    (req,) = result.requests
    assert req.state is RequestState.DROPPED
    assert req.drop_reason is DropReason.INFEASIBLE


# -- metrics ----------------------------------------------------------------


def test_nearest_rank_percentiles():
    vals = [4.0, 1.0, 3.0, 2.0]
    assert exact_nearest_rank(vals, 50) == 2.0
    assert exact_nearest_rank(vals, 99) == 4.0
    assert exact_nearest_rank(vals, 100) == 4.0
    assert exact_nearest_rank([], 50) == 0.0


def test_goodput_consistency(engine, model):
    result = simulate(engine, model, default_trace(quick=True, seed=0))
    metrics = compute_metrics(result)
    slo_ok = round(metrics["slo"]["goodput_rps"] * metrics["makespan_s"])
    assert 0 <= slo_ok <= metrics["requests"]["finished"]
    assert 0.0 <= metrics["slo"]["attainment"] <= 1.0
    assert metrics["steps"]["prefill"] >= 1
    assert metrics["steps"]["decode"] >= 1


def test_ttft_counts_queueing(engine, model):
    """The second same-instant arrival's TTFT includes waiting for the
    first one's service when only one slot exists."""
    trace = replay_trace([(0.0, 16, 8), (0.0, 16, 8)], name="wait")
    result = simulate(engine, model, trace, max_batch=1)
    first, second = result.requests
    assert second.ttft_s > first.ttft_s


# -- the cost oracle -------------------------------------------------------


def test_oracle_buckets_and_memoizes(engine, model):
    oracle = StepCostOracle(engine=engine, model=model, ctx_bucket=32)
    assert oracle.planned(2) is oracle.planned(2)  # per-level plan memo
    # Same bucket -> identical cached price; larger context costs no less.
    assert oracle.decode_step_seconds(2, 33) == oracle.decode_step_seconds(2, 64)
    assert oracle.decode_step_seconds(2, 512) >= oracle.decode_step_seconds(2, 32)
    with pytest.raises(Exception):
        oracle.planned(0)


def test_oracle_feasibility_monotone_in_batch(engine, model):
    oracle = StepCostOracle(engine=engine, model=model)
    # opt-1.3b easily fits one to four sequences.
    assert all(oracle.feasible(n, 64) for n in range(1, 5))


def test_oracle_feasibility_matches_memory_formula(model):
    """Across the host-capacity edge, each admission verdict is the
    scalar peak-byte formula on the bucketed price workload."""
    engine = ZeroInferenceEngine(single_a100(host_memory=2 * GB))
    hw = engine.hw
    oracle = StepCostOracle(engine=engine, model=model)
    limit = 8
    formula_verdicts = set()
    for ctx_len in (32, 100, 500, 1000, 2000, 3000, 5000, 8000, 12000):
        for n in range(1, limit + 1):
            planned = oracle.planned(n)
            assert planned is not None  # the planning context fits them all
            policy, cpu_ctx = planned
            price = CostModel(
                oracle._price_workload(policy, oracle._bucket_ctx(ctx_len)),
                policy, hw, cpu_ctx,
            )
            expected = (
                ref.gpu_bytes_required(price) <= hw.gpu_mem_capacity
                and ref.cpu_bytes_required(price) <= hw.cpu_mem_capacity
            )
            assert oracle.feasible(n, ctx_len) is expected, (n, ctx_len)
            formula_verdicts.add(expected)
    assert formula_verdicts == {True, False}
