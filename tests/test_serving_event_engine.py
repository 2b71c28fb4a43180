"""Event-engine equivalence: the run-length simulator vs the legacy loop.

The rewrite's contract is *byte identity*: the event-driven engine
(``run()``) must produce exactly the result the per-step reference
(``_run_reference()``) produces — same expanded ``StepRecord`` sequence,
same queue-depth samples, same serialized metrics document — on every
seeded trace x policy x fault configuration.  These tests are the gate.
"""

import json
import math
import random
from collections import Counter
from types import SimpleNamespace

import numpy as np
import pytest

from repro.baselines import ZeroInferenceEngine
from repro.faults import SCENARIOS, make_scenario
from repro.hardware import single_a100
from repro.models import get_model
from repro.serving import (
    AdmissionQueue,
    LengthSampler,
    RequestState,
    ServingConfig,
    ServingSimulator,
    StepCostOracle,
    compute_metrics,
    make_policy,
    mmpp_trace,
    poisson_trace,
)
from repro.serving.kernel import ReplicaKernel
from repro.serving.request import Request, RequestSpec
from tests import reference_costs as ref
from tests.reference_queue import ScanQueue
from tests.traces import replay_trace


@pytest.fixture(scope="module")
def engine():
    return ZeroInferenceEngine(single_a100())


@pytest.fixture(scope="module")
def model():
    return get_model("opt-1.3b")


LENGTHS = LengthSampler(prompt_mean=64, gen_mean=32, max_len=256)


def _trace(kind: str):
    if kind == "poisson":
        return poisson_trace(
            2.0, 30.0, seed=7, lengths=LENGTHS, priority_levels=3, name="eq-p"
        )
    if kind == "mmpp":
        return mmpp_trace(
            0.5, 6.0, 30.0, seed=11, lengths=LENGTHS, priority_levels=3,
            name="eq-m",
        )
    return replay_trace(
        [(0.0, 32, 48, 2), (0.0, 16, 8, 1), (0.4, 64, 32, 3), (0.4, 16, 4, 1),
         (2.5, 48, 64, 2), (9.0, 16, 16, 1), (9.0, 16, 2, 3)],
        name="eq-r",
    )


def _assert_equivalent(sim: ServingSimulator):
    fast = sim.run()
    ref = sim._run_reference()
    assert fast.steps == ref.steps
    assert fast.queue_depth == ref.queue_depth
    assert fast.makespan_s == ref.makespan_s
    assert json.dumps(compute_metrics(fast), sort_keys=True) == json.dumps(
        compute_metrics(ref), sort_keys=True
    )
    return fast, ref


# -- zero-fault matrix -----------------------------------------------------


@pytest.mark.parametrize("trace_kind", ["poisson", "mmpp", "replay"])
@pytest.mark.parametrize(
    "scheduler", ["fcfs", "sjf", "priority", "priority-preempt"]
)
@pytest.mark.parametrize("timeout", [None, 5.0])
def test_matrix_zero_fault(engine, model, trace_kind, scheduler, timeout):
    sim = ServingSimulator(
        engine=engine,
        model=model,
        trace=_trace(trace_kind),
        policy=make_policy(scheduler),
        config=ServingConfig(
            max_batch=8, queue_capacity=16, queue_timeout_s=timeout
        ),
    )
    _assert_equivalent(sim)


def test_decode_runs_actually_coalesce(engine, model):
    """The fast engine must emit at least one multi-step run on a batchy
    trace (otherwise these equivalence tests prove nothing about the
    run-length path) and its expansion must be the legacy sequence."""
    trace = replay_trace(
        [(0.0, 16, 40), (0.0, 16, 40), (0.0, 16, 24), (30.0, 16, 12)],
        name="coalesce",
    )
    sim = ServingSimulator(
        engine=engine, model=model, trace=trace,
        policy=make_policy("fcfs"), config=ServingConfig(max_batch=4),
    )
    fast, ref = _assert_equivalent(sim)
    coalesced = [run for run in fast.step_runs if run.count > 1]
    assert coalesced, "no run-length advance happened on a batchy trace"
    for run in coalesced:
        records = run.expand()
        assert len(records) == run.count
        # Clock continuity and one-token context growth within the run.
        for a, b in zip(records, records[1:]):
            assert b.start_s == a.end_s
            assert b.max_ctx == a.max_ctx + 1


# -- chaos matrix ----------------------------------------------------------


@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_matrix_chaos(engine, model, scenario):
    trace = _trace("poisson")
    sim = ServingSimulator(
        engine=engine,
        model=model,
        trace=trace,
        policy=make_policy("fcfs"),
        config=ServingConfig(
            max_batch=8, queue_capacity=16, queue_timeout_s=8.0,
            request_deadline_s=60.0,
        ),
        faults=make_scenario(scenario, trace.horizon_s, seed=5),
        seed=5,
    )
    fast, ref = _assert_equivalent(sim)
    assert fast.fault_stats is not None
    assert fast.fault_stats.to_dict(fast.makespan_s) == ref.fault_stats.to_dict(
        ref.makespan_s
    )


# -- collect_steps opt-out -------------------------------------------------


@pytest.mark.parametrize("seed", [0, 3, 9])
def test_collect_steps_off_is_byte_identical(engine, model, seed):
    trace = poisson_trace(3.0, 20.0, seed=seed, lengths=LENGTHS, name="cs")

    def run(collect):
        return ServingSimulator(
            engine=engine, model=model, trace=trace,
            policy=make_policy("sjf"),
            config=ServingConfig(max_batch=8, queue_capacity=16),
            collect_steps=collect,
        ).run()

    on, off = run(True), run(False)
    assert json.dumps(compute_metrics(on), sort_keys=True) == json.dumps(
        compute_metrics(off), sort_keys=True
    )
    assert off.step_runs == [] and off.steps == [] and off.queue_depth == []
    assert on.step_runs and on.steps


# -- vectorized oracle pricing ---------------------------------------------


def test_vectorized_decode_prices_match_scalar_exactly(engine, model):
    oracle = StepCostOracle(
        engine=engine, model=model, plan_prompt_len=256, plan_gen_len=128
    )
    for n in (1, 2, 7, 32):
        for ctx in (1, 31, 32, 33, 128, 300, 384):
            assert oracle.decode_step_seconds(n, ctx) == ref.oracle_decode_step_seconds(
                oracle, n, ctx
            )


def test_scalar_oracle_mode_unchanged(engine, model):
    """Default-planned oracle: every cached bucket price equals the
    reference's single-bucket scalar price exactly."""
    vec = StepCostOracle(engine=engine, model=model)
    for n in (1, 4):
        for ctx in (16, 64, 96):
            assert vec.decode_step_seconds(n, ctx) == ref.oracle_decode_step_seconds(
                StepCostOracle(engine=engine, model=model), n, ctx
            )


def test_warm_up_matches_legacy_halving_probe(engine, model):
    oracle = StepCostOracle(engine=engine, model=model)
    probe = oracle.warm_up(64)
    legacy = StepCostOracle(engine=engine, model=model)
    n = 64
    while n > 1 and legacy.planned(n) is None:
        n //= 2
    assert probe == n
    # The warm-up pre-filled every bucket of the probed level.
    assert ("decode", probe, oracle.ctx_bucket) in oracle._step_cache


def test_decode_bucket_headroom(engine, model):
    oracle = StepCostOracle(engine=engine, model=model)
    assert oracle.decode_bucket_headroom(32) == 1
    assert oracle.decode_bucket_headroom(33) == 32
    assert oracle.decode_bucket_headroom(64) == 1
    assert oracle.decode_bucket_headroom(1) == 32
    # Within the headroom the bucketed price cannot change.
    for ctx in (1, 33, 100):
        k = oracle.decode_bucket_headroom(ctx)
        assert oracle.decode_step_seconds(2, ctx) == oracle.decode_step_seconds(
            2, ctx + k - 1
        )


def test_bucket_ctx_integer_ceil_matches_float_ceil(engine, model):
    oracle = StepCostOracle(engine=engine, model=model)
    for bucket in (1, 7, 32, 64):
        oracle.ctx_bucket = bucket
        for ctx in range(1, 600):
            assert oracle._bucket_ctx(ctx) == max(
                bucket, math.ceil(ctx / bucket) * bucket
            )


def _run_clock(start, dur, count):
    """``[start, t_1, ..., t_count]`` of ``count`` equal steps."""
    steps = np.full(count + 1, dur)
    steps[0] = start
    return np.cumsum(steps)


def _cumsum_run_length(start, dur, k, next_arrival, a_min, timeout):
    """The array form of the run-length cut: ``np.cumsum`` boundaries, a
    ``searchsorted`` arrival cut and a vectorized expiry scan."""
    if k == 1:
        return 1, start + dur
    times = _run_clock(start, dur, k)
    if next_arrival is not None:
        cut = int(np.searchsorted(times[1:k], next_arrival, side="left")) + 1
        if cut < k:
            k = cut
    if a_min is not None:
        hits = np.nonzero((times[1:k] - a_min) > timeout)[0]
        if hits.size:
            k = int(hits[0]) + 1
    return k, float(times[k])


def test_run_length_loop_is_bitwise_the_cumsum_cut():
    """The kernel's ``t += dur`` run length equals the array cut exactly,
    boundaries that land on an arrival or a deadline included."""
    rng = random.Random(4)
    kern = ReplicaKernel.__new__(ReplicaKernel)
    for _ in range(3000):
        start = rng.uniform(0.0, 500.0)
        dur = rng.choice([0.1, 0.3, rng.uniform(1e-3, 3.0)])
        k = rng.randint(1, 40)
        headroom = rng.randint(1, 40)
        n = min(k, headroom)
        bounds = _run_clock(start, dur, n)
        next_arrival = rng.choice(
            [None, float(rng.choice(bounds)), start + rng.uniform(0, n * dur)]
        )
        timeout = rng.choice([None, 5.0, rng.uniform(0.1, 20.0)])
        a_min = None
        if timeout is not None:
            a_min = rng.choice(
                [None, float(rng.choice(bounds)) - timeout,
                 start - rng.uniform(0.0, timeout)]
            )
        kern.running = SimpleNamespace(min_remaining=lambda k=k: k)
        kern.oracle = SimpleNamespace(decode_bucket_headroom=lambda c, h=headroom: h)
        kern.queue = SimpleNamespace(
            next_expirable_arrival=lambda a=a_min: a, timeout_s=timeout
        )
        assert kern._run_length(start, dur, 0, next_arrival) == _cumsum_run_length(
            start, dur, n, next_arrival, a_min, timeout
        )


# -- heap deadline queue ---------------------------------------------------


def _req(rid: int, arrival: float, tokens_done: int = 0) -> Request:
    req = Request.from_spec(rid, RequestSpec(arrival_s=arrival, prompt_len=8, gen_len=8))
    req.tokens_done = tokens_done
    return req


def _filled(cls: type[AdmissionQueue]) -> AdmissionQueue:
    q = cls(capacity=64, timeout_s=2.0)
    for rid, arrival in enumerate([0.0, 0.5, 3.0, 1.0, 2.0]):
        q.offer(_req(rid, arrival), arrival)
    return q


def test_heap_expire_matches_linear_scan():
    heap_q, lin_q = _filled(AdmissionQueue), _filled(ScanQueue)
    for now in (1.0, 2.6, 3.2, 10.0):
        dropped_h = sorted(r.rid for r in heap_q.expire(now))
        dropped_l = sorted(r.rid for r in lin_q.expire(now))
        assert dropped_h == dropped_l
        assert sorted(r.rid for r in heap_q.waiting) == sorted(
            r.rid for r in lin_q.waiting
        )
    assert Counter(r.drop_reason for r in heap_q.dropped) == Counter(
        r.drop_reason for r in lin_q.dropped
    )


def test_heap_expire_exempts_preempted_requests():
    q = AdmissionQueue(capacity=8, timeout_s=1.0)
    started = _req(0, 0.0, tokens_done=3)
    q.requeue(started, 0.0)  # preempted: already holds generated tokens
    q.offer(_req(1, 0.0), 0.0)
    dropped = q.expire(5.0)
    assert [r.rid for r in dropped] == [1]
    assert [r.rid for r in q.waiting] == [0]
    assert q.next_expirable_arrival() is None


def test_heap_tracks_requeued_unstarted_request():
    # An aborted prefill re-enters the queue with tokens_done == 0; its
    # original heap entry may have been consumed — requeue must re-arm
    # the deadline.
    q = AdmissionQueue(capacity=8, timeout_s=1.0)
    req = _req(0, 0.0)
    q.offer(req, 0.0)
    q.take(req)  # admitted
    q.requeue(req, 0.5)  # prefill aborted before its first token
    assert q.next_expirable_arrival() == 0.0
    assert [r.rid for r in q.expire(1.5)] == [0]


def test_next_expirable_arrival_purges_dead_entries():
    q = AdmissionQueue(capacity=8, timeout_s=1.0)
    a, b = _req(0, 0.0), _req(1, 0.7)
    q.offer(a, 0.0)
    q.offer(b, 0.7)
    q.take(a)
    a.state = RequestState.RUNNING
    assert q.next_expirable_arrival() == 0.7


def test_ordered_view_tracks_policy_order():
    q = AdmissionQueue(capacity=8)
    policy = make_policy("sjf")
    q.attach_order(policy.sort_key)
    specs = [(0, 0.0, 9), (1, 0.1, 2), (2, 0.2, 5), (3, 0.3, 2)]
    reqs = []
    for rid, arrival, gen in specs:
        r = Request.from_spec(
            rid, RequestSpec(arrival_s=arrival, prompt_len=8, gen_len=gen)
        )
        q.offer(r, arrival)
        reqs.append(r)
    view = q.ordered_view()
    assert view is not None
    assert [r.rid for r in view] == [r.rid for r in policy.order(q.waiting)]
    q.take(reqs[1])
    assert [r.rid for r in q.ordered_view()] == [
        r.rid for r in policy.order(q.waiting)
    ]
