"""Property-based tests on the scheduler and overlap model."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import ZeroInferenceEngine
from repro.hardware import single_a100
from repro.models import get_model
from repro.parallel.controller import schedule_makespan
from repro.runtime.graph import OpGraph, OpNode
from repro.runtime.tasks import TaskCosts
from tests.test_runtime_graph import critical_path_work
from repro.runtime.executor import OverlappedExecutor
from repro.serving import (
    ServingConfig,
    ServingSimulator,
    make_policy,
    poisson_trace,
)
from tests.traces import replay_trace


@st.composite
def random_dag(draw):
    """A random DAG with positive op durations (edges only point forward)."""
    n = draw(st.integers(2, 15))
    durations = draw(
        st.lists(
            st.floats(0.001, 1.0, allow_nan=False), min_size=n, max_size=n
        )
    )
    edges = []
    for j in range(1, n):
        preds = draw(
            st.lists(st.integers(0, j - 1), unique=True, max_size=min(j, 3))
        )
        edges.append(preds)
    g = OpGraph()
    for i in range(n):
        deps = [f"op{p}" for p in (edges[i - 1] if i >= 1 else [])]
        g.add_op(OpNode(f"op{i}", work=durations[i]), deps=deps)
    return g, durations


@given(data=random_dag(), slots=st.integers(1, 8))
@settings(max_examples=80, deadline=None)
def test_makespan_bounds(data, slots):
    """Any list schedule satisfies the classic bounds:
    max(critical path, total/slots) <= makespan <= total work."""
    graph, durations = data
    makespan = schedule_makespan(graph, slots, lambda n: graph.node(n).work)
    total = sum(durations)
    critical = critical_path_work(graph)
    assert makespan <= total + 1e-9
    assert makespan >= critical - 1e-9
    assert makespan >= total / slots - 1e-9


@given(data=random_dag())
@settings(max_examples=40, deadline=None)
def test_more_slots_never_hurt(data):
    graph, _ = data
    times = [
        schedule_makespan(graph, s, lambda n: graph.node(n).work)
        for s in (1, 2, 4, 16)
    ]
    # Greedy list scheduling on a fixed priority order is monotone here
    # because op durations don't depend on the slot count.
    assert times[0] >= times[-1] - 1e-9
    assert times[0] == pytest.approx(graph.total_work())


task_floats = st.floats(0.0, 0.1, allow_nan=False)


@given(
    lw=task_floats, lc=task_floats, la=task_floats,
    sc=task_floats, sa=task_floats, comp=task_floats,
    layers=st.integers(1, 4), batches=st.integers(1, 3),
)
@settings(max_examples=40, deadline=None)
def test_executor_bounded_by_serial_and_bottleneck(
    lw, lc, la, sc, sa, comp, layers, batches
):
    """The overlapped executor's steady-state token time always lies
    between the bottleneck-resource bound and the fully-serial bound."""
    costs = TaskCosts(
        load_weight=lw, load_cache=lc, load_activation=la,
        store_cache=sc, store_activation=sa, compute=comp,
    )
    if sum(costs.as_tuple()) == 0:
        return
    ex = OverlappedExecutor(num_layers=layers, num_gpu_batches=batches)
    marginal = ex.steady_state_token_time(costs, warmup=3)
    iters = layers * batches
    h2d = lw + lc + la
    d2h = sc + sa
    lower = max(h2d, d2h, comp) * iters
    upper = sum(costs.as_tuple()) * iters
    assert marginal >= lower * (1 - 1e-6)
    assert marginal <= upper * (1 + 1e-6) + 1e-9


@given(
    values=st.lists(st.floats(0.001, 1.0, allow_nan=False), min_size=6, max_size=6)
)
@settings(max_examples=50, deadline=None)
def test_step_time_max_property(values):
    costs = TaskCosts(*values)
    assert costs.step_time() == max(values)


# -- scheduler metamorphic properties (seeded traces, no hypothesis) -------
#
# These run a real ServingSimulator end to end, so they use the frozen
# seeded traces directly instead of hypothesis strategies: the property is
# asserted on a pinned workload (part of the test), keeping runtime and
# replays byte-identical.


@pytest.fixture(scope="module")
def sched_engine():
    # ZeRO-Inference plans instantly (no LP search) — the properties under
    # test are the scheduler's, not the planner's.
    return ZeroInferenceEngine(single_a100())


@pytest.fixture(scope="module")
def sched_model():
    return get_model("opt-1.3b")


def _run_policy(engine, model, trace, scheduler, **cfg):
    return ServingSimulator(
        engine=engine,
        model=model,
        trace=trace,
        policy=make_policy(scheduler),
        config=ServingConfig(**cfg),
    ).run()


def test_sjf_mean_queue_wait_never_worse_than_fcfs(sched_engine, sched_model):
    """Shortest-job-first is the canonical mean-wait optimiser: on a
    drop-free seeded Poisson trace, its mean time-to-first-token cannot
    exceed FCFS's (both policies see byte-identical arrivals)."""
    trace = poisson_trace(rate=2.0, horizon_s=20.0, seed=7)
    waits = {}
    for scheduler in ("fcfs", "sjf"):
        result = _run_policy(
            sched_engine, sched_model, trace, scheduler,
            queue_capacity=4 * len(trace),
        )
        assert not result.dropped, (
            f"{scheduler}: the no-drop precondition failed — "
            f"{len(result.dropped)} drops; the property only compares "
            "completed waits"
        )
        assert len(result.finished) == len(trace)
        ttfts = [r.ttft_s for r in result.finished]
        assert all(t is not None and t >= 0.0 for t in ttfts)
        waits[scheduler] = sum(ttfts) / len(ttfts)
    assert waits["sjf"] <= waits["fcfs"] + 1e-9, (
        f"SJF mean wait {waits['sjf']:.4f}s worse than FCFS "
        f"{waits['fcfs']:.4f}s on the pinned trace"
    )


def test_priority_policy_never_inverts_same_arrival_requests(
    sched_engine, sched_model
):
    """Among requests that arrive at the same instant, the priority policy
    must start a strictly-higher-priority request no later than a lower
    one — for every same-arrival pair, at every arrival burst."""
    bursts = [
        (0.0, [0, 3, 1, 2]),
        (40.0, [2, 0, 2, 1]),
        (80.0, [1, 1, 3, 0]),
    ]
    entries = [
        (at, 16, 8, prio) for at, prios in bursts for prio in prios
    ]
    trace = replay_trace(entries, name="priority-bursts")
    # max_batch=2 forces each burst to admit in waves, so ordering within
    # a burst is actually observable in first-token times.
    result = _run_policy(
        sched_engine, sched_model, trace, "priority",
        max_batch=2, queue_capacity=64,
    )
    assert not result.dropped
    by_arrival: dict[float, list] = {}
    for r in result.finished:
        by_arrival.setdefault(r.arrival_s, []).append(r)
    assert len(by_arrival) == len(bursts)
    for arrival, requests in by_arrival.items():
        for a in requests:
            for b in requests:
                if a.priority > b.priority:
                    assert a.first_token_s <= b.first_token_s, (
                        f"burst at t={arrival}: priority {a.priority} "
                        f"(rid {a.rid}) started at {a.first_token_s} after "
                        f"priority {b.priority} (rid {b.rid}) at "
                        f"{b.first_token_s}"
                    )
