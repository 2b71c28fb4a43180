"""The running batch's token clock == eager per-request crediting.

:class:`~repro.serving.kernel.RunningBatch` advances one token clock for
the whole batch and answers the maximum context and the minimum remaining
tokens from two lazily invalidated heaps.  :class:`EagerBatch` below is
the batch it replaced: a list whose decode step credits ``k`` tokens to
every member and whose queries scan every member.  Each driver (single
engine under every scheduler, with and without run-length advance, chaos
aborts, multi-model swaps, fleet crashes with migration and hedging) runs
once on each, and every request field, step run and aggregate must match.

The structural test counts per-request token reads during decode: with
the clock they scale with joins and leaves, not with steps x batch.
"""

import dataclasses
import json
import random

import pytest

from repro.baselines import ZeroInferenceEngine
from repro.faults import SCENARIOS, make_scenario
from repro.hardware import single_a100
from repro.models import get_model
from repro.serving import (
    FleetConfig,
    FleetSimulator,
    LengthSampler,
    ModelSlot,
    MultiModelSimulator,
    ReplicaSpec,
    RequestTrace,
    ServingConfig,
    ServingSimulator,
    compute_fleet_metrics,
    compute_metrics,
    make_fleet_scenario,
    make_policy,
    mmpp_trace,
    poisson_trace,
)
from repro.serving import kernel
from repro.serving.arrivals import multimodel_trace
from repro.serving.kernel import ReplicaKernel, RunningBatch
from repro.serving.request import Request, RequestSpec
from tests.traces import replay_trace


class EagerBatch:
    """The running batch as a list, credited one request at a time: the
    reference the token clock must reproduce exactly.  ``visits`` counts
    every member each operation touches."""

    def __init__(self) -> None:
        self.members: list[Request] = []
        self.joins = 0
        self.visits = 0

    def __len__(self) -> int:
        return len(self.members)

    def __iter__(self):
        return iter(self.members)

    def __contains__(self, req: Request) -> bool:
        return any(x is req for x in self.members)

    def join(self, req: Request) -> None:
        self.members.append(req)
        self.joins += 1
        self.visits += 1

    def leave(self, req: Request) -> None:
        self.visits += len(self.members)
        self.members = [x for x in self.members if x is not req]

    def drain(self) -> list[Request]:
        out, self.members = self.members, []
        return out

    def max_context(self) -> int:
        self.visits += len(self.members)
        return max(r.context_len for r in self.members)

    def min_remaining(self) -> int:
        self.visits += len(self.members)
        return min(r.remaining_tokens for r in self.members)

    def advance(self, k: int) -> list[Request]:
        self.visits += len(self.members)
        running, done = [], []
        for req in self.members:
            req.tokens_done += k
            (running if req.tokens_done < req.gen_len else done).append(req)
        self.members = running
        return done

    def rids(self) -> tuple[int, ...]:
        return tuple(r.rid for r in self.members)


@pytest.fixture(scope="module")
def model():
    return get_model("opt-1.3b")


@pytest.fixture(scope="module")
def engine():
    return ZeroInferenceEngine(single_a100())


LENGTHS = LengthSampler(prompt_mean=64, gen_mean=32, max_len=256)


def request_state(requests: list[Request]) -> list[tuple]:
    """Every dataclass field of every request, plus ``tokens_done``."""
    names = [f.name for f in dataclasses.fields(Request)]
    return [
        tuple(getattr(r, n) for n in names) + (r.tokens_done,) for r in requests
    ]


def both_batches(monkeypatch, run):
    """``run()`` on the token clock, then on the eager reference."""
    clock = run()
    with monkeypatch.context() as m:
        m.setattr(kernel, "RunningBatch", EagerBatch)
        eager = run()
    return clock, eager


def assert_same_serving(a, b):
    assert request_state(a.requests) == request_state(b.requests)
    assert a.step_runs == b.step_runs
    assert a.aggregates == b.aggregates
    assert a.makespan_s == b.makespan_s
    assert json.dumps(compute_metrics(a), sort_keys=True) == json.dumps(
        compute_metrics(b), sort_keys=True
    )
    if a.fault_stats is not None:
        assert a.fault_stats.to_dict(a.makespan_s) == b.fault_stats.to_dict(
            b.makespan_s
        )


def _trace(kind: str):
    if kind == "poisson":
        return poisson_trace(
            2.0, 30.0, seed=7, lengths=LENGTHS, priority_levels=3, name="bc-p"
        )
    if kind == "mmpp":
        return mmpp_trace(
            0.5, 6.0, 30.0, seed=11, lengths=LENGTHS, priority_levels=3,
            name="bc-m",
        )
    return replay_trace(
        [(0.0, 32, 48, 2), (0.0, 16, 8, 1), (0.4, 64, 32, 3), (0.4, 16, 4, 1),
         (2.5, 48, 64, 2), (9.0, 16, 16, 1), (9.0, 16, 2, 3)],
        name="bc-r",
    )


# -- single engine ------------------------------------------------------------


@pytest.mark.parametrize("trace_kind", ["poisson", "mmpp", "replay"])
@pytest.mark.parametrize(
    "scheduler", ["fcfs", "sjf", "priority", "priority-preempt", "sjf-predict"]
)
@pytest.mark.parametrize("timeout", [None, 5.0])
@pytest.mark.parametrize("entry", ["run", "_run_reference"])
def test_clock_matches_eager_single_engine(
    monkeypatch, engine, model, trace_kind, scheduler, timeout, entry
):
    trace = _trace(trace_kind)

    def run():
        # A fresh policy per run: sjf-predict's predictor learns online.
        sim = ServingSimulator(
            engine=engine, model=model, trace=trace,
            policy=make_policy(scheduler),
            config=ServingConfig(
                max_batch=4, queue_capacity=16, queue_timeout_s=timeout
            ),
        )
        return getattr(sim, entry)()

    assert_same_serving(*both_batches(monkeypatch, run))


def test_preemption_is_exercised(engine, model):
    """The preemptive rows above must actually preempt, or the join/leave
    paths they pin are idle."""
    result = ServingSimulator(
        engine=engine, model=model, trace=_trace("poisson"),
        policy=make_policy("priority-preempt"),
        config=ServingConfig(max_batch=4, queue_capacity=16),
    ).run()
    assert sum(r.preemptions for r in result.requests) > 0


@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_clock_matches_eager_under_chaos(monkeypatch, engine, model, scenario):
    trace = _trace("poisson")

    def run():
        return ServingSimulator(
            engine=engine, model=model, trace=trace,
            policy=make_policy("priority-preempt"),
            config=ServingConfig(
                max_batch=4, queue_capacity=16, queue_timeout_s=8.0,
                request_deadline_s=60.0, retry_limit=1,
            ),
            faults=make_scenario(scenario, trace.horizon_s, seed=5),
            seed=5,
        ).run()

    clock, eager = both_batches(monkeypatch, run)
    assert_same_serving(clock, eager)


def test_chaos_drops_running_requests(engine, model):
    """At least one chaos row culls requests out of a running batch (a
    decode abort past their retry budget), so the leave-on-abort path
    runs."""
    trace = _trace("poisson")
    culled = 0
    for scenario in sorted(SCENARIOS):
        result = ServingSimulator(
            engine=engine, model=model, trace=trace,
            policy=make_policy("priority-preempt"),
            config=ServingConfig(
                max_batch=4, queue_capacity=16, queue_timeout_s=8.0,
                request_deadline_s=60.0, retry_limit=1,
            ),
            faults=make_scenario(scenario, trace.horizon_s, seed=5),
            seed=5,
        ).run()
        culled += sum(
            run.batch - run.running_after
            for run in result.step_runs
            if run.kind == "abort-decode"
        )
    assert culled > 0


def test_clock_matches_eager_when_the_watchdog_sheds(monkeypatch, engine, model):
    """Shedding pops the most recently admitted requests until the batch
    fits.  No bundled scenario makes this replica's running batch stop
    fitting, so the oracle is told that only two sequences fit while
    the platform is degraded."""
    trace = poisson_trace(8.0, 20.0, seed=7, lengths=LENGTHS, name="bc-shed")

    def run():
        sim = ServingSimulator(
            engine=engine, model=model, trace=trace,
            policy=make_policy("fcfs"),
            config=ServingConfig(max_batch=8, queue_capacity=32),
            faults=make_scenario("pcie-degrade", trace.horizon_s, seed=5),
            seed=5,
        )
        fits = sim.oracle.feasible

        def feasible(n_seqs, ctx_len):
            degraded = sim.engine.platform is not sim.base_platform
            return fits(n_seqs, ctx_len) and (n_seqs <= 2 or not degraded)

        sim.oracle.feasible = feasible
        return sim.run()

    clock, eager = both_batches(monkeypatch, run)
    assert_same_serving(clock, eager)
    assert len(clock.fault_stats.sheds) > 0


# -- multi-model --------------------------------------------------------------


@pytest.mark.parametrize("scheduler", ["fcfs", "priority-preempt", "sjf-predict"])
def test_clock_matches_eager_multimodel(monkeypatch, engine, scheduler):
    slots = (
        ModelSlot(name="opt-1.3b", model=get_model("opt-1.3b")),
        ModelSlot(name="opt-6.7b", model=get_model("opt-6.7b")),
    )
    trace = multimodel_trace(
        {"opt-1.3b": 1.0, "opt-6.7b": 0.5}, horizon_s=12.0, seed=3,
        priorities={"opt-1.3b": 1},
    )

    def run():
        return MultiModelSimulator(
            engine=engine, slots=slots, trace=trace,
            policy=make_policy(scheduler), config=ServingConfig(max_batch=8),
        ).run()

    clock, eager = both_batches(monkeypatch, run)
    assert clock.swaps == eager.swaps
    assert clock.residency_s == eager.residency_s
    assert_same_serving(clock.serving, eager.serving)
    if scheduler == "priority-preempt":
        assert any(s.reason == "preempt" for s in clock.swaps)


# -- fleet --------------------------------------------------------------------


@pytest.fixture(scope="module")
def fleet_setup(model):
    trace = poisson_trace(rate=6.0, horizon_s=10.0, seed=7)
    specs = tuple(
        ReplicaSpec(name=f"r{i}", engine="zero-inference", fault_domain=f"d{i % 3}")
        for i in range(6)
    )
    baseline = FleetSimulator(
        specs=specs, model=model, trace=trace, policy=make_policy("fcfs"),
        config=FleetConfig(), collect_steps=False,
    ).run()
    return trace, specs, baseline.makespan_s


@pytest.mark.parametrize(
    "scenario",
    ["replica-crash", "domain-outage", "flaky-replica", "rolling-restart"],
)
@pytest.mark.parametrize("max_batch,hedge_after_s", [(4, 2.0), (1, 0.05)])
def test_clock_matches_eager_fleet(
    monkeypatch, model, fleet_setup, scenario, max_batch, hedge_after_s
):
    trace, specs, horizon = fleet_setup
    schedule = make_fleet_scenario(scenario, horizon, seed=3)
    config = FleetConfig(
        serving=ServingConfig(max_batch=max_batch),
        migration_budget=2,
        hedge_after_s=hedge_after_s,
        breaker_threshold=2,
        breaker_cooldown_s=2.0,
    )

    def run():
        return FleetSimulator(
            specs=specs, model=model, trace=trace, policy=make_policy("fcfs"),
            config=config, faults=schedule, seed=3,
        ).run()

    clock, eager = both_batches(monkeypatch, run)
    assert request_state(clock.requests) == request_state(eager.requests)
    assert clock.stats == eager.stats
    for a, b in zip(clock.replicas, eager.replicas):
        assert request_state(a.serving.requests) == request_state(b.serving.requests)
        assert a.serving.step_runs == b.serving.step_runs
        assert a.serving.aggregates == b.serving.aggregates
    assert json.dumps(compute_fleet_metrics(clock), sort_keys=True) == json.dumps(
        compute_fleet_metrics(eager), sort_keys=True
    )
    assert clock.accounting()["ok"]
    if scenario == "replica-crash":
        assert clock.stats.migrations > 0
        if max_batch == 1:
            assert clock.stats.hedges_launched > 0


# -- the batch on its own -----------------------------------------------------


def _req(rid: int, prompt: int, gen: int) -> Request:
    return Request.from_spec(
        rid, RequestSpec(arrival_s=0.0, prompt_len=prompt, gen_len=gen)
    )


def test_heap_size_stays_bounded_and_queries_match_scans():
    """Thousands of joins and leaves through one batch: both heaps stay
    within twice the live members, and every query and token count
    equals a scan over the members."""
    rng = random.Random(0)
    batch = RunningBatch()
    pool = [_req(i, rng.randint(1, 64), rng.randint(2, 80)) for i in range(400)]
    idle = list(pool)
    for _ in range(20_000):
        op = rng.random()
        if idle and (op < 0.35 or not batch):
            req = idle.pop(rng.randrange(len(idle)))
            if req.remaining_tokens <= 0:
                req.tokens_done = 0
            batch.join(req)
        elif op < 0.55:
            req = rng.choice(list(batch))
            batch.leave(req)
            idle.append(req)
        elif op < 0.6:
            *_, newest = batch
            batch.leave(newest)
            idle.append(newest)
        else:
            k = rng.randint(1, batch.min_remaining())
            expect = [r for r in batch if r.remaining_tokens <= k]
            done = batch.advance(k)
            assert [r.rid for r in done] == [r.rid for r in expect]
            assert all(r.remaining_tokens == 0 and r not in batch for r in done)
            idle.extend(done)
        live = len(batch)
        assert len(batch._ctx_heap) <= 2 * live + 1
        assert len(batch._rem_heap) <= 2 * live + 1
        if batch:
            assert batch.max_context() == max(r.context_len for r in batch)
            assert batch.min_remaining() == min(r.remaining_tokens for r in batch)
            assert batch.rids() == tuple(r.rid for r in batch)
    assert batch.joins > 5_000
    # Two pushes, at most two pops, one release and the amortised
    # rebuilds: at most seven member visits per join.
    assert batch.visits <= 7 * batch.joins
    for req in batch.drain():
        assert req not in batch
    assert len(batch) == 0 and batch.rids() == ()


def test_leaving_fixes_tokens_and_rejoin_restarts_from_them():
    batch = RunningBatch()
    a, b = _req(0, 10, 50), _req(1, 20, 50)
    batch.join(a)
    batch.advance(3)
    batch.join(b)
    batch.advance(4)
    assert (a.tokens_done, b.tokens_done) == (7, 4)
    assert batch.max_context() == 24
    batch.leave(a)
    batch.advance(5)
    assert (a.tokens_done, b.tokens_done) == (7, 9)
    batch.join(a)
    batch.advance(1)
    assert (a.tokens_done, b.tokens_done) == (8, 10)
    assert [r.rid for r in batch] == [1, 0]
    batch.leave(b)
    assert b.tokens_done == 10 and [r.rid for r in batch] == [0]


def test_running_request_tokens_cannot_be_set():
    from repro.errors import ServingError

    batch = RunningBatch()
    req = _req(0, 8, 8)
    batch.join(req)
    with pytest.raises(ServingError, match="batch clock"):
        req.tokens_done = 3
    batch.leave(req)
    req.tokens_done = 3
    assert req.tokens_done == 3
    with pytest.raises(ServingError, match="not in this batch"):
        batch.leave(req)


def test_request_is_slotted():
    req = _req(0, 8, 8)
    with pytest.raises(AttributeError):
        req.not_a_field = 1


# -- O(events), structurally --------------------------------------------------


def test_decode_reads_no_request_per_step(monkeypatch, engine, model):
    """A 256-request burst in one 256-wide batch: decode must not read
    any request's token count per step.  Per-request reads during decode
    are bounded by joins + leaves (here 512); a per-step scan of the
    batch reads thousands."""
    reads = {"decode": 0, "all": 0}
    in_decode = [False]
    for name in ("context_len", "remaining_tokens", "tokens_done"):
        prop = Request.__dict__.get(name)
        if not isinstance(prop, property):
            continue

        def counted(prop=prop):
            def get(self):
                reads["all"] += 1
                if in_decode[0]:
                    reads["decode"] += 1
                return prop.fget(self)

            return property(get, prop.fset)

        monkeypatch.setattr(Request, name, counted())
    decode = ReplicaKernel.decode

    def watched(self, *args, **kwargs):
        in_decode[0] = True
        try:
            return decode(self, *args, **kwargs)
        finally:
            in_decode[0] = False

    monkeypatch.setattr(ReplicaKernel, "decode", watched)
    specs = tuple(
        RequestSpec(
            arrival_s=0.0, prompt_len=16 + (i * 7) % 48, gen_len=8 + (i * 13) % 56
        )
        for i in range(256)
    )
    trace = RequestTrace(name="burst", requests=specs, horizon_s=1.0)
    result = ServingSimulator(
        engine=engine, model=model, trace=trace, policy=make_policy("fcfs"),
        config=ServingConfig(max_batch=256, queue_capacity=256),
    ).run()
    assert len(result.finished) == 256 and result.aggregates.max_batch == 256
    steps = result.aggregates.steps_of_kind("decode")
    assert steps > 50
    joins_and_leaves = 2 * 256
    assert reads["decode"] <= joins_and_leaves
    assert reads["all"] <= 8 * joins_and_leaves
