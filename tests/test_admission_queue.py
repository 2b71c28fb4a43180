"""The admission queue's one expiry path against the linear-scan reference.

The queue expires through a lazy deadline heap whose entries stay live
only while their request waits unstarted in *that* queue.  Migration
(the fleet moves requests between replicas' queues) is what makes the
ownership check necessary: a request taken from one queue leaves that
queue's entry behind.  These tests drive the heap queue and
:class:`tests.reference_queue.ScanQueue` through the same operations and
require the same waiting lists, expiries and drop stamps.
"""

import json
import random

import pytest

from repro.bench.fleet import fleet_trace
from repro.models import get_model
from repro.serving import (
    AdmissionQueue,
    FleetConfig,
    FleetSimulator,
    ServingConfig,
    compute_fleet_metrics,
    make_fleet,
    make_fleet_scenario,
    make_policy,
)
from repro.serving import kernel
from repro.serving.request import DropReason, Request, RequestSpec, RequestState
from tests.reference_queue import ScanQueue

# -- random operations over two queues ----------------------------------------


class _World:
    """Two queues of one class plus the requests that move between them."""

    def __init__(self, cls: type[AdmissionQueue], timeout: float | None) -> None:
        self.queues = [cls(capacity=6, timeout_s=timeout) for _ in range(2)]
        # One queue keeps a policy-ordered view, as static-order policies do.
        self.queues[1].attach_order(make_policy("sjf").sort_key)
        self.reqs: dict[int, Request] = {}
        self.expired: set[tuple[int, float]] = set()

    def new(self, rid: int, arrival: float, gen: int) -> Request:
        req = self.reqs[rid] = Request.from_spec(
            rid, RequestSpec(arrival_s=arrival, prompt_len=8, gen_len=gen)
        )
        return req

    def state(self) -> tuple:
        return (
            [[r.rid for r in q.waiting] for q in self.queues],
            [r.rid for r in self.queues[1].ordered_view()],
            [q.next_expirable_arrival() for q in self.queues],
            sorted(
                (r.rid, r.drop_reason.value, r.drop_s)
                for q in self.queues for r in q.dropped
            ),
            self.expired,
        )


def _waiting_rids(world: _World) -> list[tuple[int, int]]:
    return [(qi, r.rid) for qi, q in enumerate(world.queues) for r in q.waiting]


@pytest.mark.parametrize("seed", range(40))
def test_heap_expiry_equals_the_scan_over_random_operations(seed):
    rng = random.Random(seed)
    timeout = rng.choice([None, 0.5, 1.5, 4.0])
    heap, scan = _World(AdmissionQueue, timeout), _World(ScanQueue, timeout)
    worlds = (heap, scan)
    held: list[int] = []  # taken for admission (running)
    transit: list[int] = []  # taken for migration, not yet delivered
    now, next_rid = 0.0, 0
    for _ in range(250):
        now += rng.choice([0.0, 0.25, rng.uniform(0.0, 1.0)])
        op = rng.choice(
            ["offer", "offer", "take", "requeue", "expire", "migrate", "deliver"]
        )
        if op == "offer":
            # Arrivals lie in the past and tie often (deliveries keep
            # their original arrival).
            arrival = max(0.0, now - rng.choice([0.0, 0.5, rng.uniform(0.0, 3.0)]))
            gen = rng.randint(1, 9)
            qi = rng.randrange(2)
            for w in worlds:
                w.queues[qi].offer(w.new(next_rid, arrival, gen), now)
            next_rid += 1
        elif op in ("take", "migrate") and _waiting_rids(heap):
            qi, rid = rng.choice(_waiting_rids(heap))
            for w in worlds:
                w.queues[qi].take(w.reqs[rid])
            if op == "take":
                held.append(rid)
                started = rng.random() < 0.5
                for w in worlds:
                    w.reqs[rid].state = RequestState.RUNNING
                    if started:  # a prefill ran: the request holds tokens
                        w.reqs[rid].tokens_done = 1
            else:
                transit.append(rid)
        elif op == "requeue" and held:
            rid = held.pop(rng.randrange(len(held)))
            qi = rng.randrange(2)
            for w in worlds:
                w.queues[qi].requeue(w.reqs[rid], now)
        elif op == "deliver" and transit:
            rid = transit.pop(rng.randrange(len(transit)))
            qi = rng.randrange(2)
            for w in worlds:
                req, q = w.reqs[rid], w.queues[qi]
                if req.tokens_done:
                    q.requeue(req, now)
                else:
                    q.offer(req, now)  # a full queue drops it (QUEUE_FULL)
        elif op == "expire":
            qi = rng.randrange(2)
            for w in worlds:
                w.expired |= {(r.rid, r.drop_s) for r in w.queues[qi].expire(now)}
        assert heap.state() == scan.state()
    if timeout is not None:
        assert heap.expired  # the run exercised expiry


def test_a_migrated_request_leaves_no_live_entry_behind():
    """The request the fleet moves must not expire from its old queue."""
    a, b = AdmissionQueue(capacity=4, timeout_s=1.0), AdmissionQueue(
        capacity=4, timeout_s=1.0
    )
    req = Request.from_spec(0, RequestSpec(arrival_s=0.0, prompt_len=8, gen_len=4))
    a.offer(req, 0.0)
    a.take(req)  # displaced: in transit
    assert a.expire(5.0) == [] and a.next_expirable_arrival() is None
    b.offer(req, 3.0)
    assert a.expire(5.0) == []
    assert b.expire(5.0) == [req] and req.drop_s == 5.0


# -- the fleet on the heap queue vs the scan queue ----------------------------

@pytest.fixture(scope="module")
def fleet_inputs():
    specs = make_fleet("uniform-6")
    return get_model("opt-30b"), specs, fleet_trace(len(specs), quick=True, seed=0)


@pytest.mark.parametrize("hedge_after_s", [None, 2.0], ids=["no-hedge", "hedge-2s"])
@pytest.mark.parametrize("scenario", ["replica-crash", "domain-outage"])
def test_fleet_expiry_on_the_heap_equals_the_scan_reference(
    monkeypatch, fleet_inputs, scenario, hedge_after_s
):
    """Crashes and outages migrate queued requests between replicas'
    queues under a 5 s timeout.  ``replica-crash`` without hedging is the
    case where a heap without the ownership check expired a request from
    the queue it had left (``list.remove(x): x not in list``)."""
    model, specs, trace = fleet_inputs
    domains = tuple(sorted({s.fault_domain for s in specs}))
    schedule = make_fleet_scenario(scenario, trace.horizon_s, domains=domains)
    config = FleetConfig(
        serving=ServingConfig(max_batch=2, queue_timeout_s=5.0),
        hedge_after_s=hedge_after_s,
    )

    def run():
        return FleetSimulator(
            specs=specs, model=model, trace=trace, policy=make_policy("fcfs"),
            config=config, faults=schedule, collect_steps=False,
        ).run()

    result = run()
    with monkeypatch.context() as m:
        m.setattr(kernel, "AdmissionQueue", ScanQueue)
        reference = run()
    assert result.accounting()["ok"]
    assert result.stats.migrations > 0
    assert any(r.drop_reason is DropReason.TIMEOUT for r in result.requests)
    assert result.stats == reference.stats
    assert json.dumps(compute_fleet_metrics(result), sort_keys=True) == json.dumps(
        compute_fleet_metrics(reference), sort_keys=True
    )
