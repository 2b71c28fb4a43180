"""Fleet simulator: single-replica equivalence, conservation under
failover/hedging, breaker determinism, crash re-prefill accounting,
schedule validation, bench determinism."""

import heapq
import json

import pytest

from repro.baselines import ENGINES, ZeroInferenceEngine, make_engine
from repro.errors import ConfigError
from repro.faults import FaultKind, FaultSchedule, FaultSpec
from repro.hardware import PLATFORMS, single_a100
from repro.models import get_model
from repro.serving import (
    BreakerState,
    CircuitBreaker,
    FleetConfig,
    FleetSimulator,
    ReplicaSpec,
    Request,
    RequestState,
    ServingConfig,
    ServingSimulator,
    compute_fleet_metrics,
    compute_metrics,
    default_trace,
    make_fleet,
    make_fleet_scenario,
    make_policy,
    poisson_trace,
    replay_trace,
)


@pytest.fixture(scope="module")
def model():
    # opt-1.3b + zero-inference replicas: instant planning, fast steps —
    # the CLI/CI smoke exercises the full lm-offload preset path.
    return get_model("opt-1.3b")


def zi_specs(n, num_domains=3):
    return tuple(
        ReplicaSpec(
            name=f"r{i}",
            engine="zero-inference",
            fault_domain=f"d{i % num_domains}",
        )
        for i in range(n)
    )


def run_fleet(model, specs, trace, faults=None, seed=0, config=None,
              collect_steps=True, policy="fcfs"):
    return FleetSimulator(
        specs=specs,
        model=model,
        trace=trace,
        policy=make_policy(policy),
        config=config or FleetConfig(),
        faults=faults,
        seed=seed,
        collect_steps=collect_steps,
    ).run()


# -- 1-replica zero-fault equivalence --------------------------------------


@pytest.mark.parametrize("policy", ["fcfs", "sjf-predict"])
def test_single_replica_zero_fault_byte_identical_to_serving_sim(model, policy):
    """The acceptance pin: a 1-replica fleet with no faults IS the
    single-engine simulator — requests, steps, queue depths, makespan and
    the full metrics document, byte for byte.  Under ``sjf-predict`` the
    learned predictor must see the same completions in the same order."""
    if policy == "fcfs":
        trace, config = default_trace(quick=True, seed=0), ServingConfig()
    else:
        trace = poisson_trace(rate=8.0, horizon_s=10.0, seed=3)
        config = ServingConfig(max_batch=2)
    ss = ServingSimulator(
        engine=ZeroInferenceEngine(single_a100()),
        model=model,
        trace=trace,
        policy=make_policy(policy),
        config=config,
    ).run()
    fleet = run_fleet(
        model, (ReplicaSpec(name="solo", engine="zero-inference"),), trace,
        config=FleetConfig(serving=config), policy=policy,
    )
    assert fleet.accounting()["ok"]
    view = fleet.single_replica_result()
    assert view.makespan_s == ss.makespan_s
    assert view.requests == ss.requests
    assert view.steps == ss.steps
    assert view.queue_depth == ss.queue_depth
    assert json.dumps(compute_metrics(view), sort_keys=True) == json.dumps(
        compute_metrics(ss), sort_keys=True
    )


def test_single_replica_result_rejects_multi_replica_fleet(model):
    trace = poisson_trace(rate=4.0, horizon_s=2.0, seed=0)
    fleet = run_fleet(model, zi_specs(2), trace)
    with pytest.raises(ConfigError, match="1-replica"):
        fleet.single_replica_result()


# -- conservation under chaos ----------------------------------------------


@pytest.fixture(scope="module")
def stress_setup(model):
    """A loaded 6-replica fleet and its fault-free makespan (the horizon
    the scenario windows scale to, so outages always overlap work)."""
    trace = poisson_trace(rate=6.0, horizon_s=10.0, seed=7)
    specs = zi_specs(6)
    baseline = run_fleet(model, specs, trace, collect_steps=False)
    assert baseline.accounting()["ok"]
    return trace, specs, baseline.makespan_s


@pytest.mark.parametrize(
    "scenario",
    ["replica-crash", "domain-outage", "flaky-replica", "rolling-restart"],
)
def test_conservation_under_stress(model, stress_setup, scenario):
    """Every admitted request reaches exactly one terminal outcome
    fleet-wide — with small batches, hedging and a tight migration budget
    forcing the failover/hedge machinery to actually run."""
    trace, specs, horizon = stress_setup
    schedule = make_fleet_scenario(scenario, horizon, seed=3)
    config = FleetConfig(
        serving=ServingConfig(max_batch=4),
        migration_budget=1,
        hedge_after_s=5.0,
        breaker_threshold=2,
        breaker_cooldown_s=2.0,
    )
    result = run_fleet(
        model, specs, trace, faults=schedule, config=config,
        collect_steps=False,
    )
    acc = result.accounting()
    assert acc["ok"], acc
    # Terminal attribution is a partition: replicas + fleet-level == all.
    assert sum(acc["per_replica"].values()) + acc["fleet_level"] == acc["total"]
    s = result.stats
    assert s.hedges_launched == (
        s.hedges_won + s.hedges_cancelled + s.hedges_dropped
    )


def test_hedges_fire_and_ledger_balances(model, stress_setup):
    trace, specs, horizon = stress_setup
    schedule = make_fleet_scenario("replica-crash", horizon, seed=3)
    # A tight hedge deadline + single-sequence batches: plenty of
    # requests are still token-less when the hedge timer fires.
    config = FleetConfig(
        serving=ServingConfig(max_batch=1),
        hedge_after_s=0.05,
        migration_budget=2,
    )
    result = run_fleet(
        model, specs, trace, faults=schedule, config=config,
        collect_steps=False,
    )
    s = result.stats
    assert s.hedges_launched > 0
    assert s.hedges_launched == (
        s.hedges_won + s.hedges_cancelled + s.hedges_dropped
    )
    assert result.accounting()["ok"]
    # Wasted tokens only accrue when a racer actually generated tokens.
    if s.hedge_wasted_tokens:
        assert s.hedges_won + s.hedges_cancelled > 0


def test_fleet_runs_are_deterministic(model, stress_setup):
    trace, specs, horizon = stress_setup
    schedule = make_fleet_scenario("replica-crash", horizon, seed=3)
    config = FleetConfig(
        serving=ServingConfig(max_batch=4),
        hedge_after_s=2.0,
    )

    def one_run():
        result = run_fleet(
            model, specs, trace, faults=schedule, config=config,
            collect_steps=False,
        )
        return json.dumps(compute_fleet_metrics(result), sort_keys=True)

    assert one_run() == one_run()


def test_cancelled_racer_in_transit_is_not_replaced(model):
    """A hedge clone displaced by a crash sits in a pending delivery when
    its primary finishes.  The cancel must reach it in transit, and the
    delivery must discard it rather than place a racer whose race is
    already settled (a finish there used to hit a missing hedge entry)."""
    trace = replay_trace([(0.0, 16, 4)], name="one")
    sim = FleetSimulator(
        specs=zi_specs(2), model=model, trace=trace,
        policy=make_policy("fcfs"), config=FleetConfig(hedge_after_s=1.0),
    )
    now = sim.run().makespan_s  # builds the ledgers; the request ends on r0
    canonical = sim.requests[0]
    clone = Request(
        rid=0, arrival_s=0.0, prompt_len=canonical.prompt_len,
        gen_len=canonical.gen_len,
    )
    sim.hedges[0] = clone
    del sim.terminal[0]
    sim._push_deliver(now, clone, 1)  # crashed off r1, now in transit
    sim._on_finish(canonical, sim.replicas[0], now)  # the primary wins
    assert clone.state is RequestState.DROPPED
    t_ev, _, _, payload = heapq.heappop(sim._events)
    sim._deliver(t_ev, *payload)
    assert sim._replica_of(clone) is None
    assert all(r.empty() for r in sim.replicas)
    assert sim.stats.hedges_cancelled == 1 and sim.terminal[0] == 0


# -- crash semantics -------------------------------------------------------


def test_crash_destroys_in_flight_work_and_migrates(model):
    """A mid-run domain crash fires, displaces work, and every displaced
    request re-prefills on its new replica (visible as a second prefill
    step carrying the rid)."""
    trace = poisson_trace(rate=6.0, horizon_s=6.0, seed=5)
    specs = zi_specs(4, num_domains=2)
    baseline = run_fleet(model, specs, trace, collect_steps=False)
    horizon = baseline.makespan_s
    schedule = FaultSchedule(
        name="mid-crash",
        faults=(
            FaultSpec(
                kind=FaultKind.REPLICA_CRASH,
                start_s=0.2 * horizon,
                duration_s=0.4 * horizon,
                severity=1.0,
                domain="d0",
            ),
        ),
        seed=0,
    )
    result = run_fleet(model, specs, trace, faults=schedule)
    assert result.accounting()["ok"]
    assert result.stats.crash_events > 0
    assert result.stats.migrations > 0
    migrated_done = [
        r for r in result.requests
        if r.migrations > 0 and r.state is RequestState.FINISHED
    ]
    assert migrated_done
    # Crash wipes KV state: a migrated-and-finished request must appear
    # in prefill steps on at least two distinct replicas.
    for req in migrated_done[:3]:
        hosts = {
            rr.spec.name
            for rr in result.replicas
            for step in rr.serving.steps
            if step.kind == "prefill" and req.rid in step.rids
        }
        assert len(hosts) >= 2, (req.rid, hosts)
    # A crash only fires (and accrues outage time) on a replica that was
    # busy when the window opened — idle members retire it silently.
    crashed = [rr for rr in result.replicas if rr.crashes > 0]
    assert crashed
    assert all(rr.spec.fault_domain == "d0" for rr in crashed)
    assert all(rr.down_s > 0 for rr in crashed)


def test_domain_correlation_targets_every_member(model):
    """A domain-targeted fault lands on every replica in the domain and
    no replica outside it (checked via the derived per-replica view)."""
    specs = zi_specs(4, num_domains=2)
    schedule = FaultSchedule(
        name="one-domain",
        faults=(
            FaultSpec(
                kind=FaultKind.REPLICA_CRASH, start_s=1.0, duration_s=2.0,
                severity=1.0, domain="d1",
            ),
        ),
        seed=0,
    )
    for spec in specs:
        derived = FleetSimulator._derive_schedule(schedule, spec)
        if spec.fault_domain == "d1":
            assert derived is not None and len(derived.faults) == 1
        else:
            assert derived is None or len(derived.faults) == 0


# -- circuit breaker -------------------------------------------------------


def test_breaker_trip_halfopen_close_cycle_is_deterministic():
    b = CircuitBreaker(threshold=2, cooldown_s=5.0)
    assert b.allow(0.0)
    b.on_abort(1.0)
    assert b.state is BreakerState.CLOSED
    b.on_abort(2.0)
    assert b.state is BreakerState.OPEN and b.trips == 1
    assert not b.allow(6.9)
    assert b.allow(7.0)  # cooldown passed -> HALF_OPEN, admits one probe
    assert b.state is BreakerState.HALF_OPEN
    b.note_placed(7.0, rid=42)
    assert not b.allow(7.5)  # probe in flight: nobody else enters
    b.on_success(8.0, rids=(42,))
    assert b.state is BreakerState.CLOSED
    assert b.transitions == [
        (2.0, "closed", "open", "threshold"),
        (7.0, "open", "half_open", "cooldown"),
        (8.0, "half_open", "closed", "probe-success"),
    ]


def test_breaker_probe_failure_reopens():
    b = CircuitBreaker(threshold=1, cooldown_s=1.0)
    b.on_abort(0.0)
    assert b.allow(1.0)
    b.note_placed(1.0, rid=7)
    b.on_abort(1.5)
    assert b.state is BreakerState.OPEN and b.trips == 2
    assert b.transitions[-1] == (1.5, "half_open", "open", "probe-failure")


def test_breaker_crash_backdates_cooldown_to_window_end():
    b = CircuitBreaker(threshold=3, cooldown_s=10.0)
    b.on_crash(5.0, restart_at=8.0)
    assert b.state is BreakerState.OPEN
    assert not b.allow(7.9)
    assert b.allow(8.0)  # probe available the moment the replica is back
    assert b.state is BreakerState.HALF_OPEN


def test_breaker_zero_threshold_disables():
    b = CircuitBreaker(threshold=0, cooldown_s=1.0)
    for t in range(10):
        b.on_abort(float(t))
    assert b.state is BreakerState.CLOSED and b.allow(100.0)
    assert b.transitions == []


def test_breaker_forget_clears_probe():
    b = CircuitBreaker(threshold=1, cooldown_s=1.0)
    b.on_abort(0.0)
    assert b.allow(1.0)
    b.note_placed(1.0, rid=9)
    assert not b.allow(1.1)
    b.forget(9)
    assert b.allow(1.2)  # a new probe may enter; HALF_OPEN cannot wedge


# -- validation ------------------------------------------------------------


def test_serving_simulator_rejects_replica_faults(model):
    schedule = FaultSchedule(
        name="bad",
        faults=(
            FaultSpec(
                kind=FaultKind.REPLICA_CRASH, start_s=1.0, duration_s=1.0,
                severity=1.0,
            ),
        ),
        seed=0,
    )
    with pytest.raises(ConfigError, match="fleet"):
        ServingSimulator(
            engine=ZeroInferenceEngine(single_a100()),
            model=model,
            trace=poisson_trace(rate=1.0, horizon_s=1.0, seed=0),
            faults=schedule,
        )


def test_fleet_simulator_rejects_capability_faults(model):
    schedule = FaultSchedule(
        name="bad",
        faults=(
            FaultSpec(
                kind=FaultKind.PCIE_DEGRADE, start_s=1.0, duration_s=1.0,
                severity=0.5,
            ),
        ),
        seed=0,
    )
    with pytest.raises(ConfigError, match="ServingSimulator"):
        FleetSimulator(
            specs=zi_specs(2),
            model=model,
            trace=poisson_trace(rate=1.0, horizon_s=1.0, seed=0),
            faults=schedule,
        )


def test_fleet_simulator_rejects_unknown_fault_domain(model):
    schedule = FaultSchedule(
        name="bad",
        faults=(
            FaultSpec(
                kind=FaultKind.REPLICA_CRASH, start_s=1.0, duration_s=1.0,
                severity=1.0, domain="nowhere",
            ),
        ),
        seed=0,
    )
    with pytest.raises(ConfigError, match="nowhere"):
        FleetSimulator(
            specs=zi_specs(2),
            model=model,
            trace=poisson_trace(rate=1.0, horizon_s=1.0, seed=0),
            faults=schedule,
        )


def test_fleet_rejects_duplicate_replica_names(model):
    specs = (ReplicaSpec(name="r0"), ReplicaSpec(name="r0"))
    with pytest.raises(ConfigError, match="unique"):
        FleetSimulator(
            specs=specs,
            model=model,
            trace=poisson_trace(rate=1.0, horizon_s=1.0, seed=0),
        )


def test_replica_spec_validation():
    with pytest.raises(ConfigError, match="engine"):
        ReplicaSpec(name="r0", engine="vllm")
    with pytest.raises(ConfigError, match="platform"):
        ReplicaSpec(name="r0", platform="tpu")
    with pytest.raises(ConfigError, match="rung"):
        ReplicaSpec(name="r0", degradation="warp-speed")
    with pytest.raises(ConfigError, match="backpressure"):
        ReplicaSpec(name="r0", degradation="backpressure")


@pytest.mark.parametrize(
    "engine, platform, table",
    [("vllm", "single-a100", ENGINES), ("lm-offload", "tpu", PLATFORMS)],
)
def test_unknown_engine_or_platform_lists_registered_names(engine, platform, table):
    names = ", ".join(table)
    with pytest.raises(ConfigError, match=names):
        make_engine(engine, platform)
    with pytest.raises(ConfigError, match=f"replica 'r0'.*{names}"):
        ReplicaSpec(name="r0", engine=engine, platform=platform)


def test_fleet_config_validation():
    with pytest.raises(ConfigError, match="migration_budget"):
        FleetConfig(migration_budget=-1)
    with pytest.raises(ConfigError, match="hedge_after_s"):
        FleetConfig(hedge_after_s=0.0)
    with pytest.raises(ConfigError, match="breaker_cooldown_s"):
        FleetConfig(breaker_cooldown_s=0.0)


def test_make_fleet_presets_and_scenarios():
    for name, size in (("uniform-6", 6), ("hetero-8", 8), ("uniform-16", 16)):
        specs = make_fleet(name)
        assert len(specs) == size
        assert len({s.name for s in specs}) == size
    with pytest.raises(ConfigError, match="preset"):
        make_fleet("mega-fleet")
    with pytest.raises(ConfigError, match="scenario"):
        make_fleet_scenario("asteroid", 10.0)
    assert len(make_fleet_scenario("none", 10.0).faults) == 0


# -- bench determinism -----------------------------------------------------


def test_fleet_bench_quick_payload_deterministic():
    from repro.bench.fleet import run_fleet_bench

    kwargs = dict(
        model_name="opt-1.3b",
        presets=("uniform-6",),
        scenarios=("none", "replica-crash"),
        quick=True,
        seed=0,
    )
    p1, _ = run_fleet_bench(**kwargs)
    p2, _ = run_fleet_bench(**kwargs)
    assert p1["all_accounting_ok"]
    assert json.dumps(p1, sort_keys=True) == json.dumps(p2, sort_keys=True)
