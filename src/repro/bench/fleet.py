"""Fleet benchmark: bundled fleets through bundled chaos scenarios.

``python -m repro fleet-bench`` (and the library entry point below) runs
each bundled fleet preset through every fleet chaos scenario on one
frozen arrival trace and writes ``BENCH_fleet.json``.  The headline
questions are cluster-robustness ones:

* how much fleet-wide SLO attainment and goodput survive replica
  crashes, correlated domain outages, flaky replicas and rolling
  restarts, relative to the same fleet's fault-free run?
* does conservation hold under failover — does every admitted request
  reach exactly one terminal outcome fleet-wide, attributed to exactly
  one replica (or the router), with the hedge ledger balanced?

Scenario windows are fractions of the fleet's own fault-free makespan
(the chaos-bench idiom): an outage scaled to the arrival horizon could
land after the queue drains and never displace anything.  Every run is
seeded end to end — trace, fault windows, abort draws, backoff jitter —
so two invocations with the same arguments produce byte-identical JSON
(asserted by the CI smoke and ``tests/test_fleet.py``).
"""

from __future__ import annotations

from typing import Any

from repro.models import get_model
from repro.serving.arrivals import RequestTrace, mmpp_trace, poisson_trace
from repro.serving.fleet import (
    FLEET_PRESETS,
    FLEET_SCENARIOS,
    FleetConfig,
    FleetResult,
    FleetSimulator,
    compute_fleet_metrics,
    make_fleet,
    make_fleet_scenario,
)
from repro.serving.policies import make_policy

SCHEMA_VERSION = 1

#: Presets swept in quick mode (CI smoke): the smallest fleet only.
QUICK_PRESETS = ("uniform-6",)


def default_fleet_config() -> FleetConfig:
    """The bench's cluster knobs: hedging on, modest failover budget,
    breakers armed.  One shared config across presets and scenarios so
    every delta in the payload is attributable to fleet shape or fault
    class, never to tuning."""
    return FleetConfig(
        migration_budget=2,
        hedge_after_s=20.0,
        breaker_threshold=3,
        breaker_cooldown_s=10.0,
    )


def fleet_trace(n_replicas: int, quick: bool = False, seed: int = 0) -> RequestTrace:
    """An arrival trace scaled to the fleet size.

    Offered load grows with the replica count (~0.5 req/s per replica)
    so every preset runs at a comparable per-replica utilisation; the
    full-mode trace is a two-state MMPP (quiet/bursty) because hedges
    and breakers only earn their keep under bursty load, while quick
    mode uses a short plain-Poisson trace to keep the CI smoke fast.
    """
    if quick:
        return poisson_trace(
            rate=0.4 * n_replicas,
            horizon_s=10.0,
            seed=seed,
            name=f"fleet-poisson-quick-n{n_replicas}",
        )
    return mmpp_trace(
        rate_low=0.3 * n_replicas,
        rate_high=0.8 * n_replicas,
        horizon_s=40.0,
        seed=seed,
        name=f"fleet-mmpp-n{n_replicas}",
    )


def run_fleet_bench(
    model_name: str = "opt-30b",
    presets: tuple[str, ...] | None = None,
    scenarios: tuple[str, ...] = tuple(FLEET_SCENARIOS),
    scheduler: str = "fcfs",
    config: FleetConfig | None = None,
    quick: bool = False,
    seed: int = 0,
    collect_steps: bool = False,
) -> tuple[dict[str, Any], dict[tuple[str, str], FleetResult]]:
    """Every fleet preset x every fleet scenario.

    Returns ``(payload, results)``; ``results`` is keyed by
    ``(preset, scenario)``.  The ``"none"`` scenario doubles as the
    baseline: its makespan sets the fault horizon for the preset's
    other scenarios, and its goodput anchors ``goodput_retention``.
    ``collect_steps`` retains per-replica step records (needed only for
    timeline/registry export); the payload is byte-identical either way.
    """
    if presets is None:
        presets = QUICK_PRESETS if quick else tuple(FLEET_PRESETS)
    config = config or default_fleet_config()
    model = get_model(model_name)
    results: dict[tuple[str, str], FleetResult] = {}
    doc_fleets: dict[str, Any] = {}

    for preset in presets:
        specs = make_fleet(preset)
        domains = tuple(sorted({s.fault_domain for s in specs}))
        trace = fleet_trace(len(specs), quick=quick, seed=seed)
        runs: dict[str, Any] = {}
        # Fault-free run first: its makespan is the horizon every other
        # scenario's windows are fractions of (chaos-bench idiom — the
        # outage must overlap the busy period, whatever the fleet's
        # actual drain time is).
        baseline = FleetSimulator(
            specs=specs,
            model=model,
            trace=trace,
            policy=make_policy(scheduler),
            config=config,
            seed=seed,
            collect_steps=collect_steps,
        ).run()
        results[(preset, "none")] = baseline
        base_doc = compute_fleet_metrics(baseline)
        runs["none"] = {
            "schedule": None,
            "metrics": base_doc,
            "goodput_retention": 1.0,
        }
        base_goodput = base_doc["fleet"]["slo"]["goodput_rps"]
        fault_horizon = baseline.makespan_s
        for scenario in scenarios:
            if scenario == "none":
                continue
            schedule = make_fleet_scenario(
                scenario, fault_horizon, domains=domains, seed=seed
            )
            result = FleetSimulator(
                specs=specs,
                model=model,
                trace=trace,
                policy=make_policy(scheduler),
                config=config,
                faults=schedule,
                seed=seed,
                collect_steps=collect_steps,
            ).run()
            results[(preset, scenario)] = result
            doc = compute_fleet_metrics(result)
            goodput = doc["fleet"]["slo"]["goodput_rps"]
            runs[scenario] = {
                "schedule": schedule.to_dict(),
                "metrics": doc,
                "goodput_retention": (goodput / base_goodput)
                if base_goodput > 0
                else None,  # reach: input: a fault-free baseline with zero goodput
            }
        doc_fleets[preset] = {
            "replicas": len(specs),
            "domains": list(domains),
            "trace": {
                "name": trace.name,
                "requests": len(trace),
                "horizon_s": trace.horizon_s,
                "total_tokens": trace.total_tokens,
            },
            "fault_horizon_s": fault_horizon,
            "runs": runs,
        }

    payload = {
        "schema_version": SCHEMA_VERSION,
        "model": model_name,
        "seed": seed,
        "quick": quick,
        "scheduler": scheduler,
        "config": {
            "max_batch": config.serving.max_batch,
            "queue_capacity": config.serving.queue_capacity,
            "queue_timeout_s": config.serving.queue_timeout_s,
            "ttft_slo_s": config.serving.ttft_slo_s,
            "tpot_slo_s": config.serving.tpot_slo_s,
            "migration_budget": config.migration_budget,
            "hedge_after_s": config.hedge_after_s,
            "breaker_threshold": config.breaker_threshold,
            "breaker_cooldown_s": config.breaker_cooldown_s,
        },
        "scenarios": list(scenarios),
        "fleets": doc_fleets,
        "all_accounting_ok": all(
            run["metrics"]["accounting"]["ok"]
            for fleet in doc_fleets.values()
            for run in fleet["runs"].values()
        ),
    }
    return payload, results


def fleet_rows(payload: dict[str, Any]) -> list[dict[str, Any]]:
    """Flatten one fleet payload into CLI/markdown table rows."""
    rows: list[dict[str, Any]] = []
    for preset, fleet in payload["fleets"].items():
        for scenario, run in fleet["runs"].items():
            m = run["metrics"]
            acc = m["accounting"]
            rows.append(
                {
                    "fleet": preset,
                    "scenario": scenario,
                    "done": acc["finished"],
                    "drop": acc["dropped"],
                    "migr": m["router"]["migrations"],
                    "hedge": m["hedges"]["launched"],
                    "crash": m["crashes"]["crash_events"],
                    "goodput_rps": round(m["fleet"]["slo"]["goodput_rps"], 3),
                    "retention": (
                        round(run["goodput_retention"], 3)
                        if run.get("goodput_retention") is not None
                        else "-"  # reach: input: a fault-free baseline with zero goodput
                    ),
                    "slo_att": round(m["fleet"]["slo"]["attainment"], 3),
                    "ok": acc["ok"],
                }
            )
    return rows
