"""Multi-model serving benchmark: dedicated replicas vs. co-residency.

``python -m repro serve-sim --models <preset>`` replays tagged traffic
mixes through two deployment shapes and writes ``BENCH_multimodel.json``:

* **dedicated** — one platform per model (K replicas), each running the
  plain single-model :class:`~repro.serving.simulator.ServingSimulator`
  on its own sub-trace.  No swaps, no cross-model interference, K GPUs.
* **co-resident** — one platform time-shared by all K models through
  :class:`~repro.serving.multimodel.MultiModelSimulator`, under three
  between-model schedulers: ``fcfs`` (swap-on-idle only),
  ``priority-preempt`` (cross-model eviction by SLO class) and
  ``sjf-predict`` (the bucketed learned length predictor).  1 GPU.

The headline question is the consolidation trade: how much of K
dedicated GPUs' goodput does one GPU keep, per traffic mix, and which
between-model scheduler keeps the most.  Every run derives from one seed
(per-model arrival streams are independently keyed, so both deployment
shapes replay literally identical requests) and the payload is
byte-identical across same-seed invocations — CI diffs two.
"""

from __future__ import annotations

from typing import Any

from repro.baselines import make_engine
from repro.models import get_model
from repro.serving.arrivals import RequestTrace, multimodel_trace
from repro.serving.multimodel import (
    ModelSlot,
    MultiModelSimulator,
    make_slots,
    slot_summary,
)
from repro.serving.policies import make_policy
from repro.serving.simulator import ServingConfig, ServingSimulator
from repro.util import write_json

SCHEMA_VERSION = 1

#: Between-model schedulers the co-resident side sweeps.
CORESIDENT_SCHEDULERS = ("fcfs", "priority-preempt", "sjf-predict")

#: Traffic mixes: per-model rate weights, smallest model first.  Weights
#: are positional (applied to the preset's slots in order) so one table
#: serves every preset size.
MIX_WEIGHTS: dict[str, tuple[float, ...]] = {
    "balanced": (1.0, 1.0, 1.0, 1.0),
    "interactive-heavy": (3.0, 1.0, 0.5, 0.5),
    "large-heavy": (0.5, 1.0, 3.0, 3.0),
}


def mix_trace(
    slots: tuple[ModelSlot, ...],
    mix: str,
    quick: bool = False,
    seed: int = 0,
) -> RequestTrace:
    """The frozen tagged trace for one (preset, mix) cell.

    Per-model rates are the mix's positional weights scaled so the total
    arrival rate is ~1 req/s (0.75 in quick mode over a short horizon).
    Smaller models carry higher fixed priority — the interactive class a
    preemptive scheduler protects across models.
    """
    weights = MIX_WEIGHTS[mix]
    total_rate = 0.75 if quick else 1.0
    horizon = 8.0 if quick else 40.0
    scale = total_rate / sum(weights[: len(slots)])
    rates = {s.name: weights[i] * scale for i, s in enumerate(slots)}
    priorities = {s.name: len(slots) - 1 - i for i, s in enumerate(slots)}
    return multimodel_trace(
        rates,
        horizon_s=horizon,
        seed=seed,
        priorities=priorities,
        name=f"{mix}({','.join(s.name for s in slots)})",
    )


def _dedicated(
    engine_name: str,
    slots: tuple[ModelSlot, ...],
    trace: RequestTrace,
    config: ServingConfig,
) -> dict[str, Any]:
    """K dedicated replicas: each model's sub-trace on its own platform."""
    per_model: dict[str, Any] = {}
    makespans: list[float] = []
    goodput_total = 0.0
    for slot in slots:
        sub = trace.for_model(slot.name)
        result = ServingSimulator(
            engine=make_engine(engine_name),
            model=slot.model,
            trace=sub,
            policy=make_policy("fcfs"),
            config=config,
        ).run()
        doc = slot_summary(result.requests, slot, config, result.makespan_s)
        doc["makespan_s"] = result.makespan_s
        per_model[slot.name] = doc
        makespans.append(result.makespan_s)
        goodput_total += doc["slo"]["goodput_rps"]
    return {
        "replicas": len(slots),
        "makespan_s": max(makespans, default=0.0),
        "goodput_rps_total": goodput_total,
        "per_model": per_model,
    }


def _coresident(
    engine_name: str,
    slots: tuple[ModelSlot, ...],
    trace: RequestTrace,
    config: ServingConfig,
    scheduler: str,
) -> dict[str, Any]:
    """One platform, all K models, one between-model scheduler."""
    policy = make_policy(scheduler)
    result = MultiModelSimulator(
        engine=make_engine(engine_name),
        slots=slots,
        trace=trace,
        policy=policy,
        config=config,
    ).run()
    doc = result.to_dict()
    doc["goodput_rps_total"] = sum(
        m["slo"]["goodput_rps"] for m in doc["per_model"].values()
    )
    predictor = getattr(policy, "predictor", None)
    if predictor is not None:
        doc["predictor"] = predictor.stats()
    return doc


def run_multimodel_bench(
    preset: str = "opt-duo",
    engine: str = "lm-offload",
    mixes: tuple[str, ...] = tuple(MIX_WEIGHTS),
    schedulers: tuple[str, ...] = CORESIDENT_SCHEDULERS,
    config: ServingConfig | None = None,
    quick: bool = False,
    seed: int = 0,
) -> dict[str, Any]:
    """Dedicated-replica fleet vs. preemptive co-residency, per mix."""
    slots = make_slots(preset)
    config = config or ServingConfig()
    doc_mixes: dict[str, Any] = {}
    for mix in mixes:
        trace = mix_trace(slots, mix, quick=quick, seed=seed)
        dedicated = _dedicated(engine, slots, trace, config)
        coresident = {
            sched: _coresident(engine, slots, trace, config, sched)
            for sched in schedulers
        }
        dd = dedicated["goodput_rps_total"]
        doc_mixes[mix] = {
            "trace": {
                "name": trace.name,
                "requests": len(trace),
                "horizon_s": trace.horizon_s,
                "total_tokens": trace.total_tokens,
            },
            "dedicated": dedicated,
            "coresident": coresident,
            #: Goodput one platform keeps, as a fraction of K platforms'.
            "consolidation_ratio": {
                sched: (c["goodput_rps_total"] / dd) if dd > 0 else None
                for sched, c in coresident.items()
            },
        }
    return {
        "schema_version": SCHEMA_VERSION,
        "preset": preset,
        "models": [s.name for s in slots],
        "engine": engine,
        "seed": seed,
        "config": {
            "max_batch": config.max_batch,
            "queue_capacity": config.queue_capacity,
            "ttft_slo_s": config.ttft_slo_s,
            "tpot_slo_s": config.tpot_slo_s,
        },
        "slo_classes": {
            s.name: {
                "ttft_slo_s": s.ttft_slo_s
                if s.ttft_slo_s is not None
                else config.ttft_slo_s,
                "tpot_slo_s": s.tpot_slo_s
                if s.tpot_slo_s is not None
                else config.tpot_slo_s,
            }
            for s in slots
        },
        "mixes": doc_mixes,
    }


def write_bench_multimodel(
    path: str = "BENCH_multimodel.json", **kwargs: Any
) -> dict[str, Any]:
    """Run the comparison and write the payload to ``path``."""
    payload = run_multimodel_bench(**kwargs)
    write_json(path, payload)
    return payload


def multimodel_rows(payload: dict[str, Any]) -> list[dict[str, Any]]:
    """Flatten one payload into CLI/markdown table rows (one per
    deployment shape per mix)."""
    rows: list[dict[str, Any]] = []
    for mix, doc in payload["mixes"].items():
        d = doc["dedicated"]
        rows.append(
            {
                "mix": mix,
                "deploy": f"dedicated x{d['replicas']}",
                "makespan_s": round(d["makespan_s"], 1),
                "swaps": 0,
                "swap_s": 0.0,
                "goodput_rps": round(d["goodput_rps_total"], 3),
                "vs_dedicated": 1.0,
            }
        )
        for sched, c in doc["coresident"].items():
            ratio = doc["consolidation_ratio"][sched]
            rows.append(
                {
                    "mix": mix,
                    "deploy": sched,
                    "makespan_s": round(c["makespan_s"], 1),
                    "swaps": c["swaps"],
                    "swap_s": round(c["swap_time_s"], 1),
                    "goodput_rps": round(c["goodput_rps_total"], 3),
                    "vs_dedicated": round(ratio, 3) if ratio is not None else "-",
                }
            )
    return rows
