"""Model-vs-runtime drift audit (``python -m repro audit``).

The paper's whole pipeline — policy search, parallelism control, serving
admission, step pricing — trusts the closed-form performance model
(Eqs. 1/2) to predict what the overlapped zig-zag runtime will do.  This
module is the standing cross-check: it sweeps a grid of (model, placement,
quantization, geometry) configurations, prices each with the analytic
:class:`~repro.perfmodel.latency.CostModel`, replays the *identical*
:class:`~repro.runtime.tasks.TaskCosts` through the discrete-event
:class:`~repro.runtime.executor.OverlappedExecutor`, and reports:

* per-config relative error of the Eq. 2 steady-state step prediction
  against the event-driven schedule (the simulator is ground truth);
* the whole-generation error of summed Eq. 1 decode time vs a full
  :meth:`~repro.runtime.executor.OverlappedExecutor.run_generation` with a
  growing KV cache (full mode only — it is the slow half);
* which term of Eq. 2's ``max(...)`` dominated — both the resource-grouped
  view (h2d / d2h / compute) the executor enforces and the literal
  six-task view — plus how optimistic the paper's literal Eq. 2 is;
* the worst-case divergence across the grid.

``run_audit`` is deterministic end to end (no wall clocks, no RNG), so
``BENCH_audit.json`` is byte-identical across runs — CI diffs two
invocations to prove it.  The audit *fails* (nonzero CLI exit) when any
configuration's steady-state relative error exceeds the tolerance: a later
PR that bends the model or the executor must either fix the drift or
consciously raise the tolerance in review.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.obs.drift import DEFAULT_TOLERANCE, DriftGate
from repro.obs.profiling import span
from repro.obs.registry import MetricsRegistry

SCHEMA_VERSION = 1

#: Whole-generation Eq. 1 vs the executor's full run: one extra pipeline
#: fill/drain is amortized over the run, so the bound is looser.
DEFAULT_E2E_TOLERANCE = 0.15
#: Virtual horizon the audit builds each ``make_scenario`` bundle over.
#: Windows sit at fixed fractions of the horizon, so the value is
#: arbitrary — it only has to be positive and fixed for determinism.
FAULT_HORIZON_S = 120.0
#: Seed for the bundled scenarios' stochastic structure (flap timing).
FAULT_SCENARIO_SEED = 0


@dataclass(frozen=True)
class AuditCase:
    """One grid point: a workload/policy pair the model must predict."""

    name: str
    model: str
    prompt_len: int
    gen_len: int
    gpu_batch_size: int
    num_gpu_batches: int
    wg: float
    cg: float
    hg: float
    attention_on_cpu: bool = False
    weight_quant: bool = False
    kv_quant: bool = False
    #: Included in the ``--quick`` (CI smoke) sweep.
    quick: bool = False


#: The audit grid.  Cases are chosen to pin every regime the planner can
#: emit: weight-streaming, KV-streaming, CPU attention, quantized W/KV,
#: fully GPU-resident, and both small and paper-scale layer counts.
AUDIT_GRID: tuple[AuditCase, ...] = (
    AuditCase(
        "opt30b-weight-stream", "opt-30b", 64, 16, 64, 4,
        wg=0.4, cg=0.0, hg=0.0, quick=True,
    ),
    AuditCase(
        "opt30b-cpu-attn", "opt-30b", 64, 16, 64, 4,
        wg=0.4, cg=0.0, hg=1.0, attention_on_cpu=True, quick=True,
    ),
    AuditCase(
        "opt30b-kv-stream", "opt-30b", 64, 16, 32, 8,
        wg=0.0, cg=0.5, hg=0.0,
    ),
    AuditCase(
        "opt30b-kv-quant", "opt-30b", 64, 16, 64, 4,
        wg=0.2, cg=0.25, hg=0.0, kv_quant=True,
    ),
    AuditCase(
        "opt30b-w4-stream", "opt-30b", 64, 16, 64, 4,
        wg=0.2, cg=0.0, hg=0.0, weight_quant=True,
    ),
    AuditCase(
        "opt30b-long-ctx", "opt-30b", 512, 16, 32, 4,
        wg=0.4, cg=0.0, hg=0.0,
    ),
    AuditCase(
        "opt1.3b-resident", "opt-1.3b", 64, 16, 64, 2,
        wg=1.0, cg=1.0, hg=1.0, quick=True,
    ),
    AuditCase(
        "opt1.3b-cpu-attn", "opt-1.3b", 64, 16, 64, 2,
        wg=0.5, cg=0.0, hg=1.0, attention_on_cpu=True,
    ),
    AuditCase(
        "opt6.7b-mixed", "opt-6.7b", 64, 16, 32, 4,
        wg=0.6, cg=0.5, hg=0.0,
    ),
    AuditCase(
        "llama13b-w4kv4", "llama-13b", 64, 16, 32, 4,
        wg=0.3, cg=0.25, hg=0.0, weight_quant=True, kv_quant=True,
    ),
)


def _grouped_terms(costs) -> dict[str, float]:
    """Eq. 2's max(...) arguments under the resource grouping the
    executor enforces (three H2D loads serialize, two D2H stores do)."""
    return {
        "h2d": costs.load_weight + costs.load_cache + costs.load_activation,
        "d2h": costs.store_cache + costs.store_activation,
        "compute": costs.compute,
    }


def audit_case(
    case: AuditCase,
    hw,
    ctx,
    full: bool = True,
) -> dict[str, Any]:
    """Run one grid point; returns its JSON-ready audit record."""
    import numpy as np

    from repro.models import get_model
    from repro.offload.policy import OffloadPolicy
    from repro.perfmodel.latency import CostModel
    from repro.obs.drift import steady_state
    from repro.perfmodel.notation import Workload
    from repro.quant.config import QuantConfig
    from repro.runtime.executor import OverlappedExecutor
    from repro.runtime.tasks import TaskCosts

    model_cfg = get_model(case.model)
    workload = Workload(
        model_cfg, case.prompt_len, case.gen_len,
        case.gpu_batch_size, case.num_gpu_batches,
    )
    quant = QuantConfig(bits=4, group_size=64)
    policy = OffloadPolicy(
        wg=case.wg, cg=case.cg, hg=case.hg,
        attention_on_cpu=case.attention_on_cpu,
        weight_quant=quant if case.weight_quant else None,
        kv_quant=quant if case.kv_quant else None,
        gpu_batch_size=case.gpu_batch_size,
        num_gpu_batches=case.num_gpu_batches,
    )
    model = CostModel(workload, policy, hw, ctx)
    iters = model_cfg.num_layers * case.num_gpu_batches
    steady, costs = steady_state(model)
    predicted = steady["predicted_s"]
    predicted_literal = costs.step_time() * iters

    terms = _grouped_terms(costs)
    dominant = max(terms, key=lambda k: (terms[k], k))
    record: dict[str, Any] = {
        "name": case.name,
        "config": {
            "model": case.model,
            "prompt_len": case.prompt_len,
            "gen_len": case.gen_len,
            "gpu_batch_size": case.gpu_batch_size,
            "num_gpu_batches": case.num_gpu_batches,
            "wg": case.wg,
            "cg": case.cg,
            "hg": case.hg,
            "attention_on_cpu": case.attention_on_cpu,
            "weight_quant": "w4g64" if case.weight_quant else None,
            "kv_quant": "w4g64" if case.kv_quant else None,
        },
        "steady_state": {
            **steady,
            "dominant_term": dominant,
            "terms_s": {k: v * iters for k, v in terms.items()},
            "bottleneck_task": costs.bottleneck().value,
            #: How optimistic the paper's literal six-task max is vs the
            #: grouped reality (0 when no two same-direction tasks overlap).
            "literal_eq2_optimism": (
                (predicted - predicted_literal) / predicted if predicted > 0 else 0.0
            ),
        },
    }

    if full:
        executor = OverlappedExecutor(model_cfg.num_layers, case.num_gpu_batches)
        tokens = np.arange(case.gen_len - 1, dtype=np.float64)
        decode = [
            TaskCosts(*row) for row in model.decode_task_costs_vec(tokens).tolist()
        ]
        trace = executor.run_generation(
            model.prefill_task_costs(), decode, case.gen_len
        )
        predicted_decode = model.decode_seconds()
        e2e_err = (
            abs(trace.decode_seconds - predicted_decode) / trace.decode_seconds
            if trace.decode_seconds > 0
            else 0.0
        )
        record["full_generation"] = {
            "predicted_decode_s": predicted_decode,
            "simulated_decode_s": trace.decode_seconds,
            "rel_err": e2e_err,
        }
    return record


def _execution_context(platform):
    """(HardwareParams, CpuExecutionContext) the audit prices a platform
    with — rebuilt from scratch so a degraded platform re-derives its CPU
    topology, contention model and thread allocation like the serving
    watchdog does."""
    from repro.parallel.speedup import ContentionModel
    from repro.parallel.topology import CpuTopology
    from repro.perfmodel.latency import CpuExecutionContext
    from repro.perfmodel.notation import HardwareParams

    hw = HardwareParams.from_platform(platform)
    topology = CpuTopology.from_device(platform.cpu)
    contention = ContentionModel(topology, platform.cache)
    ctx = CpuExecutionContext.pytorch_default(topology, contention)
    return hw, ctx


def _faulted_sweep(
    platform,
    cases: list[AuditCase],
    registry: MetricsRegistry,
    gate: DriftGate,
) -> dict[str, Any]:
    """Price the audit grid under every bundled chaos scenario.

    Each scenario's distinct degraded capability windows
    (:func:`~repro.obs.drift.price_windows`) rebuild the execution
    context from the faulted platform and re-run the steady-state Eq. 2
    vs executor comparison for every case; ``gate`` checks every
    case-window.  Whole-generation replays are skipped — the fault gate
    is about whether degradation changes *how well the model tracks the
    executor*, and steady state is where that shows.
    """
    from repro.faults import make_scenario
    from repro.faults.scenarios import SCENARIOS
    from repro.obs.drift import price_windows

    def price(t: float) -> dict[str, Any]:
        hw_f, ctx_f = _execution_context(platform.with_faults(schedule, t))
        records = [audit_case(case, hw_f, ctx_f, full=False) for case in cases]
        window = DriftGate(gate.tolerance)
        for record in records:
            window.add(record["name"], record["steady_state"]["rel_err"])
        return {
            "cases": records,
            "worst_case": window.worst,
            "max_rel_err": window.max_rel_err,
            "mean_rel_err": window.mean_rel_err,
        }

    scenarios: list[dict[str, Any]] = []
    kind_worst: dict[str, float] = {}
    for scenario_name in SCENARIOS:
        schedule = make_scenario(
            scenario_name, FAULT_HORIZON_S, seed=FAULT_SCENARIO_SEED
        )
        windows = price_windows(schedule, price)
        for idx, win in enumerate(windows):
            registry.counter("audit.faulted.windows").inc()
            for record in win["cases"]:
                err = record["steady_state"]["rel_err"]
                registry.histogram("audit.faulted.rel_err").observe(err)
                gate.add(f"{scenario_name}/{idx}/{record['name']}", err)
            for kind in win["window"]["kinds"]:
                kind_worst[kind] = max(kind_worst.get(kind, 0.0), win["max_rel_err"])
        worst_idx = max(
            range(len(windows)), key=lambda i: (windows[i]["max_rel_err"], -i)
        )
        scenarios.append({
            "scenario": scenario_name,
            "schedule": schedule.to_dict(),
            "num_windows": sum(w["window"]["occurrences"] for w in windows),
            "num_unique_windows": len(windows),
            "windows": windows,
            "worst_window": worst_idx,
            "max_rel_err": windows[worst_idx]["max_rel_err"],
        })
        registry.counter("audit.faulted.scenarios").inc()

    #: The fault kind whose windows drift the model most.  Compound
    #: windows credit every kind present — "dominates" means "was active
    #: when the worst drift happened", not a causal attribution.
    dominant = max(kind_worst, key=lambda k: (kind_worst[k], k))
    return {
        "horizon_s": FAULT_HORIZON_S,
        "seed": FAULT_SCENARIO_SEED,
        "tolerance": gate.tolerance,
        "scenarios": scenarios,
        "summary": {
            "num_scenarios": len(scenarios),
            "num_windows": sum(s["num_unique_windows"] for s in scenarios),
            "num_cases_priced": len(gate.errs),
            **gate.summary(),
            "dominant_fault": dominant,
            "by_fault_kind": {k: kind_worst[k] for k in sorted(kind_worst)},
        },
    }


def run_audit(
    tolerance: float = DEFAULT_TOLERANCE,
    e2e_tolerance: float = DEFAULT_E2E_TOLERANCE,
    quick: bool = False,
    faults: bool = False,
    fault_tolerance: float = DEFAULT_TOLERANCE,
) -> dict[str, Any]:
    """Sweep the grid; returns the ``BENCH_audit.json`` payload.

    ``quick`` restricts the sweep to the smoke subset and skips the (slow)
    whole-generation executor replays; the steady-state check — the one
    the tolerance gate applies to — still runs for every included case.
    ``faults`` adds the faulted sweep: the same grid re-priced under each
    bundled chaos scenario's degraded platforms, gated by its own
    ``fault_tolerance``.  The zero-fault payload is byte-identical whether
    or not the flag exists — the ``faulted`` section only appears when
    requested.
    """
    from repro.hardware import single_a100

    steady = DriftGate(tolerance, "tolerance")
    e2e = DriftGate(e2e_tolerance, "e2e_tolerance")
    fault_gate = DriftGate(fault_tolerance, "fault_tolerance") if faults else None
    platform = single_a100()
    hw, ctx = _execution_context(platform)

    cases = [c for c in AUDIT_GRID if (c.quick or not quick)]
    registry = MetricsRegistry(namespace="audit")
    records: list[dict[str, Any]] = []
    with span("obs.audit.sweep"):
        for case in cases:
            record = audit_case(case, hw, ctx, full=not quick)
            records.append(record)
            registry.counter("audit.cases").inc()
            registry.histogram("audit.steady_state.rel_err").observe(
                record["steady_state"]["rel_err"]
            )
            registry.counter(
                f"audit.dominant.{record['steady_state']['dominant_term']}"
            ).inc()
            steady.add(record["name"], record["steady_state"]["rel_err"])
            if "full_generation" in record:
                registry.histogram("audit.full_generation.rel_err").observe(
                    record["full_generation"]["rel_err"]
                )
                e2e.add(record["name"], record["full_generation"]["rel_err"])

    faulted: dict[str, Any] | None = None
    if fault_gate is not None:
        with span("obs.audit.faulted_sweep"):
            faulted = _faulted_sweep(platform, cases, registry, fault_gate)

    payload: dict[str, Any] = {
        "schema_version": SCHEMA_VERSION,
        "quick": quick,
        "tolerance": tolerance,
        "e2e_tolerance": e2e_tolerance,
        "cases": records,
        "summary": {
            "num_cases": len(records),
            "worst_case": steady.worst,
            "max_rel_err": steady.max_rel_err,
            "mean_rel_err": steady.mean_rel_err,
            "over_tolerance": sorted(steady.over),
            "e2e_over_tolerance": sorted(e2e.over),
            "ok": steady.ok and e2e.ok,
        },
        "metrics": registry.to_dict(),
    }
    if faulted is not None:
        payload["fault_tolerance"] = fault_tolerance
        payload["faulted"] = faulted
    return payload


def write_bench_audit(
    path: str = "BENCH_audit.json", **kwargs: Any
) -> dict[str, Any]:
    """Run the audit and write the payload to ``path`` (deterministic)."""
    from repro.util import write_json

    payload = run_audit(**kwargs)
    write_json(path, payload)
    return payload


def audit_rows(payload: dict[str, Any]) -> list[dict[str, Any]]:
    """Flatten one audit payload into CLI table rows."""
    rows: list[dict[str, Any]] = []
    for record in payload["cases"]:
        ss = record["steady_state"]
        row = {
            "case": record["name"],
            "predicted_s": round(ss["predicted_s"], 4),
            "simulated_s": round(ss["simulated_s"], 4),
            "rel_err": round(ss["rel_err"], 4),
            "dominates": ss["dominant_term"],
            "task": ss["bottleneck_task"],
            "eq2_optimism": round(ss["literal_eq2_optimism"], 4),
        }
        fg = record.get("full_generation")
        row["e2e_err"] = round(fg["rel_err"], 4) if fg else "-"
        rows.append(row)
    return rows


def faulted_rows(payload: dict[str, Any]) -> list[dict[str, Any]]:
    """Flatten the ``faulted`` section into CLI table rows (one per
    unique degraded-platform window)."""
    rows: list[dict[str, Any]] = []
    for scenario in payload["faulted"]["scenarios"]:
        for idx, win in enumerate(scenario["windows"]):
            w = win["window"]
            rows.append({
                "scenario": scenario["scenario"],
                "window": f"{w['start_s']:.1f}-{w['end_s']:.1f}s",
                "x": w["occurrences"],
                "faults": "+".join(w["kinds"]),
                "worst_case": win["worst_case"],
                "max_rel_err": round(win["max_rel_err"], 4),
                "mean_rel_err": round(win["mean_rel_err"], 4),
            })
    return rows
