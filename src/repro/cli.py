"""Command-line interface: ``python -m repro <command>``.

Commands
--------
models            list registered model configurations
plan              search the best LM-Offload policy for a workload
run               plan + evaluate one or all engines on a workload
experiment        regenerate one of the paper's tables/figures
whatif            hardware sensitivity sweep
trace             export a Chrome trace of a decode schedule
serve-sim         request-level serving simulation, write BENCH_serving.json
chaos             fault-injection serving runs, write BENCH_chaos.json
fleet-sim         multi-replica fleet simulation, write BENCH_fleet.json
bench-timing      time the planner/cost-model hot path, write BENCH_timing.json
audit             model-vs-runtime drift audit, write BENCH_audit.json

Exit codes
----------
Failures propagate as typed errors and map to distinct statuses (they
used to be swallowed into prints + generic codes, so scripts could not
tell a bad flag from an infeasible workload):

* 0 — success
* 1 — command ran but its own gate failed (chaos accounting, audit drift)
* 2 — argparse usage error
* 3 — :class:`~repro.errors.ConfigError` (bad/unknown configuration)
* 4 — planner infeasibility (:class:`~repro.errors.PolicyError`,
  :class:`~repro.errors.MemoryCapacityError`)
* 5 — :class:`~repro.errors.ScheduleError` (malformed schedule)
* 6 — any other :class:`~repro.errors.ReproError`
"""

from __future__ import annotations

import argparse
import sys
from itertools import product

from repro.bench.tables import format_table
from repro.errors import (
    ConfigError,
    MemoryCapacityError,
    PolicyError,
    ReproError,
    ScheduleError,
)
from repro.util import write_json

EXIT_CONFIG = 3
EXIT_INFEASIBLE = 4
EXIT_SCHEDULE = 5
EXIT_REPRO = 6


def _add_workload_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--model", default="opt-30b", help="registered model name")
    parser.add_argument("--prompt-len", type=int, default=64)
    parser.add_argument("--gen-len", type=int, default=32)
    parser.add_argument("--batch", type=int, default=64, help="GPU batch size")
    parser.add_argument("--num-batches", type=int, default=10, help="zig-zag batches")


def _add_serving_args(parser: argparse.ArgumentParser, output: str) -> None:
    """The options serve-sim, chaos and fleet-sim share."""
    from repro.serving.policies import POLICIES

    parser.add_argument("--model", default="opt-30b", help="registered model name")
    parser.add_argument("--scheduler", default="fcfs", choices=list(POLICIES))
    parser.add_argument(
        "--max-batch", type=int, default=64,
        help="max sequences per step (per replica in fleet-sim)",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--quick", action="store_true", help="short trace (CI smoke)")
    parser.add_argument(
        "--chrome-trace", help="export one run's timeline here (Chrome trace JSON)"
    )
    parser.add_argument(
        "--metrics-out",
        help="write the typed metrics-registry JSON (one document per run) here",
    )
    parser.add_argument("--output", default=output)


def _workload(args):
    from repro.models import get_model
    from repro.perfmodel import Workload

    return Workload(
        get_model(args.model), args.prompt_len, args.gen_len,
        args.batch, args.num_batches,
    )


def cmd_models(args) -> int:
    from repro.models import get_model, list_models

    rows = []
    for name in list_models():
        cfg = get_model(name)
        rows.append(
            {
                "name": name,
                "layers": cfg.num_layers,
                "h1": cfg.hidden_size,
                "h2": cfg.intermediate_size,
                "heads": cfg.num_heads,
                "params_B": round(cfg.total_weights / 1e9, 2),
            }
        )
    print(format_table(rows, "Registered models"))
    return 0


def cmd_plan(args) -> int:
    from repro.core import LMOffloadEngine
    from repro.hardware import single_a100
    from repro.offload.serialization import policy_to_json

    engine = LMOffloadEngine(single_a100())
    workload = _workload(args)
    if args.search_geometry:
        planner = engine.planner()
        policy, workload, _ = planner.search_batch_geometry(workload)
        failures = planner.last_geometry_failures
        print(f"workload: {workload.describe()}  (geometry searched)")
        print(f"policy:   {policy.describe()}")
        if failures:
            print(f"rejected geometries: {len(failures)}")
            for bsz, k, reason in failures[: args.max_failures]:
                print(f"  bsz={bsz} k={k}: {reason}")
            if len(failures) > args.max_failures:
                print(f"  ... and {len(failures) - args.max_failures} more")
        else:
            print("rejected geometries: 0")
    else:
        policy, _, plan = engine.plan(workload)
        print(f"workload: {workload.describe()}")
        print(f"policy:   {policy.describe()}")
        if plan is not None:
            print(f"threads:  {plan.describe()}")
    if args.save:
        with open(args.save, "w", encoding="utf-8") as fh:
            fh.write(policy_to_json(policy))
        print(f"policy written to {args.save}")
    return 0


def cmd_run(args) -> int:
    from repro.baselines import ENGINES, make_engine

    workload = _workload(args)
    # spec-offload plans (and therefore batch-runs) exactly like
    # lm-offload — speculation is a serving-step price transform, so it
    # shows up in serve-sim/spec-sim, not in the offline table row.
    names = list(ENGINES) if args.engine == "all" else [args.engine]
    rows = []
    for name in names:
        report = make_engine(name).run(workload)
        row = report.table_row()
        row["policy"] = report.policy.describe()
        rows.append(row)
    print(format_table(rows, f"{workload.describe()}"))
    return 0


EXPERIMENTS = {
    "fig3": "run_fig3_quant_strategies",
    "fig4": "run_fig4_breakdown",
    "tab1": "run_tab1_io_traffic",
    "fig5": "run_fig5_parallelism_sweep",
    "tab3": "run_tab3_overall",
    "fig7": "run_fig7_effective_quantization",
    "fig8": "run_fig8_parallelism_control",
    "tab5": "run_tab5_llc_misses",
    "fig9": "run_fig9_multigpu",
}


def cmd_experiment(args) -> int:
    import repro.bench as bench

    runner = getattr(bench, EXPERIMENTS[args.name])
    result = runner()
    if isinstance(result, list):
        print(format_table(result, f"experiment {args.name}"))
    elif isinstance(result, dict) and all(isinstance(v, list) for v in result.values()):
        for key, rows in result.items():
            print(format_table(rows, f"experiment {args.name} [{key}]"))
    else:
        import json

        print(json.dumps(result, indent=2, default=str))
    return 0


def cmd_whatif(args) -> int:
    from repro.bench.whatif import run_whatif, whatif_rows

    workload = _workload(args)
    rows = whatif_rows(
        run_whatif(workload, samples=args.samples, seed=args.seed)
    )
    print(format_table(rows, f"what-if: {workload.describe()}"))
    return 0


def _serve_sim_config(args):
    """The serving-loop config serve-sim's flags describe."""
    from repro.serving.simulator import ServingConfig

    return ServingConfig(
        max_batch=args.max_batch,
        num_gpu_batches=args.num_batches,
        queue_capacity=args.queue_capacity,
        queue_timeout_s=args.queue_timeout,
        ttft_slo_s=args.ttft_slo,
        tpot_slo_s=args.tpot_slo,
    )


def _write_metrics(
    path: str, registries: dict, label: str = "metrics registry"
) -> None:
    """Write one metrics-registry document per run to ``path``; a tuple
    key ``(a, b)`` nests the run's document as ``doc[a][b]``."""
    import json

    doc: dict = {}
    for key, registry in registries.items():
        if isinstance(key, tuple):
            doc.setdefault(key[0], {})[key[1]] = registry.to_dict()
        else:
            doc[key] = registry.to_dict()
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"{label} written to {path}")


def _serve_sim_models(args) -> int:
    """Multi-model mode: dedicated-vs-coresident comparison per mix."""
    from repro.bench.multimodel import multimodel_rows, run_multimodel_bench

    if args.arrival != "poisson" or args.trace_file:
        raise ConfigError(
            "serve-sim: --models generates its own tagged traffic mixes; "
            "drop --arrival/--trace-file"
        )
    if args.chrome_trace or args.metrics_out or args.scenario:
        raise ConfigError(
            "serve-sim: --models does not support --chrome-trace, "
            "--metrics-out or --scenario"
        )
    engine = "lm-offload" if args.engine == "all" else args.engine
    payload = run_multimodel_bench(
        preset=args.models,
        engine=engine,
        config=_serve_sim_config(args),
        quick=args.quick,
        seed=args.seed,
    )
    print(f"models: {', '.join(payload['models'])}   engine: {engine}   "
          f"seed: {args.seed}")
    print(format_table(multimodel_rows(payload),
                       f"serve-sim --models {args.models}"))
    output = (
        args.output if args.output != "BENCH_serving.json"
        else "BENCH_multimodel.json"
    )
    write_json(output, payload)
    print(f"written to {output}")
    return 0


def cmd_serve_sim(args) -> int:
    from repro.bench.serving import ENGINES, run_serving_comparison
    from repro.serving import (
        LengthSampler,
        default_trace,
        export_request_timeline,
        load_trace,
        metrics_registry,
        metrics_row,
        mmpp_trace,
        poisson_trace,
    )

    if args.models:
        return _serve_sim_models(args)
    lengths = LengthSampler(
        prompt_mean=args.prompt_mean, gen_mean=args.gen_mean, max_len=args.max_len
    )
    if args.arrival == "poisson":
        if args.rate == 2.0 and args.duration == 30.0 and args.prompt_mean == 64:
            trace = default_trace(quick=args.quick, seed=args.seed)
        else:
            trace = poisson_trace(
                args.rate, args.duration, seed=args.seed, lengths=lengths,
                priority_levels=args.priority_levels,
            )
    elif args.arrival == "bursty":
        trace = mmpp_trace(
            args.rate, args.burst_rate, args.duration, seed=args.seed,
            lengths=lengths, priority_levels=args.priority_levels,
        )
    else:  # replay
        if not args.trace_file:
            raise ConfigError("serve-sim: --arrival replay requires --trace-file")
        trace = load_trace(args.trace_file)

    config = _serve_sim_config(args)
    engines = tuple(ENGINES) if args.engine == "all" else (args.engine,)
    if args.spec and "spec-offload" not in engines:
        engines = engines + ("spec-offload",)
    if args.no_steps and args.chrome_trace:
        raise ConfigError(
            "serve-sim: --no-steps discards the per-step records that "
            "--chrome-trace exports; drop one of the flags"
        )
    payload, results = run_serving_comparison(
        model_name=args.model,
        trace=trace,
        scheduler=args.scheduler,
        config=config,
        engines=engines,
        seed=args.seed,
        # Under --no-steps (the throughput mode) the registry export has
        # only the aggregate-derived series: the curve.* series are
        # derived from the per-step record it discards.
        collect_steps=not args.no_steps,
        scenario=args.scenario,
    )
    print(f"trace:     {trace.describe()}")
    print(f"scheduler: {args.scheduler}   "
          f"SLO: ttft<={args.ttft_slo:g}s tpot<={args.tpot_slo:g}s")
    if args.scenario:
        print(f"scenario:  {args.scenario} (windows scaled to each "
              "engine's fault-free makespan)")
    rows = [metrics_row(payload["engines"][name]) for name in engines]
    print(format_table(rows, f"serve-sim: {args.model}"))
    ratios = payload["comparison"].get("goodput_vs_flexgen")
    if ratios:
        parts = []
        for name, ratio in ratios.items():
            if name == "flexgen":
                continue
            if ratio is None:
                rps = payload["engines"][name]["slo"]["goodput_rps"]
                parts.append(f"{name}={rps:.3f} rps (flexgen=0, ratio undefined)")
            else:
                parts.append(f"{name}={ratio:.2f}x")
        print(f"goodput vs flexgen: {'  '.join(parts)}")
    write_json(args.output, payload)
    print(f"written to {args.output}")
    if args.metrics_out:
        _write_metrics(
            args.metrics_out,
            {name: metrics_registry(results[name]) for name in engines},
        )
    if args.chrome_trace:
        name = engines[0] if len(engines) == 1 else "lm-offload"
        builder = export_request_timeline(results[name])
        metrics_registry(results[name]).export_chrome(
            builder, ts_s=results[name].makespan_s
        )
        builder.save(args.chrome_trace)
        print(
            f"request timeline ({name}, {builder.num_slices} steps) "
            f"written to {args.chrome_trace}"
        )
    return 0


def cmd_spec_sim(args) -> int:
    from repro.bench.spec import run_spec_sweep, spec_rows
    from repro.perfmodel.speculation import SpecConfig

    spec = SpecConfig(
        tree_size=args.tree_size,
        max_width=args.max_width,
        draft_compute_ratio=args.draft_ratio,
        kv_retrieval_budget=args.kv_budget,
    )
    payload = run_spec_sweep(
        model_name=args.model, spec=spec, quick=args.quick
    )
    print(f"spec:  {spec.describe()}")
    print(format_table(spec_rows(payload), f"spec-sim: {args.model}"))
    comp = payload["comparison"]
    print(
        f"best speedup: {comp['best_speedup']:.2f}x at "
        f"ctx={comp['best_cell']['context']} alpha={comp['best_cell']['alpha']:g}  "
        f"(long-context wins: {comp['long_context_wins']})"
    )
    write_json(args.output, payload)
    print(f"written to {args.output}")
    return 0


def cmd_trace(args) -> int:
    import numpy as np

    from repro.core import LMOffloadEngine
    from repro.hardware import single_a100
    from repro.perfmodel import CostModel
    from repro.runtime.tasks import TaskCosts
    from repro.trace import trace_decode_schedule

    workload = _workload(args)
    engine = LMOffloadEngine(single_a100())
    policy, ctx, _ = engine.plan(workload)
    model = CostModel(workload, policy, engine.hw, ctx, engine.config.calibration)
    tokens = min(args.tokens, workload.gen_len - 1)
    costs = [
        TaskCosts(*row)
        for row in model.decode_task_costs_vec(np.arange(tokens)).tolist()
    ]
    layers = min(args.layers, workload.model.num_layers)
    builder = trace_decode_schedule(
        costs, num_layers=layers, num_gpu_batches=policy.num_gpu_batches
    )
    builder.save(args.output)
    print(
        f"wrote {builder.num_slices} slices ({tokens} tokens x {layers} layers) "
        f"to {args.output} — open in chrome://tracing or Perfetto"
    )
    return 0


def _gate_verdict(
    title: str,
    summary: dict,
    tolerance: float,
    priced: str,
    unit: str,
    extra: str = "",
) -> int:
    """Print one drift gate's summary line; when the gate failed, name its
    over-tolerance refs on stderr.  Returns the gate's exit code."""
    print(
        f"{title}: {priced} priced   worst: {summary['worst']} "
        f"(rel_err={summary['max_rel_err']:.4g})   {extra}"
        f"tolerance: {tolerance:g}"
    )
    if not summary["ok"]:  # reach: safety code, reports a failed drift gate
        over = summary["over_tolerance"]
        print(
            f"{title.upper()}: {len(over)} {unit} over tolerance: "
            f"{', '.join(over)}",
            file=sys.stderr,
        )
        return 1
    return 0


def cmd_chaos(args) -> int:
    from repro.bench.chaos import chaos_rows, run_chaos
    from repro.bench.serving import ENGINES
    from repro.faults import SCENARIOS
    from repro.serving import (
        default_trace,
        export_request_timeline,
        metrics_registry,
    )
    from repro.serving.simulator import ServingConfig

    engines = tuple(ENGINES) if args.engine == "all" else (args.engine,)
    scenarios = tuple(SCENARIOS) if args.scenario == "all" else (args.scenario,)
    trace = default_trace(quick=args.quick, seed=args.seed)
    config = ServingConfig(
        max_batch=args.max_batch,
        retry_limit=args.retry_limit,
        backoff_base_s=args.backoff_base,
        backoff_cap_s=args.backoff_cap,
        request_deadline_s=args.deadline,
    )
    payload, results = run_chaos(
        model_name=args.model,
        trace=trace,
        scheduler=args.scheduler,
        config=config,
        engines=engines,
        scenarios=scenarios,
        seed=args.seed,
        drift_gate=args.drift_gate,
        drift_tolerance=args.drift_tolerance,
        serving_drift_gate=args.serving_drift_gate,
        serving_drift_tolerance=args.serving_drift_tolerance,
    )
    print(f"trace: {trace.describe()}   seed: {args.seed}")
    print(format_table(chaos_rows(payload), f"chaos: {args.model}"))
    code = 0
    if not payload["all_accounting_ok"]:  # reach: safety code, reports a failed accounting check
        print("WARNING: request accounting failed for at least one run")
        code = 1
    if args.drift_gate:
        gate = payload["drift"]
        code |= _gate_verdict(
            "plan-window drift", gate["summary"], gate["tolerance"],
            f"{gate['summary']['num_windows_priced']} window(s)", "window(s)",
        )
    if args.serving_drift_gate:
        gate = payload["serving_drift"]
        code |= _gate_verdict(
            "executed-step drift", gate["summary"], gate["tolerance"],
            f"{gate['summary']['num_step_groups_priced']} step group(s)",
            "run(s)",
        )
    write_json(args.output, payload)
    print(f"written to {args.output}")
    if args.metrics_out:
        _write_metrics(
            args.metrics_out,
            {
                key: metrics_registry(results[key])
                for key in product(engines, scenarios)
            },
        )
    if args.chrome_trace:
        engine = engines[0] if len(engines) == 1 else "lm-offload"
        scenario = scenarios[0]
        builder = export_request_timeline(results[(engine, scenario)])
        builder.save(args.chrome_trace)
        print(
            f"chaos timeline ({engine} x {scenario}) written to "
            f"{args.chrome_trace}"
        )
    return code


def cmd_fleet_sim(args) -> int:
    from repro.bench.fleet import fleet_rows, run_fleet_bench
    from repro.serving import (
        FLEET_PRESETS,
        FLEET_SCENARIOS,
        FleetConfig,
        fleet_metrics_registry,
    )
    from repro.serving.simulator import ServingConfig

    presets = None if args.fleet == "all" else (args.fleet,)
    if args.fleet == "all" and not args.quick:
        presets = tuple(FLEET_PRESETS)
    scenarios = (
        tuple(FLEET_SCENARIOS) if args.scenario == "all" else (args.scenario,)
    )
    # Argparse defaults mirror default_fleet_config(), so a flagless
    # invocation builds the exact config the bench library uses.
    config = FleetConfig(
        serving=ServingConfig(max_batch=args.max_batch),
        migration_budget=args.migration_budget,
        hedge_after_s=args.hedge_after if args.hedge_after > 0 else None,
        breaker_threshold=args.breaker_threshold,
        breaker_cooldown_s=args.breaker_cooldown,
    )
    collect_steps = bool(args.chrome_trace or args.metrics_out)
    payload, results = run_fleet_bench(
        model_name=args.model,
        presets=presets,
        scenarios=scenarios,
        scheduler=args.scheduler,
        config=config,
        quick=args.quick,
        seed=args.seed,
        collect_steps=collect_steps,
    )
    ran_presets = list(payload["fleets"])
    print(
        f"fleets: {', '.join(ran_presets)}   scenarios: "
        f"{', '.join(scenarios)}   seed: {args.seed}"
    )
    print(format_table(fleet_rows(payload), f"fleet-sim: {args.model}"))
    if not payload["all_accounting_ok"]:  # reach: safety code, reports a failed accounting check
        print("WARNING: fleet request accounting failed for at least one run")
    write_json(args.output, payload)
    print(f"written to {args.output}")
    if args.metrics_out:
        _write_metrics(
            args.metrics_out,
            {key: fleet_metrics_registry(r) for key, r in results.items()},
            "fleet metrics registry",
        )
    if args.chrome_trace:
        from repro.serving import export_fleet_timeline

        preset = ran_presets[0]
        scenario = next(
            (s for s in scenarios if s != "none"), "none"
        )
        builder = export_fleet_timeline(results[(preset, scenario)])
        builder.save(args.chrome_trace)
        print(
            f"fleet timeline ({preset} x {scenario}, "
            f"{builder.num_slices} slices) written to {args.chrome_trace}"
        )
    return 0 if payload["all_accounting_ok"] else 1


def cmd_bench_timing(args) -> int:
    from repro.bench.timing import write_bench_timing

    registry = None
    if args.metrics_out:
        from repro.obs.registry import MetricsRegistry

        registry = MetricsRegistry(namespace="bench-timing")
    payload = write_bench_timing(
        path=args.output, quick=args.quick, registry=registry
    )
    rows = []
    for name, r in payload["targets"].items():
        rows.append(
            {
                "target": name,
                "median_ms": round(r["median_s"] * 1e3, 3),
                "best_ms": round(r["best_s"] * 1e3, 3),
                "baseline_ms": round(r["baseline_median_s"] * 1e3, 3),
                "speedup": round(r["speedup_vs_baseline"], 2),
                "repeats": r["repeats"],
            }
        )
    mode = "quick" if payload["quick"] else "full"
    print(format_table(rows, f"bench-timing ({mode}) — {payload['workload']}"))
    print(f"written to {args.output}")
    if registry is not None:
        registry.save(args.metrics_out)
        print(f"metrics registry written to {args.metrics_out}")
    return 0


def cmd_audit(args) -> int:
    from repro.obs.audit import audit_rows, faulted_rows, write_bench_audit

    payload = write_bench_audit(
        path=args.output,
        tolerance=args.tolerance,
        e2e_tolerance=args.e2e_tolerance,
        quick=args.quick,
        faults=args.faults,
        fault_tolerance=args.fault_tolerance,
    )
    mode = "quick" if payload["quick"] else "full"
    print(format_table(audit_rows(payload), f"drift audit ({mode})"))
    summary = payload["summary"]
    # The fault-free gate fails on either steady-state or whole-generation
    # drift; both name their cases.
    code = _gate_verdict(
        "drift",
        dict(
            summary,
            worst=summary["worst_case"],
            over_tolerance=summary["over_tolerance"]
            + summary["e2e_over_tolerance"],
        ),
        payload["tolerance"],
        f"{summary['num_cases']} case(s)",
        "case(s)",
    )
    if args.faults:
        print(format_table(faulted_rows(payload), f"faulted drift audit ({mode})"))
        fs = payload["faulted"]["summary"]
        code |= _gate_verdict(
            "faulted drift", fs, payload["fault_tolerance"],
            f"{fs['num_cases_priced']} case-window(s)", "case-window(s)",
            extra=f"dominant fault: {fs['dominant_fault']}   ",
        )
    print(f"written to {args.output}")
    return code


def build_parser() -> argparse.ArgumentParser:
    from repro.baselines import ENGINES
    from repro.faults import SCENARIOS
    from repro.obs.drift import (
        DEFAULT_E2E_TOLERANCE,
        DEFAULT_SERVING_DRIFT_TOLERANCE,
        DEFAULT_TOLERANCE,
    )
    from repro.serving.fleet import FLEET_PRESETS, FLEET_SCENARIOS

    engine_choices = ["all", *ENGINES]
    parser = argparse.ArgumentParser(
        prog="repro", description="LM-Offload reproduction CLI"
    )
    parser.add_argument(
        "--profile", action="store_true",
        help="enable profiling hooks; print the scope/cache report to "
        "stderr when the command finishes (goes before the subcommand)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("models", help="list model configurations").set_defaults(
        func=cmd_models
    )

    p = sub.add_parser("plan", help="search the best LM-Offload policy")
    _add_workload_args(p)
    p.add_argument("--save", help="write the policy JSON here")
    p.add_argument(
        "--search-geometry", action="store_true",
        help="also search (batch, num_batches) and report rejected geometries",
    )
    p.add_argument(
        "--max-failures", type=int, default=5,
        help="rejected geometries to list in detail",
    )
    p.set_defaults(func=cmd_plan)

    p = sub.add_parser("run", help="evaluate engine(s) on a workload")
    _add_workload_args(p)
    p.add_argument("--engine", default="all", choices=engine_choices)
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("experiment", help="regenerate a paper table/figure")
    p.add_argument("name", choices=sorted(EXPERIMENTS))
    p.set_defaults(func=cmd_experiment)

    p = sub.add_parser("whatif", help="hardware sensitivity sweep")
    _add_workload_args(p)
    p.add_argument(
        "--samples", type=int, default=0,
        help="extra seeded Monte-Carlo hardware variants",
    )
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_whatif)

    p = sub.add_parser(
        "serve-sim",
        help="request-level serving simulation (arrivals, batching, SLOs)",
    )
    _add_serving_args(p, "BENCH_serving.json")
    p.add_argument(
        "--models", default=None,
        help="multi-model mode: a preset (opt-duo, opt-trio) or "
        "comma-separated model ids co-resident on one platform; runs the "
        "dedicated-vs-coresident comparison across traffic mixes and "
        "writes BENCH_multimodel.json",
    )
    p.add_argument(
        "--arrival", default="poisson", choices=["poisson", "bursty", "replay"]
    )
    p.add_argument("--rate", type=float, default=2.0, help="arrivals/s (base rate)")
    p.add_argument(
        "--burst-rate", type=float, default=8.0, help="bursty phase rate (MMPP)"
    )
    p.add_argument("--duration", type=float, default=30.0, help="trace horizon (s)")
    p.add_argument("--prompt-mean", type=float, default=64)
    p.add_argument("--gen-mean", type=float, default=32)
    p.add_argument("--max-len", type=int, default=256)
    p.add_argument("--priority-levels", type=int, default=1)
    p.add_argument("--trace-file", help="JSON trace to replay (--arrival replay)")
    p.add_argument("--num-batches", type=int, default=1, help="zig-zag batches")
    p.add_argument("--queue-capacity", type=int, default=128)
    p.add_argument("--queue-timeout", type=float, default=None)
    p.add_argument("--ttft-slo", type=float, default=30.0)
    p.add_argument("--tpot-slo", type=float, default=3.5)
    p.add_argument("--engine", default="all", choices=engine_choices)
    p.add_argument(
        "--spec", action="store_true",
        help="also run the speculative spec-offload engine (adds it to "
        "whatever --engine selects)",
    )
    p.add_argument(
        "--scenario", default=None, choices=list(SCENARIOS),
        help="run every engine under this bundled fault scenario "
        "(windows scaled to each engine's fault-free makespan); the "
        "payload gains a 'scenario' section",
    )
    p.add_argument(
        "--no-steps", action="store_true",
        help="skip per-step record retention (fastest; summary metrics "
        "and the aggregate-derived metrics registry are byte-identical, "
        "but --chrome-trace needs steps)",
    )
    p.set_defaults(func=cmd_serve_sim)

    p = sub.add_parser(
        "spec-sim",
        help="speculative-decoding sweep (context x acceptance rate), "
        "write BENCH_spec.json",
    )
    p.add_argument(
        "--model", default="opt-6.7b",
        help="registered model name (default opt-6.7b: the largest whose "
        "128k-context KV fits host memory at batch 1)",
    )
    p.add_argument("--tree-size", type=int, default=8,
                   help="draft-tree nodes including the root")
    p.add_argument("--max-width", type=int, default=2,
                   help="max sibling candidates per tree level")
    p.add_argument("--draft-ratio", type=float, default=0.05,
                   help="draft forward cost as a fraction of a target forward")
    p.add_argument("--kv-budget", type=int, default=4096,
                   help="draft KV-retrieval budget (context tokens)")
    p.add_argument(
        "--quick", action="store_true",
        help="2 contexts x 1 alpha instead of the full 4 x 3 grid (CI smoke)",
    )
    p.add_argument("--output", default="BENCH_spec.json")
    p.set_defaults(func=cmd_spec_sim)

    p = sub.add_parser("trace", help="export a Chrome trace of the schedule")
    _add_workload_args(p)
    p.add_argument("--tokens", type=int, default=2, help="decode tokens to trace")
    p.add_argument("--layers", type=int, default=8, help="layers to trace")
    p.add_argument("--output", default="decode_trace.json")
    p.set_defaults(func=cmd_trace)

    p = sub.add_parser(
        "chaos",
        help="serving under injected faults (seeded scenarios, all engines)",
    )
    _add_serving_args(p, "BENCH_chaos.json")
    p.add_argument("--engine", default="all", choices=engine_choices)
    p.add_argument("--scenario", default="all", choices=["all", *SCENARIOS])
    p.add_argument("--retry-limit", type=int, default=3)
    p.add_argument("--backoff-base", type=float, default=0.5)
    p.add_argument("--backoff-cap", type=float, default=8.0)
    p.add_argument(
        "--deadline", type=float, default=None,
        help="per-request deadline (s) checked at fault aborts",
    )
    p.add_argument(
        "--drift-gate", action="store_true",
        help="also re-price every degraded capability window (Eq. 1/2 vs "
        "the overlapped executor) and fail on drift over tolerance",
    )
    p.add_argument(
        "--drift-tolerance", type=float, default=DEFAULT_TOLERANCE,
        help="max allowed faulted steady-state relative error for "
        "--drift-gate (default %(default)s)",
    )
    p.add_argument(
        "--serving-drift-gate", action="store_true",
        help="re-price the *executed* serving steps of each faulted run "
        "against a fresh fault-retargeted engine and fail on drift over "
        "tolerance (degraded-rung intervals are skipped)",
    )
    p.add_argument(
        "--serving-drift-tolerance", type=float,
        default=DEFAULT_SERVING_DRIFT_TOLERANCE,
        help="max allowed relative step-cost error for "
        "--serving-drift-gate (default %(default)s; looser than "
        "--drift-gate because the watchdog legitimately serves "
        "briefly-stale plans)",
    )
    p.set_defaults(func=cmd_chaos)

    p = sub.add_parser(
        "fleet-sim",
        help="multi-replica fleet simulation (crash domains, failover, "
        "hedges, breakers)",
    )
    _add_serving_args(p, "BENCH_fleet.json")
    p.add_argument(
        "--fleet", default="all", choices=["all", *FLEET_PRESETS],
        help="fleet preset ('all' sweeps every preset; quick mode "
        "restricts 'all' to uniform-6)",
    )
    p.add_argument("--scenario", default="all", choices=["all", *FLEET_SCENARIOS])
    p.add_argument(
        "--migration-budget", type=int, default=2,
        help="crash/restart displacements a request survives before "
        "FAILOVER_EXHAUSTED",
    )
    p.add_argument(
        "--hedge-after", type=float, default=20.0,
        help="hedge a still-token-less request after this many seconds "
        "(0 disables hedging)",
    )
    p.add_argument(
        "--breaker-threshold", type=int, default=3,
        help="consecutive aborted steps that trip a replica's breaker "
        "(0 disables breakers)",
    )
    p.add_argument("--breaker-cooldown", type=float, default=10.0)
    p.set_defaults(func=cmd_fleet_sim)

    p = sub.add_parser(
        "bench-timing", help="time plan()/breakdown()/tab3, write BENCH_timing.json"
    )
    p.add_argument(
        "--quick", action="store_true",
        help="fewer repeats, skip the tab3 sweep (CI smoke)",
    )
    p.add_argument(
        "--metrics-out",
        help="write the raw timing samples as metrics-registry JSON here",
    )
    p.add_argument("--output", default="BENCH_timing.json")
    p.set_defaults(func=cmd_bench_timing)

    p = sub.add_parser(
        "audit",
        help="model-vs-runtime drift audit (Eq. 1/2 vs the event simulator)",
    )
    p.add_argument(
        "--tolerance", type=float, default=DEFAULT_TOLERANCE,
        help="max allowed steady-state relative error (default %(default)s)",
    )
    p.add_argument(
        "--e2e-tolerance", type=float, default=DEFAULT_E2E_TOLERANCE,
        help="max allowed whole-generation relative error "
        "(default %(default)s)",
    )
    p.add_argument(
        "--quick", action="store_true",
        help="smoke subset only, skip whole-generation replays (CI)",
    )
    p.add_argument(
        "--faults", action="store_true",
        help="also re-price the grid under every bundled chaos scenario's "
        "degraded platforms (adds the 'faulted' payload section)",
    )
    p.add_argument(
        "--fault-tolerance", type=float, default=DEFAULT_TOLERANCE,
        help="max allowed faulted steady-state relative error "
        "(default %(default)s)",
    )
    p.add_argument("--output", default="BENCH_audit.json")
    p.set_defaults(func=cmd_audit)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.profile:
            import json as _json

            from repro.obs.profiling import profiling_enabled

            with profiling_enabled() as profiler:
                code = args.func(args)
            print(_json.dumps(profiler.report(), indent=2), file=sys.stderr)
            return code
        return args.func(args)
    except ConfigError as exc:
        print(f"repro: config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (PolicyError, MemoryCapacityError) as exc:
        print(f"repro: infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except ScheduleError as exc:
        print(f"repro: schedule error: {exc}", file=sys.stderr)
        return EXIT_SCHEDULE
    except ReproError as exc:
        print(f"repro: error: {exc}", file=sys.stderr)
        return EXIT_REPRO


if __name__ == "__main__":
    sys.exit(main())
