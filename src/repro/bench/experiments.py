"""Experiment runners — one per paper table/figure.

Each runner returns plain dict-rows so the pytest-benchmark targets,
examples and EXPERIMENTS.md generator all share one implementation.
Every runner prices the paper's single-A100 platform (``single_a100()``).
"""

from __future__ import annotations

from typing import Any

from repro.baselines.flexgen import FlexGenEngine
from repro.baselines.zero_inference import ZeroInferenceEngine
from repro.bench import paper_data
from repro.core.engine import LMOffloadEngine
from repro.core.config import EngineConfig
from repro.errors import PolicyError
from repro.hardware.platform import single_a100
from repro.models.registry import get_model
from repro.offload.policy import OffloadPolicy
from repro.parallel.llc import LLCModel
from repro.parallel.speedup import ParallelismSetting
from repro.perfmodel.latency import CpuExecutionContext
from repro.perfmodel.notation import Workload
from repro.quant.config import QuantConfig
from repro.units import dtype_bytes

Q4 = QuantConfig(bits=4, group_size=64)

#: The motivating workload of §3.1: OPT-30B, s=64, n=128, bsz=64, bls=640.
def motivating_workload(gen_len: int = 128) -> Workload:
    return Workload(get_model("opt-30b"), 64, gen_len, 64, 10)


# ---------------------------------------------------------------------------
# Figure 3 — offloading x quantization strategies
# ---------------------------------------------------------------------------

FIG3_STRATEGIES: list[tuple[str, bool, QuantConfig | None, QuantConfig | None]] = [
    ("cpu/none", True, None, None),
    ("cpu/w4", True, Q4, None),
    ("cpu/kv4", True, None, Q4),
    ("cpu/w4+kv4", True, Q4, Q4),
    ("gpu/none", False, None, None),
    ("gpu/w4", False, Q4, None),
    ("gpu/kv4", False, None, Q4),
    ("gpu/w4+kv4", False, Q4, Q4),
]


def run_fig3_quant_strategies() -> list[dict[str, Any]]:
    """Throughput of every (attention placement, quantization) strategy,
    each at its best feasible placement fractions."""
    planner = LMOffloadEngine(single_a100()).planner()
    workload = motivating_workload()
    rows = []
    for name, attn_cpu, wq, kq in FIG3_STRATEGIES:
        try:
            policy, tput = planner.search_fixed(workload, attn_cpu, wq, kq)
            rows.append(
                {
                    "strategy": name,
                    "tokens_per_s": round(tput, 1),
                    "wg": round(policy.wg, 2),
                    "cg": round(policy.cg, 2),
                    "policy": policy.describe(),
                }
            )
        except PolicyError as exc:
            rows.append({"strategy": name, "tokens_per_s": 0.0, "error": str(exc)})
    return rows


# ---------------------------------------------------------------------------
# Figure 4 — time breakdown (quantize / dequantize / other)
# ---------------------------------------------------------------------------


def run_fig4_breakdown() -> list[dict[str, Any]]:
    engine = LMOffloadEngine(single_a100())
    ctx = engine.default_context()
    planner = engine.planner(ctx)
    workload = motivating_workload()
    rows = []
    for name, attn_cpu, wq, kq in FIG3_STRATEGIES:
        try:
            policy, _ = planner.search_fixed(workload, attn_cpu, wq, kq)
        except PolicyError:
            continue
        b = engine.cost_model(workload, policy, ctx).breakdown()
        q = b.quant_overheads
        quant = q["weight_quant_init"] + q["kv_prefill_quant"] + q["kv_new_quant"]
        dequant = q["weight_dequant"] + q["kv_old_dequant"]
        rows.append(
            {
                "strategy": name,
                "quantize_s": round(quant, 1),
                "dequantize_s": round(dequant, 1),
                "other_s": round(max(b.total_seconds - quant - dequant, 0.0), 1),
                "total_s": round(b.total_seconds, 1),
            }
        )
    return rows


# ---------------------------------------------------------------------------
# Table 1 — I/O traffic per generated token
# ---------------------------------------------------------------------------


def run_tab1_io_traffic() -> list[dict[str, Any]]:
    engine = LMOffloadEngine(single_a100())
    ctx = engine.default_context()
    workload = motivating_workload()
    rows = []
    for label, policy in [
        (
            "with_offload",
            OffloadPolicy(
                wg=0.7, hg=0.0, attention_on_cpu=True,
                gpu_batch_size=64, num_gpu_batches=10,
            ),
        ),
        (
            "without_offload",
            OffloadPolicy(
                wg=0.3, cg=0.0, hg=0.0, attention_on_cpu=False,
                gpu_batch_size=64, num_gpu_batches=10,
            ),
        ),
    ]:
        traffic = engine.cost_model(workload, policy, ctx)._traffic_totals()
        n = workload.gen_len
        for (src, dst, cat), nbytes in sorted(traffic.items()):
            rows.append(
                {
                    "case": label,
                    "direction": f"{src}->{dst}",
                    "tensor": cat,
                    "gb_per_token": round(nbytes / n / 1e9, 2),
                }
            )
    return rows


# ---------------------------------------------------------------------------
# Figure 5 — thread-level parallelism sweeps
# ---------------------------------------------------------------------------


def run_fig5_parallelism_sweep(
    intra_points: tuple[int, ...] = (1, 2, 4, 8, 16, 32, 56),
    inter_points: tuple[int, ...] = (1, 2, 4, 8, 12, 16, 24, 56, 112),
) -> dict[str, list[dict[str, Any]]]:
    """End-to-end throughput vs intra-op (inter at default 112) and
    vs inter-op (intra at default 56); OPT-30B, s=64, n=8, CPU attention."""
    engine, workload, policy = _fig8_setup()

    def tput(intra: int, inter: int) -> float:
        ctx = CpuExecutionContext(
            topology=engine.substrate.topology,
            contention=engine.substrate.contention,
            setting=ParallelismSetting(intra_op=intra, inter_op=inter),
            use_fine_grained_graph=True,
        )
        model = engine.cost_model(workload, policy, ctx)
        return model.breakdown().throughput(workload)

    out: dict[str, list[dict[str, Any]]] = {"intra": [], "inter": []}
    for t in intra_points:
        out["intra"].append({"threads": t, "tokens_per_s": round(tput(t, 112), 1)})
    for c in inter_points:
        out["inter"].append({"threads": c, "tokens_per_s": round(tput(56, c), 1)})
    return out


# ---------------------------------------------------------------------------
# Table 3 — overall comparison
# ---------------------------------------------------------------------------


def run_tab3_overall(
    models: tuple[str, ...] = ("opt-30b", "opt-66b", "llama-30b", "llama-65b"),
    gen_lens: tuple[int, ...] = (8, 16, 32, 64, 128),
) -> list[dict[str, Any]]:
    rows: list[dict[str, Any]] = []
    for mname in models:
        model = get_model(mname)
        fg = FlexGenEngine(single_a100())
        zr = ZeroInferenceEngine(single_a100())
        lm = LMOffloadEngine(single_a100())
        for n in gen_lens:
            ref = paper_data.TAB3[mname][n]
            bls, fg_paper = ref["flexgen"]
            zr_bsz, zr_paper = ref["zero-inference"]
            _, lm_paper = ref["lm-offload"]
            b, k = paper_data.bls_split(bls)
            workload = Workload(model, 64, n, b, k)
            fg_rep = fg.run(workload)
            zr_rep = zr.run(workload, batch=zr_bsz)
            lm_rep = lm.run(workload)
            for rep, paper_tput in (
                (fg_rep, fg_paper), (zr_rep, zr_paper), (lm_rep, lm_paper)
            ):
                row = rep.table_row()
                row["model"] = mname
                row["paper_tput"] = paper_tput
                row["norm_tput"] = round(rep.normalized_to(lm_rep), 2)
                rows.append(row)
    return rows


# ---------------------------------------------------------------------------
# Figure 7 — performance modeling only (parallelism control disabled)
# ---------------------------------------------------------------------------


def run_fig7_effective_quantization(
    models: tuple[str, ...] = ("opt-30b", "llama-30b"),
    gen_lens: tuple[int, ...] = (8, 16, 32, 64, 128),
) -> list[dict[str, Any]]:
    rows = []
    for mname in models:
        model = get_model(mname)
        fg = FlexGenEngine(single_a100())
        lm = LMOffloadEngine(
            single_a100(), config=EngineConfig(parallelism_control=False)
        )
        for n in gen_lens:
            bls, _ = paper_data.TAB3[mname][n]["flexgen"]
            b, k = paper_data.bls_split(bls)
            workload = Workload(model, 64, n, b, k)
            fg_rep = fg.run(workload)
            lm_rep = lm.run(workload)
            rows.append(
                {
                    "model": mname,
                    "len": n,
                    "flexgen": round(fg_rep.throughput, 1),
                    "lm_offload_no_pc": round(lm_rep.throughput, 1),
                    "gain": round(lm_rep.throughput / fg_rep.throughput, 2),
                }
            )
    return rows


# ---------------------------------------------------------------------------
# Figure 8 — parallelism control: six-task times and end-to-end
# ---------------------------------------------------------------------------


def _fig8_setup() -> tuple[LMOffloadEngine, Workload, OffloadPolicy]:
    """Figs. 5/8 and Tab. 5's point: OPT-30B, s=64, n=8, CPU attention."""
    workload = motivating_workload(gen_len=8)
    policy = OffloadPolicy(
        wg=0.55, hg=0.0, attention_on_cpu=True, gpu_batch_size=64, num_gpu_batches=10
    )
    return LMOffloadEngine(single_a100()), workload, policy


def run_fig8_parallelism_control() -> dict[str, Any]:
    engine, workload, policy = _fig8_setup()
    plan = engine.plan_parallelism(workload, policy)
    default_ctx = engine.default_context()
    controlled_ctx = engine.substrate.controlled_context(plan)

    def task_totals(ctx: CpuExecutionContext) -> dict[str, float]:
        model = engine.cost_model(workload, policy, ctx)
        iters = workload.model.num_layers * policy.num_gpu_batches
        mid = model.decode_task_costs(max(0, (workload.gen_len - 1) // 2))
        return {k: v * iters for k, v in mid.as_dict().items()}

    def end_to_end(ctx: CpuExecutionContext) -> float:
        return engine.cost_model(workload, policy, ctx).breakdown().total_seconds

    default_tasks = task_totals(default_ctx)
    controlled_tasks = task_totals(controlled_ctx)
    reductions = {
        k: (1 - controlled_tasks[k] / default_tasks[k]) if default_tasks[k] > 0 else 0.0
        for k in default_tasks
    }
    nonzero = [r for k, r in reductions.items() if default_tasks[k] > 0]
    return {
        "plan": plan.describe(),
        "default_tasks_s": {k: round(v, 3) for k, v in default_tasks.items()},
        "controlled_tasks_s": {k: round(v, 3) for k, v in controlled_tasks.items()},
        "compute_reduction": round(reductions["compute"], 3),
        "avg_task_reduction": round(sum(nonzero) / len(nonzero), 3),
        "end_to_end_reduction": round(
            1 - end_to_end(controlled_ctx) / end_to_end(default_ctx), 3
        ),
    }


# ---------------------------------------------------------------------------
# Table 5 — LLC misses
# ---------------------------------------------------------------------------


def run_tab5_llc_misses() -> dict[str, Any]:
    engine, workload, policy = _fig8_setup()
    plan = engine.plan_parallelism(workload, policy)
    topo = engine.substrate.topology

    # CPU-side traffic: the offloaded attention streams the whole KV cache
    # (plus writes of comparable volume for intermediates) every token.
    h1 = workload.model.hidden_size
    l = workload.model.num_layers
    bls = workload.block_size
    total = 0.0
    for t in range(workload.gen_len):
        ctx_len = workload.prompt_len + 1 + t
        total += 2 * ctx_len * h1 * bls * dtype_bytes("fp16") * l
    from repro.hardware.cache import CacheHierarchy

    llc = LLCModel(
        cache=CacheHierarchy(
            llc_bytes=engine.platform.cache.llc_bytes, compulsory_ratio=0.15
        ),
        store_rfo_factor=1.9,
    )

    default = llc.estimate(
        ParallelismSetting(intra_op=topo.physical_cores, inter_op=topo.hardware_threads),
        co_running_ops=min(topo.hardware_threads, 24),
        load_traffic=total,
        store_traffic=total,
    )
    controlled = llc.estimate(
        plan.compute,
        co_running_ops=plan.compute.inter_op,
        load_traffic=total,
        store_traffic=total,
    )
    return {
        "default": {"load": default.load_misses, "store": default.store_misses},
        "controlled": {
            "load": controlled.load_misses,
            "store": controlled.store_misses,
        },
        "reduction": round(controlled.reduction_vs(default), 3),
    }


# ---------------------------------------------------------------------------
# Figure 9 — multi-GPU weak scaling
# ---------------------------------------------------------------------------


def run_fig9_multigpu(
    models: tuple[str, ...] = ("opt-13b", "llama-13b"),
    gpu_counts: tuple[int, ...] = (1, 2, 4),
) -> list[dict[str, Any]]:
    from repro.multigpu.pipeline_parallel import weak_scaling_sweep

    rows = []
    for mname in models:
        sweep = weak_scaling_sweep(get_model(mname), gpu_counts=gpu_counts)
        for fg_rep, lm_rep in zip(sweep["flexgen"], sweep["lm-offload"]):
            rows.append(
                {
                    "model": mname,
                    "gpus": fg_rep.num_gpus,
                    "flexgen": round(fg_rep.throughput, 1),
                    "lm_offload": round(lm_rep.throughput, 1),
                    "gain": round(lm_rep.throughput / fg_rep.throughput, 2),
                }
            )
    return rows
