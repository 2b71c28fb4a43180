"""Scalar reference formulas for the Eq. 1/2 cost model.

The cost model prices decode tokens with one array formula
(``CostModel._decode_columns``).  This module keeps the per-token scalar
formulas it replaced, one Python float at a time, as the oracle the
equivalence tests compare it against: the per-token decode task costs,
the resource-grouped step time, the token loops of ``decode_seconds``,
``breakdown`` and the quantization totals, the step-cost oracle's
single-bucket decode price, and the speculative pricer on one row.  It
also keeps the scalar peak-byte formulas (``gpu_bytes_required`` /
``cpu_bytes_required``) that ``CostModel._weight_bytes_at`` and
``_memory_columns`` replaced.  Nothing under ``src/`` imports it.
"""

from __future__ import annotations

import numpy as np

from repro.perfmodel.latency import CostModel, LatencyBreakdown
from repro.perfmodel.quant_model import kv_quant_overheads, weight_quant_overheads
from repro.runtime.tasks import TaskCosts
from repro.units import dtype_bytes


def cpu_attention_seconds(model: CostModel, ctx_len: int, tokens: int) -> float:
    """Offloaded attention under the active threading setting."""
    flops, nbytes = model._attention_flops_bytes(ctx_len, tokens)
    rates = model.cal.attention
    share = model.ctx.cpu_share
    flop_rate = min(
        rates.cpu_flops_per_thread * model._eff, rates.cpu_flops_ceiling
    ) * share
    bw_rate = min(
        rates.cpu_bw_per_thread * model._eff, rates.cpu_bw_ceiling
    ) * share
    return max(flops / flop_rate, nbytes / bw_rate)


def decode_task_costs(model: CostModel, token_idx: int) -> TaskCosts:
    """Per-iteration task costs for decode token ``token_idx`` (0-based,
    counting tokens produced after prefill)."""
    w, p = model.w, model.p
    ctx_len = w.prompt_len + 1 + token_idx
    k = p.num_gpu_batches

    load_weight = model._load_weight_iter()

    act_bytes = model.fp.activation_bytes_per_layer
    # Activations cross PCIe for the offloaded share; CPU attention
    # additionally ships the attention output up every layer.
    act_flow = act_bytes * max(1.0 - p.hg, 1.0 if p.attention_on_cpu else 0.0)
    load_act = act_flow / k / model.pcie_bw
    store_act = act_flow / k / model.pcie_bw

    if p.attention_on_cpu:
        load_cache = 0.0
        store_cache = 0.0
        # cpu_attention_seconds already costs one gpu_batch iteration.
        cpu_attn = cpu_attention_seconds(model, ctx_len, 1)
        if p.kv_quant is not None:
            over = kv_quant_overheads(
                w, model.cal.codec, device="cpu", token_idx=token_idx
            )
            cpu_attn += (over.old_dequant_seconds + over.new_quant_seconds) / k
        compute = max(cpu_attn, model._gpu_dense_seconds(1))
    else:
        stored = model.kv_store_bytes_per_token()
        streamed_share = 1.0 - p.cg
        old_bytes = ctx_len * stored * streamed_share / k
        new_bytes = stored * streamed_share / k
        load_cache = max(
            old_bytes / model.pcie_bw,
            model.ctx.staging_seconds("load_cache", old_bytes),
        )
        store_cache = max(
            new_bytes / model.pcie_bw,
            model.ctx.staging_seconds("store_cache", new_bytes),
        )
        compute = model._gpu_attention_seconds(ctx_len, 1) + model._gpu_dense_seconds(1)
        if p.kv_quant is not None:
            over = kv_quant_overheads(
                w, model.cal.codec, device="gpu", token_idx=token_idx
            )
            # Streamed share: codec charged to the cache tasks (Eqs. 6-7).
            load_cache += over.old_dequant_seconds * streamed_share / k
            store_cache += over.new_quant_seconds * streamed_share / k
            # Resident share: codec runs when the cache is used/updated.
            compute += (
                over.old_dequant_seconds + over.new_quant_seconds
            ) * p.cg / k

    compute += model._resident_weight_dequant_iter()
    return TaskCosts(
        load_weight=load_weight,
        load_cache=load_cache,
        load_activation=load_act,
        store_cache=store_cache,
        store_activation=store_act,
        compute=compute,
    )


def step_seconds(costs: TaskCosts, literal_eq2: bool = False) -> float:
    """Per-iteration overlapped time: Eq. 2's six-task max when
    ``literal_eq2``, else the three H2D loads and the two D2H stores each
    serialize on their PCIe direction."""
    if literal_eq2:
        return costs.step_time()
    h2d = costs.load_weight + costs.load_cache + costs.load_activation
    d2h = costs.store_cache + costs.store_activation
    return max(h2d, d2h, costs.compute)


def decode_seconds(model: CostModel, literal_eq2: bool = False) -> float:
    """Total decode time across (n-1) tokens, one token at a time."""
    iters = model.w.model.num_layers * model.p.num_gpu_batches
    return sum(
        step_seconds(decode_task_costs(model, t), literal_eq2) * iters
        for t in range(model.w.gen_len - 1)
    )


def quant_overhead_totals(model: CostModel) -> dict[str, float]:
    """Total quant/dequant seconds over the whole run (Figure 4), with the
    KV codec priced token by token."""
    w, p = model.w, model.p
    l = w.model.num_layers
    out = {
        "weight_quant_init": 0.0,
        "weight_dequant": 0.0,
        "kv_prefill_quant": 0.0,
        "kv_new_quant": 0.0,
        "kv_old_dequant": 0.0,
    }
    if p.weight_quant is not None and p.wc > 0:
        over = weight_quant_overheads(w, p.wc, model.cal.codec)
        out["weight_quant_init"] = over.quantize_seconds * l
        out["weight_dequant"] = over.dequantize_seconds * l * w.gen_len
    if p.quantize_resident_weights and p.weight_quant is not None and p.wg > 0:
        over = weight_quant_overheads(w, p.wg, model.cal.codec)
        out["weight_quant_init"] += over.quantize_seconds * l
        out["weight_dequant"] += over.dequantize_seconds * l * w.gen_len
    if p.kv_quant is not None:
        pf = kv_quant_overheads(w, model.cal.codec, device="gpu")
        out["kv_prefill_quant"] = pf.prefill_quant_seconds * l
        device = "cpu" if p.attention_on_cpu else "gpu"
        for t in range(w.gen_len - 1):
            tok = kv_quant_overheads(w, model.cal.codec, device=device, token_idx=t)
            out["kv_new_quant"] += tok.new_quant_seconds * l
            out["kv_old_dequant"] += tok.old_dequant_seconds * l
    return out


def breakdown(model: CostModel, literal_eq2: bool = False) -> LatencyBreakdown:
    """Eq. 1 end to end with a per-token decode loop."""
    model.check_feasible()
    w, p = model.w, model.p
    iters = w.model.num_layers * p.num_gpu_batches

    pf = model.prefill_task_costs()
    t_prefill = step_seconds(pf, literal_eq2) * iters
    task_totals = {key: v * iters for key, v in pf.as_dict().items()}
    t_decode = 0.0
    for t in range(w.gen_len - 1):
        dc = decode_task_costs(model, t)
        t_decode += step_seconds(dc, literal_eq2) * iters
        for key, v in dc.as_dict().items():
            task_totals[key] += v * iters
    mid = decode_task_costs(model, max(0, (w.gen_len - 1) // 2))
    return LatencyBreakdown(
        t_init=model.t_init_seconds(),
        t_prefill=t_prefill,
        t_decode=t_decode,
        task_totals=task_totals,
        quant_overheads=quant_overhead_totals(model),
        io_traffic=model._traffic_totals(),
        bottleneck=mid.bottleneck().value,
    )


def spec_step_seconds(pricer, token_idx: int, costs: TaskCosts, base: float) -> float:
    """A speculative pricer's per-token price of one decode step: its
    array pricer on a one-row matrix."""
    row = np.array([costs.as_tuple()], dtype=np.float64)
    out = pricer.step_seconds_vec(
        np.array([float(token_idx)]), row, np.array([base])
    )
    return float(out[0])


def oracle_decode_step_seconds(oracle, n_seqs: int, ctx_len: int) -> float:
    """Uncached decode price of one step-cost-oracle bucket: a dedicated
    single-bucket workload priced at its token 0."""
    ctx_b = oracle._bucket_ctx(ctx_len)
    policy, cpu_ctx = oracle._planned_or_raise(n_seqs)
    model = CostModel(
        oracle._price_workload(policy, ctx_b), policy, oracle.engine.hw,
        cpu_ctx, oracle.engine.calibration,
    )
    costs = decode_task_costs(model, 0)
    value = step_seconds(costs)
    pricer = oracle._step_pricer(model)
    if pricer is not None:
        value = spec_step_seconds(pricer, 0, costs, value)
    return value * oracle._iters(policy)


def resident_weight_bytes_per_layer(model: CostModel) -> float:
    """GPU-resident weight bytes (compressed when the policy stores the
    resident share quantized, as ZeRO-Inference's 4-bit mode does)."""
    n = model.w.model.weights_per_layer * model.p.wg
    if model.p.quantize_resident_weights and model.p.weight_quant is not None:
        return model.p.weight_quant.total_bytes(n)
    return n * dtype_bytes("fp16")


def gpu_bytes_required(model: CostModel) -> float:
    """Peak GPU bytes under the model's policy."""
    l = model.w.model.num_layers
    weights = resident_weight_bytes_per_layer(model) * l
    # Uncompressed working weights: current + prefetch when layers
    # stream from the host; a single dequantization buffer when all
    # weights are resident (ZeRO-Inference's mode).
    working_layers = 2 if model.p.wc > 0 else 1
    working = working_layers * model.w.model.weights_per_layer * dtype_bytes("fp16")
    kv = 0.0
    if not model.p.attention_on_cpu:
        kv_total = (
            (model.w.prompt_len + model.w.gen_len)
            * model.kv_store_bytes_per_token()
            * l
        )
        kv = model.p.cg * kv_total
        # Working buffer for one layer's (dequantized) cache slice.
        kv += (
            (model.w.prompt_len + model.w.gen_len)
            * model.fp.kv_elements_per_token_per_layer
            * dtype_bytes("fp16")
            / model.p.num_gpu_batches
        )
    act = model.fp.activation_bytes_per_layer * (2 + 2 * model.p.hg)
    return weights + working + kv + act


def cpu_bytes_required(model: CostModel) -> float:
    """Peak host bytes under the model's policy."""
    l = model.w.model.num_layers
    weights = model.offloaded_weight_bytes_per_layer() * l
    if model.p.wc > 0 and model.p.wd > 0:
        # Disk-resident weights only occupy a 2-layer staging window
        # in host memory, not their full footprint.
        disk_share = model.p.wd / model.p.wc
        resident = weights * (1.0 - disk_share)
        staging = 2 * model.offloaded_weight_bytes_per_layer()
        weights = resident + min(staging, weights * disk_share)
    kv_total = (
        (model.w.prompt_len + model.w.gen_len) * model.kv_store_bytes_per_token() * l
    )
    kv = kv_total if model.p.attention_on_cpu else (1.0 - model.p.cg) * kv_total
    act = model.fp.activation_bytes_per_layer * 2 * (1.0 - model.p.hg)
    return weights + kv + act


def lp_probe_coefficients(planner, workload, template):
    """The placement LP's ``(t0, t_mat, g0, g_mat)`` from ``1 + nvars``
    probe policies: all fractions at 0, then each LP variable at 1, each
    probe its own ``CostModel`` priced at the mid decode token."""
    base = dict(wg=0.0, cg=0.0, hg=0.0)

    def probe(**kw) -> CostModel:
        pol = template.with_(**{**base, **kw})
        return CostModel(workload, pol, planner.hw, planner.cpu_ctx)

    mid_token = max(0, (workload.gen_len - 1) // 2)

    def task_vec(model: CostModel) -> np.ndarray:
        c = decode_task_costs(model, mid_token)
        h2d = c.load_weight + c.load_cache + c.load_activation
        d2h = c.store_cache + c.store_activation
        return np.array([h2d, d2h, c.compute])

    def mem_vec(model: CostModel) -> np.ndarray:
        return np.array([gpu_bytes_required(model), cpu_bytes_required(model)])

    names = ["wg", "hg"] if template.attention_on_cpu else ["wg", "cg", "hg"]
    m0 = probe()
    t0, g0 = task_vec(m0), mem_vec(m0)
    t_cols, g_cols = [], []
    for name in names:
        m1 = probe(**{name: 1.0})
        t_cols.append(task_vec(m1) - t0)
        g_cols.append(mem_vec(m1) - g0)
    return t0, np.column_stack(t_cols), g0, np.column_stack(g_cols)
