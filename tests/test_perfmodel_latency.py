import pytest

from repro.errors import PolicyError
from repro.offload import OffloadPolicy
from repro.perfmodel import CostModel, Workload
from repro.perfmodel.constants import EngineCalibration
from repro.quant import QuantConfig
from repro.models import get_model

Q4 = QuantConfig(bits=4, group_size=64)


def P(**kw):
    return OffloadPolicy(gpu_batch_size=64, num_gpu_batches=10, **kw)


@pytest.fixture
def cpu_attn_model(opt30b_workload, hw, default_ctx):
    return CostModel(
        opt30b_workload, P(wg=0.55, hg=0.0, attention_on_cpu=True), hw, default_ctx
    )


@pytest.fixture
def gpu_attn_model(opt30b_workload, hw, default_ctx):
    return CostModel(
        opt30b_workload,
        P(wg=0.55, cg=0.0, hg=0.0, attention_on_cpu=False),
        hw,
        default_ctx,
    )


def test_batch_geometry_must_match(opt30b_workload, hw, default_ctx):
    bad = OffloadPolicy(gpu_batch_size=32, num_gpu_batches=10)
    with pytest.raises(PolicyError):
        CostModel(opt30b_workload, bad, hw, default_ctx)


def test_cpu_attention_zeroes_cache_tasks(cpu_attn_model):
    """Observation 1's premise: with attention offloading the KV cache
    never crosses the interconnect."""
    costs = cpu_attn_model.decode_task_costs(0)
    assert costs.load_cache == 0.0
    assert costs.store_cache == 0.0


def test_gpu_attention_streams_cache(gpu_attn_model):
    costs = gpu_attn_model.decode_task_costs(0)
    assert costs.load_cache > 0
    assert costs.store_cache > 0


def test_decode_costs_grow_with_kv(gpu_attn_model):
    early = gpu_attn_model.decode_task_costs(0)
    late = gpu_attn_model.decode_task_costs(100)
    assert late.load_cache > early.load_cache
    assert late.compute > early.compute


def test_weight_quant_shrinks_wire_but_adds_dequant(
    opt30b_workload, hw, default_ctx
):
    plain = CostModel(
        opt30b_workload, P(wg=0.55, hg=0.0), hw, default_ctx
    )
    quant = CostModel(
        opt30b_workload, P(wg=0.55, hg=0.0, weight_quant=Q4), hw, default_ctx
    )
    # Stored bytes drop ~3.5x...
    assert quant.offloaded_weight_bytes_per_layer() < (
        plain.offloaded_weight_bytes_per_layer() / 3
    )
    # ...but the effective load_weight task is *slower* at FlexGen's codec
    # rates (the paper's Observation: W4 alone hurts).
    assert quant.decode_task_costs(0).load_weight > plain.decode_task_costs(
        0
    ).load_weight


def test_kv_quant_under_cpu_attention_burdens_compute(
    opt30b_workload, hw, default_ctx
):
    """Observation 1: quantization with attention offloading always loses —
    the CPU pays the codec on every token."""
    plain = CostModel(opt30b_workload, P(wg=0.55, hg=0.0), hw, default_ctx)
    quant = CostModel(
        opt30b_workload, P(wg=0.55, hg=0.0, kv_quant=Q4), hw, default_ctx
    )
    assert quant.decode_task_costs(10).compute > plain.decode_task_costs(10).compute


def test_kv_quant_under_gpu_attention_shrinks_cache_wire(
    opt30b_workload, hw, default_ctx
):
    plain = CostModel(
        opt30b_workload, P(wg=0.3, attention_on_cpu=False, hg=0.0), hw, default_ctx
    )
    quant = CostModel(
        opt30b_workload,
        P(wg=0.3, attention_on_cpu=False, hg=0.0, kv_quant=Q4),
        hw,
        default_ctx,
    )
    # Wire + codec still beats raw fp16 streaming for the big KV flow.
    assert quant.decode_task_costs(100).load_cache < plain.decode_task_costs(
        100
    ).load_cache


def test_step_seconds_literal_vs_grouped():
    from repro.runtime.tasks import TaskCosts

    costs = TaskCosts(load_weight=1, load_cache=1, load_activation=1, compute=2)
    assert costs.step_time() == 2
    # Grouped: the three loads share the H2D direction and sum to 3.
    assert CostModel.step_seconds(costs) == 3


def test_breakdown_eq1_structure(cpu_attn_model, opt30b_workload):
    b = cpu_attn_model.breakdown()
    assert b.total_seconds == pytest.approx(b.t_init + b.t_prefill + b.t_decode)
    assert b.t_decode > b.t_prefill  # n-1 decode passes vs one prefill
    assert b.throughput(opt30b_workload) > 0
    assert set(b.task_totals) == {
        "load_weight", "load_cache", "load_activation",
        "store_cache", "store_activation", "compute",
    }


def test_t_init_includes_weight_quant(opt30b_workload, hw, default_ctx):
    plain = CostModel(opt30b_workload, P(wg=0.55, hg=0.0), hw, default_ctx)
    quant = CostModel(
        opt30b_workload, P(wg=0.55, hg=0.0, weight_quant=Q4), hw, default_ctx
    )
    assert plain.t_init_seconds() == 0.0
    assert quant.t_init_seconds() > 0.0


def test_t_init_disk_load(opt30b_workload, hw, default_ctx):
    m = CostModel(
        opt30b_workload, P(wg=0.55, hg=0.0), hw, default_ctx,
        weights_preloaded=False,
    )
    # ~60 GB over a 2 GB/s disk link.
    assert m.t_init_seconds() > 25.0


def test_gpu_memory_feasibility(opt30b_workload, hw, default_ctx):
    infeasible = P(wg=1.0, hg=0.0)  # 59 GB of weights on a 40 GB GPU
    with pytest.raises(PolicyError, match="GPU memory"):
        CostModel(opt30b_workload, infeasible, hw, default_ctx).check_feasible()


def test_quantized_resident_weights_fit(opt30b_workload, hw, default_ctx):
    policy = P(wg=1.0, hg=1.0, weight_quant=Q4, quantize_resident_weights=True,
               attention_on_cpu=True)
    model = CostModel(opt30b_workload, policy, hw, default_ctx)
    model.check_feasible()  # 4-bit resident weights fit in 40 GB
    # And they pay per-use dequantization on the compute stream.
    plain_like = CostModel(
        opt30b_workload, P(wg=0.55, hg=1.0), hw, default_ctx
    )
    assert model.decode_task_costs(0).compute > plain_like.decode_task_costs(0).compute


def test_traffic_totals_match_table1_structure(cpu_attn_model, gpu_attn_model):
    with_offload = cpu_attn_model._traffic_totals()
    without = gpu_attn_model._traffic_totals()
    assert with_offload[("cpu", "gpu", "kv_cache")] == 0.0
    assert without[("cpu", "gpu", "kv_cache")] > 0
    # KV dominates every other flow when attention is not offloaded.
    assert without[("cpu", "gpu", "kv_cache")] > without[("cpu", "gpu", "weights")]


def test_calibration_pcie_efficiency(opt30b_workload, hw, default_ctx):
    import dataclasses

    # Strip staging limits so the comparison isolates the wire time.
    ctx = dataclasses.replace(default_ctx, io_staging_threads={})
    fast = CostModel(
        opt30b_workload, P(wg=0.55, hg=0.0), hw, ctx,
        calibration=EngineCalibration(pcie_efficiency=1.0),
    )
    slow = CostModel(
        opt30b_workload, P(wg=0.55, hg=0.0), hw, ctx,
        calibration=EngineCalibration(pcie_efficiency=0.25),
    )
    assert slow.decode_task_costs(0).load_weight > 3.5 * fast.decode_task_costs(0).load_weight


def test_ideal_kernels_make_quant_cheap(opt30b_workload, hw, default_ctx):
    """Ablation: with near-peak codec kernels, weight quantization becomes
    a clear win (the paper's tradeoff exists only because real codec
    kernels are slow)."""
    cal = EngineCalibration.ideal_kernels()
    plain = CostModel(
        opt30b_workload, P(wg=0.55, hg=0.0), hw, default_ctx, calibration=cal
    )
    quant = CostModel(
        opt30b_workload, P(wg=0.55, hg=0.0, weight_quant=Q4), hw, default_ctx,
        calibration=cal,
    )
    assert quant.decode_task_costs(0).load_weight < plain.decode_task_costs(0).load_weight
