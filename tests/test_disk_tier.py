"""The disk offloading tier (FlexGen's third tier)."""

import dataclasses

import pytest

from repro.errors import ConfigError, PolicyError
from repro.models import get_model
from repro.offload import OffloadPolicy
from repro.offload.planner import PolicyPlanner
from repro.perfmodel import CostModel, Workload


def P(**kw):
    return OffloadPolicy(gpu_batch_size=64, num_gpu_batches=10, **kw)


def test_wd_validation():
    with pytest.raises(ConfigError):
        OffloadPolicy(wg=0.8, wd=0.3)
    with pytest.raises(ConfigError):
        OffloadPolicy(wd=1.5)
    p = OffloadPolicy(wg=0.2, wd=0.5)
    assert p.wc == pytest.approx(0.8)


def test_disk_share_slows_weight_loads(opt30b_workload, hw, default_ctx):
    in_ram = CostModel(opt30b_workload, P(wg=0.2, hg=1.0), hw, default_ctx)
    on_disk = CostModel(
        opt30b_workload, P(wg=0.2, wd=0.8, hg=1.0), hw, default_ctx
    )
    # 2 GB/s disk vs ~8.6 GB/s effective PCIe: the disk leg dominates.
    assert on_disk.decode_task_costs(0).load_weight > 2.5 * in_ram.decode_task_costs(
        0
    ).load_weight


def test_disk_share_frees_host_memory(opt30b_workload, hw, default_ctx):
    in_ram = CostModel(opt30b_workload, P(wg=0.2, hg=1.0), hw, default_ctx)
    on_disk = CostModel(
        opt30b_workload, P(wg=0.2, wd=0.8, hg=1.0), hw, default_ctx
    )
    # The host no longer holds the ~47 GB of offloaded weights (only a
    # 2-layer staging window); the KV cache stays host-resident either way.
    saved = in_ram.cpu_bytes_required() - on_disk.cpu_bytes_required()
    assert saved > 40e9


def test_disk_traffic_accounted(opt30b_workload, hw, default_ctx):
    model = CostModel(opt30b_workload, P(wg=0.2, wd=0.4, hg=1.0), hw, default_ctx)
    traffic = model._traffic_totals()
    assert traffic[("disk", "cpu", "weights")] > 0
    # Half of the offloaded share comes from disk in this policy.
    assert traffic[("disk", "cpu", "weights")] == pytest.approx(
        traffic[("cpu", "gpu", "weights")] * 0.5
    )


def test_planner_spills_to_disk_when_host_too_small(default_ctx, hw):
    """On a host too small for OPT-30B's weights + KV, the planner falls
    back to disk-resident weights instead of failing."""
    small_host = dataclasses.replace(hw, cpu_mem_capacity=100e9)
    planner = PolicyPlanner(hw=small_host, cpu_ctx=default_ctx, quant_aware=True)
    workload = Workload(get_model("opt-30b"), 64, 8, 64, 2)  # modest block
    policy, score = planner.search(workload)
    assert score > 0
    model = CostModel(workload, policy, small_host, default_ctx)
    assert model.cpu_bytes_required() <= 100e9


def test_no_spill_when_host_sufficient(hw, default_ctx):
    planner = PolicyPlanner(hw=hw, cpu_ctx=default_ctx, quant_aware=True)
    workload = Workload(get_model("opt-30b"), 64, 8, 64, 10)
    policy, _ = planner.search(workload)
    assert policy.wd == 0.0
