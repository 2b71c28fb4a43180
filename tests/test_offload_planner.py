import pytest

from repro.errors import PolicyError
from repro.models import get_model
from repro.offload import OffloadPolicy
from repro.offload.planner import PolicyPlanner
from repro.perfmodel import CostModel, Workload
from repro.quant import QuantConfig


@pytest.fixture
def planner(hw, default_ctx):
    return PolicyPlanner(hw=hw, cpu_ctx=default_ctx, quant_aware=True)


@pytest.fixture
def blind_planner(hw, default_ctx):
    return PolicyPlanner(hw=hw, cpu_ctx=default_ctx, quant_aware=False)


def test_search_returns_feasible_policy(planner, opt30b_workload, hw, default_ctx):
    policy, tput = planner.search(opt30b_workload)
    assert tput > 0
    CostModel(opt30b_workload, policy, hw, default_ctx).check_feasible()


def test_quant_aware_beats_blind(planner, blind_planner, opt30b_workload):
    """The paper's core claim: modeling quantization lets the planner find
    strictly better policies than FlexGen's quant-blind search."""
    _, aware = planner.search(opt30b_workload)
    _, blind = blind_planner.search(opt30b_workload)
    assert aware > blind * 1.3


def test_blind_planner_never_quantizes(blind_planner, opt30b_workload):
    policy, _ = blind_planner.search(opt30b_workload)
    assert policy.weight_quant is None
    assert policy.kv_quant is None


def test_search_fixed_respects_strategy(planner, opt30b_workload):
    q4 = QuantConfig(bits=4, group_size=64)
    policy, _ = planner.search_fixed(opt30b_workload, True, q4, None)
    assert policy.attention_on_cpu
    assert policy.weight_quant == q4
    assert policy.kv_quant is None


def test_lp_placement_within_bounds(planner, opt30b_workload):
    template = OffloadPolicy(
        attention_on_cpu=False, gpu_batch_size=64, num_gpu_batches=10
    )
    wg, cg, hg = planner.lp_placement(opt30b_workload, template)
    for v in (wg, cg, hg):
        assert -1e-9 <= v <= 1 + 1e-9


def test_lp_placement_feasible_memory(planner, opt30b_workload, hw, default_ctx):
    template = OffloadPolicy(
        attention_on_cpu=True, gpu_batch_size=64, num_gpu_batches=10
    )
    wg, cg, hg = planner.lp_placement(opt30b_workload, template)
    model = CostModel(
        opt30b_workload, template.with_(wg=round(wg, 2), cg=cg, hg=round(hg, 2)),
        hw, default_ctx,
    )
    assert model.gpu_bytes_required() <= hw.gpu_mem_capacity * 1.02


def test_infeasible_workload_raises(planner):
    """A model too large for even full offloading must raise PolicyError."""
    huge = Workload(get_model("opt-66b"), 64, 128, 64, 200)  # 12800-seq block
    with pytest.raises(PolicyError):
        planner.search(huge)
