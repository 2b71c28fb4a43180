import pytest

from repro.models import get_model
from repro.offload.planner import PlannerObjective, PolicyPlanner
from repro.perfmodel import CostModel, Workload
from tests import reference_costs as ref


@pytest.fixture
def latency_planner(hw, default_ctx):
    return PolicyPlanner(
        hw=hw, cpu_ctx=default_ctx, quant_aware=True,
        objective=PlannerObjective.LATENCY,
    )


@pytest.fixture
def tput_planner(hw, default_ctx):
    return PolicyPlanner(hw=hw, cpu_ctx=default_ctx, quant_aware=True)


def test_latency_objective_score_is_negative_latency(latency_planner, hw, default_ctx):
    w = Workload(get_model("opt-30b"), 64, 16, 64, 10)
    policy, score = latency_planner.search(w)
    assert score < 0  # negative seconds
    model = CostModel(w, policy, hw, default_ctx)
    mid = ref.decode_task_costs(model, 7)
    iters = w.model.num_layers * policy.num_gpu_batches
    assert -score == ref.step_seconds(mid) * iters


def test_latency_policy_no_slower_per_token(latency_planner, tput_planner, hw, default_ctx):
    """The latency-optimal policy's per-token latency is <= the
    throughput-optimal policy's."""
    w = Workload(get_model("opt-30b"), 64, 16, 64, 10)
    lat_policy, lat_score = latency_planner.search(w)
    tput_policy, _ = tput_planner.search(w)

    def per_token(policy):
        m = CostModel(w, policy, hw, default_ctx)
        iters = w.model.num_layers * policy.num_gpu_batches
        return m.step_seconds(m.decode_task_costs(7)) * iters

    assert per_token(lat_policy) <= per_token(tput_policy) * 1.001


def test_batch_geometry_search_finds_feasible(tput_planner):
    w = Workload(get_model("opt-30b"), 64, 8, 64, 1)
    policy, shaped, score = tput_planner.search_batch_geometry(
        w, batch_candidates=(16, 64), num_batch_candidates=(1, 4)
    )
    assert score > 0
    assert shaped.block_size == policy.gpu_batch_size * policy.num_gpu_batches
    assert shaped.block_size in {16, 64, 64 * 4, 16 * 4}


def test_batch_geometry_search_prefers_bigger_blocks(tput_planner):
    """Throughput grows with block size until memory binds, so the search
    must not return the smallest candidate."""
    w = Workload(get_model("opt-30b"), 64, 8, 64, 1)
    _, shaped, _ = tput_planner.search_batch_geometry(
        w, batch_candidates=(4, 64), num_batch_candidates=(1, 8)
    )
    assert shaped.block_size > 4
