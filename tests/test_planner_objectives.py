import pytest

from repro.models import get_model
from repro.offload.planner import PolicyPlanner
from repro.perfmodel import Workload


@pytest.fixture
def tput_planner(hw, default_ctx):
    return PolicyPlanner(hw=hw, cpu_ctx=default_ctx, quant_aware=True)


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
