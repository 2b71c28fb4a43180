import pytest

from repro.errors import ScheduleError
from repro.runtime import OverlappedExecutor, TaskCosts


def test_steady_state_matches_resource_grouped_eq2():
    """In steady state, the marginal token cost equals
    max(h2d-sum, d2h-sum, compute) x layers x batches — the
    resource-grouped form of the paper's Eq. 2."""
    costs = TaskCosts(
        load_weight=0.004, load_cache=0.002, load_activation=0.0001,
        store_cache=0.003, store_activation=0.0001, compute=0.005,
    )
    ex = OverlappedExecutor(num_layers=4, num_gpu_batches=3)
    marginal = ex.steady_state_token_time(costs, warmup=3)
    h2d = costs.load_weight + costs.load_cache + costs.load_activation
    d2h = costs.store_cache + costs.store_activation
    expected = max(h2d, d2h, costs.compute) * 4 * 3
    assert marginal == pytest.approx(expected, rel=0.05)


@pytest.mark.parametrize("bottleneck", ["h2d", "compute", "d2h"])
def test_bottleneck_resource_saturates(bottleneck):
    values = {"h2d": 0.001, "compute": 0.001, "d2h": 0.001}
    values[bottleneck] = 0.01
    costs = TaskCosts(
        load_weight=values["h2d"], store_cache=values["d2h"],
        compute=values["compute"],
    )
    ex = OverlappedExecutor(num_layers=3, num_gpu_batches=2)
    ex.steady_state_token_time(costs, warmup=4)
    sim = ex.sim
    resource = {"h2d": "h2d", "d2h": "d2h", "compute": "compute"}[bottleneck]
    assert sim.resources[resource].busy_time / sim.makespan > 0.85


def test_overlap_beats_serial():
    costs = TaskCosts(load_weight=0.01, store_cache=0.01, compute=0.01)
    ex = OverlappedExecutor(num_layers=4, num_gpu_batches=2)
    overlapped = ex.steady_state_token_time(costs)
    assert overlapped < sum(costs.as_tuple()) * 4 * 2 * 0.6


def test_invalid_geometry():
    with pytest.raises(ScheduleError):
        OverlappedExecutor(num_layers=0, num_gpu_batches=1)


def test_decode_loop_trace():
    ex = OverlappedExecutor(num_layers=2, num_gpu_batches=2)
    prefill = TaskCosts(compute=0.05, load_weight=0.01)
    decode = TaskCosts(compute=0.01, load_weight=0.005)
    trace = ex.run_generation(prefill, [decode] * 3, gen_len=4)
    assert trace.prefill_seconds > 0
    assert trace.decode_seconds > 0
    assert len(trace.per_token_seconds) == 3  # (n - 1) decode steps
    assert sum(trace.per_token_seconds) == pytest.approx(trace.decode_seconds)


def test_decode_loop_growing_costs():
    """Per-token costs that grow (KV cache growth) show up in the trace."""
    ex = OverlappedExecutor(num_layers=2, num_gpu_batches=1)
    trace = ex.run_generation(
        TaskCosts(compute=0.01),
        [TaskCosts(compute=0.01 * (1 + t)) for t in range(3)],
        gen_len=4,
    )
    assert trace.per_token_seconds[0] < trace.per_token_seconds[-1]


def test_decode_loop_invalid_gen_len():
    ex = OverlappedExecutor(num_layers=1, num_gpu_batches=1)
    with pytest.raises(ScheduleError):
        ex.run_generation(TaskCosts(), [], 0)
