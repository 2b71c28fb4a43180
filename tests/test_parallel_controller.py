import pytest

from repro.errors import ConfigError
from repro.parallel.controller import (
    IO_TASKS,
    UNIT_WORK_SECONDS,
    ParallelismController,
    compute_makespan,
    schedule_makespan,
)
from repro.parallel.speedup import ParallelismSetting
from repro.runtime.graph import OpGraph, OpNode, build_attention_graph


@pytest.fixture
def controller(topo, contention):
    return ParallelismController(
        topology=topo,
        contention=contention,
        io_volumes={
            "load_weight": 30e6, "load_cache": 0.0, "load_activation": 1e5,
            "store_cache": 0.0, "store_activation": 1e5,
        },
    )


def test_schedule_makespan_serial_chain():
    g = OpGraph()
    g.add_op(OpNode("a", work=1))
    g.add_op(OpNode("b", work=1), deps=["a"])
    assert schedule_makespan(g, 4, lambda n: 1.0) == pytest.approx(2.0)


def test_schedule_makespan_parallel_ops():
    g = OpGraph()
    for i in range(4):
        g.add_op(OpNode(f"op{i}", work=1))
    assert schedule_makespan(g, 4, lambda n: 1.0) == pytest.approx(1.0)
    assert schedule_makespan(g, 2, lambda n: 1.0) == pytest.approx(2.0)
    assert schedule_makespan(g, 1, lambda n: 1.0) == pytest.approx(4.0)


def test_schedule_makespan_invalid_slots():
    with pytest.raises(ConfigError):
        schedule_makespan(OpGraph(), 0, lambda n: 1.0)


def test_plan_reserves_io_threads(controller):
    plan = controller.plan(build_attention_graph(4))
    assert plan.compute.total_threads <= 112 - 5
    assert set(plan.io_threads) == set(IO_TASKS)
    assert all(v >= 1 for v in plan.io_threads.values())
    assert sum(plan.io_threads.values()) == 112 - plan.compute.total_threads


def test_plan_inter_op_bounded_by_graph_width(controller):
    plan = controller.plan(build_attention_graph(4))
    assert 1 <= plan.compute.inter_op <= 12
    assert plan.inter_op_total == plan.compute.inter_op + 5


def test_plan_beats_default_threading(controller, contention):
    """The whole point of Algorithm 3: the chosen setting's compute time
    beats the PyTorch default on the same (bundled) graph."""
    from repro.parallel.bundling import bundle_operators

    graph = build_attention_graph(4)
    bundled, _ = bundle_operators(graph)
    plan = controller.plan(graph)
    default = ParallelismSetting(intra_op=56, inter_op=112)
    assert plan.predicted_compute_seconds < compute_makespan(
        bundled, default, contention, UNIT_WORK_SECONDS
    )


def test_io_thread_split_proportional(controller):
    threads = controller.split_io_threads(30)
    # load_weight has ~300x the volume of activation flows.
    assert threads["load_weight"] > threads["load_activation"]
    assert sum(threads.values()) == 30


def test_io_thread_split_minimum_one_each(controller):
    threads = controller.split_io_threads(5)
    assert all(v == 1 for v in threads.values())
    with pytest.raises(ConfigError):
        controller.split_io_threads(4)


def test_io_task_seconds_wire_floor(controller):
    # Plenty of threads: the wire time is the floor.
    t = controller.io_task_seconds("load_weight", threads=64, wire_seconds=0.01)
    assert t == pytest.approx(0.01)
    # One thread: staging dominates. volume=30e6 / 6e9 = 5ms > 1ms wire.
    t = controller.io_task_seconds("load_weight", threads=1, wire_seconds=0.001)
    assert t == pytest.approx(0.005)


def test_plan_infeasible_when_no_threads(contention, controller):
    from repro.parallel.topology import CpuTopology

    tiny = CpuTopology(sockets=1, cores_per_socket=2, smt=1)
    controller.topology = tiny
    with pytest.raises(ConfigError):
        controller.plan(build_attention_graph(1))
