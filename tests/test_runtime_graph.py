import pytest

from repro.errors import ScheduleError
from repro.runtime.graph import (
    OpGraph,
    OpNode,
    build_attention_graph,
    kahn_levels,
    max_concurrency,
    topological_order,
)


def critical_path_work(graph: OpGraph) -> float:
    """Longest work-weighted path: the lower bound on any schedule."""
    start = dict.fromkeys(graph.topological_order(), 0.0)
    finish: dict[str, float] = {}
    for name in graph.topological_order():
        finish[name] = start[name] + graph.node(name).work
        for succ in graph.successors(name):
            start[succ] = max(start[succ], finish[name])
    return max(finish.values(), default=0.0)


def chain(n: int) -> OpGraph:
    g = OpGraph()
    prev = None
    for i in range(n):
        g.add_op(OpNode(f"op{i}", work=1.0), deps=[prev] if prev else [])
        prev = f"op{i}"
    return g


def test_chain_has_unit_concurrency():
    g = chain(5)
    assert max_concurrency(g) == 1
    assert len(kahn_levels(g)) == 5


def test_fan_out_width():
    g = OpGraph()
    g.add_op(OpNode("root"))
    for i in range(7):
        g.add_op(OpNode(f"leaf{i}"), deps=["root"])
    assert max_concurrency(g) == 7
    levels = kahn_levels(g)
    assert levels[0] == ["root"]
    assert len(levels[1]) == 7


def test_cycle_detected():
    with pytest.raises(ScheduleError, match="cycle"):
        topological_order({"a": ["b"], "b": ["c"], "c": ["a"], "d": []})
    g = OpGraph()
    g.add_op(OpNode("a"))
    g.add_op(OpNode("b"), deps=["a"])
    # add_op only ever points edges at the new op, so force a back edge.
    g._succ["b"].append("a")
    g._pred["a"].append("b")
    with pytest.raises(ScheduleError, match="cycle"):
        kahn_levels(g)


def test_topological_order_is_flattened_kahn_generations():
    # Each generation in the order its parents released it, not sorted.
    succ = {"z": ["y", "b"], "a": ["x"], "y": [], "b": ["x"], "x": []}
    assert topological_order(succ) == ["z", "a", "y", "b", "x"]


def test_duplicate_op_rejected():
    g = OpGraph()
    g.add_op(OpNode("a"))
    with pytest.raises(ScheduleError, match="duplicate"):
        g.add_op(OpNode("a"))


def test_unknown_dep_rejected():
    g = OpGraph()
    with pytest.raises(ScheduleError, match="unknown"):
        g.add_op(OpNode("b"), deps=["ghost"])


def test_critical_path_work():
    g = OpGraph()
    g.add_op(OpNode("a", work=1.0))
    g.add_op(OpNode("b", work=2.0), deps=["a"])
    g.add_op(OpNode("c", work=5.0), deps=["a"])
    g.add_op(OpNode("d", work=1.0), deps=["b", "c"])
    assert critical_path_work(g) == pytest.approx(7.0)
    assert g.total_work() == pytest.approx(9.0)


def test_attention_graph_width_is_3_per_batch():
    # Paper Figure 6: Q/K/V projections are independent; 4 co-scheduled
    # batches give inter-op concurrency 12 (the Fig. 5 optimum).
    assert max_concurrency(build_attention_graph(1)) == 3
    assert max_concurrency(build_attention_graph(4)) == 12


def test_attention_graph_fine_grained_doubles_width():
    assert max_concurrency(build_attention_graph(4, fine_grained=True)) == 24


def test_attention_graph_same_total_work_both_granularities():
    coarse = build_attention_graph(2).total_work()
    fine = build_attention_graph(2, fine_grained=True).total_work()
    assert coarse == pytest.approx(fine)


def test_attention_graph_dependency_order():
    g = build_attention_graph(1)
    assert {n for n in g.topological_order() if "b0.scores" in g.successors(n)} == {
        "b0.q_proj", "b0.concat_kv",
    }
    assert g.successors("b0.context") == ["b0.out_proj"]


def test_attention_graph_custom_work():
    g = build_attention_graph(1, per_batch_work={"scores": 10.0})
    assert g.node("b0.scores").work == 10.0


def test_attention_graph_invalid_batches():
    with pytest.raises(ScheduleError):
        build_attention_graph(0)
