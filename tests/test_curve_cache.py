"""The process-wide curve cache behind Algorithm 3 and the cost model's
parallel efficiency: the array pass equals the scalar search it
replaced, cache on == cache off, and the key names everything a schedule
reads."""

import dataclasses
import json

import numpy as np
import pytest

from repro.baselines import FlexGenEngine, ZeroInferenceEngine
from repro.bench import paper_data
from repro.bench.chaos import run_chaos
from repro.core import LMOffloadEngine
from repro.core.plan_cache import CURVE_CACHE, PlanCache
from repro.errors import ConfigError
from repro.hardware import single_a100
from repro.hardware.cache import CacheHierarchy
from repro.models import get_model
from repro.obs import profiling_enabled
from repro.obs.profiling import PROFILER
from repro.parallel import ContentionModel, CpuTopology, ParallelismSetting
from repro.parallel.bundling import bundle_operators
from repro.parallel.controller import (
    IO_TASKS,
    STAGING_BW_PER_THREAD,
    UNIT_WORK_SECONDS,
    ParallelismController,
    ParallelismPlan,
    compute_makespan,
    schedule_makespan,
)
from repro.parallel.speedup import CalibrationConstants
from repro.perfmodel import CpuExecutionContext, Workload
from repro.runtime.graph import (
    OpGraph,
    OpNode,
    build_attention_graph,
    max_concurrency,
)


def _lookups():
    """(misses, hits) of the curve cache in the profiler's report."""
    stats = PROFILER.report()["caches"].get("parallel.curve", {})
    return stats.get("misses", 0), stats.get("hits", 0)


# -- the scalar Algorithm 3 loop the array pass replaced ----------------------


def reference_makespan(graph, setting, contention, unit):
    """Uncached contention-adjusted list schedule of ``graph``."""
    co = min(setting.inter_op, max_concurrency(graph))

    def op_time(name):
        node = graph.node(name)
        speedup = contention.effective_op_speedup(
            setting, co, op_bytes=node.bytes_touched or 4e6
        )
        return node.work * unit / speedup

    return schedule_makespan(graph, setting.inter_op, op_time)


def reference_split(io_volumes, free_threads):
    volumes = {t: max(io_volumes.get(t, 0.0), 0.0) for t in IO_TASKS}
    total = sum(volumes.values())
    out = {t: 1 for t in IO_TASKS}
    remaining = free_threads - len(IO_TASKS)
    if total > 0 and remaining > 0:
        quotas = {t: remaining * v / total for t, v in volumes.items()}
        floors = {t: int(q) for t, q in quotas.items()}
        for t, f in floors.items():
            out[t] += f
        leftover = remaining - sum(floors.values())
        by_frac = sorted(IO_TASKS, key=lambda t: quotas[t] - floors[t], reverse=True)
        for t in by_frac[:leftover]:
            out[t] += 1
    return out


def reference_io_seconds(io_volumes, task, threads, wire_seconds):
    volume = io_volumes.get(task, 0.0)
    if volume <= 0:
        return wire_seconds
    return max(wire_seconds, volume / (STAGING_BW_PER_THREAD * max(1, threads)))


def reference_plan(controller, graph, io_wire_seconds=None):
    """One list schedule, split and candidate plan per intra width; returns
    the plan and the ``(intra, inter, io_threads, compute, step)``
    landscape in search order."""
    wire = {t: 0.0 for t in IO_TASKS}
    if io_wire_seconds:
        wire.update(io_wire_seconds)
    work_graph, _ = bundle_operators(graph)
    width = max_concurrency(work_graph)
    max_thrs = controller.topology.hardware_threads
    hi = max_thrs - len(IO_TASKS)
    best, landscape = None, []
    for intra in range(1, hi + 1):
        inter = min(width, hi // intra)
        if inter < 1:
            continue
        free = max_thrs - inter * intra
        setting = ParallelismSetting(intra_op=intra, inter_op=inter)
        compute_s = reference_makespan(
            work_graph, setting, controller.contention, UNIT_WORK_SECONDS
        )
        io_threads = reference_split(controller.io_volumes, free)
        io_s = {
            t: reference_io_seconds(controller.io_volumes, t, io_threads[t], wire[t])
            for t in IO_TASKS
        }
        step = max(compute_s, *io_s.values())
        landscape.append((intra, inter, io_threads, compute_s, step))
        if best is None or (step, compute_s) < (
            best.predicted_step_seconds, best.predicted_compute_seconds
        ):
            best = ParallelismPlan(
                compute=setting,
                io_threads=io_threads,
                inter_op_total=inter + len(IO_TASKS),
                predicted_compute_seconds=compute_s,
                predicted_step_seconds=step,
            )
    return best, landscape


def assert_same_plan(got, want):
    """Field for field, with the exact Python types JSON output needs."""
    assert got == want
    assert type(got.compute.intra_op) is int and type(got.compute.inter_op) is int
    assert type(got.inter_op_total) is int
    assert list(got.io_threads) == list(IO_TASKS)
    assert all(type(v) is int for v in got.io_threads.values())
    assert type(got.predicted_compute_seconds) is float
    assert type(got.predicted_step_seconds) is float
    assert got.predicted_step_seconds == want.predicted_step_seconds
    assert got.predicted_compute_seconds == want.predicted_compute_seconds


TOPOLOGIES = {
    "xeon-2x28x2": CpuTopology(sockets=2, cores_per_socket=28, smt=2),
    "1x8x1": CpuTopology(sockets=1, cores_per_socket=8, smt=1),
    "2x6x2": CpuTopology(sockets=2, cores_per_socket=6, smt=2),
}


def _random_volumes(rng, case):
    if case == 0:
        return {t: 0.0 for t in IO_TASKS}
    if case == 1:
        return {IO_TASKS[int(rng.integers(len(IO_TASKS)))]: float(rng.uniform(1, 1e8))}
    if case == 2:  # equal volumes: every remainder ties
        return {t: 1e6 for t in IO_TASKS}
    if case == 3:  # repeated magnitudes, some negative or missing
        choices = [0.0, -1.0, 1e5, 1e5, 3e7]
        return {t: float(rng.choice(choices)) for t in IO_TASKS if rng.random() < 0.8}
    return {t: float(rng.lognormal(14, 3)) for t in IO_TASKS}


@pytest.mark.parametrize("topo_name", sorted(TOPOLOGIES))
def test_array_pass_equals_scalar_search(topo_name, a100):
    """Seeded random I/O volumes (all-zero, single-task, tied and random)
    and wire times on 1-4-batch graphs: the array pass returns the scalar
    loop's plan and walks the same landscape."""
    topo = TOPOLOGIES[topo_name]
    contention = ContentionModel(topo, a100.cache)
    rng = np.random.default_rng(sorted(TOPOLOGIES).index(topo_name))
    for trial in range(20):
        volumes = _random_volumes(rng, trial % 5)
        wire = {t: float(rng.choice([0.0, rng.uniform(0, 5e-3)])) for t in IO_TASKS}
        graph = build_attention_graph(int(rng.integers(1, 5)))
        controller = ParallelismController(
            topology=topo, contention=contention, io_volumes=volumes
        )
        want, landscape = reference_plan(controller, graph, wire)
        assert_same_plan(controller.plan(graph, io_wire_seconds=wire), want)
        intra, inter, compute_s, io_threads, step = controller._landscape(
            graph, wire
        )
        assert list(zip(
            intra.tolist(),
            inter.tolist(),
            [dict(zip(IO_TASKS, row)) for row in zip(
                *(io_threads[t].tolist() for t in IO_TASKS)
            )],
            compute_s.tolist(),
            step.tolist(),
        )) == landscape


def test_vectorized_split_equals_scalar_split():
    rng = np.random.default_rng(7)
    topo = TOPOLOGIES["xeon-2x28x2"]
    contention = ContentionModel(topo)
    free = np.arange(5, 113)
    for case in range(25):
        volumes = _random_volumes(rng, case % 5)
        controller = ParallelismController(
            topology=topo, contention=contention, io_volumes=volumes
        )
        split = controller.split_io_threads(free)
        for i, n in enumerate(free.tolist()):
            assert {t: int(split[t][i]) for t in IO_TASKS} == reference_split(volumes, n)


def test_no_feasible_setting_stays_a_typed_error():
    topo = TOPOLOGIES["1x8x1"]
    controller = ParallelismController(topology=topo, contention=ContentionModel(topo))
    with pytest.raises(ConfigError):
        controller.plan(OpGraph())  # an empty graph has no inter-op width


# -- parallel_efficiency -----------------------------------------------------


def test_parallel_efficiency_follows_a_reassigned_setting(topo, contention):
    """The context is mutable: reassigning its setting or graph kind after
    a first call must change the efficiency (a memo keyed only on
    ``num_batches`` kept the first value)."""
    ctx = CpuExecutionContext.pytorch_default(topo, contention)
    default = ctx.parallel_efficiency()
    controlled = ParallelismSetting(intra_op=8, inter_op=12)
    ctx.setting = controlled
    after = ctx.parallel_efficiency()
    assert after != default
    fresh = CpuExecutionContext(
        topology=topo, contention=contention, setting=controlled,
        use_fine_grained_graph=True,
    )
    assert after == fresh.parallel_efficiency()
    ctx.use_fine_grained_graph = False
    bundled = ctx.parallel_efficiency()
    assert bundled != after
    graph, _ = bundle_operators(build_attention_graph(4))
    assert bundled == graph.total_work() / reference_makespan(
        graph, controlled, contention, 1.0
    )


def test_cost_models_share_one_schedule_per_setting(topo, contention):
    with profiling_enabled():
        values = {
            CpuExecutionContext.pytorch_default(topo, contention).parallel_efficiency()
            for _ in range(5)
        }
        misses, hits = _lookups()
    assert len(values) == 1
    # One efficiency entry and one makespan entry; every later context hits.
    assert (misses, hits) == (2, 4)


# -- key completeness ----------------------------------------------------------


def _variants(a100):
    topo = CpuTopology.from_device(a100.cpu)
    cache = a100.cache
    return {
        "reference": ContentionModel(topo, cache),
        "constants": ContentionModel(
            topo, cache, dataclasses.replace(CalibrationConstants(), llc_penalty=1.8)
        ),
        "cache": ContentionModel(
            topo, dataclasses.replace(cache, llc_bytes=cache.llc_bytes / 4)
        ),
        "topology": ContentionModel(
            CpuTopology(sockets=topo.sockets, cores_per_socket=topo.cores_per_socket, smt=1),
            cache,
        ),
    }


@pytest.mark.parametrize("part", ["constants", "cache", "topology"])
def test_contention_parts_key_the_makespan(part, a100):
    """Models differing in one frozen part get their own schedule through
    a warm cache, each equal to the uncached one."""
    variants = _variants(a100)
    graph, _ = bundle_operators(build_attention_graph(4))
    setting = ParallelismSetting(intra_op=8, inter_op=12)
    ref, other = variants["reference"], variants[part]
    assert isinstance(other.cache, CacheHierarchy)
    want_ref = reference_makespan(graph, setting, ref, UNIT_WORK_SECONDS)
    want_other = reference_makespan(graph, setting, other, UNIT_WORK_SECONDS)
    assert want_ref != want_other
    assert compute_makespan(graph, setting, ref, UNIT_WORK_SECONDS) == want_ref
    assert compute_makespan(graph, setting, other, UNIT_WORK_SECONDS) == want_other
    # A rebuilt but equal model (a retarget) shares the entry.
    rebuilt = ContentionModel(ref.topology, ref.cache, ref.c)
    with profiling_enabled():
        assert compute_makespan(graph, setting, rebuilt, UNIT_WORK_SECONDS) == want_ref
        assert _lookups() == (0, 1)


@pytest.mark.parametrize("part", ["constants", "cache", "topology"])
def test_contention_parts_key_the_alg3_curve(part, a100):
    variants = _variants(a100)
    graph = build_attention_graph(4)
    plans = {}
    for name in ("reference", part):
        contention = variants[name]
        controller = ParallelismController(
            topology=contention.topology, contention=contention,
            io_volumes={"load_weight": 3e7, "load_activation": 1e5},
        )
        controller.plan(graph)  # warm
        want, _ = reference_plan(controller, graph)
        plans[name] = controller.plan(graph)
        assert_same_plan(plans[name], want)
    assert plans["reference"] != plans[part]


@pytest.mark.parametrize(
    "other",
    [
        {"bytes_per_op": 64e6},
        {"per_batch_work": {"scores": 3.0}},
    ],
    ids=["bytes_touched", "work"],
)
def test_node_content_keys_the_makespan(other, contention):
    """Graphs of the same shape whose nodes differ in one read field get
    their own schedule through a warm cache."""
    setting = ParallelismSetting(intra_op=8, inter_op=6)
    graphs = [build_attention_graph(2), build_attention_graph(2, **other)]
    assert graphs[0].signature() != graphs[1].signature()
    for graph in graphs:
        compute_makespan(graph, setting, contention)  # warm
    got = [compute_makespan(g, setting, contention) for g in graphs]
    want = [reference_makespan(g, setting, contention, 1.0) for g in graphs]
    assert got == want and want[0] != want[1]


def test_add_op_on_a_planned_graph_misses(contention, topo):
    controller = ParallelismController(topology=topo, contention=contention)
    graph = build_attention_graph(2)
    before = controller.plan(graph)
    setting = before.compute
    compute_makespan(graph, setting, contention)
    graph.add_op(OpNode("tail", work=6.0, bytes_touched=8e6), deps=["b1.out_proj"])
    with profiling_enabled():
        after = controller.plan(graph)
        makespan = compute_makespan(graph, setting, contention)
        assert _lookups() == (2, 0)
    want, _ = reference_plan(controller, graph)
    assert_same_plan(after, want)
    assert after != before
    assert makespan == reference_makespan(graph, setting, contention, 1.0)


def test_curve_cache_reports_under_its_own_name():
    cache = PlanCache(maxsize=1, name="parallel.curve")
    with profiling_enabled() as prof:
        cache.get("a", lambda: 1)
        cache.get("a", lambda: 1)
        cache.get("b", lambda: 2)
    report = prof.report()
    assert report["caches"]["parallel.curve"]["hits"] == 1
    assert report["caches"]["parallel.curve"]["misses"] == 2
    assert report["counts"]["parallel.curve.evictions"] == 1
    assert "engine.plan_memo" not in report["caches"]
    assert CURVE_CACHE.name == "parallel.curve"
    assert PlanCache().name == "engine.plan_memo"


# -- cache on == cache off -------------------------------------------------------


def _tab3_reports():
    """The 60 Tab. 3 ``engine.run`` reports, planned from scratch."""
    engines = {
        m: (FlexGenEngine(single_a100()), ZeroInferenceEngine(single_a100()),
            LMOffloadEngine(single_a100()))
        for m in paper_data.TAB3
    }
    reports = []
    for m, by_len in paper_data.TAB3.items():
        fg, zr, lm = engines[m]
        for n, ref in by_len.items():
            b, k = paper_data.bls_split(ref["flexgen"][0])
            workload = Workload(get_model(m), 64, n, b, k)
            reports += [
                fg.run(workload),
                zr.run(workload, batch=ref["zero-inference"][0]),
                lm.run(workload),
            ]
    return reports


def _quick_chaos_document():
    payload, _ = run_chaos(quick=True, seed=0)
    return json.dumps(payload, sort_keys=True)


def test_cache_off_tab3_reports_are_identical(monkeypatch):
    with profiling_enabled():
        on = _tab3_reports()
        assert _lookups()[1] > 0
    assert len(on) == 60
    CURVE_CACHE.clear()
    monkeypatch.setattr(CURVE_CACHE, "maxsize", 0)
    with profiling_enabled():
        off = _tab3_reports()
        assert _lookups()[1] == 0 and len(CURVE_CACHE) == 0
    assert off == on
    plans = [(a.parallelism, b.parallelism) for a, b in zip(off, on)]
    assert sum(a is not None for a, _ in plans) == 20
    for a, b in plans:
        if a is not None:
            assert_same_plan(a, b)


def test_cache_off_quick_chaos_document_is_identical(monkeypatch):
    on = _quick_chaos_document()
    CURVE_CACHE.clear()
    monkeypatch.setattr(CURVE_CACHE, "maxsize", 0)
    assert _quick_chaos_document() == on
    assert len(CURVE_CACHE) == 0


def test_pass2_keeping_its_policy_reuses_the_thread_plan(monkeypatch):
    """``LMOffloadEngine.plan`` runs Algorithm 3 again only when pass 2
    moved the policy; either way the plan is the final policy's own."""
    engine = LMOffloadEngine(single_a100())
    planned = []
    original = engine.plan_parallelism

    def spy(workload, policy):
        planned.append(policy)
        return original(workload, policy)

    monkeypatch.setattr(engine, "plan_parallelism", spy)
    calls = set()
    for m, by_len in paper_data.TAB3.items():
        for n, ref in by_len.items():
            b, k = paper_data.bls_split(ref["flexgen"][0])
            workload = Workload(get_model(m), 64, n, b, k)
            planned.clear()
            policy, ctx, plan = engine.plan(workload)
            calls.add(len(planned))
            assert planned[-1] == policy
            assert len(planned) == 1 or planned[0] != planned[1]
            assert plan == original(workload, policy)
            assert ctx.setting == plan.compute
    assert calls == {1, 2}
