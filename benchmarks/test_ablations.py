"""Ablation benches for the design choices DESIGN.md calls out.

1. Per-tensor quantization decisions vs blanket quantization.
2. Kahn-derived inter-op parallelism vs fixed settings.
3. Volume-proportional I/O thread split vs uniform split.
4. Quantizer group-size sensitivity (accuracy vs metadata overhead).
5. Codec kernel rates: FlexGen-like vs ideal (the tradeoff's origin).
"""

import numpy as np
import pytest

from repro.bench.experiments import Q4, motivating_workload
from repro.core.engine import Substrate
from repro.hardware import single_a100
from repro.offload.planner import PolicyPlanner
from repro.parallel.controller import (
    UNIT_WORK_SECONDS,
    ParallelismController,
    compute_makespan,
)
from repro.perfmodel import CostModel
from repro.perfmodel.constants import EngineCalibration
from repro.quant import QuantConfig, compress, decompress
from repro.runtime.graph import build_attention_graph


@pytest.fixture(scope="module")
def setup():
    sub = Substrate.of(single_a100())
    return sub.hw, sub.default_context()


@pytest.mark.paper
def test_ablation_per_tensor_vs_blanket_quant(benchmark, setup):
    """LM-Offload decides per tensor; blanket 'compress everything' loses
    (this is Observation 2 turned into an ablation)."""
    hw, ctx = setup
    planner = PolicyPlanner(hw=hw, cpu_ctx=ctx, quant_aware=True)
    workload = motivating_workload()

    def run():
        best, best_tput = planner.search(workload)
        blanket, blanket_tput = planner.search_fixed(workload, False, Q4, Q4)
        return best_tput, blanket_tput

    best_tput, blanket_tput = benchmark.pedantic(run, rounds=1, iterations=1)
    print(f"per-tensor decision: {best_tput:.1f} tok/s; blanket W4+KV4: {blanket_tput:.1f} tok/s")
    # Blanket compression is strictly dominated: the KV4-only strategy the
    # per-tensor search finds avoids the weight-codec tax.
    assert best_tput > blanket_tput * 1.05


@pytest.mark.paper
def test_ablation_kahn_interop_vs_fixed(benchmark):
    """Algorithm 3's Kahn-derived plan vs naive fixed settings."""
    sub = Substrate.of(single_a100())
    controller = ParallelismController(
        topology=sub.topology, contention=sub.contention,
        io_volumes={"load_weight": 30e6},
    )
    graph = build_attention_graph(4)

    def run():
        from repro.parallel.bundling import bundle_operators
        from repro.parallel.speedup import ParallelismSetting

        bundled, _ = bundle_operators(graph)
        plan = controller.plan(graph)
        fixed = {
            (i, c): compute_makespan(
                bundled, ParallelismSetting(i, c), sub.contention, UNIT_WORK_SECONDS
            )
            for i, c in [(56, 112), (1, 1), (56, 1), (1, 112)]
        }
        return plan.predicted_compute_seconds, fixed

    planned, fixed = benchmark.pedantic(run, rounds=1, iterations=1)
    print(f"Algorithm 3 plan: {planned*1e3:.2f} ms; fixed settings:")
    for (i, c), t in fixed.items():
        print(f"  intra={i:3d} inter={c:3d}: {t*1e3:.2f} ms")
    assert all(planned <= t * 1.001 for t in fixed.values())


@pytest.mark.paper
def test_ablation_io_thread_split(benchmark):
    """Volume-proportional thread split vs uniform split of the same pool."""
    sub = Substrate.of(single_a100())
    volumes = {
        "load_weight": 35e6, "load_cache": 5e6, "store_cache": 1e6,
        "load_activation": 0.1e6, "store_activation": 0.1e6,
    }
    controller = ParallelismController(
        topology=sub.topology, contention=sub.contention, io_volumes=volumes,
    )

    def run():
        free = 10
        proportional = controller.split_io_threads(free)
        uniform = {t: free // 5 for t in proportional}
        def worst(assign):
            return max(
                controller.io_task_seconds(t, assign[t], wire_seconds=0.0)
                for t in assign
            )
        return worst(proportional), worst(uniform)

    prop, uni = benchmark.pedantic(run, rounds=1, iterations=1)
    print(f"worst staging time: proportional {prop*1e3:.2f} ms, uniform {uni*1e3:.2f} ms")
    assert prop < uni


@pytest.mark.paper
def test_ablation_group_size(benchmark, rng=np.random.default_rng(5)):
    """Quantizer group size: error shrinks, metadata grows."""
    data = rng.standard_normal((128, 1024)).astype(np.float32)

    def run():
        out = []
        for g in (16, 64, 256, 1024):
            cfg = QuantConfig(bits=4, group_size=g)
            err = np.abs(data - decompress(compress(data, cfg))).mean()
            out.append((g, err, cfg.total_bytes(data.size)))
        return out

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    print("group | mean_abs_err | stored bytes")
    for g, err, size in rows:
        print(f"{g:5d} | {err:.5f} | {size:.0f}")
    errors = [r[1] for r in rows]
    sizes = [r[2] for r in rows]
    assert errors == sorted(errors)            # bigger groups -> more error
    assert sizes == sorted(sizes, reverse=True)  # bigger groups -> less metadata


@pytest.mark.paper
def test_ablation_codec_rates(benchmark, setup):
    """The quantization tradeoff exists *because* codec kernels are slow:
    at ideal kernel rates weight quantization flips to beneficial."""
    hw, ctx = setup
    from repro.offload.policy import OffloadPolicy

    workload = motivating_workload()
    policy = OffloadPolicy(
        wg=0.55, hg=0.0, attention_on_cpu=False,
        gpu_batch_size=64, num_gpu_batches=10,
    )

    def run():
        out = {}
        for label, cal in [
            ("flexgen-codec", EngineCalibration.paper_defaults()),
            ("ideal-codec", EngineCalibration.ideal_kernels()),
        ]:
            plain = CostModel(workload, policy, hw, ctx, cal).breakdown().total_seconds
            quant = CostModel(
                workload, policy.with_(weight_quant=Q4), hw, ctx, cal
            ).breakdown().total_seconds
            out[label] = plain / quant  # >1 means quantization helps
        return out

    gains = benchmark.pedantic(run, rounds=1, iterations=1)
    print(f"W4 end-to-end gain: {gains}")
    assert gains["flexgen-codec"] < 1.0 < gains["ideal-codec"]
