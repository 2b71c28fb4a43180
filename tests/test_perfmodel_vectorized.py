"""Vectorized cost path vs the scalar reference implementation.

The NumPy fast path (``decode_task_costs_vec`` and the ``vectorized=True``
defaults of ``decode_seconds``/``breakdown``/``_quant_overhead_totals``)
must agree with the per-token scalar loops to 1e-9 relative tolerance on
every discrete configuration — all four quantization menus crossed with
both attention placements — and the planner built on top of it must pick
the same policy either way.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import LMOffloadEngine
from repro.errors import PolicyError
from repro.hardware import single_a100
from repro.models import get_model
from repro.offload import OffloadPolicy
from repro.offload.planner import MemoryPrescreen, PolicyPlanner
from repro.perfmodel import CostModel, HardwareParams, Workload
from repro.perfmodel.quant_model import kv_quant_overheads, kv_quant_overheads_vec
from repro.quant import QuantConfig

Q4 = QuantConfig(bits=4, group_size=64)

#: All four quantization menus (paper Fig. 3) x both attention placements.
MENUS = [(None, None), (Q4, None), (None, Q4), (Q4, Q4)]
CONFIGS = [
    pytest.param(attn, wq, kq, id=f"{'cpu' if attn else 'gpu'}-"
                 f"w{'4' if wq else '16'}kv{'4' if kq else '16'}")
    for attn in (True, False)
    for wq, kq in MENUS
]


@pytest.fixture(scope="module")
def engine():
    return LMOffloadEngine(single_a100())


@pytest.fixture(scope="module")
def workload():
    return Workload(get_model("opt-30b"), 64, 32, 64, 10)


def _model(engine, workload, attn, wq, kq) -> CostModel:
    policy = OffloadPolicy(
        wg=0.1,
        cg=0.0 if attn else 0.25,
        hg=1.0,
        attention_on_cpu=attn,
        weight_quant=wq,
        kv_quant=kq,
        gpu_batch_size=64,
        num_gpu_batches=10,
    )
    return CostModel(
        workload, policy, engine.hw, engine.default_context(),
        engine.config.calibration,
    )


def _assert_close(a: float, b: float, what: str) -> None:
    assert abs(a - b) <= 1e-9 * max(abs(b), 1e-12), f"{what}: {a} vs {b}"


@pytest.mark.parametrize("attn,wq,kq", CONFIGS)
def test_decode_task_costs_vec_matches_scalar(engine, workload, attn, wq, kq):
    m = _model(engine, workload, attn, wq, kq)
    tokens = np.arange(workload.gen_len - 1, dtype=np.float64)
    mat = m.decode_task_costs_vec(tokens)
    assert mat.shape == (workload.gen_len - 1, 6)
    for t in range(workload.gen_len - 1):
        ref = np.array(m.decode_task_costs(t).as_tuple())
        np.testing.assert_allclose(mat[t], ref, rtol=1e-9, atol=0.0)


@pytest.mark.parametrize("attn,wq,kq", CONFIGS)
@pytest.mark.parametrize("literal_eq2", [False, True])
def test_decode_seconds_equivalence(engine, workload, attn, wq, kq, literal_eq2):
    m = _model(engine, workload, attn, wq, kq)
    fast = m.decode_seconds(literal_eq2, vectorized=True)
    ref = m.decode_seconds(literal_eq2, vectorized=False)
    _assert_close(fast, ref, "decode_seconds")


@pytest.mark.parametrize("attn,wq,kq", CONFIGS)
def test_breakdown_equivalence(engine, workload, attn, wq, kq):
    m = _model(engine, workload, attn, wq, kq)
    fast = m.breakdown(vectorized=True)
    ref = m.breakdown(vectorized=False)
    _assert_close(fast.total_seconds, ref.total_seconds, "total_seconds")
    assert fast.bottleneck == ref.bottleneck
    assert set(fast.task_totals) == set(ref.task_totals)
    for name in ref.task_totals:
        _assert_close(fast.task_totals[name], ref.task_totals[name], name)
    assert set(fast.quant_overheads) == set(ref.quant_overheads)
    for name in ref.quant_overheads:
        _assert_close(
            fast.quant_overheads[name], ref.quant_overheads[name], name
        )


@pytest.mark.parametrize("attn,wq,kq", CONFIGS)
def test_quant_overhead_totals_equivalence(engine, workload, attn, wq, kq):
    m = _model(engine, workload, attn, wq, kq)
    fast = m._quant_overhead_totals(vectorized=True)
    ref = m._quant_overhead_totals(vectorized=False)
    assert set(fast) == set(ref)
    for name in ref:
        _assert_close(fast[name], ref[name], name)


@pytest.mark.parametrize("device", ["gpu", "cpu"])
def test_kv_quant_overheads_vec_matches_scalar(workload, device):
    tokens = np.arange(workload.gen_len - 1, dtype=np.float64)
    vec = kv_quant_overheads_vec(workload, tokens, device=device)
    for t in range(workload.gen_len - 1):
        ref = kv_quant_overheads(workload, token_idx=t, device=device)
        _assert_close(vec.prefill_quant_seconds, ref.prefill_quant_seconds,
                      "prefill_quant")
        _assert_close(vec.new_quant_seconds, ref.new_quant_seconds, "new_quant")
        _assert_close(float(vec.old_dequant_seconds[t]),
                      ref.old_dequant_seconds, f"old_dequant[{t}]")


def test_plan_policy_unchanged_scalar_vs_vectorized(workload, monkeypatch):
    """The planner must choose the identical policy on either cost path."""
    fast_policy, _, _ = LMOffloadEngine(single_a100()).plan(workload)

    orig_breakdown = CostModel.breakdown
    orig_decode = CostModel.decode_seconds
    monkeypatch.setattr(
        CostModel, "breakdown",
        lambda self, literal_eq2=False, vectorized=True:
            orig_breakdown(self, literal_eq2, vectorized=False),
    )
    monkeypatch.setattr(
        CostModel, "decode_seconds",
        lambda self, literal_eq2=False, vectorized=True:
            orig_decode(self, literal_eq2, vectorized=False),
    )
    slow_policy, _, _ = LMOffloadEngine(single_a100()).plan(workload)
    assert slow_policy == fast_policy


@pytest.mark.parametrize("attn,wq,kq", CONFIGS)
def test_memory_prescreen_matches_cost_model(engine, workload, attn, wq, kq):
    """The planner's cheap prescreen mirrors the cost model byte-for-byte."""
    template = OffloadPolicy(
        wg=0.0, cg=0.0, hg=0.0,
        attention_on_cpu=attn, weight_quant=wq, kv_quant=kq,
        gpu_batch_size=64, num_gpu_batches=10,
    )
    prescreen = MemoryPrescreen(workload, template, engine.hw)
    cands = [
        (wg, cg, hg, wd)
        for wg in (0.0, 0.1, 0.55, 1.0)
        for cg in ((0.0,) if attn else (0.0, 0.5, 1.0))
        for hg in (0.0, 1.0)
        for wd in (0.0, round((1.0 - wg) * 0.5, 4))
    ]
    wg, cg, hg, wd = (np.array(axis) for axis in zip(*cands))
    gpu = prescreen.gpu_bytes(wg, cg, hg)
    cpu = prescreen.cpu_bytes(wg, cg, hg, wd)
    for i, (a, b, c, d) in enumerate(cands):
        policy = template.with_(wg=a, cg=b, hg=c, wd=d)
        m = CostModel(
            workload, policy, engine.hw,
            engine.default_context(), engine.config.calibration,
        )
        assert gpu[i] == m.gpu_bytes_required()
        assert cpu[i] == m.cpu_bytes_required()


def test_search_batch_geometry_records_failures(engine, workload):
    planner = PolicyPlanner(hw=engine.hw, cpu_ctx=engine.default_context())
    with pytest.raises(PolicyError) as excinfo:
        planner.search_batch_geometry(
            workload, batch_candidates=(100000,), num_batch_candidates=(10,)
        )
    assert "geometries rejected" in str(excinfo.value)
    assert planner.last_geometry_failures
    bsz, k, reason = planner.last_geometry_failures[0]
    assert (bsz, k) == (100000, 10)
    assert reason


def test_bench_timing_quick_smoke(tmp_path):
    from repro.bench.timing import write_bench_timing

    out = tmp_path / "BENCH_timing.json"
    payload = write_bench_timing(path=str(out), quick=True)
    assert out.exists()
    assert payload["quick"] is True
    assert set(payload["targets"]) == {
        "plan", "breakdown", "serve_sim", "fleet_sim", "chaos",
    }
    for result in payload["targets"].values():
        assert result["median_s"] > 0
        assert result["speedup_vs_baseline"] > 0
    serve = payload["targets"]["serve_sim"]
    assert serve["sim_requests"] > 0
    assert serve["sim_steps"] > 0
    assert serve["sim_steps_per_s"] > 0
    assert serve["requests_per_s_of_simulation"] > 0
