"""The cost model's decode formula against the scalar reference oracle.

``CostModel`` prices decode tokens with one array formula
(``decode_task_costs_vec``; ``decode_task_costs``, ``decode_seconds``,
``breakdown`` and ``_quant_overhead_totals`` all read it).  The per-token
scalar formulas it replaced live in ``tests/reference_costs.py``.  On
every discrete configuration — all four quantization menus crossed with
both attention placements — every per-token cost and every unsummed
result must equal the reference exactly (``==``).  Whole-run totals sum
the same per-token values in a different order (NumPy's pairwise sum vs
the reference's running sum), so they agree to 1e-9 relative.  The
planner must pick the same policy on the reference path.  The peak-byte
kernel (``_weight_bytes_at`` + ``_memory_columns``) must equal the
reference's scalar memory formulas exactly, through both its one-row
views and the planner's array screen.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import LMOffloadEngine
from repro.core.plan_cache import LP_CACHE
from repro.errors import PolicyError
from repro.hardware import single_a100
from repro.models import get_model
from repro.offload import OffloadPolicy
from repro.offload.planner import PolicyPlanner, memory_bytes
from repro.perfmodel import CostModel, HardwareParams, Workload
from repro.perfmodel.quant_model import kv_quant_overheads, kv_quant_overheads_vec
from repro.quant import QuantConfig
from tests import reference_costs as ref

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
        expected = ref.decode_task_costs(m, t)
        assert tuple(mat[t]) == expected.as_tuple()
        assert m.decode_task_costs(t) == expected


@pytest.mark.parametrize("attn,wq,kq", CONFIGS)
@pytest.mark.parametrize("literal_eq2", [False, True])
def test_decode_seconds_equivalence(engine, workload, attn, wq, kq, literal_eq2):
    """``decode_seconds``, and the paper's literal Eq. 2 as the row max of
    the one-pass cost matrix, against the per-token reference sums."""
    m = _model(engine, workload, attn, wq, kq)
    if literal_eq2:
        tokens = np.arange(workload.gen_len - 1, dtype=np.float64)
        iters = workload.model.num_layers * m.p.num_gpu_batches
        got = float(m.decode_task_costs_vec(tokens).max(axis=1).sum() * iters)
    else:
        got = m.decode_seconds()
    _assert_close(got, ref.decode_seconds(m, literal_eq2), "decode_seconds")


@pytest.mark.parametrize("attn,wq,kq", CONFIGS)
def test_breakdown_equivalence(engine, workload, attn, wq, kq):
    m = _model(engine, workload, attn, wq, kq)
    fast = m.breakdown()
    expected = ref.breakdown(m)
    assert fast.t_prefill == expected.t_prefill
    assert fast.t_init == expected.t_init
    assert fast.bottleneck == expected.bottleneck
    _assert_close(fast.total_seconds, expected.total_seconds, "total_seconds")
    assert set(fast.task_totals) == set(expected.task_totals)
    for name in expected.task_totals:
        _assert_close(fast.task_totals[name], expected.task_totals[name], name)
    assert set(fast.quant_overheads) == set(expected.quant_overheads)
    for name in expected.quant_overheads:
        _assert_close(
            fast.quant_overheads[name], expected.quant_overheads[name], name
        )


@pytest.mark.parametrize("attn,wq,kq", CONFIGS)
def test_quant_overhead_totals_equivalence(engine, workload, attn, wq, kq):
    m = _model(engine, workload, attn, wq, kq)
    fast = m._quant_overhead_totals()
    expected = ref.quant_overhead_totals(m)
    assert set(fast) == set(expected)
    for name in expected:
        # Only the two per-token KV codec totals are sums over tokens.
        if name in ("kv_new_quant", "kv_old_dequant"):
            _assert_close(fast[name], expected[name], name)
        else:
            assert fast[name] == expected[name], name


@pytest.mark.parametrize("device", ["gpu", "cpu"])
def test_kv_quant_overheads_vec_matches_scalar(workload, device):
    tokens = np.arange(workload.gen_len - 1, dtype=np.float64)
    vec = kv_quant_overheads_vec(workload, tokens, device=device)
    for t in range(workload.gen_len - 1):
        expected = kv_quant_overheads(workload, token_idx=t, device=device)
        assert vec.prefill_quant_seconds == expected.prefill_quant_seconds
        assert vec.new_quant_seconds == expected.new_quant_seconds
        assert float(vec.old_dequant_seconds[t]) == expected.old_dequant_seconds


def test_plan_policy_unchanged_scalar_vs_vectorized(workload, monkeypatch):
    """The planner chooses the identical policy when every strategy's LP
    coefficients come from the scalar probes and every candidate of the
    stacked menu is scored by the scalar reference ``breakdown``."""
    fast_policy, _, _ = LMOffloadEngine(single_a100()).plan(workload)

    def reference_scores(planner, model, wg, cg, hg, wd, menu):
        w = model.w
        return np.array([
            ref.breakdown(CostModel(
                w, menu.policies[s].with_(wg=a, cg=b, hg=c, wd=d),
                planner.hw, planner.cpu_ctx,
            )).throughput(w)
            for s, a, b, c, d in zip(
                menu.index.tolist(), *(np.ravel(x).tolist() for x in (wg, cg, hg, wd))
            )
        ])

    def reference_lp_rows(planner, model, templates):
        return [ref.lp_probe_coefficients(planner, model.w, t) for t in templates]

    monkeypatch.setattr(PolicyPlanner, "_scores", reference_scores)
    monkeypatch.setattr(PolicyPlanner, "_lp_rows", reference_lp_rows)
    LP_CACHE.clear()
    slow_policy, _, _ = LMOffloadEngine(single_a100()).plan(workload)
    assert slow_policy == fast_policy


#: The memory grid's strategies: every configuration above plus
#: ZeRO-Inference's compressed GPU-resident weights.
MEMORY_CONFIGS = [pytest.param(*p.values, False, id=p.id) for p in CONFIGS] + [
    pytest.param(False, Q4, None, True, id="gpu-w4kv16-resident"),
]
MEMORY_MODELS = ("opt-1.3b", "opt-30b", "opt-66b", "llama-13b", "llama-65b")
#: (prompt_len, gen_len, gpu_batch_size, num_gpu_batches)
MEMORY_SHAPES = ((64, 32, 64, 10), (512, 1, 8, 1), (128, 128, 16, 4), (32, 8, 1, 3))


@pytest.mark.parametrize("attn,wq,kq,resident", MEMORY_CONFIGS)
def test_memory_prescreen_matches_cost_model(engine, attn, wq, kq, resident):
    """The cost model's one byte kernel equals the scalar reference
    formulas exactly: one placement through the ``gpu_bytes_required`` /
    ``cpu_bytes_required`` views, a whole grid through the planner's
    ``memory_bytes``.  Placements include every ``wg`` the working-layer
    count and the disk staging cap branch on, with none, half and all of
    the offloaded weights spilled to disk."""
    ctx = engine.default_context()
    for name in MEMORY_MODELS:
        for prompt_len, gen_len, bsz, k in MEMORY_SHAPES:
            workload = Workload(get_model(name), prompt_len, gen_len, bsz, k)
            template = OffloadPolicy(
                wg=0.0, cg=0.0, hg=0.0,
                attention_on_cpu=attn, weight_quant=wq, kv_quant=kq,
                quantize_resident_weights=resident,
                gpu_batch_size=bsz, num_gpu_batches=k,
            )
            cands = [
                (wg, cg, hg, round((1.0 - wg) * spill, 4))
                for wg in (0.0, 0.15000000000000002, 0.55, 1.0)
                for cg in ((0.0,) if attn else (0.0, 0.5, 1.0))
                for hg in (0.0, 1.0)
                for spill in (0.0, 0.5, 1.0)
            ]
            wg, cg, hg, wd = (np.array(axis) for axis in zip(*cands))
            model = CostModel(workload, template, engine.hw, ctx)
            gpu, host = memory_bytes(model, wg, cg, hg, wd, model.strategy())
            for i, (a, b, c, d) in enumerate(cands):
                m = CostModel(
                    workload, template.with_(wg=a, cg=b, hg=c, wd=d), engine.hw, ctx
                )
                expected = (ref.gpu_bytes_required(m), ref.cpu_bytes_required(m))
                assert (m.gpu_bytes_required(), m.cpu_bytes_required()) == expected
                assert (gpu[i], host[i]) == expected


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


def test_bench_timing_quick_smoke(quick_bench_timing):
    payload = quick_bench_timing.payload
    assert quick_bench_timing.path.exists()
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
