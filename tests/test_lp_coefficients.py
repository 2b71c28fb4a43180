"""The placement LP's coefficients against the scalar probes they replaced.

``PolicyPlanner.lp_coefficients`` reads ``(t0, t_mat, g0, g_mat)`` from
one ``CostModel._decode_columns`` call and one ``memory_bytes`` call (the
cost model's ``_weight_bytes_at`` / ``_memory_columns`` byte kernel) over
a ``(nvars + 1)``-placement probe array.
``reference_costs.lp_probe_coefficients`` is the former extraction: one
probe policy and ``CostModel`` per LP variable plus the origin, each
priced through the scalar reference decode and peak-byte formulas.  The two must be
``np.array_equal`` on every Tab. 3 cell, attention placement and
quantization menu, under both the default and the Alg. 3-controlled CPU
context and on a PCIe-degraded platform, and ``lp_placement`` must return
the same fractions from either.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.bench import paper_data
from repro.core import LMOffloadEngine
from repro.errors import PolicyError
from repro.faults import FaultKind, FaultSpec, degraded_platform
from repro.hardware import single_a100
from repro.models import get_model
from repro.offload import OffloadPolicy
from repro.offload.planner import PolicyPlanner
from repro.perfmodel import Workload
from repro.quant import QuantConfig
from tests import reference_costs as ref

Q4 = QuantConfig(bits=4, group_size=64)
TAB3_MODELS = ("opt-30b", "opt-66b", "llama-30b", "llama-65b")
TAB3_GEN_LENS = (8, 16, 32, 64, 128)
#: Both attention placements x all four quantization menus.
STRATEGIES = [
    (attn, wq, kq)
    for attn in (True, False)
    for wq, kq in ((None, None), (Q4, None), (None, Q4), (Q4, Q4))
]


def _solve(planner, workload, template):
    try:
        return planner.lp_placement(workload, template)
    except PolicyError as exc:
        return str(exc)


def assert_lp_matches_probes(planner, workload, monkeypatch):
    for attn, wq, kq in STRATEGIES:
        template = OffloadPolicy(
            wg=0.0, cg=0.0, hg=0.0, attention_on_cpu=attn, weight_quant=wq,
            kv_quant=kq, gpu_batch_size=workload.gpu_batch_size,
            num_gpu_batches=workload.num_gpu_batches,
        )
        got = planner.lp_coefficients(workload, template)
        want = ref.lp_probe_coefficients(planner, workload, template)
        for name, a, b in zip(("t0", "t_mat", "g0", "g_mat"), got, want):
            assert a.shape == b.shape, name
            assert np.array_equal(a, b), (name, a, b)
        fractions = _solve(planner, workload, template)
        with monkeypatch.context() as m:
            m.setattr(PolicyPlanner, "lp_coefficients", ref.lp_probe_coefficients)
            assert _solve(planner, workload, template) == fractions


def default_and_controlled(engine, workload):
    """The planners of ``engine.plan``'s two passes: the PyTorch-default
    CPU context, then the Alg. 3-controlled one."""
    _, controlled, _ = engine.plan(workload)
    return (
        engine._planner(engine.default_context()),
        engine._planner(controlled),
    )


@pytest.mark.parametrize("model_name", TAB3_MODELS)
def test_tab3_lp_coefficients_match_scalar_probes(model_name, monkeypatch):
    engine = LMOffloadEngine(single_a100())
    for gen_len in TAB3_GEN_LENS:
        b, k = paper_data.bls_split(paper_data.TAB3[model_name][gen_len]["flexgen"][0])
        workload = Workload(get_model(model_name), 64, gen_len, b, k)
        for planner in default_and_controlled(engine, workload):
            assert_lp_matches_probes(planner, workload, monkeypatch)


def test_pcie_degraded_lp_coefficients_match_scalar_probes(monkeypatch):
    platform = degraded_platform(
        single_a100(), [FaultSpec(FaultKind.PCIE_DEGRADE, 0.0, 1e9, 0.5)], 1.0
    )
    engine = LMOffloadEngine(platform)
    workload = Workload(get_model("opt-30b"), 64, 32, 64, 10)
    for planner in default_and_controlled(engine, workload):
        assert_lp_matches_probes(planner, workload, monkeypatch)


def test_lp_builds_one_cost_model_and_no_probe_policies(monkeypatch, hw, default_ctx):
    """One ``CostModel`` per LP, built on the template itself."""
    import repro.offload.planner as planner_mod

    built = []
    real = planner_mod.CostModel

    def counting(workload, policy, *args, **kwargs):
        built.append(policy)
        return real(workload, policy, *args, **kwargs)

    monkeypatch.setattr(planner_mod, "CostModel", counting)
    monkeypatch.setattr(
        OffloadPolicy, "with_",
        lambda self, **kw: pytest.fail("LP built a probe policy"),
    )
    planner = PolicyPlanner(hw=hw, cpu_ctx=default_ctx)
    workload = Workload(get_model("opt-30b"), 64, 32, 64, 10)
    template = OffloadPolicy(
        wg=0.0, cg=0.0, hg=0.0, attention_on_cpu=False,
        gpu_batch_size=64, num_gpu_batches=10,
    )
    planner.lp_placement(workload, template)
    assert built == [template]
