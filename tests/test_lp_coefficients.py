"""The placement LP's coefficients against the scalar probes they replaced.

``PolicyPlanner._lp_rows`` reads every strategy's ``(t0, t_mat, g0,
g_mat)`` from one ``CostModel._decode_columns`` call and one
``memory_bytes`` call (the cost model's ``_weight_bytes_at`` /
``_memory_columns`` byte kernel) over the stacked ``(nvars + 1)``-placement
probe arrays of the whole menu; ``lp_coefficients`` is that pass over a
one-strategy menu.  ``reference_costs.lp_probe_coefficients`` is the
former extraction: one probe policy and ``CostModel`` per LP variable
plus the origin, each priced through the scalar reference decode and
peak-byte formulas.  Both the stacked rows and the one-strategy rows must
be ``np.array_equal`` to it on every Tab. 3 cell, attention placement
and quantization menu, under both the default and the Alg. 3-controlled
CPU context and on a PCIe-degraded platform, and ``lp_placement`` must
return the same fractions from either.

The LP itself is checked against scipy's HiGHS (``linprog``), the solver
:func:`~repro.offload.lp.vertex_lp` replaced, on every LP of that matrix
with both platforms taking the whole of Tab. 3: both agree on
feasibility, the optimal step time agrees within 1e-9 relative, and the
candidate set :meth:`PolicyPlanner._candidate_fractions` builds from the
canonical vertex equals the one it builds from HiGHS's ``x``.  Hand-built
LPs pin the canonical vertex on the two multi-vertex optimal faces the
matrix contains.
"""

from __future__ import annotations

import json
import math

import numpy as np
import pytest
from scipy.optimize import linprog

from repro.bench import paper_data
from repro.bench.experiments import run_tab3_overall
from repro.core.plan_cache import LP_CACHE
from repro.core import LMOffloadEngine
from repro.errors import PolicyError
from repro.faults import FaultKind, FaultSpec, degraded_platform
from repro.hardware import single_a100
from repro.models import get_model
from repro.offload import OffloadPolicy
from repro.offload.lp import vertex_lp
from repro.offload import planner as planner_mod
from repro.offload.planner import PolicyPlanner, _fractions
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


def _template(workload, attn, wq, kq):
    return OffloadPolicy(
        wg=0.0, cg=0.0, hg=0.0, attention_on_cpu=attn, weight_quant=wq,
        kv_quant=kq, gpu_batch_size=workload.gpu_batch_size,
        num_gpu_batches=workload.num_gpu_batches,
    )


def _pcie_degraded():
    return degraded_platform(
        single_a100(), [FaultSpec(FaultKind.PCIE_DEGRADE, 0.0, 1e9, 0.5)], 1.0
    )


def _solve(planner, workload, template):
    try:
        return planner.lp_placement(workload, template)
    except PolicyError as exc:
        return str(exc)


def assert_lp_matches_probes(planner, workload, monkeypatch):
    templates = [_template(workload, *strategy) for strategy in STRATEGIES]
    stacked = planner._lp_rows(planner._model(workload, templates[0]), templates)
    for template, rows in zip(templates, stacked):
        got = planner.lp_coefficients(workload, template)
        want = ref.lp_probe_coefficients(planner, workload, template)
        for name, a, b, c in zip(("t0", "t_mat", "g0", "g_mat"), got, want, rows):
            assert a.shape == b.shape == c.shape, name
            assert np.array_equal(a, b), (name, a, b)
            assert np.array_equal(c, b), (name, c, b)
        fractions = _solve(planner, workload, template)
        with monkeypatch.context() as m:
            m.setattr(PolicyPlanner, "lp_coefficients", ref.lp_probe_coefficients)
            LP_CACHE.clear()
            assert _solve(planner, workload, template) == fractions


def default_and_controlled(engine, workload):
    """The planners of ``engine.plan``'s two passes: the PyTorch-default
    CPU context, then the Alg. 3-controlled one."""
    _, controlled, _ = engine.plan(workload)
    return (
        engine._planner(engine.default_context()),
        engine._planner(controlled),
    )


def tab3_planners(platform, model_name):
    """``(planner, workload)`` for each Tab. 3 cell of ``model_name`` under
    both CPU contexts of ``engine.plan`` on ``platform``."""
    engine = LMOffloadEngine(platform)
    for gen_len in TAB3_GEN_LENS:
        b, k = paper_data.bls_split(paper_data.TAB3[model_name][gen_len]["flexgen"][0])
        workload = Workload(get_model(model_name), 64, gen_len, b, k)
        for planner in default_and_controlled(engine, workload):
            yield planner, workload


@pytest.mark.parametrize("model_name", TAB3_MODELS)
def test_tab3_lp_coefficients_match_scalar_probes(model_name, monkeypatch):
    for planner, workload in tab3_planners(single_a100(), model_name):
        assert_lp_matches_probes(planner, workload, monkeypatch)


def test_pcie_degraded_lp_coefficients_match_scalar_probes(monkeypatch):
    engine = LMOffloadEngine(_pcie_degraded())
    workload = Workload(get_model("opt-30b"), 64, 32, 64, 10)
    for planner in default_and_controlled(engine, workload):
        assert_lp_matches_probes(planner, workload, monkeypatch)


def test_lp_builds_one_cost_model_and_no_probe_policies(monkeypatch, hw, default_ctx):
    """One ``CostModel`` per LP, built on the template itself."""
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
    template = _template(workload, False, None, None)
    planner.lp_placement(workload, template)
    assert built == [template]


# -- the vertex LP against HiGHS ------------------------------------------------


def highs(t0, t_mat, g0, g_mat, caps):
    """The same LP through scipy's HiGHS, as the planner solved it before."""
    nvars = t_mat.shape[1]
    c = np.zeros(nvars + 1)
    c[-1] = 1.0
    a_ub = np.vstack([
        np.hstack([t_mat, -np.ones((len(t0), 1))]),
        np.hstack([g_mat, np.zeros((len(g0), 1))]),
    ])
    b_ub = np.concatenate([-t0, caps - g0])
    bounds = [(0.0, 1.0)] * nvars + [(0.0, None)]
    return linprog(c, A_ub=a_ub, b_ub=b_ub, bounds=bounds, method="highs")


def step_time(t0, t_mat, x):
    """The LP objective at fractions ``x``: the slowest task, at least 0."""
    return max(0.0, float(np.max(t0 + t_mat @ x)))


def assert_vertex_matches_highs(planner, workload, template):
    t0, t_mat, g0, g_mat = planner.lp_coefficients(workload, template)
    caps = np.array([planner.hw.gpu_mem_capacity, planner.hw.cpu_mem_capacity])
    res = highs(t0, t_mat, g0, g_mat, caps)
    try:
        x = vertex_lp(t0, t_mat, g0, g_mat, caps)
    except PolicyError:
        assert not res.success, (template.describe(), res.message)
        return
    assert res.success, (template.describe(), res.message)
    assert step_time(t0, t_mat, x) == pytest.approx(res.fun, rel=1e-9, abs=0.0)
    attn = template.attention_on_cpu
    ours = planner._candidate_fractions(_fractions(template, x.tolist()), attn)
    want = planner._candidate_fractions(_fractions(template, res.x[:-1].tolist()), attn)
    assert np.array_equal(ours, want), (template.describe(), x, res.x)


@pytest.mark.parametrize("model_name", TAB3_MODELS)
@pytest.mark.parametrize(
    "platform", [single_a100, _pcie_degraded], ids=["single-a100", "pcie-degraded"]
)
def test_tab3_vertex_lp_matches_highs(platform, model_name):
    for planner, workload in tab3_planners(platform(), model_name):
        for attn, wq, kq in STRATEGIES:
            template = _template(workload, attn, wq, kq)
            assert_vertex_matches_highs(planner, workload, template)


def _lp(t0, t_mat, g0, g_mat, caps):
    return tuple(np.array(v, dtype=np.float64) for v in (t0, t_mat, g0, g_mat, caps))


#: Variables ``(wg, hg)``: compute (1 s) is the slowest task everywhere, and
#: GPU memory caps ``wg`` at 0.5 (1/3 with ``hg = 1``).  Every point with
#: ``wg`` in ``[0, mem]`` and ``hg`` in ``[0, 1]`` is optimal.
FLAT_FACE = _lp(
    [0.5, 0.2, 1.0], [[-0.3, 0.0], [0.0, 0.1], [0.0, 0.0]],
    [10e9, 50e9], [[30e9, 5e9], [-30e9, 0.0]], [25e9, 100e9],
)
#: Variables ``(wg, cg, hg)``: h2d (1.5 - wg) falls below compute (1 s,
#: growing with ``cg``) at ``wg = 0.5``, and GPU memory caps ``wg`` at 0.8
#: with ``cg = hg = 0``.  The optimal face is ``wg`` in ``[0.5, mem]``,
#: ``cg = 0``, any ``hg`` that fits.
CROSSOVER_FACE = _lp(
    [1.5, 0.2, 1.0], [[-1.0, 0.0, 0.0], [0.0, 0.0, 0.1], [0.0, 0.5, 0.0]],
    [10e9, 60e9], [[20e9, 4e9, 2e9], [-20e9, -4e9, -2e9]], [26e9, 100e9],
)


def test_flat_face_picks_the_origin():
    """Fewest tight task rows ties everywhere on the face; the least
    ``hg``, then ``wg``, is the origin."""
    res = highs(*FLAT_FACE)
    x = vertex_lp(*FLAT_FACE)
    assert x.tolist() == [0.0, 0.0]
    assert step_time(*FLAT_FACE[:2], x) == pytest.approx(res.fun, rel=1e-9)


def test_crossover_face_picks_the_gpu_memory_tight_vertex():
    """The crossover end has two tight task rows (h2d and compute), the
    memory end one; of the one-row vertices the least ``hg`` wins."""
    res = highs(*CROSSOVER_FACE)
    x = vertex_lp(*CROSSOVER_FACE)
    assert x.tolist() == pytest.approx([0.8, 0.0, 0.0], abs=1e-12)
    t0, t_mat, g0, g_mat, caps = CROSSOVER_FACE
    assert (g0 + g_mat @ x)[0] == pytest.approx(caps[0], rel=1e-12)
    assert step_time(t0, t_mat, x) == pytest.approx(res.fun, rel=1e-9)


def test_memory_infeasible_lp_raises_policy_error():
    t0, t_mat, g0, g_mat, caps = CROSSOVER_FACE
    g0 = np.array([30e9, 60e9])  # over the GPU's 26 GB before any weight
    assert highs(t0, t_mat, g0, g_mat, caps).status == 2
    with pytest.raises(PolicyError, match="placement LP infeasible"):
        vertex_lp(t0, t_mat, g0, g_mat, caps)


def test_bound_tight_coordinates_are_positive_zero():
    """The batched solve returns ``-0.0`` for a coordinate pinned by its
    ``x >= 0`` row; the canonical vertex must not."""
    assert math.copysign(1.0, np.linalg.solve(-np.eye(2), np.zeros(2))[0]) < 0
    x = vertex_lp(*FLAT_FACE)
    assert [math.copysign(1.0, v) for v in x.tolist()] == [1.0, 1.0]


def test_tab3_sweep_plans_no_negative_zero(monkeypatch):
    """No LP result or planned policy of the Tab. 3 sweep carries a
    ``-0.0`` fraction, which a JSON artifact would print as ``-0.0``."""
    values: list[float] = []
    solve_lp = planner_mod.solve_lp
    search_menu = PolicyPlanner._search_menu

    def recording_lp(*args):
        out = solve_lp(*args)
        values.extend(out)
        return out

    def recording_search(self, *args, **kwargs):
        results = search_menu(self, *args, **kwargs)
        for policy, _ in filter(None, results):
            values.extend((policy.wg, policy.cg, policy.hg, policy.wd))
        return results

    monkeypatch.setattr(planner_mod, "solve_lp", recording_lp)
    monkeypatch.setattr(PolicyPlanner, "_search_menu", recording_search)
    rows = run_tab3_overall()
    assert values
    assert [v for v in values if math.copysign(1.0, v) < 0] == []
    assert "-0.0" not in json.dumps(rows)
