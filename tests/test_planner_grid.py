"""The stacked policy search against the per-candidate loop it replaced.

``reference_search_fixed`` is the planner's former per-strategy search,
kept here as the oracle: it walks the same candidates one at a time,
builds a ``CostModel`` for each, screens memory with the scalar peak-byte
oracle in ``tests/reference_costs.py``, retries a host-bound candidate
with half and then all of its offloaded weights on disk, and scores every
survivor with ``breakdown().throughput``.  ``reference_search`` is the
former strategy loop over it: strategies in menu order, the first
strictly better one wins.

The planner prices the whole menu in one pass (``_price_menu``).  That
pass must keep each strategy's survivors in the same order and give each
of them a score bitwise equal to the reference's, and ``search`` and
every ``search_fixed`` must return the identical ``(policy, score)``.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.baselines import FlexGenEngine
from repro.bench import paper_data
from repro.core import LMOffloadEngine
from repro.errors import PolicyError, PrescreenMismatchError, ReproError
from repro.faults import FaultKind, FaultSpec, degraded_platform
from repro.hardware import single_a100
from repro.models import get_model
from repro.offload import OffloadPolicy
from repro.offload import planner as planner_module
from repro.offload.planner import PolicyPlanner
from repro.perfmodel import CostModel, CpuExecutionContext, Workload
from tests import reference_costs as ref

TAB3_MODELS = ("opt-30b", "opt-66b", "llama-30b", "llama-65b")
TAB3_GEN_LENS = (8, 16, 32, 64, 128)


# -- the reference: one CostModel per candidate -----------------------------


def reference_candidates(planner, workload, template, seed=None):
    """LP solution, its grid-snapped neighbours, the coarse grid, then
    ``seed``; each point once, in search order."""
    seen = set()
    try:
        wg, cg, hg = planner.lp_placement(workload, template)
        for dwg in (-planner.wg_step, 0.0, planner.wg_step):
            cand = (
                float(np.clip(
                    round((wg + dwg) / planner.wg_step) * planner.wg_step, 0, 1
                )),
                round(cg, 2),
                1.0 if hg >= 0.5 else 0.0,
            )
            if cand not in seen:
                seen.add(cand)
                yield cand
    except PolicyError:
        pass
    for wg in np.arange(0.0, 1.0 + 1e-9, planner.wg_step):
        for hg in (0.0, 1.0):
            cgs = (0.0,) if template.attention_on_cpu else (0.0, 0.25, 0.5, 1.0)
            for cg in cgs:
                cand = (round(float(wg), 2), cg, hg)
                if cand not in seen:
                    seen.add(cand)
                    yield cand
    if seed is not None and seed not in seen:
        yield seed


def reference_score(planner, workload, policy):
    model = CostModel(workload, policy, planner.hw, planner.cpu_ctx)
    model.check_feasible()
    return model.breakdown().throughput(workload)


def _template(workload, attn, wq, kq):
    return OffloadPolicy(
        wg=0.0, cg=0.0, hg=0.0, attention_on_cpu=attn, weight_quant=wq,
        kv_quant=kq, gpu_batch_size=workload.gpu_batch_size,
        num_gpu_batches=workload.num_gpu_batches,
    )


def reference_search_fixed(planner, workload, attn, wq, kq, seed=None):
    """``(policy, score, scored)``; ``scored`` maps each surviving
    ``(wg, cg, hg, wd)`` to its score, in search order."""
    hw = planner.hw
    template = _template(workload, attn, wq, kq)
    scored = {}
    best = None
    for wg, cg, hg in reference_candidates(planner, workload, template, seed):
        policy = template.with_(wg=wg, cg=cg, hg=hg)
        model = CostModel(workload, policy, hw, planner.cpu_ctx)
        if ref.gpu_bytes_required(model) > hw.gpu_mem_capacity:
            continue
        score = None
        if ref.cpu_bytes_required(model) <= hw.cpu_mem_capacity:
            score = reference_score(planner, workload, policy)
        else:
            for spill in (0.5, 1.0):
                spilled = template.with_(
                    wg=wg, cg=cg, hg=hg, wd=round((1.0 - wg) * spill, 4)
                )
                model = CostModel(workload, spilled, hw, planner.cpu_ctx)
                if ref.cpu_bytes_required(model) <= hw.cpu_mem_capacity:
                    policy = spilled
                    score = reference_score(planner, workload, policy)
                    break
        if score is None:
            continue
        scored[(policy.wg, policy.cg, policy.hg, policy.wd)] = score
        if best is None or score > best[0]:
            best = (score, policy)
    if best is None:
        return None, None, scored
    return best[1], best[0], scored


def strategies(planner):
    for attn in planner._attention_menu():
        for wq, kq in planner._quant_menu():
            if not (attn and kq is not None):
                yield attn, wq, kq


def _seed_fractions(seed, attn, wq, kq):
    if seed is not None and (
        seed.attention_on_cpu, seed.weight_quant, seed.kv_quant
    ) == (attn, wq, kq):
        return (seed.wg, seed.cg, seed.hg)
    return None


def reference_search(results):
    """The former strategy loop over each strategy's reference
    ``(policy, score)`` in menu order: the first strictly best one wins;
    ``(None, None)`` when no strategy has a feasible placement."""
    best = None
    for policy, score in results:
        if policy is not None and (best is None or score > best[1]):
            best = (policy, score)
    return best or (None, None)


def stacked_survivors(planner, workload, seed=None):
    """Per strategy, the ``{(wg, cg, hg, wd): score}`` survivors of the
    planner's one stacked pass over the whole menu."""
    menu = list(strategies(planner))
    prices = planner._price_menu(workload, menu, seed)
    out = [{} for _ in menu]
    for i, score in zip(prices.keep.tolist(), prices.scores.tolist()):
        point = tuple(float(a[i]) for a in (prices.wg, prices.cg, prices.hg, prices.wd))
        out[prices.menu.index[i]][point] = score
    return out


def assert_planner_matches(planner, workload, seed=None):
    """The stacked pass's survivors and scores, ``search`` and every
    strategy's ``search_fixed`` all equal the reference's."""
    stacked = stacked_survivors(planner, workload, seed)
    results = []
    for (attn, wq, kq), survivors in zip(strategies(planner), stacked):
        fractions = _seed_fractions(seed, attn, wq, kq)
        ref_policy, ref_score, scored = reference_search_fixed(
            planner, workload, attn, wq, kq, fractions
        )
        results.append((ref_policy, ref_score))
        assert list(survivors.items()) == list(scored.items())
        if fractions is not None:
            # search_fixed takes no seed: the one-strategy menu directly.
            (result,) = planner._search_menu(workload, [(attn, wq, kq)], seed)
            assert result == (ref_policy, ref_score)
            continue
        if ref_policy is None:
            with pytest.raises(PolicyError):
                planner.search_fixed(workload, attn, wq, kq)
            continue
        policy, score = planner.search_fixed(workload, attn, wq, kq)
        assert (policy, score) == (ref_policy, ref_score)
        assert type(score) is float
    ref_policy, ref_score = reference_search(results)
    if ref_policy is None:
        with pytest.raises(PolicyError):
            planner.search(workload, seed)
        return stacked
    policy, score = planner.search(workload, seed)
    assert (policy, score) == (ref_policy, ref_score)
    assert type(score) is float
    return stacked


def lm_offload_planners(engine, workload):
    """The pass-1 and pass-2 planners of ``engine.plan`` and pass 2's seed."""
    first = engine._planner(engine.default_context())
    seed, _ = first.search(workload)
    plan = engine.plan_parallelism(workload, seed)
    ctx = CpuExecutionContext.from_plan(engine.topology, engine.contention, plan)
    ctx.io_staging_threads = {}
    return first, engine._planner(ctx), seed


# -- Tab. 3 ----------------------------------------------------------------


@pytest.mark.parametrize("model_name", TAB3_MODELS)
def test_tab3_cells_match_reference(model_name):
    """Every Tab. 3 cell of the model, for FlexGen's search and both of
    LM-Offload's passes (pass 2 seeded with pass 1's policy)."""
    flexgen = FlexGenEngine(single_a100())
    lm = LMOffloadEngine(single_a100())
    for gen_len in TAB3_GEN_LENS:
        b, k = paper_data.bls_split(paper_data.TAB3[model_name][gen_len]["flexgen"][0])
        workload = Workload(get_model(model_name), 64, gen_len, b, k)
        assert_planner_matches(
            PolicyPlanner(hw=flexgen.hw, cpu_ctx=flexgen.ctx, quant_aware=False),
            workload,
        )
        first, second, seed = lm_offload_planners(lm, workload)
        assert_planner_matches(first, workload)
        assert_planner_matches(second, workload, seed)


def test_pcie_degraded_platform_matches_reference():
    platform = degraded_platform(
        single_a100(), [FaultSpec(FaultKind.PCIE_DEGRADE, 0.0, 1e9, 0.5)], 1.0
    )
    engine = LMOffloadEngine(platform)
    workload = Workload(get_model("opt-30b"), 64, 32, 64, 10)
    first, second, seed = lm_offload_planners(engine, workload)
    assert_planner_matches(first, workload)
    assert_planner_matches(second, workload, seed)


@pytest.mark.parametrize("host_bytes", [100e9, 25e9])
def test_host_bound_disk_spill_matches_reference(hw, default_ctx, host_bytes):
    """The host-bound setup of ``test_disk_tier`` (100 GB), and a 25 GB
    host on which candidates fit only through both disk-spill retries and
    some strategies' winners keep weights on disk."""
    small_host = dataclasses.replace(hw, cpu_mem_capacity=host_bytes)
    planner = PolicyPlanner(hw=small_host, cpu_ctx=default_ctx, quant_aware=True)
    workload = Workload(get_model("opt-30b"), 64, 8, 64, 2)
    spills = {
        round(wd / (1.0 - wg), 4)
        for scored in assert_planner_matches(planner, workload)
        for wg, _, _, wd in scored
        if wd > 0
    }
    if host_bytes < 100e9:
        assert spills == {0.5, 1.0}
        assert any(
            planner.search_fixed(workload, *s)[0].wd > 0 for s in strategies(planner)
        )


def test_require_quant_and_cpu_attention_only_match_reference(hw, default_ctx):
    workload = Workload(get_model("opt-30b"), 64, 32, 64, 10)
    for planner in (
        PolicyPlanner(hw=hw, cpu_ctx=default_ctx, require_quant=True),
        PolicyPlanner(hw=hw, cpu_ctx=default_ctx, allow_gpu_attention=False),
    ):
        assert_planner_matches(planner, workload)


def test_gen_len_one_throughput_matches_reference(hw, default_ctx):
    workload = Workload(get_model("opt-30b"), 64, 1, 64, 10)
    assert_planner_matches(PolicyPlanner(hw=hw, cpu_ctx=default_ctx), workload)


def test_coarse_wg_step_matches_reference(hw, default_ctx):
    """A 0.25 ``wg`` grid snaps the LP points to other grid columns."""
    workload = Workload(get_model("opt-30b"), 64, 32, 64, 10)
    planner = PolicyPlanner(hw=hw, cpu_ctx=default_ctx, wg_step=0.25)
    assert_planner_matches(planner, workload)


def test_lp_cache_is_transparent(monkeypatch):
    """Every search of the Tab. 3 cells of one model and of a PCIe-halved
    platform returns the same ``(policy, score)`` with the ``planner.lp``
    cache on as with ``maxsize = 0`` (nothing stored), and the cached
    run does hit."""
    from repro.core.plan_cache import LP_CACHE
    from repro.obs.profiling import profiling_enabled

    platform = degraded_platform(
        single_a100(), [FaultSpec(FaultKind.PCIE_DEGRADE, 0.0, 1e9, 0.5)], 1.0
    )

    def searches():
        out = []
        for engine in (LMOffloadEngine(single_a100()), LMOffloadEngine(platform)):
            for gen_len in TAB3_GEN_LENS:
                workload = Workload(get_model("opt-30b"), 64, gen_len, 64, 10)
                first, second, seed = lm_offload_planners(engine, workload)
                out += [first.search(workload), second.search(workload, seed)]
        return out

    with profiling_enabled() as prof:
        cached = searches()
    lookups = prof.report()["caches"]["planner.lp"]
    assert lookups["hits"] > 0
    LP_CACHE.clear()
    monkeypatch.setattr(LP_CACHE, "maxsize", 0)
    assert searches() == cached
    assert len(LP_CACHE) == 0


# -- selection -------------------------------------------------------------


def test_tie_keeps_first_maximum(monkeypatch, hw, default_ctx, short_workload):
    """Equal scores go to the earliest candidate, as the strict ``>`` of
    the per-candidate loop did: the LP-snapped point before the grid,
    and across strategies the first one in menu order."""
    planner = PolicyPlanner(hw=hw, cpu_ctx=default_ctx)
    strategy = (False, None, None)
    prices = planner._price_menu(short_workload, [strategy])
    first, second = prices.keep[:2]

    def tied(self, model, wg, cg, hg, wd, menu):
        """7.0 on each strategy's first two and last survivors, else 0."""
        scores = np.zeros(len(wg))
        for i in range(len(menu.policies)):
            rows = np.flatnonzero(menu.index == i)
            scores[rows[:2]] = 7.0
            scores[rows[-1:]] = 7.0
        return scores

    monkeypatch.setattr(PolicyPlanner, "_scores", tied)
    policy, score = planner.search_fixed(short_workload, *strategy)
    assert score == 7.0
    point = (policy.wg, policy.cg, policy.hg)
    assert point == tuple(a[first] for a in (prices.wg, prices.cg, prices.hg))
    assert point != tuple(a[second] for a in (prices.wg, prices.cg, prices.hg))
    winners = [
        w for w in planner._search_menu(short_workload, planner.strategies()) if w
    ]
    assert len(winners) > 1 and {score for _, score in winners} == {7.0}
    assert planner.search(short_workload) == winners[0]


# -- prescreen / cost-model disagreement ------------------------------------


def test_optimistic_prescreen_raises_typed_error(monkeypatch, hw, default_ctx):
    """A winner the array screen passes but the winner's one-row
    ``check_feasible`` rejects raises PrescreenMismatchError, which the
    stacked search does not swallow."""
    assert issubclass(PrescreenMismatchError, ReproError)
    assert not issubclass(PrescreenMismatchError, PolicyError)
    monkeypatch.setattr(
        planner_module, "placements",
        lambda model, wg, cg, hg, s: (np.ones(len(wg), dtype=bool), np.zeros_like(wg)),
    )
    planner = PolicyPlanner(hw=hw, cpu_ctx=default_ctx)
    workload = Workload(get_model("opt-30b"), 64, 32, 64, 10)
    with pytest.raises(PrescreenMismatchError, match="cost model rejects"):
        planner.search_fixed(workload, False, None, None)
    with pytest.raises(PrescreenMismatchError):
        planner.search(workload)
