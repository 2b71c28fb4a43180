"""Property tests for the Eq. 1/2 cost model on seeded randomized grids.

Unlike ``test_perfmodel_vectorized.py`` (fixed configurations, all
quantization menus), these tests draw *random* (workload, policy) grid
points from the shared seeded-stream helper and assert structural
properties that must hold everywhere, not just at the pinned configs:

* ``decode_seconds`` is monotone non-increasing in link bandwidth and
  non-decreasing in tensor volume (context length, batch size);
* the literal Eq. 2 step time is exactly the max of its six task terms,
  and the resource-grouped step time never undercuts it;
* the array cost formula matches the scalar reference oracle
  (``tests/reference_costs.py``) row for row, exactly;
* the speculative price transform is structurally safe: expected accepted
  tokens are monotone in ``alpha`` and bounded by the tree depth, the
  per-token price never exceeds the base engine's (at ``alpha=1`` or
  anywhere else), is nondecreasing in context length, and pricing one row
  alone agrees bitwise with pricing it inside the whole matrix.

No hypothesis dependency — draws come from :func:`repro.util.rng.seeded_rng`
so every run sees the identical grid.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.models import get_model
from repro.offload import OffloadPolicy
from repro.perfmodel import CostModel, SpecConfig, SpecStepPricer, Workload
from repro.quant import QuantConfig
from repro.runtime.tasks import TASK_FIELD_NAMES, TaskCosts
from repro.util.rng import seeded_rng
from tests import reference_costs as ref

Q4 = QuantConfig(bits=4, group_size=64)
#: One fixed seed for the whole module: the grid is part of the test.
SEED = 20240805
MODELS = ("opt-1.3b", "opt-6.7b", "opt-30b")


def random_grid(n: int, *labels: str) -> list[tuple[Workload, OffloadPolicy]]:
    """``n`` seeded (workload, policy) grid points for this module."""
    rng = seeded_rng(SEED, "perfmodel-property", *labels)
    grid: list[tuple[Workload, OffloadPolicy]] = []
    for _ in range(n):
        model = get_model(MODELS[int(rng.integers(len(MODELS)))])
        prompt_len = int(rng.integers(16, 257))
        gen_len = int(rng.integers(4, 17))
        bsz = int(2 ** rng.integers(3, 7))
        k = int(2 ** rng.integers(0, 3))
        attn = bool(rng.random() < 0.3)
        workload = Workload(model, prompt_len, gen_len, bsz, k)
        policy = OffloadPolicy(
            wg=float(rng.random()),
            cg=0.0 if attn else float(rng.random()),
            hg=1.0 if attn else float(rng.random()),
            attention_on_cpu=attn,
            weight_quant=Q4 if rng.random() < 0.5 else None,
            kv_quant=Q4 if rng.random() < 0.5 else None,
            gpu_batch_size=bsz,
            num_gpu_batches=k,
        )
        grid.append((workload, policy))
    return grid


def test_decode_seconds_monotone_nonincreasing_in_link_bandwidth(
    hw, default_ctx
):
    """More PCIe bandwidth can never make decode slower (Eq. 2 terms are
    wire-time / bandwidth; staging and compute terms are unaffected)."""
    for workload, policy in random_grid(10, "bandwidth"):
        previous = None
        for factor in (0.25, 0.5, 1.0, 2.0, 4.0):
            hw_f = dataclasses.replace(hw, pcie_bdw=hw.pcie_bdw * factor)
            seconds = CostModel(
                workload, policy, hw_f, default_ctx
            ).decode_seconds()
            if previous is not None:
                assert seconds <= previous * (1.0 + 1e-12), (
                    f"{workload.describe()} / {policy.describe()}: decode "
                    f"got slower when PCIe sped up ({previous} -> {seconds})"
                )
            previous = seconds


def test_decode_seconds_nondecreasing_in_context_length(hw, default_ctx):
    """A longer prompt only adds KV/attention volume to every decode step."""
    for workload, policy in random_grid(10, "context"):
        previous = None
        for scale in (1, 2, 4, 8):
            scaled = Workload(
                workload.model,
                workload.prompt_len * scale,
                workload.gen_len,
                workload.gpu_batch_size,
                workload.num_gpu_batches,
            )
            seconds = CostModel(
                scaled, policy, hw, default_ctx
            ).decode_seconds()
            if previous is not None:
                assert seconds >= previous * (1.0 - 1e-12), (
                    f"{scaled.describe()}: decode got cheaper with a longer "
                    f"context ({previous} -> {seconds})"
                )
            previous = seconds


def test_decode_seconds_nondecreasing_in_batch_size(hw, default_ctx):
    """Doubling the GPU batch doubles activation/KV/FLOP volume per step —
    total decode time cannot shrink."""
    for workload, policy in random_grid(10, "batch"):
        previous = None
        for scale in (1, 2, 4):
            bsz = workload.gpu_batch_size * scale
            scaled = Workload(
                workload.model,
                workload.prompt_len,
                workload.gen_len,
                bsz,
                workload.num_gpu_batches,
            )
            seconds = CostModel(
                scaled,
                policy.with_(gpu_batch_size=bsz),
                hw,
                default_ctx,
            ).decode_seconds()
            if previous is not None:
                assert seconds >= previous * (1.0 - 1e-12)
            previous = seconds


def test_literal_eq2_is_max_of_six_on_random_costs():
    """Eq. 2's T_gen is *exactly* the max over the six task terms, for any
    non-negative cost vector — not just ones a model can produce."""
    rng = seeded_rng(SEED, "perfmodel-property", "raw-costs")
    for _ in range(200):
        values = rng.random(6) * (10.0 ** rng.integers(-6, 3))
        costs = TaskCosts(**dict(zip(TASK_FIELD_NAMES, map(float, values))))
        literal = costs.step_time()
        assert literal == max(costs.as_tuple())
        assert literal == ref.step_seconds(costs, literal_eq2=True)


def test_literal_eq2_is_max_of_six_on_model_costs(hw, default_ctx):
    """Same identity on costs the model actually emits, for every decode
    token of every random grid point."""
    for workload, policy in random_grid(8, "model-costs"):
        model = CostModel(workload, policy, hw, default_ctx)
        for t in range(workload.gen_len - 1):
            costs = model.decode_task_costs(t)
            literal = costs.step_time()
            assert literal == max(costs.as_tuple())
            assert literal == max(
                getattr(costs, name) for name in TASK_FIELD_NAMES
            )


def test_grouped_step_never_undercuts_literal_eq2(hw, default_ctx):
    """The executor-matching grouping (H2D loads serialize, D2H stores
    serialize) can only be slower than the paper's literal six-way max."""
    for workload, policy in random_grid(8, "grouping"):
        model = CostModel(workload, policy, hw, default_ctx)
        for t in range(workload.gen_len - 1):
            costs = model.decode_task_costs(t)
            assert CostModel.step_seconds(costs) >= costs.step_time()


def test_step_seconds_vec_matches_scalar_on_random_matrices():
    """The vectorized aggregator and the row max, row for row against the
    scalar reference's two groupings and the one-row ``step_seconds`` /
    ``step_time``, on arbitrary non-negative cost matrices."""
    rng = seeded_rng(SEED, "perfmodel-property", "vec-agg")
    mat = rng.random((64, 6)) * (10.0 ** rng.integers(-6, 3, size=(64, 1)))
    vec = CostModel.step_seconds_vec(mat)
    literal = mat.max(axis=1)
    for i in range(mat.shape[0]):
        costs = TaskCosts(**dict(zip(TASK_FIELD_NAMES, map(float, mat[i]))))
        assert vec[i] == ref.step_seconds(costs)
        assert vec[i] == CostModel.step_seconds(costs)
        assert literal[i] == ref.step_seconds(costs, literal_eq2=True)
        assert literal[i] == costs.step_time()


def test_decode_task_costs_vec_matches_scalar_on_random_grid(hw, default_ctx):
    """The one-pass NumPy trajectory equals the per-token scalar reference
    bitwise on every random grid point (same formulas, same operation
    order)."""
    for workload, policy in random_grid(8, "vec-costs"):
        model = CostModel(workload, policy, hw, default_ctx)
        tokens = np.arange(workload.gen_len - 1, dtype=np.float64)
        mat = model.decode_task_costs_vec(tokens)
        assert mat.shape == (workload.gen_len - 1, 6)
        for t in range(workload.gen_len - 1):
            assert tuple(mat[t]) == ref.decode_task_costs(model, t).as_tuple()


def test_decode_seconds_vectorized_matches_scalar_on_random_grid(
    hw, default_ctx
):
    """Same per-token values, summed pairwise by NumPy vs the reference's
    running sum, grouped and as the literal six-task max: equal to 1e-9
    relative."""
    for workload, policy in random_grid(8, "vec-decode"):
        model = CostModel(workload, policy, hw, default_ctx)
        tokens = np.arange(workload.gen_len - 1, dtype=np.float64)
        iters = workload.model.num_layers * policy.num_gpu_batches
        literal_sum = model.decode_task_costs_vec(tokens).max(axis=1).sum()
        for literal, fast in (
            (False, model.decode_seconds()),
            (True, float(literal_sum * iters)),
        ):
            expected = ref.decode_seconds(model, literal)
            assert abs(fast - expected) <= 1e-9 * max(abs(expected), 1e-12)


# -- speculative price transform -------------------------------------------


def random_trees(n: int, *labels: str) -> list[SpecConfig]:
    """``n`` seeded random tree shapes for this module."""
    rng = seeded_rng(SEED, "perfmodel-property", *labels)
    return [
        SpecConfig(
            tree_size=int(rng.integers(1, 33)),
            max_width=int(rng.integers(1, 9)),
            draft_compute_ratio=float(rng.random() * 0.2),
            kv_retrieval_budget=int(2 ** rng.integers(6, 13)),
        )
        for _ in range(n)
    ]


def test_spec_expected_accepted_monotone_in_alpha_and_bounded():
    """More agreeable drafts can only accept more; acceptance cannot
    exceed one token per tree level (or the draft-node count)."""
    for spec in random_trees(40, "spec-tree"):
        previous = 0.0
        for alpha in np.linspace(0.0, 1.0, 11):
            expected = spec.expected_accepted(float(alpha))
            assert expected >= previous - 1e-12
            assert expected <= spec.tree_depth + 1e-12
            assert spec.tree_depth <= spec.tree_size - 1 or spec.tree_size == 1
            previous = expected
        # alpha=1 accepts every level: the bound is attained exactly.
        assert abs(spec.expected_accepted(1.0) - spec.tree_depth) <= 1e-12


def _decode_rows(model: CostModel):
    toks = np.arange(model.w.gen_len - 1, dtype=np.float64)
    costs = model.decode_task_costs_vec(toks)
    return toks, costs, CostModel.step_seconds_vec(costs)


def test_spec_price_never_exceeds_base(hw, default_ctx):
    """The min over tree prefixes includes the empty prefix, so the
    modeled per-token latency can never exceed the non-speculative
    engine's — at alpha=1 (the required property) or any other alpha."""
    for (workload, policy), spec in zip(
        random_grid(6, "spec-price"), random_trees(6, "spec-price-tree")
    ):
        model = CostModel(workload, policy, hw, default_ctx)
        toks, costs, base = _decode_rows(model)
        for alpha in (0.0, 0.5, 1.0):
            pricer = SpecStepPricer(
                model, dataclasses.replace(spec, alpha=alpha)
            )
            priced = pricer.step_seconds_vec(toks, costs, base)
            assert np.all(priced <= base * (1.0 + 1e-12))


def test_spec_price_nondecreasing_in_context_length(hw, default_ctx):
    """Every speculative term grows (or holds) with context — longer
    prompts cannot make the speculative step cheaper."""
    for workload, policy in random_grid(6, "spec-context"):
        previous = None
        for scale in (1, 2, 4, 8):
            scaled = Workload(
                workload.model,
                workload.prompt_len * scale,
                workload.gen_len,
                workload.gpu_batch_size,
                workload.num_gpu_batches,
            )
            model = CostModel(scaled, policy, hw, default_ctx)
            toks = np.array([0.0])
            costs = model.decode_task_costs_vec(toks)
            base = CostModel.step_seconds_vec(costs)
            priced = SpecStepPricer(model, SpecConfig()).step_seconds_vec(
                toks, costs, base
            )
            if previous is not None:
                assert priced[0] >= previous * (1.0 - 1e-12)
            previous = priced[0]


def test_spec_pricer_vec_matches_scalar_bitwise(hw, default_ctx):
    """Pricing one decode step alone (a one-row matrix) equals its row of
    the whole-trajectory pricing exactly."""
    for (workload, policy), spec in zip(
        random_grid(6, "spec-vec"), random_trees(6, "spec-vec-tree")
    ):
        model = CostModel(workload, policy, hw, default_ctx)
        toks, costs, base = _decode_rows(model)
        pricer = SpecStepPricer(model, spec)
        vec = pricer.step_seconds_vec(toks, costs, base)
        for t in range(len(toks)):
            row = TaskCosts(**dict(zip(TASK_FIELD_NAMES, map(float, costs[t]))))
            assert vec[t] == ref.spec_step_seconds(pricer, t, row, float(base[t]))
