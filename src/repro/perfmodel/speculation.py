"""Speculative decoding on top of the Eq. 1/2 cost model (SpecOffload-style).

The paper's cost model prices every decode step as one target-model
forward, but under offloading the GPU sits idle while weights and KV
stream over PCIe — Eq. 2's step time is ``max(h2d, d2h, compute)``, and
in the long-context regime ``h2d`` (the KV load) dominates by an order
of magnitude.  SpecOffload's observation (PAPERS.md) is that this idle
compute can *draft*: a small model proposes a token tree while the
transfers run, and the target model then scores the whole tree in one
batched verify pass whose KV/weight traffic it was paying anyway.
TriForce supplies the knob set we parameterize: tree size, max width,
a KV-retrieval budget for the draft's attention, and the acceptance
rate ``alpha``.

Two pieces live here:

* :class:`SpecConfig` — the speculation knobs plus the closed-form tree
  math: greedy level widths, and the expected number of accepted draft
  tokens per verify step (monotone nondecreasing in ``alpha``, bounded
  by the tree depth).
* :class:`SpecStepPricer` — the per-step price transform.  Given the
  base (non-speculative) task costs of a decode step it prices every
  tree-depth *prefix* and keeps the best expected per-token time:

  ``price_L = max(h2d + retrieval, d2h * g_L, compute + verify_L + draft_L) / g_L``

  where ``g_L = 1 + E[accepted | first L levels]`` tokens emerge per
  step.  The ``min`` over prefixes (including the empty one — the base
  price itself) means speculation engages exactly where it pays: the
  modeled per-token latency never exceeds the non-speculative engine's,
  and in compute-bound regimes the pricer degenerates to the base cost.

Where each term lands, and why:

* **verify** — the target scores all ``nodes_L`` draft tokens in the
  pass it already runs: extra *flops* only (the weights and the context
  KV cross the wire once regardless), charged at the placement's
  flop rate.
* **draft** — ``draft_compute_ratio`` of a target forward per node,
  with attention truncated to ``kv_retrieval_budget`` context; pure GPU
  time, riding in the compute term where the transfer window hides it.
* **retrieval** — the draft's KV lookup streams ``min(ctx, budget)``
  tokens of cache over the *same* PCIe link the target's loads use, so
  it adds to ``h2d``.  This is what a degraded link squeezes: PCIe
  faults inflate every transfer term while the tokens-per-step gain
  stays fixed, so the absolute tokens/s benefit of speculation shrinks
  (the metamorphic fault tests pin this direction).
* **stores** — every accepted token writes KV and activations back, so
  ``d2h`` scales with ``g_L``.

All terms are per zig-zag iteration, matching
:meth:`~repro.perfmodel.latency.CostModel.decode_task_costs`; callers
multiply by ``l x k`` exactly as they do for the base price.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.errors import ConfigError
from repro.perfmodel.latency import CostModel


@dataclass(frozen=True)
class SpecConfig:
    """Speculation knobs (TriForce/SpecOffload parameter set).

    ``tree_size`` counts *all* nodes including the root (the token the
    target would emit anyway): ``tree_size=1`` means no draft nodes at
    all — speculation disabled, and the engine is byte-identical to the
    plain LM-Offload engine (the degenerate-parity tests pin this).
    """

    #: Total tree nodes including the root; ``tree_size - 1`` drafts.
    tree_size: int = 8
    #: Max sibling candidates per tree level.
    max_width: int = 2
    #: Per-candidate acceptance probability (target agrees with draft).
    alpha: float = 0.7
    #: Draft forward cost as a fraction of a target forward (same batch).
    draft_compute_ratio: float = 0.05
    #: Max context tokens the draft attends over (TriForce's retrieval
    #: cache); also sizes the per-step KV retrieval transfer.
    kv_retrieval_budget: int = 4096

    def __post_init__(self) -> None:
        if self.tree_size < 1:
            raise ConfigError(
                f"spec: tree_size must be >= 1 (got {self.tree_size}); "
                "1 means speculation disabled"
            )
        if self.max_width < 1:
            raise ConfigError(
                f"spec: max_width must be >= 1 (got {self.max_width})"
            )
        if not 0.0 <= self.alpha <= 1.0:
            raise ConfigError(
                f"spec: alpha must be in [0, 1] (got {self.alpha}); it is "
                "the per-candidate acceptance probability"
            )
        if self.draft_compute_ratio < 0.0:
            raise ConfigError(
                f"spec: draft_compute_ratio must be >= 0 "
                f"(got {self.draft_compute_ratio})"
            )
        if self.kv_retrieval_budget < 1:
            raise ConfigError(
                f"spec: kv_retrieval_budget must be >= 1 "
                f"(got {self.kv_retrieval_budget})"
            )

    @property
    def enabled(self) -> bool:
        """Whether any draft node exists at all."""
        return self.tree_size > 1

    def level_widths(self) -> tuple[int, ...]:
        """Draft nodes per tree level, filled greedily at ``max_width``.

        ``tree_size=8, max_width=2`` -> ``(2, 2, 2, 1)``; a chain
        (``max_width=1``) gives ``tree_size - 1`` levels of one node.
        """
        widths: list[int] = []
        remaining = self.tree_size - 1
        while remaining > 0:
            w = min(self.max_width, remaining)
            widths.append(w)
            remaining -= w
        return tuple(widths)

    @property
    def tree_depth(self) -> int:
        """Max draft tokens a single step can accept (= #levels)."""
        return len(self.level_widths())

    def level_advance_probs(self, alpha: float | None = None) -> tuple[float, ...]:
        """P(some candidate at level ``i`` is accepted), per level."""
        a = self.alpha if alpha is None else a_checked(alpha)
        return tuple(1.0 - (1.0 - a) ** w for w in self.level_widths())

    def expected_accepted(self, alpha: float | None = None) -> float:
        """Expected accepted draft tokens per verify step (full tree).

        Acceptance must survive every level up to depth ``i`` for the
        ``i``-th draft token to land, so this is the sum of prefix
        products of the per-level advance probabilities.  Monotone
        nondecreasing in ``alpha`` and bounded by :attr:`tree_depth`
        (both pinned by the property tests).
        """
        expected = 0.0
        survive = 1.0
        for p in self.level_advance_probs(alpha):
            survive *= p
            expected += survive
        return expected

    def describe(self) -> str:
        return (
            f"tree={self.tree_size}(w<={self.max_width},d={self.tree_depth}) "
            f"alpha={self.alpha:g} draft={self.draft_compute_ratio:g} "
            f"budget={self.kv_retrieval_budget}"
        )

    def to_dict(self) -> dict[str, Any]:
        return {
            "tree_size": self.tree_size,
            "max_width": self.max_width,
            "alpha": self.alpha,
            "draft_compute_ratio": self.draft_compute_ratio,
            "kv_retrieval_budget": self.kv_retrieval_budget,
            "tree_depth": self.tree_depth,
            "expected_accepted": self.expected_accepted(),
        }


def a_checked(alpha: float) -> float:  # reach: tests/test_perfmodel_property.py::test_spec_expected_accepted_monotone_in_alpha_and_bounded (an explicit alpha)
    if not 0.0 <= alpha <= 1.0:
        raise ConfigError(f"spec: alpha must be in [0, 1] (got {alpha})")
    return alpha


class SpecStepPricer:
    """Transforms base decode-step costs into speculative per-token prices.

    Bound to one :class:`~repro.perfmodel.latency.CostModel` (so it sees
    the planned policy, hardware rates and calibration the base price was
    computed under) plus a :class:`SpecConfig`.  Pricing takes rows of a
    ``decode_task_costs_vec`` matrix; a single step is a one-row matrix.
    """

    def __init__(self, model: CostModel, spec: SpecConfig) -> None:
        self.model = model
        self.spec = spec
        w, p, cal = model.w, model.p, model.cal
        self._b = p.gpu_batch_size
        self._h1 = w.model.hidden_size
        self._k = p.num_gpu_batches
        # Flop rate of the placement that runs verify attention.
        if p.attention_on_cpu:
            rates = cal.attention
            self._attn_flop_rate = (
                min(rates.cpu_flops_per_thread * model._eff, rates.cpu_flops_ceiling)
                * model.ctx.cpu_share
            )
        else:
            self._attn_flop_rate = model.hw.gpu_flops * cal.gpu_dense_efficiency
        # The draft always computes on the GPU (it soaks the idle compute
        # the transfer window leaves), whatever the target's placement.
        self._gpu_flop_rate = model.hw.gpu_flops * cal.gpu_dense_efficiency
        self._dense_flops = 2.0 * w.model.weights_per_layer * self._b
        # Retrieval share: the budgeted KV slice the draft reads crosses
        # PCIe for the non-GPU-resident share (all of it when attention
        # lives on the CPU — the cache is host-side then).
        self._stored = model.kv_store_bytes_per_token()
        self._streamed = 1.0 if p.attention_on_cpu else (1.0 - p.cg)

    def _ctx_lengths(self, token_indices: np.ndarray) -> np.ndarray:
        return self.model.w.prompt_len + 1.0 + token_indices

    def _prefix_prices(
        self, token_indices: np.ndarray, costs: np.ndarray
    ) -> list[tuple[float, np.ndarray]]:
        """``(tokens_per_step, per-token seconds)`` for each tree prefix
        of depth 1..tree_depth (the shared core of pricing and summary)."""
        spec = self.spec
        toks = np.asarray(token_indices, dtype=np.float64)
        ctx = self._ctx_lengths(toks)
        h2d = costs[:, 0] + costs[:, 1] + costs[:, 2]
        d2h = costs[:, 3] + costs[:, 4]
        compute = costs[:, 5]

        ctx_r = np.minimum(ctx, float(spec.kv_retrieval_budget))
        # One retrieval-cache build per verify step, on the shared link.
        retrieval = (
            ctx_r * self._stored * self._streamed / self._k / self.model.pcie_bw
        )
        h2d_spec = h2d + retrieval
        # Verify: extra flops per draft node at the target's attention
        # placement (weights/KV already in flight for the root token).
        t_verify_node = (
            4.0 * self._b * ctx * self._h1 / self._attn_flop_rate
            + self._dense_flops / self._gpu_flop_rate
        )
        # Draft: a ratio-scaled forward per node over the budgeted context.
        t_draft_node = (
            spec.draft_compute_ratio
            * (4.0 * self._b * ctx_r * self._h1 + self._dense_flops)
            / self._gpu_flop_rate
        )

        prices: list[tuple[float, np.ndarray]] = []
        g = 1.0
        survive = 1.0
        nodes = 0
        for w_i, p_i in zip(spec.level_widths(), spec.level_advance_probs()):
            survive *= p_i
            g += survive
            nodes += w_i
            step = np.maximum(
                np.maximum(h2d_spec, d2h * g),
                compute + nodes * (t_verify_node + t_draft_node),
            )
            prices.append((g, step / g))
        return prices

    def step_seconds_vec(
        self,
        token_indices: np.ndarray,
        costs: np.ndarray,
        base: np.ndarray,
    ) -> np.ndarray:
        """Speculative per-token step seconds for each decode token.

        ``costs`` is the ``(n, 6)`` base task-cost matrix
        (:data:`~repro.runtime.tasks.TASK_FIELD_NAMES` order) and
        ``base`` the matching resource-grouped step seconds; both per
        iteration.  Returns per-iteration *per-token* seconds, the
        elementwise min over all tree prefixes (prefix 0 = ``base``
        itself, so the result never exceeds the base price and is
        bitwise equal to it when no prefix wins).
        """
        best = base.copy()
        for _, price in self._prefix_prices(token_indices, costs):
            np.minimum(best, price, out=best)
        return best

    def summary(self, token_idx: int, costs: Any, base: float) -> dict[str, Any]:
        """Introspection for benches: which tree prefix wins at this step."""
        best, chosen, g_chosen = base, 0, 1.0
        if self.spec.enabled:
            row = np.array([costs.as_tuple()], dtype=np.float64)
            toks = np.array([float(token_idx)])
            for depth, (g, price) in enumerate(
                self._prefix_prices(toks, row), start=1
            ):
                if float(price[0]) < best:
                    best, chosen, g_chosen = float(price[0]), depth, g
        return {
            "base_s": base,
            "spec_s": best,
            "speedup": base / best if best > 0 else 1.0,
            "chosen_depth": chosen,
            "tokens_per_step": g_chosen,
        }
