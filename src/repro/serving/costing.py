"""Step-cost oracle: price prefill/decode steps via the performance model.

This is the bridge between the request-level simulator and the paper's
analytic machinery.  The engine under test plans *once per concurrency
level* (``engine.plan_cached`` looks the search up in the process-wide
plan cache, :mod:`repro.core.plan_cache`), and the oracle then prices
every (batch, context) step the continuous-batching loop forms:

* ``decode_step_seconds(n, ctx)`` — one token for all ``n`` running
  sequences at context ``ctx``: Eq. 2's overlapped step time times the
  ``l x k`` zig-zag iterations.  The first miss at a concurrency level
  prices every context bucket of that level in one
  ``decode_task_costs_vec`` call, the cost model's only decode formula;
* ``prefill_seconds(n, ctx)`` — a batched prefill over ``n`` prompts;
* ``feasible(n, ctx)`` — the cost model's own peak GPU and host bytes
  against the platform's capacities, the formula the policy search
  screens its candidates with.

Context lengths are bucketed (default 32 tokens, rounding *up*) so the
cache stays small and estimates stay conservative; planning happens at the
trace's maximum context so the chosen placement remains memory-feasible
for every step the simulation can form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.errors import MemoryCapacityError, PolicyError, ServingError
from repro.models.config import ModelConfig
from repro.obs.profiling import PROFILER
from repro.perfmodel.latency import CostModel
from repro.perfmodel.notation import Workload


@dataclass
class StepCostOracle:
    """Prices serving steps for one (engine, model) pair.

    ``engine`` is an :class:`~repro.core.engine.OffloadEngine`: the
    planned-step costing hook ``plan_cached(workload) -> (policy,
    cpu_ctx, _)``, ``cost_model(workload, policy, cpu_ctx)``, the ``hw``
    capacities and a ``name`` the serving loops label their results with.

    Engines may additionally expose ``step_pricer(cost_model)`` returning
    a per-step price transform (or ``None``); the speculative engine uses
    this to turn each decode step's base price into the expected
    per-token time under draft-tree speculation.  Engines without the
    hook — and spec engines with speculation disabled — price bitwise
    identically to the untransformed path.
    """

    engine: Any
    model: ModelConfig
    num_gpu_batches: int = 1
    ctx_bucket: int = 32
    #: Planning context: prompt/gen lengths of the representative workload
    #: each concurrency level is planned on.  Set these to the trace's
    #: maxima so the planned placement stays feasible as contexts grow.
    plan_prompt_len: int = 64
    plan_gen_len: int = 32

    _plans: dict[int, tuple | None] = field(default_factory=dict, repr=False)
    _step_cache: dict[tuple, float] = field(default_factory=dict, repr=False)
    #: (n_seqs, bucketed ctx) -> feasibility verdict, so admission
    #: control screens each (level, bucket) once.
    _feasible_cache: dict[tuple[int, int], bool] = field(
        default_factory=dict, repr=False
    )
    #: Planner error message per concurrency level that failed to plan —
    #: admission attaches this to the INFEASIBLE drop so rejections carry
    #: the *reason*, not just the verdict.
    _plan_errors: dict[int, str] = field(default_factory=dict, repr=False)

    def __post_init__(self) -> None:
        if self.num_gpu_batches <= 0 or self.ctx_bucket <= 0:
            raise ServingError("num_gpu_batches and ctx_bucket must be positive")

    @classmethod
    def for_requests(
        cls, engine: Any, model: ModelConfig, requests: Any, config: Any
    ) -> "StepCostOracle":
        """The oracle a serving loop over ``requests`` uses: planned at
        their maximum prompt and generation lengths, so the chosen
        placement stays memory-feasible for every step the loop can form.
        ``config`` supplies ``num_gpu_batches``."""
        return cls(
            engine=engine,
            model=model,
            num_gpu_batches=config.num_gpu_batches,
            plan_prompt_len=max((r.prompt_len for r in requests), default=64),
            plan_gen_len=max((r.gen_len for r in requests), default=32),
        )

    # -- planning per concurrency level ------------------------------------

    def _bucket_ctx(self, ctx_len: int) -> int:
        b = self.ctx_bucket
        return max(b, -(-ctx_len // b) * b)

    def _plan_workload(self, n_seqs: int) -> Workload:
        k = self.num_gpu_batches
        b = max(1, math.ceil(n_seqs / k))
        return Workload(self.model, self.plan_prompt_len, self.plan_gen_len, b, k)

    def planned(self, n_seqs: int):
        """(policy, cpu_ctx) for ``n_seqs`` concurrent sequences, or
        ``None`` when the engine has no feasible plan at that level.

        Planner failures (:class:`PolicyError` — no feasible placement —
        and :class:`MemoryCapacityError` — a hard capacity wall) are
        absorbed into the ``None`` verdict; their messages are kept and
        retrievable via :meth:`last_plan_error`.
        """
        if n_seqs <= 0:
            raise ServingError("n_seqs must be positive")
        if PROFILER.enabled:
            PROFILER.cache("oracle.plan_cache", hit=n_seqs in self._plans)
        if n_seqs not in self._plans:
            try:
                policy, ctx, _ = self.engine.plan_cached(self._plan_workload(n_seqs))
                self._plans[n_seqs] = (policy, ctx)
            except (PolicyError, MemoryCapacityError) as exc:
                self._plans[n_seqs] = None
                self._plan_errors[n_seqs] = f"{type(exc).__name__}: {exc}"
        return self._plans[n_seqs]

    def last_plan_error(self, n_seqs: int) -> str | None:
        """The planner's error message for a level that failed to plan."""
        return self._plan_errors.get(n_seqs)

    def invalidate(self) -> None:
        """Drop every cached plan, price and feasibility verdict.

        The drift watchdog calls this after retargeting the engine to a
        degraded platform: every cached answer was priced against specs
        that no longer hold.
        """
        self._plans.clear()
        self._step_cache.clear()
        self._feasible_cache.clear()
        self._plan_errors.clear()

    def _step_pricer(self, model: CostModel):
        """The engine's optional per-step price transform for ``model``
        (``None`` for engines without the hook or with it disabled)."""
        hook = getattr(self.engine, "step_pricer", None)
        return hook(model) if hook is not None else None

    def _price_workload(self, policy, ctx_b: int) -> Workload:
        # gen_len=2 gives the model exactly one decode token to price;
        # prompt_len=ctx_b puts that token at context ctx_b + 1.
        return Workload(
            self.model, ctx_b, 2, policy.gpu_batch_size, policy.num_gpu_batches
        )

    # -- feasibility -------------------------------------------------------

    def feasible(self, n_seqs: int, ctx_len: int) -> bool:
        """Would a step with ``n_seqs`` sequences at ``ctx_len`` fit memory?

        Compares the cost model's ``gpu_bytes_required`` and
        ``cpu_bytes_required`` on the bucketed price workload with the
        capacities: the byte kernel the planner screens with, not a
        parallel model.
        """
        ctx_b = self._bucket_ctx(ctx_len)
        key = (n_seqs, ctx_b)
        hit = self._feasible_cache.get(key)
        if hit is not None:
            return hit
        planned = self.planned(n_seqs)
        if planned is None:
            verdict = False
        else:
            policy, cpu_ctx = planned
            hw = self.engine.hw
            model = self.engine.cost_model(
                self._price_workload(policy, ctx_b), policy, cpu_ctx
            )
            verdict = (
                model.gpu_bytes_required() <= hw.gpu_mem_capacity
                and model.cpu_bytes_required() <= hw.cpu_mem_capacity
            )
        self._feasible_cache[key] = verdict
        return verdict

    # -- step pricing ------------------------------------------------------

    def _iters(self, policy) -> int:
        return self.model.num_layers * policy.num_gpu_batches

    def decode_bucket_headroom(self, ctx_len: int) -> int:
        """How many decode steps from ``ctx_len`` share one bucketed price.

        Contexts grow one token per step, so the price is constant until
        the context crosses its bucket's upper edge — the event engine
        uses this as the price-bucket bound on a coalesced run length.
        """
        return self._bucket_ctx(ctx_len) - ctx_len + 1

    def _fill_decode_prices(self, n_seqs: int, planned: tuple, ctx_b: int) -> None:
        """Price every context bucket of one concurrency level in a single
        ``decode_task_costs_vec`` sweep.

        One workload spanning the whole bucket range prices bucket ``b``
        at token index ``b - base`` (integer-valued float64, exact), which
        is bit-identical to a dedicated single-bucket workload's token 0
        (``tests/reference_costs.py`` keeps that per-bucket pricing as the
        reference the tests compare against).
        """
        policy, cpu_ctx = planned
        base = self.ctx_bucket
        top = max(ctx_b, self._bucket_ctx(self.plan_prompt_len + self.plan_gen_len))
        buckets = range(base, top + 1, self.ctx_bucket)
        wl = Workload(
            self.model, base, top - base + 2,
            policy.gpu_batch_size, policy.num_gpu_batches,
        )
        model = self.engine.cost_model(wl, policy, cpu_ctx)
        toks = np.array([b - base for b in buckets], dtype=np.float64)
        costs = model.decode_task_costs_vec(toks)
        vals = CostModel.step_seconds_vec(costs)
        pricer = self._step_pricer(model)
        if pricer is not None:
            vals = pricer.step_seconds_vec(toks, costs, vals)
        iters = self._iters(policy)
        for b, v in zip(buckets, vals):
            self._step_cache[("decode", n_seqs, b)] = float(v) * iters

    def _planned_or_raise(self, n_seqs: int) -> tuple:
        planned = self.planned(n_seqs)
        if planned is None:
            raise ServingError(
                f"no feasible plan for {n_seqs} concurrent sequences "
                f"of {self.model.name}"
            )
        return planned

    def warm_up(self, limit: int) -> int:
        """Find the largest power-of-two back-off of ``limit`` that still
        plans (the chaos rung probe's ladder) and bulk-price its decode
        buckets in one vectorized call.  Returns the probed level."""
        probe_n = limit
        while probe_n > 1 and self.planned(probe_n) is None:  # reach: input: a --max-batch the engine cannot plan at
            probe_n //= 2
        planned = self.planned(probe_n)
        if planned is not None:
            self._fill_decode_prices(probe_n, planned, self.ctx_bucket)
        return probe_n

    def decode_step_seconds(self, n_seqs: int, ctx_len: int) -> float:
        """Wall seconds to advance ``n_seqs`` sequences one token."""
        ctx_b = self._bucket_ctx(ctx_len)
        key = ("decode", n_seqs, ctx_b)
        hit = self._step_cache.get(key)
        if PROFILER.enabled:
            PROFILER.cache("oracle.step_cache", hit=hit is not None)
        if hit is not None:
            return hit
        self._fill_decode_prices(n_seqs, self._planned_or_raise(n_seqs), ctx_b)
        return self._step_cache[key]

    def prefill_seconds(self, n_seqs: int, prompt_len: int) -> float:
        """Wall seconds for a batched prefill of ``n_seqs`` prompts."""
        ctx_b = self._bucket_ctx(prompt_len)
        key = ("prefill", n_seqs, ctx_b)
        hit = self._step_cache.get(key)
        if PROFILER.enabled:
            PROFILER.cache("oracle.step_cache", hit=hit is not None)
        if hit is not None:
            return hit
        policy, cpu_ctx = self._planned_or_raise(n_seqs)
        model = self.engine.cost_model(
            self._price_workload(policy, ctx_b), policy, cpu_ctx
        )
        costs = model.prefill_task_costs()
        value = CostModel.step_seconds(costs) * self._iters(policy)
        self._step_cache[key] = value
        return value
