"""SpecOffload-style speculative decoding engine on the shared substrate.

The fourth engine.  Planning is *exactly* LM-Offload's two-pass search —
speculation changes nothing about placement, quantization or thread
allocation, so :class:`SpecOffloadEngine` inherits the whole planning
stack (``plan``/``plan_cached``/``retarget``/``set_degradation``) from
:class:`~repro.core.LMOffloadEngine` unchanged.  What it adds is the
**step-pricer hook**: any oracle that prices decode steps for this
engine (``StepCostOracle`` in serving, fleet, chaos and the drift
audits) passes the planned cost model through :meth:`step_pricer`, and
the returned :class:`~repro.perfmodel.speculation.SpecStepPricer`
transforms each step's price into the expected per-token time under
draft-tree speculation — draft compute hidden in the PCIe transfer
window, one batched verify pass, ``1 + E[accepted]`` tokens out.

With speculation disabled (``tree_size=1``) the hook returns ``None``
and every driver takes the identical code path to LM-Offload byte for
byte (the degenerate-parity tests pin this across the scheduler x trace
matrix).

Fault interplay comes for free: ``retarget``/``set_degradation`` rebuild
the same structures as LM-Offload, and the pricer reads the (possibly
degraded) PCIe bandwidth through the planned cost model — a degraded
link inflates the transfer terms the speculation gain divides into, so
the tokens/s benefit shrinks exactly as the metamorphic tests demand.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.engine import LMOffloadEngine
from repro.perfmodel.latency import CostModel
from repro.perfmodel.speculation import SpecConfig, SpecStepPricer


@dataclass
class SpecOffloadEngine(LMOffloadEngine):
    """LM-Offload planning + speculative decode pricing (paper: SpecOffload).

    ``spec`` carries the TriForce-style knob set (tree size/width,
    acceptance rate ``alpha``, draft cost ratio, KV-retrieval budget).
    """

    name: str = "spec-offload"
    spec: SpecConfig = field(default_factory=SpecConfig)

    def step_pricer(self, model: CostModel) -> SpecStepPricer | None:
        """The oracle's speculative pricing hook.

        ``None`` when speculation is disabled — callers then keep the
        base price untouched (bitwise), which is what makes the
        ``tree_size=1`` engine indistinguishable from LM-Offload.
        """
        if not self.spec.enabled:  # reach: tests/test_spec_engine.py::test_degenerate_spec_engine_is_lm_offload (a one-node tree)
            return None
        return SpecStepPricer(model, self.spec)

    def speculation_summary(self, model: CostModel, token_idx: int = 0) -> dict:
        """Price one decode step with and without speculation (bench/docs
        introspection; per-iteration seconds, multiply by ``l x k`` for
        wall time)."""
        costs = model.decode_task_costs(token_idx)
        base = CostModel.step_seconds(costs)
        pricer = self.step_pricer(model)
        if pricer is None:  # reach: tests/test_spec_engine.py::test_degenerate_hook_returns_none
            return {
                "base_s": base, "spec_s": base, "speedup": 1.0,
                "chosen_depth": 0, "tokens_per_step": 1.0,
            }
        return pricer.summary(token_idx, costs, base)
