"""The paper's "How to use the models" decision procedures (§3.2 end).

Three questions, each answered by comparing modelled times:

1. Is weight quantization beneficial?  Compare plain ``load_weight``
   against Eq. 3's one-time cost plus Eq. 4's per-use dequant with the
   compressed wire time.
2. Is KV-cache quantization beneficial?  Compare plain
   ``load_cache + store_cache`` against Eq. 6 + Eq. 7.
3. Is attention offloading (with the best quantization choice) beneficial?
   Compare the end-to-end models of both placements.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.offload.policy import OffloadPolicy
from repro.perfmodel.latency import CostModel, CpuExecutionContext
from repro.perfmodel.notation import HardwareParams, Workload
from repro.quant.config import QuantConfig


@dataclass(frozen=True)
class QuantDecision:
    """Outcome of one benefit comparison."""

    beneficial: bool
    seconds_with: float
    seconds_without: float

    @property
    def speedup(self) -> float:
        if self.seconds_with <= 0:  # reach: input: a zero-second measurement
            return float("inf")
        return self.seconds_without / self.seconds_with


class PerformanceAnalyzer:
    """Answers the three §3.2 questions for a given workload/hardware."""

    def __init__(
        self,
        workload: Workload,
        hw: HardwareParams,
        cpu_ctx: CpuExecutionContext,
        quant: QuantConfig | None = None,
    ) -> None:
        self.workload = workload
        self.hw = hw
        self.ctx = cpu_ctx
        self.quant = quant or QuantConfig(bits=4, group_size=64)

    def _total(self, policy: OffloadPolicy) -> float:
        model = CostModel(self.workload, policy, self.hw, self.ctx)
        return model.breakdown().total_seconds

    def weight_quant_benefit(self, base: OffloadPolicy) -> QuantDecision:
        """Question 1: quantize the offloaded weights?

        Includes the amortised Eq. 3 initialisation cost, the Eq. 4 per-use
        dequant, and the reduced wire time.
        """
        without = self._total(base.with_(weight_quant=None))
        with_q = self._total(base.with_(weight_quant=self.quant))
        return QuantDecision(
            beneficial=with_q < without, seconds_with=with_q, seconds_without=without
        )

    def kv_quant_benefit(self, base: OffloadPolicy) -> QuantDecision:
        """Question 2: quantize the KV cache crossing the interconnect?

        Trivially non-beneficial when attention is offloaded (Eqs. 6-7
        collapse: load_cache = store_cache = 0), which is Observation 1.
        """
        without = self._total(base.with_(kv_quant=None))
        with_q = self._total(base.with_(kv_quant=self.quant))
        return QuantDecision(
            beneficial=with_q < without, seconds_with=with_q, seconds_without=without
        )

    def attention_offload_benefit(self, base: OffloadPolicy) -> QuantDecision:
        """Question 3: offload attention to the CPU?

        Each placement is evaluated at its *own* best quantization choice
        (that is the point of having the model: the placements favour
        different quantization strategies).
        """
        on_cpu = base.with_(attention_on_cpu=True, cg=0.0)
        on_gpu = base.with_(attention_on_cpu=False)
        best_cpu = min(
            self._total(on_cpu.with_(weight_quant=wq, kv_quant=None))
            for wq in (None, self.quant)
        )
        best_gpu = min(
            self._total(on_gpu.with_(weight_quant=wq, kv_quant=kq))
            for wq in (None, self.quant)
            for kq in (None, self.quant)
        )
        return QuantDecision(
            beneficial=best_cpu < best_gpu,
            seconds_with=best_cpu,
            seconds_without=best_gpu,
        )
