"""The full decode loop: prefill + n decode tokens through the executor.

:class:`DecodeLoop` stitches per-token :class:`~repro.runtime.tasks.TaskCosts`
(which change every token because the KV cache grows) into an end-to-end
:class:`GenerationTrace`.  It is the event-driven counterpart of the
closed-form Eq. 1/2 model in :mod:`repro.perfmodel.latency`; the two agree
in the steady state and tests enforce that.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

from repro.errors import ScheduleError
from repro.obs.profiling import span
from repro.obs.registry import MetricsRegistry
from repro.runtime.executor import OverlappedExecutor
from repro.runtime.streams import StreamSet
from repro.runtime.tasks import TaskCosts


@dataclass(frozen=True)
class GenerationTrace:
    """Timeline of one block's generation run."""

    prefill_seconds: float
    decode_seconds: float
    per_token_seconds: tuple[float, ...]
    per_task_busy: dict[str, float]


@dataclass
class DecodeLoop:
    """Runs prefill + decode through an :class:`OverlappedExecutor`.

    Parameters
    ----------
    num_layers, num_gpu_batches:
        Schedule geometry.
    metrics:
        Optional time-series sink: each token's marginal time lands in
        ``curve.token_s`` at the virtual clock it completed (the prefill
        pass in ``curve.prefill_s`` at its own end).  ``None`` (default)
        is structurally inert — the trace is identical either way.
    """

    num_layers: int
    num_gpu_batches: int
    metrics: MetricsRegistry | None = None

    def run(
        self,
        prefill_costs: TaskCosts,
        decode_costs: Callable[[int], TaskCosts] | Sequence[TaskCosts],
        gen_len: int,
    ) -> GenerationTrace:
        """Simulate one full generation.

        ``decode_costs`` gives per-iteration task costs for each decode
        token index (callable or pre-built sequence); token 0's output is
        produced by the prefill pass, so ``gen_len - 1`` decode steps run
        (matching Eq. 1's ``(n - 1)`` factor).
        """
        if gen_len <= 0:
            raise ScheduleError("gen_len must be positive")
        with span("pipeline.decode_loop"):
            return self._run(prefill_costs, decode_costs, gen_len)

    def _run(
        self,
        prefill_costs: TaskCosts,
        decode_costs: Callable[[int], TaskCosts] | Sequence[TaskCosts],
        gen_len: int,
    ) -> GenerationTrace:
        executor = OverlappedExecutor(
            num_layers=self.num_layers,
            num_gpu_batches=self.num_gpu_batches,
            streams=StreamSet.fresh(),
        )
        # Prefill: one pass over layers x batches at prefill costs.
        prefill = executor.run_token(prefill_costs, start_at=0.0)
        if self.metrics is not None:
            self.metrics.timeseries("curve.prefill_s").sample(
                prefill.end, prefill.elapsed
            )
        per_token: list[float] = []
        clock = prefill.end
        for t in range(gen_len - 1):
            costs = decode_costs(t) if callable(decode_costs) else decode_costs[t]
            timing = executor.run_token(costs, start_at=clock)
            per_token.append(timing.end - clock)
            clock = timing.end
            if self.metrics is not None:
                self.metrics.timeseries("curve.token_s").sample(
                    clock, per_token[-1]
                )
        sim = executor.streams.sim
        busy = {name: sim.resource(name).busy_time for name in ("h2d", "d2h", "compute")}
        return GenerationTrace(
            prefill_seconds=prefill.elapsed,
            decode_seconds=clock - prefill.end,
            per_token_seconds=tuple(per_token),
            per_task_busy=busy,
        )
