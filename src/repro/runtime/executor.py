"""Overlapped zig-zag execution of the six tasks (paper Algorithm 1).

:class:`OverlappedExecutor` plays Algorithm 1's triple loop
(token x layer x batch) through the discrete-event simulator, enforcing the
real dependencies:

* ``compute(i, j, k)`` needs this layer's weights loaded, batch ``k``'s
  cache/activation loaded, and the previous compute done (the compute
  resource is serial);
* stores of batch ``k`` follow its compute;
* loads for batch ``k+1`` can overlap batch ``k``'s compute — that overlap
  is the whole point of the schedule and what Eq. 2's ``max`` captures.

For long generations, simulating a *window* of tokens and extrapolating is
exact in the steady state (every iteration has identical costs within one
token when costs come from the average-KV model), so the executor exposes
both full and windowed runs.  It is also the only schedule the Chrome-trace
export draws: pass a builder to :meth:`OverlappedExecutor.run_token`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Sequence

from repro.errors import ScheduleError
from repro.obs.profiling import span
from repro.runtime.events import EventSim
from repro.runtime.tasks import TASK_RESOURCE, TaskCosts, TaskKind

if TYPE_CHECKING:
    from repro.trace.chrome import ChromeTraceBuilder

#: The six tasks in the order one iteration issues them.
_ISSUE_ORDER = (
    TaskKind.LOAD_WEIGHT,
    TaskKind.LOAD_CACHE,
    TaskKind.LOAD_ACTIVATION,
    TaskKind.COMPUTE,
    TaskKind.STORE_CACHE,
    TaskKind.STORE_ACTIVATION,
)


@dataclass(frozen=True)
class LayerTiming:
    """Timing summary of one (token, layer) sweep across the block."""

    start: float
    end: float

    @property
    def elapsed(self) -> float:
        return self.end - self.start


@dataclass(frozen=True)
class GenerationTrace:
    """Timeline of one block's generation run."""

    prefill_seconds: float
    decode_seconds: float
    per_token_seconds: tuple[float, ...]


@dataclass
class OverlappedExecutor:
    """Event-driven schedule of Algorithm 1.

    Parameters
    ----------
    num_layers:
        ``l``.
    num_gpu_batches:
        Batches per zig-zag block (the ``k`` loop).
    """

    num_layers: int
    num_gpu_batches: int
    sim: EventSim = field(default_factory=EventSim, init=False)

    def __post_init__(self) -> None:
        if self.num_layers <= 0 or self.num_gpu_batches <= 0:
            raise ScheduleError("num_layers and num_gpu_batches must be positive")

    def run_token(
        self,
        costs: TaskCosts,
        start_at: float = 0.0,
        builder: ChromeTraceBuilder | None = None,
    ) -> LayerTiming:
        """Simulate one decode token: all layers x all batches.

        ``costs`` are per-(layer, batch)-iteration durations.  Returns the
        token's timing; the sim clock persists across calls so consecutive
        tokens pipeline naturally.  With a ``builder``, every non-zero
        task interval is recorded as a slice on its resource's row.
        """
        with span("executor.run_token"):
            return self._run_token(costs, start_at, builder)

    def _run_token(
        self,
        costs: TaskCosts,
        start_at: float,
        builder: ChromeTraceBuilder | None,
    ) -> LayerTiming:
        sim = self.sim
        h2d = sim.resource("h2d")
        d2h = sim.resource("d2h")
        compute = sim.resource("compute")
        # Compute runs once per iteration, so its count numbers the token.
        token = compute.tasks_run // (self.num_layers * self.num_gpu_batches)
        durations = (
            costs.load_weight, costs.load_cache, costs.load_activation,
            costs.compute, costs.store_cache, costs.store_activation,
        )
        token_start = max(start_at, 0.0)

        # Completion times of the previous iteration's tasks.
        weight_ready = token_start  # load_weight(j+1) is prefetched during j
        prev_compute_done = token_start

        for layer in range(self.num_layers):
            layer_weight_ready = weight_ready
            for k in range(self.num_gpu_batches):
                # Alg. 1 issues load_weight(i, j+1, k) inside the batch
                # loop: the next layer's weights stream in one slice per
                # batch iteration, so `costs.load_weight` is per-iteration
                # (per-layer bytes / num_gpu_batches).  H2D is FIFO, so
                # the stream's own serialization orders the slices.
                weight = h2d.run(costs.load_weight)
                # Load cache+activation for this batch (next-batch prefetch
                # in Alg. 1; equivalently modelled as load-before-compute
                # on the same H2D stream).
                cache = h2d.run(costs.load_cache)
                act = h2d.run(costs.load_activation)
                weight_ready = weight[1]
                ready = max(layer_weight_ready, cache[1], act[1])
                comp = compute.run(costs.compute, ready)
                # Store the previous batch's outputs (overlaps this compute).
                store_cache = d2h.run(costs.store_cache, prev_compute_done)
                store_act = d2h.run(costs.store_activation, prev_compute_done)
                prev_compute_done = comp[1]
                if builder is not None:
                    tag = f"t{token}.l{layer}.b{k}"
                    intervals = (weight, cache, act, comp, store_cache, store_act)
                    for kind, duration, (start, _) in zip(
                        _ISSUE_ORDER, durations, intervals
                    ):
                        if duration:
                            builder.add_slice(
                                f"{kind.value} {tag}", TASK_RESOURCE[kind],
                                start, duration,
                            )
        return LayerTiming(start=token_start, end=sim.makespan)

    def steady_state_token_time(self, costs: TaskCosts, warmup: int = 2) -> float:
        """Per-token time after pipeline warm-up.

        Runs ``warmup + 1`` identical tokens and returns the marginal cost
        of the last one — this is what Eq. 2 predicts as
        ``max(six tasks) * l * K`` in the steady state.
        """
        last_end = 0.0
        marginal = 0.0
        for i in range(warmup + 1):
            timing = self.run_token(costs, start_at=last_end)
            marginal = timing.end - last_end
            last_end = timing.end
        return marginal

    def run_generation(
        self,
        prefill_costs: TaskCosts,
        decode_costs: Sequence[TaskCosts],
        gen_len: int,
    ) -> GenerationTrace:
        """Simulate prefill + decode: the event-driven counterpart of the
        closed-form Eq. 1 model (:mod:`repro.perfmodel.latency`).

        ``decode_costs[t]`` are the per-iteration task costs of decode
        token ``t`` (they change every token because the KV cache grows);
        token 0's output is produced by the prefill pass, so
        ``gen_len - 1`` decode steps run (matching Eq. 1's ``(n - 1)``
        factor).
        """
        if gen_len <= 0:
            raise ScheduleError("gen_len must be positive")
        prefill = self.run_token(prefill_costs, start_at=self.sim.makespan)
        per_token: list[float] = []
        clock = prefill.end
        for t in range(gen_len - 1):
            timing = self.run_token(decode_costs[t], start_at=clock)
            per_token.append(timing.end - clock)
            clock = timing.end
        return GenerationTrace(
            prefill_seconds=prefill.elapsed,
            decode_seconds=clock - prefill.end,
            per_token_seconds=tuple(per_token),
        )
