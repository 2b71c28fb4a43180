"""The six decode-phase tasks and their cost containers (paper Alg. 1).

Every (token, layer, batch) iteration launches six asynchronous tasks.
:class:`TaskCosts` holds their per-iteration durations; Eq. 2 says the
overlapped iteration time is the max of the six, which :meth:`TaskCosts.step_time`
implements.  The executor (:mod:`repro.runtime.executor`) checks that the
event-driven schedule converges to the same steady state.

``TaskCosts`` sits on the planner's hot path (tens of thousands of
instances per policy search), so its accessors are explicit tuples/dicts
rather than :func:`dataclasses.fields` reflection.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass


class TaskKind(enum.Enum):
    """The six tasks of Algorithm 1."""

    LOAD_WEIGHT = "load_weight"
    LOAD_CACHE = "load_cache"
    LOAD_ACTIVATION = "load_activation"
    STORE_CACHE = "store_cache"
    STORE_ACTIVATION = "store_activation"
    COMPUTE = "compute"


#: Which simulated resource executes each task kind.
TASK_RESOURCE = {
    TaskKind.LOAD_WEIGHT: "h2d",
    TaskKind.LOAD_CACHE: "h2d",
    TaskKind.LOAD_ACTIVATION: "h2d",
    TaskKind.STORE_CACHE: "d2h",
    TaskKind.STORE_ACTIVATION: "d2h",
    TaskKind.COMPUTE: "compute",
}

#: Field order of :class:`TaskCosts` — also the column order of the
#: vectorized cost matrices in :mod:`repro.perfmodel.latency`.
TASK_FIELD_NAMES = (
    "load_weight",
    "load_cache",
    "load_activation",
    "store_cache",
    "store_activation",
    "compute",
)


@dataclass(frozen=True)
class TaskCosts:
    """Durations (seconds) of the six tasks for one decode iteration.

    ``compute`` already folds in whatever runs on the compute resource
    (GPU MLP + GPU attention, or the max of pipelined CPU attention and
    GPU MLP when attention is offloaded — see the engine).
    """

    load_weight: float = 0.0
    load_cache: float = 0.0
    load_activation: float = 0.0
    store_cache: float = 0.0
    store_activation: float = 0.0
    compute: float = 0.0

    def __post_init__(self) -> None:
        if (  # reach: safety code, finds the negative cost the raise names (tests/test_runtime_tasks_events.py::test_negative_cost_rejected)
            self.load_weight < 0
            or self.load_cache < 0
            or self.load_activation < 0
            or self.store_cache < 0
            or self.store_activation < 0
            or self.compute < 0
        ):
            for name, value in zip(TASK_FIELD_NAMES, self.as_tuple()):
                if value < 0:
                    raise ValueError(f"task cost {name} must be non-negative")

    def as_tuple(self) -> tuple[float, float, float, float, float, float]:
        """The six durations in :data:`TASK_FIELD_NAMES` order."""
        return (
            self.load_weight,
            self.load_cache,
            self.load_activation,
            self.store_cache,
            self.store_activation,
            self.compute,
        )

    def as_dict(self) -> dict[str, float]:
        return {
            "load_weight": self.load_weight,
            "load_cache": self.load_cache,
            "load_activation": self.load_activation,
            "store_cache": self.store_cache,
            "store_activation": self.store_activation,
            "compute": self.compute,
        }

    def step_time(self) -> float:
        """Eq. 2: overlapped per-iteration latency = max of the six tasks."""
        return max(self.as_tuple())

    def bottleneck(self) -> TaskKind:
        """Which task dominates the overlapped iteration."""
        values = self.as_tuple()
        return TaskKind(TASK_FIELD_NAMES[values.index(max(values))])
