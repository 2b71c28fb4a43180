"""A minimal discrete-event simulator for resource-serialized tasks.

The offloading runtime's concurrency structure is simple: a handful of
serially-executing resources (H2D link, D2H link, GPU stream, CPU pool)
process tasks with precedence constraints.  :class:`EventSim` tracks each
resource's timeline and resolves task completion times; it is sufficient to
reproduce Algorithm 1's overlap behaviour and validate the closed-form
Eq. 2 model against an explicit schedule.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class Resource:
    """A resource that executes one task at a time, FIFO."""

    name: str
    free_at: float = 0.0
    busy_time: float = 0.0
    tasks_run: int = 0

    def run(self, duration: float, ready_at: float = 0.0) -> tuple[float, float]:
        """Execute a task of ``duration`` not before ``ready_at``.

        Returns (start, end) and advances the resource timeline.
        """
        if duration < 0:
            raise ValueError("duration must be non-negative")
        start = max(self.free_at, ready_at)
        end = start + duration
        self.free_at = end
        self.busy_time += duration
        self.tasks_run += 1
        return start, end


@dataclass
class EventSim:
    """A clock plus named resources."""

    resources: dict[str, Resource] = field(default_factory=dict)

    def resource(self, name: str) -> Resource:
        if name not in self.resources:
            self.resources[name] = Resource(name=name)
        return self.resources[name]

    @property
    def makespan(self) -> float:
        """Latest completion across all resources."""
        return max((r.free_at for r in self.resources.values()), default=0.0)
