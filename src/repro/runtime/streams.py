"""The standard stream set used by the offloading executor.

Mirrors the CUDA-stream layout FlexGen uses: one H2D copy stream, one D2H
copy stream, the GPU compute stream, and the CPU worker pool (which runs
offloaded attention and host-side staging).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.runtime.events import EventSim

STREAM_NAMES = ("h2d", "d2h", "compute", "cpu")


@dataclass
class StreamSet:
    """An :class:`EventSim` with the four streams' resources created."""

    sim: EventSim

    def __post_init__(self) -> None:
        for name in STREAM_NAMES:
            self.sim.resource(name)

    @classmethod
    def fresh(cls) -> "StreamSet":
        return cls(sim=EventSim())
