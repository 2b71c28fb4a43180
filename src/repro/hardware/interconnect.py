"""Interconnect links between devices (PCIe, NVLink, SATA...).

A :class:`Link` is directional-bandwidth aware: PCIe 4.0 x16 offers
32 GB/s *per direction* (the paper quotes the 64 GB/s bidirectional
aggregate).  Load (host-to-device) and store (device-to-host) tasks run on
opposite directions and therefore do not contend with each other, which is
what lets FlexGen/LM-Offload overlap them.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigError


@dataclass(frozen=True)
class Link:
    """A point-to-point link between two devices.

    Parameters
    ----------
    src, dst:
        Device names.  A link is usable in both directions; ``bandwidth``
        applies independently per direction (full duplex).
    bandwidth:
        Bytes/s per direction.
    latency:
        Fixed per-transfer latency in seconds (DMA setup, kernel launch).
    """

    src: str
    dst: str
    bandwidth: float
    latency: float = 10e-6

    def __post_init__(self) -> None:
        if self.bandwidth <= 0:
            raise ConfigError(f"link {self.src}->{self.dst}: bandwidth must be > 0")
        if self.latency < 0:
            raise ConfigError(f"link {self.src}->{self.dst}: latency must be >= 0")

    def connects(self, a: str, b: str) -> bool:
        """True if this link joins devices ``a`` and ``b`` (either order)."""
        return {self.src, self.dst} == {a, b}

    def transfer_time(self, nbytes: float) -> float:
        """Seconds to move ``nbytes`` one way across the link."""
        if nbytes < 0:
            raise ValueError("nbytes must be non-negative")
        if nbytes == 0:  # reach: tests/test_hardware_platform.py::test_link_transfer_time_includes_latency
            return 0.0
        return self.latency + nbytes / self.bandwidth
