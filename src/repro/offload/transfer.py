"""Transfer engine: simulated link time with traffic accounting.

The functional engine charges every weight and KV fetch here.  The
per-direction :class:`TrafficLedger` keys flows by ``(src, dst)`` so
CPU->GPU and GPU->CPU are independent, matching full-duplex PCIe.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field

from repro.hardware.platform import Platform


@dataclass
class TrafficLedger:
    """Cumulative bytes moved, keyed by (src, dst, category).

    Categories follow Table 1's rows: "weights", "kv_cache", "activation".
    """

    bytes_moved: dict[tuple[str, str, str], float] = field(
        default_factory=lambda: defaultdict(float)
    )

    def record(self, src: str, dst: str, category: str, nbytes: float) -> None:
        self.bytes_moved[(src, dst, category)] += nbytes


class TransferEngine:
    """Charges link time and traffic for byte flows between devices."""

    def __init__(self, platform: Platform) -> None:
        self.platform = platform
        self.ledger = TrafficLedger()

    def charge(self, src: str, dst: str, nbytes: float, category: str) -> float:
        """Record ``nbytes`` moved from ``src`` to ``dst`` on the ledger and
        return the seconds the link takes to carry them."""
        if nbytes < 0:
            raise ValueError("nbytes must be non-negative")
        if src == dst or nbytes == 0:
            return 0.0
        self.ledger.record(src, dst, category, nbytes)
        return self.platform.link_between(src, dst).transfer_time(nbytes)
