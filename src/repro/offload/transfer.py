"""Transfer engine: simulated link time with traffic accounting.

The functional engine charges every weight and KV fetch here.  Traffic
is keyed by ``(src, dst, category)``, so CPU->GPU and GPU->CPU are
independent, matching full-duplex PCIe; categories follow Table 1's rows
("weights", "kv_cache", "activation").
"""

from __future__ import annotations

from collections import defaultdict

from repro.hardware.platform import Platform


class TransferEngine:
    """Charges link time and traffic for byte flows between devices."""

    def __init__(self, platform: Platform) -> None:
        self.platform = platform
        #: Cumulative bytes moved, keyed by (src, dst, category).
        self.bytes_moved: dict[tuple[str, str, str], float] = defaultdict(float)

    def charge(self, src: str, dst: str, nbytes: float, category: str) -> float:
        """Record ``nbytes`` moved from ``src`` to ``dst`` and return the
        seconds the link takes to carry them."""
        if nbytes < 0:
            raise ValueError("nbytes must be non-negative")
        if src == dst or nbytes == 0:  # reach: tests/test_offload_store.py::test_transfer_engine_charge_without_tensor
            return 0.0
        self.bytes_moved[(src, dst, category)] += nbytes
        return self.platform.link_between(src, dst).transfer_time(nbytes)
