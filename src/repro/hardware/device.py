"""Device specifications (GPU / CPU) used by the performance model.

A :class:`DeviceSpec` is a plain parameter bundle.  The names follow the
paper's Table 2 notation: ``peak_flops`` maps to ``gpu_flops``/``cpu_flops``,
``mem_bandwidth`` to ``gpu_mem_bdw``/``cpu_mem_bdw`` and ``freq`` to
``gpu_freq``/``cpu_freq``.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.errors import ConfigError


class DeviceKind(enum.Enum):
    """Classification of a device for placement decisions."""

    GPU = "gpu"
    CPU = "cpu"
    DISK = "disk"


@dataclass(frozen=True)
class DeviceSpec:
    """Static description of one device.

    Parameters
    ----------
    name:
        Unique identifier within a :class:`~repro.hardware.platform.Platform`
        (e.g. ``"gpu0"``, ``"cpu"``).
    kind:
        GPU, CPU or DISK.
    peak_flops:
        Peak floating-point throughput in FLOP/s for the matrix-multiply
        datatype the engine uses on this device (fp16 tensor-core rate for
        GPUs, fp32 SIMD rate for CPUs).
    mem_bandwidth:
        Peak attached-memory bandwidth in bytes/s (HBM for GPUs, aggregate
        DDR for CPUs).
    freq:
        Core clock in Hz.  The paper's min/max-scan cost (Eq. 13, 21) is
        charged per element against this clock.
    memory_capacity:
        Usable memory in bytes.
    cores:
        Physical core count (CPUs only; GPUs use 0 since the model never
        schedules per-SM).
    smt:
        Hardware threads per core (CPUs only).
    sockets:
        Socket count; threads spanning more than one socket pay the NUMA
        penalty in :mod:`repro.parallel.speedup`.
    """

    name: str
    kind: DeviceKind
    peak_flops: float
    mem_bandwidth: float
    freq: float
    memory_capacity: int
    cores: int = 0
    smt: int = 1
    sockets: int = 1
    extras: dict = field(default_factory=dict, compare=False)

    def __post_init__(self) -> None:
        if self.peak_flops <= 0 and self.kind is not DeviceKind.DISK:
            raise ConfigError(f"device {self.name}: peak_flops must be > 0")
        if self.mem_bandwidth <= 0:
            raise ConfigError(f"device {self.name}: mem_bandwidth must be > 0")
        if self.memory_capacity <= 0:
            raise ConfigError(f"device {self.name}: memory_capacity must be > 0")
        if self.kind is DeviceKind.CPU and self.cores <= 0:
            raise ConfigError(f"CPU device {self.name}: cores must be > 0")

    @property
    def is_gpu(self) -> bool:
        return self.kind is DeviceKind.GPU

    @property
    def is_cpu(self) -> bool:
        return self.kind is DeviceKind.CPU
