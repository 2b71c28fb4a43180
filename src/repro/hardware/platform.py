"""Platform = devices + links + per-device memory pools, with paper presets.

Two presets mirror the paper's Table 4:

* :func:`single_a100` — 1x NVIDIA A100-40GB, 2x Intel Xeon Gold 6330
  (56 cores / 112 threads total), 240 GB host memory, PCIe 4.0 x16.
* :func:`power9_4xv100` — 2x IBM POWER9 (44 cores), 4x V100-16GB,
  NVLink 2.0.

A third, :func:`small_test_platform`, is a scaled-down platform used by the
functional (real NumPy execution) tests so that tiny models genuinely hit
capacity limits.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.errors import ConfigError
from repro.hardware.cache import CacheHierarchy
from repro.hardware.device import DeviceKind, DeviceSpec
from repro.hardware.interconnect import Link
from repro.hardware.memory import MemoryPool
from repro.units import GB, GB_PER_S, GHZ, GIB, MIB, TFLOPS


@dataclass
class Platform:
    """A machine: named devices, the links joining them, and memory pools."""

    name: str
    devices: dict[str, DeviceSpec]
    links: list[Link]
    cache: CacheHierarchy = field(default_factory=CacheHierarchy)
    pools: dict[str, MemoryPool] = field(init=False)

    def __post_init__(self) -> None:
        for link in self.links:
            for end in (link.src, link.dst):
                if end not in self.devices:
                    raise ConfigError(
                        f"platform {self.name}: link references unknown device {end!r}"
                    )
        self.pools = {
            name: MemoryPool(name=name, capacity=spec.memory_capacity)
            for name, spec in self.devices.items()
        }

    # -- lookup helpers ----------------------------------------------------

    def device(self, name: str) -> DeviceSpec:
        try:
            return self.devices[name]
        except KeyError:
            raise ConfigError(
                f"platform {self.name}: unknown device {name!r}"
            ) from None

    @property
    def gpus(self) -> list[DeviceSpec]:
        """All GPU devices, sorted by name (gpu0, gpu1, ...)."""
        return sorted(
            (d for d in self.devices.values() if d.is_gpu), key=lambda d: d.name
        )

    @property
    def cpu(self) -> DeviceSpec:
        cpus = [d for d in self.devices.values() if d.is_cpu]
        if len(cpus) != 1:
            raise ConfigError(
                f"platform {self.name}: expected exactly one CPU, found {len(cpus)}"
            )
        return cpus[0]

    def link_between(self, a: str, b: str) -> Link:
        """The link joining devices ``a`` and ``b``."""
        for link in self.links:
            if link.connects(a, b):
                return link
        raise ConfigError(f"platform {self.name}: no link between {a!r} and {b!r}")

    def with_faults(self, faults, t: float) -> "Platform":
        """This platform as a fault schedule leaves it at time ``t``.

        Non-destructive: returns a new :class:`Platform` (or ``self`` when
        no capability fault is active at ``t``); the base specs are never
        mutated.  ``faults`` is a :class:`~repro.faults.FaultSchedule` or
        an iterable of :class:`~repro.faults.FaultSpec`.
        """
        from repro.faults.overlay import degraded_platform

        return degraded_platform(self, faults, t)


# ---------------------------------------------------------------------------
# Presets (paper Table 4)
# ---------------------------------------------------------------------------


def single_a100(host_memory: int = 360 * GB) -> Platform:
    """The paper's single-GPU platform.

    A100-40GB: 312 TFLOPS fp16 tensor core, 1555 GB/s HBM2, 1.41 GHz boost.
    2x Xeon Gold 6330: 56 cores / 112 HW threads, 2.0 GHz base,
    ~2.8 TFLOPS aggregate fp32 AVX-512, ~380 GB/s aggregate DDR4-2933
    (of which ~200 GB/s is realistically achievable from one NUMA-unaware
    process — we use the achievable figure since the paper's tasks are
    bandwidth-bound).

    The host *pool* defaults to 360 GB rather than the physical 240 GB:
    the paper's own Table 3 reports total memory consumption up to 326 GB
    on this machine, implying disk/NVMe spill beyond DRAM; a strict 240 GB
    pool would reject several of the paper's own configurations.
    """
    gpu = DeviceSpec(
        name="gpu0",
        kind=DeviceKind.GPU,
        peak_flops=312 * TFLOPS,
        mem_bandwidth=1555 * GB_PER_S,
        freq=1.41 * GHZ,
        memory_capacity=40 * GB,
    )
    cpu = DeviceSpec(
        name="cpu",
        kind=DeviceKind.CPU,
        peak_flops=2.8 * TFLOPS,
        mem_bandwidth=200 * GB_PER_S,
        freq=2.0 * GHZ,
        memory_capacity=host_memory,
        cores=56,
        smt=2,
        sockets=2,
    )
    disk = DeviceSpec(
        name="disk",
        kind=DeviceKind.DISK,
        peak_flops=1.0,  # disks do not compute
        mem_bandwidth=2 * GB_PER_S,
        freq=1.0,
        memory_capacity=4000 * GB,
    )
    links = [
        Link(src="cpu", dst="gpu0", bandwidth=32 * GB_PER_S),  # PCIe 4.0 x16
        Link(src="disk", dst="cpu", bandwidth=2 * GB_PER_S),
    ]
    return Platform(
        name="single-a100",
        devices={d.name: d for d in (gpu, cpu, disk)},
        links=links,
        cache=CacheHierarchy(llc_bytes=42 * MIB),
    )


def power9_4xv100(num_gpus: int = 4) -> Platform:
    """The paper's multi-GPU platform: 2x POWER9 + ``num_gpus`` V100-16GB.

    V100: 112 TFLOPS fp16, 900 GB/s HBM2.  NVLink 2.0 gives each GPU a
    150 GB/s per-direction path to the CPU on POWER9 (the paper quotes the
    300 GB/s bidirectional aggregate).
    """
    if not 1 <= num_gpus <= 4:
        raise ConfigError("power9_4xv100 supports 1..4 GPUs")
    cpu = DeviceSpec(
        name="cpu",
        kind=DeviceKind.CPU,
        peak_flops=1.6 * TFLOPS,
        mem_bandwidth=170 * GB_PER_S,
        freq=3.0 * GHZ,
        memory_capacity=280 * GB,
        cores=44,
        smt=4,
        sockets=2,
    )
    devices: dict[str, DeviceSpec] = {"cpu": cpu}
    links: list[Link] = []
    for i in range(num_gpus):
        gpu = DeviceSpec(
            name=f"gpu{i}",
            kind=DeviceKind.GPU,
            peak_flops=112 * TFLOPS,
            mem_bandwidth=900 * GB_PER_S,
            freq=1.53 * GHZ,
            memory_capacity=16 * GB,
        )
        devices[gpu.name] = gpu
        links.append(Link(src="cpu", dst=gpu.name, bandwidth=150 * GB_PER_S))
    # NVLink GPU<->GPU ring for pipeline-parallel activation handoff.
    for i in range(num_gpus - 1):
        links.append(Link(src=f"gpu{i}", dst=f"gpu{i+1}", bandwidth=150 * GB_PER_S))
    return Platform(
        name=f"power9-{num_gpus}xv100",
        devices=devices,
        links=links,
        cache=CacheHierarchy(llc_bytes=120 * MIB),
    )


def small_test_platform(
    gpu_memory: int = 64 * MIB, host_memory: int = 1 * GIB
) -> Platform:
    """A miniature platform for functional tests with real NumPy tensors.

    Deliberately tiny GPU memory so that small test models exercise the
    offloading machinery (placement, eviction, capacity errors) for real.
    """
    gpu = DeviceSpec(
        name="gpu0",
        kind=DeviceKind.GPU,
        peak_flops=1 * TFLOPS,
        mem_bandwidth=100 * GB_PER_S,
        freq=1.0 * GHZ,
        memory_capacity=gpu_memory,
    )
    cpu = DeviceSpec(
        name="cpu",
        kind=DeviceKind.CPU,
        peak_flops=0.1 * TFLOPS,
        mem_bandwidth=20 * GB_PER_S,
        freq=2.0 * GHZ,
        memory_capacity=host_memory,
        cores=8,
        smt=2,
        sockets=1,
    )
    links = [Link(src="cpu", dst="gpu0", bandwidth=8 * GB_PER_S)]
    return Platform(
        name="small-test",
        devices={d.name: d for d in (gpu, cpu)},
        links=links,
        cache=CacheHierarchy(llc_bytes=8 * MIB),
    )


#: Every platform preset by name: what :func:`repro.baselines.make_engine`
#: and a fleet replica's ``platform`` accept.
PLATFORMS: dict[str, Callable[[], Platform]] = {
    "single-a100": single_a100,
    "power9-4xv100": power9_4xv100,
    "small-test": small_test_platform,
}
