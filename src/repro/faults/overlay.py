"""Non-destructive fault overlay: base platform + faults -> degraded view.

The overlay never mutates the base :class:`~repro.hardware.Platform` or
its frozen :class:`DeviceSpec`/:class:`Link` records — it builds a new
platform whose specs carry the composed degradation at one instant.  The
same base platform therefore serves every instant of a simulation, and
recovery is just "stop overlaying".

Composition rules (per device/link, multiplicative across kinds):

* ``PCIE_DEGRADE`` / ``LINK_FLAP``  -> link ``bandwidth  *= (1 - severity)``
* ``CPU_THROTTLE``                  -> cpu ``freq, peak_flops *= (1 - severity)``
* ``CORE_LOSS``                     -> cpu ``cores = floor(cores * (1 - severity))``
  rounded down to a multiple of ``sockets``, at least one core per socket
  (and ``peak_flops`` scales with the surviving-core fraction after that
  rounding, on top of any ``CPU_THROTTLE`` factor)
* ``GPU_THROTTLE``                  -> gpu ``peak_flops, freq *= (1 - severity)``
* ``HOST_MEM_SHRINK``               -> cpu ``memory_capacity *= (1 - severity)``

``TRANSIENT_ERROR`` faults change behaviour (step aborts), not specs, and
are ignored here — as are the replica-level kinds (``REPLICA_CRASH`` /
``REPLICA_RESTART``), which take whole replicas out of a fleet rather
than degrading any device.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Iterable

from repro.errors import FaultError
from repro.faults.spec import (
    CAPABILITY_KINDS,
    FaultKind,
    FaultSchedule,
    FaultSpec,
)
from repro.hardware.platform import Platform
from repro.perfmodel.notation import HardwareParams


def _surviving(severity: float) -> float:
    return 1.0 - severity


def _resolve_links(base: Platform, fault: FaultSpec) -> list[int]:
    """Indices into ``base.links`` that ``fault`` targets."""
    if fault.link is not None:  # reach: input: a fault that names a link (tests/test_faults.py::test_overlay_unknown_link_is_fault_error)
        a, b = fault.link
        idx = [i for i, l in enumerate(base.links) if l.connects(a, b)]
        if not idx:
            raise FaultError(
                fault.kind.value,
                f"no link between {a!r} and {b!r} on platform {base.name!r}",
            )
        return idx
    # Default: every CPU<->GPU link (the offloading wire).
    cpu = base.cpu.name
    gpus = {g.name for g in base.gpus}
    idx = [
        i
        for i, l in enumerate(base.links)
        if (l.src == cpu and l.dst in gpus) or (l.dst == cpu and l.src in gpus)
    ]
    if not idx:
        raise FaultError(
            fault.kind.value, f"platform {base.name!r} has no CPU<->GPU link"
        )
    return idx


def _resolve_devices(base: Platform, fault: FaultSpec) -> list[str]:
    """Device names that ``fault`` targets."""
    if fault.device is not None:  # reach: input: a fault that names a device (no bundled scenario does)
        if fault.device not in base.devices:
            raise FaultError(
                fault.kind.value,
                f"unknown device {fault.device!r} on platform {base.name!r}",
            )
        return [fault.device]
    if fault.kind is FaultKind.GPU_THROTTLE:
        return [g.name for g in base.gpus]
    return [base.cpu.name]


def degraded_platform(
    base: Platform,
    faults: FaultSchedule | Iterable[FaultSpec],
    t: float,
) -> Platform:
    """The platform as the faults leave it at virtual time ``t``.

    Returns ``base`` itself (same object) when no capability fault is
    active — callers can use identity to detect "nothing changed".
    """
    if isinstance(faults, FaultSchedule):
        active = faults.capability_faults(t)
    else:  # reach: tests/test_lp_coefficients.py::test_pcie_degraded_lp_coefficients_match_scalar_probes (a list of faults, not a schedule)
        active = [
            f for f in faults if f.active(t) and f.kind in CAPABILITY_KINDS
        ]
    if not active:
        return base

    dev_scale: dict[str, dict[str, float]] = {}
    link_scale: dict[int, float] = {}

    def scale(dev: str, field_name: str, factor: float) -> None:
        dev_scale.setdefault(dev, {})[field_name] = (
            dev_scale.get(dev, {}).get(field_name, 1.0) * factor
        )

    for fault in active:
        keep = _surviving(fault.severity)
        if fault.kind in (FaultKind.PCIE_DEGRADE, FaultKind.LINK_FLAP):
            for i in _resolve_links(base, fault):
                link_scale[i] = link_scale.get(i, 1.0) * keep
        elif fault.kind is FaultKind.CPU_THROTTLE:
            for dev in _resolve_devices(base, fault):
                scale(dev, "freq", keep)
                scale(dev, "peak_flops", keep)
        elif fault.kind is FaultKind.CORE_LOSS:
            for dev in _resolve_devices(base, fault):
                scale(dev, "cores", keep)
        elif fault.kind is FaultKind.GPU_THROTTLE:
            for dev in _resolve_devices(base, fault):
                scale(dev, "peak_flops", keep)
                scale(dev, "freq", keep)
        elif fault.kind is FaultKind.HOST_MEM_SHRINK:
            for dev in _resolve_devices(base, fault):
                scale(dev, "memory_capacity", keep)

    devices = {}
    for name, spec in base.devices.items():
        factors = dev_scale.get(name)
        if not factors:
            devices[name] = spec
            continue
        changes: dict = {}
        for field_name, factor in factors.items():
            if field_name == "cores":
                # Survivors split evenly across sockets, as the CPU
                # topology requires.
                per_socket = math.floor(spec.cores * factor) // spec.sockets
                changes["cores"] = spec.sockets * max(1, per_socket)
            elif field_name == "memory_capacity":
                changes["memory_capacity"] = max(
                    1, math.floor(spec.memory_capacity * factor)
                )
            else:
                changes[field_name] = getattr(spec, field_name) * factor
        if "cores" in changes:
            # Peak FLOP/s follows the cores that survive the rounding.
            changes["peak_flops"] = changes.get("peak_flops", spec.peak_flops) * (
                changes["cores"] / spec.cores
            )
        devices[name] = dataclasses.replace(spec, **changes)

    links = [
        dataclasses.replace(link, bandwidth=link.bandwidth * link_scale[i])
        if i in link_scale
        else link
        for i, link in enumerate(base.links)
    ]
    return Platform(
        name=f"{base.name}+faults",
        devices=devices,
        links=links,
        cache=base.cache,
    )


def capability_windows(
    schedule: FaultSchedule,
) -> list[tuple[float, float, tuple[FaultSpec, ...]]]:
    """Maximal ``[start, end)`` segments with a constant, non-empty set of
    active capability faults.

    The schedule is piecewise-constant between its change points, so each
    returned window is one degraded-platform regime: evaluating the
    overlay anywhere inside it yields the same platform.  Windows are
    sorted by start time; transient-only segments (no capability fault)
    are omitted — they do not change the platform the performance model
    prices.  The faulted drift audit sweeps these windows.
    """
    points = schedule.change_points()
    out: list[tuple[float, float, tuple[FaultSpec, ...]]] = []
    for a, b in zip(points, points[1:]):
        mid = (a + b) / 2.0
        active = tuple(schedule.capability_faults(mid))
        if active:
            out.append((a, b, active))
    return out


def fault_signature(active: Iterable[FaultSpec]) -> tuple:
    """Order-independent identity of a set of capability faults.

    Two windows with equal signatures degrade the platform identically
    (same kinds, severities and targets), so a sweep can price one
    representative and tally the occurrences.
    """
    return tuple(
        sorted(
            (f.kind.value, f.severity, f.device or "", tuple(f.link or ()))
            for f in active
        )
    )


#: HardwareParams fields the drift metric compares (rates and capacities
#: the performance model actually consumes).
_DRIFT_FIELDS = (
    "gpu_flops",
    "gpu_mem_bdw",
    "gpu_freq",
    "cpu_flops",
    "cpu_mem_bdw",
    "cpu_freq",
    "pcie_bdw",
    "disk_bdw",
    "gpu_mem_capacity",
    "cpu_mem_capacity",
)


def relative_drift(reference: HardwareParams, observed: HardwareParams) -> float:
    """Largest relative deviation of any modelled rate/capacity.

    ``0.0`` means identical hardware; ``0.6`` means some rate lost (or
    gained) 60% relative to the reference.  This is the watchdog's
    tolerance metric: replanning triggers when the effective platform
    drifts beyond :data:`repro.serving.simulator.DRIFT_TOLERANCE` from the
    one the current plan was computed against.
    """
    worst = 0.0
    for name in _DRIFT_FIELDS:
        ref = getattr(reference, name)
        obs = getattr(observed, name)
        if ref > 0:
            worst = max(worst, abs(obs - ref) / ref)
    return worst
