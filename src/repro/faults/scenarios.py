"""Bundled, named chaos scenarios (`python -m repro chaos` runs these).

Every scenario is a pure function of ``(horizon_s, seed)``: windows sit
at fixed fractions of ``horizon_s``, and any stochastic structure (flap
timing) comes from the shared seeded-stream helper — same seed, same
schedule, byte for byte.  Pass the *serving makespan* you expect, not the
arrival horizon: the chaos bench uses each engine's fault-free makespan
so an offloaded engine that serves a 6 s trace over minutes still gets
fault windows its step boundaries actually sample.
"""

from __future__ import annotations

from typing import Callable

from repro.errors import ConfigError
from repro.faults.spec import FaultKind, FaultSchedule, FaultSpec
from repro.util.rng import seeded_rng


def _window(horizon_s: float, lo: float, hi: float) -> tuple[float, float]:
    """(start, duration) for the fractional window [lo, hi) of the horizon."""
    return lo * horizon_s, (hi - lo) * horizon_s


def pcie_degrade(horizon_s: float, seed: int = 0) -> FaultSchedule:
    """PCIe loses 60% of its bandwidth for the middle half of the run.

    The paper's placement is a function of the wire (Eqs. 3-8): losing
    the wire mid-run is the canonical "the hardware lied" event, and the
    one the acceptance criteria require LM-Offload to replan through.
    """
    start, dur = _window(horizon_s, 0.25, 0.75)
    return FaultSchedule(
        name="pcie-degrade",
        seed=seed,
        faults=(
            FaultSpec(FaultKind.PCIE_DEGRADE, start, dur, severity=0.6),
        ),
    )


def flaky_pcie(horizon_s: float, seed: int = 0) -> FaultSchedule:
    """Short seeded link flaps plus transient transfer errors.

    Flap windows are drawn from the seeded stream (count and placement
    vary with the seed) but never overlap by construction; a transient
    window over the middle half makes steps abort and retry.
    """
    rng = seeded_rng(seed, "faults", "flaky-pcie")
    faults: list[FaultSpec] = []
    t = 0.15 * horizon_s
    flap_len = max(0.01 * horizon_s, 1e-3)
    while t < 0.85 * horizon_s and len(faults) < 8:
        faults.append(
            FaultSpec(FaultKind.LINK_FLAP, float(t), flap_len, severity=0.95)
        )
        # Exponential gap, floored so consecutive flaps cannot overlap.
        t += flap_len + float(rng.exponential(0.12 * horizon_s)) + 1e-6
    start, dur = _window(horizon_s, 0.25, 0.75)
    faults.append(
        FaultSpec(FaultKind.TRANSIENT_ERROR, start, dur, severity=0.35)
    )
    return FaultSchedule(name="flaky-pcie", seed=seed, faults=tuple(faults))


def cpu_throttle(horizon_s: float, seed: int = 0) -> FaultSchedule:
    """Thermal throttling + half the cores taken offline mid-run.

    Algorithm 3's thread allocation is a function of core count and
    frequency; this scenario moves both at once.
    """
    start, dur = _window(horizon_s, 0.3, 0.8)
    return FaultSchedule(
        name="cpu-throttle",
        seed=seed,
        faults=(
            FaultSpec(FaultKind.CPU_THROTTLE, start, dur, severity=0.5),
            FaultSpec(FaultKind.CORE_LOSS, start, dur, severity=0.5),
        ),
    )


def mem_crunch(horizon_s: float, seed: int = 0) -> FaultSchedule:
    """Host memory pool shrinks 70% (co-tenant pressure) mid-run.

    Offloading engines park weights/KV in host memory; losing it is the
    fault that used to surface as `MemoryCapacityError` — now it must
    route through the memory prescreen and the degradation ladder.
    """
    start, dur = _window(horizon_s, 0.3, 0.8)
    return FaultSchedule(
        name="mem-crunch",
        seed=seed,
        faults=(
            FaultSpec(FaultKind.HOST_MEM_SHRINK, start, dur, severity=0.7),
        ),
    )


def gpu_brownout(horizon_s: float, seed: int = 0) -> FaultSchedule:
    """GPU clocks drop 60% (power cap) for the middle half of the run."""
    start, dur = _window(horizon_s, 0.25, 0.75)
    return FaultSchedule(
        name="gpu-brownout",
        seed=seed,
        faults=(
            FaultSpec(FaultKind.GPU_THROTTLE, start, dur, severity=0.6),
        ),
    )


def multi_fault(horizon_s: float, seed: int = 0) -> FaultSchedule:
    """Staggered compound failure: wire, then CPU, with flaky transfers."""
    pcie_start, pcie_dur = _window(horizon_s, 0.2, 0.6)
    cpu_start, cpu_dur = _window(horizon_s, 0.4, 0.9)
    err_start, err_dur = _window(horizon_s, 0.3, 0.7)
    return FaultSchedule(
        name="multi-fault",
        seed=seed,
        faults=(
            FaultSpec(FaultKind.PCIE_DEGRADE, pcie_start, pcie_dur, severity=0.5),
            FaultSpec(FaultKind.CPU_THROTTLE, cpu_start, cpu_dur, severity=0.4),
            FaultSpec(FaultKind.TRANSIENT_ERROR, err_start, err_dur, severity=0.25),
        ),
    )


#: Every bundled scenario by name.  Dict order is the sweep order of
#: every consumer that runs them all (the chaos bench, the faulted drift
#: audit), so serialized artifacts depend on it: append, never reorder.
SCENARIOS: dict[str, Callable[[float, int], FaultSchedule]] = {
    "pcie-degrade": pcie_degrade,
    "flaky-pcie": flaky_pcie,
    "cpu-throttle": cpu_throttle,
    "mem-crunch": mem_crunch,
    "gpu-brownout": gpu_brownout,
    "multi-fault": multi_fault,
}


def make_scenario(name: str, horizon_s: float, seed: int = 0) -> FaultSchedule:
    """Build a bundled scenario by name."""
    try:
        builder = SCENARIOS[name]
    except KeyError:
        raise ConfigError(
            f"unknown chaos scenario {name!r}; bundled scenarios: "
            + ", ".join(sorted(SCENARIOS))
        ) from None
    return builder(horizon_s, seed)
