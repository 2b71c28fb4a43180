"""Fault layer: spec validation, overlay algebra, retry/backoff, ladder."""

import math

import pytest

from repro.errors import ConfigError, FaultError, RetryExhaustedError
from repro.faults import (
    LADDER,
    FaultKind,
    FaultSchedule,
    FaultSpec,
    RetryPolicy,
    SCENARIOS,
    degraded_platform,
    make_scenario,
    relative_drift,
)
from repro.hardware import PLATFORMS, single_a100
from repro.parallel.topology import CpuTopology
from repro.perfmodel import HardwareParams


# -- FaultSpec / FaultSchedule validation ----------------------------------


def test_spec_rejects_negative_start():
    with pytest.raises(ConfigError, match="start_s"):
        FaultSpec(FaultKind.PCIE_DEGRADE, -1.0, 5.0, 0.5)


def test_spec_rejects_zero_duration():
    with pytest.raises(ConfigError, match="duration_s"):
        FaultSpec(FaultKind.PCIE_DEGRADE, 0.0, 0.0, 0.5)


@pytest.mark.parametrize("severity", [-0.1, 1.5])
def test_spec_rejects_out_of_range_severity(severity):
    with pytest.raises(ConfigError, match="severity"):
        FaultSpec(FaultKind.GPU_THROTTLE, 0.0, 1.0, severity)


def test_spec_rejects_total_core_loss():
    with pytest.raises(ConfigError, match="at least one core"):
        FaultSpec(FaultKind.CORE_LOSS, 0.0, 1.0, 1.0)


def test_schedule_rejects_same_target_overlap():
    with pytest.raises(ConfigError, match="overlap"):
        FaultSchedule(
            name="bad",
            faults=(
                FaultSpec(FaultKind.PCIE_DEGRADE, 0.0, 10.0, 0.5),
                FaultSpec(FaultKind.PCIE_DEGRADE, 5.0, 10.0, 0.3),
            ),
        )


def test_schedule_allows_cross_kind_overlap():
    sched = FaultSchedule(
        name="ok",
        faults=(
            FaultSpec(FaultKind.PCIE_DEGRADE, 0.0, 10.0, 0.5),
            FaultSpec(FaultKind.CPU_THROTTLE, 5.0, 10.0, 0.3),
        ),
    )
    assert len(sched.active(7.0)) == 2


def test_schedule_time_structure():
    sched = FaultSchedule(
        name="s",
        faults=(
            FaultSpec(FaultKind.PCIE_DEGRADE, 2.0, 3.0, 0.5),
            FaultSpec(FaultKind.TRANSIENT_ERROR, 4.0, 2.0, 0.5),
        ),
    )
    assert sched.change_points() == [2.0, 4.0, 5.0, 6.0]
    assert sched.next_change_after(4.0) == 5.0
    assert sched.next_change_after(6.0) is None
    assert sched.segment_key(1.0) == ()
    assert sched.segment_key(4.5) == (0, 1)


def test_transient_probability_composes_independently():
    sched = FaultSchedule(
        name="s",
        faults=(
            FaultSpec(FaultKind.TRANSIENT_ERROR, 0.0, 10.0, 0.5),
            FaultSpec(FaultKind.TRANSIENT_ERROR, 0.0, 10.0, 0.5, device="gpu0"),
        ),
    )
    assert sched.transient_abort_probability(5.0) == pytest.approx(0.75)
    assert sched.transient_abort_probability(15.0) == 0.0


# -- overlay ---------------------------------------------------------------


@pytest.fixture(scope="module")
def a100_platform():
    return single_a100()


def test_overlay_identity_when_inactive(a100_platform):
    sched = make_scenario("pcie-degrade", horizon_s=100.0, seed=0)
    assert a100_platform.with_faults(sched, 0.0) is a100_platform
    assert a100_platform.with_faults(FaultSchedule("no-faults"), 50.0) is a100_platform


def test_overlay_scales_link_bandwidth_nondestructively(a100_platform):
    sched = make_scenario("pcie-degrade", horizon_s=100.0, seed=0)
    base_bw = a100_platform.links[0].bandwidth
    degraded = a100_platform.with_faults(sched, 50.0)
    assert degraded is not a100_platform
    assert degraded.links[0].bandwidth == pytest.approx(base_bw * 0.4)
    # The base platform is untouched — overlays never mutate.
    assert a100_platform.links[0].bandwidth == base_bw


def test_overlay_core_loss_keeps_at_least_one_core(a100_platform):
    sched = FaultSchedule(
        name="s", faults=(FaultSpec(FaultKind.CORE_LOSS, 0.0, 10.0, 0.99),)
    )
    degraded = degraded_platform(a100_platform, sched, 5.0)
    assert degraded.cpu.cores >= 1


@pytest.mark.parametrize("platform", ["single-a100", "power9-4xv100"])
@pytest.mark.parametrize("severity", [0.9, 0.99, 0.999])
def test_core_loss_at_high_severity_keeps_a_valid_topology(platform, severity):
    """Survivors round down to a multiple of the socket count, at least
    one core per socket, so the CPU topology can still be derived."""
    base = PLATFORMS[platform]()
    sched = FaultSchedule(
        name="s", faults=(FaultSpec(FaultKind.CORE_LOSS, 0.0, 10.0, severity),)
    )
    cpu = base.with_faults(sched, 5.0).cpu
    topo = CpuTopology.from_device(cpu)
    assert topo.sockets * topo.cores_per_socket == cpu.cores
    assert cpu.sockets <= cpu.cores <= max(
        cpu.sockets, math.floor(base.cpu.cores * (1 - severity))
    )


@pytest.mark.parametrize("severity", [0.5, 0.9, 0.99])
@pytest.mark.parametrize("throttle", [None, 0.3])
def test_core_loss_scales_flops_by_the_surviving_cores(a100_platform, severity, throttle):
    """``peak_flops`` follows the cores left after rounding to a socket
    multiple (4 of 56 at 0.9, 2 of 56 at 0.99), times any CPU throttle
    on the same device."""
    faults = [FaultSpec(FaultKind.CORE_LOSS, 0.0, 10.0, severity)]
    if throttle is not None:
        faults.append(FaultSpec(FaultKind.CPU_THROTTLE, 0.0, 10.0, throttle))
    base = a100_platform.cpu
    cpu = degraded_platform(a100_platform, faults, 5.0).cpu
    keep = {0.5: 28, 0.9: 4, 0.99: 2}[severity]
    assert cpu.cores == keep
    speed = 1.0 if throttle is None else 1.0 - throttle
    assert cpu.peak_flops == pytest.approx(base.peak_flops * speed * keep / 56, rel=1e-12)
    assert cpu.freq == pytest.approx(base.freq * speed, rel=1e-12)


def test_overlay_mem_shrink(a100_platform):
    sched = FaultSchedule(
        name="s", faults=(FaultSpec(FaultKind.HOST_MEM_SHRINK, 0.0, 10.0, 0.7),)
    )
    degraded = degraded_platform(a100_platform, sched, 5.0)
    assert degraded.cpu.memory_capacity == pytest.approx(
        a100_platform.cpu.memory_capacity * 0.3, rel=1e-6
    )


def test_overlay_unknown_link_is_fault_error(a100_platform):
    sched = FaultSchedule(
        name="s",
        faults=(
            FaultSpec(
                FaultKind.PCIE_DEGRADE, 0.0, 10.0, 0.5, link=("cpu", "nope")
            ),
        ),
    )
    with pytest.raises(FaultError, match="no link"):
        degraded_platform(a100_platform, sched, 5.0)


def test_relative_drift_detects_overlay(a100_platform):
    sched = make_scenario("pcie-degrade", horizon_s=100.0, seed=0)
    base_hw = HardwareParams.from_platform(a100_platform)
    degraded_hw = HardwareParams.from_platform(
        a100_platform.with_faults(sched, 50.0)
    )
    assert relative_drift(base_hw, base_hw) == 0.0
    assert relative_drift(base_hw, degraded_hw) == pytest.approx(0.6, rel=1e-6)


# -- retry policy ----------------------------------------------------------


def test_backoff_monotone_and_capped_with_jitter():
    policy = RetryPolicy(base_s=0.5, cap_s=8.0, jitter=0.1, limit=10)
    # Worst case for monotonicity: maximal jitter early, none later.
    delays = [policy.delay(k, u=1.0 if k % 2 else 0.0) for k in range(1, 11)]
    assert all(b >= a for a, b in zip(delays, delays[1:]))
    assert all(d <= 8.0 for d in delays)
    assert delays[-1] == 8.0


def test_backoff_doubles_without_jitter():
    policy = RetryPolicy(base_s=0.5, cap_s=100.0, jitter=0.0)
    assert [policy.delay(k) for k in (1, 2, 3, 4)] == [0.5, 1.0, 2.0, 4.0]


def test_retry_policy_rejects_zero_base():
    with pytest.raises(ConfigError, match="tight loop"):
        RetryPolicy(base_s=0.0)


def test_retry_policy_rejects_cap_below_base():
    with pytest.raises(ConfigError, match="cap"):
        RetryPolicy(base_s=2.0, cap_s=1.0)


def test_retry_policy_rejects_nonpositive_max_elapsed():
    with pytest.raises(ConfigError, match="max_elapsed_s"):
        RetryPolicy(max_elapsed_s=0.0)
    with pytest.raises(ConfigError, match="max_elapsed_s"):
        RetryPolicy(max_elapsed_s=-1.0)


def test_max_elapsed_clamps_delay_to_remaining_budget():
    policy = RetryPolicy(base_s=1.0, cap_s=8.0, jitter=0.0, max_elapsed_s=10.0)
    assert policy.delay(4) == 8.0  # no elapsed time: the plain cap
    assert policy.delay(4, elapsed_s=7.0) == 3.0  # clamped to remaining
    assert policy.delay(4, elapsed_s=12.0) == 0.0  # floored, never negative
    unbounded = RetryPolicy(base_s=1.0, cap_s=8.0, jitter=0.0)
    assert unbounded.delay(4, elapsed_s=100.0) == 8.0  # None disables it


def test_retry_budget_raises_structured_error():
    policy = RetryPolicy(limit=2)
    policy.check_budget(rid=7, attempts=2)
    with pytest.raises(RetryExhaustedError) as exc_info:
        policy.check_budget(rid=7, attempts=3)
    err = exc_info.value
    assert err.rid == 7 and err.attempts == 3 and err.limit == 2


# -- ladder + scenarios ----------------------------------------------------


def test_ladder_orders_mitigations():
    names = [r.name for r in LADDER]
    assert names[0] == "nominal" and names[-1] == "backpressure"
    assert all(r.admit for r in LADDER[:-1]) and not LADDER[-1].admit
    # Batch ceilings only shrink as rungs get more drastic.
    divisors = [r.batch_divisor for r in LADDER]
    assert divisors == sorted(divisors)


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_scenarios_are_seed_deterministic(name):
    s1 = make_scenario(name, horizon_s=30.0, seed=3)
    s2 = make_scenario(name, horizon_s=30.0, seed=3)
    assert s1.to_dict() == s2.to_dict()


def test_flaky_scenario_varies_with_seed():
    s1 = make_scenario("flaky-pcie", horizon_s=30.0, seed=0)
    s2 = make_scenario("flaky-pcie", horizon_s=30.0, seed=1)
    assert s1.to_dict() != s2.to_dict()


def test_unknown_scenario_is_config_error():
    with pytest.raises(ConfigError, match="unknown chaos scenario"):
        make_scenario("nope", horizon_s=30.0)


# -- overlay metamorphic properties ----------------------------------------


@pytest.mark.parametrize(
    "kind",
    [
        FaultKind.PCIE_DEGRADE,
        FaultKind.LINK_FLAP,
        FaultKind.CPU_THROTTLE,
        FaultKind.CORE_LOSS,
        FaultKind.GPU_THROTTLE,
        FaultKind.HOST_MEM_SHRINK,
    ],
)
def test_zero_magnitude_fault_leaves_platform_byte_identical(
    a100_platform, kind
):
    """severity=0 takes nothing away: every spec and link of the overlay
    equals the base value for value (only the platform name differs)."""
    sched = FaultSchedule(
        name="noop", faults=(FaultSpec(kind, 0.0, 10.0, severity=0.0),)
    )
    degraded = a100_platform.with_faults(sched, 5.0)
    assert degraded.devices == a100_platform.devices
    assert list(degraded.links) == list(a100_platform.links)
    assert HardwareParams.from_platform(degraded) == HardwareParams.from_platform(
        a100_platform
    )


def test_disjoint_fault_windows_compose_like_singletons(a100_platform):
    """A schedule holding two disjoint windows degrades each instant
    exactly as the matching single-fault schedule would."""
    pcie = FaultSpec(FaultKind.PCIE_DEGRADE, 0.0, 10.0, severity=0.5)
    cpu = FaultSpec(FaultKind.CPU_THROTTLE, 20.0, 10.0, severity=0.4)
    both = FaultSchedule(name="both", faults=(pcie, cpu))
    only_pcie = FaultSchedule(name="p", faults=(pcie,))
    only_cpu = FaultSchedule(name="c", faults=(cpu,))
    for t, singleton in ((5.0, only_pcie), (25.0, only_cpu)):
        composed = a100_platform.with_faults(both, t)
        alone = a100_platform.with_faults(singleton, t)
        assert composed.devices == alone.devices
        assert list(composed.links) == list(alone.links)
    # Between the windows, the overlay steps aside entirely.
    assert a100_platform.with_faults(both, 15.0) is a100_platform


def test_fault_declaration_order_commutes(a100_platform):
    """Overlapping cross-kind faults compose multiplicatively, so the
    declaration order in the schedule cannot matter."""
    specs = (
        FaultSpec(FaultKind.CPU_THROTTLE, 0.0, 10.0, severity=0.5),
        FaultSpec(FaultKind.CORE_LOSS, 0.0, 10.0, severity=0.5),
        FaultSpec(FaultKind.PCIE_DEGRADE, 0.0, 10.0, severity=0.3),
    )
    forward = a100_platform.with_faults(
        FaultSchedule(name="f", faults=specs), 5.0
    )
    reverse = a100_platform.with_faults(
        FaultSchedule(name="r", faults=specs[::-1]), 5.0
    )
    assert forward.devices == reverse.devices
    assert list(forward.links) == list(reverse.links)
    assert HardwareParams.from_platform(forward) == HardwareParams.from_platform(
        reverse
    )


def test_overlay_never_mutates_base_and_shares_untouched_objects(
    a100_platform,
):
    """with_faults is an overlay, not an edit: the base keeps its exact
    spec objects, and sub-objects the fault does not touch are shared by
    identity with the degraded view."""
    before_devices = dict(a100_platform.devices)
    before_links = list(a100_platform.links)
    sched = FaultSchedule(
        name="cpu-only",
        faults=(FaultSpec(FaultKind.CPU_THROTTLE, 0.0, 10.0, severity=0.5),),
    )
    degraded = a100_platform.with_faults(sched, 5.0)
    # Base is untouched, object for object.
    for name, spec in before_devices.items():
        assert a100_platform.devices[name] is spec
    for i, link in enumerate(before_links):
        assert a100_platform.links[i] is link
    # The overlay rebuilds only what the fault touches: GPU specs, links
    # and the cache hierarchy are the very same objects.
    cpu_name = a100_platform.cpu.name
    assert degraded.devices[cpu_name] is not a100_platform.devices[cpu_name]
    for name, spec in degraded.devices.items():
        if name != cpu_name:
            assert spec is a100_platform.devices[name]
    for i, link in enumerate(degraded.links):
        assert link is a100_platform.links[i]
    assert degraded.cache is a100_platform.cache


def test_capability_windows_enumerate_piecewise_regimes():
    """multi-fault at horizon 100: pcie [20,60), cpu [40,90), transient
    [30,70) -> capability segments split at every change point, with the
    transient-only structure contributing boundaries but no windows."""
    from repro.faults.overlay import capability_windows

    sched = make_scenario("multi-fault", horizon_s=100.0, seed=0)
    windows = capability_windows(sched)
    spans = [(a, b, sorted({f.kind.value for f in active}))
             for a, b, active in windows]
    assert spans == [
        (20.0, 30.0, ["pcie_degrade"]),
        (30.0, 40.0, ["pcie_degrade"]),
        (40.0, 60.0, ["cpu_throttle", "pcie_degrade"]),
        (60.0, 70.0, ["cpu_throttle"]),
        (70.0, 90.0, ["cpu_throttle"]),
    ]


def test_fault_signature_dedupes_identical_regimes():
    """flaky-pcie's flaps all carry the same (kind, severity, target), so
    every capability window collapses to one signature — the faulted
    audit prices it once and tallies occurrences."""
    from repro.faults.overlay import capability_windows, fault_signature

    sched = make_scenario("flaky-pcie", horizon_s=100.0, seed=0)
    windows = capability_windows(sched)
    assert len(windows) >= 2
    signatures = {fault_signature(active) for _, _, active in windows}
    assert len(signatures) == 1
    # And the signature is order-independent.
    _, _, active = windows[0]
    assert fault_signature(active) == fault_signature(tuple(reversed(active)))
