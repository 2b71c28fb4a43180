import pytest

from repro.errors import ConfigError
from repro.hardware import Platform, power9_4xv100, single_a100, small_test_platform
from repro.hardware.device import DeviceKind, DeviceSpec
from repro.hardware.interconnect import Link
from repro.units import GB


def test_single_a100_shape():
    plat = single_a100()
    assert plat.gpus[0].memory_capacity == 40 * GB
    assert plat.cpu.cores == 56
    assert plat.cpu.cores * plat.cpu.smt == 112
    # PCIe 4.0 x16: 32 GB/s per direction (64 bidirectional in the paper).
    assert plat.link_between("cpu", "gpu0").bandwidth == 32 * GB


def test_single_a100_pools_match_devices():
    plat = single_a100()
    for name, spec in plat.devices.items():
        assert plat.pools[name].capacity == spec.memory_capacity


def test_power9_gpu_counts():
    for n in (1, 2, 4):
        plat = power9_4xv100(n)
        assert len(plat.gpus) == n
    with pytest.raises(ConfigError):
        power9_4xv100(5)


def test_power9_links_every_gpu_to_cpu():
    plat = power9_4xv100(4)
    for gpu in plat.gpus:
        assert plat.link_between("cpu", gpu.name).bandwidth == 150 * GB


def test_unknown_device_lookup():
    plat = single_a100()
    with pytest.raises(ConfigError, match="unknown device"):
        plat.device("tpu0")


def test_unknown_link_lookup():
    plat = single_a100()
    with pytest.raises(ConfigError, match="no link"):
        plat.link_between("gpu0", "disk")


def test_link_references_must_exist():
    gpu = DeviceSpec(
        name="gpu0", kind=DeviceKind.GPU, peak_flops=1e12,
        mem_bandwidth=1e11, freq=1e9, memory_capacity=1e9,
    )
    with pytest.raises(ConfigError, match="unknown device"):
        Platform(
            name="broken",
            devices={"gpu0": gpu},
            links=[Link(src="gpu0", dst="nope", bandwidth=1e9)],
        )


def test_small_platform_is_small():
    plat = small_test_platform()
    assert plat.gpus[0].memory_capacity < 1 * GB


def test_link_transfer_time_includes_latency():
    link = Link(src="a", dst="b", bandwidth=1e9, latency=1e-5)
    assert link.transfer_time(0) == 0.0
    assert link.transfer_time(1e9) == pytest.approx(1.0 + 1e-5)
    with pytest.raises(ValueError):
        link.transfer_time(-1)


def test_link_connects_either_direction():
    link = Link(src="a", dst="b", bandwidth=1e9)
    assert link.connects("b", "a") and link.connects("a", "b")
    assert not link.connects("a", "c")


def test_invalid_link_bandwidth():
    with pytest.raises(ConfigError):
        Link(src="a", dst="b", bandwidth=0)
