import pytest

from repro.errors import ConfigError
from repro.hardware.device import DeviceKind, DeviceSpec
from repro.units import GB, GHZ, TFLOPS


def make_gpu(**overrides) -> DeviceSpec:
    base = dict(
        name="gpu0",
        kind=DeviceKind.GPU,
        peak_flops=312 * TFLOPS,
        mem_bandwidth=1555 * GB,
        freq=1.41 * GHZ,
        memory_capacity=40 * GB,
    )
    base.update(overrides)
    return DeviceSpec(**base)


def test_gpu_flags():
    gpu = make_gpu()
    assert gpu.is_gpu and not gpu.is_cpu


def test_cpu_requires_cores():
    with pytest.raises(ConfigError, match="cores"):
        DeviceSpec(
            name="cpu", kind=DeviceKind.CPU, peak_flops=1e12,
            mem_bandwidth=1e11, freq=2e9, memory_capacity=1e11, cores=0,
        )


def test_invalid_flops_rejected():
    with pytest.raises(ConfigError):
        make_gpu(peak_flops=0)


def test_invalid_capacity_rejected():
    with pytest.raises(ConfigError):
        make_gpu(memory_capacity=0)
