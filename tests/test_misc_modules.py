"""Coverage for small supporting modules: errors, notation,
tables, paper_data, tensor helpers."""

import numpy as np
import pytest

from repro.bench import paper_data
from repro.bench.tables import format_table
from repro.errors import (
    ConfigError,
    MemoryCapacityError,
    PolicyError,
    QuantizationError,
    ReproError,
    ScheduleError,
)
from repro.hardware import single_a100
from repro.models import get_model
from repro.offload.tensor import ManagedTensor
from repro.perfmodel import HardwareParams, Workload
from repro.quant import QuantConfig, compress


def test_error_hierarchy():
    for exc in (ConfigError, PolicyError, QuantizationError, ScheduleError,
                MemoryCapacityError):
        assert issubclass(exc, ReproError)
    err = MemoryCapacityError("gpu0", 100, 40)
    assert err.pool == "gpu0" and err.requested == 100 and err.available == 40


def test_workload_validation():
    with pytest.raises(ConfigError):
        Workload(get_model("opt-30b"), 0, 8, 64, 1)
    with pytest.raises(ConfigError):
        Workload(get_model("opt-30b"), 64, 8, 0, 1)


def test_workload_describe_and_with_batches():
    w = Workload(get_model("opt-30b"), 64, 8, 64, 10)
    assert "bls=640" in w.describe()
    w2 = w.with_batches(32, 4)
    assert w2.block_size == 128
    assert w2.model is w.model


def test_hardware_params_from_platform():
    hw = HardwareParams.from_platform(single_a100())
    assert hw.gpu_flops == pytest.approx(312e12)
    assert hw.pcie_bdw == pytest.approx(32e9)
    assert hw.cpu_mem_capacity > 200e9
    with pytest.raises(ConfigError):
        HardwareParams(
            gpu_flops=0, gpu_mem_bdw=1, gpu_freq=1,
            cpu_flops=1, cpu_mem_bdw=1, cpu_freq=1, pcie_bdw=1,
        )


def test_format_table_alignment():
    rows = [{"a": 1, "b": "xy"}, {"a": 123456.0, "b": "z"}]
    out = format_table(rows, title="T")
    lines = out.splitlines()
    assert lines[0] == "T"
    assert "a" in lines[1] and "b" in lines[1]
    assert len(lines) == 5


def test_format_table_empty():
    assert "(no rows)" in format_table([], title="E")


def test_paper_data_complete():
    # Every model has all five generation lengths and all three systems.
    for model, rows in paper_data.TAB3.items():
        assert set(rows) == {8, 16, 32, 64, 128}
        for cfg in rows.values():
            assert set(cfg) == {"flexgen", "zero-inference", "lm-offload"}
    # The block-size splitter returns exact factorizations.
    for model, rows in paper_data.TAB3.items():
        for n, cfg in rows.items():
            bls = cfg["flexgen"][0]
            b, k = paper_data.bls_split(bls)
            assert b * k == bls


def test_managed_tensor_constructors(rng):
    arr = rng.standard_normal((8, 8)).astype(np.float32)
    t = ManagedTensor.from_array("w", arr, "cpu")
    assert t.nbytes == arr.nbytes and t.payload is arr
    qt = compress(arr, QuantConfig(bits=4, group_size=8))
    q = ManagedTensor.from_quantized("wq", qt, "cpu")
    assert q.payload is qt and q.nbytes == qt.nbytes
    a = ManagedTensor("big", 1e9 + 0.5, "cpu")
    assert a.payload is None and a.nbytes == 10**9 + 1
    with pytest.raises(ValueError):
        ManagedTensor("neg", -1, "cpu")
