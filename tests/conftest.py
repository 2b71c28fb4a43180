"""Shared fixtures."""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np
import pytest

from repro.core.plan_cache import CURVE_CACHE, LP_CACHE, PLAN_CACHE
from repro.hardware import single_a100, small_test_platform
from repro.models import get_model
from repro.parallel import ContentionModel, CpuTopology
from repro.perfmodel import CpuExecutionContext, HardwareParams, Workload


@pytest.fixture(autouse=True)
def _cold_plan_cache():
    """Start every test with empty process-wide plan, curve and LP caches,
    so cold-start expectations (a first lookup misses) hold in any order."""
    PLAN_CACHE.clear()
    CURVE_CACHE.clear()
    LP_CACHE.clear()


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(1234)


@pytest.fixture
def a100():
    return single_a100()


@pytest.fixture
def tiny_platform():
    return small_test_platform()


@pytest.fixture
def hw(a100) -> HardwareParams:
    return HardwareParams.from_platform(a100)


@pytest.fixture
def topo(a100) -> CpuTopology:
    return CpuTopology.from_device(a100.cpu)


@pytest.fixture
def contention(a100, topo) -> ContentionModel:
    return ContentionModel(topo, a100.cache)


@pytest.fixture
def default_ctx(topo, contention) -> CpuExecutionContext:
    return CpuExecutionContext.pytorch_default(topo, contention)


@pytest.fixture
def opt30b_workload() -> Workload:
    """The paper's motivating workload: OPT-30B, s=64, n=128, bls=640."""
    return Workload(get_model("opt-30b"), 64, 128, 64, 10)


@pytest.fixture
def short_workload() -> Workload:
    """Same model, gen_len=8 (the parallelism-control experiments)."""
    return Workload(get_model("opt-30b"), 64, 8, 64, 10)


@pytest.fixture(scope="session")
def quick_bench_timing(tmp_path_factory) -> SimpleNamespace:
    """One quick ``bench-timing`` run shared by every test that checks it:
    ``path`` of the written document, its ``payload``, and the
    ``registry`` that recorded every raw sample."""
    from repro.bench.timing import write_bench_timing
    from repro.obs.registry import MetricsRegistry

    PLAN_CACHE.clear()
    CURVE_CACHE.clear()
    LP_CACHE.clear()
    path = tmp_path_factory.mktemp("bench-timing") / "BENCH_timing.json"
    registry = MetricsRegistry(namespace="bench-timing")
    payload = write_bench_timing(path=str(path), quick=True, registry=registry)
    return SimpleNamespace(path=path, payload=payload, registry=registry)
