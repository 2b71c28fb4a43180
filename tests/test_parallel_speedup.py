import pytest

from repro.errors import ConfigError
from repro.parallel import ContentionModel, CpuTopology
from repro.parallel.speedup import CalibrationConstants, ParallelismSetting


@pytest.fixture
def model(topo, a100):
    return ContentionModel(topo, a100.cache)


def test_topology_from_paper_platform(topo):
    assert topo.physical_cores == 56
    assert topo.hardware_threads == 112
    assert topo.sockets == 2


def test_crosses_socket(topo):
    assert not topo.crosses_socket(56)
    assert topo.crosses_socket(57)


def test_oversubscribed(topo):
    assert not topo.oversubscribed(112)
    assert topo.oversubscribed(113)


def test_topology_validation():
    with pytest.raises(ConfigError):
        CpuTopology(sockets=0, cores_per_socket=4)


def test_setting_validation():
    with pytest.raises(ConfigError):
        ParallelismSetting(intra_op=0, inter_op=1)


def test_intra_speedup_monotone_then_saturating(model):
    """Figure 5 (left): speedup rises with threads then flattens — the
    gain from 8 to 56 threads is small compared to 1 to 8."""
    s = {
        t: model.effective_op_speedup(ParallelismSetting(t, 1), 1)
        for t in (1, 2, 4, 8, 16, 56)
    }
    assert s[1] == pytest.approx(1.0)
    assert s[2] > 1.8
    assert s[8] > s[4] > s[2]
    low_gain = s[8] / s[1]
    high_gain = s[56] / s[8]
    assert high_gain < low_gain / 2


def test_numa_penalty_past_one_socket(model):
    # Spanning sockets makes remote accesses: bandwidth scale drops.
    assert model.bandwidth_scale(112) < model.bandwidth_scale(56)


def test_compute_scale_smt_partial(model):
    full_cores = model.compute_scale(56)
    with_smt = model.compute_scale(112)
    assert full_cores < with_smt < 2 * full_cores


def test_bw_share_fair_division(model):
    # Many co-runners each pulling saturated gangs must share the cap.
    assert model.bw_share_factor(granted=8, co_runners=1) == 1.0
    shared = model.bw_share_factor(granted=8, co_runners=8)
    assert 0 < shared < 1


def test_effective_speedup_degrades_with_oversubscription(model):
    """The PyTorch default (56 intra x many co-runners) pays thrash."""
    modest = model.effective_op_speedup(ParallelismSetting(8, 12), co_runners=6)
    extreme = model.effective_op_speedup(ParallelismSetting(56, 112), co_runners=24)
    assert modest > extreme


def test_effective_speedup_positive(model):
    for intra in (1, 8, 56):
        for co in (1, 12, 24):
            assert model.effective_op_speedup(
                ParallelismSetting(intra, max(co, 1)), co
            ) > 0


def test_granted_threads_fair_share(model):
    assert model.granted_threads(intra=56, co_runners=24) == 112 // 24
    assert model.granted_threads(intra=2, co_runners=4) == 2


def test_cache_slowdown_increases_with_co_runners(model):
    one = model.cache_slowdown(4e6, intra=8, co_runners=1)
    many = model.cache_slowdown(4e6, intra=8, co_runners=24)
    assert many > one >= 1.0


def test_invalid_inputs(model):
    with pytest.raises(ValueError):
        model.compute_scale(0)
    with pytest.raises(ValueError):
        model.bandwidth_scale(0)
    with pytest.raises(ValueError):
        model.granted_threads(4, 0)
    with pytest.raises(ValueError):
        CalibrationConstants(compute_fraction=1.5)


def test_constants_are_ablatable(topo, a100):
    aggressive = ContentionModel(
        topo, a100.cache, CalibrationConstants(llc_penalty=5.0)
    )
    mild = ContentionModel(topo, a100.cache, CalibrationConstants(llc_penalty=0.1))
    s_aggr = aggressive.effective_op_speedup(ParallelismSetting(8, 12), 12)
    s_mild = mild.effective_op_speedup(ParallelismSetting(8, 12), 12)
    assert s_mild > s_aggr
