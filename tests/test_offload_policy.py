import pytest

from repro.errors import ConfigError
from repro.offload import OffloadPolicy
from repro.quant import QuantConfig


def test_defaults_are_valid():
    p = OffloadPolicy()
    assert p.wc == pytest.approx(0.0)
    assert p.gpu_batch_size * p.num_gpu_batches == 64


def test_wc_complements_wg():
    assert OffloadPolicy(wg=0.3).wc == pytest.approx(0.7)


def test_fraction_bounds():
    with pytest.raises(ConfigError):
        OffloadPolicy(wg=1.5)
    with pytest.raises(ConfigError):
        OffloadPolicy(hg=-0.1)


def test_cpu_attention_forbids_gpu_cache():
    # With CPU attention, the KV cache lives in host memory by definition.
    with pytest.raises(ConfigError, match="cg must be 0"):
        OffloadPolicy(attention_on_cpu=True, cg=0.5)


def test_gpu_attention_allows_gpu_cache():
    p = OffloadPolicy(attention_on_cpu=False, cg=0.5)
    assert p.cg == 0.5


def test_resident_quant_requires_weight_quant():
    with pytest.raises(ConfigError):
        OffloadPolicy(quantize_resident_weights=True)
    p = OffloadPolicy(
        weight_quant=QuantConfig(bits=4), quantize_resident_weights=True
    )
    assert p.quantizes_weights


def test_with_updates_functionally():
    p = OffloadPolicy(wg=0.5)
    q = p.with_(wg=0.25)
    assert p.wg == 0.5 and q.wg == 0.25


def test_describe_mentions_quant():
    p = OffloadPolicy(
        attention_on_cpu=False,
        weight_quant=QuantConfig(bits=4),
        kv_quant=QuantConfig(bits=8),
    )
    desc = p.describe()
    assert "W4" in desc and "KV8" in desc and "gpu" in desc


def test_invalid_batch_geometry():
    with pytest.raises(ConfigError):
        OffloadPolicy(gpu_batch_size=0)
