import numpy as np
import pytest

from repro.errors import QuantizationError
from repro.quant import QuantConfig, compress, decompress
from tests.quant_reference import roundtrip, roundtrip_error_bound


@pytest.mark.parametrize("bits", [2, 4, 8])
@pytest.mark.parametrize("shape", [(64,), (3, 130), (5, 7, 33), (1, 1)])
def test_roundtrip_shape_preserved(rng, bits, shape):
    x = rng.standard_normal(shape).astype(np.float32)
    cfg = QuantConfig(bits=bits, group_size=64)
    y = roundtrip(x, cfg)
    assert y.shape == x.shape
    assert y.dtype == np.float32


@pytest.mark.parametrize("bits", [2, 4, 8])
def test_roundtrip_error_within_analytic_bound(rng, bits):
    x = rng.standard_normal((16, 256)).astype(np.float32)
    cfg = QuantConfig(bits=bits, group_size=64)
    y = roundtrip(x, cfg)
    bound = roundtrip_error_bound(cfg, x)
    # Allow a rounding ULP of slack over the half-step bound.
    assert np.abs(x - y).max() <= bound * 1.01 + 1e-6


def test_more_bits_less_error(rng):
    x = rng.standard_normal((8, 512)).astype(np.float32)
    errors = []
    for bits in (2, 4, 8):
        y = roundtrip(x, QuantConfig(bits=bits, group_size=64))
        errors.append(np.abs(x - y).max())
    assert errors[0] > errors[1] > errors[2]


def test_smaller_groups_less_error(rng):
    # Heavy-tailed data: smaller groups isolate outliers.
    x = (rng.standard_normal((4, 1024)) ** 3).astype(np.float32)
    big = roundtrip(x, QuantConfig(bits=4, group_size=512))
    small = roundtrip(x, QuantConfig(bits=4, group_size=16))
    assert np.abs(x - small).mean() < np.abs(x - big).mean()


def test_constant_tensor_is_exact(rng):
    x = np.full((4, 64), 3.25, dtype=np.float32)
    y = roundtrip(x, QuantConfig(bits=4, group_size=64))
    assert np.array_equal(x, y)


def test_extremes_preserved_exactly(rng):
    # Group min and max map to codes 0 and 2^b-1 and invert exactly.
    x = rng.standard_normal((1, 64)).astype(np.float32)
    y = roundtrip(x, QuantConfig(bits=4, group_size=64))
    assert y.min() == pytest.approx(x.min(), abs=1e-6)
    assert y.max() == pytest.approx(x.max(), abs=1e-6)


def test_compressed_size_reduction(rng):
    x = rng.standard_normal((256, 256)).astype(np.float32)
    qt = compress(x, QuantConfig(bits=4, group_size=64))
    # 4-bit payload + per-group fp32 metadata, vs fp32 source.
    assert qt.nbytes < x.nbytes / 5


def test_group_dim_selection(rng):
    x = rng.standard_normal((8, 128)).astype(np.float32)
    y0 = roundtrip(x, QuantConfig(bits=8, group_size=8, group_dim=0))
    y1 = roundtrip(x, QuantConfig(bits=8, group_size=8, group_dim=1))
    assert y0.shape == y1.shape == x.shape
    # Different groupings quantize differently but both stay close.
    assert np.abs(x - y0).max() < 0.1
    assert np.abs(x - y1).max() < 0.1


def test_invalid_group_dim(rng):
    x = rng.standard_normal((4, 4)).astype(np.float32)
    with pytest.raises(QuantizationError):
        compress(x, QuantConfig(bits=4, group_size=4, group_dim=5))


def test_empty_tensor_rejected():
    with pytest.raises(QuantizationError):
        compress(np.empty((0,)), QuantConfig())


def test_padding_does_not_corrupt_last_group(rng):
    # Length 65 with group 64 pads 63 elements by edge replication.
    x = rng.standard_normal((65,)).astype(np.float32)
    y = roundtrip(x, QuantConfig(bits=8, group_size=64))
    assert np.abs(x - y).max() < 0.05


def test_payload_is_packed_uint8(rng):
    x = rng.standard_normal((64,)).astype(np.float32)
    qt = compress(x, QuantConfig(bits=4, group_size=64))
    assert qt.payload.dtype == np.uint8
    assert qt.payload.size == 32  # two codes per byte


def test_quant_config_validation():
    with pytest.raises(QuantizationError):
        QuantConfig(bits=3)
    with pytest.raises(QuantizationError):
        QuantConfig(group_size=1)


def test_quant_config_sizes():
    cfg = QuantConfig(bits=4, group_size=64)
    assert cfg.levels == 16
    assert cfg.codes_per_byte == 2
    assert cfg.payload_bytes(128) == 64
    assert cfg.metadata_bytes(128) == 2 * 2 * 2  # 2 groups x (min, scale) fp16


def test_non_float_input_accepted(rng):
    x = rng.integers(-10, 10, size=(4, 64))
    y = roundtrip(x, QuantConfig(bits=8, group_size=64))
    assert np.abs(x - y).max() < 0.1
