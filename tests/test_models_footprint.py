import pytest

from repro.models import ModelFootprint, get_model
from repro.units import GB


@pytest.fixture
def opt30b_fp() -> ModelFootprint:
    """The paper's motivating configuration (§1, §3.1)."""
    return ModelFootprint(get_model("opt-30b"), prompt_len=64, gen_len=128,
                          block_size=640)


def test_weight_bytes_match_paper_scale(opt30b_fp):
    # Paper: ~55 GB of fp16 weights for OPT-30B.
    assert 50 * GB < opt30b_fp.total_weight_bytes < 65 * GB


def test_peak_kv_matches_paper_scale(opt30b_fp):
    # Paper: KV cache reaches ~157 GB at s=64, n=128, bls=640.
    assert 140 * GB < opt30b_fp.peak_kv_bytes < 180 * GB


def test_kv_grows_linearly_with_tokens(opt30b_fp):
    a = opt30b_fp.kv_bytes_per_layer_at(0)
    b = opt30b_fp.kv_bytes_per_layer_at(1)
    step = opt30b_fp.kv_bytes_per_token_per_layer
    assert b - a == pytest.approx(step)


def test_eq17_prefill_kv(opt30b_fp):
    # Eq. 17: 2*(s+1)*h1*bls elements.
    cfg = get_model("opt-30b")
    elements = 2 * (64 + 1) * cfg.hidden_size * 640
    assert opt30b_fp.prefill_kv_bytes_per_layer == pytest.approx(elements * 2)


def test_eq18_average_old_kv(opt30b_fp):
    cfg = get_model("opt-30b")
    elements = 2 * (64 + 128 / 2) * cfg.hidden_size * 640
    assert opt30b_fp.avg_old_kv_bytes_per_layer == pytest.approx(elements * 2)


def test_kv_index_bounds(opt30b_fp):
    with pytest.raises(ValueError):
        opt30b_fp.kv_bytes_per_layer_at(-1)
    with pytest.raises(ValueError):
        opt30b_fp.kv_bytes_per_layer_at(128)


def test_invalid_shape_rejected():
    with pytest.raises(ValueError):
        ModelFootprint(get_model("opt-30b"), prompt_len=0, gen_len=1, block_size=1)


def test_activation_is_tiny_relative_to_kv(opt30b_fp):
    # Paper Table 1: activation flow is ~99.5% smaller than the KV cache.
    assert opt30b_fp.activation_bytes_per_layer < 0.01 * opt30b_fp.avg_old_kv_bytes_per_layer * 10
