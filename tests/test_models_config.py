import pytest

from repro.errors import ConfigError
from repro.models import get_model, list_models, register_model
from repro.models.config import ModelConfig


def test_weights_per_layer_formula():
    # Paper §3.2: num_weights = 4*h1^2 + 2*h1*h2.
    cfg = get_model("opt-30b")
    h1, h2 = cfg.hidden_size, cfg.intermediate_size
    assert cfg.weights_per_layer == 4 * h1 * h1 + 2 * h1 * h2


def test_opt_30b_parameter_count_near_30b():
    cfg = get_model("opt-30b")
    assert 28e9 < cfg.total_weights < 31e9


def test_opt_66b_parameter_count_near_66b():
    cfg = get_model("opt-66b")
    assert 60e9 < cfg.total_weights < 68e9


def test_llama_65b_parameter_count():
    cfg = get_model("llama-65b")
    assert 60e9 < cfg.total_weights < 68e9


def test_head_dim_divides():
    for name in list_models():
        cfg = get_model(name)
        assert cfg.head_dim * cfg.num_heads == cfg.hidden_size


def test_invalid_heads_rejected():
    with pytest.raises(ConfigError, match="num_heads"):
        ModelConfig(name="bad", num_layers=2, hidden_size=100,
                    intermediate_size=400, num_heads=3)


def test_invalid_layers_rejected():
    with pytest.raises(ConfigError):
        ModelConfig(name="bad", num_layers=0, hidden_size=64,
                    intermediate_size=256, num_heads=4)


def test_registry_contains_paper_models():
    names = list_models()
    for required in ("opt-30b", "opt-66b", "llama-30b", "llama-65b",
                     "opt-13b", "llama-13b", "tiny-2l"):
        assert required in names


def test_registry_unknown_model():
    with pytest.raises(ConfigError, match="unknown model"):
        get_model("gpt-5")


def test_registry_duplicate_rejected():
    cfg = get_model("tiny-2l")
    with pytest.raises(ConfigError, match="already registered"):
        register_model(cfg)
