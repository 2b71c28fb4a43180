import numpy as np
import pytest

from repro.models import TransformerWeights, get_model
from repro.models.quality import bits_sweep, compare_logits, evaluate_policy_quality
from repro.offload import OffloadPolicy
from repro.quant import QuantConfig


@pytest.fixture(scope="module")
def weights():
    return TransformerWeights.random(get_model("tiny-2l"), np.random.default_rng(11))


@pytest.fixture(scope="module")
def prompt():
    return np.random.default_rng(4).integers(0, 256, size=(4, 8))


def no_quant_policy(batch: int) -> OffloadPolicy:
    return OffloadPolicy(
        wg=0.5, hg=1.0, attention_on_cpu=True, gpu_batch_size=batch, num_gpu_batches=1
    )


def test_identical_logits_perfect_report(weights, prompt):
    report = evaluate_policy_quality(weights, no_quant_policy(4), prompt)
    assert report.logit_mae == pytest.approx(0.0, abs=1e-6)
    assert report.top1_agreement == 1.0
    assert report.topk_overlap == 1.0
    assert report.kl_divergence == pytest.approx(0.0, abs=1e-9)


def test_quantized_weights_degrade_gracefully(weights, prompt):
    policy = no_quant_policy(4).with_(
        wg=0.0, weight_quant=QuantConfig(bits=8, group_size=32)
    )
    report = evaluate_policy_quality(weights, policy, prompt)
    assert report.logit_mae > 0
    assert report.topk_overlap > 0.3  # tiny random model: loose bound


def test_more_bits_better_quality(weights, prompt):
    sweep = bits_sweep(weights, prompt, bits_options=(8, 2), target="weights")
    assert sweep[8].logit_mae < sweep[2].logit_mae
    assert sweep[8].kl_divergence < sweep[2].kl_divergence


def test_kv_sweep_runs(weights, prompt):
    sweep = bits_sweep(weights, prompt, bits_options=(8,), target="kv")
    assert sweep[8].logit_mae >= 0
    with pytest.raises(ValueError):
        bits_sweep(weights, prompt, target="activations")


def test_compare_logits_shape_mismatch():
    with pytest.raises(ValueError):
        compare_logits(np.zeros((2, 4)), np.zeros((2, 5)))


def test_kl_nonnegative(weights, prompt, rng):
    a = rng.standard_normal((4, 16)).astype(np.float32)
    b = rng.standard_normal((4, 16)).astype(np.float32)
    report = compare_logits(a, b)
    assert report.kl_divergence >= 0
