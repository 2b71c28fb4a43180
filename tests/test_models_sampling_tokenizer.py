import numpy as np
import pytest

from repro.models.sampling import greedy_sample, temperature_sample
from repro.models.tokenizer import ByteTokenizer


def test_greedy_picks_argmax():
    logits = np.array([[0.1, 5.0, 0.2], [9.0, 0.0, 1.0]])
    assert greedy_sample(logits).tolist() == [1, 0]


def test_greedy_rejects_1d():
    with pytest.raises(ValueError):
        greedy_sample(np.zeros(5))


def test_temperature_sampling_respects_distribution(rng):
    # A spiked distribution should almost always return the spike.
    logits = np.zeros((200, 4))
    logits[:, 2] = 10.0
    samples = temperature_sample(logits, 0.5, rng)
    assert (samples == 2).mean() > 0.98


def test_temperature_zero_rejected(rng):
    with pytest.raises(ValueError):
        temperature_sample(np.zeros((1, 3)), 0.0, rng)


def test_tokenizer_roundtrip():
    tok = ByteTokenizer()
    text = "hello offloading!"
    assert tok.decode(tok.encode(text)) == text


def test_tokenizer_bos():
    tok = ByteTokenizer()
    ids = tok.encode("a", add_bos=True)
    assert ids[0] == ByteTokenizer.BOS
    assert tok.encode("a", add_bos=False)[0] == ord("a")


def test_tokenizer_batch_padding():
    tok = ByteTokenizer()
    batch = tok.encode_batch(["ab", "a"], length=5)
    assert batch.shape == (2, 5)
    assert batch[0, 0] == ByteTokenizer.PAD
    # Left padded: payload at the end.
    assert batch[0, -1] == ord("b")


def test_tokenizer_truncation():
    tok = ByteTokenizer()
    batch = tok.encode_batch(["abcdef"], length=3)
    assert batch.shape == (1, 3)


def test_tokenizer_invalid_length():
    with pytest.raises(ValueError):
        ByteTokenizer().encode_batch(["x"], length=0)


def test_tokenizer_unicode():
    tok = ByteTokenizer()
    text = "héllo ✓"
    assert tok.decode(tok.encode(text)) == text
