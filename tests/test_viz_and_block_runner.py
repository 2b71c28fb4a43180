import numpy as np
import pytest

from repro.bench.viz import sparkline, sweep_summary
from repro.core.block_runner import BlockRunner
from repro.core.functional import FunctionalEngine
from repro.errors import ConfigError
from repro.hardware import small_test_platform
from repro.models import Transformer, TransformerWeights, get_model
from repro.offload import OffloadPolicy


# --- viz ---------------------------------------------------------------


def test_sparkline_monotone_series():
    line = sparkline([1, 2, 3, 4])
    assert len(line) == 4
    assert line[0] == "▁" and line[-1] == "█"


def test_sparkline_constant_and_empty():
    assert sparkline([]) == ""
    assert sparkline([5, 5, 5]) == "▄▄▄"


def test_sweep_summary_best_point():
    points = [{"threads": t, "tput": v} for t, v in [(1, 10), (2, 30), (4, 20)]]
    summary = sweep_summary(points, "threads", "tput", label="intra")
    assert "best tput=30 at threads=2" in summary
    assert summary.startswith("intra: ")


# --- block runner --------------------------------------------------------


@pytest.fixture(scope="module")
def weights():
    return TransformerWeights.random(get_model("tiny-2l"), np.random.default_rng(21))


def block_policy(bsz=2, k=2, **kw):
    base = dict(wg=0.0, hg=1.0, attention_on_cpu=True,
                gpu_batch_size=bsz, num_gpu_batches=k)
    base.update(kw)
    return OffloadPolicy(**base)


def test_block_matches_reference(weights, rng):
    """Zig-zag block execution is numerically identical to the plain
    transformer for every sequence in the block."""
    ids = rng.integers(0, 256, size=(4, 5))
    expected = Transformer(weights).generate(ids.copy(), 4)
    runner = BlockRunner(weights=weights, policy=block_policy(bsz=2, k=2))
    result = runner.generate_block(ids.copy(), 4)
    assert np.array_equal(result.token_ids, expected)


def test_block_amortizes_weight_traffic(weights, rng):
    """One block sweep fetches each layer once for all batches; running
    the batches separately fetches per batch — ~k x more traffic."""
    ids = rng.integers(0, 256, size=(4, 5))
    block = BlockRunner(weights=weights, policy=block_policy(bsz=2, k=2))
    block_traffic = block.generate_block(ids.copy(), 3).traffic_by_category["weights"]

    sequential = 0.0
    for i in range(2):
        engine = FunctionalEngine(
            weights=weights,
            policy=block_policy(bsz=2, k=1),
            platform=small_test_platform(),
        )
        res = engine.generate(ids[2 * i : 2 * i + 2].copy(), 3)
        sequential += res.traffic_by_category["weights"]
    assert block_traffic == pytest.approx(sequential / 2, rel=0.01)


def test_block_shape_validation(weights, rng):
    runner = BlockRunner(weights=weights, policy=block_policy(bsz=2, k=2))
    with pytest.raises(ConfigError, match="expects 4 sequences"):
        runner.generate_block(rng.integers(0, 256, size=(3, 5)), 2)
    with pytest.raises(ConfigError):
        runner.generate_block(rng.integers(0, 256, size=(4, 5)), 0)


def test_block_single_batch_equals_functional(weights, rng):
    ids = rng.integers(0, 256, size=(2, 6))
    runner = BlockRunner(weights=weights, policy=block_policy(bsz=2, k=1))
    engine = FunctionalEngine(
        weights=weights, policy=block_policy(bsz=2, k=1),
        platform=small_test_platform(),
    )
    a = runner.generate_block(ids.copy(), 4).token_ids
    b = engine.generate(ids.copy(), 4).token_ids
    assert np.array_equal(a, b)
