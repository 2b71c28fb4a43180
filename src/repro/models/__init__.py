"""Transformer model descriptions and a real NumPy execution layer.

Two complementary layers live here:

* **Analytic**: :class:`ModelConfig` (layer count, hidden sizes...) plus
  :mod:`repro.models.footprint`, which computes the byte sizes that drive
  the paper's performance model (weights per layer, KV cache growth).
  Paper-scale models (OPT-30B/66B, LLaMA-30B/65B...) live in the registry.
* **Executable**: :mod:`repro.models.layers` / :mod:`~repro.models.transformer`
  implement real attention / MLP / KV-cache math in vectorized NumPy so the
  offloading and quantization machinery is exercised on genuine numbers at
  tiny scale.
"""

from repro.models.config import ModelConfig
from repro.models.registry import get_model, list_models, register_model
from repro.models.footprint import ModelFootprint
from repro.models.transformer import Transformer, TransformerWeights, KVCache
from repro.models.sampling import greedy_sample, temperature_sample
from repro.models.tokenizer import ByteTokenizer

__all__ = [
    "ModelConfig",
    "get_model",
    "list_models",
    "register_model",
    "ModelFootprint",
    "Transformer",
    "TransformerWeights",
    "KVCache",
    "greedy_sample",
    "temperature_sample",
    "ByteTokenizer",
]
