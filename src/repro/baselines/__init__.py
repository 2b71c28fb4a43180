"""Baseline systems re-implemented on the same substrate (paper §5.1).

* :class:`FlexGenEngine` — zig-zag block schedule with LP placement search
  but **no quantization-awareness** (its search never considers the codec
  cost/benefit) and **default PyTorch threading**.
* :class:`ZeroInferenceEngine` — ZeRO-Inference's all-or-nothing
  offloading: all weights GPU-resident in 4-bit, KV cache fully offloaded
  and streamed, small batches, no zig-zag blocking.
* :class:`SpecOffloadEngine` — LM-Offload planning plus SpecOffload-style
  speculative decoding: a draft tree hidden in the PCIe transfer window,
  one batched verify pass, ``1 + E[accepted]`` tokens per step (priced
  through the ``step_pricer`` oracle hook).

:data:`ENGINES` names every engine, LM-Offload included; the CLI, the
bench drivers and the fleet's replicas all construct engines through
:func:`make_engine`, so adding an engine is one entry there.
"""

from typing import Any

from repro.baselines.flexgen import FlexGenEngine
from repro.baselines.spec_offload import SpecOffloadEngine
from repro.baselines.zero_inference import ZeroInferenceEngine
from repro.core.engine import LMOffloadEngine
from repro.errors import ConfigError
from repro.hardware.platform import PLATFORMS

#: Every engine class by its ``name``; ``run --engine all`` runs them in
#: this order.
ENGINES: dict[str, type] = {
    cls.name: cls
    for cls in (
        LMOffloadEngine, FlexGenEngine, ZeroInferenceEngine, SpecOffloadEngine
    )
}


def check_engine_names(engine: str, platform: str) -> None:
    """Raise :class:`ConfigError` listing the registered names when
    ``engine`` is not in :data:`ENGINES` or ``platform`` not in
    :data:`~repro.hardware.PLATFORMS`."""
    for kind, name, table in (
        ("engine", engine, ENGINES), ("platform", platform, PLATFORMS)
    ):
        if name not in table:
            raise ConfigError(
                f"unknown {kind} {name!r} (choose from {', '.join(table)})"
            )


def make_engine(name: str, platform: str = "single-a100") -> Any:
    """A fresh engine ``name`` on a fresh ``platform`` preset (default
    construction, so every fresh engine plans and prices alike)."""
    check_engine_names(name, platform)
    return ENGINES[name](PLATFORMS[platform]())


__all__ = [
    "ENGINES",
    "FlexGenEngine",
    "SpecOffloadEngine",
    "ZeroInferenceEngine",
    "check_engine_names",
    "make_engine",
]
