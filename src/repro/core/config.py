"""Engine configuration knobs."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.perfmodel.constants import EngineCalibration


@dataclass(frozen=True)
class EngineConfig:
    """Feature switches of :class:`~repro.core.engine.LMOffloadEngine`.

    Disabling flags produces the paper's ablations: ``quant_aware=False``
    degrades the planner to FlexGen's quantization-blind search;
    ``parallelism_control=False`` falls back to default PyTorch threading
    (the §5.3 configuration).
    """

    quant_aware: bool = True
    parallelism_control: bool = True
    calibration: EngineCalibration = field(
        default_factory=EngineCalibration.paper_defaults
    )
