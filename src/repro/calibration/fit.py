"""Least-squares fitting of :class:`EngineCalibration` to observations.

The fit works in log-space on a chosen subset of rate parameters (so the
optimiser can scale rates by orders of magnitude while keeping them
positive) and minimises relative throughput error across observations:

    residual_i = log(predicted_tput_i / observed_tput_i)

This mirrors how the paper's authors must have set their model constants:
pick the rates that make the model's predictions match a few measured
configurations, then trust the model elsewhere.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.errors import ConfigError
from repro.offload.policy import OffloadPolicy
from repro.perfmodel.constants import AttentionRates, CodecRates, EngineCalibration
from repro.perfmodel.latency import CostModel, CpuExecutionContext
from repro.perfmodel.notation import HardwareParams, Workload

#: Parameters that may be fitted, addressed as dotted paths.
FITTABLE = (
    "pcie_efficiency",
    "attention.cpu_bw_per_thread",
    "attention.cpu_bw_ceiling",
    "codec.gpu_weight_copy_bw",
    "codec.gpu_kv_copy_bw",
    "codec.cpu_kv_copy_bw",
)


@dataclass(frozen=True)
class CalibrationObservation:
    """One measured datapoint: a configuration and its tokens/s."""

    workload: Workload
    policy: OffloadPolicy
    observed_tput: float

    def __post_init__(self) -> None:
        if self.observed_tput <= 0:
            raise ConfigError("observed_tput must be positive")


@dataclass(frozen=True)
class FitResult:
    calibration: EngineCalibration
    multipliers: dict[str, float]
    residual_rms: float
    predicted: tuple[float, ...]


def _get(cal: EngineCalibration, path: str) -> float:
    obj = cal
    for part in path.split("."):
        obj = getattr(obj, part)
    return float(obj)


def _apply(cal: EngineCalibration, updates: dict[str, float]) -> EngineCalibration:
    """Return a calibration with dotted-path fields multiplied."""
    codec_changes: dict[str, float] = {}
    attn_changes: dict[str, float] = {}
    top_changes: dict[str, float] = {}
    for path, mult in updates.items():
        value = _get(cal, path) * mult
        if path.startswith("codec."):
            codec_changes[path.split(".", 1)[1]] = value
        elif path.startswith("attention."):
            attn_changes[path.split(".", 1)[1]] = value
        else:
            top_changes[path] = value
    codec = dataclasses.replace(cal.codec, **codec_changes) if codec_changes else cal.codec
    attn = (
        dataclasses.replace(cal.attention, **attn_changes)
        if attn_changes
        else cal.attention
    )
    return dataclasses.replace(cal, codec=codec, attention=attn, **top_changes)


def predict_throughput(
    observation: CalibrationObservation,
    hw: HardwareParams,
    ctx: CpuExecutionContext,
    calibration: EngineCalibration,
) -> float:
    model = CostModel(
        observation.workload, observation.policy, hw, ctx, calibration
    )
    return model.breakdown().throughput(observation.workload)


def fit_calibration(
    observations: Sequence[CalibrationObservation],
    hw: HardwareParams,
    ctx: CpuExecutionContext,
    base: EngineCalibration | None = None,
    parameters: Sequence[str] = ("pcie_efficiency", "attention.cpu_bw_per_thread"),
    bounds_log10: float = 1.0,
) -> FitResult:
    """Fit the selected parameters to the observations.

    Parameters
    ----------
    observations:
        Measured (workload, policy, tokens/s) points; at least as many as
        fitted parameters is recommended.
    parameters:
        Dotted paths from :data:`FITTABLE` to adjust.
    bounds_log10:
        Each multiplier is constrained to ``[10^-b, 10^b]``.
    """
    # Imported here so that only calibration loads scipy; planning does not.
    from scipy.optimize import least_squares

    if not observations:
        raise ConfigError("need at least one observation")
    for p in parameters:
        if p not in FITTABLE:
            raise ConfigError(f"unknown fittable parameter {p!r}; see FITTABLE")
    base = base or EngineCalibration.paper_defaults()
    # pcie_efficiency must stay <= 1; bound its multiplier accordingly.
    uppers = []
    for p in parameters:
        if p == "pcie_efficiency":
            uppers.append(min(bounds_log10, float(np.log10(1.0 / _get(base, p)))))
        else:
            uppers.append(bounds_log10)

    def residuals(log_mults: np.ndarray) -> np.ndarray:
        updates = {p: 10.0 ** m for p, m in zip(parameters, log_mults)}
        cal = _apply(base, updates)
        out = []
        for obs in observations:
            pred = predict_throughput(obs, hw, ctx, cal)
            out.append(np.log(pred / obs.observed_tput))
        return np.asarray(out)

    result = least_squares(
        residuals,
        x0=np.zeros(len(parameters)),
        bounds=(-bounds_log10 * np.ones(len(parameters)), np.asarray(uppers)),
        xtol=1e-10,
        ftol=1e-10,
    )
    multipliers = {p: float(10.0 ** m) for p, m in zip(parameters, result.x)}
    fitted = _apply(base, multipliers)
    preds = tuple(
        predict_throughput(obs, hw, ctx, fitted) for obs in observations
    )
    rms = float(np.sqrt(np.mean(result.fun**2)))
    return FitResult(
        calibration=fitted,
        multipliers=multipliers,
        residual_rms=rms,
        predicted=preds,
    )
