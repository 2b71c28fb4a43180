"""(De)quantization overhead equations (paper §3.2, Eqs. 12-24).

Structure follows the paper exactly:

* quantization = min/max scan + normalisation (Eq. 10) + post-processing
  copy (Eqs. 12-15, 20-23);
* de-quantization = normalisation (Eq. 11) + copy — the scan was paid at
  quantization time (Eqs. 16, 24);
* weight quantization happens once on the CPU at initialisation (Eq. 3)
  and de-quantization on the GPU per use (Eq. 4);
* KV-cache quantization happens per token (Eqs. 5-7), on the GPU when
  attention runs there, or on the CPU when a compressed host cache is
  consumed by offloaded attention.

The rates dividing each phase are **effective kernel rates** from
:class:`~repro.perfmodel.constants.CodecRates` — see that module for why
peak rates would contradict the paper's own measurements.

Conventions: returned times are per transformer layer for the whole block.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.perfmodel.constants import CodecRates
from repro.perfmodel.notation import Workload
from repro.units import dtype_bytes

#: FLOPs per element of min-max (de)normalisation (Eqs. 10-11).
NORM_FLOPS_PER_ELEMENT = 3


@dataclass(frozen=True)
class WeightQuantOverheads:
    """Per-layer weight (de)quantization costs (Eqs. 12-16)."""

    minmax_seconds: float        # Eq. 13
    norm_seconds: float          # Eq. 14
    postprocess_seconds: float   # Eq. 15
    de_norm_seconds: float       # Eq. 16 via Eq. 14 on the GPU
    de_postprocess_seconds: float  # Eq. 16 via Eq. 15 on the GPU

    @property
    def quantize_seconds(self) -> float:
        """Eq. 12 — paid once, folded into T_init (Eq. 3)."""
        return self.minmax_seconds + self.norm_seconds + self.postprocess_seconds

    @property
    def dequantize_seconds(self) -> float:
        """Eq. 16 — paid per use, folded into load_weight (Eq. 4)."""
        return self.de_norm_seconds + self.de_postprocess_seconds


def weight_quant_overheads(
    workload: Workload,
    wc: float,
    rates: CodecRates | None = None,
    src_dtype: str = "fp16",
) -> WeightQuantOverheads:
    """Eqs. 12-16 for one layer with ``wc`` of its weights offloaded."""
    if not 0.0 <= wc <= 1.0:
        raise ValueError("wc must be in [0, 1]")
    r = rates or CodecRates()
    elements = workload.model.weights_per_layer * wc
    nbytes = elements * dtype_bytes(src_dtype)
    return WeightQuantOverheads(
        minmax_seconds=elements / r.cpu_scan_eps,
        norm_seconds=elements * NORM_FLOPS_PER_ELEMENT / r.cpu_norm_flops,
        postprocess_seconds=nbytes / r.cpu_copy_bw,
        de_norm_seconds=elements * NORM_FLOPS_PER_ELEMENT / r.gpu_weight_norm_flops,
        de_postprocess_seconds=nbytes / r.gpu_weight_copy_bw,
    )


@dataclass(frozen=True)
class KVQuantOverheads:
    """Per-layer KV-cache (de)quantization costs (Eqs. 17-24).

    * ``prefill_quant_seconds`` — Eq. 20 (folds into T_pf, Eq. 5);
    * ``new_quant_seconds`` — per-token new entries (folds into
      store_cache, Eq. 7);
    * ``old_dequant_seconds`` — streamed/consumed old cache (folds into
      load_cache, Eq. 6, or the CPU compute task under attention
      offloading).
    """

    prefill_quant_seconds: float
    new_quant_seconds: float
    old_dequant_seconds: float


def _quant_seconds(
    elements: float, nbytes: float, scan_eps: float, norm_flops: float, copy_bw: float
) -> float:
    """Eqs. 21-23 pattern: scan + normalise + copy."""
    return (
        elements / scan_eps
        + elements * NORM_FLOPS_PER_ELEMENT / norm_flops
        + nbytes / copy_bw
    )


def _dequant_seconds(
    elements: float, nbytes: float, norm_flops: float, copy_bw: float
) -> float:
    """Eq. 24 pattern: normalise + copy (the scan was already paid)."""
    return elements * NORM_FLOPS_PER_ELEMENT / norm_flops + nbytes / copy_bw


def _kv_codec_rates(
    rates: CodecRates | None, device: str
) -> tuple[float, float, float]:
    """The KV codec's (scan, norm, copy) rates on ``device``."""
    r = rates or CodecRates()
    if device == "gpu":
        return r.gpu_kv_scan_eps, r.gpu_kv_norm_flops, r.gpu_kv_copy_bw
    if device == "cpu":
        return r.cpu_kv_scan_eps, r.cpu_kv_norm_flops, r.cpu_kv_copy_bw
    raise ValueError(f"device must be 'gpu' or 'cpu', got {device!r}")


def kv_quant_overheads(
    workload: Workload,
    rates: CodecRates | None = None,
    device: str = "gpu",
    kv_dtype: str = "fp16",
    token_idx: int | None = None,
) -> KVQuantOverheads:
    """Eqs. 20-24 for one layer of the whole block.

    ``device`` selects where the codec runs ("gpu" normally; "cpu" when
    offloaded attention consumes a compressed host cache).  ``token_idx``
    picks the exact old-cache size for decode token ``t`` (0-based); ``None``
    uses Eq. 18's ``s + n/2`` average.
    """
    scan, norm, copy = _kv_codec_rates(rates, device)

    fp = workload.footprint(kv_dtype=kv_dtype)
    width = dtype_bytes(kv_dtype)
    pf_bytes = fp.prefill_kv_bytes_per_layer
    new_bytes = fp.kv_bytes_per_token_per_layer
    if token_idx is None:
        old_bytes = fp.avg_old_kv_bytes_per_layer
    else:  # reach: tests/test_lp_coefficients.py::test_tab3_lp_coefficients_match_scalar_probes (a per-token index)
        old_bytes = fp.kv_bytes_per_layer_at(token_idx)

    return KVQuantOverheads(
        prefill_quant_seconds=_quant_seconds(
            pf_bytes / width, pf_bytes, scan, norm, copy
        ),
        new_quant_seconds=_quant_seconds(
            new_bytes / width, new_bytes, scan, norm, copy
        ),
        old_dequant_seconds=_dequant_seconds(
            old_bytes / width, old_bytes, norm, copy
        ),
    )


@dataclass(frozen=True)
class KVQuantOverheadsVec:
    """Eqs. 20-24 evaluated for a whole batch of decode tokens at once.

    ``prefill_quant_seconds`` and ``new_quant_seconds`` do not depend on
    the token index and stay scalars; ``old_dequant_seconds`` is an array
    aligned with the ``token_indices`` passed to
    :func:`kv_quant_overheads_vec` (the old cache grows by one token per
    step, Eq. 18).
    """

    prefill_quant_seconds: float
    new_quant_seconds: float
    old_dequant_seconds: np.ndarray


def kv_quant_overheads_vec(
    workload: Workload,
    token_indices: np.ndarray,
    rates: CodecRates | None = None,
    device: str = "gpu",
    kv_dtype: str = "fp16",
) -> KVQuantOverheadsVec:
    """Vectorized :func:`kv_quant_overheads` over all ``token_indices``.

    The old-cache size is affine in the token index, so the per-token
    dequantization cost is evaluated for every token in one NumPy pass.
    Element-for-element this matches the scalar reference (same formulas,
    float64 arithmetic).
    """
    scan, norm, copy = _kv_codec_rates(rates, device)

    fp = workload.footprint(kv_dtype=kv_dtype)
    width = dtype_bytes(kv_dtype)
    pf_bytes = fp.prefill_kv_bytes_per_layer
    new_bytes = fp.kv_bytes_per_token_per_layer
    tokens = np.asarray(token_indices, dtype=np.float64)
    # fp.kv_bytes_per_layer_at is pure arithmetic in the token index, so
    # feeding it the whole index array yields the per-token byte vector.
    old_bytes = fp.kv_bytes_per_layer_at(tokens)

    return KVQuantOverheadsVec(
        prefill_quant_seconds=_quant_seconds(
            pf_bytes / width, pf_bytes, scan, norm, copy
        ),
        new_quant_seconds=_quant_seconds(
            new_bytes / width, new_bytes, scan, norm, copy
        ),
        old_dequant_seconds=_dequant_seconds(
            old_bytes / width, old_bytes, norm, copy
        ),
    )
