"""Six-task cost model and end-to-end latency (paper Eqs. 1-9).

:class:`CostModel` binds (workload, policy, hardware, CPU execution
context, calibration) and produces:

* per-iteration :class:`~repro.runtime.tasks.TaskCosts` for prefill and for
  each decode token (the KV cache grows, so decode costs are per-token);
* the overlapped per-token step time — both the paper's literal Eq. 2 (max
  over the six tasks) and the resource-grouped variant (tasks sharing a
  PCIe direction serialize) that the discrete-event executor validates;
* an end-to-end :class:`LatencyBreakdown` (Eq. 1) with the quantization
  overhead split (Figure 4) and the I/O traffic (Table 1);
* :func:`price_grid`, Eq. 1 for many placements at once.

Every formula is written once, as a column kernel over scalars or
per-candidate arrays.  The kernels read the discrete strategy (attention
placement, W/KV quantization) from :class:`StrategyColumns`, not from
the bound policy: a one-policy model passes its own, and the policy
search passes a :class:`StrategyMenu`, so the candidates of every
strategy are priced in one pass and bitwise equal to their one-policy
models.

Policy semantics (how quantization composes with placement):

* ``wg`` weights stay resident on the GPU in fp16; the offloaded remainder
  is stored (compressed, if ``weight_quant``) in host memory, streamed per
  layer, and de-quantized on the GPU per use (Eq. 4).
* With GPU attention, ``cg`` of the KV cache is GPU-resident and the rest
  streams over PCIe.  ``kv_quant`` compresses both shares: the streamed
  share pays wire-time at the compressed size plus GPU (de)quant charged
  to load/store_cache (Eqs. 6-7); the resident share pays (de)quant on the
  compute stream when used.
* With CPU attention the cache never crosses PCIe (Observation 1:
  ``load_cache = store_cache = 0``); ``kv_quant`` then forces the *CPU* to
  de-quantize the old cache and quantize the new entries every token,
  which is the mechanism making quantization counter-productive under
  attention offloading.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.errors import PolicyError
from repro.offload.policy import OffloadPolicy
from repro.parallel.bundling import bundle_operators
from repro.parallel.controller import (
    ParallelismPlan,
    compute_makespan,
    contention_signature,
    curve_cache,
    staging_seconds,
)
from repro.parallel.speedup import ContentionModel, ParallelismSetting
from repro.parallel.topology import CpuTopology
from repro.perfmodel.constants import EngineCalibration
from repro.perfmodel.notation import HardwareParams, Workload
from repro.perfmodel.quant_model import (
    KVQuantOverheadsVec,
    kv_quant_overheads,
    kv_quant_overheads_vec,
    weight_quant_overheads,
)
from repro.quant.config import QuantConfig
from repro.runtime.graph import build_attention_graph
from repro.runtime.tasks import TASK_FIELD_NAMES, TaskCosts
from repro.units import dtype_bytes


@dataclass
class CpuExecutionContext:
    """How the CPU is being used: threading plus staging throughput.

    ``parallel_efficiency()`` is the aggregate speedup (vs one thread) the
    compute task achieves under the active threading setting, derived from
    the contention-adjusted list schedule of the attention op graph.  The
    default PyTorch setting and LM-Offload's controlled setting differ
    exactly here.
    """

    topology: CpuTopology
    contention: ContentionModel
    setting: ParallelismSetting
    io_staging_threads: dict[str, int] = field(default_factory=dict)
    use_fine_grained_graph: bool = False
    #: Fraction of the CPU available to this engine instance (multi-GPU
    #: pipeline stages share one host CPU: each of G stages gets ~1/G).
    cpu_share: float = 1.0

    @classmethod
    def pytorch_default(
        cls, topology: CpuTopology, contention: ContentionModel
    ) -> "CpuExecutionContext":
        """PyTorch defaults (§4.1): intra = physical cores, inter = all
        hardware threads, running the fine-grained (unbundled) op graph.

        Weight/activation staging gets one thread per task — the default
        runtime copies weights into transfer buffers on the issuing thread,
        so that flow is staging-bound rather than wire-bound (this is the
        load_weight improvement Figure 8 attributes to parallelism
        control).  Cache flows go through multi-threaded torch copies and
        get a small pool by default.
        """
        return cls(
            topology=topology,
            contention=contention,
            setting=ParallelismSetting(
                intra_op=topology.physical_cores, inter_op=topology.hardware_threads
            ),
            io_staging_threads={
                "load_weight": 1,
                "load_activation": 1,
                "store_activation": 1,
                "load_cache": 4,
                "store_cache": 4,
            },
            use_fine_grained_graph=True,
        )

    @classmethod
    def from_plan(
        cls,
        topology: CpuTopology,
        contention: ContentionModel,
        plan: ParallelismPlan,
    ) -> "CpuExecutionContext":
        """Adopt a :class:`ParallelismController` plan (bundled graph)."""
        return cls(
            topology=topology,
            contention=contention,
            setting=plan.compute,
            io_staging_threads=dict(plan.io_threads),
            use_fine_grained_graph=False,
        )

    def parallel_efficiency(self, num_batches: int = 4) -> float:
        """Aggregate compute-task speedup vs 1 thread under this setting.

        Looked up in :data:`~repro.core.plan_cache.CURVE_CACHE` under
        everything it reads — the graph's shape (``num_batches``, fine or
        bundled), the setting and the contention model's parts — so every
        cost model on the same setting shares one list schedule.
        """
        key = (
            "efficiency",
            num_batches,
            self.use_fine_grained_graph,
            self.setting,
            contention_signature(self.contention),
        )
        return curve_cache().get(key, lambda: self._efficiency(num_batches))

    def _efficiency(self, num_batches: int) -> float:
        graph = build_attention_graph(
            num_batches, fine_grained=self.use_fine_grained_graph
        )
        if not self.use_fine_grained_graph:
            graph, _ = bundle_operators(graph)
        return graph.total_work() / compute_makespan(
            graph, self.setting, self.contention
        )

    def staging_seconds(self, task: str, nbytes):
        """Host-side staging time of ``nbytes`` (scalar or per-candidate
        array) for an I/O task (0 if no thread info)."""
        threads = self.io_staging_threads.get(task, 0)
        if threads <= 0:
            return 0.0
        return staging_seconds(nbytes, threads)


@dataclass(frozen=True)
class LatencyBreakdown:
    """End-to-end timing decomposition (Eq. 1) plus reporting extras."""

    t_init: float
    t_prefill: float
    t_decode: float
    task_totals: dict[str, float]
    quant_overheads: dict[str, float]
    io_traffic: dict[tuple[str, str, str], float]
    bottleneck: str

    @property
    def total_seconds(self) -> float:
        return self.t_init + self.t_prefill + self.t_decode

    def throughput(self, workload: Workload) -> float:
        """Generated tokens per second (the paper's tput metric)."""
        return workload.block_size * workload.gen_len / self.total_seconds


def _where(mask, a, b):
    """``np.where`` over per-candidate masks; a one-policy (Python
    ``bool``) mask just picks ``a`` or ``b``, so scalar pricing stays in
    Python floats."""
    if isinstance(mask, bool):
        return a if mask else b
    return np.where(mask, a, b)


def _grouped_step(load_weight, load_cache, load_act, store_cache, store_act, compute):
    """Resource-grouped Eq. 2 on broadcastable task costs: the three H2D
    loads share a PCIe direction, the two D2H stores the other."""
    h2d = load_weight + load_cache + load_act
    d2h = store_cache + store_act
    return np.maximum(np.maximum(h2d, d2h), compute)


@dataclass(frozen=True)
class StrategyColumns:
    """The discrete strategy the cost kernels price: one policy's scalars
    (:meth:`CostModel.strategy`) or one row per candidate
    (:meth:`StrategyMenu.columns`).  Where a strategy skips a term the
    kernels add a zero or select with ``np.where``, so every row is
    bitwise equal to its one-policy model."""

    #: Attention runs on the CPU.
    attention_on_cpu: Any
    #: The offloaded weights (and the resident share, when the model's
    #: policy stores it compressed) are stored in ``weight_format``.
    weight_quant: Any
    #: Stored bytes of one token's KV entries (whole block, one layer).
    kv_bytes: Any
    #: Eq. 5's prefill KV quantization seconds per layer (0 without KV
    #: quantization).
    kv_prefill: Any
    #: The compressed weight format of every ``weight_quant`` row.
    weight_format: QuantConfig | None

    def rows(self, index) -> "StrategyColumns":
        """The columns of candidates ``index`` (scalars stay as they are)."""
        return StrategyColumns(
            *(
                x[index] if isinstance(x, np.ndarray) else x
                for x in (self.attention_on_cpu, self.weight_quant,
                          self.kv_bytes, self.kv_prefill)
            ),
            self.weight_format,
        )


@dataclass(frozen=True)
class StrategyMenu:
    """Strategies stacked along the candidate axis: one template policy
    per strategy (sharing the batch geometry and any weight format) and
    each candidate's index into them."""

    policies: tuple[OffloadPolicy, ...]
    index: np.ndarray

    def take(self, rows) -> "StrategyMenu":
        return StrategyMenu(self.policies, self.index[rows])

    def columns(self, model: "CostModel") -> StrategyColumns:
        """Each candidate's template's columns on ``model``."""
        per = [model.strategy(p) for p in self.policies]
        formats = {c.weight_format for c in per} - {None}
        return StrategyColumns(
            *(
                np.array([getattr(c, name) for c in per])[self.index]
                for name in ("attention_on_cpu", "weight_quant", "kv_bytes", "kv_prefill")
            ),
            formats.pop() if formats else None,
        )

    def runs(self) -> list[tuple[int, int, OffloadPolicy]]:
        """``(start, stop, policy)`` of each maximal block of consecutive
        candidates sharing attention placement and KV format, with the
        block's first template.  The decode kernel reads no other
        strategy column (weights reach it through the weight terms)."""
        groups = {}
        group = np.array([
            groups.setdefault((p.attention_on_cpu, p.kv_quant), len(groups))
            for p in self.policies
        ])[self.index]
        starts = np.flatnonzero(np.diff(group, prepend=-1)).tolist()
        return [
            (lo, hi, self.policies[self.index[lo]])
            for lo, hi in zip(starts, starts[1:] + [len(group)])
        ]

    def kv_overheads(self, model: "CostModel", tokens: np.ndarray) -> tuple:
        """``(kv_old, kv_new)`` for :meth:`CostModel._decode_columns`:
        ``(candidates, tokens)`` and ``(candidates, 1)`` KV codec seconds,
        zero for strategies without KV quantization."""
        per = [model._kv_overheads_vec(tokens, p) for p in self.policies]
        old = np.zeros((len(per), len(tokens)))
        new = np.zeros((len(per), 1))
        for i, over in enumerate(per):
            if over is not None:
                old[i] = over.old_dequant_seconds
                new[i] = over.new_quant_seconds
        return old[self.index], new[self.index]


class CostModel:
    """The full analytic model for one (workload, policy, hardware) triple."""

    def __init__(
        self,
        workload: Workload,
        policy: OffloadPolicy,
        hw: HardwareParams,
        cpu_ctx: CpuExecutionContext,
        calibration: EngineCalibration | None = None,
        weights_preloaded: bool = True,
    ) -> None:
        if policy.gpu_batch_size * policy.num_gpu_batches != workload.block_size:
            raise PolicyError(
                "policy batch geometry disagrees with the workload block size"
            )
        self.w = workload
        self.p = policy
        self.hw = hw
        self.ctx = cpu_ctx
        self.cal = calibration or EngineCalibration.paper_defaults()
        self.weights_preloaded = weights_preloaded
        self.fp = workload.footprint()
        self._eff = cpu_ctx.parallel_efficiency()
        #: Memo for policy-fixed sub-quantities (byte sizes, per-iteration
        #: task constants) — each is pure in the frozen inputs and read by
        #: every per-token and per-step pricing call.
        self._memo: dict = {}
        #: Cached feasibility verdict: ``None`` until checked, then ``True``
        #: or the :class:`PolicyError` to re-raise.  Lets an explicit
        #: ``check_feasible()`` and ``breakdown()`` share one memory check.
        self._feasible: bool | PolicyError | None = None

    # -- effective rates -----------------------------------------------------

    @staticmethod
    def link_bandwidth(hw: HardwareParams, calibration: EngineCalibration) -> float:
        """Achieved PCIe bytes/s per direction: the Table 2 rate derated
        by the engine's calibrated copy efficiency."""
        return hw.pcie_bdw * calibration.pcie_efficiency

    @property
    def pcie_bw(self) -> float:
        """Achieved PCIe bytes/s per direction."""
        return self.link_bandwidth(self.hw, self.cal)

    # -- the discrete strategy -------------------------------------------------

    def strategy(self, policy: OffloadPolicy | None = None) -> StrategyColumns:
        """The scalar strategy columns of ``policy`` (default: this
        model's own policy) on this model's workload and calibration."""
        key = "strategy" if policy is None else ("strategy", policy)
        columns = self._memo.get(key)
        if columns is None:
            columns = self._memo[key] = self._strategy_of(policy or self.p)
        return columns

    def _strategy_of(self, policy: OffloadPolicy) -> StrategyColumns:
        kv_prefill = 0.0
        if policy.kv_quant is not None:
            # Prefill always quantizes on the GPU (Eq. 5).
            kv_prefill = kv_quant_overheads(
                self.w, self.cal.codec, device="gpu"
            ).prefill_quant_seconds
        return StrategyColumns(
            attention_on_cpu=policy.attention_on_cpu,
            weight_quant=policy.weight_quant is not None,
            kv_bytes=self._kv_bytes(policy.kv_quant),
            kv_prefill=kv_prefill,
            weight_format=policy.weight_quant,
        )

    # -- stored byte sizes -----------------------------------------------------

    def offloaded_weight_bytes_per_layer(self) -> float:
        """Stored bytes of the CPU-resident weight share of one layer."""
        if "offloaded_weight_bytes" not in self._memo:
            self._memo["offloaded_weight_bytes"] = float(
                self._offloaded_weight_bytes(self.p.wc, self.strategy())
            )
        return self._memo["offloaded_weight_bytes"]

    def _offloaded_weight_bytes(self, wc, s: StrategyColumns):
        """Stored bytes of one layer's weights with ``wc`` of them off-GPU
        (``wc`` and ``s`` scalar or per-candidate)."""
        n = self.w.model.weights_per_layer * wc
        stored = n * dtype_bytes("fp16")
        if s.weight_format is not None:
            stored = _where(s.weight_quant, s.weight_format.total_bytes(n), stored)
        return stored

    def _resident_weight_dequant_iter(self) -> float:
        """Per-iteration dequant of compressed resident weights (on the
        compute stream — the weights are unpacked at point of use)."""
        if "resident_weight_dequant" not in self._memo:
            self._memo["resident_weight_dequant"] = float(
                self._resident_weight_dequant_at(self.p.wg, self.strategy())
            )
        return self._memo["resident_weight_dequant"]

    def _resident_weight_dequant_at(self, wg, s: StrategyColumns):
        """:meth:`_resident_weight_dequant_iter` with ``wg`` GPU-resident."""
        over = weight_quant_overheads(self.w, wg, self.cal.codec)
        return _where(
            self.p.quantize_resident_weights & s.weight_quant,
            over.dequantize_seconds / self.p.num_gpu_batches,
            0.0,
        )

    def kv_store_bytes_per_token(self) -> float:
        """Stored bytes of one token's KV entries (whole block, one layer)."""
        return self.strategy().kv_bytes

    def _kv_bytes(self, kv_quant: QuantConfig | None) -> float:
        """:meth:`kv_store_bytes_per_token` under ``kv_quant``."""
        elements = self.fp.kv_elements_per_token_per_layer
        if kv_quant is not None:
            return kv_quant.total_bytes(elements)
        return elements * dtype_bytes("fp16")

    # -- memory feasibility --------------------------------------------------

    def gpu_bytes_required(self) -> float:
        """Peak GPU bytes under this policy."""
        return self._memory_bytes()[0]

    def cpu_bytes_required(self) -> float:
        """Peak host bytes under this policy."""
        return self._memory_bytes()[1]

    def _memory_bytes(self) -> tuple[float, float]:
        """Peak (GPU, host) bytes: one row of :meth:`_memory_columns`."""
        if "memory_bytes" not in self._memo:
            p, s = self.p, self.strategy()
            gpu, host = self._memory_columns(
                *self._weight_bytes_at(p.wg, p.wd, s), p.cg, p.hg, s
            )
            self._memo["memory_bytes"] = (float(gpu), float(host))
        return self._memo["memory_bytes"]

    def _weight_bytes_at(self, wg, wd, s: StrategyColumns) -> tuple:
        """(GPU, host) bytes of the weights with ``wg`` GPU- and ``wd``
        disk-resident: the resident share (compressed when the policy
        stores it quantized, as ZeRO-Inference's 4-bit mode does) plus the
        working layers, and the offloaded share net of what sits on disk.
        Every argument is a scalar or a ``(candidates,)`` array."""
        l = self.w.model.num_layers
        n = self.w.model.weights_per_layer
        resident = n * wg * dtype_bytes("fp16")
        if self.p.quantize_resident_weights and s.weight_format is not None:
            resident = _where(
                s.weight_quant, s.weight_format.total_bytes(n * wg), resident
            )
        wc = 1.0 - wg
        # Uncompressed working weights: current + prefetch when layers
        # stream from the host; a single dequantization buffer when all
        # weights are resident (ZeRO-Inference's mode).
        working_layers = _where(wc > 0, 2, 1)
        gpu = resident * l + working_layers * n * dtype_bytes("fp16")
        offloaded = self._offloaded_weight_bytes(wc, s)
        host = offloaded * l
        # Disk-resident weights only occupy a 2-layer staging window in
        # host memory, not their full footprint.
        spilled = (wc > 0) & (wd > 0)
        disk_share = wd / _where(spilled, wc, 1.0)
        host = _where(
            spilled,
            host * (1.0 - disk_share) + np.minimum(2 * offloaded, host * disk_share),
            host,
        )
        return gpu, host

    def _memory_columns(self, weights_gpu, weights_host, cg, hg, s: StrategyColumns) -> tuple:
        """Peak (GPU, host) bytes from :meth:`_weight_bytes_at`'s weight
        terms plus the KV cache and activations.  Every argument is a
        scalar or a ``(candidates,)`` array, so one placement and a whole
        stacked search grid read the same formula."""
        w = self.w
        tokens = w.prompt_len + w.gen_len
        kv_total = tokens * s.kv_bytes * w.model.num_layers
        act = self.fp.activation_bytes_per_layer
        # Under GPU attention: the GPU share of the cache, plus a working
        # buffer for one layer's (dequantized) cache slice.
        kv_gpu = (
            cg * kv_total
            + tokens
            * self.fp.kv_elements_per_token_per_layer
            * dtype_bytes("fp16")
            / self.p.num_gpu_batches
        )
        gpu = weights_gpu + _where(s.attention_on_cpu, 0.0, kv_gpu)
        host_kv = _where(s.attention_on_cpu, kv_total, (1.0 - cg) * kv_total)
        gpu = gpu + act * (2 + 2 * hg)
        host = weights_host + host_kv + act * 2 * (1.0 - hg)
        return gpu, host

    def check_feasible(self) -> None:
        """Raise :class:`PolicyError` when the policy overflows a memory.

        The verdict is computed once per model instance and replayed on
        subsequent calls, so ``check_feasible()`` + ``breakdown()`` pay
        for a single memory-requirement pass.
        """
        if self._feasible is True:  # reach: tests/test_perfmodel_vectorized.py::test_breakdown_equivalence (a second feasibility check on one model)
            return
        if self._feasible is not None:
            raise self._feasible
        gpu_need = self.gpu_bytes_required()
        if gpu_need > self.hw.gpu_mem_capacity:
            self._feasible = PolicyError(
                f"policy needs {gpu_need/1e9:.1f} GB GPU memory "
                f"(capacity {self.hw.gpu_mem_capacity/1e9:.1f} GB): {self.p.describe()}"
            )
            raise self._feasible
        cpu_need = self.cpu_bytes_required()
        if cpu_need > self.hw.cpu_mem_capacity:  # reach: safety code, host-capacity rejection (tests/test_chaos_serving.py::test_host_memory_shrink_walks_the_ladder_and_recovers)
            self._feasible = PolicyError(
                f"policy needs {cpu_need/1e9:.1f} GB host memory "
                f"(capacity {self.hw.cpu_mem_capacity/1e9:.1f} GB): {self.p.describe()}"
            )
            raise self._feasible
        self._feasible = True

    # -- kernel building blocks -----------------------------------------------

    def _load_weight_iter(self) -> float:
        """Per-iteration load_weight incl. Eq. 4 dequant, host staging, and
        the disk leg for any disk-resident share (third tier)."""
        if "load_weight_iter" not in self._memo:
            self._memo["load_weight_iter"] = float(
                self._load_weight_iter_at(self.p.wg, self.p.wd, self.strategy())
            )
        return self._memo["load_weight_iter"]

    def _load_weight_iter_at(self, wg, wd, s: StrategyColumns):
        """:meth:`_load_weight_iter` with ``wg`` GPU- and ``wd``
        disk-resident (scalars or per-candidate arrays)."""
        k = self.p.num_gpu_batches
        wc = 1.0 - wg
        per_iter = self._offloaded_weight_bytes(wc, s) / k
        wire = per_iter / self.pcie_bw
        stage = self.ctx.staging_seconds("load_weight", per_iter)
        t = np.maximum(wire, stage)
        # The disk-resident slice of the offloaded share must first reach
        # host memory at disk bandwidth (pipelined with PCIe, so the
        # slower leg dominates).
        spilled = (wd > 0) & (wc > 0)
        disk_per_iter = per_iter * (wd / _where(spilled, wc, 1.0))
        t = _where(spilled, np.maximum(t, disk_per_iter / self.hw.disk_bdw), t)
        over = weight_quant_overheads(self.w, wc, self.cal.codec)
        return t + _where(
            s.weight_quant & (wc > 0), over.dequantize_seconds / k, 0.0
        )

    def _attention_flops_bytes(self, ctx_len: int, tokens: int) -> tuple[float, float]:
        """FLOPs and fp16 bytes of attention for one batch iteration."""
        h1 = self.w.model.hidden_size
        b = self.p.gpu_batch_size
        flops = 4.0 * b * tokens * ctx_len * h1
        kv_bytes = 2.0 * b * ctx_len * h1 * dtype_bytes("fp16")
        return flops, kv_bytes

    def _gpu_attention_seconds(self, ctx_len: int, tokens: int) -> float:
        flops, nbytes = self._attention_flops_bytes(ctx_len, tokens)
        eff = self.cal.gpu_dense_efficiency
        return max(flops / (self.hw.gpu_flops * eff), nbytes / self.hw.gpu_mem_bdw)

    def _gpu_dense_seconds(self, tokens: int) -> float:
        """Projections + MLP on the GPU for one batch iteration."""
        n_weights = self.w.model.weights_per_layer
        flops = 2.0 * n_weights * tokens * self.p.gpu_batch_size
        nbytes = n_weights * dtype_bytes("fp16")
        eff = self.cal.gpu_dense_efficiency
        return max(flops / (self.hw.gpu_flops * eff), nbytes / self.hw.gpu_mem_bdw)

    # -- the six tasks -------------------------------------------------------

    def decode_task_costs(self, token_idx: int) -> TaskCosts:
        """Per-iteration task costs for decode token ``token_idx`` (0-based,
        counting tokens produced after prefill): one row of
        :meth:`decode_task_costs_vec`."""
        return TaskCosts(*self.decode_task_costs_vec([token_idx])[0].tolist())

    def _kv_overheads_vec(
        self, token_indices: np.ndarray, policy: OffloadPolicy | None = None
    ) -> KVQuantOverheadsVec | None:
        """Per-token KV codec overheads of ``policy`` (default: this
        model's) on the device it runs the codec on, for all
        ``token_indices`` at once (``None`` without ``kv_quant``)."""
        p = policy or self.p
        if p.kv_quant is None:
            return None
        device = "cpu" if p.attention_on_cpu else "gpu"
        return kv_quant_overheads_vec(
            self.w, token_indices, self.cal.codec, device=device
        )

    def decode_task_costs_vec(
        self,
        token_indices: np.ndarray,
        kv_over: KVQuantOverheadsVec | None = None,
    ) -> np.ndarray:
        """Per-iteration task costs of many decode tokens in one pass.

        Every per-token cost is affine in the context length, so the whole
        decode trajectory evaluates in one NumPy pass.  Returns an
        ``(len(token_indices), 6)`` float64 matrix whose columns follow
        :data:`~repro.runtime.tasks.TASK_FIELD_NAMES`.  ``kv_over``
        optionally reuses already-computed codec overheads for the same
        token indices so :meth:`breakdown` prices the codec exactly once.
        """
        p = self.p
        tokens = np.asarray(token_indices, dtype=np.float64)
        if p.kv_quant is not None and kv_over is None:
            kv_over = self._kv_overheads_vec(tokens)
        kv_old, kv_new = (
            (0.0, 0.0) if kv_over is None
            else (kv_over.old_dequant_seconds, kv_over.new_quant_seconds)
        )
        columns = self._decode_columns(
            tokens, kv_old, kv_new, self.strategy(), p.cg, p.hg,
            self._load_weight_iter(), self._resident_weight_dequant_iter(),
        )
        out = np.empty((tokens.shape[0], 6), dtype=np.float64)
        for i, column in enumerate(columns):
            out[:, i] = column
        return out

    def _decode_columns(
        self,
        tokens: np.ndarray,
        kv_old,
        kv_new,
        s: StrategyColumns,
        cg,
        hg,
        load_weight,
        resident_dequant,
    ) -> tuple:
        """The six decode task costs, in ``TASK_FIELD_NAMES`` order.

        ``tokens`` runs along the last axis.  The strategy columns ``s``
        and the placement inputs (``cg``, ``hg`` and the per-iteration
        ``load_weight`` and resident-weight dequant seconds) are either
        one policy's scalars or ``(candidates, 1)`` columns; ``kv_old``
        (per token) and ``kv_new`` are the KV codec seconds of each row's
        strategy, 0 without KV quantization.  Both attention placements
        are priced and each row selects its own, so
        :meth:`decode_task_costs_vec` (and its one-row view
        :meth:`decode_task_costs`), :func:`price_grid` and the planner's
        LP coefficients share one formula and one operation order.
        """
        w, p = self.w, self.p
        ctx_len = w.prompt_len + 1 + tokens
        k = p.num_gpu_batches
        on_cpu = s.attention_on_cpu

        act_bytes = self.fp.activation_bytes_per_layer
        # Activations cross PCIe for the offloaded share; CPU attention
        # additionally ships the attention output up every layer.
        act_flow = act_bytes * np.maximum(1.0 - hg, _where(on_cpu, 1.0, 0.0))
        load_act = act_flow / k / self.pcie_bw
        store_act = act_flow / k / self.pcie_bw

        flops, kv_bytes = self._attention_flops_bytes(ctx_len, 1)
        codec = kv_old + kv_new
        dense = self._gpu_dense_seconds(1)

        # CPU attention: one gpu_batch iteration of offloaded attention,
        # and the CPU codec on the host cache; no cache crosses PCIe.
        rates = self.cal.attention
        share = self.ctx.cpu_share
        flop_rate = min(
            rates.cpu_flops_per_thread * self._eff, rates.cpu_flops_ceiling
        ) * share
        bw_rate = min(
            rates.cpu_bw_per_thread * self._eff, rates.cpu_bw_ceiling
        ) * share
        cpu_attn = np.maximum(flops / flop_rate, kv_bytes / bw_rate) + codec / k
        cpu_compute = np.maximum(cpu_attn, dense)

        # GPU attention: the streamed share of the cache crosses PCIe.
        stored = s.kv_bytes
        streamed_share = 1.0 - cg
        old_bytes = ctx_len * stored * streamed_share / k
        new_bytes = stored * streamed_share / k
        load_cache = np.maximum(
            old_bytes / self.pcie_bw,
            self.ctx.staging_seconds("load_cache", old_bytes),
        )
        store_cache = np.maximum(
            new_bytes / self.pcie_bw,
            self.ctx.staging_seconds("store_cache", new_bytes),
        )
        eff = self.cal.gpu_dense_efficiency
        gpu_attn = np.maximum(
            flops / (self.hw.gpu_flops * eff), kv_bytes / self.hw.gpu_mem_bdw
        )
        # Streamed share: codec charged to the cache tasks (Eqs. 6-7).
        load_cache = load_cache + kv_old * streamed_share / k
        store_cache = store_cache + kv_new * streamed_share / k
        # Resident share: codec runs when the cache is used/updated.
        compute = gpu_attn + dense + codec * cg / k

        load_cache = _where(on_cpu, 0.0, load_cache)
        store_cache = _where(on_cpu, 0.0, store_cache)
        compute = _where(on_cpu, cpu_compute, compute) + resident_dequant
        return load_weight, load_cache, load_act, store_cache, store_act, compute

    def prefill_task_costs(self) -> TaskCosts:
        """Per-iteration costs of the prefill pass (all prompt tokens)."""
        p = self.p
        return TaskCosts(*(float(c) for c in self._prefill_columns(
            self.strategy(), p.cg, p.hg,
            self._load_weight_iter(), self._resident_weight_dequant_iter(),
        )))

    def _prefill_columns(
        self, s: StrategyColumns, cg, hg, load_weight, resident_dequant
    ) -> tuple:
        """The six prefill task costs, in ``TASK_FIELD_NAMES`` order, for
        scalar or per-candidate strategy and placement inputs (see
        :meth:`_decode_columns`)."""
        w, p = self.w, self.p
        n = w.prompt_len
        k = p.num_gpu_batches
        # Prefill attention/MLP always run on the GPU (paper Fig. 2, 1.2).
        compute = self._gpu_attention_seconds(n, n) + self._gpu_dense_seconds(n)
        resident = _where(s.attention_on_cpu, 0.0, cg)
        pf_bytes = (n + 1) * s.kv_bytes * (1.0 - resident)
        store_cache = pf_bytes / k / self.pcie_bw
        compute = compute + s.kv_prefill / k  # Eq. 5
        compute = compute + resident_dequant
        act_flow = self.fp.prefill_activation_bytes_per_layer * (1.0 - hg)
        load_act = act_flow / k / self.pcie_bw
        return load_weight, 0.0, load_act, store_cache, load_act, compute

    # -- aggregation ---------------------------------------------------------

    @staticmethod
    def step_seconds(costs: TaskCosts) -> float:
        """Per-iteration overlapped time.

        Tasks are grouped by physical resource — the three H2D loads share
        a PCIe direction and serialize — matching the discrete-event
        executor.  The paper's literal Eq. 2 (the max over six tasks) is
        :meth:`~repro.runtime.tasks.TaskCosts.step_time`.
        """
        return float(_grouped_step(*costs.as_tuple()))

    @staticmethod
    def step_seconds_vec(costs: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`step_seconds` over an ``(n, 6)`` cost matrix
        (columns in :data:`~repro.runtime.tasks.TASK_FIELD_NAMES` order)."""
        return _grouped_step(*(costs[:, i] for i in range(6)))

    def t_init_seconds(self) -> float:
        """Eq. 3: disk -> host weight load + one-time weight quantization."""
        return float(self._t_init_at(self.p.wg, self.strategy()))

    def _t_init_at(self, wg, s: StrategyColumns):
        """:meth:`t_init_seconds` with ``wg`` of the weights GPU-resident
        (scalar or per-candidate)."""
        t = 0.0
        if not self.weights_preloaded:  # reach: tests/test_perfmodel_latency.py::test_t_init_disk_load
            t += self.fp.total_weight_bytes / self.hw.disk_bdw
        wc = 1.0 - wg
        over = weight_quant_overheads(self.w, wc, self.cal.codec)
        return t + _where(
            s.weight_quant & (wc > 0),
            over.quantize_seconds * self.w.model.num_layers,
            0.0,
        )

    def decode_seconds(self) -> float:
        """Total decode time across (n-1) tokens (Eq. 1's third term),
        every token priced in one NumPy pass."""
        iters = self.w.model.num_layers * self.p.num_gpu_batches
        tokens = np.arange(self.w.gen_len - 1, dtype=np.float64)
        costs = self.decode_task_costs_vec(tokens)
        return float(self.step_seconds_vec(costs).sum() * iters)

    def breakdown(self) -> LatencyBreakdown:
        """Assemble Eq. 1 end to end, with reporting detail.

        All decode tokens (task costs *and* KV codec overheads) are priced
        in one vectorized pass.
        """
        self.check_feasible()
        w, p = self.w, self.p
        iters = w.model.num_layers * p.num_gpu_batches

        pf = self.prefill_task_costs()
        t_prefill = self.step_seconds(pf) * iters

        tokens = np.arange(w.gen_len - 1, dtype=np.float64)
        kv_over = self._kv_overheads_vec(tokens)
        costs = self.decode_task_costs_vec(tokens, kv_over=kv_over)
        t_decode = float(self.step_seconds_vec(costs).sum() * iters)
        col_totals = costs.sum(axis=0)
        task_totals = {
            name: pf_v * iters + col * iters
            for name, pf_v, col in zip(TASK_FIELD_NAMES, pf.as_tuple(), col_totals)
        }
        mid_idx = max(0, (w.gen_len - 1) // 2)
        if costs.shape[0] > 0:
            mid = TaskCosts(*costs[mid_idx])
        else:  # reach: tests/test_planner_grid.py::test_gen_len_one_throughput_matches_reference (gen_len=1)
            mid = self.decode_task_costs(0)

        return LatencyBreakdown(
            t_init=self.t_init_seconds(),
            t_prefill=t_prefill,
            t_decode=t_decode,
            task_totals=task_totals,
            quant_overheads=self._quant_overhead_totals(kv_over),
            io_traffic=self._traffic_totals(),
            bottleneck=mid.bottleneck().value,
        )

    def _quant_overhead_totals(
        self, kv_over: KVQuantOverheadsVec | None = None
    ) -> dict[str, float]:
        """Total quant/dequant seconds over the whole run (Figure 4).

        ``kv_over`` reuses the per-token codec overheads already computed
        by :meth:`breakdown`'s vectorized pass (they are the same Eqs.
        20-24 quantities the decode tasks fold in), so the codec is priced
        once instead of twice.
        """
        w, p = self.w, self.p
        l = w.model.num_layers
        out = {
            "weight_quant_init": 0.0,
            "weight_dequant": 0.0,
            "kv_prefill_quant": 0.0,
            "kv_new_quant": 0.0,
            "kv_old_dequant": 0.0,
        }
        if p.weight_quant is not None and p.wc > 0:
            over = weight_quant_overheads(w, p.wc, self.cal.codec)
            out["weight_quant_init"] = over.quantize_seconds * l
            out["weight_dequant"] = over.dequantize_seconds * l * w.gen_len
        if p.quantize_resident_weights and p.weight_quant is not None and p.wg > 0:
            over = weight_quant_overheads(w, p.wg, self.cal.codec)
            out["weight_quant_init"] += over.quantize_seconds * l
            out["weight_dequant"] += over.dequantize_seconds * l * w.gen_len
        if p.kv_quant is not None:
            pf = kv_quant_overheads(w, self.cal.codec, device="gpu")
            out["kv_prefill_quant"] = pf.prefill_quant_seconds * l
            if kv_over is None:  # reach: tests/test_perfmodel_vectorized.py::test_quant_overhead_totals_equivalence
                kv_over = self._kv_overheads_vec(
                    np.arange(w.gen_len - 1, dtype=np.float64)
                )
            out["kv_new_quant"] = kv_over.new_quant_seconds * l * (w.gen_len - 1)
            out["kv_old_dequant"] = float(kv_over.old_dequant_seconds.sum() * l)
        return out

    def _traffic_totals(self) -> dict[tuple[str, str, str], float]:
        """Whole-run I/O traffic by (src, dst, category) — Table 1's data."""
        w, p = self.w, self.p
        l = w.model.num_layers
        n = w.gen_len
        traffic: dict[tuple[str, str, str], float] = {}

        weights_per_token = self.offloaded_weight_bytes_per_layer() * l
        traffic[("cpu", "gpu", "weights")] = weights_per_token * n
        if p.wc > 0 and p.wd > 0:  # reach: tests/test_disk_tier.py::test_disk_traffic_accounted
            traffic[("disk", "cpu", "weights")] = (
                weights_per_token * (p.wd / p.wc) * n
            )

        act_bytes = self.fp.activation_bytes_per_layer
        act_flow = act_bytes * l * n * max(
            1.0 - p.hg, 1.0 if p.attention_on_cpu else 0.0
        )
        traffic[("cpu", "gpu", "activation")] = act_flow
        traffic[("gpu", "cpu", "activation")] = act_flow

        if p.attention_on_cpu:
            traffic[("cpu", "gpu", "kv_cache")] = 0.0
            traffic[("gpu", "cpu", "kv_cache")] = 0.0
        else:
            stored = self.kv_store_bytes_per_token()
            share = 1.0 - p.cg
            old_total = sum((w.prompt_len + 1 + t) * stored for t in range(n - 1))
            traffic[("cpu", "gpu", "kv_cache")] = old_total * share * l
            new_total = stored * (n - 1) + (w.prompt_len + 1) * stored
            traffic[("gpu", "cpu", "kv_cache")] = new_total * share * l
        return traffic


#: Elements of the ``(candidates, tokens)`` decode matrix :func:`price_grid`
#: prices per block: a stacked menu of long generations is walked in row
#: blocks, so only a few block-sized temporaries are alive at once.
DECODE_BLOCK = 1 << 15


@dataclass(frozen=True)
class GridPrices:
    """Eq. 1's three terms for every candidate placement."""

    t_init: np.ndarray
    t_prefill: np.ndarray
    t_decode: np.ndarray

    def throughput(self, workload: Workload) -> np.ndarray:
        """Generated tokens per second of each candidate."""
        return workload.block_size * workload.gen_len / (
            self.t_init + self.t_prefill + self.t_decode
        )


def price_grid(model: CostModel, wg, cg, hg, wd, menu: StrategyMenu) -> GridPrices:
    """Price many placements in one pass.

    ``model`` fixes the batch geometry, CPU context and calibration; its
    own policy is ignored.  ``menu`` gives each candidate's strategy, and
    ``wg``/``cg``/``hg``/``wd`` are equal-length sequences, one entry per
    candidate.  Candidate-invariant terms (attention and dense compute,
    CPU efficiency) are computed once, the weight terms as arrays over
    ``(wg, wd)`` and the weight-quant mask, and the KV codec once per
    strategy.  The decode matrix keeps tokens on its last, contiguous
    axis and ``breakdown``'s operation order, so ``throughput()`` of every
    candidate is bitwise equal to
    ``CostModel(...).breakdown().throughput(workload)`` at that placement.
    Memory feasibility is the caller's business.
    """
    w = model.w
    s = menu.columns(model)
    cg = np.asarray(cg, dtype=np.float64)
    hg = np.asarray(hg, dtype=np.float64)
    load_weight = model._load_weight_iter_at(wg, wd, s)
    resident_dequant = model._resident_weight_dequant_at(wg, s)
    iters = w.model.num_layers * model.p.num_gpu_batches

    t_prefill = _grouped_step(
        *model._prefill_columns(s, cg, hg, load_weight, resident_dequant)
    ) * iters

    n = w.gen_len - 1
    t_decode = np.zeros(len(cg))
    if n > 0:
        tokens = np.arange(n, dtype=np.float64)
        rows = max(1, DECODE_BLOCK // n)
        for start, stop, policy in menu.runs():
            over = model._kv_overheads_vec(tokens, policy)
            kv_old, kv_new = (0.0, 0.0) if over is None else (
                over.old_dequant_seconds, over.new_quant_seconds
            )
            for lo in range(start, stop, rows):
                block = slice(lo, min(lo + rows, stop))
                step = _grouped_step(*model._decode_columns(
                    tokens, kv_old, kv_new, model.strategy(policy),
                    cg[block, None], hg[block, None],
                    load_weight[block, None], resident_dequant[block, None],
                ))
                t_decode[block] = step.sum(axis=1) * iters
    return GridPrices(model._t_init_at(wg, s), t_prefill, t_decode)
