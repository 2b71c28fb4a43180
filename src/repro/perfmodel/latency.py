"""Six-task cost model and end-to-end latency (paper Eqs. 1-9).

:class:`CostModel` binds (workload, policy, hardware, CPU execution
context, calibration) and produces:

* per-iteration :class:`~repro.runtime.tasks.TaskCosts` for prefill and for
  each decode token (the KV cache grows, so decode costs are per-token);
* the overlapped per-token step time — both the paper's literal Eq. 2 (max
  over the six tasks) and the resource-grouped variant (tasks sharing a
  PCIe direction serialize) that the discrete-event executor validates;
* an end-to-end :class:`LatencyBreakdown` (Eq. 1) with the quantization
  overhead split (Figure 4) and the I/O traffic (Table 1).

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


def _grouped_step(load_weight, load_cache, load_act, store_cache, store_act, compute):
    """Resource-grouped Eq. 2 on broadcastable task costs: the three H2D
    loads share a PCIe direction, the two D2H stores the other."""
    h2d = load_weight + load_cache + load_act
    d2h = store_cache + store_act
    return np.maximum(np.maximum(h2d, d2h), compute)


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
        self._memo: dict[str, float | tuple[float, float]] = {}
        #: Cached feasibility verdict: ``None`` until checked, then ``True``
        #: or the :class:`PolicyError` to re-raise.  Lets an explicit
        #: ``check_feasible()`` and ``breakdown()`` share one memory check.
        self._feasible: bool | PolicyError | None = None

    # -- effective rates -----------------------------------------------------

    @property
    def pcie_bw(self) -> float:
        """Achieved PCIe bytes/s per direction."""
        return self.hw.pcie_bdw * self.cal.pcie_efficiency

    # -- stored byte sizes -----------------------------------------------------

    def offloaded_weight_bytes_per_layer(self) -> float:
        """Stored bytes of the CPU-resident weight share of one layer."""
        if "offloaded_weight_bytes" not in self._memo:
            self._memo["offloaded_weight_bytes"] = self._offloaded_weight_bytes(
                self.p.wc
            )
        return self._memo["offloaded_weight_bytes"]

    def _offloaded_weight_bytes(self, wc: float) -> float:
        """Stored bytes of one layer's weights with ``wc`` of them off-GPU."""
        n = self.w.model.weights_per_layer * wc
        if n == 0:
            return 0.0
        if self.p.weight_quant is not None:
            return self.p.weight_quant.total_bytes(n)
        return n * dtype_bytes("fp16")

    def _resident_weight_dequant_iter(self) -> float:
        """Per-iteration dequant of compressed resident weights (on the
        compute stream — the weights are unpacked at point of use)."""
        if "resident_weight_dequant" not in self._memo:
            self._memo["resident_weight_dequant"] = self._resident_weight_dequant_at(
                self.p.wg
            )
        return self._memo["resident_weight_dequant"]

    def _resident_weight_dequant_at(self, wg: float) -> float:
        """:meth:`_resident_weight_dequant_iter` with ``wg`` GPU-resident."""
        if not (self.p.quantize_resident_weights and self.p.weight_quant):
            return 0.0
        if wg == 0:
            return 0.0
        over = weight_quant_overheads(self.w, wg, self.cal.codec)
        return over.dequantize_seconds / self.p.num_gpu_batches

    def kv_store_bytes_per_token(self) -> float:
        """Stored bytes of one token's KV entries (whole block, one layer)."""
        if "kv_store_bytes" not in self._memo:
            elements = self.fp.kv_elements_per_token_per_layer
            if self.p.kv_quant is not None:
                value = self.p.kv_quant.total_bytes(elements)
            else:
                value = elements * dtype_bytes("fp16")
            self._memo["kv_store_bytes"] = value
        return self._memo["kv_store_bytes"]

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
            p = self.p
            self._memo["memory_bytes"] = self._memory_columns(
                *self._weight_bytes_at(p.wg, p.wd), p.cg, p.hg
            )
        return self._memo["memory_bytes"]

    def _weight_bytes_at(self, wg: float, wd: float) -> tuple[float, float]:
        """(GPU, host) bytes of the weights with ``wg`` GPU- and ``wd``
        disk-resident: the resident share (compressed when the policy
        stores it quantized, as ZeRO-Inference's 4-bit mode does) plus the
        working layers, and the offloaded share net of what sits on disk."""
        l = self.w.model.num_layers
        n = self.w.model.weights_per_layer
        if self.p.quantize_resident_weights and self.p.weight_quant is not None:
            resident = self.p.weight_quant.total_bytes(n * wg)
        else:
            resident = n * wg * dtype_bytes("fp16")
        wc = 1.0 - wg
        # Uncompressed working weights: current + prefetch when layers
        # stream from the host; a single dequantization buffer when all
        # weights are resident (ZeRO-Inference's mode).
        working_layers = 2 if wc > 0 else 1
        gpu = resident * l + working_layers * n * dtype_bytes("fp16")
        offloaded = self._offloaded_weight_bytes(wc)
        host = offloaded * l
        if wc > 0 and wd > 0:
            # Disk-resident weights only occupy a 2-layer staging window
            # in host memory, not their full footprint.
            disk_share = wd / wc
            host = host * (1.0 - disk_share) + min(2 * offloaded, host * disk_share)
        return gpu, host

    def _memory_columns(self, weights_gpu, weights_host, cg, hg) -> tuple:
        """Peak (GPU, host) bytes from :meth:`_weight_bytes_at`'s weight
        terms plus the KV cache and activations.  Every argument is a
        scalar or a ``(candidates,)`` array, so one placement and a whole
        search grid read the same formula."""
        w = self.w
        tokens = w.prompt_len + w.gen_len
        kv_total = tokens * self.kv_store_bytes_per_token() * w.model.num_layers
        act = self.fp.activation_bytes_per_layer
        if self.p.attention_on_cpu:
            gpu = weights_gpu
            host_kv = kv_total
        else:
            # The GPU share of the cache, plus a working buffer for one
            # layer's (dequantized) cache slice.
            gpu = weights_gpu + (
                cg * kv_total
                + tokens
                * self.fp.kv_elements_per_token_per_layer
                * dtype_bytes("fp16")
                / self.p.num_gpu_batches
            )
            host_kv = (1.0 - cg) * kv_total
        gpu = gpu + act * (2 + 2 * hg)
        host = weights_host + host_kv + act * 2 * (1.0 - hg)
        return gpu, host

    def check_feasible(self) -> None:
        """Raise :class:`PolicyError` when the policy overflows a memory.

        The verdict is computed once per model instance and replayed on
        subsequent calls, so ``check_feasible()`` + ``breakdown()`` pay
        for a single memory-requirement pass.
        """
        if self._feasible is True:
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
        if cpu_need > self.hw.cpu_mem_capacity:
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
            self._memo["load_weight_iter"] = self._load_weight_iter_at(
                self.p.wg, self.p.wd
            )
        return self._memo["load_weight_iter"]

    def _load_weight_iter_at(self, wg: float, wd: float) -> float:
        """:meth:`_load_weight_iter` with ``wg`` GPU- and ``wd`` disk-resident."""
        wc = 1.0 - wg
        per_iter = self._offloaded_weight_bytes(wc) / self.p.num_gpu_batches
        wire = per_iter / self.pcie_bw
        stage = self.ctx.staging_seconds("load_weight", per_iter)
        t = max(wire, stage)
        if wd > 0 and wc > 0:
            # The disk-resident slice of the offloaded share must first
            # reach host memory at disk bandwidth (pipelined with PCIe, so
            # the slower leg dominates).
            disk_per_iter = per_iter * (wd / wc)
            t = max(t, disk_per_iter / self.hw.disk_bdw)
        if self.p.weight_quant is not None and wc > 0:
            over = weight_quant_overheads(self.w, wc, self.cal.codec)
            t += over.dequantize_seconds / self.p.num_gpu_batches
        return t

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
        self, token_indices: np.ndarray
    ) -> KVQuantOverheadsVec | None:
        """Per-token KV codec overheads on the device the policy runs the
        codec on, for all ``token_indices`` at once (``None`` without
        ``kv_quant``)."""
        if self.p.kv_quant is None:
            return None
        device = "cpu" if self.p.attention_on_cpu else "gpu"
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
        columns = self._decode_columns(
            tokens, kv_over, p.cg, p.hg,
            self._load_weight_iter(), self._resident_weight_dequant_iter(),
        )
        out = np.empty((tokens.shape[0], 6), dtype=np.float64)
        for i, column in enumerate(columns):
            out[:, i] = column
        return out

    def _decode_columns(
        self,
        tokens: np.ndarray,
        kv_over: KVQuantOverheadsVec | None,
        cg,
        hg,
        load_weight,
        resident_dequant,
    ) -> tuple:
        """The six decode task costs, in ``TASK_FIELD_NAMES`` order.

        ``tokens`` runs along the last axis.  The placement-dependent
        inputs (``cg``, ``hg`` and the per-iteration ``load_weight`` and
        resident-weight dequant seconds) are either this policy's scalars
        or ``(candidates, 1)`` columns, so :meth:`decode_task_costs_vec`
        (and its one-row view :meth:`decode_task_costs`),
        :func:`price_grid` and the planner's LP coefficients share one
        formula and one operation order.
        """
        w, p = self.w, self.p
        ctx_len = w.prompt_len + 1 + tokens
        k = p.num_gpu_batches

        act_bytes = self.fp.activation_bytes_per_layer
        # Activations cross PCIe for the offloaded share; CPU attention
        # additionally ships the attention output up every layer.
        act_flow = act_bytes * np.maximum(
            1.0 - hg, 1.0 if p.attention_on_cpu else 0.0
        )
        load_act = act_flow / k / self.pcie_bw
        store_act = act_flow / k / self.pcie_bw

        flops, kv_bytes = self._attention_flops_bytes(ctx_len, 1)

        if p.attention_on_cpu:
            load_cache = 0.0
            store_cache = 0.0
            rates = self.cal.attention
            share = self.ctx.cpu_share
            flop_rate = min(
                rates.cpu_flops_per_thread * self._eff, rates.cpu_flops_ceiling
            ) * share
            bw_rate = min(
                rates.cpu_bw_per_thread * self._eff, rates.cpu_bw_ceiling
            ) * share
            # One gpu_batch iteration of offloaded attention.
            cpu_attn = np.maximum(flops / flop_rate, kv_bytes / bw_rate)
            if kv_over is not None:
                cpu_attn = cpu_attn + (
                    kv_over.old_dequant_seconds + kv_over.new_quant_seconds
                ) / k
            compute = np.maximum(cpu_attn, self._gpu_dense_seconds(1))
        else:
            stored = self.kv_store_bytes_per_token()
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
            compute = gpu_attn + self._gpu_dense_seconds(1)
            if kv_over is not None:
                # Streamed share: codec charged to the cache tasks (Eqs. 6-7).
                load_cache = (
                    load_cache
                    + kv_over.old_dequant_seconds * streamed_share / k
                )
                store_cache = (
                    store_cache + kv_over.new_quant_seconds * streamed_share / k
                )
                # Resident share: codec runs when the cache is used/updated.
                compute = compute + (
                    kv_over.old_dequant_seconds + kv_over.new_quant_seconds
                ) * cg / k

        compute = compute + resident_dequant
        return load_weight, load_cache, load_act, store_cache, store_act, compute

    def prefill_task_costs(self) -> TaskCosts:
        """Per-iteration costs of the prefill pass (all prompt tokens)."""
        return TaskCosts(*self._prefill_columns(
            self.p.cg, self.p.hg,
            self._load_weight_iter(), self._resident_weight_dequant_iter(),
        ))

    def _prefill_columns(self, cg, hg, load_weight, resident_dequant) -> tuple:
        """The six prefill task costs, in ``TASK_FIELD_NAMES`` order, for
        scalar or per-candidate placement inputs (see
        :meth:`_decode_columns`)."""
        w, p = self.w, self.p
        s = w.prompt_len
        k = p.num_gpu_batches
        # Prefill attention/MLP always run on the GPU (paper Fig. 2, 1.2).
        compute = self._gpu_attention_seconds(s, s) + self._gpu_dense_seconds(s)
        resident = 0.0 if p.attention_on_cpu else cg
        pf_bytes = (s + 1) * self.kv_store_bytes_per_token() * (1.0 - resident)
        store_cache = pf_bytes / k / self.pcie_bw
        if p.kv_quant is not None:
            over = kv_quant_overheads(w, self.cal.codec, device="gpu")
            compute += over.prefill_quant_seconds / k  # Eq. 5
        compute += resident_dequant
        act_flow = self.fp.prefill_activation_bytes_per_layer * (1.0 - hg)
        load_act = act_flow / k / self.pcie_bw
        return load_weight, 0.0, load_act, store_cache, load_act, compute

    # -- aggregation ---------------------------------------------------------

    @staticmethod
    def step_seconds(costs: TaskCosts, literal_eq2: bool = False) -> float:
        """Per-iteration overlapped time.

        ``literal_eq2=True`` reproduces Eq. 2 exactly (max over six tasks).
        The default groups tasks by physical resource — the three H2D loads
        share a PCIe direction and serialize — matching the discrete-event
        executor.
        """
        if literal_eq2:
            return costs.step_time()
        return float(_grouped_step(*costs.as_tuple()))

    @staticmethod
    def step_seconds_vec(costs: np.ndarray, literal_eq2: bool = False) -> np.ndarray:
        """Vectorized :meth:`step_seconds` over an ``(n, 6)`` cost matrix
        (columns in :data:`~repro.runtime.tasks.TASK_FIELD_NAMES` order)."""
        if literal_eq2:
            return costs.max(axis=1)
        return _grouped_step(*(costs[:, i] for i in range(6)))

    def t_init_seconds(self) -> float:
        """Eq. 3: disk -> host weight load + one-time weight quantization."""
        return self._t_init_at(self.p.wg)

    def _t_init_at(self, wg: float) -> float:
        """:meth:`t_init_seconds` with ``wg`` of the weights GPU-resident."""
        t = 0.0
        if not self.weights_preloaded:
            t += self.fp.total_weight_bytes / self.hw.disk_bdw
        wc = 1.0 - wg
        if self.p.weight_quant is not None and wc > 0:
            over = weight_quant_overheads(self.w, wc, self.cal.codec)
            t += over.quantize_seconds * self.w.model.num_layers
        return t

    def decode_seconds(self, literal_eq2: bool = False) -> float:
        """Total decode time across (n-1) tokens (Eq. 1's third term),
        every token priced in one NumPy pass."""
        iters = self.w.model.num_layers * self.p.num_gpu_batches
        tokens = np.arange(self.w.gen_len - 1, dtype=np.float64)
        costs = self.decode_task_costs_vec(tokens)
        return float(self.step_seconds_vec(costs, literal_eq2).sum() * iters)

    def breakdown(self, literal_eq2: bool = False) -> LatencyBreakdown:
        """Assemble Eq. 1 end to end, with reporting detail.

        All decode tokens (task costs *and* KV codec overheads) are priced
        in one vectorized pass.
        """
        self.check_feasible()
        w, p = self.w, self.p
        iters = w.model.num_layers * p.num_gpu_batches

        pf = self.prefill_task_costs()
        t_prefill = self.step_seconds(pf, literal_eq2) * iters

        tokens = np.arange(w.gen_len - 1, dtype=np.float64)
        kv_over = self._kv_overheads_vec(tokens)
        costs = self.decode_task_costs_vec(tokens, kv_over=kv_over)
        t_decode = float(self.step_seconds_vec(costs, literal_eq2).sum() * iters)
        col_totals = costs.sum(axis=0)
        task_totals = {
            name: pf_v * iters + col * iters
            for name, pf_v, col in zip(TASK_FIELD_NAMES, pf.as_tuple(), col_totals)
        }
        mid_idx = max(0, (w.gen_len - 1) // 2)
        if costs.shape[0] > 0:
            mid = TaskCosts(*costs[mid_idx])
        else:
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
            if kv_over is None:
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
        if p.wc > 0 and p.wd > 0:
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


@dataclass(frozen=True)
class GridPrices:
    """Eq. 1's three terms for every candidate placement of one strategy."""

    t_init: np.ndarray
    t_prefill: np.ndarray
    t_decode: np.ndarray
    #: ``(candidates, tokens)`` resource-grouped decode step seconds; row
    #: ``i``, column ``t`` prices decode token ``t`` of candidate ``i``.  A
    #: ``gen_len=1`` workload decodes nothing but still gets column 0.
    step: np.ndarray

    def throughput(self, workload: Workload) -> np.ndarray:
        """Generated tokens per second of each candidate."""
        return workload.block_size * workload.gen_len / (
            self.t_init + self.t_prefill + self.t_decode
        )


def per_weight_split(fn, wg, wd) -> np.ndarray:
    """``fn(wg, wd)`` evaluated once per distinct ``(wg, wd)`` pair and
    gathered to one row per candidate.

    Terms that depend only on how the weights split across GPU, host and
    disk stay scalar formulas: a grid has ~20 distinct splits among ~170
    candidates.
    """
    index: dict[tuple[float, float], int] = {}
    rows = [
        index.setdefault(pair, len(index))
        for pair in zip(np.ravel(wg).tolist(), np.ravel(wd).tolist())
    ]
    return np.array([fn(*pair) for pair in index]).reshape(len(index), -1)[rows]


def price_grid(model: CostModel, wg, cg, hg, wd) -> GridPrices:
    """Price many placements of ``model``'s discrete strategy in one pass.

    ``model`` fixes everything but the placement (attention placement,
    W/KV quantization, batch geometry, CPU context, calibration); its own
    fractions are ignored.  ``wg``/``cg``/``hg``/``wd`` are equal-length
    sequences, one entry per candidate.  Candidate-invariant terms (KV
    codec overheads, attention and dense compute, CPU efficiency) are
    computed once; terms that depend only on ``(wg, wd)`` are computed
    once per distinct pair and gathered.  The decode matrix keeps tokens
    on its last, contiguous axis and ``breakdown``'s operation order, so
    ``throughput()`` of every candidate is bitwise equal to
    ``CostModel(...).breakdown().throughput(workload)`` at that placement.
    Memory feasibility is the caller's business.
    """
    w = model.w
    load_weight, resident_dequant, t_init = per_weight_split(
        lambda a, d: (
            model._load_weight_iter_at(a, d),
            model._resident_weight_dequant_at(a),
            model._t_init_at(a),
        ),
        wg, wd,
    ).T
    cg = np.asarray(cg, dtype=np.float64)
    hg = np.asarray(hg, dtype=np.float64)
    iters = w.model.num_layers * model.p.num_gpu_batches

    t_prefill = _grouped_step(
        *model._prefill_columns(cg, hg, load_weight, resident_dequant)
    ) * iters

    n = w.gen_len - 1
    tokens = np.arange(max(n, 1), dtype=np.float64)
    step = _grouped_step(*model._decode_columns(
        tokens, model._kv_overheads_vec(tokens), cg[:, None], hg[:, None],
        load_weight[:, None], resident_dequant[:, None],
    ))
    t_decode = step.sum(axis=1) * iters if n > 0 else np.zeros(len(cg))
    return GridPrices(t_init, t_prefill, t_decode, step)
