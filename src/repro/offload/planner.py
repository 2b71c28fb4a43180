"""Offloading policy search (FlexGen-style LP + grid, paper §2.2).

FlexGen formulates placement as a linear program: the six task times are
(piecewise) linear in the placement fractions ``wg``/``cg``/``hg``, the
objective is the overlapped max (Eq. 2), and GPU/CPU memory capacities are
linear constraints.  :class:`PolicyPlanner` implements:

* :meth:`lp_placement` — the LP relaxation for a fixed (attention
  placement, quantization) choice, solved exactly by vertex enumeration
  (:func:`repro.offload.lp.vertex_lp`);
* :meth:`search` — enumerate the discrete choices (attention placement x
  quantization menu when ``quant_aware``), solve/grid each, validate with
  the *true* cost model, and return the best feasible policy.

Memory is never modelled here: :func:`memory_bytes` evaluates the cost
model's own peak-byte kernel (``CostModel._weight_bytes_at`` plus
``_memory_columns``) over candidate arrays, and both the grid screen
(:func:`placements`) and the LP's capacity rows read it.

The FlexGen baseline uses ``quant_aware=False`` (it has no model of
quantization cost/benefit, per the paper's critique); LM-Offload uses
``quant_aware=True``.
"""

from __future__ import annotations

import functools
import logging
from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from repro.errors import PolicyError, PrescreenMismatchError
from repro.obs.profiling import span
from repro.offload.lp import vertex_lp
from repro.offload.policy import OffloadPolicy
from repro.perfmodel.latency import (
    CostModel,
    CpuExecutionContext,
    per_weight_split,
    price_grid,
)
from repro.perfmodel.notation import HardwareParams, Workload
from repro.quant.config import QuantConfig

logger = logging.getLogger(__name__)


def memory_bytes(model: CostModel, wg, cg, hg, wd) -> tuple[np.ndarray, np.ndarray]:
    """Peak (GPU, host) bytes of every placement of ``model``'s strategy.

    The cost model's own byte kernel over candidate arrays: its weight
    terms are computed once per distinct ``(wg, wd)`` split and gathered,
    the KV and activation terms in one array pass.  ``model``'s own
    fractions are ignored.
    """
    weights = per_weight_split(model._weight_bytes_at, wg, wd)
    return model._memory_columns(
        weights[:, 0], weights[:, 1],
        np.asarray(cg, dtype=np.float64), np.asarray(hg, dtype=np.float64),
    )


def placements(
    model: CostModel, wg: np.ndarray, cg: np.ndarray, hg: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """``(fits, wd)``: which placements of ``model``'s strategy fit both
    memories, and the disk share each needs.

    A GPU-infeasible candidate is out (the disk tier cannot relieve GPU
    pressure).  A host-infeasible one retries with half, then all, of
    its offloaded weights spilled to disk (FlexGen's third tier).
    """
    hw = model.hw
    wd = np.zeros_like(wg)
    gpu, host = memory_bytes(model, wg, cg, hg, wd)
    on_gpu = gpu <= hw.gpu_mem_capacity
    fits = on_gpu & (host <= hw.cpu_mem_capacity)
    for spill in (0.5, 1.0):
        retry = np.flatnonzero(on_gpu & ~fits)
        if retry.size == 0:
            break
        trial = np.array(
            [round((1.0 - x) * spill, 4) for x in wg[retry].tolist()]
        )
        _, host = memory_bytes(model, wg[retry], cg[retry], hg[retry], trial)
        ok = host <= hw.cpu_mem_capacity
        wd[retry[ok]] = trial[ok]
        fits[retry[ok]] = True
    return fits, wd


@functools.lru_cache(maxsize=None)
def _placement_grid(
    wg_step: float, attention_on_cpu: bool
) -> tuple[np.ndarray, dict[tuple[float, float, float], int]]:
    """The coarse placement grid in search order (``wg`` outermost, then
    ``hg``, then ``cg``): a read-only ``(3, points)`` array of distinct
    ``(wg, cg, hg)`` columns, and each point's column index."""
    column: dict[tuple[float, float, float], int] = {}
    cgs = (0.0,) if attention_on_cpu else (0.0, 0.25, 0.5, 1.0)
    for wg in np.arange(0.0, 1.0 + 1e-9, wg_step):
        for hg in (0.0, 1.0):
            for cg in cgs:
                column.setdefault((round(float(wg), 2), cg, hg), len(column))
    grid = np.array(list(column), dtype=np.float64).T
    grid.flags.writeable = False
    return grid, column


def _lp_variables(template: OffloadPolicy) -> tuple[str, ...]:
    """The placement LP's fraction variables, in column order; under CPU
    attention ``cg`` is pinned to 0 by the policy invariant."""
    return ("wg", "hg") if template.attention_on_cpu else ("wg", "cg", "hg")


@dataclass
class PolicyPlanner:
    """Searches placement/quantization for a workload on given hardware.

    Parameters
    ----------
    hw:
        Hardware rates and capacities.
    cpu_ctx:
        CPU execution context used to cost candidate policies.
    quant_aware:
        Whether the search may choose quantization (LM-Offload) or must
        leave tensors uncompressed (FlexGen's model-blind search).
    quant:
        The quantizer considered when ``quant_aware``.
    wg_step:
        Grid resolution for the weights-on-GPU fraction.
    """

    hw: HardwareParams
    cpu_ctx: CpuExecutionContext
    quant_aware: bool = True
    quant: QuantConfig = field(default_factory=lambda: QuantConfig(bits=4, group_size=64))
    wg_step: float = 0.05
    allow_gpu_attention: bool = True
    #: Degraded-mode lever: drop the unquantized candidate from the menu so
    #: the search must pick a quantized W/KV configuration (the ladder's
    #: "aggressive quantization" rung under memory/wire pressure).
    require_quant: bool = False

    # -- quantization menu ---------------------------------------------------

    def _quant_menu(self) -> list[tuple[QuantConfig | None, QuantConfig | None]]:
        if not self.quant_aware:
            return [(None, None)]
        q = self.quant
        if self.require_quant:  # reach: tests/test_chaos_serving.py::test_host_memory_shrink_walks_the_ladder_and_recovers (LM-Offload probes the forced-quantization rungs)
            return [(q, None), (None, q), (q, q)]
        return [(None, None), (q, None), (None, q), (q, q)]

    def _attention_menu(self) -> list[bool]:
        return [True, False] if self.allow_gpu_attention else [True]

    # -- LP relaxation ---------------------------------------------------------

    def lp_coefficients(
        self, workload: Workload, template: OffloadPolicy
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """The placement LP's affine coefficients ``(t0, t_mat, g0, g_mat)``.

        ``t0`` holds the mid decode token's (h2d, d2h, compute) seconds and
        ``g0`` the (GPU, host) bytes with every LP variable at 0; column
        ``i`` of ``t_mat``/``g_mat`` is the change when variable ``i`` of
        :func:`_lp_variables` goes to 1.  All ``nvars + 1`` probe
        placements are priced in one ``_decode_columns`` call and sized by
        one :func:`memory_bytes` call, both kernels of the same
        :class:`CostModel`; the model is affine in each fraction, so the
        differences are exact.
        """
        names = _lp_variables(template)
        probes = np.vstack([np.zeros(len(names)), np.eye(len(names))])
        wg, cg, hg = (
            probes[:, names.index(v)] if v in names else np.zeros(len(probes))
            for v in ("wg", "cg", "hg")
        )
        wd = np.full_like(wg, template.wd)
        model = CostModel(workload, template, self.hw, self.cpu_ctx)
        load_weight, resident_dequant = per_weight_split(
            lambda a, d: (
                model._load_weight_iter_at(a, d),
                model._resident_weight_dequant_at(a),
            ),
            wg, wd,
        ).T
        mid = np.array([max(0, (workload.gen_len - 1) // 2)], dtype=np.float64)
        lw, lc, la, sc, sa, compute = model._decode_columns(
            mid, model._kv_overheads_vec(mid), cg[:, None], hg[:, None],
            load_weight[:, None], resident_dequant[:, None],
        )
        tasks = np.hstack([lw + lc + la, sc + sa, compute])
        mem = np.column_stack(memory_bytes(model, wg, cg, hg, wd))
        return tasks[0], (tasks[1:] - tasks[0]).T, mem[0], (mem[1:] - mem[0]).T

    def lp_placement(
        self,
        workload: Workload,
        template: OffloadPolicy,
    ) -> tuple[float, float, float]:
        """Solve the placement LP for a fixed discrete configuration.

        Variables ``x = (wg, cg, hg, t)``; minimise ``t`` subject to
        ``t >= h2d(x)``, ``t >= d2h(x)``, ``t >= compute`` and the two
        memory capacities, with the coefficients of
        :meth:`lp_coefficients`.

        Returns the relaxed ``(wg, cg, hg)`` of the canonical optimal
        vertex that :func:`~repro.offload.lp.vertex_lp` picks; raises
        :class:`PolicyError` when the LP is infeasible.
        """
        with span("planner.lp_placement"):
            names = _lp_variables(template)
            t0, t_mat, g0, g_mat = self.lp_coefficients(workload, template)
            caps = np.array([self.hw.gpu_mem_capacity, self.hw.cpu_mem_capacity])
            values = dict(zip(names, vertex_lp(t0, t_mat, g0, g_mat, caps).tolist()))
            return (
                values.get("wg", 0.0),
                values.get("cg", 0.0),
                values.get("hg", 0.0),
            )

    # -- grid + validation ---------------------------------------------------

    def _candidate_fractions(
        self,
        workload: Workload,
        template: OffloadPolicy,
        seed: tuple[float, float, float] | None = None,
    ) -> np.ndarray:
        """LP solution, its grid-snapped neighbours, and a coarse wg grid.

        Returns a ``(3, candidates)`` array of ``(wg, cg, hg)`` columns in
        search order, without duplicates.  ``seed`` (e.g. the fractions a
        previous planning pass settled on) is appended after the standard
        candidates when they do not already contain it, so a known-good
        point is never lost to LP failure or grid resolution.
        """
        lp: list[tuple[float, float, float]] = []
        try:
            wg, cg, hg = self.lp_placement(workload, template)
            for dwg in (-self.wg_step, 0.0, self.wg_step):
                cand = (
                    float(np.clip(round((wg + dwg) / self.wg_step) * self.wg_step, 0, 1)),
                    round(cg, 2),
                    1.0 if hg >= 0.5 else 0.0,
                )
                if cand not in lp:
                    lp.append(cand)
        except PolicyError:
            pass
        grid, column = _placement_grid(self.wg_step, template.attention_on_cpu)
        parts = [
            np.array(lp, dtype=np.float64).reshape(-1, 3).T,
            np.delete(grid, [column[c] for c in lp if c in column], axis=1),
        ]
        if seed is not None and seed not in lp and seed not in column:
            parts.append(np.array(seed, dtype=np.float64).reshape(3, 1))
        return np.concatenate(parts, axis=1)

    def _scores(self, model: CostModel, wg, cg, hg, wd) -> np.ndarray:
        """Throughput of every placement of ``model``'s strategy, in one
        :func:`~repro.perfmodel.latency.price_grid` pass."""
        return price_grid(model, wg, cg, hg, wd).throughput(model.w)

    def search_batch_geometry(
        self,
        workload: Workload,
        batch_candidates: Iterable[int] = (4, 8, 16, 32, 64, 128, 256),
        num_batch_candidates: Iterable[int] = (1, 2, 4, 8, 12),
    ) -> tuple[OffloadPolicy, Workload, float]:
        """Jointly search placement *and* batch geometry.

        FlexGen's full policy search includes the block shape; this method
        sweeps (gpu_batch_size, num_gpu_batches) and runs :meth:`search`
        for each, returning the best (policy, reshaped workload, score).
        """
        best: tuple[float, OffloadPolicy, Workload] | None = None
        self.last_geometry_failures: list[tuple[int, int, str]] = []
        for bsz in batch_candidates:
            for k in num_batch_candidates:
                trial = workload.with_batches(bsz, k)
                try:
                    policy, score = self.search(trial)
                except PolicyError as exc:
                    logger.debug(
                        "batch geometry bsz=%d k=%d infeasible: %s", bsz, k, exc
                    )
                    self.last_geometry_failures.append((bsz, k, str(exc)))
                    continue
                if best is None or score > best[0]:
                    best = (score, policy, trial)
        if best is None:  # reach: safety code, no batch geometry fits (tests/test_perfmodel_vectorized.py::test_search_batch_geometry_records_failures)
            failures = self.last_geometry_failures
            detail = f"; e.g. bsz={failures[0][0]} k={failures[0][1]}: {failures[0][2]}" if failures else ""
            raise PolicyError(
                f"no feasible batch geometry for {workload.model.name} "
                f"({len(failures)} geometries rejected{detail})"
            )
        return best[1], best[2], best[0]

    def search_fixed(
        self,
        workload: Workload,
        attention_on_cpu: bool,
        weight_quant: QuantConfig | None,
        kv_quant: QuantConfig | None,
        seed_fractions: tuple[float, float, float] | None = None,
    ) -> tuple[OffloadPolicy, float]:
        """Best placement fractions for one fixed discrete strategy.

        The whole candidate set is screened by :func:`placements`
        (disk-spill retries included) and the survivors are scored in one
        grid pass, both on one template :class:`CostModel`; the first
        maximum wins.  Only the winner becomes an :class:`OffloadPolicy`,
        and its own one-row ``check_feasible`` must agree with the array
        screen.
        """
        with span("planner.search_fixed"):
            template = OffloadPolicy(
                wg=0.0,
                cg=0.0,
                hg=0.0,
                attention_on_cpu=attention_on_cpu,
                weight_quant=weight_quant,
                kv_quant=kv_quant,
                gpu_batch_size=workload.gpu_batch_size,
                num_gpu_batches=workload.num_gpu_batches,
            )
            wg, cg, hg = self._candidate_fractions(
                workload, template, seed_fractions
            )
            model = CostModel(workload, template, self.hw, self.cpu_ctx)
            fits, wd = placements(model, wg, cg, hg)
            keep = np.flatnonzero(fits)
            if keep.size == 0:
                raise PolicyError(
                    f"no feasible placement for {workload.describe()} under "
                    f"attn={'cpu' if attention_on_cpu else 'gpu'}"
                )
            with span("planner.score_grid"):
                scores = self._scores(model, wg[keep], cg[keep], hg[keep], wd[keep])
            best = int(np.argmax(scores))
            win = keep[best]
            policy = template.with_(
                wg=float(wg[win]), cg=float(cg[win]), hg=float(hg[win]),
                wd=float(wd[win]),
            )
            try:
                CostModel(workload, policy, self.hw, self.cpu_ctx).check_feasible()
            except PolicyError as exc:
                raise PrescreenMismatchError(
                    f"memory prescreen passed {policy.describe()} "
                    f"(wd={policy.wd}) but the cost model rejects it: {exc}"
                ) from exc
            return policy, float(scores[best])

    def search(
        self, workload: Workload, seed: OffloadPolicy | None = None
    ) -> tuple[OffloadPolicy, float]:
        """Best feasible policy for ``workload`` and its modelled tput.

        ``seed`` injects a known-good policy (e.g. the engine's pass-1
        result) as an extra candidate for its own discrete configuration;
        it never removes candidates, so the search space only grows.
        """
        with span("planner.search"):
            return self._search(workload, seed)

    def _search(
        self, workload: Workload, seed: OffloadPolicy | None = None
    ) -> tuple[OffloadPolicy, float]:
        best: tuple[float, OffloadPolicy] | None = None
        for attn_cpu in self._attention_menu():
            for wq, kq in self._quant_menu():
                if attn_cpu and kq is not None:
                    # KV never crosses the interconnect: quantizing it only
                    # costs time (Observation 1); skip.
                    continue
                seed_fractions = None
                if (
                    seed is not None
                    and seed.attention_on_cpu == attn_cpu
                    and seed.weight_quant == wq
                    and seed.kv_quant == kq
                ):
                    seed_fractions = (seed.wg, seed.cg, seed.hg)
                try:
                    policy, tput = self.search_fixed(
                        workload, attn_cpu, wq, kq, seed_fractions
                    )
                except PolicyError:
                    continue
                if best is None or tput > best[0]:
                    best = (tput, policy)
        if best is None:
            raise PolicyError(
                f"no feasible policy for {workload.describe()} on this hardware"
            )
        return best[1], best[0]
