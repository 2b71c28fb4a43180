"""Offloading policy search (FlexGen-style LP + grid, paper §2.2).

FlexGen formulates placement as a linear program: the six task times are
(piecewise) linear in the placement fractions ``wg``/``cg``/``hg``, the
objective is the overlapped max (Eq. 2), and GPU/CPU memory capacities are
linear constraints.  :class:`PolicyPlanner` implements:

* :meth:`lp_placement` — the LP relaxation for a fixed (attention
  placement, quantization) choice, solved exactly by vertex enumeration
  (:func:`repro.offload.lp.vertex_lp`);
* :meth:`search` — the whole discrete menu (attention placement x
  quantization menu when ``quant_aware``) in one array pass: one
  probe-kernel call gives every strategy's LP rows, and one memory screen
  and one grid pricing cover the candidates of all strategies, each
  carrying its strategy's columns
  (:class:`~repro.perfmodel.latency.StrategyMenu`).  Each strategy's
  winner is validated with the *true* cost model; :meth:`search_fixed`
  is the same pass over a one-strategy menu.

Memory is never modelled here: :func:`memory_bytes` evaluates the cost
model's own peak-byte kernel (``CostModel._weight_bytes_at`` plus
``_memory_columns``) over candidate arrays, and both the grid screen
(:func:`placements`) and the LP's capacity rows read it.

LP solutions are kept in the process-wide ``planner.lp``
:class:`~repro.core.plan_cache.PlanCache`, keyed on the LP's own
numbers: a replan after a fault that changes nothing the LP reads (a CPU
throttle) finds its answers there.

The FlexGen baseline uses ``quant_aware=False`` (it has no model of
quantization cost/benefit, per the paper's critique); LM-Offload uses
``quant_aware=True``.
"""

from __future__ import annotations

import functools
import logging
from dataclasses import dataclass, field
from typing import Iterable, NamedTuple

import numpy as np

from repro.errors import PolicyError, PrescreenMismatchError
from repro.obs.profiling import span
from repro.offload.lp import vertex_lp
from repro.offload.policy import OffloadPolicy
from repro.perfmodel.constants import EngineCalibration
from repro.perfmodel.latency import (
    CostModel,
    CpuExecutionContext,
    StrategyColumns,
    StrategyMenu,
    price_grid,
)
from repro.perfmodel.notation import HardwareParams, Workload
from repro.quant.config import QuantConfig

logger = logging.getLogger(__name__)


def lp_cache():
    """The process-wide ``planner.lp`` cache (bound on use: ``repro.core``
    imports this module)."""
    from repro.core.plan_cache import LP_CACHE

    return LP_CACHE


def solve_lp(t0, t_mat, g0, g_mat, caps) -> tuple[float, ...]:
    """:func:`~repro.offload.lp.vertex_lp`'s fractions through the
    ``planner.lp`` cache, keyed on the shapes and bytes of every input;
    ``()`` when the LP is infeasible."""
    key = tuple((a.shape, a.tobytes()) for a in (t0, t_mat, g0, g_mat, caps))

    def solve() -> tuple[float, ...]:
        try:
            return tuple(vertex_lp(t0, t_mat, g0, g_mat, caps).tolist())
        except PolicyError:
            return ()

    return lp_cache().get(key, solve)


def memory_bytes(
    model: CostModel, wg, cg, hg, wd, s: StrategyColumns
) -> tuple[np.ndarray, np.ndarray]:
    """Peak (GPU, host) bytes of every placement: the cost model's own
    byte kernel over candidate arrays, for the strategy columns ``s``.
    ``model``'s own policy is ignored."""
    wg = np.asarray(wg, dtype=np.float64)
    wd = np.asarray(wd, dtype=np.float64)
    return model._memory_columns(
        *model._weight_bytes_at(wg, wd, s),
        np.asarray(cg, dtype=np.float64), np.asarray(hg, dtype=np.float64), s,
    )


def placements(
    model: CostModel, wg: np.ndarray, cg: np.ndarray, hg: np.ndarray,
    s: StrategyColumns,
) -> tuple[np.ndarray, np.ndarray]:
    """``(fits, wd)``: which placements fit both memories, and the disk
    share each needs (``s`` as in :func:`memory_bytes`).

    A GPU-infeasible candidate is out (the disk tier cannot relieve GPU
    pressure).  A host-infeasible one retries with half, then all, of
    its offloaded weights spilled to disk (FlexGen's third tier).
    """
    hw = model.hw
    wd = np.zeros_like(wg)
    gpu, host = memory_bytes(model, wg, cg, hg, wd, s)
    on_gpu = gpu <= hw.gpu_mem_capacity
    fits = on_gpu & (host <= hw.cpu_mem_capacity)
    for spill in (0.5, 1.0):
        retry = np.flatnonzero(on_gpu & ~fits)
        if retry.size == 0:
            break
        trial = np.array(
            [round((1.0 - x) * spill, 4) for x in wg[retry].tolist()]
        )
        _, host = memory_bytes(
            model, wg[retry], cg[retry], hg[retry], trial, s.rows(retry)
        )
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


def _fractions(template: OffloadPolicy, x) -> tuple[float, float, float]:
    """``(wg, cg, hg)`` from the LP variables ``x`` of ``template``."""
    values = dict(zip(_lp_variables(template), x))
    return values.get("wg", 0.0), values.get("cg", 0.0), values.get("hg", 0.0)


class MenuPrices(NamedTuple):
    """Every candidate of a menu with its strategy (``menu.index``), the
    ones that fit memory (``keep``) and their scores."""

    menu: StrategyMenu
    wg: np.ndarray
    cg: np.ndarray
    hg: np.ndarray
    wd: np.ndarray
    keep: np.ndarray
    scores: np.ndarray


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
    calibration:
        The engine's calibration, so the search scores a policy as the
        engine's report will (paper defaults when ``None``).
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
    calibration: EngineCalibration | None = None

    # -- the discrete menu ---------------------------------------------------

    def _quant_menu(self) -> list[tuple[QuantConfig | None, QuantConfig | None]]:
        if not self.quant_aware:
            return [(None, None)]
        q = self.quant
        if self.require_quant:  # reach: tests/test_chaos_serving.py::test_host_memory_shrink_walks_the_ladder_and_recovers (LM-Offload probes the forced-quantization rungs)
            return [(q, None), (None, q), (q, q)]
        return [(None, None), (q, None), (None, q), (q, q)]

    def _attention_menu(self) -> list[bool]:
        return [True, False] if self.allow_gpu_attention else [True]

    def strategies(self) -> list[tuple[bool, QuantConfig | None, QuantConfig | None]]:
        """The discrete menu in search order: ``(attention_on_cpu,
        weight_quant, kv_quant)``.  KV never crosses the interconnect
        under CPU attention, so quantizing it there only costs time
        (Observation 1) and is left out."""
        return [
            (attn, wq, kq)
            for attn in self._attention_menu()
            for wq, kq in self._quant_menu()
            if not (attn and kq is not None)
        ]

    def _model(self, workload: Workload, policy: OffloadPolicy) -> CostModel:
        return CostModel(workload, policy, self.hw, self.cpu_ctx, self.calibration)

    # -- LP relaxation ---------------------------------------------------------

    def _lp_rows(
        self, model: CostModel, templates: list[OffloadPolicy]
    ) -> list[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]]:
        """Every template's LP coefficients (see :meth:`lp_coefficients`)
        from one probe array: ``nvars + 1`` probe placements per
        strategy, priced in one ``_decode_columns`` call and sized by one
        :func:`memory_bytes` call on ``model``."""
        names = [_lp_variables(t) for t in templates]
        probes = [np.vstack([np.zeros(len(v)), np.eye(len(v))]) for v in names]
        wg, cg, hg = (
            np.concatenate([
                block[:, v.index(x)] if x in v else np.zeros(len(block))
                for block, v in zip(probes, names)
            ])
            for x in ("wg", "cg", "hg")
        )
        wd = np.zeros_like(wg)
        sizes = [len(block) for block in probes]
        menu = StrategyMenu(tuple(templates), np.repeat(np.arange(len(templates)), sizes))
        s = menu.columns(model)
        mid = np.array([max(0, (model.w.gen_len - 1) // 2)], dtype=np.float64)
        kv_old, kv_new = menu.kv_overheads(model, mid)
        lw, lc, la, sc, sa, compute = model._decode_columns(
            mid, kv_old, kv_new, s.rows(np.s_[:, None]), cg[:, None], hg[:, None],
            model._load_weight_iter_at(wg, wd, s)[:, None],
            model._resident_weight_dequant_at(wg, s)[:, None],
        )
        tasks = np.hstack([lw + lc + la, sc + sa, compute])
        mem = np.column_stack(memory_bytes(model, wg, cg, hg, wd, s))
        rows = []
        bounds = np.cumsum([0, *sizes]).tolist()
        for lo, hi in zip(bounds, bounds[1:]):
            t, g = tasks[lo:hi], mem[lo:hi]
            rows.append((t[0], (t[1:] - t[0]).T, g[0], (g[1:] - g[0]).T))
        return rows

    def lp_coefficients(  # reach: tests/test_lp_coefficients.py::test_tab3_lp_coefficients_match_scalar_probes (the one-strategy rows; searches read _lp_rows)
        self, workload: Workload, template: OffloadPolicy
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """The placement LP's affine coefficients ``(t0, t_mat, g0, g_mat)``.

        ``t0`` holds the mid decode token's (h2d, d2h, compute) seconds and
        ``g0`` the (GPU, host) bytes with every LP variable at 0; column
        ``i`` of ``t_mat``/``g_mat`` is the change when variable ``i`` of
        :func:`_lp_variables` goes to 1.  The cost model is affine in each
        fraction, so the differences are exact.
        """
        return self._lp_rows(self._model(workload, template), [template])[0]

    def _caps(self) -> np.ndarray:
        return np.array([self.hw.gpu_mem_capacity, self.hw.cpu_mem_capacity])

    def lp_placement(  # reach: tests/test_offload_planner.py::test_lp_placement_within_bounds (the one-strategy LP; searches solve through solve_lp)
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
            x = solve_lp(*self.lp_coefficients(workload, template), self._caps())
            if not x:
                raise PolicyError(
                    "placement LP infeasible: no vertex satisfies every constraint"
                )
            return _fractions(template, x)

    # -- grid + validation ---------------------------------------------------

    def _candidate_fractions(
        self,
        lp: tuple[float, float, float] | None,
        attention_on_cpu: bool,
        seed: tuple[float, float, float] | None = None,
    ) -> np.ndarray:
        """The LP solution ``lp``'s grid-snapped neighbours (none when the
        LP is infeasible), then a coarse wg grid.

        Returns a ``(3, candidates)`` array of ``(wg, cg, hg)`` columns in
        search order, without duplicates.  ``seed`` (e.g. the fractions a
        previous planning pass settled on) is appended after the standard
        candidates when they do not already contain it, so a known-good
        point is never lost to LP failure or grid resolution.
        """
        snapped: list[tuple[float, float, float]] = []
        if lp is not None:
            wg, cg, hg = lp
            for dwg in (-self.wg_step, 0.0, self.wg_step):
                cand = (
                    float(min(max(round((wg + dwg) / self.wg_step) * self.wg_step, 0.0), 1.0)),
                    round(cg, 2),
                    1.0 if hg >= 0.5 else 0.0,
                )
                if cand not in snapped:
                    snapped.append(cand)
        grid, column = _placement_grid(self.wg_step, attention_on_cpu)
        parts = [
            np.array(snapped, dtype=np.float64).reshape(-1, 3).T,
            np.delete(grid, [column[c] for c in snapped if c in column], axis=1),
        ]
        if seed is not None and seed not in snapped and seed not in column:
            parts.append(np.array(seed, dtype=np.float64).reshape(3, 1))
        return np.concatenate(parts, axis=1)

    def _scores(self, model: CostModel, wg, cg, hg, wd, menu: StrategyMenu) -> np.ndarray:
        """Throughput of every placement of ``menu``'s candidates, in one
        :func:`~repro.perfmodel.latency.price_grid` pass."""
        return price_grid(model, wg, cg, hg, wd, menu).throughput(model.w)

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

    def _price_menu(
        self,
        workload: Workload,
        strategies: list[tuple[bool, QuantConfig | None, QuantConfig | None]],
        seed: OffloadPolicy | None = None,
    ) -> MenuPrices:
        """Every candidate of every strategy, screened and scored in one
        pass: each strategy's candidates (LP points, then the grid minus
        those, then ``seed``'s fractions if it has this strategy) are
        concatenated, and one :func:`placements` screen and one grid pass
        on one :class:`CostModel` cover them all."""
        templates = [
            OffloadPolicy(
                wg=0.0, cg=0.0, hg=0.0, attention_on_cpu=attn, weight_quant=wq,
                kv_quant=kq, gpu_batch_size=workload.gpu_batch_size,
                num_gpu_batches=workload.num_gpu_batches,
            )
            for attn, wq, kq in strategies
        ]
        model = self._model(workload, templates[0])
        caps = self._caps()
        parts = []
        for template, rows in zip(templates, self._lp_rows(model, templates)):
            x = solve_lp(*rows, caps)
            seed_fractions = None
            if seed is not None and (
                seed.attention_on_cpu, seed.weight_quant, seed.kv_quant
            ) == (template.attention_on_cpu, template.weight_quant, template.kv_quant):
                seed_fractions = (seed.wg, seed.cg, seed.hg)
            parts.append(self._candidate_fractions(
                _fractions(template, x) if x else None,
                template.attention_on_cpu, seed_fractions,
            ))
        wg, cg, hg = np.concatenate(parts, axis=1)
        menu = StrategyMenu(
            tuple(templates),
            np.repeat(np.arange(len(templates)), [p.shape[1] for p in parts]),
        )
        fits, wd = placements(model, wg, cg, hg, menu.columns(model))
        keep = np.flatnonzero(fits)
        scores = np.empty(0)
        if keep.size:
            with span("planner.score_grid"):
                scores = self._scores(
                    model, wg[keep], cg[keep], hg[keep], wd[keep], menu.take(keep)
                )
        return MenuPrices(menu, wg, cg, hg, wd, keep, scores)

    def _search_menu(
        self,
        workload: Workload,
        strategies: list[tuple[bool, QuantConfig | None, QuantConfig | None]],
        seed: OffloadPolicy | None = None,
    ) -> list[tuple[OffloadPolicy, float] | None]:
        """Each strategy's best placement and its score (``None`` when no
        placement fits), from one :meth:`_price_menu` pass: the first
        maximum among the strategy's own survivors.  Only winners become
        :class:`OffloadPolicy`, and each one's own ``check_feasible``
        must agree with the array screen."""
        prices = self._price_menu(workload, strategies, seed)
        menu, keep, scores = prices.menu, prices.keep, prices.scores
        bounds = np.searchsorted(
            menu.index[keep], np.arange(len(menu.policies) + 1)
        ).tolist()
        results: list[tuple[OffloadPolicy, float] | None] = []
        for i, template in enumerate(menu.policies):
            lo, hi = bounds[i], bounds[i + 1]
            if lo == hi:
                results.append(None)
                continue
            best = lo + int(np.argmax(scores[lo:hi]))
            win = keep[best]
            policy = template.with_(
                wg=float(prices.wg[win]), cg=float(prices.cg[win]),
                hg=float(prices.hg[win]), wd=float(prices.wd[win]),
            )
            try:
                self._model(workload, policy).check_feasible()
            except PolicyError as exc:
                raise PrescreenMismatchError(
                    f"memory prescreen passed {policy.describe()} "
                    f"(wd={policy.wd}) but the cost model rejects it: {exc}"
                ) from exc
            results.append((policy, float(scores[best])))
        return results

    def search_fixed(
        self,
        workload: Workload,
        attention_on_cpu: bool,
        weight_quant: QuantConfig | None,
        kv_quant: QuantConfig | None,
    ) -> tuple[OffloadPolicy, float]:
        """Best placement fractions for one fixed discrete strategy: the
        stacked pass of :meth:`search` over a one-strategy menu."""
        with span("planner.search_fixed"):
            (result,) = self._search_menu(
                workload, [(attention_on_cpu, weight_quant, kv_quant)]
            )
            if result is None:
                raise PolicyError(
                    f"no feasible placement for {workload.describe()} under "
                    f"attn={'cpu' if attention_on_cpu else 'gpu'}"
                )
            return result

    def search(
        self, workload: Workload, seed: OffloadPolicy | None = None
    ) -> tuple[OffloadPolicy, float]:
        """Best feasible policy for ``workload`` and its modelled tput.

        The whole menu is priced in one pass (:meth:`_search_menu`); the
        first strictly best strategy in menu order wins.  ``seed``
        injects a known-good policy (e.g. the engine's pass-1 result) as
        an extra candidate for its own discrete configuration; it never
        removes candidates, so the search space only grows.
        """
        with span("planner.search"):
            best: tuple[OffloadPolicy, float] | None = None
            for result in self._search_menu(workload, self.strategies(), seed):
                if result is not None and (best is None or result[1] > best[1]):
                    best = result
            if best is None:
                raise PolicyError(
                    f"no feasible policy for {workload.describe()} on this hardware"
                )
            return best
