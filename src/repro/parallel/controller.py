"""Algorithm 3: thread-level parallelism management.

The controller decides, for the decode phase:

* ``intra_op`` threads for compute-task operators (one shared value — the
  paper applies the same intra-op parallelism to all compute ops to avoid
  cache misses from reconfiguration and scheduling overhead);
* ``inter_op`` slots for the compute task, estimated from the max
  concurrency level of the (bundled) op dependency graph via Kahn's
  algorithm, capped so at least five threads remain;
* a thread budget for each of the five load/store tasks, proportional to
  its data-transfer volume.

Each candidate is scored with the cost model's own formulas, so the
controller optimises exactly what :class:`~repro.perfmodel.latency.CostModel`
later prices: :func:`compute_makespan` (the contention-adjusted list
schedule of the op graph, also behind
``CpuExecutionContext.parallel_efficiency``) for the compute task, and
:func:`staging_seconds` floored by the interconnect time for the I/O tasks.
The contention model plays the paper's offline operator profile — no
online measurement, exactly as §4.2 prescribes.

Because that profile is offline, the compute half of the search is a pure
function of the platform and the op graph: it never reads the workload's
I/O volumes.  Each graph's compute curve — ``(intra, inter, compute_s)``
for every candidate intra-op width — is therefore list-scheduled once and
kept in :data:`~repro.core.plan_cache.CURVE_CACHE` under the graph's
content signature, the controller's topology and the contention model's
parts (topology, cache hierarchy, calibration constants).  A plan then
scores every candidate in one array pass: the volume-proportional I/O
split, the staging times and the overlapped step are all vectors over the
intra-op axis.  Single makespans (:func:`compute_makespan`) share the same
cache.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

import numpy as np

from repro.errors import ConfigError, ScheduleError
from repro.obs.profiling import span
from repro.parallel.bundling import bundle_operators
from repro.parallel.speedup import ContentionModel, ParallelismSetting
from repro.parallel.topology import CpuTopology
from repro.runtime.graph import OpGraph, max_concurrency

#: The five I/O tasks that must always keep a thread available (Alg. 3
#: reserves >= 5 free threads for them).
IO_TASKS = (
    "load_weight",
    "load_cache",
    "load_activation",
    "store_cache",
    "store_activation",
)

#: Host-side bytes/s one staging thread can feed into the DMA engine
#: (memcpy into pinned buffers + (de)quantization work).
STAGING_BW_PER_THREAD = 6e9

#: Seconds of serial execution per unit of ``OpNode.work``: a work-1.0
#: projection op of the paper's motivating shape (OPT-30B, gpu_batch 64)
#: on one Xeon 6330 thread.
UNIT_WORK_SECONDS = 3.0e-3


def staging_seconds(nbytes, threads: int):
    """Host staging time of ``nbytes`` (scalar or array) on ``threads``."""
    return nbytes / (STAGING_BW_PER_THREAD * threads)


@dataclass(frozen=True)
class ParallelismPlan:
    """The controller's output: a full thread assignment."""

    compute: ParallelismSetting
    io_threads: dict[str, int]
    inter_op_total: int
    predicted_compute_seconds: float
    predicted_step_seconds: float

    def describe(self) -> str:
        io = " ".join(f"{k.split('_')[0]}_{k.split('_')[1][:3]}={v}" for k, v in sorted(self.io_threads.items()))
        return (
            f"intra={self.compute.intra_op} inter={self.compute.inter_op} "
            f"(+5 io => inter_total={self.inter_op_total}) [{io}]"
        )


def schedule_makespan(
    graph: OpGraph,
    slots: int,
    op_seconds,
) -> float:
    """Greedy list-schedule of ``graph`` onto ``slots`` parallel executors.

    ``op_seconds(node_name) -> float`` gives each op's execution time
    (already contention-adjusted).  Returns the makespan.  This is the
    "estimate execution time" step Algorithm 3 performs per candidate
    setting.
    """
    if slots < 1:
        raise ConfigError("slots must be >= 1")
    graph.validate()
    base_indegree, successors = graph.adjacency()
    indegree = dict(base_indegree)
    ready = sorted(n for n, d in indegree.items() if d == 0)
    # Min-heaps: executors by free time (all free at 0), running ops by
    # completion time.
    executors = [0.0] * slots
    running: list[tuple[float, str]] = []
    finished = 0
    clock = 0.0
    while ready or running:
        for name in ready:
            # The earliest-free executor takes the op.
            end = max(executors[0], clock) + op_seconds(name)
            heapq.heapreplace(executors, end)
            heapq.heappush(running, (end, name))
        clock, done = heapq.heappop(running)
        finished += 1
        ready = []
        for succ in successors[done]:
            indegree[succ] -= 1
            if indegree[succ] == 0:
                ready.append(succ)
        ready.sort()
    if finished != graph.num_ops:
        raise ScheduleError("schedule did not complete every op")
    return max(clock, max(executors))


def curve_cache():
    """The process-wide :data:`~repro.core.plan_cache.CURVE_CACHE`
    (bound on use: ``repro.core`` imports this module)."""
    from repro.core.plan_cache import CURVE_CACHE

    return CURVE_CACHE


def contention_signature(contention: ContentionModel) -> tuple:
    """Everything a schedule reads from ``contention``: its topology, cache
    hierarchy and calibration constants (all frozen dataclasses).  The
    model itself is rebuilt on every retarget, so it is never the key."""
    return (contention.topology, contention.cache, contention.c)


def compute_makespan(
    graph: OpGraph,
    setting: ParallelismSetting,
    contention: ContentionModel,
    unit: float = 1.0,
) -> float:
    """Contention-adjusted makespan of the compute task under ``setting``.

    Each op runs ``node.work * unit`` serial seconds, sped up by the
    contention model for its co-runners (granted threads, oversubscription
    thrash, bandwidth share, LLC slowdown).  Algorithm 3 scores candidates
    with ``unit=UNIT_WORK_SECONDS``; the cost model's parallel efficiency
    uses ``unit=1.0`` — the same schedule, so the controller optimises
    exactly the metric the engine later runs under.  Looked up in
    :data:`~repro.core.plan_cache.CURVE_CACHE` under the content of
    everything the schedule reads.
    """
    key = (
        "makespan", graph.signature(), setting, contention_signature(contention), unit
    )
    return curve_cache().get(
        key, lambda: _list_schedule(graph, setting, contention, unit)
    )


def _list_schedule(
    graph: OpGraph,
    setting: ParallelismSetting,
    contention: ContentionModel,
    unit: float,
) -> float:
    """:func:`compute_makespan` without the cache."""
    co = min(setting.inter_op, max_concurrency(graph))

    def op_time(name: str) -> float:
        node = graph.node(name)
        speedup = contention.effective_op_speedup(
            setting, co, op_bytes=node.bytes_touched or 4e6
        )
        return node.work * unit / speedup

    return schedule_makespan(graph, setting.inter_op, op_time)


@dataclass
class ParallelismController:
    """Searches (intra, inter) per Algorithm 3.

    Parameters
    ----------
    topology:
        The CPU being divided.
    contention:
        Mechanism model used for co-runner adjustments; it plays the
        paper's offline operator profile.
    io_volumes:
        Bytes each I/O task moves per decode step (drives the proportional
        thread split and the staging time).

    The search landscape — every candidate's step and compute time over
    the intra-op axis (the sweep behind the paper's Fig. 5) — is one
    array pass, :meth:`_landscape`, that :meth:`plan` reduces to its
    best candidate.
    """

    topology: CpuTopology
    contention: ContentionModel
    io_volumes: dict[str, float] = field(default_factory=dict)

    def io_task_seconds(
        self, task: str, threads: int | np.ndarray, wire_seconds: float
    ):
        """Effective I/O task time: max of wire time and host staging time
        (elementwise over an array of ``threads``)."""
        volume = self.io_volumes.get(task, 0.0)
        if volume <= 0:
            return wire_seconds
        return np.maximum(wire_seconds, staging_seconds(volume, np.maximum(1, threads)))

    def split_io_threads(
        self, free_threads: int | np.ndarray
    ) -> dict[str, np.ndarray]:
        """Volume-proportional thread assignment (>=1 each) to the 5 tasks,
        elementwise over ``free_threads`` (an int or an int array): each
        task's count has ``free_threads``' shape."""
        free = np.asarray(free_threads)
        if (free < len(IO_TASKS)).any():
            raise ConfigError(
                f"need >= {len(IO_TASKS)} free threads, got {int(free.min())}"
            )
        volumes = [max(self.io_volumes.get(t, 0.0), 0.0) for t in IO_TASKS]
        total = sum(volumes)
        out = np.ones(free.shape + (len(IO_TASKS),), dtype=np.int64)
        if total > 0:
            # Largest-remainder apportionment of the leftover threads: the
            # stable sort hands ties to the earlier task, as a stable
            # descending sort of IO_TASKS does.
            remaining = free - len(IO_TASKS)
            quotas = remaining[..., None] * np.array(volumes) / total
            floors = np.floor(quotas)
            order = np.argsort(floors - quotas, axis=-1, kind="stable")
            leftover = remaining - floors.sum(axis=-1)
            out += floors.astype(np.int64)
            out += order.argsort(axis=-1) < leftover[..., None]
        return dict(zip(IO_TASKS, np.moveaxis(out, -1, 0)))

    def compute_curve(self, graph: OpGraph) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The read-only ``(intra, inter, compute_s)`` arrays of every
        feasible candidate, in intra order, for ``graph``'s bundled form.
        Cached in :data:`~repro.core.plan_cache.CURVE_CACHE`: the curve
        reads only the graph, the topology and the contention model."""
        key = (
            "alg3",
            graph.signature(),
            self.topology,
            contention_signature(self.contention),
            UNIT_WORK_SECONDS,
        )
        return curve_cache().get(key, lambda: self._schedule_curve(graph))

    def _schedule_curve(self, graph: OpGraph) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        # Small operators are fused before the concurrency analysis (§1).
        work_graph, _ = bundle_operators(graph)
        width = max_concurrency(work_graph)
        # Alg. 3 keeps one free thread per I/O task.
        hi = self.topology.hardware_threads - len(IO_TASKS)
        intra = np.arange(1, max(hi, 0) + 1)
        # Inter-op from the Kahn max-concurrency level, capped so the
        # compute gang leaves the reserved I/O threads free (Line 3-7).
        inter = np.minimum(width, hi // intra)
        feasible = inter >= 1
        intra, inter = intra[feasible], inter[feasible]
        compute_s = np.array(
            [
                _list_schedule(
                    work_graph,
                    ParallelismSetting(intra_op=i, inter_op=j),
                    self.contention,
                    UNIT_WORK_SECONDS,
                )
                for i, j in zip(intra.tolist(), inter.tolist())
            ],
            dtype=float,
        )
        for arr in (intra, inter, compute_s):
            arr.flags.writeable = False
        return intra, inter, compute_s

    def plan(
        self,
        graph: OpGraph,
        io_wire_seconds: dict[str, float] | None = None,
    ) -> ParallelismPlan:
        """Run Algorithm 3 and return the best thread assignment found.

        ``io_wire_seconds`` is the pure interconnect time of each I/O task
        for one decode step (its floor, reached with enough staging
        threads); missing tasks move nothing over the wire.
        """
        with span("parallel.controller.plan"):
            return self._plan(graph, io_wire_seconds)

    def _landscape(
        self,
        graph: OpGraph,
        io_wire_seconds: dict[str, float] | None = None,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, dict[str, np.ndarray], np.ndarray]:
        """Every feasible candidate of the search, in intra order:
        ``(intra, inter, compute_s, io_threads, step)``, where
        ``io_threads`` maps each I/O task to its thread counts and
        ``step`` is the overlapped decode step each candidate scores."""
        wire = {t: 0.0 for t in IO_TASKS}
        if io_wire_seconds:
            wire.update(io_wire_seconds)
        intra, inter, compute_s = self.compute_curve(graph)
        if intra.size == 0:
            raise ConfigError("no feasible parallelism setting exists")
        io_threads = self.split_io_threads(
            self.topology.hardware_threads - inter * intra
        )
        # The six tasks overlap (Eq. 2): the decode step costs the max.
        step = compute_s
        for t in IO_TASKS:
            step = np.maximum(step, self.io_task_seconds(t, io_threads[t], wire[t]))
        return intra, inter, compute_s, io_threads, step

    def _plan(
        self,
        graph: OpGraph,
        io_wire_seconds: dict[str, float] | None = None,
    ) -> ParallelismPlan:
        intra, inter, compute_s, io_threads, step = self._landscape(
            graph, io_wire_seconds
        )
        # Lexicographic preference: minimise the overlapped step time,
        # then the compute task itself (ties are common when an I/O task
        # is the bottleneck regardless of threading); the first such
        # candidate wins.
        fastest = np.flatnonzero(step == step.min())
        best = int(fastest[np.argmin(compute_s[fastest])])
        return ParallelismPlan(
            compute=ParallelismSetting(
                intra_op=int(intra[best]), inter_op=int(inter[best])
            ),
            io_threads={t: int(io_threads[t][best]) for t in IO_TASKS},
            inter_op_total=int(inter[best]) + len(IO_TASKS),
            predicted_compute_seconds=float(compute_s[best]),
            predicted_step_seconds=float(step[best]),
        )
