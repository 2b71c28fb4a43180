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
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

from repro.errors import ConfigError, ScheduleError
from repro.obs.profiling import span
from repro.obs.registry import MetricsRegistry
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

    @property
    def total_compute_threads(self) -> int:
        return self.compute.total_threads

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
    # Min-heaps: executors by free time, running ops by completion time.
    executors = [0.0] * slots
    heapq.heapify(executors)
    running: list[tuple[float, str]] = []
    finished = 0
    clock = 0.0
    while ready or running:
        while ready:
            name = ready.pop(0)
            start = max(heapq.heappop(executors), clock)
            end = start + op_seconds(name)
            heapq.heappush(executors, end)
            heapq.heappush(running, (end, name))
        if not running:
            break
        clock, done = heapq.heappop(running)
        finished += 1
        newly = []
        for succ in successors[done]:
            indegree[succ] -= 1
            if indegree[succ] == 0:
                newly.append(succ)
        ready.extend(sorted(newly))
    if finished != graph.num_ops:
        raise ScheduleError("schedule did not complete every op")
    return max(clock, max(executors))


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
    exactly the metric the engine later runs under.
    """
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
    metrics:
        Optional time-series sink for the Algorithm 3 search itself: each
        candidate ``intra`` the sweep evaluates lands one point in
        ``curve.search.step_s`` / ``curve.search.compute_s`` keyed by the
        candidate's intra-op width (the search's own virtual axis), so the
        cost landscape the controller walked is inspectable after the
        fact.  ``None`` (default) is structurally inert.
    """

    topology: CpuTopology
    contention: ContentionModel
    io_volumes: dict[str, float] = field(default_factory=dict)
    metrics: MetricsRegistry | None = None

    def io_task_seconds(self, task: str, threads: int, wire_seconds: float) -> float:
        """Effective I/O task time: max of wire time and host staging time."""
        volume = self.io_volumes.get(task, 0.0)
        if volume <= 0:
            return wire_seconds
        return max(wire_seconds, staging_seconds(volume, max(1, threads)))

    def split_io_threads(self, free_threads: int) -> dict[str, int]:
        """Volume-proportional thread assignment (>=1 each) to the 5 tasks."""
        if free_threads < len(IO_TASKS):
            raise ConfigError(
                f"need >= {len(IO_TASKS)} free threads, got {free_threads}"
            )
        volumes = {t: max(self.io_volumes.get(t, 0.0), 0.0) for t in IO_TASKS}
        total = sum(volumes.values())
        out = {t: 1 for t in IO_TASKS}
        remaining = free_threads - len(IO_TASKS)
        if total > 0 and remaining > 0:
            # Largest-remainder apportionment of the leftover threads.
            quotas = {t: remaining * v / total for t, v in volumes.items()}
            floors = {t: int(q) for t, q in quotas.items()}
            for t, f in floors.items():
                out[t] += f
            leftover = remaining - sum(floors.values())
            by_frac = sorted(
                IO_TASKS, key=lambda t: quotas[t] - floors[t], reverse=True
            )
            for t in by_frac[:leftover]:
                out[t] += 1
        return out

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

    def _plan(
        self,
        graph: OpGraph,
        io_wire_seconds: dict[str, float] | None = None,
    ) -> ParallelismPlan:
        wire = {t: 0.0 for t in IO_TASKS}
        if io_wire_seconds:
            wire.update(io_wire_seconds)
        # Small operators are fused before the concurrency analysis (§1).
        work_graph, _ = bundle_operators(graph)
        width = max_concurrency(work_graph)
        max_thrs = self.topology.hardware_threads
        # Alg. 3 keeps one free thread per I/O task.
        hi = max_thrs - len(IO_TASKS)

        best: ParallelismPlan | None = None
        for intra in range(1, hi + 1):
            # Inter-op from the Kahn max-concurrency level, capped so the
            # compute gang leaves the reserved I/O threads free (Line 3-7).
            inter = min(width, hi // intra)
            if inter < 1:
                continue
            free = max_thrs - inter * intra
            setting = ParallelismSetting(intra_op=intra, inter_op=inter)
            compute_s = compute_makespan(
                work_graph, setting, self.contention, UNIT_WORK_SECONDS
            )
            io_threads = self.split_io_threads(free)
            io_s = {
                t: self.io_task_seconds(t, io_threads[t], wire[t]) for t in IO_TASKS
            }
            # The six tasks overlap (Eq. 2): the decode step costs the max.
            step = max(compute_s, *io_s.values())
            if self.metrics is not None:
                self.metrics.timeseries("curve.search.step_s").sample(
                    float(intra), step
                )
                self.metrics.timeseries("curve.search.compute_s").sample(
                    float(intra), compute_s
                )
            # Lexicographic preference: minimise the overlapped step time,
            # then the compute task itself (ties are common when an I/O
            # task is the bottleneck regardless of threading).
            if best is None or (step, compute_s) < (
                best.predicted_step_seconds,
                best.predicted_compute_seconds,
            ):
                best = ParallelismPlan(
                    compute=setting,
                    io_threads=io_threads,
                    inter_op_total=inter + len(IO_TASKS),
                    predicted_compute_seconds=compute_s,
                    predicted_step_seconds=step,
                )
        if best is None:
            raise ConfigError("no feasible parallelism setting exists")
        return best
