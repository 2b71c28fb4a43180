"""Operator dependency graphs and Kahn concurrency analysis (paper Fig. 6).

Algorithm 3's first step is: *"Estimate inter_op_p_comp using the max
concurrency level"* of the compute task's dependency graph, computed with
Kahn's topological sort.  The graph keeps insertion-ordered adjacency
dicts, and every traversal walks them in that order.  We expose:

* :func:`kahn_levels` — partition nodes into dependency levels (every node's
  predecessors live in strictly earlier levels);
* :func:`max_concurrency` — the widest level, i.e. the largest number of
  operators that can execute simultaneously;
* :func:`build_attention_graph` — the decode-phase attention graph, with
  one Q/K/V/score/context chain per co-scheduled batch (batches are
  mutually independent, which is where most of the width comes from).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ScheduleError


@dataclass(frozen=True)
class OpNode:
    """One operator in the compute task.

    ``work`` is abstract serial work (seconds at 1 thread, or any consistent
    unit); ``bytes_touched`` feeds the cache model.
    """

    name: str
    work: float = 1.0
    bytes_touched: float = 0.0
    kind: str = "generic"


def topological_order(successors: dict[str, list[str]]) -> list[str]:
    """Kahn's generations, flattened, each in insertion order.

    Every node of one generation precedes the next generation, and a
    generation lists nodes in the order the previous one released them
    (the same order ``networkx.topological_sort`` yields).  Raises
    :class:`ScheduleError` if some node is never released (a cycle).
    """
    indegree = dict.fromkeys(successors, 0)
    for succs in successors.values():
        for succ in succs:
            indegree[succ] += 1
    frontier = [n for n, d in indegree.items() if d == 0]
    order: list[str] = []
    while frontier:
        order.extend(frontier)
        nxt: list[str] = []
        for name in frontier:
            for succ in successors[name]:
                indegree[succ] -= 1
                if indegree[succ] == 0:
                    nxt.append(succ)
        frontier = nxt
    if len(order) != len(successors):
        stuck = sorted(n for n, d in indegree.items() if d > 0)
        raise ScheduleError(f"dependency cycle among {stuck}")
    return order


class OpGraph:
    """A DAG of :class:`OpNode` with convenience analysis methods."""

    def __init__(self) -> None:
        self._nodes: dict[str, OpNode] = {}
        #: Insertion-ordered adjacency: node -> successors / predecessors.
        self._succ: dict[str, list[str]] = {}
        self._pred: dict[str, list[str]] = {}
        #: Memo for structure-derived analyses (topological order,
        #: adjacency, Kahn levels, the content signature).  Algorithm 3
        #: re-analyses the same graph for every candidate thread setting;
        #: the structure only changes on ``add_op``, which clears this.
        self._analysis_cache: dict = {}

    def add_op(self, node: OpNode, deps: list[str] | None = None) -> OpNode:
        """Insert ``node``; ``deps`` are names of prerequisite ops."""
        if node.name in self._nodes:
            raise ScheduleError(f"duplicate op {node.name!r}")
        self._nodes[node.name] = node
        self._succ[node.name] = []
        self._pred[node.name] = []
        for dep in dict.fromkeys(deps or []):
            if dep not in self._nodes:
                raise ScheduleError(f"op {node.name!r} depends on unknown {dep!r}")
            self._succ[dep].append(node.name)
            self._pred[node.name].append(dep)
        self._analysis_cache.clear()
        return node

    def node(self, name: str) -> OpNode:
        return self._nodes[name]

    @property
    def num_ops(self) -> int:
        return len(self._nodes)

    def ops(self) -> list[OpNode]:
        return list(self._nodes.values())

    def successors(self, name: str) -> list[str]:
        return list(self._succ[name])

    def topological_order(self) -> list[str]:
        """All ops in :func:`topological_order`; raises on a cycle."""
        cached = self._analysis_cache.get("order")
        if cached is None:
            cached = self._analysis_cache["order"] = topological_order(self._succ)
        return cached

    def signature(self) -> tuple:
        """Content key of the graph: every node's name, work,
        bytes_touched, kind and successors, in insertion order (a
        topological order: ``add_op`` only accepts known deps).  Two
        graphs with equal signatures schedule identically."""
        cached = self._analysis_cache.get("signature")
        if cached is None:
            cached = self._analysis_cache["signature"] = tuple(
                (n.name, n.work, n.bytes_touched, n.kind, tuple(self._succ[n.name]))
                for n in self._nodes.values()
            )
        return cached

    def validate(self) -> None:
        """Raise :class:`ScheduleError` if the graph has a cycle."""
        self.topological_order()

    def adjacency(self) -> tuple[dict[str, int], dict[str, list[str]]]:
        """Plain-dict ``(indegree, successors)`` snapshot of the structure.
        Callers must copy ``indegree`` before mutating."""
        cached = self._analysis_cache.get("adjacency")
        if cached is None:
            indegree = {n: len(p) for n, p in self._pred.items()}
            successors = {n: list(s) for n, s in self._succ.items()}
            cached = self._analysis_cache["adjacency"] = (indegree, successors)
        return cached

    def total_work(self) -> float:
        return sum(op.work for op in self._nodes.values())


def kahn_levels(graph: OpGraph) -> list[list[str]]:
    """Kahn's algorithm, batched: peel zero-indegree frontiers level by level.

    Returns the list of levels; ops within a level are mutually
    independent given all earlier levels have completed.
    """
    graph.validate()
    cached = graph._analysis_cache.get("kahn_levels")
    if cached is not None:
        return cached
    base_indegree, successors = graph.adjacency()
    indegree = dict(base_indegree)
    frontier = sorted(n for n, d in indegree.items() if d == 0)
    levels: list[list[str]] = []
    while frontier:
        levels.append(frontier)
        nxt: list[str] = []
        for name in frontier:
            for succ in successors[name]:
                indegree[succ] -= 1
                if indegree[succ] == 0:
                    nxt.append(succ)
        frontier = sorted(nxt)
    total = sum(len(level) for level in levels)
    if total != graph.num_ops:
        raise ScheduleError("graph has a cycle (Kahn did not consume all ops)")
    graph._analysis_cache["kahn_levels"] = levels
    return levels


def max_concurrency(graph: OpGraph) -> int:
    """Width of the widest Kahn level — Algorithm 3's inter-op estimate."""
    levels = kahn_levels(graph)
    return max((len(level) for level in levels), default=0)


def build_attention_graph(
    num_batches: int = 4,
    *,
    per_batch_work: dict[str, float] | None = None,
    bytes_per_op: float = 0.0,
    fine_grained: bool = False,
) -> OpGraph:
    """Decode-phase attention dependency graph (paper Figure 6).

    Per batch, the chain is::

        q_proj ─┐
        k_proj ─┼─> concat_kv ─> scores(QK^T) ─> softmax ─> context(PV) ─> out_proj
        v_proj ─┘

    with Q/K/V projections mutually independent (width 3 per batch).  The
    ``num_batches`` co-scheduled GPU batches of the zig-zag block are fully
    independent, so the overall width is ``3 * num_batches`` — 12 for the
    paper's 4-batch default, matching the inter-op optimum of Figure 5.

    ``fine_grained=True`` splits scores/softmax/context into per-half-head
    sub-ops, doubling the width — this is the *unbundled* graph the default
    PyTorch scheduler effectively runs (see :mod:`repro.parallel.bundling`).
    """
    if num_batches <= 0:
        raise ScheduleError("num_batches must be positive")
    work = {
        "q_proj": 1.0,
        "k_proj": 1.0,
        "v_proj": 1.0,
        "concat_kv": 0.1,
        "scores": 2.0,
        "softmax": 0.5,
        "context": 2.0,
        "out_proj": 1.0,
    }
    if per_batch_work:
        work.update(per_batch_work)
    graph = OpGraph()
    for b in range(num_batches):
        def add(op: str, deps: list[str], w: float | None = None) -> str:
            name = f"b{b}.{op}"
            graph.add_op(
                OpNode(
                    name=name,
                    work=work.get(op, 1.0) if w is None else w,
                    bytes_touched=bytes_per_op,
                    kind=op,
                ),
                deps=[f"b{b}.{d}" for d in deps],
            )
            return op

        if fine_grained:
            # Unbundled execution also splits each projection into two
            # half-hidden sub-ops (what PyTorch's scheduler sees when the
            # framework does not fuse), doubling the level-0 width.
            for proj in ("q_proj", "k_proj", "v_proj"):
                for half in (0, 1):
                    graph.add_op(
                        OpNode(f"b{b}.{proj}.{half}", work=work[proj] / 2,
                               bytes_touched=bytes_per_op / 2, kind=proj),
                        deps=[],
                    )
            graph.add_op(
                OpNode(f"b{b}.concat_kv", work=work["concat_kv"],
                       bytes_touched=bytes_per_op, kind="concat_kv"),
                deps=[f"b{b}.k_proj.{h}" for h in (0, 1)]
                + [f"b{b}.v_proj.{h}" for h in (0, 1)],
            )
        else:
            add("q_proj", [])
            add("k_proj", [])
            add("v_proj", [])
            add("concat_kv", ["k_proj", "v_proj"])
        if fine_grained:
            # Split the attention body into two half-head sub-ops each.
            for half in (0, 1):
                graph.add_op(
                    OpNode(f"b{b}.scores.{half}", work=work["scores"] / 2,
                           bytes_touched=bytes_per_op / 2, kind="scores"),
                    deps=[f"b{b}.q_proj.{half}", f"b{b}.concat_kv"],
                )
                graph.add_op(
                    OpNode(f"b{b}.softmax.{half}", work=work["softmax"] / 2,
                           bytes_touched=bytes_per_op / 2, kind="softmax"),
                    deps=[f"b{b}.scores.{half}"],
                )
                graph.add_op(
                    OpNode(f"b{b}.context.{half}", work=work["context"] / 2,
                           bytes_touched=bytes_per_op / 2, kind="context"),
                    deps=[f"b{b}.softmax.{half}", f"b{b}.concat_kv"],
                )
            graph.add_op(
                OpNode(f"b{b}.out_proj", work=work["out_proj"],
                       bytes_touched=bytes_per_op, kind="out_proj"),
                deps=[f"b{b}.context.0", f"b{b}.context.1"],
            )
        else:
            add("scores", ["q_proj", "concat_kv"])
            add("softmax", ["scores"])
            add("context", ["softmax", "concat_kv"])
            add("out_proj", ["context"])
    graph.validate()
    return graph
