"""Operator bundling (paper §1: "we bundle small operators when throttling
parallelism to avoid cache thrashing").

Bundling merges chains of small dependent operators into a single scheduled
unit so that (a) the scheduler launches fewer concurrent gangs and (b) the
bundle's intermediate data stays cache-resident instead of being evicted
between separately-scheduled ops.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.runtime.graph import OpGraph, OpNode, topological_order


@dataclass(frozen=True)
class OperatorBundle:
    """A fused group of ops scheduled as one unit."""

    name: str
    members: tuple[str, ...]
    work: float
    bytes_touched: float

    @property
    def size(self) -> int:
        return len(self.members)


def bundle_operators(
    graph: OpGraph, *, small_work_threshold: float = 1.0
) -> tuple[OpGraph, list[OperatorBundle]]:
    """Fuse every *small* op (work < threshold) into its unique successor or
    predecessor chain, returning a new graph of bundles.

    The fusion rule is conservative and deterministic: a small op with
    exactly one successor is merged into that successor (its work and bytes
    add; bytes use max since the fused op streams through once).  This is
    exactly the "concat_kv -> scores" and "softmax -> context" fusion the
    attention graph of Figure 6 admits.
    """
    names = [op.name for op in graph.ops()]
    # Union-find over ops -> bundle representative.
    parent: dict[str, str] = {n: n for n in names}

    def find(x: str) -> str:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for name in names:
        node = graph.node(name)
        succs = graph.successors(name)
        if node.work < small_work_threshold and len(succs) == 1:
            parent[find(name)] = find(succs[0])

    groups: dict[str, list[str]] = {}
    for name in names:
        groups.setdefault(find(name), []).append(name)

    # Build bundle descriptors for every group.
    bundles: list[OperatorBundle] = []
    rep_to_bundle: dict[str, str] = {}
    for rep, members_list in groups.items():
        members = tuple(sorted(members_list))
        work = sum(graph.node(m).work for m in members)
        nbytes = max(graph.node(m).bytes_touched for m in members)
        bname = f"bundle[{'+'.join(members)}]" if len(members) > 1 else members[0]
        bundles.append(
            OperatorBundle(name=bname, members=members, work=work, bytes_touched=nbytes)
        )
        rep_to_bundle[rep] = bname

    # Collect inter-group edges (first-seen order, no duplicates), then
    # insert bundles in a topological order of the quotient graph (so
    # add_op always sees its deps).
    succ: dict[str, dict[str, None]] = {rep: {} for rep in rep_to_bundle}
    pred: dict[str, dict[str, None]] = {rep: {} for rep in rep_to_bundle}
    for u in names:
        for v in graph.successors(u):
            ru, rv = find(u), find(v)
            if ru != rv:
                succ[ru][rv] = None
                pred[rv][ru] = None

    by_rep = {find(b.members[0]): b for b in bundles}
    bundled = OpGraph()
    for rep in topological_order({r: list(s) for r, s in succ.items()}):
        bundle = by_rep[rep]
        # The bundle inherits the kind of its terminal (largest-work) op.
        terminal = max(bundle.members, key=lambda m: graph.node(m).work)
        deps = sorted(rep_to_bundle[p] for p in pred[rep])
        bundled.add_op(
            OpNode(
                name=bundle.name,
                work=bundle.work,
                bytes_touched=bundle.bytes_touched,
                kind=graph.node(terminal).kind,
            ),
            deps=deps,
        )
    bundled.validate()
    bundles.sort(key=lambda b: b.name)
    return bundled, bundles
