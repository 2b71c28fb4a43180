"""Asynchronous execution runtime: op graphs, six tasks, event simulation.

This reproduces FlexGen's execution substrate that LM-Offload inherits
(paper Algorithm 1): a zig-zag block schedule in which six tasks per
(token, layer, batch) — ``load_weight``, ``store_activation``,
``store_cache``, ``load_cache``, ``load_activation``, ``compute`` — are
launched asynchronously and overlap, so per-layer decode latency is the max
of the six (Eq. 2).  :class:`OverlappedExecutor` is the one schedule of
that loop: the drift audit checks it against Eq. 1/2, and the Chrome-trace
export draws it.

:mod:`repro.runtime.graph` also provides the operator dependency graph of
the attention computation (paper Figure 6) and the Kahn-levels concurrency
analysis that Algorithm 3 uses to pick inter-op parallelism.
"""

from repro.runtime.graph import OpGraph, OpNode, kahn_levels, max_concurrency
from repro.runtime.graph import build_attention_graph
from repro.runtime.tasks import TaskKind, TaskCosts
from repro.runtime.events import EventSim, Resource
from repro.runtime.executor import GenerationTrace, LayerTiming, OverlappedExecutor

__all__ = [
    "OpGraph",
    "OpNode",
    "kahn_levels",
    "max_concurrency",
    "build_attention_graph",
    "TaskKind",
    "TaskCosts",
    "EventSim",
    "Resource",
    "OverlappedExecutor",
    "LayerTiming",
    "GenerationTrace",
]
