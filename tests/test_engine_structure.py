"""One engine substrate, checked on the source.

The paper's §5 comparison prices LM-Offload, FlexGen and ZeRO-Inference
on one substrate.  :class:`~repro.core.engine.Substrate` is the only
place a platform becomes a CPU topology, a contention model and the
PyTorch-default threading; :class:`~repro.core.engine.OffloadEngine`
builds every engine's report and memoizes every engine's search; and
the cost model alone derates the PCIe rate by the calibrated copy
efficiency.  A second site for any of these is a second copy of a
pricing input, so this AST scan fails on one anywhere under
``src/repro``.
"""

import ast
from collections import Counter
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
ENGINE = "repro/core/engine.py"
COST_MODEL = "repro/perfmodel/latency.py"


def _dotted(node: ast.AST) -> str | None:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        base = _dotted(node.value)
        return f"{base}.{node.attr}" if base else node.attr
    return None


def _trees():
    for path in sorted((SRC / "repro").rglob("*.py")):
        rel = path.relative_to(SRC).as_posix()
        yield rel, ast.parse(path.read_text(encoding="utf-8"))


def _call_sites(name: str) -> Counter:
    sites: Counter = Counter()
    for rel, tree in _trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and _dotted(node.func) == name:
                sites[rel] += 1
    return sites


@pytest.mark.parametrize(
    "call",
    [
        "CpuTopology.from_device",
        "ContentionModel",
        "CpuExecutionContext.pytorch_default",
        "InferenceReport",
        "PLAN_CACHE.get",
    ],
)
def test_only_the_engine_module_derives_it(call):
    assert _call_sites(call) == Counter({ENGINE: 1})


def test_only_the_cost_model_reads_pcie_efficiency():
    reads: Counter = Counter()
    for rel, tree in _trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and node.attr == "pcie_efficiency":
                reads[rel] += 1
    assert reads == Counter({COST_MODEL: 1})
