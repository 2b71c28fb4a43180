"""One queue configuration and one iteration, checked on the source.

The replica kernel builds every admission queue and is the only caller
of the admission routine; the three serving drivers reach both through
:meth:`~repro.serving.kernel.ReplicaKernel.iterate`.  A driver that
builds its own queue or admits on its own is a second copy of the
iteration, so this AST scan fails on either anywhere under
``src/repro`` outside ``serving/kernel.py``.
"""

import ast
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
KERNEL = "repro/serving/kernel.py"


def _call_sites(name: str) -> Counter:
    sites: Counter = Counter()
    for path in sorted((SRC / "repro").rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            called = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if called == name:
                sites[path.relative_to(SRC).as_posix()] += 1
    return sites


def test_only_the_kernel_builds_an_admission_queue():
    assert _call_sites("AdmissionQueue") == Counter({KERNEL: 1})


def test_only_the_kernel_admits():
    assert _call_sites("admit_batch") == Counter({KERNEL: 1})
