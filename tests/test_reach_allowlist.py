"""Static half of the reach gate (``scripts/reach_audit.py``).

The full gate runs every shipped command under a line tracer and takes
about a minute, so CI runs it as its own step.  Here the tier-1 suite
checks that every ``# reach:`` marker under ``src/repro`` (the gate's
in-source allowlist) carries a reason and covers an executable line, so
an edit that strands a marker fails here too, and pins the gate's rules
on synthetic modules with hand-picked executed lines (no subprocess).
"""

import importlib.util
import sys
from pathlib import Path
from textwrap import dedent

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "reach_audit.py"


@pytest.fixture(scope="module")
def audit():
    spec = importlib.util.spec_from_file_location("reach_audit", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    # Registered while it loads: its dataclasses resolve their string
    # annotations through sys.modules.
    sys.modules["reach_audit"] = module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules["reach_audit"]
    return module


def problems(audit, source: str, skipped: set[int]) -> list[str]:
    """Gate failures of ``source`` when every executable line ran except
    ``skipped``."""
    info = audit.read_file(dedent(source).lstrip("\n"))
    return audit.reach_problems("m.py", info, info.executable - skipped)


def test_allowlist_entries_exist_and_carry_reasons(audit):
    files = audit.source_files()
    assert any(info.markers for info in files.values())
    assert [p for name, info in files.items()
            for p in audit.marker_problems(name, info)] == []


def test_unmarked_dead_if_body_fails(audit):
    source = """
        def f(x):
            if x:
                x += 1
            return x
    """
    assert problems(audit, source, {3}) == ["m.py:3: neither executed nor exempt"]


def test_marked_dead_if_body_passes_and_stale_marker_fails(audit):
    source = """
        def f(x):
            if x:  # reach: a caller that passes x
                x += 1
                x *= 2
            return x
    """
    assert problems(audit, source, {3, 4}) == []
    assert problems(audit, source, set()) == [
        "m.py:2: marker is stale, line(s) 3-4 ran"
    ]


def test_raise_except_and_script_bodies_are_exempt(audit):
    source = """
        from typing import TYPE_CHECKING
        if TYPE_CHECKING:
            import os
        def f(x):
            try:
                x = int(x)
            except ValueError:
                x = 0
            if x < 0:
                raise ValueError(
                    "negative"
                )
            return x
        if __name__ == "__main__":
            f(1)
    """
    assert problems(audit, source, {3, 7, 8, 10, 11, 12, 15}) == []


def test_else_marker_covers_only_its_block(audit):
    source = """
        def f(x):
            if x:
                y = 1
            else:  # reach: a falsy x
                y = 2
                y += 1
            return y
    """
    assert problems(audit, source, {5, 6}) == []
    assert problems(audit, source, {3, 5, 6}) == [
        "m.py:3: neither executed nor exempt"
    ]


def test_marker_on_other_lines_covers_that_line_only(audit):
    source = """
        def f(x):
            return (
                x
                if x
                else 0  # reach: a falsy x
            )
    """
    assert problems(audit, source, {5}) == []
    assert problems(audit, source, {3, 5}) == ["m.py:3: neither executed nor exempt"]


def test_marker_needs_a_reason_and_an_unexempt_line(audit):
    source = """
        def f(x):
            if x:  # reach:
                x += 1
            if x < 0:
                raise ValueError(x)  # reach: negative input
            return x
    """
    assert problems(audit, source, {3, 5}) == [
        "m.py:2: marker has no reason",
        "m.py:5: marker covers no executable line that is not already exempt",
    ]


def test_elif_marker_covers_its_unevaluated_test(audit):
    source = """
        def f(x):
            if x > 0:
                return 1
            elif x < 0:  # reach: a negative x
                return -1
            return 0
    """
    assert problems(audit, source, {4, 5}) == []
    assert problems(audit, source, {5}) == []
    assert problems(audit, source, set()) == ["m.py:4: marker is stale, line(s) 5 ran"]
