#!/usr/bin/env python3
"""CI gate: every executable line under ``src/repro`` runs or is exempt.

Runs the flag matrix of every shipped surface -- each CLI command and
flag family, ``scripts/generate_experiments_md.py``, the examples and the
perfbench workloads -- one subprocess per invocation, each under
``sys.settrace``, and collects the ``src/repro`` lines that ran.  The
executable lines are those of every code object the compiler makes from
each file (``co_lines()``).  Line reach implies function reach: a ``def``
is reached exactly when a line of its body runs.

A line that no invocation runs is exempt when it is

* part of a ``raise`` statement or an ``except`` clause (error handling),
* in the body of ``if TYPE_CHECKING:`` or ``if __name__ == "__main__":``, or
* covered by a ``# reach: <reason>`` comment at the end of a line.  A
  marker on the header of a compound statement or clause (``def``,
  ``if``, ``elif``, ``else:``, ``for``, ``with``, ``try:``, ``finally:``
  ...) covers the header and the block under it, everything nested
  included.  A marker on the first line of any other statement covers
  the statement, and on any other line that line.  The reason names the
  test that reaches the block, the outside input that does, or its
  safety-code class.

The gate fails when

* a line is neither executed nor exempt (new dead code),
* a marker is stale: a line of its block ran in any invocation (a header
  runs whenever the code around it does, so it does not count), or
  every line it covers ran,
* a marker has no reason or covers no line the rules above leave to it,
* an invocation exits non-zero (its reach would be incomplete), or
* an invocation imports scipy: every child installs a ``sys.meta_path``
  finder that makes ``import scipy`` raise, so every invocation also
  proves the command runs without it.

Usage::

    python scripts/reach_audit.py [--jobs N]

Exit codes: 0 ok, 1 gate failed.
"""

from __future__ import annotations

import argparse
import ast
import importlib.abc
import io
import json
import os
import re
import runpy
import subprocess
import sys
import tempfile
import threading
import time
import tokenize
import traceback
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
MARKER = re.compile(r"#\s*reach:(.*)")
#: The replay trace ``serve-sim --arrival replay`` reads, in the format
#: ``repro.serving.load_trace`` accepts.
REPLAY_TRACE = {
    "name": "replay",
    "horizon_s": 6.0,
    "requests": [
        {"arrival_s": 0.1 * i, "prompt_len": 48 + 8 * i, "gen_len": 8 + 4 * i,
         "priority": i % 2}
        for i in range(6)
    ],
}


def flag_matrix() -> list[tuple[str, list[str]]]:
    """``(label, argv)`` per invocation; argv starts with ``-m`` or a path.

    Name choices are read from the tables the CLI reads, so a new engine,
    scenario, scheduler or experiment joins the matrix by itself.
    """
    sys.path[:0] = [str(SRC), str(ROOT / "perfbench")]
    from repro.cli import EXPERIMENTS
    from repro.faults import SCENARIOS
    from repro.serving.fleet import FLEET_SCENARIOS
    from repro.serving.policies import POLICIES

    def cli(*args: str) -> tuple[str, list[str]]:
        return " ".join(args), ["-m", "repro", *args]

    def script(path: str, *args: str) -> tuple[str, list[str]]:
        return " ".join((path, *args)), [str(ROOT / path), *args]

    q = ("--quick", "--seed", "0")
    matrix = [
        cli("models"),
        cli("plan"),
        cli("plan", "--search-geometry", "--save", "policy.json"),
        # Rejected geometries, listed past --max-failures, and weights
        # spilled to disk.
        cli("plan", "--search-geometry", "--model", "opt-66b", "--prompt-len",
            "512", "--gen-len", "256", "--max-failures", "1"),
        cli("run"),
        *(cli("experiment", name) for name in EXPERIMENTS),
        cli("whatif", "--samples", "2"),
        cli("trace"),
        # The committed-artifact commands, run as the artifacts are made.
        cli("serve-sim"),
        cli("serve-sim", "--models", "opt-duo"),
        cli("spec-sim"),
        cli("chaos", "--seed", "0"),
        cli("fleet-sim", "--fleet", "all", "--scenario", "all", "--seed", "0"),
        cli("audit"),
        cli("audit", "--faults"),
        cli("bench-timing", "--quick", "--metrics-out", "m.json"),
        # serve-sim flag families.
        *(cli("serve-sim", *q, "--scheduler", name) for name in POLICIES),
        cli("serve-sim", *q, "--arrival", "bursty", "--priority-levels", "3",
            "--scheduler", "priority-preempt", "--max-batch", "2"),
        # Admission preempts a running request.
        cli("serve-sim", "--seed", "0", "--arrival", "bursty", "--priority-levels",
            "3", "--scheduler", "priority-preempt", "--max-batch", "2", "--rate",
            "6", "--duration", "10", "--engine", "zero-inference",
            "--metrics-out", "m.json"),
        # FlexGen meets loose SLOs, so goodput ratios are defined.
        cli("serve-sim", *q, "--ttft-slo", "1000", "--tpot-slo", "1000"),
        cli("serve-sim", *q, "--arrival", "replay", "--trace-file", "replay.json"),
        cli("serve-sim", *q, "--spec", "--engine", "lm-offload"),
        cli("serve-sim", *q, "--no-steps", "--metrics-out", "m.json"),
        cli("serve-sim", *q, "--chrome-trace", "t.json", "--metrics-out", "m.json"),
        cli("serve-sim", *q, "--queue-timeout", "2", "--queue-capacity", "4",
            "--rate", "6"),
        cli("serve-sim", *q, "--scenario", "multi-fault", "--metrics-out", "m.json"),
        cli("serve-sim", *q, "--models", "opt-trio"),
        # No request fits even alone: the infeasible-drop path.
        cli("serve-sim", *q, "--engine", "zero-inference", "--model", "opt-66b",
            "--prompt-mean", "200000", "--max-len", "400000"),
        # chaos and fleet-sim over every scenario.
        *(cli("chaos", *q, "--scenario", name) for name in SCENARIOS),
        cli("chaos", *q, "--engine", "spec-offload", "--scenario", "flaky-pcie",
            "--scheduler", "sjf-predict", "--deadline", "30"),
        # Aborted steps past a 1 s deadline drop their requests (FAULT_ABORT).
        cli("chaos", *q, "--scenario", "flaky-pcie", "--deadline", "1",
            "--chrome-trace", "t.json"),
        cli("chaos", *q, "--drift-gate", "--serving-drift-gate",
            "--chrome-trace", "t.json", "--metrics-out", "m.json"),
        *(cli("fleet-sim", *q, "--scenario", name) for name in FLEET_SCENARIOS),
        cli("fleet-sim", *q, "--fleet", "hetero-8", "--scheduler", "sjf-predict",
            "--chrome-trace", "t.json", "--metrics-out", "m.json"),
        cli("fleet-sim", *q, "--hedge-after", "0", "--breaker-threshold", "0"),
        # An early hedge races its clone to completion and cancels the loser.
        cli("fleet-sim", *q, "--hedge-after", "2"),
        # A zero migration budget drops crash casualties (FAILOVER_EXHAUSTED).
        cli("fleet-sim", *q, "--scenario", "domain-outage", "--migration-budget",
            "0", "--hedge-after", "1", "--chrome-trace", "t.json"),
        cli("fleet-sim", *q, "--scenario", "flaky-replica", "--hedge-after", "2",
            "--max-batch", "4"),
        # A restart drains its queue to the other replicas.
        cli("fleet-sim", *q, "--scenario", "rolling-restart", "--max-batch", "1",
            "--hedge-after", "0.05"),
        cli("audit", "--quick"),
        # The --profile variants CI runs.
        cli("--profile", "serve-sim", *q),
        cli("--profile", "serve-sim", "--models", "opt-duo", "--engine",
            "zero-inference", *q),
        cli("--profile", "spec-sim", "--quick"),
        cli("--profile", "chaos", *q, "--drift-gate", "--serving-drift-gate"),
        cli("--profile", "fleet-sim", *q),
        cli("--profile", "audit", "--faults", "--quick"),
        script("scripts/generate_experiments_md.py"),
        *(script(f"examples/{p.name}")
          for p in sorted((ROOT / "examples").glob("*.py"))),
    ]
    from workloads import WORKLOADS

    matrix += [script("perfbench/rep.py", name, "0", "0", "0")
               for name in WORKLOADS]
    return matrix


# --------------------------------------------------------------- child side


class ScipyBlocker(importlib.abc.MetaPathFinder):
    """Makes every ``scipy`` import fail, and remembers the attempts."""

    def __init__(self) -> None:
        self.attempts: list[str] = []

    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            self.attempts.append(name)
            raise ModuleNotFoundError(f"{name} is blocked: scipy is not a "
                                      "runtime dependency")
        return None


def child(out: str, argv: list[str]) -> int:
    """Run one invocation under the line tracer and write what it ran."""
    blocker = ScipyBlocker()
    sys.meta_path.insert(0, blocker)
    src = str(SRC) + os.sep
    lines: dict[str, set[int]] = {}
    local_tracers: dict = {}

    def local_tracer(filename: str):
        add = lines.setdefault(filename, set()).add

        def trace_lines(frame, event, arg):
            add(frame.f_lineno)
            return trace_lines

        return trace_lines

    def trace_calls(frame, event, arg):
        # Only frames whose code lives under src/repro get a line tracer.
        code = frame.f_code
        if code not in local_tracers:
            local_tracers[code] = (local_tracer(code.co_filename)
                                   if code.co_filename.startswith(src) else None)
        return local_tracers[code]

    exit_code = 0
    threading.settrace(trace_calls)
    sys.settrace(trace_calls)
    try:
        if argv[0] == "-m":
            sys.argv = [argv[1], *argv[2:]]
            runpy.run_module(argv[1], run_name="__main__", alter_sys=True)
        else:
            sys.argv = list(argv)
            sys.path.insert(0, str(Path(argv[0]).parent))
            runpy.run_path(argv[0], run_name="__main__")
    except SystemExit as exc:
        exit_code = exc.code if isinstance(exc.code, int) else int(exc.code is not None)
    except Exception:
        traceback.print_exc()
        exit_code = 1
    finally:
        sys.settrace(None)
        threading.settrace(None)
    ran = {Path(name).relative_to(SRC).as_posix(): sorted(hit)
           for name, hit in lines.items()}
    with open(out, "w", encoding="utf-8") as fh:
        json.dump({"exit": exit_code, "scipy": blocker.attempts, "ran": ran}, fh)
    return 0


# -------------------------------------------------------------- parent side


@dataclass
class Marker:
    """One ``# reach:`` comment and the executable lines it covers."""

    reason: str
    covered: set[int]
    #: The covered clause header (runs whenever the code around it does,
    #: so it never makes the marker stale).
    header: set[int]


@dataclass
class FileLines:
    """One source file's executable lines and what exempts which."""

    executable: set[int]
    #: Error handling and typing-only or script-only bodies.
    exempt: set[int]
    markers: dict[int, Marker]

    def marked(self) -> set[int]:
        return set().union(*(m.covered for m in self.markers.values()))


def executable_lines(source: str, name: str) -> set[int]:
    """The lines of every code object compiled from ``source``."""
    found: set[int] = set()
    todo = [compile(source, name, "exec", dont_inherit=True)]
    while todo:
        code = todo.pop()
        found.update(line for _, _, line in code.co_lines() if line)
        todo += [c for c in code.co_consts if hasattr(c, "co_lines")]
    return found


def _lines(first: int, last: int) -> set[int]:
    return set(range(first, last + 1))


def _block(stmts: list[ast.stmt]) -> set[int]:
    return _lines(stmts[0].lineno, stmts[-1].end_lineno)


def _keyword_line(source: list[str], keyword: str, block: list[ast.stmt]) -> int:
    """The line of the ``else:``/``finally:`` header that opens ``block``."""
    n = block[0].lineno
    while not source[n - 1].lstrip().startswith(keyword):
        n -= 1
    return n


def _never_runs_here(test: ast.expr) -> bool:
    """``TYPE_CHECKING`` or ``__name__ == "__main__"``."""
    if isinstance(test, (ast.Name, ast.Attribute)):
        return getattr(test, "id", getattr(test, "attr", "")) == "TYPE_CHECKING"
    return (isinstance(test, ast.Compare) and isinstance(test.left, ast.Name)
            and test.left.id == "__name__" and len(test.comparators) == 1
            and getattr(test.comparators[0], "value", None) == "__main__")


def _spans(tree: ast.Module, source: list[str]):
    """``(clauses, statements, exempt)``: ``(header, block)`` lines by
    clause header line, the lines of each simple statement by its first
    line, and the lines exempt by construction."""
    clauses: dict[int, tuple[set[int], set[int]]] = {}
    statements: dict[int, set[int]] = {}
    exempt: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Raise, ast.ExceptHandler)):
            exempt |= _lines(node.lineno, node.end_lineno)
        body = getattr(node, "body", None)
        if not isinstance(body, list) or isinstance(node, ast.Module):
            if isinstance(node, ast.stmt):
                statements.setdefault(node.lineno, set()).update(
                    _lines(node.lineno, node.end_lineno))
            continue
        clauses[node.lineno] = (_lines(node.lineno, body[0].lineno - 1), _block(body))
        if isinstance(node, ast.If) and _never_runs_here(node.test):
            exempt |= _block(body)
        orelse = getattr(node, "orelse", [])
        if orelse and not source[orelse[0].lineno - 1].lstrip().startswith("elif"):
            clauses[_keyword_line(source, "else", orelse)] = (set(), _block(orelse))
        finalbody = getattr(node, "finalbody", [])
        if finalbody:
            clauses[_keyword_line(source, "finally", finalbody)] = (set(), _block(finalbody))
    return clauses, statements, exempt


def read_file(source: str, name: str = "<source>") -> FileLines:
    """Executable lines, exemptions and markers of one source file."""
    executable = executable_lines(source, name)
    clauses, statements, exempt = _spans(ast.parse(source), source.splitlines())
    markers: dict[int, Marker] = {}
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        found = MARKER.search(tok.string) if tok.type == tokenize.COMMENT else None
        if found:
            line = tok.start[0]
            header, block = clauses.get(line) or (set(), statements.get(line, {line}))
            markers[line] = Marker(found.group(1).strip(),
                                   (header | block) & executable, header & executable)
    return FileLines(executable, exempt & executable, markers)


def marker_problems(name: str, info: FileLines) -> list[str]:
    """Markers with no reason, or covering no line that needs one."""
    problems = []
    for line, marker in sorted(info.markers.items()):
        if not marker.reason:
            problems.append(f"{name}:{line}: marker has no reason")
        if not marker.covered - info.exempt:
            problems.append(f"{name}:{line}: marker covers no executable line "
                            "that is not already exempt")
    return problems


def _ranges(lines: set[int], executable: set[int]) -> list[str]:
    """``first-last`` runs of ``lines`` with no other executable line between."""
    position = {line: i for i, line in enumerate(sorted(executable))}
    runs: list[list[int]] = []
    for line in sorted(lines):
        if runs and position[line] == position[runs[-1][-1]] + 1:
            runs[-1].append(line)
        else:
            runs.append([line])
    return [f"{r[0]}" if len(r) == 1 else f"{r[0]}-{r[-1]}" for r in runs]


def reach_problems(name: str, info: FileLines, ran: set[int]) -> list[str]:
    """Every gate failure of one file, given the lines that ran."""
    problems = marker_problems(name, info)
    dead = info.executable - ran - info.exempt - info.marked()
    problems += [f"{name}:{r}: neither executed nor exempt"
                 for r in _ranges(dead, info.executable)]
    for line, marker in sorted(info.markers.items()):
        stale = (marker.covered - marker.header) & ran
        live = marker.covered - info.exempt
        if stale:
            problems.append(f"{name}:{line}: marker is stale, line(s) "
                            f"{', '.join(_ranges(stale, info.executable))} ran")
        elif live and live <= ran:
            problems.append(f"{name}:{line}: marker is stale, every line it "
                            "covers ran")
    return problems


def source_files(src: Path = SRC) -> dict[str, FileLines]:
    """``{path relative to src: FileLines}`` for every file of ``repro``."""
    return {path.relative_to(src).as_posix():
            read_file(path.read_text(encoding="utf-8"), str(path))
            for path in sorted((src / "repro").rglob("*.py"))}


def run_invocation(argv: list[str], workdir: Path) -> dict:
    """Run one invocation in a child under the tracer; its record."""
    workdir.mkdir()
    (workdir / "replay.json").write_text(json.dumps(REPLAY_TRACE), encoding="utf-8")
    out = workdir / "reach.json"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p))
    began = time.monotonic()
    proc = subprocess.run(
        [sys.executable, __file__, "--child", str(out), "--", *argv],
        cwd=workdir, env=env, capture_output=True, text=True,
    )
    record = {"exit": proc.returncode, "scipy": [], "ran": {}}
    if out.exists():
        record = json.loads(out.read_text(encoding="utf-8"))
    record["seconds"] = time.monotonic() - began
    if record["exit"] != 0:
        record["stderr"] = proc.stderr[-2000:]
    return record


def audit(jobs: int) -> int:
    matrix = flag_matrix()
    files = source_files()
    began = time.monotonic()
    with tempfile.TemporaryDirectory() as tmp, ThreadPoolExecutor(jobs) as pool:
        records = list(pool.map(
            lambda item: run_invocation(item[1][1], Path(tmp) / str(item[0])),
            enumerate(matrix),
        ))
    problems: list[str] = []
    ran: dict[str, set[int]] = {name: set() for name in files}
    for (label, _), record in zip(matrix, records):
        print(f"{record['seconds']:6.1f}s  exit {record['exit']}  {label}")
        if record["exit"] != 0:
            problems.append(f"invocation failed (exit {record['exit']}): {label}\n"
                            + record.get("stderr", ""))
        if record["scipy"]:
            problems.append(f"imported scipy ({', '.join(record['scipy'])}): {label}")
        for name, lines in record["ran"].items():
            ran[name].update(lines)
    counts = dict.fromkeys(("executable", "executed", "exempt", "marked"), 0)
    for name, info in files.items():
        problems += reach_problems(f"src/{name}", info, ran[name])
        unexecuted = info.executable - ran[name]
        counts["executable"] += len(info.executable)
        counts["executed"] += len(info.executable) - len(unexecuted)
        counts["exempt"] += len(info.exempt & unexecuted)
        counts["marked"] += len((info.marked() - info.exempt) & unexecuted)
    print(f"{len(matrix)} invocations in {time.monotonic() - began:.0f} s; "
          + ", ".join(f"{n} {k}" for k, n in counts.items()) + " lines")
    for problem in problems:
        print(f"FAIL: {problem}")
    return 1 if problems else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--jobs", type=int, default=2,
                        help="invocations run at once (default 2)")
    parser.add_argument("--child", help=argparse.SUPPRESS)
    parser.add_argument("argv", nargs=argparse.REMAINDER, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        return child(args.child, args.argv[1:] if args.argv[:1] == ["--"] else args.argv)
    return audit(args.jobs)


if __name__ == "__main__":
    sys.exit(main())
