#!/usr/bin/env python3
"""CI gate: every function under ``src/repro`` is reached or allowlisted.

Runs the flag matrix of every shipped surface -- each CLI command and
flag family, ``scripts/generate_experiments_md.py``, the examples and the
perfbench workloads -- one subprocess per invocation, each under
``sys.setprofile``, and collects the ``src/repro`` code objects that ran.
It then enumerates every ``def`` under ``src/repro`` by AST and checks the
two sets against ``scripts/reach_allowlist.txt``, whose lines read::

    repro.module:Qualified.name  # why it stays although no surface calls it

The gate fails when

* a function is neither reached nor allowlisted (new dead code),
* an allowlisted function is now reached (the entry is stale), or
* an allowlisted function no longer exists, or an entry has no reason.

Every child installs a ``sys.meta_path`` finder that makes ``import
scipy`` raise, and reports any attempt, so every invocation also proves
the command runs without scipy.  An invocation that exits non-zero fails
the gate too: its reach would be incomplete.

Usage::

    python scripts/reach_audit.py [--jobs N]

Exit codes: 0 ok, 1 gate failed.
"""

from __future__ import annotations

import argparse
import ast
import importlib.abc
import json
import os
import runpy
import subprocess
import sys
import tempfile
import threading
import time
import traceback
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
ALLOWLIST = Path(__file__).resolve().parent / "reach_allowlist.txt"
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
        cli("chaos", *q, "--drift-gate", "--serving-drift-gate",
            "--chrome-trace", "t.json", "--metrics-out", "m.json"),
        *(cli("fleet-sim", *q, "--scenario", name) for name in FLEET_SCENARIOS),
        cli("fleet-sim", *q, "--fleet", "hetero-8", "--scheduler", "sjf-predict",
            "--chrome-trace", "t.json", "--metrics-out", "m.json"),
        cli("fleet-sim", *q, "--hedge-after", "0", "--breaker-threshold", "0"),
        # An early hedge races its clone to completion and cancels the loser.
        cli("fleet-sim", *q, "--hedge-after", "2"),
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
    """Run one invocation under the profiler and write what it reached."""
    blocker = ScipyBlocker()
    sys.meta_path.insert(0, blocker)
    codes: set = set()

    def profile(frame, event, arg):
        if event == "call":
            codes.add(frame.f_code)

    exit_code = 0
    threading.setprofile(profile)
    sys.setprofile(profile)
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
        sys.setprofile(None)
        threading.setprofile(None)
    src = str(SRC) + os.sep
    reached = sorted(
        {(Path(c.co_filename).relative_to(SRC).as_posix(), c.co_firstlineno,
          c.co_name)
         for c in codes if c.co_filename.startswith(src)}
    )
    with open(out, "w", encoding="utf-8") as fh:
        json.dump({"exit": exit_code, "scipy": blocker.attempts,
                   "reached": reached}, fh)
    return 0


# -------------------------------------------------------------- parent side


def enumerate_functions(src: Path = SRC) -> dict[tuple[str, int, str], str]:
    """Every ``def`` under ``src/repro``: ``(relpath, first line, name)`` ->
    ``module:qualname``.  The first line is the first decorator's, as in
    ``co_firstlineno``."""
    found: dict[tuple[str, int, str], str] = {}
    for path in sorted((src / "repro").rglob("*.py")):
        rel = path.relative_to(src).as_posix()
        module = rel[:-3].replace("/", ".").removesuffix(".__init__")

        def visit(node: ast.AST, prefix: str) -> None:
            for sub in ast.iter_child_nodes(node):
                if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    qual = prefix + sub.name
                    first = min([sub.lineno, *(d.lineno for d in sub.decorator_list)])
                    found[(rel, first, sub.name)] = f"{module}:{qual}"
                    visit(sub, qual + ".<locals>.")
                elif isinstance(sub, ast.ClassDef):
                    visit(sub, prefix + sub.name + ".")
                else:
                    visit(sub, prefix)

        visit(ast.parse(path.read_text(encoding="utf-8")), "")
    return found


def read_allowlist(path: Path = ALLOWLIST) -> tuple[dict[str, str], list[str]]:
    """``{module:qualname: reason}`` and the malformed lines."""
    entries: dict[str, str] = {}
    bad: list[str] = []
    for n, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
        if not line.strip() or line.startswith("#"):
            continue
        name, _, reason = line.partition("#")
        name, reason = name.strip(), reason.strip()
        if not reason or ":" not in name or " " in name or name in entries:
            bad.append(f"{path.name}:{n}: {line}")
        entries[name] = reason
    return entries, bad


def run_invocation(argv: list[str], workdir: Path) -> dict:
    """Run one invocation in a child under the profiler; its record."""
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
    record = {"exit": proc.returncode, "scipy": [], "reached": []}
    if out.exists():
        record = json.loads(out.read_text(encoding="utf-8"))
    record["seconds"] = time.monotonic() - began
    if record["exit"] != 0:
        record["stderr"] = proc.stderr[-2000:]
    return record


def audit(jobs: int) -> int:
    matrix = flag_matrix()
    functions = enumerate_functions()
    allow, bad = read_allowlist()
    began = time.monotonic()
    with tempfile.TemporaryDirectory() as tmp, ThreadPoolExecutor(jobs) as pool:
        records = list(pool.map(
            lambda item: run_invocation(item[1][1], Path(tmp) / str(item[0])),
            enumerate(matrix),
        ))
    problems = [f"malformed allowlist line: {line}" for line in bad]
    reached: set[tuple[str, int, str]] = set()
    for (label, _), record in zip(matrix, records):
        print(f"{record['seconds']:6.1f}s  exit {record['exit']}  {label}")
        if record["exit"] != 0:
            problems.append(f"invocation failed (exit {record['exit']}): {label}\n"
                            + record.get("stderr", ""))
        if record["scipy"]:
            problems.append(f"imported scipy ({', '.join(record['scipy'])}): {label}")
        reached.update(tuple(key) for key in record["reached"])
    names = set(functions.values())
    # A name is unreached while any def carrying it is (a property getter
    # and its setter share one qualname).
    unreached = sorted({name for key, name in functions.items() if key not in reached})
    problems += [f"neither reached nor allowlisted: {name}"
                 for name in unreached if name not in allow]
    problems += [f"allowlisted but reached (drop the entry): {name}"
                 for name in sorted(allow) if name in names and name not in unreached]
    problems += [f"allowlisted but no longer defined: {name}"
                 for name in sorted(allow) if name not in names]
    print(f"{len(matrix)} invocations in {time.monotonic() - began:.0f} s; "
          f"{len(names)} functions, {len(names) - len(unreached)} reached, "
          f"{len(unreached)} unreached, {len(allow)} allowlisted")
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
