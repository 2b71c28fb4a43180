"""Exit-code contract of ``python -m repro``, tested through a real
subprocess so the mapping survives everything between ``main()`` and the
shell: argparse's own exits, the typed-error handlers, and the module
``__main__`` plumbing.

Contract (documented in ``repro.cli``):

* 0 — success
* 1 — a command-level gate failed (audit drift, chaos accounting)
* 2 — argparse usage error
* 3 — ``ConfigError``
* 4 — ``PolicyError`` / ``MemoryCapacityError`` (infeasible)
* 5 — ``ScheduleError``
* 6 — any other ``ReproError``
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent


def run_repro(*argv, cwd=None):
    env = dict(os.environ)
    src = str(REPO_ROOT / "src")
    env["PYTHONPATH"] = src + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return subprocess.run(
        [sys.executable, "-m", "repro", *argv],
        cwd=cwd or REPO_ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=600,
    )


def test_success_is_zero():
    proc = run_repro("models")
    assert proc.returncode == 0
    assert "opt-30b" in proc.stdout


def test_usage_error_is_two():
    proc = run_repro("no-such-command")
    assert proc.returncode == 2
    assert "invalid choice" in proc.stderr


def test_config_error_is_three():
    proc = run_repro("run", "--model", "no-such-model", "--gen-len", "8")
    assert proc.returncode == 3
    assert "config error" in proc.stderr


def test_missing_trace_file_is_config_error():
    proc = run_repro("serve-sim", "--arrival", "replay")
    assert proc.returncode == 3
    assert "--trace-file" in proc.stderr


def test_infeasible_plan_is_four():
    proc = run_repro(
        "plan", "--batch", "4096", "--num-batches", "12", "--gen-len", "8"
    )
    assert proc.returncode == 4
    assert "infeasible" in proc.stderr


def test_schedule_error_is_five():
    proc = run_repro("trace", "--layers", "0", "--gen-len", "8")
    assert proc.returncode == 5
    assert "schedule error" in proc.stderr


def test_audit_quick_passes_and_artifact_is_deterministic(tmp_path):
    out1 = tmp_path / "a1.json"
    out2 = tmp_path / "a2.json"
    for out in (out1, out2):
        proc = run_repro("audit", "--quick", "--output", str(out))
        assert proc.returncode == 0, proc.stderr
        assert "drift audit (quick)" in proc.stdout
        assert "worst:" in proc.stdout
    assert out1.read_bytes() == out2.read_bytes()
    doc = json.loads(out1.read_text())
    assert doc["summary"]["ok"]
    assert doc["summary"]["num_cases"] == len(doc["cases"])


def test_audit_drift_gate_is_one(tmp_path):
    proc = run_repro(
        "audit", "--quick", "--tolerance", "1e-18",
        "--output", str(tmp_path / "a.json"),
    )
    assert proc.returncode == 1
    assert "DRIFT" in proc.stderr


CHAOS_QUICK = (
    "chaos", "--quick", "--engine", "zero-inference", "--scenario", "pcie-degrade",
)


@pytest.mark.parametrize(
    "argv",
    [
        ("audit", "--quick", "--tolerance", "nan"),
        ("audit", "--quick", "--e2e-tolerance", "nan"),
        ("audit", "--quick", "--faults", "--fault-tolerance", "nan"),
        CHAOS_QUICK + ("--drift-gate", "--drift-tolerance", "nan"),
        CHAOS_QUICK + ("--serving-drift-gate", "--serving-drift-tolerance", "nan"),
    ],
    ids=[
        "tolerance", "e2e-tolerance", "fault-tolerance", "drift-tolerance",
        "serving-drift-tolerance",
    ],
)
def test_nan_drift_tolerance_is_config_error(argv, tmp_path):
    out = tmp_path / "out.json"
    proc = run_repro(*argv, "--output", str(out))
    assert proc.returncode == 3, proc.stdout + proc.stderr
    assert "config error" in proc.stderr and "nan" in proc.stderr
    # Rejected before any pricing: no artifact with a bare NaN is written.
    assert not out.exists()


@pytest.mark.parametrize(
    "flag", [("--metrics-out", "m.json"), ("--chrome-trace", "t.json"),
             ("--scenario", "pcie-degrade")],
    ids=["metrics-out", "chrome-trace", "scenario"],
)
def test_models_mode_rejects_single_model_exports(flag, tmp_path):
    """``serve-sim --models`` has no registry, timeline or fault overlay
    to export, so these flags are refused before anything runs."""
    name, value = flag
    if name != "--scenario":
        value = str(tmp_path / value)
    out = tmp_path / "out.json"
    proc = run_repro(
        "serve-sim", "--models", "opt-duo", "--quick", name, value,
        "--output", str(out),
    )
    assert proc.returncode == 3, proc.stdout + proc.stderr
    assert "config error" in proc.stderr
    assert not out.exists()


def test_profile_flag_reports_to_stderr(tmp_path):
    proc = run_repro(
        "--profile", "audit", "--quick", "--output", str(tmp_path / "a.json")
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stderr[proc.stderr.index("{"):])
    assert report["scopes"]  # spans were captured
    assert "executor.run_token" in report["scopes"]
