"""Golden-schema tests for the committed ``BENCH_*.json`` artifacts.

The seven benchmark documents (``BENCH_timing.json``, ``BENCH_serving.json``,
``BENCH_chaos.json``, ``BENCH_audit.json``, ``BENCH_fleet.json``,
``BENCH_multimodel.json``, ``BENCH_spec.json``) are the repo's public contract
with downstream dashboards and the CI gates — a key silently disappearing
is a breaking change that no numeric tolerance catches.  These tests pin
the contract three ways:

* every artifact still carries its *required* top-level keys;
* no key path present in the checked-in snapshot
  (``tests/data/bench_schemas.json``, the full recursive key skeleton of
  each artifact at the time it was frozen) has disappeared — new keys are
  fine, removals fail;
* every float anywhere in every document is finite (no NaN/Inf smuggled
  through ``json.dumps``, which happily emits both).

When a PR legitimately extends a schema, regenerate the snapshot with::

    python - <<'EOF'
    import json
    from tests.test_bench_schemas import ARTIFACTS, key_paths, load_artifact
    snap = {n: sorted(key_paths(load_artifact(n))) for n in ARTIFACTS}
    with open("tests/data/bench_schemas.json", "w") as fh:
        json.dump(snap, fh, indent=2, sort_keys=True)
        fh.write("\n")
    EOF

(run from the repo root with ``PYTHONPATH=src:.``) and review the diff —
removals should be deliberate and called out in the PR.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
SNAPSHOT_PATH = Path(__file__).resolve().parent / "data" / "bench_schemas.json"
ARTIFACTS = ("timing", "serving", "chaos", "audit", "fleet", "multimodel", "spec")

#: The minimum top-level contract of each artifact, independent of the
#: snapshot (so a wholesale snapshot regeneration cannot hide losing one
#: of these).
REQUIRED_TOP_LEVEL = {
    "timing": {"policy", "quick", "schema_version", "targets", "workload"},
    "serving": {
        "comparison", "config", "engines", "model", "scheduler",
        "schema_version", "trace",
    },
    "chaos": {
        "all_accounting_ok", "config", "engines", "model", "scenarios",
        "scheduler", "schema_version", "seed", "trace",
    },
    "audit": {
        "cases", "e2e_tolerance", "metrics", "quick", "schema_version",
        "summary", "tolerance",
    },
    "fleet": {
        "all_accounting_ok", "config", "fleets", "model", "quick",
        "scenarios", "scheduler", "schema_version", "seed",
    },
    "multimodel": {
        "config", "engine", "mixes", "models", "preset", "schema_version",
        "seed", "slo_classes",
    },
    "spec": {
        "cells", "comparison", "model", "schema_version", "spec", "sweep",
    },
}


def key_paths(doc: object, prefix: str = "") -> set[str]:
    """Every dotted key path in ``doc``; list elements collapse to ``[]``
    (so variable-length lists compare by element shape, not length)."""
    paths: set[str] = set()
    if isinstance(doc, dict):
        for key, value in doc.items():
            path = f"{prefix}.{key}" if prefix else str(key)
            paths.add(path)
            paths |= key_paths(value, path)
    elif isinstance(doc, list):
        for item in doc:
            paths |= key_paths(item, prefix + "[]")
    return paths


def iter_floats(doc: object, prefix: str = ""):
    """Yield ``(path, value)`` for every float anywhere in ``doc``."""
    if isinstance(doc, dict):
        for key, value in doc.items():
            yield from iter_floats(value, f"{prefix}.{key}" if prefix else str(key))
    elif isinstance(doc, list):
        for i, item in enumerate(doc):
            yield from iter_floats(item, f"{prefix}[{i}]")
    elif isinstance(doc, float):
        yield prefix, doc


def load_artifact(name: str) -> dict:
    path = REPO_ROOT / f"BENCH_{name}.json"
    # json.loads accepts NaN/Infinity by default; the finiteness test
    # walks the parsed floats, so lenient parsing is what we want here.
    return json.loads(path.read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def snapshot() -> dict[str, list[str]]:
    return json.loads(SNAPSHOT_PATH.read_text(encoding="utf-8"))


@pytest.mark.parametrize("name", ARTIFACTS)
def test_artifact_exists_and_has_required_top_level_keys(name):
    doc = load_artifact(name)
    missing = REQUIRED_TOP_LEVEL[name] - doc.keys()
    assert not missing, f"BENCH_{name}.json lost required keys: {sorted(missing)}"
    assert doc["schema_version"] == 1


@pytest.mark.parametrize("name", ARTIFACTS)
def test_no_key_path_disappears_vs_snapshot(name, snapshot):
    current = key_paths(load_artifact(name))
    missing = sorted(set(snapshot[name]) - current)
    assert not missing, (
        f"BENCH_{name}.json dropped {len(missing)} key path(s) present in "
        f"tests/data/bench_schemas.json (first few: {missing[:5]}); if the "
        "removal is intentional, regenerate the snapshot (see module "
        "docstring) and flag it in the PR"
    )


@pytest.mark.parametrize("name", ARTIFACTS)
def test_snapshot_covers_required_top_level(name, snapshot):
    """The snapshot itself must subsume the explicit top-level contract —
    guards against regenerating it from a truncated artifact."""
    assert REQUIRED_TOP_LEVEL[name] <= set(snapshot[name])


@pytest.mark.parametrize("name", ARTIFACTS)
def test_all_floats_finite(name):
    bad = [
        (path, value)
        for path, value in iter_floats(load_artifact(name))
        if not math.isfinite(value)
    ]
    assert not bad, f"BENCH_{name}.json contains non-finite floats: {bad[:5]}"


# -- the producers still emit the contract ---------------------------------


def test_quick_timing_payload_keeps_contract(quick_bench_timing):
    payload = quick_bench_timing.payload
    assert REQUIRED_TOP_LEVEL["timing"] <= payload.keys()
    assert payload["quick"] is True
    # quick skips tab3 by design; the two cheap targets keep full stats.
    for target in ("plan", "breakdown"):
        stats = payload["targets"][target]
        assert {
            "median_s", "best_s", "mean_s", "repeats",
            "baseline_median_s", "speedup_vs_baseline",
        } <= stats.keys()
        assert all(
            math.isfinite(v) for _, v in iter_floats(stats)
        )


@pytest.fixture(scope="module")
def quick_audit_payload():
    from repro.obs.audit import run_audit

    return run_audit(quick=True)


def test_quick_multimodel_payload_keeps_contract_and_is_deterministic():
    from repro.bench.multimodel import CORESIDENT_SCHEDULERS, run_multimodel_bench

    kwargs = dict(
        preset="opt-1.3b,opt-6.7b",
        engine="zero-inference",
        mixes=("balanced",),
        quick=True,
        seed=0,
    )
    p1 = run_multimodel_bench(**kwargs)
    p2 = run_multimodel_bench(**kwargs)
    assert json.dumps(p1, sort_keys=True) == json.dumps(p2, sort_keys=True)
    assert REQUIRED_TOP_LEVEL["multimodel"] <= p1.keys()
    assert p1["models"] == ["opt-1.3b", "opt-6.7b"]
    mix = p1["mixes"]["balanced"]
    assert set(mix["coresident"]) == set(CORESIDENT_SCHEDULERS)
    assert mix["dedicated"]["replicas"] == 2
    assert set(mix["consolidation_ratio"]) == set(CORESIDENT_SCHEDULERS)
    # The learned-predictor run carries its mispredict ledger.
    assert "predictor" in mix["coresident"]["sjf-predict"]
    assert all(math.isfinite(v) for _, v in iter_floats(p1))


def test_quick_spec_payload_keeps_contract_and_is_deterministic():
    from repro.bench.spec import run_spec_sweep

    p1 = run_spec_sweep(quick=True)
    p2 = run_spec_sweep(quick=True)
    assert json.dumps(p1, sort_keys=True) == json.dumps(p2, sort_keys=True)
    assert REQUIRED_TOP_LEVEL["spec"] <= p1.keys()
    assert all(math.isfinite(v) for _, v in iter_floats(p1))
    for cell in p1["cells"]:
        assert {
            "context", "alpha", "base_tokens_per_s", "spec_tokens_per_s",
            "speedup", "chosen_depth", "tokens_per_step",
        } <= cell.keys()


def test_quick_audit_payload_keeps_contract(quick_audit_payload):
    payload = quick_audit_payload
    assert REQUIRED_TOP_LEVEL["audit"] <= payload.keys()
    assert payload["quick"] is True
    assert "faulted" not in payload  # fault sweep is strictly opt-in
    assert all(math.isfinite(v) for _, v in iter_floats(payload))


def test_faulted_audit_payload_only_adds_keys(quick_audit_payload):
    """``audit --faults`` extends the document; it never rewrites the
    fault-free schema (zero-fault byte-identity is tested elsewhere —
    this is the key-skeleton half of that contract)."""
    from repro.obs.audit import run_audit

    faulted = run_audit(quick=True, faults=True)
    base_paths = key_paths(quick_audit_payload)
    faulted_paths = key_paths(faulted)
    assert base_paths <= faulted_paths
    extra_top = set(faulted.keys()) - set(quick_audit_payload.keys())
    assert extra_top == {"fault_tolerance", "faulted"}
    assert all(math.isfinite(v) for _, v in iter_floats(faulted))
