import argparse
import json

import pytest

from repro.cli import EXIT_CONFIG, build_parser, main


def run_cli(capsys, *argv) -> str:
    code = main(list(argv))
    assert code == 0
    return capsys.readouterr().out


def test_models_command(capsys):
    out = run_cli(capsys, "models")
    assert "opt-30b" in out
    assert "llama-65b" in out
    assert "29.6" in out  # OPT-30B parameter count in billions


def test_run_single_engine(capsys):
    out = run_cli(capsys, "run", "--engine", "flexgen", "--gen-len", "8")
    assert "flexgen" in out
    assert "tput" in out


def test_run_all_engines(capsys):
    out = run_cli(capsys, "run", "--gen-len", "8")
    for name in ("lm-offload", "flexgen", "zero-inference"):
        assert name in out


def test_plan_command_saves_policy(capsys, tmp_path):
    path = tmp_path / "policy.json"
    out = run_cli(
        capsys, "plan", "--gen-len", "8", "--save", str(path)
    )
    assert "policy:" in out
    from tests.test_serialization import policy_from_doc

    policy = policy_from_doc(json.loads(path.read_text()))
    assert policy.gpu_batch_size * policy.num_gpu_batches == 640


def test_experiment_command_tab1(capsys):
    out = run_cli(capsys, "experiment", "tab1")
    assert "kv_cache" in out


def test_experiment_command_fig5(capsys):
    out = run_cli(capsys, "experiment", "fig5")
    assert "[intra]" in out and "[inter]" in out


def test_experiment_command_fig8_json(capsys):
    out = run_cli(capsys, "experiment", "fig8")
    assert "compute_reduction" in out


def test_whatif_command(capsys):
    out = run_cli(capsys, "whatif", "--gen-len", "8")
    assert "pcie3-x16" in out
    assert "h100-like" in out


def test_trace_command(capsys, tmp_path):
    path = tmp_path / "trace.json"
    out = run_cli(
        capsys, "trace", "--gen-len", "8", "--tokens", "1", "--layers", "2",
        "--output", str(path),
    )
    assert "slices" in out
    doc = json.loads(path.read_text())
    assert any(e.get("ph") == "X" for e in doc["traceEvents"])


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_parser_rejects_unknown_experiment():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["experiment", "fig99"])


def test_plan_search_geometry_reports_failures(capsys):
    out = run_cli(capsys, "plan", "--gen-len", "8", "--search-geometry")
    assert "geometry searched" in out
    assert "rejected geometries:" in out


def test_serve_sim_quick_single_engine(capsys, tmp_path):
    bench = tmp_path / "bench.json"
    trace = tmp_path / "timeline.json"
    out = run_cli(
        capsys, "serve-sim", "--model", "opt-1.3b", "--engine", "zero-inference",
        "--quick", "--seed", "0",
        "--output", str(bench), "--chrome-trace", str(trace),
    )
    assert "serve-sim: opt-1.3b" in out
    assert "ttft_p50" in out and "goodput_rps" in out
    doc = json.loads(bench.read_text())
    assert doc["schema_version"] == 1
    assert "zero-inference" in doc["engines"]
    m = doc["engines"]["zero-inference"]
    assert {"p50", "p95", "p99", "mean"} <= set(m["latency_s"]["ttft"])
    tl = json.loads(trace.read_text())
    assert any(e.get("ph") == "X" for e in tl["traceEvents"])


def test_serve_sim_metrics_out_writes_registry_document(capsys, tmp_path):
    metrics = tmp_path / "metrics.json"
    run_cli(
        capsys, "serve-sim", "--model", "opt-1.3b", "--engine", "zero-inference",
        "--quick", "--seed", "0",
        "--output", str(tmp_path / "b.json"), "--metrics-out", str(metrics),
    )
    doc = json.loads(metrics.read_text())
    series = doc["zero-inference"]["series"]
    assert series["requests.finished"]["type"] == "counter"
    assert series["latency.ttft_s"]["type"] == "histogram"
    assert series["latency.ttft_s"]["count"] > 0
    assert "p50" in series["latency.ttft_s"]


def test_serve_sim_replay_requires_trace_file(capsys):
    assert main(["serve-sim", "--arrival", "replay"]) == EXIT_CONFIG
    assert "config error" in capsys.readouterr().err


def test_serve_sim_replay_round_trip(capsys, tmp_path):
    from tests.traces import replay_trace, save_trace

    path = tmp_path / "trace.json"
    save_trace(replay_trace([(0.0, 16, 4), (0.2, 16, 8)], name="mini"), path)
    out = run_cli(
        capsys, "serve-sim", "--model", "opt-1.3b", "--engine", "zero-inference",
        "--arrival", "replay", "--trace-file", str(path),
        "--output", str(tmp_path / "b.json"),
    )
    assert "mini: 2 requests" in out


def test_serve_sim_seed_changes_default_trace(capsys, tmp_path):
    outs = []
    for seed in ("0", "0", "1"):
        run_cli(
            capsys, "serve-sim", "--model", "opt-1.3b", "--engine",
            "zero-inference", "--quick", "--seed", seed,
            "--output", str(tmp_path / f"b{len(outs)}.json"),
        )
        outs.append((tmp_path / f"b{len(outs)}.json").read_text())
    assert outs[0] == outs[1]  # same seed: byte-identical document
    assert outs[0] != outs[2]


def _name_choices(command: str) -> dict[str, list[str]]:
    parser = build_parser()
    sub = next(
        a for a in parser._actions if isinstance(a, argparse._SubParsersAction)
    )
    return {
        action.dest: list(action.choices)
        for action in sub.choices[command]._actions
        if action.dest in ("engine", "scheduler", "scenario", "fleet")
    }


def test_name_choices_are_the_registries():
    """Every engine/scheduler/scenario/fleet choice list is its table's
    keys (plus ``all`` where the command sweeps), so the CLI accepts
    exactly the names the library runs."""
    from repro.baselines import ENGINES
    from repro.faults import SCENARIOS
    from repro.serving import FLEET_PRESETS, FLEET_SCENARIOS, POLICIES

    engines = ["all", *ENGINES]
    schedulers = list(POLICIES)
    assert _name_choices("run") == {"engine": engines}
    assert _name_choices("serve-sim") == {
        "engine": engines, "scheduler": schedulers, "scenario": list(SCENARIOS),
    }
    assert _name_choices("chaos") == {
        "engine": engines, "scheduler": schedulers,
        "scenario": ["all", *SCENARIOS],
    }
    assert _name_choices("fleet-sim") == {
        "scheduler": schedulers, "fleet": ["all", *FLEET_PRESETS],
        "scenario": ["all", *FLEET_SCENARIOS],
    }
    for argv in (
        ["chaos", "--engine", "spec-offload"],
        ["chaos", "--scheduler", "sjf-predict"],
        ["fleet-sim", "--scheduler", "sjf-predict"],
    ):
        build_parser().parse_args(argv)
