"""Tests of the benchmark harness itself, on tiny inputs.

    PYTHONPATH=src python -m pytest -q perfbench/test_perfbench.py

They run every workload in --smoke mode, traced and untraced, and check the
output contract, the tracer's patching, and the refusal to run without the
program's sources.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(cwd, workload, trace, seed=3):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_meets_output_contract(workload, trace):
    proc = run_bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, proc.stderr
    assert result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    for m in wanted:
        entry = result["metrics"][m["name"]]
        assert entry["unit"] == m["unit"]
        assert isinstance(entry["value"], (int, float))
    if not trace:
        assert all(result["metrics"][m["name"]]["value"] > 0 for m in wanted)
    details = json.loads(proc.stdout.strip().splitlines()[-2])["details"]
    assert details["src_atrisk_lines"] > 0
    assert set(details["sha256"]) == {"model.json", "report.json"}


def test_traced_layers_cover_their_workload():
    proc = run_bench(ROOT, "cli_deploy", 1)
    layers = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
    for name in ("cli.self_s", "cli.manifest_s", "labeling.write_pairs_s",
                 "evaluation.daily_flagging_self_s", "gbdt.fit_s", "features.assemble_s"):
        assert layers[name]["value"] > 0, name
    # train and evaluate each ingest the log once
    spans = [json.loads(line) for line in
             (HERE / "_runs" / "cli_deploy" / "run1" / "spans.jsonl").read_text().splitlines()]
    assert sum(s["name"] == "events.ingest" for s in spans) == 2


def test_tracer_patches_names_bound_by_import():
    import atrisk.cli
    import atrisk.pipeline
    import tracing

    original = atrisk.cli.ingest
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert atrisk.cli.ingest is not original
        assert atrisk.events.ingest is atrisk.cli.ingest
        assert atrisk.pipeline.augment is atrisk.augmentation.augment
        assert atrisk.cli.evaluate_horizons is atrisk.evaluation.evaluate_horizons
    finally:
        tracer.uninstall()
    assert atrisk.cli.ingest is original


def test_self_time_subtracts_child_spans():
    import tracing

    tracer = tracing.Tracer()
    tracer.spans += [[0, -1, "pipeline.train", 0.0, 10.0, None],
                     [1, 0, "gbdt.fit", 1.0, 7.0, (5, 3, 1)],
                     [2, 0, "features.assemble", 7.0, 8.0, None]]
    layers = tracer.layer_metrics()
    assert layers["pipeline.train_self_s"] == pytest.approx(3.0)
    assert layers["gbdt.fit_s"] == pytest.approx(6.0)
    assert layers["gbdt.nodes_built"] == 3
    assert layers["features.assemble_us_per_call"] == pytest.approx(1e6)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_runs", "__pycache__"))
    proc = run_bench(tmp_path, "score_daily", 0)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
