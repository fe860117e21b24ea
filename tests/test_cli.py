"""CLI subcommands: end-to-end runs, manifests, determinism, exit codes."""

import csv
import hashlib
import json
import subprocess
import sys

import pytest

from atrisk.cli import EXIT_DATA, EXIT_MODEL, EXIT_OK, main

FAST = ["--n-trees", "10", "--max-depth", "2"]


def sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.fixture(scope="module")
def sim_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("sim")
    code = main(
        ["simulate", "--n-students", "80", "--seed", "3", "--out-dir", str(out)]
    )
    assert code == EXIT_OK
    return out


def io_args(sim_dir, out):
    return [
        "--events", str(sim_dir / "events.jsonl"),
        "--schema", str(sim_dir / "schema.json"),
        "--out-dir", str(out),
    ]


def test_simulate_writes_files_and_manifest(sim_dir):
    for name in ("events.jsonl", "schema.json", "truth.jsonl", "manifest.json"):
        assert (sim_dir / name).exists()
    manifest = json.loads((sim_dir / "manifest.json").read_text())
    assert manifest["subcommand"] == "simulate"
    assert manifest["args"]["seed"] == 3
    for path, digest in manifest["outputs"].items():
        assert sha256(sim_dir / path.rsplit("/", 1)[-1]) == digest


def test_train_writes_model_pairs_manifest(sim_dir, tmp_path):
    assert main(["train", *io_args(sim_dir, tmp_path), *FAST]) == EXIT_OK
    model = json.loads((tmp_path / "model.json").read_text())
    assert model["config"]["n_trees"] == 10
    assert len(model["trees"]) == 10
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["subcommand"] == "train"
    assert manifest["n_pseudo_pairs"] > 0
    assert str(sim_dir / "events.jsonl") in manifest["inputs"]
    for path, digest in manifest["outputs"].items():
        assert hashlib.sha256(open(path, "rb").read()).hexdigest() == digest
    with open(tmp_path / "pairs.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert {r["provenance"] for r in rows} >= {
        "original_positive", "original_negative", "pseudo_positive"
    }


def test_train_is_byte_deterministic(sim_dir, tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["train", *io_args(sim_dir, a), *FAST]) == EXIT_OK
    assert main(["train", *io_args(sim_dir, b), *FAST]) == EXIT_OK
    assert (a / "model.json").read_bytes() == (b / "model.json").read_bytes()
    assert (a / "pairs.csv").read_bytes() == (b / "pairs.csv").read_bytes()


def test_evaluate_writes_report(sim_dir, tmp_path):
    code = main(
        ["evaluate", *io_args(sim_dir, tmp_path), *FAST, "--deltas", "1,7",
         "--seed", "1"]
    )
    assert code == EXIT_OK
    report = json.loads((tmp_path / "report.json").read_text())
    assert set(report["auc_by_horizon"]) == {"1", "7"}
    for value in report["auc_by_horizon"].values():
        assert value is None or 0.0 <= value <= 1.0


def test_evaluate_is_byte_deterministic(sim_dir, tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    argv = [*FAST, "--deltas", "1..3", "--seed", "1"]
    assert main(["evaluate", *io_args(sim_dir, a), *argv]) == EXIT_OK
    assert main(["evaluate", *io_args(sim_dir, b), *argv]) == EXIT_OK
    assert (a / "report.json").read_bytes() == (b / "report.json").read_bytes()


def test_featurize_writes_csv(sim_dir, tmp_path):
    assert main(["featurize", *io_args(sim_dir, tmp_path)]) == EXIT_OK
    with open(tmp_path / "features.csv") as fh:
        rows = list(csv.reader(fh))
    header = rows[0]
    assert header[:2] == ["student_id", "day"]
    assert any(name.startswith("in_") for name in header)
    assert any(name.startswith("time_") for name in header)
    assert len(rows) > 1
    for value in rows[1][2:]:
        float(value)  # every feature cell parses as a number


def test_predict_ranks_and_flags(sim_dir, tmp_path):
    code = main(
        ["predict", *io_args(sim_dir, tmp_path), *FAST, "--top-fraction", "0.25"]
    )
    assert code == EXIT_OK
    with open(tmp_path / "predictions.csv") as fh:
        rows = list(csv.DictReader(fh))
    probs = [float(r["probability"]) for r in rows]
    assert probs == sorted(probs, reverse=True)
    n_flagged = sum(int(r["flagged"]) for r in rows)
    assert n_flagged == -(-len(rows) // 4)  # ceil(0.25 * n)
    assert all(int(r["flagged"]) for r in rows[:n_flagged])


def test_sweep_writes_reports(sim_dir, tmp_path):
    code = main(
        ["sweep", *io_args(sim_dir, tmp_path), "--lookbacks", "none,7",
         "--deltas", "7", "--n-trees", "5", "--max-depth", "2"]
    )
    assert code == EXIT_OK
    report = json.loads((tmp_path / "report.json").read_text())
    assert len(report["cells"]) == 2
    lines = (tmp_path / "report.csv").read_text().strip().splitlines()
    assert lines[0] == "cell,delta,mean_auc,std_auc,n_seeds"
    assert len(lines) == 3


def test_data_error_exit_code(tmp_path):
    events = tmp_path / "events.jsonl"
    events.write_text("this is not json\n")
    schema = tmp_path / "schema.json"
    schema.write_text(json.dumps({"inclass_columns": ["a"], "outclass_columns": ["b"]}))
    code = main(
        ["train", "--events", str(events), "--schema", str(schema),
         "--out-dir", str(tmp_path / "out")]
    )
    assert code == EXIT_DATA


def test_model_error_exit_code(sim_dir, tmp_path):
    code = main(["train", *io_args(sim_dir, tmp_path), "--n-trees", "-1"])
    assert code == EXIT_MODEL


def test_usage_error_exit_code(sim_dir, tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["train", "--events"])  # missing value and required args
    assert exc.value.code == 2
    with pytest.raises(SystemExit):
        main(["no-such-command"])


def test_workers_flag_is_gone(sim_dir, tmp_path):
    for argv in (["train", *io_args(sim_dir, tmp_path), "--workers", "2"],
                 ["sweep", *io_args(sim_dir, tmp_path), "--workers", "2"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2


def test_module_entry_point(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "atrisk", "simulate", "--n-students", "30",
         "--seed", "1", "--out-dir", str(tmp_path)],
        capture_output=True, text=True,
    )
    assert proc.returncode == EXIT_OK
    assert "simulated 30 students" in proc.stdout
    assert (tmp_path / "events.jsonl").exists()
