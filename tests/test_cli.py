"""CLI subcommands: end-to-end runs, manifests, determinism, exit codes."""

import contextlib
import csv
import hashlib
import io
import json
import os
import shutil
import subprocess
import sys
import tempfile
import warnings
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import atrisk.cli
from atrisk import pipeline
from atrisk.cli import EXIT_DATA, EXIT_MODEL, EXIT_OK, main
from atrisk.evaluation import evaluate_horizons, query_points, rank_active, split_students
from atrisk.events import ingest, write_events
from atrisk.pipeline import PipelineScorer

from conftest import cohort_known_at

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


@pytest.fixture(scope="module")
def model_dir(sim_dir, tmp_path_factory):
    """A model directory `train` wrote for the simulated cohort."""
    out = tmp_path_factory.mktemp("model")
    assert main(["train", *io_args(sim_dir, out), *FAST]) == EXIT_OK
    return out


def io_args(sim_dir, out):
    return [
        "--events", str(sim_dir / "events.jsonl"),
        "--schema", str(sim_dir / "schema.json"),
        "--out-dir", str(out),
    ]


def test_simulate_writes_files_and_manifest(sim_dir):
    assert sorted(p.name for p in sim_dir.iterdir()) == [
        "events.jsonl", "manifest.json", "schema.json"]
    manifest = json.loads((sim_dir / "manifest.json").read_text())
    assert manifest["subcommand"] == "simulate"
    assert manifest["args"]["seed"] == 3
    assert sorted(path.rsplit("/", 1)[-1] for path in manifest["outputs"]) == [
        "events.jsonl", "schema.json"]
    for path, digest in manifest["outputs"].items():
        assert sha256(sim_dir / path.rsplit("/", 1)[-1]) == digest


def test_simulate_prints_the_written_cohorts_stats(tmp_path, capsys):
    assert main(["simulate", "--n-students", "60", "--seed", "2",
                 "--out-dir", str(tmp_path)]) == EXIT_OK
    cohort = ingest(tmp_path / "events.jsonl", tmp_path / "schema.json")
    statuses = [s.final_status for s in cohort]
    spans = [s.last_day - s.first_day for s in cohort]
    assert capsys.readouterr().out == (
        f"simulated {len(cohort)} students, dropout rate "
        f"{statuses.count('dropout') / len(cohort):.4f}, mean span {np.mean(spans):.1f} days, "
        f"{sum(len(s.observations) for s in cohort)} pairs\n"
    )
    assert len(cohort) == 60 and 0 < statuses.count("dropout") < 60


def test_train_writes_model_pairs_manifest(sim_dir, tmp_path):
    assert main(["train", *io_args(sim_dir, tmp_path), *FAST]) == EXIT_OK
    model = json.loads((tmp_path / "model.json").read_text())
    assert model["config"]["n_trees"] == 10
    assert len(model["trees"]) == 10
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["subcommand"] == "train"
    assert "n_pseudo_pairs" not in manifest  # pairs_by_provenance counts them
    assert str(sim_dir / "events.jsonl") in manifest["inputs"]
    for path, digest in manifest["outputs"].items():
        assert hashlib.sha256(open(path, "rb").read()).hexdigest() == digest
    with open(tmp_path / "pairs.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert {r["provenance"] for r in rows} >= {
        "original_positive", "original_negative", "pseudo_positive"
    }
    by_provenance = manifest["pairs_by_provenance"]
    assert by_provenance == {**Counter(r["provenance"] for r in rows),
                             "drawn": by_provenance["drawn"]}
    # over-sampling draws positives up to 30% of the training rows
    assert by_provenance["drawn"] == round(0.3 * by_provenance["original_negative"] / 0.7)
    curve = manifest["train_loss_curve"]
    assert len(curve) == 11  # before the first tree and after each of the 10
    assert curve == sorted(curve, reverse=True)
    assert "train_loss_curve" not in model


@pytest.mark.parametrize("lookback, model_sha256, pairs_sha256, pseudo", [
    ("7", "bd9410520ba4de42f10bb818419e5abf6da1cc41f20b7dc120c28913ee0351c4",
     "ad9d35b718c943fce70e6ef602a9e9b8aec6a08755e1ef5969f8266e36f15e5f", 56),
    ("none", "df9288f463e1e7690a2e879dbc895e619652b3f7cd1bca5c3b597295207c0ede",
     "87c3bfd875716fa2943b99dca2c1e258c9624b7827a2332c3e0bf879282100d3", 0),
])
def test_train_outputs_are_pinned(sim_dir, tmp_path, capsys, lookback, model_sha256,
                                  pairs_sha256, pseudo):
    """The sha256 values were computed while every training pair was still a
    TrainingPair object, at the commit before pairs became columns."""
    assert main(["train", *io_args(sim_dir, tmp_path), *FAST, "--lookback", lookback]) == EXIT_OK
    assert capsys.readouterr().out == (
        f"trained gbdt on 13 positives, {pseudo} pseudo positives, 3335 negatives\n"
    )
    assert sha256(tmp_path / "model.json") == model_sha256
    assert sha256(tmp_path / "pairs.csv") == pairs_sha256


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


def test_featurize_csv_is_pinned(sim_dir, tmp_path):
    assert main(["featurize", *io_args(sim_dir, tmp_path)]) == EXIT_OK
    assert sha256(tmp_path / "features.csv") == (
        "d3ded7cbea42494d6721dad53bcf1705d41535b945c46eb0ae862b1ba44b8388")


def test_predict_ranks_and_flags(sim_dir, model_dir, tmp_path, monkeypatch):
    def no_training(*args, **kwargs):  # predict scores with the model train wrote
        raise AssertionError("pipeline.train ran")

    monkeypatch.setattr(pipeline, "train", no_training)
    code = main(
        ["predict", *io_args(sim_dir, tmp_path), "--model", str(model_dir),
         "--at-day", "60", "--top-fraction", "0.25"]
    )
    assert code == EXIT_OK
    with open(tmp_path / "predictions.csv") as fh:
        rows = list(csv.DictReader(fh))
    probs = [float(r["probability"]) for r in rows]
    assert probs == sorted(probs, reverse=True)
    n_flagged = sum(int(r["flagged"]) for r in rows)
    assert n_flagged == -(-len(rows) // 4)  # ceil(0.25 * n)
    assert all(int(r["flagged"]) for r in rows[:n_flagged])


@pytest.mark.parametrize("at_day, n_rows, predictions_sha256", [
    (60, 75, "a2ff4dfe8c03709e00da4d14e5af177c9c09fd9b8a77ffb524d6693163146b4b"),
    (100, 44, "cf27159a7a4dd38b2eb5e8cec0acfd56892eb55face4f81833cbc0a97926d6a2"),
], ids=["day60", "day100"])
def test_predict_outputs_are_pinned(sim_dir, tmp_path, at_day, n_rows, predictions_sha256):
    """`train` then `predict --model --at-day D` lists exactly the students
    active at D: each has started by D and has not left by it."""
    assert main(["train", *io_args(sim_dir, tmp_path / "model"), *FAST]) == EXIT_OK
    assert main(["predict", *io_args(sim_dir, tmp_path / "run"),
                 "--model", str(tmp_path / "model"), "--at-day", str(at_day)]) == EXIT_OK
    cohort = ingest(sim_dir / "events.jsonl", sim_dir / "schema.json")
    with open(tmp_path / "run" / "predictions.csv") as fh:
        listed = [row["student_id"] for row in csv.DictReader(fh)]
    assert len(listed) == n_rows
    assert sorted(listed) == [s.student_id for s in cohort
                              if s.first_day <= at_day < s.last_day]  # no student is ongoing
    assert sha256(tmp_path / "run" / "predictions.csv") == predictions_sha256


@pytest.fixture(scope="module")
def seed7_dir(tmp_path_factory):
    """The 120-student seed-7 cohort and a model `train` wrote for it."""
    out = tmp_path_factory.mktemp("seed7")
    assert main(["simulate", "--n-students", "120", "--seed", "7",
                 "--out-dir", str(out / "sim")]) == EXIT_OK
    assert main(["train", *io_args(out / "sim", out / "model"), *FAST]) == EXIT_OK
    return out


@pytest.mark.parametrize("day, n_rows", [(20, 53), (45, 112), (60, 106), (100, 59), (150, 8)])
def test_predict_on_log_known_at_day_flags_what_replay_flags(seed7_dir, tmp_path, day, n_rows):
    """`predict --at-day d` on the log as it stood at day d writes the ranking
    and flags that the replay of the full log (`rank_active`) gives on day d."""
    full = ingest(seed7_dir / "sim" / "events.jsonl", seed7_dir / "sim" / "schema.json")
    live = tmp_path / "live"
    live.mkdir()
    write_events(cohort_known_at(full, day), live / "events.jsonl")
    shutil.copy(seed7_dir / "sim" / "schema.json", live / "schema.json")
    assert main(["predict", *io_args(live, tmp_path / "run"), "--model", str(seed7_dir / "model"),
                 "--at-day", str(day)]) == EXIT_OK
    with open(tmp_path / "run" / "predictions.csv") as fh:
        rows = list(csv.reader(fh))[1:]
    ranked, n_flag = rank_active(PipelineScorer.load(seed7_dir / "model", full), full, day, 0.3)
    assert len(rows) == n_rows
    assert rows == [[sid, f"{score:.6f}", str(int(i < n_flag))]
                    for i, (sid, score) in enumerate(ranked)]


def test_evaluate_scores_each_test_point_as_predict_does(tmp_path, monkeypatch):
    """Every test-split query point gets from `evaluate`'s scorer the bytes that
    `predict --at-day d` on the whole log gives its student at day d (a model
    loaded against that log, ranked through `rank_active`). Trees of 40x3 on
    this cohort split on the teacher columns, so teacher history from the
    training split alone would score about 10% of the points otherwise."""
    sim = tmp_path / "sim"
    assert main(["simulate", "--n-students", "200", "--seed", "3",
                 "--out-dir", str(sim)]) == EXIT_OK
    scorers = []

    def capture(scorer, *args):
        scorers.append(scorer)
        return evaluate_horizons(scorer, *args)

    monkeypatch.setattr(atrisk.cli, "evaluate_horizons", capture)
    assert main(["evaluate", *io_args(sim, tmp_path / "eval"), "--n-trees", "40",
                 "--max-depth", "3"]) == EXIT_OK
    (scorer,) = scorers
    full = ingest(sim / "events.jsonl", sim / "schema.json")
    train_split, test_split = split_students(full, 0.8, 0)
    scorer.save(tmp_path)
    loaded = PipelineScorer.load(tmp_path, full)
    points = query_points(test_split)
    ranked = {d: dict(rank_active(loaded, full, d, 0.3)[0]) for d in {d for _, d in points}}
    predicted = np.array([ranked[d][s.student_id] for s, d in points])
    assert scorer.many(points).tobytes() == predicted.tobytes()
    training_history = PipelineScorer(scorer.model, scorer.space, train_split)
    assert (training_history.many(points) != predicted).mean() > 0.05


def test_predict_on_resolved_log_by_default_exits_3(sim_dir, model_dir, tmp_path, capsys):
    """`--at-day` defaults to the log's last day, when every simulated student
    has left, so no student is active to rank."""
    out = tmp_path / "out"
    code = main(["predict", *io_args(sim_dir, out), "--model", str(model_dir)])
    stderr = capsys.readouterr().err.splitlines()
    assert code == EXIT_DATA
    assert [json.loads(line) for line in stderr] == [
        {"error": "ValidationError", "message": "no student is active at day 157"}]
    assert not (out / "predictions.csv").exists()


@pytest.mark.parametrize("at_day", ["0", "-5"])
def test_predict_before_any_start_exits_3(sim_dir, model_dir, tmp_path, capsys, at_day):
    out = tmp_path / "out"
    code = main(["predict", *io_args(sim_dir, out), "--model", str(model_dir),
                 "--at-day", at_day])
    stderr = capsys.readouterr().err.splitlines()
    assert code == EXIT_DATA
    assert len(stderr) == 1
    assert json.loads(stderr[0]) == {"error": "ValidationError",
                                     "message": f"no student is active at day {at_day}"}
    assert not (out / "predictions.csv").exists()
    assert not (out / "manifest.json").exists()


def test_predict_on_empty_events_exits_3(sim_dir, model_dir, tmp_path, capsys):
    events = tmp_path / "events.jsonl"
    events.write_text("")
    code = main(["predict", "--events", str(events), "--schema", str(sim_dir / "schema.json"),
                 "--out-dir", str(tmp_path / "out"), "--model", str(model_dir)])
    stderr = capsys.readouterr().err.splitlines()
    assert code == EXIT_DATA
    assert len(stderr) == 1
    assert json.loads(stderr[0])["error"] == "EmptyInputError"


def edit_feature_space(edit):
    def apply(model):
        space = json.loads((model / "feature_space.json").read_text())
        edit(space)
        (model / "feature_space.json").write_text(json.dumps(space))
    return apply


def edit_model_config(**changes):
    """`train` wrote 10 trees of depth 2 (FAST); the edited config disowns them."""
    def apply(model):
        raw = json.loads((model / "model.json").read_text())
        raw["config"].update(changes)
        (model / "model.json").write_text(json.dumps(raw))
    return apply


def widen_pca(space):
    """A PCA of five in-class columns, one more than the schema declares."""
    space["pca"]["mean"].append(0.0)
    for row in space["pca"]["components"]:
        row.append(0.0)


@pytest.mark.parametrize("breakage, exit_code", [
    (shutil.rmtree, EXIT_DATA),
    (lambda model: (model / "model.json").write_text("{not json"), EXIT_MODEL),
    (lambda model: (model / "model.json").write_text("[" * 100_000), EXIT_MODEL),
    (lambda model: (model / "model.json").write_bytes(b'{"format_version": "\xff"}'), EXIT_MODEL),
    (edit_model_config(n_trees=5), EXIT_MODEL),
    (edit_model_config(max_depth=1), EXIT_MODEL),
    (edit_feature_space(lambda space: space.update(format_version=2)), EXIT_MODEL),
    (edit_feature_space(lambda space: space["pca"].pop("mean")), EXIT_MODEL),
    (edit_feature_space(lambda space: space["pca"]["components"][0].pop()), EXIT_MODEL),
    (edit_feature_space(lambda space: space["pca"]["mean"].__setitem__(0, float("nan"))),
     EXIT_MODEL),
    (edit_feature_space(lambda space: space["pca"]["components"][1].__setitem__(2, float("inf"))),
     EXIT_MODEL),
    (edit_feature_space(lambda space: space.update(blocks=["in", "time"])), EXIT_DATA),
    (edit_feature_space(widen_pca), EXIT_DATA),
], ids=["missing-dir", "model-not-json", "model-deeply-nested", "model-not-utf8",
        "model-more-trees-than-config", "model-deeper-than-config",
        "space-wrong-version", "space-missing-key", "space-ragged-components",
        "space-nan-mean", "space-inf-component", "space-blocks-disagree",
        "inclass-width-differs"])
def test_malformed_model_dir_exits_cleanly(sim_dir, model_dir, tmp_path, capsys, breakage,
                                           exit_code):
    model = tmp_path / "model"
    shutil.copytree(model_dir, model)
    breakage(model)
    out = tmp_path / "out"
    code = main(["predict", *io_args(sim_dir, out), "--model", str(model), "--at-day", "60"])
    stderr = capsys.readouterr().err.splitlines()
    assert code == exit_code
    assert len(stderr) == 1
    assert set(json.loads(stderr[0])) == {"error", "message"}
    assert not (out / "predictions.csv").exists()
    assert not (out / "manifest.json").exists()


def test_sweep_writes_reports(sim_dir, tmp_path):
    code = main(
        ["sweep", *io_args(sim_dir, tmp_path), "--lookbacks", "none,7",
         "--deltas", "7", "--n-trees", "5", "--max-depth", "2"]
    )
    assert code == EXIT_OK
    report = json.loads((tmp_path / "report.json").read_text())
    assert len(report["cells"]) == 2
    assert not (tmp_path / "report.csv").exists()
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert list(manifest["outputs"]) == [str(tmp_path / "report.json")]
    assert manifest["args"]["weightings"] == ["convex"]
    assert manifest["args"]["feature_sets"] == ["in+out+time"]


def test_sweep_report_json_is_pinned(sim_dir, tmp_path):
    """The no-augmentation arm is named without a weighting and trains once: the
    report is the one of the commit before that change (full file cdede103...,
    without `recall_at_fraction` 9ba28b56...) with the
    `lookback=none,weighting=linear,` entries dropped and
    `lookback=none,weighting=convex,` renamed to `lookback=none,` in `cells` and
    `recall_at_fraction`, re-serialised with sorted keys."""
    code = main(
        ["sweep", *io_args(sim_dir, tmp_path), "--lookbacks", "none,7",
         "--weightings", "convex,linear", "--feature-sets", "in,in+out+time",
         "--deltas", "1,7", "--seeds", "0,1", "--n-trees", "5", "--max-depth", "2"]
    )
    assert code == EXIT_OK
    assert sha256(tmp_path / "report.json") == (
        "22d346bd057b9e55341012238bb4607b77e4c8d33158032422d7dc0b9b5c0433"
    )
    report = json.loads((tmp_path / "report.json").read_text())
    del report["recall_at_fraction"]
    aucs_only = json.dumps(report, sort_keys=True, separators=(",", ":")) + "\n"
    assert hashlib.sha256(aucs_only.encode()).hexdigest() == (
        "0decf70b9b9b9d076b0426fe57a834787bf60b646f144f1fd95d44ce9fc2eebe"
    )


@pytest.mark.parametrize("split, report_sha256, without_positives_sha256, recall_keys", [
    ([], "dd4033c38b0d4dec1c064c002e326810e92e0caa4d94875e12164af51d78b6e6",
     "8c9349cdeab28ab99e99f0ef0df3774938cbda674db1dad1c11d85109b2dd1e0",
     {"pooled@0.3", "daily_mean@0.3"}),
    (["--train-fraction", "0.97"],  # no dropout among the test students
     "bbc56f79175ba2b5157f23e02c5e66d5225a853d243b33c98f9b75e8bd96a940",
     "6f58aa3a6d102cc9141d13d39ff30a07b2016a272af9e82fe47c70e75f6aefb5", set()),
], ids=["recall-defined", "recall-undefined"])
def test_evaluate_report_json_is_pinned(sim_dir, tmp_path, split, report_sha256,
                                        without_positives_sha256, recall_keys):
    """Without `n_positive_by_horizon`, the report hashes as it did at the commit
    before `daily_flagging` returned the report's recall entries; undefined
    recall leaves `recall_at_fraction` empty."""
    assert main(["evaluate", *io_args(sim_dir, tmp_path), *FAST, *split]) == EXIT_OK
    report = json.loads((tmp_path / "report.json").read_text())
    assert set(report["recall_at_fraction"]) == recall_keys
    assert sha256(tmp_path / "report.json") == report_sha256
    del report["n_positive_by_horizon"]
    old_keys = json.dumps(report, sort_keys=True, separators=(",", ":")) + "\n"
    assert hashlib.sha256(old_keys.encode()).hexdigest() == without_positives_sha256


def test_sweep_repeated_value_trains_once_per_seed(sim_dir, tmp_path):
    code = main(
        ["sweep", *io_args(sim_dir, tmp_path), "--lookbacks", "7,7", "--seeds", "0,1,0",
         "--deltas", "7,7", "--n-trees", "5", "--max-depth", "2"]
    )
    assert code == EXIT_OK
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["seeds"] == [0, 1]
    assert report["deltas"] == [7]
    (cell,) = report["cells"].values()
    assert len(cell["7"]["per_seed"]) == 2


def test_sweep_trains_one_no_augmentation_arm_per_seed(sim_dir, tmp_path, monkeypatch):
    """Without augmentation the weighting is unused: one arm, one training per seed."""
    trainings = []
    real_train = pipeline.train

    def counted_train(*args, **kwargs):
        trainings.append(1)
        return real_train(*args, **kwargs)

    monkeypatch.setattr(pipeline, "train", counted_train)
    code = main(
        ["sweep", *io_args(sim_dir, tmp_path), "--lookbacks", "none",
         "--weightings", "convex,linear,concave", "--seeds", "0,1", "--deltas", "7",
         "--n-trees", "5", "--max-depth", "2"]
    )
    assert code == EXIT_OK
    assert len(trainings) == 2
    report = json.loads((tmp_path / "report.json").read_text())
    assert list(report["cells"]) == ["lookback=none,blocks=in+out+time"]


SUBCOMMAND_ARGV = {
    "simulate": ["--n-students", "30", "--seed", "1"],
    "featurize": [],
    "train": FAST,
    "predict": ["--at-day", "60"],  # plus --model, a directory `train` wrote
    "evaluate": [*FAST, "--deltas", "1,7"],
    "sweep": ["--lookbacks", "7", "--deltas", "7", "--n-trees", "5", "--max-depth", "2"],
}


@pytest.mark.parametrize("subcommand", sorted(SUBCOMMAND_ARGV))
def test_manifest_records_every_output(sim_dir, model_dir, tmp_path, subcommand):
    argv = [subcommand, *SUBCOMMAND_ARGV[subcommand]]
    if subcommand == "simulate":
        argv += ["--out-dir", str(tmp_path)]
    else:
        argv += io_args(sim_dir, tmp_path)
    if subcommand == "predict":
        argv += ["--model", str(model_dir)]
    assert main(argv) == EXIT_OK
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["subcommand"] == subcommand
    written = {p for p in tmp_path.iterdir() if p.name != "manifest.json"}
    assert {Path(p) for p in manifest["outputs"]} == written
    for path, digest in manifest["outputs"].items():
        assert sha256(Path(path)) == digest
    inputs = [] if subcommand == "simulate" else [sim_dir / "events.jsonl", sim_dir / "schema.json"]
    if subcommand == "predict":
        inputs += [model_dir / "model.json", model_dir / "feature_space.json"]
    if subcommand == "train":
        assert (tmp_path / "feature_space.json").exists()
    assert manifest["inputs"] == {str(p): sha256(p) for p in inputs}


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
    assert not (tmp_path / "out" / "manifest.json").exists()  # a failed run has no manifest


@pytest.mark.parametrize("broken", ["--events", "--schema", "--out-dir"])
def test_unusable_path_exits_3(sim_dir, tmp_path, capsys, broken):
    """A missing input file, or an output directory under a regular file."""
    blocker = tmp_path / "file"
    blocker.write_text("")
    paths = {"--events": sim_dir / "events.jsonl", "--schema": sim_dir / "schema.json",
             "--out-dir": tmp_path / "out"}
    paths[broken] = blocker / "out" if broken == "--out-dir" else tmp_path / "missing"
    argv = ["featurize"]
    for flag, path in paths.items():
        argv += [flag, str(path)]
    code = main(argv)
    stderr = capsys.readouterr().err.splitlines()
    assert code == EXIT_DATA
    assert len(stderr) == 1
    assert set(json.loads(stderr[0])) == {"error", "message"}


@pytest.mark.parametrize("subcommand", ["train", "evaluate", "sweep"])
def test_model_error_exit_code(sim_dir, tmp_path, monkeypatch, subcommand):
    def no_ingest(*args, **kwargs):  # a bad flag is refused before the events are read
        raise AssertionError("ingest ran")

    monkeypatch.setattr(atrisk.cli, "ingest", no_ingest)
    code = main([subcommand, *io_args(sim_dir, tmp_path), "--n-trees", "-1"])
    assert code == EXIT_MODEL


def test_usage_error_exit_code(sim_dir, tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["train", "--events"])  # missing value and required args
    assert exc.value.code == 2
    with pytest.raises(SystemExit):
        main(["no-such-command"])


@pytest.mark.parametrize("subcommand, flag, value", [
    ("evaluate", "--deltas", "1..x"),
    ("sweep", "--seeds", "a"),
    ("sweep", "--lookbacks", "abc"),
    ("sweep", "--lookbacks", "0"),
    ("sweep", "--lookbacks", "5"),
    ("sweep", "--weightings", "sigmoid"),
    ("sweep", "--feature-sets", "in+bogus"),
    ("evaluate", "--deltas", "5..1"),
    ("sweep", "--deltas", "5..1"),
    ("sweep", "--seeds", "3..1"),
])
def test_malformed_list_flag_exits_2(sim_dir, tmp_path, capsys, subcommand, flag, value):
    with pytest.raises(SystemExit) as exc:
        main([subcommand, *io_args(sim_dir, tmp_path), flag, value])
    assert exc.value.code == 2
    stderr = capsys.readouterr().err
    assert stderr.startswith("usage:") and flag in stderr


@pytest.mark.parametrize("argv", [
    ["predict", "--top-fraction", "0"],
    ["predict", "--top-fraction", "2"],
    ["evaluate", "--train-fraction", "1.5"],
    ["evaluate", "--top-fraction", "2"],
    ["evaluate", "--deltas", "0"],
    ["sweep", "--deltas", "0,7"],
    ["sweep", "--train-fraction", "0"],
])
def test_out_of_range_fraction_exits_3(sim_dir, model_dir, tmp_path, capsys, monkeypatch,
                                       argv):
    def no_ingest(*args, **kwargs):  # a bad fraction or horizon is refused before reading input
        raise AssertionError("ingest ran")

    monkeypatch.setattr(atrisk.cli, "ingest", no_ingest)
    model_args = ["--model", str(model_dir)] if argv[0] == "predict" else FAST
    code = main([argv[0], *io_args(sim_dir, tmp_path), *model_args, *argv[1:]])
    stderr = capsys.readouterr().err.splitlines()
    assert code == EXIT_DATA
    assert json.loads(stderr[-1])["error"] == "ValidationError"
    assert not (tmp_path / "predictions.csv").exists()
    assert not (tmp_path / "report.json").exists()


def test_workers_flag_is_gone(sim_dir, tmp_path):
    for argv in (["train", *io_args(sim_dir, tmp_path), "--workers", "2"],
                 ["sweep", *io_args(sim_dir, tmp_path), "--workers", "2"],
                 ["train", *io_args(sim_dir, tmp_path), "--model-kind", "logistic"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2


@pytest.mark.parametrize(
    "flag,value", [("--seed", "-1"), ("--mean-span", "3651"), ("--mean-span", "7")]
)
def test_simulate_bad_config_exits_3(tmp_path, capsys, flag, value):
    code = main(["simulate", "--n-students", "5", flag, value, "--out-dir", str(tmp_path)])
    assert code == EXIT_DATA
    stderr = capsys.readouterr().err.splitlines()
    assert len(stderr) == 1
    assert json.loads(stderr[0])["error"] == "ValidationError"


@pytest.mark.parametrize("argv", [
    ["train", "--seed", "-1"],
    ["evaluate", "--seed", "-1"],
    ["sweep", "--seeds=-1"],
], ids=lambda argv: argv[0])
def test_negative_seed_exits_3(sim_dir, tmp_path, capsys, argv):
    code = main([argv[0], *io_args(sim_dir, tmp_path), *FAST, *argv[1:]])
    stderr = capsys.readouterr().err.splitlines()
    assert code == EXIT_DATA
    assert len(stderr) == 1
    assert json.loads(stderr[0])["error"] == "ValidationError"


def test_sweep_refuses_negative_seed_before_ingest(tmp_path, capsys, monkeypatch):
    def no_ingest(*args, **kwargs):
        raise AssertionError("ingest ran")

    monkeypatch.setattr(atrisk.cli, "ingest", no_ingest)
    missing = tmp_path / "missing"
    code = main(["sweep", "--events", str(missing / "events.jsonl"),
                 "--schema", str(missing / "schema.json"), "--out-dir", str(tmp_path / "out"),
                 "--seeds=0,-1"])
    stderr = capsys.readouterr().err.splitlines()
    assert code == EXIT_DATA
    assert [json.loads(line) for line in stderr] == [
        {"error": "ValidationError", "message": "seed must be non-negative"}]


@pytest.mark.parametrize("flag, value", [("--seed", "0"), ("--n-trees", "10")])
def test_predict_refuses_training_flags(sim_dir, model_dir, tmp_path, capsys, flag, value):
    with pytest.raises(SystemExit) as exc:
        main(["predict", *io_args(sim_dir, tmp_path), "--model", str(model_dir), flag, value])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_module_entry_point(tmp_path):
    # The child does not inherit pytest's pythonpath: put the imported atrisk first.
    src = str(Path(atrisk.__file__).resolve().parent.parent)
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-m", "atrisk", "simulate", "--n-students", "30",
         "--seed", "1", "--out-dir", str(tmp_path)],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == EXIT_OK
    assert "simulated 30 students" in proc.stdout
    assert (tmp_path / "events.jsonl").exists()


# ---------------------------------------------------------------------------
# malformed input: exit 3 with one JSON line on stderr, never a traceback

SCHEMA = {"inclass_columns": ["a", "b", "c", "d"], "outclass_columns": ["x", "y"]}


def valid_events():
    """Three students with every event kind and every optional field."""
    records = []
    for k, status in enumerate(("dropout", "completion", "ongoing")):
        sid, teacher = f"s{k}", f"t{k % 2}"
        records += [
            {"student": sid, "day": 1, "kind": "purchase_event", "teacher": teacher,
             "outclass": [0.5, 10.0 + k]},
            {"student": sid, "day": 3, "kind": "class_session", "teacher": teacher,
             "inclass": [1.0 + k, 2.0, 0.5 * k, -0.5]},
            {"student": sid, "day": 5, "kind": "follow_up", "teacher": teacher,
             "polarity": 1 - k, "outclass": [0.0, 0.7]},
            {"student": sid, "day": 8, "kind": "reschedule", "teacher": teacher},
            {"student": sid, "day": 10, "kind": "class_session", "teacher": teacher,
             "inclass": [0.8, 1.0 - k, 0.2, 0.1]},
        ]
        if status == "dropout":
            records.append({"student": sid, "day": 12, "kind": "dropout_event"})
        elif status == "completion":
            records[-1]["status"] = status
    return records


def featurize(records, schema):
    """Run `atrisk featurize` on the given events (records, or the raw bytes of
    events.jsonl) and schema (a dict, or the raw text of schema.json); returns
    (exit code, stderr lines). A warning fails the test: it would be one more
    line on stderr."""
    if not isinstance(records, bytes):
        records = "".join(json.dumps(r) + "\n" for r in records).encode()
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        (tmp / "events.jsonl").write_bytes(records)
        (tmp / "schema.json").write_text(schema if isinstance(schema, str) else json.dumps(schema))
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()), \
                warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["featurize", "--events", str(tmp / "events.jsonl"),
                         "--schema", str(tmp / "schema.json"), "--out-dir", str(tmp / "out")])
    return code, err.getvalue().splitlines()


class RawJSON(str):
    """JSON text written into an event line as it stands, for literals that
    json.dumps never writes, such as 1e400."""


def assert_clean_exit(code, stderr):
    assert code in (EXIT_OK, EXIT_DATA)
    if code == EXIT_DATA:
        assert len(stderr) == 1
        assert set(json.loads(stderr[0])) == {"error", "message"}


def test_valid_cohort_featurizes():
    assert featurize(valid_events(), SCHEMA) == (EXIT_OK, [])


@pytest.mark.parametrize("field, value", [
    ("inclass", "1,2,3,4"), ("inclass", {"a": 1}), ("inclass", [1.0, "x", 3.0, 4.0]),
    ("outclass", "0.5"), ("outclass", {"x": 1}), ("outclass", ["0.5", 1.0]),
    ("kind", ["class_session"]), ("status", ["completion"]), ("teacher", 7),
    ("polarity", "1"), ("polarity", [1]), ("day", 10**20), ("day", 2**31),
    ("student", None), ("student", [1]),
    ("inclass", [True, 2.0, 0.0, -0.5]), ("inclass", [float("nan"), 2.0, 0.0, -0.5]),
    ("outclass", [0.5, float("inf")]), ("inclass", RawJSON("[1e400, 2.0, 0.0, -0.5]")),
    ("outclass", [10**400, 1.0]), ("inclass", [[1.0], 2.0, 0.0, -0.5]), ("outclass", [None, 1.0]),
    ("day", 0), ("day", -1),
])
def test_malformed_event_field_exits_3_with_line_number(field, value):
    records = valid_events()
    line = next(i for i, r in enumerate(records) if field in r)
    if isinstance(value, RawJSON):
        records[line][field] = "<raw>"
        records = "".join(json.dumps(r) + "\n" for r in records).replace('"<raw>"', value).encode()
    else:
        records[line][field] = value
    code, stderr = featurize(records, SCHEMA)
    assert code == EXIT_DATA
    assert_clean_exit(code, stderr)
    assert f"line {line + 1}:" in json.loads(stderr[0])["message"]


def test_non_utf8_event_line_exits_3_with_line_number():
    code, stderr = featurize(b'{"student": "a", "day": 1, "kind": "follow_up"}\n\xff\n', SCHEMA)
    assert code == EXIT_DATA
    assert_clean_exit(code, stderr)
    assert "line 2:" in json.loads(stderr[0])["message"]


def test_deeply_nested_event_line_exits_3_with_line_number():
    code, stderr = featurize(b'{"student": "a", "day": 1, "kind": "follow_up"}\n'
                             + b'{"student": ' + b"[" * 100_000 + b"\n", SCHEMA)
    assert code == EXIT_DATA
    assert_clean_exit(code, stderr)
    assert "line 2:" in json.loads(stderr[0])["message"]


@pytest.mark.parametrize("field, value", [
    ("inclass", [1e308, 2.0, 0.0, -0.5]), ("outclass", [1e308, 2.0]),
])
def test_vectors_near_float_limit_exit_3(field, value):
    """Finite vectors whose sums overflow are refused, not turned into features."""
    records = valid_events()
    for record in records:
        if field in record:
            record[field] = value
    code, stderr = featurize(records, SCHEMA)
    assert code == EXIT_DATA
    assert_clean_exit(code, stderr)


@pytest.mark.parametrize("schema", [
    "{not json", json.dumps([SCHEMA]), json.dumps({**SCHEMA, "inclass_columns": "abcd"}),
    json.dumps({**SCHEMA, "outclass_columns": {"x": 1}}), json.dumps({**SCHEMA, "outclass_columns": [1, 2]}),
    pytest.param('{"inclass_columns": ' + "[" * 100_000, id="deeply-nested"),
])
def test_malformed_schema_exits_3(schema):
    code, stderr = featurize(valid_events(), schema)
    assert code == EXIT_DATA
    assert_clean_exit(code, stderr)


JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=8,
)
EVENT_FIELDS = ("student", "day", "kind", "teacher", "inclass", "outclass", "polarity", "status")


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_fuzzed_event_field_exits_0_or_3(data):
    records = valid_events()
    record = records[data.draw(st.integers(0, len(records) - 1))]
    field = data.draw(st.sampled_from(EVENT_FIELDS))
    if data.draw(st.booleans()):
        record.pop(field, None)
    else:
        record[field] = data.draw(JSON)
    assert_clean_exit(*featurize(records, SCHEMA))


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_fuzzed_schema_exits_0_or_3(data):
    schema = dict(SCHEMA)
    key = data.draw(st.sampled_from(sorted(SCHEMA)))
    if data.draw(st.booleans()):
        del schema[key]
    else:
        schema[key] = data.draw(JSON)
    text = json.dumps(data.draw(st.sampled_from([schema, data.draw(JSON)])))
    assert_clean_exit(*featurize(valid_events(), text))
