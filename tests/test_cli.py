"""CLI subcommands: end-to-end runs, manifests, determinism, exit codes."""

import contextlib
import csv
import hashlib
import io
import json
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

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


def test_model_error_exit_code(sim_dir, tmp_path):
    code = main(["train", *io_args(sim_dir, tmp_path), "--n-trees", "-1"])
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
])
def test_out_of_range_fraction_exits_3(sim_dir, tmp_path, capsys, argv):
    code = main([argv[0], *io_args(sim_dir, tmp_path), *FAST, *argv[1:]])
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


def test_module_entry_point(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "atrisk", "simulate", "--n-students", "30",
         "--seed", "1", "--out-dir", str(tmp_path)],
        capture_output=True, text=True,
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
])
def test_malformed_event_field_exits_3_with_line_number(field, value):
    records = valid_events()
    line = next(i for i, r in enumerate(records) if field in r)
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
