"""Ingestion, validation, and round-trip serialization of event logs."""

import json

import numpy as np
import pytest

from atrisk.errors import ParseError, SchemaError, ValidationError
from atrisk.events import ColumnSchema, cohort_stats, ingest, write_events

from conftest import IN_COLS, OUT_COLS


def write_schema(path):
    ColumnSchema(inclass_columns=IN_COLS, outclass_columns=OUT_COLS).dump(path)
    return path


def write_lines(path, records):
    with open(path, "w") as fh:
        for rec in records:
            fh.write(json.dumps(rec) + "\n")
    return path


BASE_RECORDS = [
    {"student": "a", "day": 5, "kind": "class_session", "teacher": "t1",
     "inclass": [1.0, 2.0, 3.0, 4.0]},
    {"student": "a", "day": 2, "kind": "purchase_event", "teacher": "t1",
     "outclass": [0.5, 10.0, 0.0]},
    {"student": "a", "day": 9, "kind": "dropout_event", "teacher": "t1"},
    {"student": "b", "day": 1, "kind": "class_session", "teacher": "t2",
     "inclass": [0.0, 0.0, 0.0, 0.0]},
    {"student": "b", "day": 4, "kind": "follow_up", "polarity": 1,
     "outclass": [0.0, 0.0, 0.8], "status": "completion"},
]


@pytest.fixture
def paths(tmp_path):
    events = write_lines(tmp_path / "events.jsonl", BASE_RECORDS)
    schema = write_schema(tmp_path / "schema.json")
    return events, schema


def test_ingest_sorts_by_day(paths):
    cohort = ingest(*paths)
    assert cohort.students["a"].days == (2, 5, 9)


def test_ingest_statuses(paths):
    cohort = ingest(*paths)
    assert cohort.students["a"].final_status == "dropout"
    assert cohort.students["a"].last_day == 9
    assert cohort.students["b"].final_status == "completion"
    assert cohort.students["b"].last_day == 4


def test_ingest_without_status_is_ongoing(tmp_path):
    events = write_lines(
        tmp_path / "e.jsonl",
        [{"student": "x", "day": 3, "kind": "follow_up"}],
    )
    cohort = ingest(events, write_schema(tmp_path / "s.json"))
    assert cohort.students["x"].final_status == "ongoing"


def test_ingest_rejects_bad_json(tmp_path):
    path = tmp_path / "e.jsonl"
    path.write_text('{"student": "a", "day": 1, "kind": "follow_up"}\nnot json\n')
    with pytest.raises(ParseError) as err:
        ingest(path, write_schema(tmp_path / "s.json"))
    assert err.value.line_no == 2


def test_ingest_rejects_missing_field(tmp_path):
    events = write_lines(tmp_path / "e.jsonl", [{"student": "a", "day": 1}])
    with pytest.raises(ParseError):
        ingest(events, write_schema(tmp_path / "s.json"))


def test_ingest_rejects_non_integer_day(tmp_path):
    events = write_lines(
        tmp_path / "e.jsonl", [{"student": "a", "day": 1.5, "kind": "follow_up"}]
    )
    with pytest.raises(ParseError):
        ingest(events, write_schema(tmp_path / "s.json"))


def test_ingest_rejects_unknown_kind(tmp_path):
    events = write_lines(
        tmp_path / "e.jsonl", [{"student": "a", "day": 1, "kind": "graduation"}]
    )
    with pytest.raises(ParseError):
        ingest(events, write_schema(tmp_path / "s.json"))


def test_ingest_rejects_duplicate_day(tmp_path):
    events = write_lines(
        tmp_path / "e.jsonl",
        [
            {"student": "a", "day": 4, "kind": "follow_up"},
            {"student": "a", "day": 4, "kind": "reschedule"},
        ],
    )
    with pytest.raises(ValidationError):
        ingest(events, write_schema(tmp_path / "s.json"))


def test_ingest_rejects_nonpositive_day(tmp_path):
    events = write_lines(
        tmp_path / "e.jsonl", [{"student": "a", "day": 0, "kind": "follow_up"}]
    )
    with pytest.raises(ValidationError):
        ingest(events, write_schema(tmp_path / "s.json"))


def test_ingest_rejects_dropout_before_later_events(tmp_path):
    events = write_lines(
        tmp_path / "e.jsonl",
        [
            {"student": "a", "day": 5, "kind": "dropout_event"},
            {"student": "a", "day": 8, "kind": "follow_up"},
        ],
    )
    with pytest.raises(ValidationError):
        ingest(events, write_schema(tmp_path / "s.json"))


def test_ingest_rejects_width_mismatch(tmp_path):
    events = write_lines(
        tmp_path / "e.jsonl",
        [{"student": "a", "day": 1, "kind": "class_session", "inclass": [1.0, 2.0]}],
    )
    with pytest.raises(SchemaError):
        ingest(events, write_schema(tmp_path / "s.json"))


def test_ingest_requires_inclass_exactly_on_sessions(tmp_path):
    schema = write_schema(tmp_path / "s.json")
    no_vector = write_lines(
        tmp_path / "e1.jsonl", [{"student": "a", "day": 1, "kind": "class_session"}]
    )
    with pytest.raises(SchemaError):
        ingest(no_vector, schema)
    wrong_kind = write_lines(
        tmp_path / "e2.jsonl",
        [{"student": "a", "day": 1, "kind": "follow_up", "inclass": [1, 2, 3, 4]}],
    )
    with pytest.raises(SchemaError):
        ingest(wrong_kind, schema)


def test_ingest_rejects_status_contradiction(tmp_path):
    events = write_lines(
        tmp_path / "e.jsonl",
        [
            {"student": "a", "day": 1, "kind": "follow_up", "status": "completion"},
            {"student": "a", "day": 3, "kind": "dropout_event"},
        ],
    )
    with pytest.raises(ValidationError):
        ingest(events, write_schema(tmp_path / "s.json"))


def test_round_trip(paths, tmp_path):
    cohort = ingest(*paths)
    out = tmp_path / "out.jsonl"
    write_events(cohort, out)
    again = ingest(out, paths[1])
    assert set(again.students) == set(cohort.students)
    for sid, s in cohort.students.items():
        t = again.students[sid]
        assert t.days == s.days
        assert t.final_status == s.final_status
        for a, b in zip(s.observations, t.observations):
            assert a.kind == b.kind and a.day == b.day
            if a.inclass_values is not None:
                np.testing.assert_array_equal(a.inclass_values, b.inclass_values)


def test_round_trip_is_byte_stable(paths, tmp_path):
    cohort = ingest(*paths)
    p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    write_events(cohort, p1)
    write_events(ingest(p1, paths[1]), p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_cohort_stats(paths):
    cohort = ingest(*paths)
    stats = cohort_stats(cohort)
    assert stats.n_students == 2
    assert stats.n_dropout == 1
    assert stats.dropout_rate == 0.5
    assert stats.total_pairs == 5
    assert stats.mean_span_days == pytest.approx((7 + 3) / 2)


def test_subset_preserves_schema(small_cohort):
    sub = small_cohort.subset(["s1", "s2"])
    assert set(sub.students) == {"s1", "s2"}
    assert sub.schema == small_cohort.schema


def test_resolved_excludes_ongoing(small_cohort):
    assert {s.student_id for s in small_cohort.resolved()} == {"s1", "s2", "s3"}
