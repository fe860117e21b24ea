"""Event-log ingestion and canonical cohort structures.

Input is a JSON-lines event file plus a column schema declaring the widths
and names of the in-class and out-of-class numeric vectors. Ingestion sorts,
validates, and freezes everything into an immutable Cohort that downstream
modules only ever read.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import Iterable

import numpy as np

from .errors import EmptyInputError, ParseError, SchemaError, ValidationError

EVENT_KINDS = frozenset(
    {"class_session", "follow_up", "reschedule", "purchase_event", "dropout_event"}
)
STATUSES = frozenset({"dropout", "completion", "ongoing"})
MAX_DAY = 2**31 - 1  # keeps day arithmetic in int64 far from overflow


@dataclass(frozen=True)
class ColumnSchema:
    """Named columns fixing the widths of the dense numeric vectors."""

    inclass_columns: tuple[str, ...]
    outclass_columns: tuple[str, ...]

    @classmethod
    def load(cls, path: str | Path) -> "ColumnSchema":
        try:
            with open(path) as fh:
                raw = json.load(fh)
        except ValueError as exc:
            raise SchemaError(f"schema file is not JSON ({exc})") from exc
        if not isinstance(raw, dict):
            raise SchemaError("schema file is not a JSON object")
        columns = {}
        for key in ("inclass_columns", "outclass_columns"):
            if key not in raw:
                raise SchemaError(f"schema file missing key {key!r}")
            value = raw[key]
            if not isinstance(value, list) or not all(isinstance(c, str) for c in value):
                raise SchemaError(f"schema {key} must be a list of column names")
            columns[key] = tuple(value)
        return cls(**columns)

    def dump(self, path: str | Path) -> None:
        with open(path, "w") as fh:
            json.dump(
                {
                    "inclass_columns": list(self.inclass_columns),
                    "outclass_columns": list(self.outclass_columns),
                },
                fh,
                indent=2,
                sort_keys=True,
            )
            fh.write("\n")


@dataclass(frozen=True)
class ObservationPair:
    """One timestamped observation in a student's history."""

    day: int
    kind: str
    inclass_values: np.ndarray | None = None
    outclass_values: np.ndarray | None = None
    teacher_id: str | None = None
    polarity: int | None = None  # optional sentiment on follow_up events

    def __post_init__(self):
        if self.kind not in EVENT_KINDS:
            raise ValidationError(f"unknown event kind {self.kind!r}")
        if self.day < 0:
            raise ValidationError(f"negative day {self.day}")


def _days(observations, keep) -> np.ndarray:
    return np.array([o.day for o in observations if keep(o)], dtype=np.int64)


@dataclass(frozen=True)
class StudentRecord:
    """One student's ordered observation sequence and terminal status."""

    student_id: str
    observations: tuple[ObservationPair, ...]
    final_status: str
    teacher_id: str

    @cached_property
    def timeline(self) -> dict[str, np.ndarray]:
        """The observations as arrays for batch feature queries.

        `<kind>_days` holds the sorted days of each kind: class, followup,
        reschedule, pos_followup, neg_followup, inclass and outclass. The
        `inclass_rows`/`outclass_rows` stack the vectors of those days ((0, 0)
        when there are none) and `*_cumsum` holds their running sums. Built on
        first use and owned by the record, so freed with it.
        """
        obs = self.observations
        t = {
            "class_days": _days(obs, lambda o: o.kind == "class_session"),
            "followup_days": _days(obs, lambda o: o.kind == "follow_up"),
            "reschedule_days": _days(obs, lambda o: o.kind == "reschedule"),
            "pos_followup_days": _days(
                obs, lambda o: o.kind == "follow_up" and (o.polarity or 0) > 0
            ),
            "neg_followup_days": _days(
                obs, lambda o: o.kind == "follow_up" and (o.polarity or 0) < 0
            ),
        }
        for kind in ("inclass", "outclass"):
            kept = [o for o in obs if getattr(o, f"{kind}_values") is not None]
            rows = np.empty((0, 0))
            if kept:
                rows = np.vstack([getattr(o, f"{kind}_values") for o in kept])
            t[f"{kind}_days"] = np.array([o.day for o in kept], dtype=np.int64)
            t[f"{kind}_rows"] = rows
            t[f"{kind}_cumsum"] = np.cumsum(rows, axis=0)
        return t

    @property
    def days(self) -> tuple[int, ...]:
        return tuple(o.day for o in self.observations)

    @property
    def first_day(self) -> int:
        return self.observations[0].day

    @property
    def last_day(self) -> int:
        return self.observations[-1].day


@dataclass(frozen=True)
class Cohort:
    """All students of one dataset, keyed by id, plus the column schema."""

    students: dict[str, StudentRecord]
    schema: ColumnSchema

    def __iter__(self) -> Iterable[StudentRecord]:
        return iter(self.students.values())

    def __len__(self) -> int:
        return len(self.students)

    def resolved(self) -> list[StudentRecord]:
        """Students whose terminal status is known (non-ongoing)."""
        return [s for s in self.students.values() if s.final_status != "ongoing"]

    def subset(self, student_ids: Iterable[str]) -> "Cohort":
        keep = {sid: self.students[sid] for sid in sorted(student_ids)}
        return Cohort(students=keep, schema=self.schema)


@dataclass(frozen=True)
class CohortSummary:
    n_students: int
    n_dropout: int
    dropout_rate: float
    mean_span_days: float
    total_pairs: int


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _parse_vector(raw, width: int, name: str, line_no: int) -> np.ndarray:
    if not isinstance(raw, list) or not all(
        _is_int(v) or isinstance(v, float) for v in raw
    ):
        raise SchemaError(f"line {line_no}: {name} vector must be a list of numbers")
    if len(raw) != width:
        raise SchemaError(
            f"line {line_no}: {name} vector has width {len(raw)}, schema declares {width}"
        )
    try:
        arr = np.array(raw, dtype=np.float64)
    except OverflowError as exc:
        raise SchemaError(f"line {line_no}: {name} vector value out of range") from exc
    if not np.all(np.isfinite(arr)):
        raise SchemaError(f"line {line_no}: {name} vector contains non-finite values")
    arr.flags.writeable = False
    return arr


def ingest(events_path: str | Path, schema_path: str | Path) -> Cohort:
    """Parse and validate a JSON-lines event file into a Cohort.

    Records may arrive unsorted; they are stably sorted by (student, day) so
    sub-day ordering follows file order. A duplicated day for one student,
    a dropout event that is not the student's last record, or a vector width
    mismatch against the schema all abort ingestion.
    """
    schema = ColumnSchema.load(schema_path)
    by_student: dict[str, list[tuple[int, ObservationPair]]] = {}
    declared_status: dict[str, str] = {}

    with open(events_path, "rb") as fh:
        for line_no, raw in enumerate(fh, start=1):
            try:
                line = raw.decode().strip()
            except UnicodeDecodeError as exc:
                raise ParseError("line is not UTF-8", line_no) from exc
            if not line:
                continue
            try:
                rec = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ParseError(f"invalid JSON ({exc.msg})", line_no) from exc
            if not isinstance(rec, dict):
                raise ParseError("record is not an object", line_no)
            try:
                sid = str(rec["student"])
                day = rec["day"]
                kind = rec["kind"]
            except KeyError as exc:
                raise ParseError(f"missing required field {exc}", line_no) from exc
            if not _is_int(day):
                raise ParseError(f"day must be an integer, got {day!r}", line_no)
            if day > MAX_DAY:
                raise ParseError(f"day {day} exceeds {MAX_DAY}", line_no)
            if not isinstance(kind, str) or kind not in EVENT_KINDS:
                raise ParseError(f"unknown kind {kind!r}", line_no)
            teacher = rec.get("teacher")
            if teacher is not None and not isinstance(teacher, str):
                raise ParseError(f"teacher must be a string, got {teacher!r}", line_no)
            polarity = rec.get("polarity")
            if polarity is not None and not _is_int(polarity):
                raise ParseError(f"polarity must be an integer, got {polarity!r}", line_no)

            inclass = rec.get("inclass")
            if (kind == "class_session") != (inclass is not None):
                raise SchemaError(
                    f"line {line_no}: inclass vector must be present exactly on "
                    f"class_session events (kind={kind})"
                )
            inclass_vec = (
                _parse_vector(inclass, len(schema.inclass_columns), "inclass", line_no)
                if inclass is not None
                else None
            )
            outclass = rec.get("outclass")
            outclass_vec = (
                _parse_vector(outclass, len(schema.outclass_columns), "outclass", line_no)
                if outclass is not None
                else None
            )

            status = rec.get("status")
            if status is not None:
                if not isinstance(status, str) or status not in STATUSES:
                    raise ParseError(f"unknown status {status!r}", line_no)
                prev = declared_status.setdefault(sid, status)
                if prev != status:
                    raise ValidationError(
                        f"student {sid}: conflicting declared statuses {prev!r} vs {status!r}"
                    )

            obs = ObservationPair(
                day=day,
                kind=kind,
                inclass_values=inclass_vec,
                outclass_values=outclass_vec,
                teacher_id=teacher,
                polarity=polarity,
            )
            by_student.setdefault(sid, []).append((line_no, obs))

    students: dict[str, StudentRecord] = {}
    for sid in sorted(by_student):
        entries = by_student[sid]
        entries.sort(key=lambda e: e[1].day)  # stable: file order breaks day ties
        obs_list = [o for _, o in entries]
        days = [o.day for o in obs_list]
        for j, d in enumerate(days):
            if d < 1:
                raise ValidationError(f"student {sid}: day {d} is not positive")
            if j > 0 and d == days[j - 1]:
                raise ValidationError(f"student {sid}: duplicate day {d}")
        dropout_idx = [j for j, o in enumerate(obs_list) if o.kind == "dropout_event"]
        if len(dropout_idx) > 1:
            raise ValidationError(f"student {sid}: multiple dropout events")
        if dropout_idx:
            if dropout_idx[0] != len(obs_list) - 1:
                raise ValidationError(
                    f"student {sid}: dropout event at day {days[dropout_idx[0]]} "
                    "precedes later observations"
                )
            status = "dropout"
            if declared_status.get(sid, "dropout") != "dropout":
                raise ValidationError(
                    f"student {sid}: declared status {declared_status[sid]!r} "
                    "contradicts dropout event"
                )
        else:
            status = declared_status.get(sid, "ongoing")
            if status == "dropout":
                raise ValidationError(
                    f"student {sid}: declared dropout but no dropout event"
                )
        teacher_id = next((o.teacher_id for o in obs_list if o.teacher_id), "")
        students[sid] = StudentRecord(
            student_id=sid,
            observations=tuple(obs_list),
            final_status=status,
            teacher_id=teacher_id,
        )

    return Cohort(students=students, schema=schema)


def _obs_to_record(sid: str, student: StudentRecord, obs: ObservationPair) -> dict:
    rec: dict = {"student": sid, "day": obs.day, "kind": obs.kind}
    if obs.teacher_id:
        rec["teacher"] = obs.teacher_id
    if obs.inclass_values is not None:
        rec["inclass"] = [float(v) for v in obs.inclass_values]
    if obs.outclass_values is not None:
        rec["outclass"] = [float(v) for v in obs.outclass_values]
    if obs.polarity is not None:
        rec["polarity"] = int(obs.polarity)
    if student.final_status != "dropout" and obs is student.observations[-1]:
        rec["status"] = student.final_status
    return rec


def write_events(cohort: Cohort, events_path: str | Path) -> None:
    """Serialize a cohort back to the JSON-lines event format (round-trips)."""
    with open(events_path, "w") as fh:
        for sid in sorted(cohort.students):
            student = cohort.students[sid]
            for obs in student.observations:
                fh.write(json.dumps(_obs_to_record(sid, student, obs), sort_keys=True))
                fh.write("\n")


def cohort_stats(cohort: Cohort) -> CohortSummary:
    """Dataset descriptors: counts, dropout rate, mean span, total pairs."""
    if len(cohort) == 0:
        raise EmptyInputError("cohort has no students")
    n = len(cohort)
    n_drop = sum(1 for s in cohort if s.final_status == "dropout")
    spans = [s.last_day - s.first_day for s in cohort]
    total_pairs = sum(len(s.observations) for s in cohort)
    return CohortSummary(
        n_students=n,
        n_dropout=n_drop,
        dropout_rate=n_drop / n,
        mean_span_days=float(np.mean(spans)),
        total_pairs=total_pairs,
    )
