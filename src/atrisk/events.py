"""Event-log ingestion and canonical cohort structures.

Input is a JSON-lines event file plus a column schema declaring the widths
and names of the in-class and out-of-class numeric vectors. Ingestion sorts,
validates, and freezes everything into an immutable Cohort that downstream
modules only ever read; a Cohort keeps its students in id order, so every
reader walks them in that order.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Iterable

import numpy as np

from .errors import ParseError, SchemaError, ValidationError

EVENT_KINDS = frozenset(
    {"class_session", "follow_up", "reschedule", "purchase_event", "dropout_event"}
)
_KIND_STRINGS = {kind: kind for kind in EVENT_KINDS}  # ingested events share these
_NUMBER_TYPES = frozenset({int, float})  # what json.loads decodes a JSON number to
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
        except (ValueError, RecursionError) as exc:
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
            json.dump(asdict(self), fh, indent=2, sort_keys=True)
            fh.write("\n")


@dataclass(frozen=True, slots=True)
class ObservationPair:
    """One timestamped observation in a student's history: plain data, which
    `ingest` validates (one per event, so slotted)."""

    day: int
    kind: str
    inclass_values: np.ndarray | None = None
    outclass_values: np.ndarray | None = None
    teacher_id: str | None = None
    polarity: int | None = None  # optional sentiment on follow_up events


@dataclass(frozen=True)
class StudentRecord:
    """One student's ordered observation sequence and terminal status; plain
    data, whose columnar form for feature assembly is a features.TimelineIndex."""

    student_id: str
    observations: tuple[ObservationPair, ...]
    final_status: str
    teacher_id: str

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
    """All students of one dataset, keyed by id in id order (whatever order
    they are given in), plus the column schema."""

    students: dict[str, StudentRecord]
    schema: ColumnSchema

    def __post_init__(self):
        object.__setattr__(self, "students", dict(sorted(self.students.items())))

    def __iter__(self) -> Iterable[StudentRecord]:
        return iter(self.students.values())

    def __len__(self) -> int:
        return len(self.students)

    def resolved(self) -> list[StudentRecord]:
        """Students whose terminal status is known (non-ongoing)."""
        return [s for s in self.students.values() if s.final_status != "ongoing"]

    def subset(self, student_ids: Iterable[str]) -> "Cohort":
        return Cohort({sid: self.students[sid] for sid in student_ids}, self.schema)


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _parse_vector(raw, width: int, name: str, line_no: int) -> np.ndarray:
    """Check one JSON-decoded vector and freeze it as float64. The type check
    is exact, and so refuses bool (a JSON `true`) without a second test."""
    if type(raw) is not list or not set(map(type, raw)) <= _NUMBER_TYPES:
        raise SchemaError(f"line {line_no}: {name} vector must be a list of numbers")
    if len(raw) != width:
        raise SchemaError(
            f"line {line_no}: {name} vector has width {len(raw)}, schema declares {width}"
        )
    try:
        arr = np.array(raw, dtype=np.float64)
    except OverflowError as exc:
        raise SchemaError(f"line {line_no}: {name} vector value out of range") from exc
    if not np.isfinite(arr).all():
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
    by_student: dict[str, list[ObservationPair]] = {}
    declared_status: dict[str, str] = {}
    teachers: dict[str, str] = {}  # one string per teacher id, shared by its events

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
            except RecursionError as exc:
                raise ParseError("JSON nests too deeply", line_no) from exc
            if not isinstance(rec, dict):
                raise ParseError("record is not an object", line_no)
            try:
                sid = rec["student"]
                day = rec["day"]
                kind = rec["kind"]
            except KeyError as exc:
                raise ParseError(f"missing required field {exc}", line_no) from exc
            if not isinstance(sid, str):
                raise ParseError(f"student must be a string, got {sid!r}", line_no)
            if not _is_int(day):
                raise ParseError(f"day must be an integer, got {day!r}", line_no)
            if day > MAX_DAY:
                raise ParseError(f"day {day} exceeds {MAX_DAY}", line_no)
            if day < 1:
                raise ValidationError(f"line {line_no}: day {day} is not positive")
            if not isinstance(kind, str) or kind not in EVENT_KINDS:
                raise ParseError(f"unknown kind {kind!r}", line_no)
            kind = _KIND_STRINGS[kind]
            teacher = rec.get("teacher")
            if teacher is not None:
                if not isinstance(teacher, str):
                    raise ParseError(f"teacher must be a string, got {teacher!r}", line_no)
                teacher = teachers.setdefault(teacher, teacher)
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
            by_student.setdefault(sid, []).append(obs)

    students: dict[str, StudentRecord] = {}
    for sid in sorted(by_student):
        obs_list = by_student[sid]
        obs_list.sort(key=lambda o: o.day)  # stable: file order breaks day ties
        days = [o.day for o in obs_list]
        for j in range(1, len(days)):
            if days[j] == days[j - 1]:
                raise ValidationError(f"student {sid}: duplicate day {days[j]}")
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
        rec["inclass"] = obs.inclass_values.tolist()
    if obs.outclass_values is not None:
        rec["outclass"] = obs.outclass_values.tolist()
    if obs.polarity is not None:
        rec["polarity"] = int(obs.polarity)
    if student.final_status != "dropout" and obs is student.observations[-1]:
        rec["status"] = student.final_status
    return rec


def write_events(cohort: Cohort, events_path: str | Path) -> None:
    """Serialize a cohort back to the JSON-lines event format (round-trips)."""
    encode = json.JSONEncoder(sort_keys=True).encode
    with open(events_path, "w") as fh:
        for sid, student in cohort.students.items():
            for obs in student.observations:
                fh.write(encode(_obs_to_record(sid, student, obs)))
                fh.write("\n")
