"""Feature assembly for batches of <student, timestamp> points.

A FeatureSpace defines a feature row: its blocks, the PCA of the in-class
vectors and the column schema, and from them the column `names`; `save` and
`load` keep its blocks and PCA in feature_space.json. `assemble` turns a list
of points, in any order and for any mix of students, and a teacher history
into one matrix with a row per point and the columns of a space's `names`.
Three blocks, concatenated in fixed order: the mean, last row and count of
the in-class vectors (mean and last reduced to at most PCA_COMPONENTS
principal components), the same of the out-of-class vectors, and time-variant
features (counts and gaps over the LOOKBACK_DAYS windows plus statistics of
the given teacher history).
Everything observed strictly after a point's day is invisible to its row.
Histories differ in length from point to point; no point scans its own.
Every aggregate is read off a TimelineIndex (per-kind day keys, vector rows
and running row sums of every record it has seen; one per PipelineScorer, so a
record is indexed once), with one binary search per event kind for the batch.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import InsufficientDataError, ModelError, SchemaError, ValidationError
from .events import MAX_DAY, Cohort, ColumnSchema, StudentRecord

ALL_BLOCKS = ("in", "out", "time")
PCA_COMPONENTS = 4  # at most; fewer when the in-class rows have lower rank
LOOKBACK_DAYS = (7, 14, 21, 30)  # time-block window lengths
_RANK_TOL = 1e-10
_STRIDE = 2**32  # > MAX_DAY + 1: keys of one slot or teacher stay below the next one's
SPACE_VERSION = 1  # format version of feature_space.json
_PCA_FIELDS = ("mean", "components", "explained_variance")


def check_blocks(blocks) -> None:
    if not set(blocks) <= set(ALL_BLOCKS):
        raise ValidationError(f"unknown feature blocks: {blocks}")
    if not blocks or len(set(blocks)) != len(blocks):
        raise ValidationError(f"feature blocks must be one or more distinct blocks: {blocks}")


@dataclass(frozen=True)
class PCAModel:
    """Linear PCA of the in-class rows: mean plus row-orthonormal components."""

    mean: np.ndarray
    components: np.ndarray  # (k, d), rows are principal directions
    explained_variance: np.ndarray  # (k,), non-increasing

    @property
    def n_components(self) -> int:
        return self.components.shape[0]

    def project(self, rows: np.ndarray) -> np.ndarray:
        # One (1, d) @ (d, k) product per row, so a row projects alike alone
        # and in a batch; a plain (n, d) @ (d, k) product may round differently.
        centered = np.atleast_2d(rows) - self.mean
        return (centered[:, None, :] @ self.components.T)[:, 0, :]


def fit_pca(rows: np.ndarray) -> PCAModel:
    """Fit PCA on the sample covariance (ddof=1) of the in-class rows.

    Components come from a symmetric eigendecomposition, sorted by descending
    eigenvalue, with a deterministic sign convention: the largest-magnitude
    entry of each component is positive. Keeps PCA_COMPONENTS components, or
    fewer when the rows have lower rank.
    """
    rows = np.asarray(rows, dtype=np.float64)
    if rows.ndim != 2 or rows.shape[1] < 1:
        raise InsufficientDataError("fit_pca needs a 2-D matrix with >= 1 column")
    if rows.shape[0] < 2:
        raise InsufficientDataError("fit_pca needs at least 2 rows")
    if not np.all(np.isfinite(rows)):
        raise InsufficientDataError("fit_pca input contains non-finite values")

    with np.errstate(over="ignore", invalid="ignore"):
        mean = rows.mean(axis=0)
        cov = np.atleast_2d(np.cov(rows, rowvar=False, ddof=1))
    if not (np.all(np.isfinite(mean)) and np.all(np.isfinite(cov))):
        raise InsufficientDataError("fit_pca input is too large for a finite covariance")
    evals, evecs = np.linalg.eigh(cov)
    order = np.argsort(evals)[::-1]
    evals = np.maximum(evals[order], 0.0)
    evecs = evecs[:, order].T  # rows = directions

    scale = max(float(evals[0]), 1.0)
    rank = int(np.sum(evals > _RANK_TOL * scale))
    k = min(PCA_COMPONENTS, max(rank, 1))

    comps = evecs[:k].copy()
    for i in range(k):
        j = int(np.argmax(np.abs(comps[i])))
        if comps[i, j] < 0:
            comps[i] = -comps[i]
    return PCAModel(mean=mean, components=comps, explained_variance=evals[:k].copy())


@dataclass(frozen=True)
class TeacherHistoryIndex:
    """Per-teacher session/student/dropout timelines for causal queries.

    Each timeline is one flat sorted array of keys teacher_code * 2**32 + day,
    so one binary search per timeline answers a whole batch of queries. All
    queries are strict in the day: only activity on days < the query day is
    counted, so the index can never leak a same-day outcome.
    """

    codes: dict[str, int]  # teacher id -> code, in sorted id order
    session_keys: np.ndarray
    first_keys: np.ndarray
    dropout_keys: np.ndarray
    cohort_first_days: np.ndarray  # sorted, all students
    cohort_dropout_days: np.ndarray  # sorted, all dropout students

    def global_prior(self, days):
        """Dropout share of the students seen before each day; 0 before any."""
        seen = np.searchsorted(self.cohort_first_days, days)
        dropped = np.searchsorted(self.cohort_dropout_days, days)
        return np.divide(dropped, seen, out=np.zeros(np.shape(seen)), where=seen > 0)

    def query(self, teacher_ids, days):
        """(courses taught, distinct students, dropout rate) of each teacher before
        its day. An unseen teacher, or one with no students yet, gets the global prior."""
        days = np.asarray(days, dtype=np.int64)
        # an unseen teacher gets the code past the last one, which owns no keys
        code = np.fromiter(
            (self.codes.get(t, len(self.codes)) for t in teacher_ids), np.int64, len(days)
        )
        lo = code * _STRIDE
        hi = lo + np.maximum(days, 0)

        def before(keys):
            return np.searchsorted(keys, hi) - np.searchsorted(keys, lo)

        n_students = before(self.first_keys)
        rate = np.divide(
            before(self.dropout_keys), n_students,
            out=self.global_prior(days), where=n_students > 0,
        )
        return before(self.session_keys), n_students, rate


def build_teacher_history(cohort: Cohort) -> TeacherHistoryIndex:
    # (teacher, day) of each session, of each student's first session with the
    # teacher and of each dropout of the teacher's students
    sessions, firsts, drops = [], [], []
    for student in cohort:
        seen_teachers: set[str] = set()
        for obs in student.observations:
            if obs.kind != "class_session":
                continue
            tid = obs.teacher_id or student.teacher_id
            if not tid:
                continue
            sessions.append((tid, obs.day))
            if tid not in seen_teachers:
                seen_teachers.add(tid)
                firsts.append((tid, obs.day))
                if student.final_status == "dropout":
                    drops.append((tid, student.last_day))
    codes = {t: i for i, t in enumerate(sorted({t for t, _ in sessions}))}

    def keys(pairs):
        return np.sort(np.array([codes[t] * _STRIDE + d for t, d in pairs], np.int64))

    return TeacherHistoryIndex(
        codes=codes,
        session_keys=keys(sessions),
        first_keys=keys(firsts),
        dropout_keys=keys(drops),
        cohort_first_days=np.sort(np.array([s.first_day for s in cohort], np.int64)),
        cohort_dropout_days=np.sort(np.array(
            [s.last_day for s in cohort if s.final_status == "dropout"], np.int64
        )),
    )


# event kinds counted per lookback window, in the column order of FeatureSpace.names
_KINDS = ("class", "followup", "reschedule", "pos_followup", "neg_followup")
_WINDOW_COLUMNS = ("classes", "followups", "reschedules", "pos_followups", "neg_followups",
                   "gap_mean", "gap_count")  # per lookback window: the _KINDS, then class gaps


@dataclass(frozen=True, eq=False)
class FeatureSpace:
    """What a feature row is made of: the blocks it holds, the PCA of the
    in-class vectors and the column schema. `names`, its columns, are fixed on
    construction."""

    blocks: tuple[str, ...]
    pca: PCAModel
    schema: ColumnSchema
    names: tuple[str, ...] = field(init=False, repr=False)

    def __post_init__(self):
        check_blocks(self.blocks)
        names: list[str] = []
        if "in" in self.blocks:
            for agg in ("mean", "last"):
                names += [f"in_{agg}_pc{i + 1}" for i in range(self.pca.n_components)]
            names.append("in_count")
        if "out" in self.blocks:
            for agg in ("mean", "last"):
                names += [f"out_{agg}_{c}" for c in self.schema.outclass_columns]
            names.append("out_count")
        if "time" in self.blocks:
            names += [f"time_w{L}_{c}" for L in LOOKBACK_DAYS for c in _WINDOW_COLUMNS]
            names += ["time_days_since_last_class", "time_has_class", "time_days_since_first_obs",
                      "time_teacher_courses", "time_teacher_students", "time_teacher_dropout_rate"]
        object.__setattr__(self, "names", tuple(names))

    def save(self, path: Path) -> None:
        """Write the blocks and the PCA (JSON floats, which round-trip exactly)."""
        raw = {"format_version": SPACE_VERSION, "blocks": list(self.blocks),
               "pca": {k: getattr(self.pca, k).tolist() for k in _PCA_FIELDS}}
        path.write_text(json.dumps(raw, sort_keys=True, separators=(",", ":")) + "\n")

    @classmethod
    def load(cls, path: Path, schema: ColumnSchema) -> FeatureSpace:
        """The space `save` wrote to `path`, over the columns of `schema`."""
        try:
            raw = json.loads(path.read_bytes())
            if raw["format_version"] != SPACE_VERSION:
                raise ValueError(f"format version {raw['format_version']!r}")
            blocks = tuple(raw["blocks"])
            check_blocks(blocks)  # unknown blocks are a ValidationError, before the PCA is read
            pca = PCAModel(*(np.array(raw["pca"][k], dtype=np.float64) for k in _PCA_FIELDS))
            k, d = pca.components.shape  # a ValueError unless 2-D
            if pca.mean.shape != (d,) or pca.explained_variance.shape != (k,):
                raise ValueError("PCA arrays of mismatched shapes")
            if not all(np.isfinite(getattr(pca, f)).all() for f in _PCA_FIELDS):
                raise ValueError("non-finite PCA values")
        except (ValueError, TypeError, KeyError, RecursionError) as exc:
            raise ModelError(f"malformed feature_space.json ({exc})") from exc
        if d != len(schema.inclass_columns):
            raise SchemaError(f"the model's in-class width {d} differs from the schema's")
        return cls(blocks, pca, schema)


_VECTORS = ("inclass", "outclass")
_FIELDS = _KINDS + _VECTORS
_KIND_OF = {"class_session": "class", "follow_up": "followup", "reschedule": "reschedule"}


class TimelineIndex:
    """Every record it has been given, as flat columns for batch queries.

    A record gets a slot the first time a batch brings it; the index knows it
    by identity, not by student id, and keeps a reference to it. The days of
    each field (the `_KINDS` of event, and the days with `_VECTORS`) are kept
    in one sorted array under the key slot * _STRIDE + day + 1, so "how many
    days <= q" is one binary search for every point at once; a slot's keys
    begin at `starts[field][slot]`. `rows` stacks the vectors in key order,
    `cumsum` each record's running sums of them."""

    def __init__(self):
        self._slot: dict[int, int] = {}  # id(record) -> slot; `_records` keeps ids valid
        self._records: list[StudentRecord] = []
        self.first_days = np.empty(0, np.int64)
        self.keys = {f: np.empty(0, np.int64) for f in _FIELDS}
        self.starts = {f: np.empty(0, np.int64) for f in _FIELDS}
        self.rows = {k: np.empty((0, 0)) for k in _VECTORS}
        self.cumsum = {k: np.empty((0, 0)) for k in _VECTORS}

    def _extend(self, records: list[StudentRecord]) -> None:
        keys: dict[str, list[int]] = {f: [] for f in _FIELDS}
        rows: dict[str, list[np.ndarray]] = {k: [] for k in _VECTORS}
        cumsum: dict[str, list[np.ndarray]] = {k: [] for k in _VECTORS}
        for slot, record in enumerate(records, len(self._records)):
            vectors: dict[str, list[np.ndarray]] = {k: [] for k in _VECTORS}
            for o in record.observations:
                if o.day > MAX_DAY:
                    raise ValidationError(f"day {o.day} of {record.student_id} exceeds {MAX_DAY}")
                key = slot * _STRIDE + o.day + 1
                if o.kind in _KIND_OF:
                    keys[_KIND_OF[o.kind]].append(key)
                if o.kind == "follow_up" and o.polarity:
                    keys["pos_followup" if o.polarity > 0 else "neg_followup"].append(key)
                for k, v in (("inclass", o.inclass_values), ("outclass", o.outclass_values)):
                    if v is not None:
                        keys[k].append(key)
                        vectors[k].append(v)
            for k, v in vectors.items():
                if v:
                    rows[k].append(np.vstack(v))
                    cumsum[k].append(np.cumsum(rows[k][-1], axis=0))
        # every record is valid: commit
        n_slots = len(self._records) + len(records)
        for f in _FIELDS:
            self.keys[f] = np.concatenate([self.keys[f], np.array(keys[f], np.int64)])
            self.starts[f] = np.searchsorted(self.keys[f], np.arange(n_slots) * _STRIDE)
        for k in _VECTORS:
            self.rows[k] = _stack([self.rows[k], *rows[k]])  # one old array at a time
            self.cumsum[k] = _stack([self.cumsum[k], *cumsum[k]])
        self.first_days = np.concatenate([self.first_days, [r.first_day for r in records]])
        self._slot.update((id(r), len(self._records) + j) for j, r in enumerate(records))
        self._records += records

    def locate(self, points: list[tuple[StudentRecord, int]]):
        """The slot and the day of every point; new records are indexed first."""
        new = {id(s): s for s, _ in points if id(s) not in self._slot}
        if new:
            self._extend(list(new.values()))
        n = len(points)
        slots = np.fromiter((self._slot[id(s)] for s, _ in points), np.int64, n)
        days = np.fromiter((d for _, d in points), np.int64, n)
        late = np.flatnonzero(days > MAX_DAY)
        if late.size:
            raise ValidationError(f"at_day {days[late[0]]} exceeds {MAX_DAY}")
        early = np.flatnonzero(days < self.first_days[slots])
        if early.size:
            student, day = points[int(early[0])]
            raise ValidationError(
                f"at_day {day} precedes first observation "
                f"day {student.first_day} of student {student.student_id}"
            )
        return slots, days

    def search(self, field: str, slots: np.ndarray, queries: np.ndarray):
        """For (n_points, m) query days: the index just past the last `field`
        key at or before each query, and the number of such days of the
        point's own record."""
        q = np.maximum(queries, -1) + (slots * _STRIDE + 1)[:, None]
        idx = np.searchsorted(self.keys[field], q, side="right")
        return idx, idx - self.starts[field][slots][:, None]


def _stack(parts: list[np.ndarray]) -> np.ndarray:
    # an index without such rows holds a (0, 0) array, which cannot be stacked
    parts = [a for a in parts if len(a)]
    return np.concatenate(parts) if parts else np.empty((0, 0))


def _vector_block(out, col, index, slots, days, kind, width, pca=None) -> int:
    """Write the mean and the last row of one vector kind, then its count.

    The mean comes from the running row sums; the "in" block then projects
    both (they commute with the affine projection). Points without rows get
    zeros.
    """
    end = col + 2 * width
    idx, n = index.search(kind, slots, days[:, None])
    n = n[:, 0]
    out[:, col:end] = 0.0
    out[:, end] = n
    have = np.flatnonzero(n > 0)
    if not have.size:
        return end + 1
    g = idx[have, 0] - 1
    mean = index.cumsum[kind][g] / n[have][:, None].astype(np.float64)
    for v in (mean, index.rows[kind][g]):
        if pca is not None:
            v = pca.project(v)
        out[have, col : col + width] = v
        col += width
    return end + 1


def _time_block(out, col, index, slots, days, hist, teacher_ids) -> None:
    # window i holds the days in (day - L_i, day]: count(<= day) - count(<= day - L_i)
    bounds = np.column_stack([days - L for L in LOOKBACK_DAYS] + [days])
    width = len(_KINDS) + 2  # columns per window
    stop = col + width * len(LOOKBACK_DAYS)
    # keys of one slot differ by their days; each point's own day has key `at`
    class_keys = index.keys["class"]
    at = days + slots * _STRIDE + 1
    class_idx, class_n = index.search("class", slots, bounds)
    for j, kind in enumerate(_KINDS):
        n = class_n if kind == "class" else index.search(kind, slots, bounds)[1]
        out[:, col + j : stop : width] = n[:, -1:] - n[:, :-1]
    n_gaps = class_idx[:, -1:] - class_idx[:, :-1] - 1
    r, i = np.nonzero(n_gaps > 0)
    gap_mean = np.zeros(n_gaps.shape)
    span = class_keys[class_idx[r, -1] - 1] - class_keys[class_idx[r, i]]
    gap_mean[r, i] = span / n_gaps[r, i]
    out[:, col + len(_KINDS) : stop : width] = gap_mean
    out[:, col + len(_KINDS) + 1 : stop : width] = np.maximum(n_gaps, 0)
    col = stop

    seen = np.flatnonzero(class_n[:, -1] > 0)
    out[:, col : col + 2] = 0.0
    out[seen, col] = at[seen] - class_keys[class_idx[seen, -1] - 1]
    out[seen, col + 1] = 1.0
    out[:, col + 2] = days - index.first_days[slots]
    col += 3

    out[:, col : col + 3] = np.column_stack(hist.query(teacher_ids, days))


def assemble(
    points: list[tuple[StudentRecord, int]],
    space: FeatureSpace,
    hist: TeacherHistoryIndex,
    index: TimelineIndex | None = None,
) -> np.ndarray:
    """Feature matrix with one row per <student, at_day> point and the columns
    of `space.names`.

    Only observations with day <= at_day contribute to a row; `hist` is
    queried strictly before at_day. Missing blocks encode as zeros plus an
    explicit count column, never NaN. Rows do not depend on the order or the
    company of their points, nor on what `index` (a fresh one by default)
    has indexed before.
    """
    out = np.empty((len(points), len(space.names)))
    if not points:
        return out
    index = TimelineIndex() if index is None else index
    # Vectors near the float limit overflow silently here and are refused below.
    with np.errstate(over="ignore", invalid="ignore"):
        slots, days = index.locate(points)
        col = 0
        if "in" in space.blocks:
            pca = space.pca
            col = _vector_block(out, col, index, slots, days, "inclass", pca.n_components, pca)
        if "out" in space.blocks:
            col = _vector_block(
                out, col, index, slots, days, "outclass", len(space.schema.outclass_columns)
            )
        if "time" in space.blocks:
            _time_block(out, col, index, slots, days, hist, [s.teacher_id for s, _ in points])
    if not np.all(np.isfinite(out)):
        raise ValidationError("feature matrix contains non-finite values")
    return out
