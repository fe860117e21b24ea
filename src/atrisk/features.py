"""Feature assembly for batches of <student, timestamp> points.

`assemble` turns a list of points, in any order and for any mix of students,
into one matrix with a row per point and the columns of `feature_names`.
Three blocks, concatenated in fixed order: PCA-reduced aggregates of the
in-class vectors, aggregates of the out-of-class vectors, and time-variant
features (lookback-window counts/gaps plus teacher-history statistics).
Everything observed strictly after a point's day is invisible to its row.
Histories differ in length from point to point; no point scans its own.
Every aggregate is read off per-record sorted day arrays and running row sums,
with one binary search per event kind for the whole batch.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import InsufficientDataError, ValidationError
from .events import Cohort, ColumnSchema, StudentRecord

ALL_BLOCKS = ("in", "out", "time")
_RANK_TOL = 1e-10


@dataclass(frozen=True)
class FeatureConfig:
    lookback_days_list: tuple[int, ...] = (7, 14, 21, 30)
    pca_components: int | float = 4  # int = component count, float in (0,1] = variance fraction
    aggregators: frozenset[str] = frozenset({"mean", "last", "count"})
    blocks: tuple[str, ...] = ALL_BLOCKS

    def __post_init__(self):
        if list(self.lookback_days_list) != sorted(set(self.lookback_days_list)):
            raise ValidationError("lookback_days_list must be strictly increasing")
        if any(L < 1 for L in self.lookback_days_list):
            raise ValidationError("lookback lengths must be positive")
        if isinstance(self.pca_components, float):
            if not 0.0 < self.pca_components <= 1.0:
                raise ValidationError("fractional pca_components must be in (0, 1]")
        elif self.pca_components < 1:
            raise ValidationError("pca_components must be >= 1")
        if not self.aggregators <= {"mean", "sum", "last", "count"}:
            raise ValidationError(f"unknown aggregators: {self.aggregators}")
        if not set(self.blocks) <= set(ALL_BLOCKS):
            raise ValidationError(f"unknown feature blocks: {self.blocks}")


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
        return (np.atleast_2d(rows) - self.mean) @ self.components.T


def fit_pca(rows: np.ndarray, config: FeatureConfig) -> PCAModel:
    """Fit PCA on the sample covariance (ddof=1) of the in-class rows.

    Components come from a symmetric eigendecomposition, sorted by descending
    eigenvalue, with a deterministic sign convention: the largest-magnitude
    entry of each component is positive.
    """
    rows = np.asarray(rows, dtype=np.float64)
    if rows.ndim != 2 or rows.shape[1] < 1:
        raise InsufficientDataError("fit_pca needs a 2-D matrix with >= 1 column")
    if rows.shape[0] < 2:
        raise InsufficientDataError("fit_pca needs at least 2 rows")
    if not np.all(np.isfinite(rows)):
        raise InsufficientDataError("fit_pca input contains non-finite values")

    mean = rows.mean(axis=0)
    cov = np.cov(rows, rowvar=False, ddof=1)
    cov = np.atleast_2d(cov)
    evals, evecs = np.linalg.eigh(cov)
    order = np.argsort(evals)[::-1]
    evals = np.maximum(evals[order], 0.0)
    evecs = evecs[:, order].T  # rows = directions

    scale = max(float(evals[0]), 1.0)
    rank = int(np.sum(evals > _RANK_TOL * scale))
    if isinstance(config.pca_components, float):
        if rank == 0:
            k = 1  # zero-variance input with a fractional target
        else:
            total = float(evals.sum())
            cum = np.cumsum(evals) / total
            k = int(np.searchsorted(cum, config.pca_components - 1e-12) + 1)
            k = min(k, rank)
    else:
        k = min(int(config.pca_components), max(rank, 1))

    comps = evecs[:k].copy()
    for i in range(k):
        j = int(np.argmax(np.abs(comps[i])))
        if comps[i, j] < 0:
            comps[i] = -comps[i]
    return PCAModel(mean=mean, components=comps, explained_variance=evals[:k].copy())


@dataclass(frozen=True)
class TeacherHistoryIndex:
    """Per-teacher session/student/dropout timelines for causal queries.

    All queries are strict in the day: only activity on days < the query day
    is counted, so the index can never leak a same-day outcome.
    """

    session_days: dict[str, np.ndarray]  # sorted class-session days per teacher
    student_first_days: dict[str, np.ndarray]  # sorted first-contact days per teacher
    student_dropout_days: dict[str, np.ndarray]  # sorted dropout days per teacher
    cohort_first_days: np.ndarray  # sorted, all students
    cohort_dropout_days: np.ndarray  # sorted, all dropout students

    def global_prior(self, days):
        """Dropout share of the students seen before each day; 0 before any."""
        seen = np.searchsorted(self.cohort_first_days, days)
        dropped = np.searchsorted(self.cohort_dropout_days, days)
        return np.divide(dropped, seen, out=np.zeros(np.shape(seen)), where=seen > 0)

    def query(self, teacher_id: str, days):
        """(courses taught, distinct students, dropout rate) before each day.

        An unseen teacher, or one with no students yet, gets the global prior.
        """
        prior = self.global_prior(days)
        sessions = self.session_days.get(teacher_id)
        if sessions is None:
            zero = np.zeros(np.shape(days), dtype=np.int64)
            return zero, zero, prior
        n_courses = np.searchsorted(sessions, days)
        n_students = np.searchsorted(self.student_first_days[teacher_id], days)
        n_dropped = np.searchsorted(self.student_dropout_days[teacher_id], days)
        rate = np.divide(n_dropped, n_students, out=prior, where=n_students > 0)
        return n_courses, n_students, rate


def build_teacher_history(cohort: Cohort) -> TeacherHistoryIndex:
    sessions: dict[str, list[int]] = {}
    firsts: dict[str, list[int]] = {}
    drops: dict[str, list[int]] = {}
    cohort_firsts: list[int] = []
    cohort_drops: list[int] = []
    for student in cohort:
        cohort_firsts.append(student.first_day)
        if student.final_status == "dropout":
            cohort_drops.append(student.last_day)
        seen_teachers: set[str] = set()
        for obs in student.observations:
            if obs.kind != "class_session":
                continue
            tid = obs.teacher_id or student.teacher_id
            if not tid:
                continue
            sessions.setdefault(tid, []).append(obs.day)
            if tid not in seen_teachers:
                seen_teachers.add(tid)
                firsts.setdefault(tid, []).append(obs.day)
                if student.final_status == "dropout":
                    drops.setdefault(tid, []).append(student.last_day)
    return TeacherHistoryIndex(
        session_days={t: np.sort(np.array(v)) for t, v in sessions.items()},
        student_first_days={t: np.sort(np.array(v)) for t, v in firsts.items()},
        student_dropout_days={
            t: np.sort(np.array(drops.get(t, []), dtype=np.int64)) for t in sessions
        },
        cohort_first_days=np.sort(np.array(cohort_firsts, dtype=np.int64)),
        cohort_dropout_days=np.sort(np.array(cohort_drops, dtype=np.int64)),
    )


_VEC_AGGS = ("mean", "sum", "last")  # vector-valued aggregators, in emit order
# event kinds counted per lookback window, in the column order of feature_names
_KINDS = ("class", "followup", "reschedule", "pos_followup", "neg_followup")


def feature_names(
    schema: ColumnSchema, pca: PCAModel, config: FeatureConfig
) -> tuple[str, ...]:
    return _feature_names(schema, pca.n_components, config)


@lru_cache(maxsize=256)
def _feature_names(
    schema: ColumnSchema, n_components: int, config: FeatureConfig
) -> tuple[str, ...]:
    names: list[str] = []
    if "in" in config.blocks:
        for agg in _VEC_AGGS:
            if agg in config.aggregators:
                names += [f"in_{agg}_pc{i + 1}" for i in range(n_components)]
        names.append("in_count")
    if "out" in config.blocks:
        for agg in _VEC_AGGS:
            if agg in config.aggregators:
                names += [f"out_{agg}_{c}" for c in schema.outclass_columns]
        names.append("out_count")
    if "time" in config.blocks:
        for L in config.lookback_days_list:
            names += [
                f"time_w{L}_classes",
                f"time_w{L}_followups",
                f"time_w{L}_reschedules",
                f"time_w{L}_pos_followups",
                f"time_w{L}_neg_followups",
                f"time_w{L}_gap_mean",
                f"time_w{L}_gap_count",
            ]
        names += [
            "time_days_since_last_class",
            "time_has_class",
            "time_days_since_first_obs",
            "time_teacher_courses",
            "time_teacher_students",
            "time_teacher_dropout_rate",
        ]
    return tuple(names)


class _Batch:
    """The students a batch touches, with each point's student position.

    `search` answers "how many days <= q" for every point at once: each
    student's sorted days are concatenated under the key
    position * stride + day + 1, which keeps students apart and in order.
    """

    def __init__(self, points: list[tuple[StudentRecord, int]]):
        index: dict[int, int] = {}  # id() is stable: `points` holds every record
        self.students: list[StudentRecord] = []
        for student, _ in points:
            if index.setdefault(id(student), len(self.students)) == len(self.students):
                self.students.append(student)
        n = len(points)
        self.pos = np.fromiter((index[id(s)] for s, _ in points), np.int64, n)
        self.days = np.fromiter((d for _, d in points), np.int64, n)
        self.first_days = np.array([s.first_day for s in self.students])[self.pos]
        early = np.flatnonzero(self.days < self.first_days)
        if early.size:
            student, day = points[int(early[0])]
            raise ValidationError(
                f"at_day {day} precedes first observation "
                f"day {student.first_day} of student {student.student_id}"
            )
        self.timelines = [s.timeline for s in self.students]
        self.stride = max(int(self.days.max()), max(s.last_day for s in self.students)) + 2

    def concat(self, field: str) -> np.ndarray:
        return np.concatenate([t[field] for t in self.timelines])

    def search(self, field: str, queries: np.ndarray):
        """For (n_points, m) query days: the index just past the last `field`
        day <= each query in the concatenation, and the number of such days
        of the point's own student."""
        lengths = np.array([len(t[field]) for t in self.timelines])
        starts = np.cumsum(lengths) - lengths
        base = np.arange(len(self.timelines)) * self.stride
        keys = self.concat(field) + np.repeat(base, lengths) + 1
        q = np.maximum(queries, -1) + (base[self.pos] + 1)[:, None]
        idx = np.searchsorted(keys, q, side="right")
        return idx, idx - starts[self.pos][:, None]

    def rows(self, field: str) -> np.ndarray:
        # records without such rows hold (0, 0) arrays, which cannot be stacked
        return np.concatenate([t[field] for t in self.timelines if len(t[field])])


def _project(v: np.ndarray, components: np.ndarray) -> np.ndarray:
    # One (1, d) @ (d, k) product per row, the same arithmetic as projecting a
    # single vector; a plain (n, d) @ (d, k) product may round differently.
    return (v[:, None, :] @ components.T)[:, 0, :]


def _vector_block(out, col, batch, kind, width, config, pca=None) -> int:
    """Write the configured aggregates of one vector kind, then its count.

    Mean, sum and last come from the running row sums; the "in" block then
    projects them (mean/last commute with the affine projection; the sum
    becomes (sum - n * mean) @ components.T). Points without rows get zeros.
    """
    aggs = [a for a in _VEC_AGGS if a in config.aggregators]
    end = col + width * len(aggs)
    idx, n = batch.search(f"{kind}_days", batch.days[:, None])
    n = n[:, 0]
    out[:, col:end] = 0.0
    out[:, end] = n
    have = np.flatnonzero(n > 0)
    if not have.size:
        return end + 1
    g = idx[have, 0] - 1
    count = n[have][:, None].astype(np.float64)
    cumsum = batch.rows(f"{kind}_cumsum") if {"mean", "sum"} & set(aggs) else None
    for agg in aggs:
        if agg == "mean":
            v = cumsum[g] / count
        elif agg == "sum":
            v = cumsum[g]
        else:
            v = batch.rows(f"{kind}_rows")[g]
        if pca is not None:
            v = _project(v - (count * pca.mean if agg == "sum" else pca.mean), pca.components)
        out[have, col : col + width] = v
        col += width
    return end + 1


def _time_block(out, col, batch, hist, config) -> None:
    days = batch.days
    lookbacks = config.lookback_days_list
    # window i holds the days in (day - L_i, day]: count(<= day) - count(<= day - L_i)
    bounds = np.column_stack([days - L for L in lookbacks] + [days])
    width = len(_KINDS) + 2  # columns per window
    stop = col + width * len(lookbacks)
    class_days = batch.concat("class_days")
    class_idx, class_n = batch.search("class_days", bounds)
    for j, kind in enumerate(_KINDS):
        n = class_n if kind == "class" else batch.search(f"{kind}_days", bounds)[1]
        out[:, col + j : stop : width] = n[:, -1:] - n[:, :-1]
    n_gaps = class_idx[:, -1:] - class_idx[:, :-1] - 1
    r, i = np.nonzero(n_gaps > 0)
    gap_mean = np.zeros(n_gaps.shape)
    span = class_days[class_idx[r, -1] - 1] - class_days[class_idx[r, i]]
    gap_mean[r, i] = span / n_gaps[r, i]
    out[:, col + len(_KINDS) : stop : width] = gap_mean
    out[:, col + len(_KINDS) + 1 : stop : width] = np.maximum(n_gaps, 0)
    col = stop

    n_class = class_n[:, -1]
    seen = np.flatnonzero(n_class > 0)
    out[:, col : col + 2] = 0.0
    out[seen, col] = days[seen] - class_days[class_idx[seen, -1] - 1]
    out[seen, col + 1] = 1.0
    out[:, col + 2] = days - batch.first_days
    col += 3

    teacher_ids = [s.teacher_id for s in batch.students]
    teachers = sorted(set(teacher_ids))
    code = np.searchsorted(teachers, teacher_ids)[batch.pos]
    order = np.argsort(code, kind="stable")
    ends = np.searchsorted(code[order], np.arange(len(teachers)), side="right")
    for teacher, sel in zip(teachers, np.split(order, ends[:-1])):
        courses, students, rate = hist.query(teacher, days[sel])
        out[sel, col] = courses
        out[sel, col + 1] = students
        out[sel, col + 2] = rate


def assemble(
    points: list[tuple[StudentRecord, int]],
    pca: PCAModel,
    hist: TeacherHistoryIndex,
    config: FeatureConfig,
    schema: ColumnSchema,
) -> np.ndarray:
    """Feature matrix with one row per <student, at_day> point.

    Only observations with day <= at_day contribute to a row; teacher history
    is queried strictly before at_day. Missing blocks encode as zeros plus an
    explicit count column, never NaN. Rows do not depend on the order or the
    company of their points.
    """
    names = feature_names(schema, pca, config)
    out = np.empty((len(points), len(names)))
    if not points:
        return out
    batch = _Batch(points)
    col = 0
    if "in" in config.blocks:
        col = _vector_block(out, col, batch, "inclass", pca.n_components, config, pca)
    if "out" in config.blocks:
        col = _vector_block(out, col, batch, "outclass", len(schema.outclass_columns), config)
    if "time" in config.blocks:
        _time_block(out, col, batch, hist, config)
    if not np.all(np.isfinite(out)):
        raise ValidationError("feature matrix contains non-finite values")
    return out
