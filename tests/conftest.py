"""Shared fixtures: small hand-constructed cohorts with known properties."""

import numpy as np
import pytest

from atrisk.events import Cohort, ColumnSchema, ObservationPair, StudentRecord

IN_COLS = ("attention", "qa_rounds", "loudness", "speech_rate")
OUT_COLS = ("order_discount", "order_courses", "followup_sentiment")


def obs(day, kind="follow_up", inclass=None, outclass=None, teacher="t1", polarity=None):
    return ObservationPair(
        day=day,
        kind=kind,
        inclass_values=None if inclass is None else np.array(inclass, dtype=np.float64),
        outclass_values=None if outclass is None else np.array(outclass, dtype=np.float64),
        teacher_id=teacher,
        polarity=polarity,
    )


def session(day, values=(0.0, 0.0, 0.0, 0.0), teacher="t1"):
    return obs(day, kind="class_session", inclass=list(values), teacher=teacher)


def student(sid, observations, status="completion", teacher="t1"):
    return StudentRecord(
        student_id=sid,
        observations=tuple(observations),
        final_status=status,
        teacher_id=teacher,
    )


def cohort_of(*students):
    schema = ColumnSchema(inclass_columns=IN_COLS, outclass_columns=OUT_COLS)
    return Cohort(students={s.student_id: s for s in students}, schema=schema)


def cohort_known_at(cohort, day):
    """The cohort as known at `day`: students who start later are absent; the
    others keep their observations up to `day`, and are ongoing if they
    resolve after it."""
    known = [
        StudentRecord(
            student_id=s.student_id,
            observations=tuple(o for o in s.observations if o.day <= day),
            final_status=s.final_status if s.last_day <= day else "ongoing",
            teacher_id=s.teacher_id,
        )
        for s in cohort if s.first_day <= day
    ]
    return Cohort(students={s.student_id: s for s in known}, schema=cohort.schema)


def auc_bruteforce(scores, labels) -> float | None:
    """O(pos*neg) pair-counting oracle: (concordant + 0.5 * tied) / (pos * neg);
    None when the labels hold a single class."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    if len(pos) == 0 or len(neg) == 0:
        return None
    concordant = float(np.sum(pos[:, None] > neg[None, :]))
    tied = float(np.sum(pos[:, None] == neg[None, :]))
    return (concordant + 0.5 * tied) / (len(pos) * len(neg))


class BatchScorer:
    """Gives a per-point oracle `fn(student, day) -> score` the batch
    `many(points) -> scores` method the evaluation reports call."""

    def __init__(self, fn):
        self._fn = fn

    def many(self, points):
        return np.array([self._fn(s, d) for s, d in points], dtype=np.float64)


@pytest.fixture
def schema():
    return ColumnSchema(inclass_columns=IN_COLS, outclass_columns=OUT_COLS)


@pytest.fixture
def small_cohort():
    """Two dropouts, one completer, one ongoing; fixed observation days."""
    s1 = student(
        "s1",
        [
            obs(1, kind="purchase_event", outclass=[0.5, 10, 0]),
            session(3, (1.0, 2.0, 0.5, -0.5)),
            session(10, (0.8, 1.0, 0.2, 0.1)),
            obs(12, polarity=1, outclass=[0, 0, 0.7]),
            obs(20, kind="dropout_event"),
        ],
        status="dropout",
    )
    s2 = student(
        "s2",
        [
            obs(2, kind="purchase_event", outclass=[0.4, 20, 0]),
            session(5, (0.0, 0.5, 1.5, 0.2)),
            session(9, (-0.3, 0.1, 0.4, 0.9)),
            session(14, (0.2, 0.3, -0.1, 0.4)),
        ],
        status="completion",
    )
    s3 = student(
        "s3",
        [
            session(4, (2.0, 1.5, 0.0, 0.3), teacher="t2"),
            obs(6, polarity=-1, outclass=[0, 0, -0.9], teacher="t2"),
            obs(8, kind="dropout_event", teacher="t2"),
        ],
        status="dropout",
        teacher="t2",
    )
    s4 = student(
        "s4",
        [session(7, (0.1, 0.2, 0.3, 0.4))],
        status="ongoing",
    )
    return cohort_of(s1, s2, s3, s4)
