"""Original positive/negative pair construction and horizon ground truth.

Training pairs follow the partition rule: every dropout student contributes
their final <student, timestamp> pair as a positive and all earlier pairs as
negatives; completion students contribute only negatives. Ongoing students
never enter the training sets. Horizon labels are a separate, evaluation-only
notion: dropout within the half-open window (day, day + delta].

Each set of training pairs is a PairSet of columns, and the set says where a
pair came from: originals weigh exactly 1, pseudo positives (`augmentation`) less.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import EmptyInputError, ValidationError
from .events import Cohort, StudentRecord


@dataclass(frozen=True, eq=False)
class PairSet:
    """Training pairs as columns: pair i is the <student, day> point
    `points[i]`, the point type `features.assemble` takes, with label
    `labels[i]` (1 positive, 0 negative) and weight `weights[i]`."""

    points: list[tuple[StudentRecord, int]]
    labels: np.ndarray  # int64
    weights: np.ndarray  # float64

    @classmethod
    def of(cls, points: list[tuple[StudentRecord, int]], label: int,
           weights: list[float] | None = None) -> PairSet:
        """Pairs that all carry `label`, each weighted 1 unless `weights` says otherwise."""
        n = len(points)
        return cls(points, np.full(n, label, dtype=np.int64),
                   np.ones(n) if weights is None else np.array(weights, dtype=np.float64))

    def __len__(self) -> int:
        return len(self.points)


def build_original_pairs(cohort: Cohort) -> tuple[PairSet, PairSet]:
    """Split every resolved student's pairs into (positives P, negatives N)."""
    resolved = cohort.resolved()
    if not resolved:
        raise EmptyInputError("cohort has no resolved (non-ongoing) students")
    positives: list[tuple[StudentRecord, int]] = []
    negatives: list[tuple[StudentRecord, int]] = []
    for student in resolved:
        days = student.days
        if student.final_status == "dropout":
            positives.append((student, days[-1]))
            days = days[:-1]
        negatives.extend((student, d) for d in days)
    return PairSet.of(positives, 1), PairSet.of(negatives, 0)


def horizon_label(student: StudentRecord, day: int, delta: int) -> int:
    """1 iff the student drops out within (day, day + delta]."""
    if student.final_status == "ongoing":
        raise ValidationError(
            f"student {student.student_id} is unresolved; horizon label undefined"
        )
    if delta < 1:
        raise ValidationError(f"horizon delta must be positive, got {delta}")
    if student.final_status != "dropout":
        return 0
    dropout_day = student.last_day
    return int(day < dropout_day <= day + delta)


def write_pairs_csv(pair_sets: dict[str, PairSet], path: str | Path) -> None:
    """One row per pair, set by set; each set's key is its rows' provenance."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["student_id", "day", "label", "weight", "provenance"])
        for provenance, pairs in pair_sets.items():
            writer.writerows(
                [student.student_id, day, label, repr(weight), provenance]
                for (student, day), label, weight
                in zip(pairs.points, pairs.labels.tolist(), pairs.weights.tolist())
            )
