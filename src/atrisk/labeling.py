"""Original positive/negative pair construction and horizon ground truth.

Training pairs follow the partition rule: every dropout student contributes
their final <student, timestamp> pair as a positive and all earlier pairs as
negatives; completion students contribute only negatives. Ongoing students
never enter the training sets. Horizon labels are a separate, evaluation-only
notion: dropout within the half-open window (day, day + delta].
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

from .errors import EmptyInputError, ValidationError
from .events import Cohort, StudentRecord

PROVENANCES = ("original_positive", "original_negative", "pseudo_positive")


@dataclass(frozen=True)
class TrainingPair:
    student_id: str
    day: int
    label: int
    weight: float
    provenance: str

    def __post_init__(self):
        if self.provenance not in PROVENANCES:
            raise ValidationError(f"unknown provenance {self.provenance!r}")
        if self.provenance.startswith("original") and self.weight != 1.0:
            raise ValidationError("original pairs must carry weight exactly 1")
        if self.provenance == "pseudo_positive" and self.label != 1:
            raise ValidationError("pseudo pairs must be labeled positive")
        if not 0.0 < self.weight <= 1.0:
            raise ValidationError(f"weight {self.weight} outside (0, 1]")


def build_original_pairs(
    cohort: Cohort,
) -> tuple[list[TrainingPair], list[TrainingPair]]:
    """Split every resolved student's pairs into (positives P, negatives N)."""
    resolved = cohort.resolved()
    if not resolved:
        raise EmptyInputError("cohort has no resolved (non-ongoing) students")
    positives: list[TrainingPair] = []
    negatives: list[TrainingPair] = []
    for student in resolved:
        days = student.days
        if student.final_status == "dropout":
            positives.append(
                TrainingPair(student.student_id, days[-1], 1, 1.0, "original_positive")
            )
            negative_days = days[:-1]
        else:
            negative_days = days
        negatives.extend(
            TrainingPair(student.student_id, d, 0, 1.0, "original_negative")
            for d in negative_days
        )
    return positives, negatives


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


def write_pairs_csv(pairs: list[TrainingPair], path: str | Path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["student_id", "day", "label", "weight", "provenance"])
        for p in pairs:
            writer.writerow([p.student_id, p.day, p.label, repr(p.weight), p.provenance])
