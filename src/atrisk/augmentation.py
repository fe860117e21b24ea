"""Time-aware pseudo-positive generation.

For each dropout student, integer days strictly inside the window
(max(t_{n-1}, t_n - lookback), t_n) become extra positive pairs. Each gets a
confidence weight from a decreasing function of the normalized distance to
the dropout day: weights shrink as the pseudo day moves away from dropout.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .errors import ValidationError
from .events import Cohort, StudentRecord
from .labeling import TrainingPair


def _linear(u: float) -> float:
    return 1.0 - u


def _convex(u: float) -> float:
    return (1.0 - u) ** 2


def _concave(u: float) -> float:
    return 1.0 - u * u


_WEIGHTINGS: dict[str, Callable[[float], float]] = {
    "linear": _linear,
    "convex": _convex,
    "concave": _concave,
}


@dataclass(frozen=True)
class WeightingFunction:
    """Decay from normalized time-to-dropout u in [0,1] to a weight in [0,1]."""

    tag: str

    def __post_init__(self):
        if self.tag not in _WEIGHTINGS:
            raise ValidationError(
                f"unknown weighting {self.tag!r}; expected one of {sorted(_WEIGHTINGS)}"
            )

    def evaluate(self, u: float) -> float:
        if not 0.0 <= u <= 1.0:
            raise ValidationError(f"normalized span {u} outside [0, 1]")
        return _WEIGHTINGS[self.tag](u)


@dataclass(frozen=True)
class AugmentationConfig:
    lookback_days: int | None = 7  # None disables augmentation
    weighting: str = "convex"

    def __post_init__(self):
        if self.lookback_days is not None and self.lookback_days < 1:
            raise ValidationError("lookback_days must be >= 1 (or None to disable)")
        WeightingFunction(self.weighting)  # validate tag

    @property
    def enabled(self) -> bool:
        return self.lookback_days is not None

    @property
    def weighting_function(self) -> WeightingFunction:
        return WeightingFunction(self.weighting)


def pseudo_days(student: StudentRecord, lookback: int) -> list[int]:
    """Integer days d with max(t_{n-1}, t_n - lookback) < d < t_n, ascending.

    For a single-observation dropout student the lower bound clips at day 0.
    """
    if student.final_status != "dropout":
        raise ValidationError(
            f"student {student.student_id} is not a dropout; no pseudo days"
        )
    if lookback < 1:
        raise ValidationError("lookback must be >= 1")
    days = student.days
    t_n = days[-1]
    prev = days[-2] if len(days) >= 2 else 0
    lower = max(prev, t_n - lookback)
    return list(range(lower + 1, t_n))


def weight_of(day: int, dropout_day: int, lookback: int, g: WeightingFunction) -> float:
    """Confidence weight g((t_n - d) / lookback) for one pseudo day."""
    span = dropout_day - day
    if span <= 0:
        raise ValidationError(f"pseudo day {day} not before dropout day {dropout_day}")
    if span > lookback:
        raise ValidationError(
            f"pseudo day {day} lies {span} days before dropout, beyond lookback {lookback}"
        )
    return g.evaluate(span / lookback)


def augment(cohort: Cohort, config: AugmentationConfig) -> list[TrainingPair]:
    """Generate the pseudo-positive set for every dropout student."""
    if not config.enabled:
        raise ValidationError("augmentation disabled (lookback_days is None)")
    g = config.weighting_function
    lookback = config.lookback_days
    out: list[TrainingPair] = []
    for sid in sorted(cohort.students):
        student = cohort.students[sid]
        if student.final_status != "dropout":
            continue
        t_n = student.last_day
        out.extend(
            TrainingPair(
                student_id=sid,
                day=d,
                label=1,
                weight=weight_of(d, t_n, lookback, g),
                provenance="pseudo_positive",
            )
            for d in pseudo_days(student, lookback)
        )
    return out
