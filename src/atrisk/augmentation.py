"""Time-aware pseudo-positive generation.

For each dropout student, integer days strictly inside the window
(max(t_{n-1}, t_n - lookback), t_n) become extra positive pairs. A dropout
observed only once gets none: every day of its window precedes its first
observation, so no day of it can be featurized. Each pseudo day gets the
confidence weight g((t_n - d) / lookback), where g is a decreasing function
on [0, 1]: weights shrink as the pseudo day moves away from dropout.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .errors import ValidationError
from .events import Cohort, StudentRecord
from .labeling import PairSet

# g: normalized time-to-dropout u in [0, 1] -> weight in [0, 1], g(0)=1, g(1)=0.
WEIGHTINGS: dict[str, Callable[[float], float]] = {
    "linear": lambda u: 1.0 - u,
    "convex": lambda u: (1.0 - u) ** 2,
    "concave": lambda u: 1.0 - u * u,
}


@dataclass(frozen=True)
class AugmentationConfig:
    lookback_days: int | None = 7  # None disables augmentation
    weighting: str = "convex"

    def __post_init__(self):
        if self.lookback_days is not None and self.lookback_days < 1:
            raise ValidationError("lookback_days must be >= 1 (or None to disable)")
        if self.weighting not in WEIGHTINGS:
            raise ValidationError(
                f"unknown weighting {self.weighting!r}; expected one of {sorted(WEIGHTINGS)}"
            )


def augment(cohort: Cohort, config: AugmentationConfig) -> PairSet:
    """The pseudo-positive set of every dropout student; empty when disabled."""
    lookback = config.lookback_days
    if lookback is None:
        return PairSet.of([], 1)
    g = WEIGHTINGS[config.weighting]
    points: list[tuple[StudentRecord, int]] = []
    weights: list[float] = []
    for student in cohort:
        if student.final_status != "dropout" or len(student.observations) < 2:
            continue
        days = student.days
        t_n = days[-1]
        lower = max(days[-2], t_n - lookback)
        for d in range(lower + 1, t_n):
            points.append((student, d))
            weights.append(g((t_n - d) / lookback))
    return PairSet.of(points, 1, weights)
