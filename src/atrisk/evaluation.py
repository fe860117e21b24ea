"""Multi-step-ahead evaluation: AUC per horizon, top-k% flagging, student splits.

Query points are every observation day of a test student that still has at
least one future day before resolution. AUC with single-class ground truth is
undefined (None) rather than fabricated, and flagging recall, when no day has
a next-day dropout, is left out of the report. A scorer is any object with a
batch `many(points) -> scores` method, such as PipelineScorer, which scores
a call's points in fixed-size batches.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import ValidationError
from .events import Cohort, StudentRecord

TOP_FRACTION = 0.3  # the share of students that flagging takes by default


def average_ranks(scores) -> np.ndarray:
    """1-based ranks of `scores`; a run of tied scores shares its mean rank."""
    scores = np.asarray(scores, dtype=np.float64)
    order = np.argsort(scores, kind="stable")
    sorted_scores = scores[order]
    # A run of tied scores at sorted positions first..last shares their mean 1-based rank.
    first = np.flatnonzero(np.r_[True, sorted_scores[1:] != sorted_scores[:-1]])
    last = np.r_[first[1:], sorted_scores.shape[0]] - 1
    ranks = np.empty(scores.shape[0])
    ranks[order] = np.repeat(0.5 * (first + last) + 1.0, last - first + 1)
    return ranks


def auc(scores, labels, ranks: np.ndarray | None = None) -> float | None:
    """Rank-based (Mann-Whitney) AUC with average-rank tie handling; None
    (undefined) when the labels hold a single class.

    `ranks`, when given, must be `average_ranks(scores)`: a caller that
    scores one vector against many label sets ranks it once.
    """
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    if scores.shape[0] != labels.shape[0]:
        raise ValidationError("scores and labels differ in length")
    n_pos = int(np.sum(labels == 1))
    n_neg = labels.shape[0] - n_pos
    if n_pos == 0 or n_neg == 0:
        return None
    if ranks is None:
        ranks = average_ranks(scores)
    rank_sum_pos = float(np.sum(ranks[labels == 1]))
    return (rank_sum_pos - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


@dataclass
class EvalReport:
    auc_by_horizon: dict[int, float | None]
    n_queries_by_horizon: dict[int, int]
    recall_at_fraction: dict[str, float] = field(default_factory=dict)
    config_fingerprint: str = ""

    def to_dict(self) -> dict:
        return {
            "auc_by_horizon": {str(k): v for k, v in self.auc_by_horizon.items()},
            "n_queries_by_horizon": {
                str(k): v for k, v in self.n_queries_by_horizon.items()
            },
            "recall_at_fraction": self.recall_at_fraction,
            "config_fingerprint": self.config_fingerprint,
        }

    def save(self, path: str | Path) -> None:
        Path(path).write_text(
            json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":")) + "\n"
        )


def query_points(cohort: Cohort) -> list[tuple[StudentRecord, int]]:
    """Every <student, day> of resolved students with day strictly before t_n."""
    points = []
    for student in cohort:
        if student.final_status == "ongoing":
            continue
        points.extend((student, d) for d in student.days if d < student.last_day)
    return points


def horizon_labels(points: list[tuple[StudentRecord, int]], deltas: list[int]) -> np.ndarray:
    """`horizon_label` of every resolved point at every delta, one row per delta."""
    check_deltas(deltas)
    # days from each point to its dropout; completers drop out on day -1, i.e. never
    ahead = np.array(
        [(s.last_day if s.final_status == "dropout" else -1) - d for s, d in points], np.int64
    )
    return np.array([(ahead > 0) & (ahead <= delta) for delta in deltas], np.int64)


def evaluate_horizons(
    scorer,
    cohort: Cohort,
    deltas: list[int],
    fingerprint: str = "",
) -> EvalReport:
    """Score and rank every query point once, then label and compute AUC per horizon."""
    points = query_points(cohort)
    scores = np.asarray(scorer.many(points))
    ranks = average_ranks(scores)
    auc_map: dict[int, float | None] = {}
    n_map: dict[int, int] = {}
    for delta, labels in zip(deltas, horizon_labels(points, deltas)):
        n_map[delta] = len(labels)
        auc_map[delta] = auc(scores, labels, ranks)
    return EvalReport(
        auc_by_horizon=auc_map,
        n_queries_by_horizon=n_map,
        config_fingerprint=fingerprint,
    )


def check_deltas(deltas: list[int]) -> None:
    if any(delta < 1 for delta in deltas):
        raise ValidationError(f"horizon delta must be positive, got {min(deltas)}")


def check_train_fraction(fraction: float) -> None:
    if not 0.0 < fraction < 1.0:
        raise ValidationError(f"train fraction {fraction} outside (0, 1)")


def check_top_fraction(fraction: float) -> None:
    if not 0.0 < fraction <= 1.0:
        raise ValidationError(f"fraction {fraction} outside (0, 1]")


def rank_top(scores_by_student: dict[str, float], fraction: float) -> tuple[list[str], int]:
    """Student ids by descending score, ties broken by id, and how many at the
    head of that ranking a top-`fraction` flag takes: ceil(fraction * n)."""
    check_top_fraction(fraction)
    ranked = sorted(scores_by_student, key=lambda sid: (-scores_by_student[sid], sid))
    return ranked, int(np.ceil(fraction * len(ranked)))


def daily_flagging(scorer, cohort: Cohort, fraction: float = TOP_FRACTION) -> dict[str, float]:
    """Replay daily top-fraction flagging against next-day dropouts.

    For each day d with at least one dropout on day d+1, score every student
    active at d, flag the top fraction, and compare against the students who
    actually drop the next day. Returns the report's recall entries, pooled
    over all such dropouts and averaged over days; none when no day has one.
    """
    dropout_days: dict[int, set[str]] = {}
    for student in cohort:
        if student.final_status == "dropout":
            dropout_days.setdefault(student.last_day, set()).add(student.student_id)

    detected = total = 0
    daily: list[float] = []
    for day in sorted(dropout_days):
        eval_day = day - 1
        active = [s for s in cohort if s.first_day <= eval_day < s.last_day]
        todays = dropout_days[day].intersection(s.student_id for s in active)
        if not todays:
            continue
        values = scorer.many([(s, eval_day) for s in active])
        scores = {s.student_id: float(v) for s, v in zip(active, values)}
        ranked, n_flag = rank_top(scores, fraction)
        hits = len(todays.intersection(ranked[:n_flag]))
        daily.append(hits / len(todays))
        detected += hits
        total += len(todays)
    if total == 0:
        return {}  # no evaluable dropout day: recall is undefined
    return {f"pooled@{fraction}": detected / total, f"daily_mean@{fraction}": float(np.mean(daily))}


def split_students(cohort: Cohort, train_fraction: float, seed: int):
    """Seeded student-level split; no id appears on both sides."""
    check_train_fraction(train_fraction)
    if seed < 0:
        raise ValidationError("seed must be non-negative")
    ids = list(cohort.students)
    rng = np.random.default_rng(seed)
    rng.shuffle(ids)
    n_train = int(round(train_fraction * len(ids)))
    return cohort.subset(ids[:n_train]), cohort.subset(ids[n_train:])
