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
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .errors import ValidationError, check_seed
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
    n_positive_by_horizon: dict[int, int]  # query points that drop out within delta
    recall_at_fraction: dict[str, float] = field(default_factory=dict)
    config_fingerprint: str = ""

    def save(self, path: str | Path) -> None:
        """Write the report as sorted JSON. Horizon keys become strings first, so
        they sort as text ("1", "10", "11", ...), not by number as int keys do."""
        report = {name: {str(k): v for k, v in value.items()} if isinstance(value, dict)
                  else value for name, value in asdict(self).items()}
        Path(path).write_text(json.dumps(report, sort_keys=True, separators=(",", ":")) + "\n")


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
    pos_map: dict[int, int] = {}
    for delta, labels in zip(deltas, horizon_labels(points, deltas)):
        n_map[delta] = len(labels)
        pos_map[delta] = int(labels.sum())
        auc_map[delta] = auc(scores, labels, ranks)
    return EvalReport(
        auc_by_horizon=auc_map,
        n_queries_by_horizon=n_map,
        n_positive_by_horizon=pos_map,
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


def rank_active(scorer, cohort: Cohort, day: int, fraction: float) -> tuple[list, int]:
    """(student id, score) of each student active at `day`, by descending score,
    ties by id, and the ceil(fraction * n) at its head that a top-`fraction` flag
    takes. A student is active from its first day until it leaves, a dropout on
    its dropout day and a completer on its last day; an ongoing student stays.
    One `scorer.many` call scores the active students at `day`, in id order."""
    check_top_fraction(fraction)
    active = [s for s in cohort if s.first_day <= day
              and (day < s.last_day or s.final_status == "ongoing")]
    values = scorer.many([(s, day) for s in active])
    ranked = sorted(((s.student_id, float(v)) for s, v in zip(active, values)),
                    key=lambda row: (-row[1], row[0]))
    return ranked, int(np.ceil(fraction * len(ranked)))


def daily_flagging(scorer, cohort: Cohort, fraction: float = TOP_FRACTION) -> dict[str, float]:
    """Replay daily top-fraction flagging against next-day dropouts.

    For each day d before a dropout leaves, rank the students active at d
    (`rank_active`), flag the top fraction, and compare against the students
    who leave on day d+1. Returns the report's recall entries, pooled
    over all such dropouts and averaged over days; none when no day has one.
    """
    dropout_days: dict[int, set[str]] = {}
    for student in cohort:  # a dropout is active the day before it leaves if it started by then
        if student.final_status == "dropout" and student.first_day < student.last_day:
            dropout_days.setdefault(student.last_day, set()).add(student.student_id)
    counts = []  # per day: the dropouts flagged the day before, and all the day's dropouts
    for day, todays in sorted(dropout_days.items()):
        ranked, n_flag = rank_active(scorer, cohort, day - 1, fraction)
        counts.append((len(todays.intersection(sid for sid, _ in ranked[:n_flag])), len(todays)))
    if not counts:
        return {}  # no evaluable dropout day: recall is undefined
    hits, n = np.array(counts).T
    return {f"pooled@{fraction}": float(hits.sum() / n.sum()),
            f"daily_mean@{fraction}": float(np.mean(hits / n))}


def split_students(cohort: Cohort, train_fraction: float, seed: int):
    """Seeded student-level split; no id appears on both sides."""
    check_train_fraction(train_fraction)
    check_seed(seed)
    ids = list(cohort.students)
    rng = np.random.default_rng(seed)
    rng.shuffle(ids)
    n_train = int(round(train_fraction * len(ids)))
    return cohort.subset(ids[:n_train]), cohort.subset(ids[n_train:])
