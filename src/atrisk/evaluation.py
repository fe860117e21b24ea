"""Multi-step-ahead evaluation: AUC per horizon, top-k% flagging, sweeps.

Query points are every observation day of a test student that still has at
least one future day before resolution. Horizons with single-class ground
truth are reported as undefined rather than fabricated. A scorer is any
object with a batch `many(points) -> scores` method, such as PipelineScorer;
each report scores its points in batches.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from .errors import UndefinedMetricError, ValidationError
from .events import Cohort, StudentRecord
from .labeling import horizon_label


def auc(scores, labels) -> float:
    """Rank-based (Mann-Whitney) AUC with average-rank tie handling."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    if scores.shape[0] != labels.shape[0]:
        raise ValidationError("scores and labels differ in length")
    n_pos = int(np.sum(labels == 1))
    n_neg = labels.shape[0] - n_pos
    if n_pos == 0 or n_neg == 0:
        raise UndefinedMetricError("AUC undefined with a single class")
    order = np.argsort(scores, kind="stable")
    sorted_scores = scores[order]
    # A run of tied scores at sorted positions first..last shares their mean 1-based rank.
    first = np.flatnonzero(np.r_[True, sorted_scores[1:] != sorted_scores[:-1]])
    last = np.r_[first[1:], sorted_scores.shape[0]] - 1
    ranks = np.empty(scores.shape[0])
    ranks[order] = np.repeat(0.5 * (first + last) + 1.0, last - first + 1)
    rank_sum_pos = float(np.sum(ranks[np.asarray(labels) == 1]))
    return (rank_sum_pos - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def auc_bruteforce(scores, labels) -> float:
    """O(pos*neg) pair-counting oracle: (concordant + 0.5 * tied) / (pos * neg)."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    if len(pos) == 0 or len(neg) == 0:
        raise UndefinedMetricError("AUC undefined with a single class")
    concordant = float(np.sum(pos[:, None] > neg[None, :]))
    tied = float(np.sum(pos[:, None] == neg[None, :]))
    return (concordant + 0.5 * tied) / (len(pos) * len(neg))


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
    for sid in sorted(cohort.students):
        student = cohort.students[sid]
        if student.final_status == "ongoing":
            continue
        points.extend((student, d) for d in student.days if d < student.last_day)
    return points


def evaluate_horizons(
    scorer,
    cohort: Cohort,
    deltas: list[int],
    fingerprint: str = "",
) -> EvalReport:
    """Score every query point once, then label and compute AUC per horizon."""
    points = query_points(cohort)
    scores = np.asarray(scorer.many(points))
    auc_map: dict[int, float | None] = {}
    n_map: dict[int, int] = {}
    for delta in deltas:
        labels = np.array([horizon_label(s, d, delta) for s, d in points])
        n_map[delta] = len(labels)
        try:
            auc_map[delta] = auc(scores, labels)
        except UndefinedMetricError:
            auc_map[delta] = None  # single-class ground truth at this horizon
    return EvalReport(
        auc_by_horizon=auc_map,
        n_queries_by_horizon=n_map,
        config_fingerprint=fingerprint,
    )


def flag_top(scores_by_student: dict[str, float], fraction: float) -> set[str]:
    """The top ceil(fraction * n) students by score, ties broken by id."""
    if not 0.0 < fraction <= 1.0:
        raise ValidationError(f"fraction {fraction} outside (0, 1]")
    n_flag = int(np.ceil(fraction * len(scores_by_student)))
    ranked = sorted(scores_by_student, key=lambda sid: (-scores_by_student[sid], sid))
    return set(ranked[:n_flag])


@dataclass
class FlaggingReport:
    """Daily next-day flagging recall over the span of a cohort."""

    pooled_recall: float
    daily_mean_recall: float
    n_days: int
    n_dropouts: int


def daily_flagging(scorer, cohort: Cohort, fraction: float = 0.3) -> FlaggingReport:
    """Replay daily top-fraction flagging against next-day dropouts.

    For each day d with at least one dropout on day d+1, score every student
    active at d, flag the top fraction, and compare against the students who
    actually drop the next day.
    """
    dropout_days: dict[int, set[str]] = {}
    for student in cohort:
        if student.final_status == "dropout":
            dropout_days.setdefault(student.last_day, set()).add(student.student_id)

    detected = total = 0
    daily: list[float] = []
    for day in sorted(dropout_days):
        eval_day = day - 1
        active = {
            s.student_id: s
            for s in cohort
            if s.first_day <= eval_day and s.last_day > eval_day
        }
        todays = dropout_days[day] & set(active)
        if not todays:
            continue
        sids = sorted(active)
        values = scorer.many([(active[sid], eval_day) for sid in sids])
        scores = dict(zip(sids, (float(v) for v in values)))
        hits = len(flag_top(scores, fraction) & todays)
        daily.append(hits / len(todays))
        detected += hits
        total += len(todays)
    if total == 0:
        raise UndefinedMetricError("cohort has no evaluable dropout days")
    return FlaggingReport(
        pooled_recall=detected / total,
        daily_mean_recall=float(np.mean(daily)),
        n_days=len(daily),
        n_dropouts=total,
    )


def split_students(cohort: Cohort, train_fraction: float, seed: int):
    """Seeded student-level split; no id appears on both sides."""
    if not 0.0 < train_fraction < 1.0:
        raise ValidationError(f"train fraction {train_fraction} outside (0, 1)")
    ids = sorted(cohort.students)
    rng = np.random.default_rng(seed)
    rng.shuffle(ids)
    n_train = int(round(train_fraction * len(ids)))
    return cohort.subset(ids[:n_train]), cohort.subset(ids[n_train:])


@dataclass
class SweepCell:
    lookback: int | None
    weighting: str
    blocks: tuple[str, ...]

    @property
    def key(self) -> str:
        lb = "none" if self.lookback is None else str(self.lookback)
        return f"lookback={lb},weighting={self.weighting},blocks={'+'.join(self.blocks)}"


@dataclass
class SweepReport:
    """Mean/std AUC per cell per horizon over seeds, plus per-seed values."""

    deltas: list[int]
    seeds: list[int]
    cells: dict[str, dict[int, list[float | None]]]  # cell key -> delta -> per-seed AUC

    def _summary(self, key: str, delta: int) -> tuple[float | None, float | None, int]:
        """Mean, std and number of the defined per-seed AUCs of a cell at a
        horizon; mean and std are None when no seed's AUC is defined."""
        vals = [v for v in self.cells[key][delta] if v is not None]
        if not vals:
            return None, None, 0
        return float(np.mean(vals)), float(np.std(vals)), len(vals)

    def _statistic(self, key: str, delta: int, i: int) -> float:
        value = self._summary(key, delta)[i]
        if value is None:
            raise UndefinedMetricError(f"no defined AUC for {key} at delta={delta}")
        return value

    def mean_auc(self, key: str, delta: int) -> float:
        return self._statistic(key, delta, 0)

    def std_auc(self, key: str, delta: int) -> float:
        return self._statistic(key, delta, 1)

    def to_dict(self) -> dict:
        summary = {}
        for key, per_delta in self.cells.items():
            summary[key] = {}
            for d in self.deltas:
                mean, std, _ = self._summary(key, d)
                summary[key][str(d)] = {"mean": mean, "std": std, "per_seed": per_delta[d]}
        return {"deltas": self.deltas, "seeds": self.seeds, "cells": summary}

    def save(self, path: str | Path) -> None:
        Path(path).write_text(
            json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":")) + "\n"
        )

    def save_csv(self, path: str | Path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["cell", "delta", "mean_auc", "std_auc", "n_seeds"])
            for key in sorted(self.cells):
                for d in self.deltas:
                    mean, std, n = self._summary(key, d)
                    writer.writerow([
                        key, d, "" if n == 0 else f"{mean:.6f}", "" if n == 0 else f"{std:.6f}", n
                    ])


def run_sweep(
    cohort: Cohort,
    cells: list[SweepCell],
    deltas: list[int],
    seeds: list[int],
    train_cell: Callable[[Cohort, SweepCell, int], object],
    train_fraction: float = 0.8,
) -> SweepReport:
    """Train and evaluate every cell on shared per-seed splits.

    `train_cell(train_cohort, cell, seed)` builds a scorer; splits and seeds
    are shared across cells so differences isolate the varied factor.
    """
    if not seeds:
        raise ValidationError("at least one seed required")
    results: dict[str, dict[int, list[float | None]]] = {
        c.key: {d: [] for d in deltas} for c in cells
    }
    for seed in seeds:
        train_cohort, test_cohort = split_students(cohort, train_fraction, seed)
        for cell in cells:
            scorer = train_cell(train_cohort, cell, seed)
            report = evaluate_horizons(scorer, test_cohort, deltas, cell.key)
            for d in deltas:
                results[cell.key][d].append(report.auc_by_horizon[d])
    return SweepReport(deltas=list(deltas), seeds=list(seeds), cells=results)
