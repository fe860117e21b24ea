"""End-to-end training: features -> pairs -> augmentation -> sampling -> GBDT.

This is the glue the CLI subcommands share. A PipelineScorer scores the
<student, day> points of a log with a model, its FeatureSpace and the teacher
history of that log. A TrainedPipeline bundles the fitted model, a scorer of
its training cohort, the config, and the pair sets it was built from.
`run_sweep` trains and evaluates a grid of configs.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np

from . import features as F
from . import labeling, trainer
from .augmentation import AugmentationConfig, augment
from .errors import InsufficientDataError, SchemaError, ValidationError
from .evaluation import (
    TOP_FRACTION, check_deltas, daily_flagging, evaluate_horizons, split_students,
)
from .events import Cohort, StudentRecord
from .gbdt import GBDTConfig, GBDTModel
from .labeling import PairSet
from .trainer import SamplerConfig

MODEL_FILES = ("model.json", "feature_space.json")  # what `save` writes to a model directory
# A scorer assembles and predicts at most this many points at a time (about
# 0.8 MB of features), so its working set stays flat at any number of points.
_SCORE_BATCH = 2048


@dataclass(frozen=True)
class PipelineConfig:
    blocks: tuple[str, ...] = F.ALL_BLOCKS  # the feature blocks a row holds
    augmentation: AugmentationConfig = AugmentationConfig()
    sampler: SamplerConfig = SamplerConfig()
    gbdt: GBDTConfig = GBDTConfig()

    def __post_init__(self):
        F.check_blocks(self.blocks)

    def fingerprint(self) -> str:
        """A hash of what the config trains; without augmentation the weighting is unused."""
        lookback = self.augmentation.lookback_days
        raw = json.dumps(
            {
                "blocks": list(self.blocks),
                "aug_lookback": lookback,
                "weighting": None if lookback is None else self.augmentation.weighting,
                "target_positive_fraction": self.sampler.target_positive_fraction,
                "sampler_seed": self.sampler.seed,
                "gbdt": asdict(self.gbdt),
            },
            sort_keys=True,
        )
        return hashlib.sha256(raw.encode()).hexdigest()[:16]


class PipelineScorer:
    """Scores (student, day) points with a model, its feature space and the
    teacher history of `cohort`, which is causal: a query counts only days before
    its own. Each record is indexed once, into the TimelineIndex the scorer owns."""

    def __init__(self, model: GBDTModel, space: F.FeatureSpace, cohort: Cohort):
        if space.names != tuple(model.feature_names):
            raise SchemaError("the model's feature columns differ from the featurizer's")
        self.model, self.space = model, space
        self._hist = F.build_teacher_history(cohort)
        self._index = F.TimelineIndex()

    def many(self, points: list[tuple[StudentRecord, int]]) -> np.ndarray:
        scores = np.empty(len(points))
        for start in range(0, len(points), _SCORE_BATCH):
            batch = points[start : start + _SCORE_BATCH]
            scores[start : start + len(batch)] = self.model.predict_proba(
                F.assemble(batch, self.space, self._hist, self._index))
        return scores

    def save(self, out_dir: Path) -> list[Path]:
        """Write model.json and feature_space.json (blocks and PCA) to `out_dir`."""
        paths = [out_dir / name for name in MODEL_FILES]
        self.model.save(paths[0])
        self.space.save(paths[1])
        return paths

    @classmethod
    def load(cls, model_dir: Path, cohort: Cohort) -> "PipelineScorer":
        """The scorer `save` wrote to `model_dir`, bound to `cohort`."""
        paths = [model_dir / name for name in MODEL_FILES]
        return cls(GBDTModel.load(paths[0]), F.FeatureSpace.load(paths[1], cohort.schema), cohort)


@dataclass
class TrainedPipeline:
    model: GBDTModel
    scorer: PipelineScorer  # bound to the training cohort; one per trained pipeline
    config: PipelineConfig
    pairs: dict[str, PairSet]  # original_positive, pseudo_positive, original_negative
    n_drawn: int  # positive draws over-sampling added to the negatives

    @property
    def n_pseudo_pairs(self) -> int:
        return len(self.pairs["pseudo_positive"])


def fit_feature_space(cohort: Cohort, blocks: tuple[str, ...]) -> F.FeatureSpace:
    """The feature space of `blocks` that a cohort defines: a PCA of its class
    sessions' in-class vectors, in student-id order, over its schema."""
    rows = [o.inclass_values for s in cohort for o in s.observations
            if o.inclass_values is not None]
    if len(rows) < 2:
        raise InsufficientDataError("cohort has fewer than 2 class sessions; cannot fit PCA")
    return F.FeatureSpace(blocks, F.fit_pca(np.vstack(rows)), cohort.schema)


def train(cohort: Cohort, config: PipelineConfig) -> TrainedPipeline:
    """Run the full learning procedure on a (training) cohort."""
    space = fit_feature_space(cohort, config.blocks)
    positives, negatives = labeling.build_original_pairs(cohort)
    pseudo = augment(cohort, config.augmentation)
    data = trainer.oversample(positives, pseudo, negatives, config.sampler)
    X = F.assemble(data.points, space, F.build_teacher_history(cohort))
    model = trainer.fit_gbdt(X, data, space.names, config.gbdt)
    return TrainedPipeline(
        model=model,
        scorer=PipelineScorer(model, space, cohort),
        config=config,
        pairs={"original_positive": positives, "pseudo_positive": pseudo,
               "original_negative": negatives},
        n_drawn=len(data) - len(negatives),
    )


def _summary(per_seed: list[float | None]) -> dict:
    """Every seed's value, and the mean and std of the defined ones (None if none is)."""
    defined = [v for v in per_seed if v is not None]
    if not defined:
        return {"mean": None, "std": None, "per_seed": per_seed}
    return {"mean": float(np.mean(defined)), "std": float(np.std(defined)), "per_seed": per_seed}


def run_sweep(
    cohort: Cohort,
    arms: dict[str, PipelineConfig],
    deltas: list[int],
    seeds: list[int],
    train_fraction: float = 0.8,
) -> dict:
    """Train and evaluate every arm on shared per-seed splits: the sweep report.

    Each split's seed is also the arm's sampler seed, so arms differ only in
    what they configure; a test split is scored as `predict` scores `cohort`.
    The report summarises each arm's AUC per horizon (`cells`) and its pooled
    recall of daily top-`TOP_FRACTION` flagging (`recall_at_fraction`): every
    seed's value, None where undefined, and the mean and std of the defined
    ones. Acceptance criteria 6 and 7 read it.
    """
    if not seeds:
        raise ValidationError("at least one seed required")
    check_deltas(deltas)  # before any training, as is every split
    splits = [split_students(cohort, train_fraction, seed) for seed in seeds]
    aucs: dict[str, dict[str, list]] = {key: {str(d): [] for d in deltas} for key in arms}
    recalls: dict[str, list] = {key: [] for key in arms}
    recall_key = f"pooled@{TOP_FRACTION}"
    for seed, (train_cohort, test_cohort) in zip(seeds, splits):
        for key, config in arms.items():
            config = replace(config, sampler=replace(config.sampler, seed=seed))
            trained = train(train_cohort, config)
            scorer = PipelineScorer(trained.model, trained.scorer.space, cohort)
            for d, value in evaluate_horizons(scorer, test_cohort, deltas).auc_by_horizon.items():
                aucs[key][str(d)].append(value)
            recalls[key].append(daily_flagging(scorer, test_cohort).get(recall_key))
    cells = {key: {d: _summary(v) for d, v in by_delta.items()} for key, by_delta in aucs.items()}
    return {"deltas": list(deltas), "seeds": list(seeds), "cells": cells,
            "recall_at_fraction": {recall_key: {key: _summary(v) for key, v in recalls.items()}}}
