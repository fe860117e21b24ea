"""End-to-end training: features -> pairs -> augmentation -> sampling -> GBDT.

This is the glue the CLI and the sweep harness share. A TrainedPipeline
bundles the fitted model with the feature-space state (PCA, teacher history,
config, schema) needed to score <student, day> points causally, and the
training pairs it was built from.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

import numpy as np

from . import features as F
from . import labeling, trainer
from .augmentation import AugmentationConfig, augment
from .errors import InsufficientDataError, SchemaError
from .events import Cohort, ColumnSchema, StudentRecord
from .features import FeatureConfig, PCAModel, TeacherHistoryIndex
from .gbdt import GBDTConfig, GBDTModel
from .labeling import TrainingPair
from .trainer import SamplerConfig


@dataclass(frozen=True)
class PipelineConfig:
    feature: FeatureConfig = FeatureConfig()
    augmentation: AugmentationConfig = AugmentationConfig()
    sampler: SamplerConfig = SamplerConfig()
    gbdt: GBDTConfig = GBDTConfig()

    def fingerprint(self) -> str:
        raw = json.dumps(
            {
                "blocks": list(self.feature.blocks),
                "aug_lookback": self.augmentation.lookback_days,
                "weighting": self.augmentation.weighting,
                "target_positive_fraction": self.sampler.target_positive_fraction,
                "sampler_seed": self.sampler.seed,
                "gbdt": self.gbdt.to_dict(),
            },
            sort_keys=True,
        )
        return hashlib.sha256(raw.encode()).hexdigest()[:16]


@dataclass
class TrainedPipeline:
    model: GBDTModel
    pca: PCAModel
    hist: TeacherHistoryIndex
    feature_config: FeatureConfig
    schema: ColumnSchema
    config: PipelineConfig
    pairs: list[TrainingPair]  # original positives, pseudo positives, negatives

    @property
    def n_pseudo_pairs(self) -> int:
        return sum(p.provenance == "pseudo_positive" for p in self.pairs)

    @property
    def scorer(self) -> "PipelineScorer":
        return PipelineScorer(self)


class PipelineScorer:
    """Scores batches of (student, day) points with a trained pipeline."""

    def __init__(self, trained: TrainedPipeline):
        names = F.feature_names(trained.schema, trained.pca, trained.feature_config)
        if names != tuple(trained.model.feature_names):
            raise SchemaError("the model's feature columns differ from the featurizer's")
        self._trained = trained

    def many(self, points: list[tuple[StudentRecord, int]]) -> np.ndarray:
        t = self._trained
        X = F.assemble(points, t.pca, t.hist, t.feature_config, t.schema)
        return t.model.predict_proba(X)


def _inclass_rows(cohort: Cohort) -> np.ndarray:
    rows = [
        o.inclass_values
        for sid in sorted(cohort.students)
        for o in cohort.students[sid].observations
        if o.inclass_values is not None
    ]
    if len(rows) < 2:
        raise InsufficientDataError("cohort has fewer than 2 class sessions; cannot fit PCA")
    return np.vstack(rows)


def train(cohort: Cohort, config: PipelineConfig) -> TrainedPipeline:
    """Run the full learning procedure on a (training) cohort."""
    pca = F.fit_pca(_inclass_rows(cohort))
    hist = F.build_teacher_history(cohort)
    positives, negatives = labeling.build_original_pairs(cohort)
    pseudo = augment(cohort, config.augmentation) if config.augmentation.enabled else []
    data = trainer.oversample(positives, pseudo, negatives, config.sampler)
    X = F.assemble(
        [(cohort.students[p.student_id], p.day) for p in data],
        pca, hist, config.feature, cohort.schema,
    )
    names = F.feature_names(cohort.schema, pca, config.feature)
    return TrainedPipeline(
        model=trainer.fit_gbdt(X, data, names, config.gbdt),
        pca=pca,
        hist=hist,
        feature_config=config.feature,
        schema=cohort.schema,
        config=config,
        pairs=positives + pseudo + negatives,
    )
