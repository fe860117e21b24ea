"""Weighted over-sampling and model fitting on training pairs.

Positives (original plus pseudo) are resampled with replacement, selection
probability proportional to their confidence weights, until they make up the
configured fraction of the training set. Negatives pass through untouched.
The learner is the from-scratch GBDT in `gbdt`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import gbdt
from .errors import EmptyInputError, ModelError, ValidationError
from .gbdt import GBDTConfig, GBDTModel
from .labeling import TrainingPair


@dataclass(frozen=True)
class SamplerConfig:
    target_positive_fraction: float = 0.3
    seed: int = 0

    def __post_init__(self):
        if not 0.0 < self.target_positive_fraction <= 0.5:
            raise ModelError("target_positive_fraction must be in (0, 0.5]")
        if self.seed < 0:
            raise ValidationError("seed must be non-negative")


def oversample(
    positives: list[TrainingPair],
    pseudo: list[TrainingPair],
    negatives: list[TrainingPair],
    cfg: SamplerConfig,
) -> list[TrainingPair]:
    """Return negatives unchanged plus resampled positive draws.

    The draw count makes positives `target_positive_fraction` of the output.
    Each drawn copy enters the learner with weight 1: its confidence weight
    has already been spent on selection frequency.
    """
    pool = list(positives) + list(pseudo)
    if not pool:
        raise EmptyInputError("no positive pairs to oversample")
    f = cfg.target_positive_fraction
    n_pos = max(int(round(f * len(negatives) / (1.0 - f))), 1)
    weights = np.array([p.weight for p in pool])
    rng = np.random.default_rng(cfg.seed)
    draws = rng.choice(len(pool), size=n_pos, replace=True, p=weights / weights.sum())
    return list(negatives) + [replace(pool[i], weight=1.0) for i in draws]


def fit_gbdt(
    X: np.ndarray, data: list[TrainingPair], names: tuple[str, ...], cfg: GBDTConfig
) -> GBDTModel:
    """Train the boosted-tree model on weighted training pairs and their rows of X.

    Repeated draws stay separate rows: `gbdt.fit` merges identical rows into
    summed weights itself.
    """
    if not data:
        raise EmptyInputError("no training pairs")
    if np.ndim(X) != 2 or np.shape(X)[0] != len(data):
        raise ModelError(f"feature matrix of shape {np.shape(X)} for {len(data)} training pairs")
    y = np.array([p.label for p in data], dtype=np.float64)
    w = np.array([p.weight for p in data], dtype=np.float64)
    return gbdt.fit(X, y, w, cfg, feature_names=names)
