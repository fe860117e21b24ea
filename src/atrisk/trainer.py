"""Weighted over-sampling and model fitting on training pairs.

Positives (original plus pseudo) are resampled with replacement, selection
probability proportional to their confidence weights, until they make up the
configured fraction of the training set. Negatives pass through untouched.
Every set is a `labeling.PairSet`, so a draw is a point index, not a copied
pair. The learner is the from-scratch GBDT in `gbdt`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import gbdt
from .errors import EmptyInputError, ModelError, check_seed
from .gbdt import GBDTConfig, GBDTModel
from .labeling import PairSet


@dataclass(frozen=True)
class SamplerConfig:
    target_positive_fraction: float = 0.3
    seed: int = 0

    def __post_init__(self):
        if not 0.0 < self.target_positive_fraction <= 0.5:
            raise ModelError("target_positive_fraction must be in (0, 0.5]")
        check_seed(self.seed)


def oversample(positives: PairSet, pseudo: PairSet, negatives: PairSet, cfg: SamplerConfig) -> PairSet:
    """Return negatives unchanged, followed by resampled positive draws.

    The draw count makes positives `target_positive_fraction` of the output.
    Each draw enters the learner with weight 1: its confidence weight has
    already been spent on selection frequency.
    """
    pool = positives.points + pseudo.points
    if not pool:
        raise EmptyInputError("no positive pairs to oversample")
    f = cfg.target_positive_fraction
    n_pos = max(int(round(f * len(negatives) / (1.0 - f))), 1)
    weights = np.concatenate([positives.weights, pseudo.weights])
    rng = np.random.default_rng(cfg.seed)
    draws = rng.choice(len(pool), size=n_pos, replace=True, p=weights / weights.sum())
    return PairSet(negatives.points + [pool[i] for i in draws.tolist()],
                   np.concatenate([negatives.labels, np.ones(n_pos, dtype=np.int64)]),
                   np.concatenate([negatives.weights, np.ones(n_pos)]))


def fit_gbdt(X: np.ndarray, data: PairSet, names: tuple[str, ...], cfg: GBDTConfig) -> GBDTModel:
    """Train the boosted-tree model on weighted training pairs and their rows of X.

    Repeated draws stay separate rows: `gbdt.fit` merges identical rows into
    summed weights itself, and refuses an X without one row per pair.
    """
    if not len(data):
        raise EmptyInputError("no training pairs")
    return gbdt.fit(X, data.labels, data.weights, cfg, feature_names=names)
