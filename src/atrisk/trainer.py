"""Weighted over-sampling and model fitting on training pairs.

Positives (original plus pseudo) are resampled with replacement, selection
probability proportional to their confidence weights, until they make up the
configured fraction of the training set. Negatives pass through untouched.
The learner is the from-scratch GBDT in `gbdt`; a logistic-regression
baseline with the same predict interface is included for comparison runs.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import gbdt
from .errors import DegenerateDataError, EmptyInputError, ModelError, SchemaError
from .gbdt import GBDTConfig, GBDTModel
from .labeling import TrainingPair


@dataclass(frozen=True)
class SamplerConfig:
    target_positive_fraction: float = 0.3
    seed: int = 0
    carry_weights: bool = False  # True: draw uniformly, keep weights in the loss

    def __post_init__(self):
        if not 0.0 < self.target_positive_fraction <= 0.5:
            raise ModelError("target_positive_fraction must be in (0, 0.5]")


def oversample(
    positives: list[TrainingPair],
    pseudo: list[TrainingPair],
    negatives: list[TrainingPair],
    cfg: SamplerConfig,
) -> list[TrainingPair]:
    """Return negatives unchanged plus resampled positive draws.

    The draw count makes positives `target_positive_fraction` of the output.
    In the default mode each drawn copy enters the learner with weight 1: its
    confidence weight has already been spent on selection frequency.
    """
    pool = list(positives) + list(pseudo)
    if not pool:
        raise EmptyInputError("no positive pairs to oversample")
    f = cfg.target_positive_fraction
    n_pos = int(round(f * len(negatives) / (1.0 - f))) if f < 1.0 else len(negatives)
    n_pos = max(n_pos, 1)
    weights = np.array([p.weight for p in pool])
    rng = np.random.default_rng(cfg.seed)
    if cfg.carry_weights:
        draws = rng.integers(0, len(pool), size=n_pos)
        drawn = [pool[i] for i in draws]
    else:
        draws = rng.choice(len(pool), size=n_pos, replace=True, p=weights / weights.sum())
        drawn = [replace(pool[i], weight=1.0) for i in draws]
    return list(negatives) + drawn


def _labels_and_weights(X: np.ndarray, data: list[TrainingPair]):
    """(y, w) for training pairs whose feature rows are the rows of X.

    Repeated draws stay separate rows: `gbdt.fit` merges identical rows into
    summed weights itself.
    """
    if not data:
        raise EmptyInputError("no training pairs")
    if np.ndim(X) != 2 or np.shape(X)[0] != len(data):
        raise ModelError(f"feature matrix of shape {np.shape(X)} for {len(data)} training pairs")
    y = np.array([p.label for p in data], dtype=np.float64)
    w = np.array([p.weight for p in data], dtype=np.float64)
    return y, w


def fit_gbdt(
    X: np.ndarray, data: list[TrainingPair], names: tuple[str, ...], cfg: GBDTConfig
) -> GBDTModel:
    """Train the boosted-tree model on weighted training pairs and their rows of X."""
    y, w = _labels_and_weights(X, data)
    return gbdt.fit(X, y, w, cfg, feature_names=names)


@dataclass
class LogisticModel:
    """Linear log-odds model over standardized features."""

    coef: np.ndarray
    intercept: float
    mean: np.ndarray
    scale: np.ndarray
    feature_names: tuple[str, ...]

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        X = np.atleast_2d(np.asarray(X, dtype=np.float64))
        if X.shape[1] != len(self.feature_names):
            raise SchemaError(
                f"input width {X.shape[1]} != model width {len(self.feature_names)}"
            )
        z = (X - self.mean) / self.scale @ self.coef + self.intercept
        return 1.0 / (1.0 + np.exp(-z))


def fit_logistic_baseline(
    X: np.ndarray,
    data: list[TrainingPair],
    names: tuple[str, ...],
    epochs: int = 200,
    step: float = 0.5,
) -> LogisticModel:
    """Weighted log-loss gradient descent; standardization from training data."""
    y, w = _labels_and_weights(X, data)
    pos = float(np.sum(w * y) / np.sum(w))
    if pos <= 0.0 or pos >= 1.0:
        raise DegenerateDataError("training data contains a single class")
    mean = X.mean(axis=0)
    scale = X.std(axis=0)
    scale[scale == 0.0] = 1.0
    Z = (X - mean) / scale
    coef = np.zeros(X.shape[1])
    intercept = float(np.log(pos / (1.0 - pos)))  # prior log-odds start
    wsum = w.sum()
    for _ in range(epochs):
        p = 1.0 / (1.0 + np.exp(-(Z @ coef + intercept)))
        err = w * (p - y)
        coef -= step * (Z.T @ err) / wsum
        intercept -= step * float(err.sum()) / wsum
    return LogisticModel(
        coef=coef, intercept=intercept, mean=mean, scale=scale, feature_names=names
    )
