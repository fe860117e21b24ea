"""Gradient-boosted decision trees for weighted binary log-loss.

Greedy split search with second-order (Newton) gains and leaf values, from
scratch on numpy. Each feature's exact sorted distinct values are its
histogram bins: a node's gradient, hessian and row-count histograms come from
one `bincount`, the larger child's as its parent's minus the smaller child's,
and per-feature prefix sums over them give every split's gain. Thresholds sit
at midpoints between a node's consecutive occupied distinct values, so they
are the thresholds an exhaustive sorted search would try; gain ties break
toward the lowest feature index and then the lowest threshold, so training is
fully deterministic. Leaf regularisation is fixed: an L2 penalty of 1 on leaf
values and a minimum hessian of 1 in each child, so no gain divides by zero.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import DegenerateDataError, ModelError, SchemaError

MODEL_FORMAT_VERSION = 1
L2_LEAF_REG = 1.0
MIN_CHILD_WEIGHT = 1.0
_MIN_GAIN = 1e-12
# Features with at most this many distinct values share one padded block of
# bins; wider features are blocked by power-of-two width class, so padding at
# most doubles their cells while the blocks (one cumsum call each) stay few.
_NARROW_BINS = 64


@dataclass(frozen=True)
class GBDTConfig:
    n_trees: int = 200
    max_depth: int = 4
    learning_rate: float = 0.1

    def __post_init__(self):
        if self.n_trees < 0:
            raise ModelError("n_trees must be >= 0")
        if self.max_depth < 1:
            raise ModelError("max_depth must be >= 1")
        if not 0.0 < self.learning_rate <= 1.0:
            raise ModelError("learning_rate must be in (0, 1]")

    def to_dict(self) -> dict:
        return {
            "n_trees": self.n_trees,
            "max_depth": self.max_depth,
            "learning_rate": self.learning_rate,
        }


def _finite(raw, what: str) -> float:
    if isinstance(raw, bool) or not isinstance(raw, (int, float)) or not math.isfinite(raw):
        raise ModelError(f"{what} must be a finite number, got {raw!r}")
    return float(raw)


@dataclass
class TreeNode:
    """Internal node (feature/threshold/children) or leaf (value set)."""

    feature: int = -1
    threshold: float = 0.0
    left: "TreeNode | None" = None
    right: "TreeNode | None" = None
    value: float | None = None  # leaf output, already scaled by learning_rate

    @property
    def is_leaf(self) -> bool:
        return self.value is not None

    def to_dict(self) -> dict:
        if self.is_leaf:
            return {"value": self.value}
        return {
            "feature": self.feature,
            "threshold": self.threshold,
            "left": self.left.to_dict(),
            "right": self.right.to_dict(),
        }

    @classmethod
    def from_dict(cls, raw: dict, n_features: int | None = None) -> "TreeNode":
        """Parse a serialized node, raising ModelError on any malformed field.

        With `n_features` given, split features must index a row that wide.
        """
        if not isinstance(raw, dict):
            raise ModelError(f"tree node must be an object, got {raw!r}")
        if "value" in raw:
            return cls(value=_finite(raw["value"], "leaf value"))
        missing = sorted({"feature", "threshold", "left", "right"} - raw.keys())
        if missing:
            raise ModelError(f"tree node lacks {', '.join(missing)}")
        feature = raw["feature"]
        if (
            isinstance(feature, bool)
            or not isinstance(feature, int)
            or feature < 0
            or (n_features is not None and feature >= n_features)
        ):
            raise ModelError(f"split feature {feature!r} out of range")
        return cls(
            feature=feature,
            threshold=_finite(raw["threshold"], "threshold"),
            left=cls.from_dict(raw["left"], n_features),
            right=cls.from_dict(raw["right"], n_features),
        )


def _tree_predict(node: TreeNode, X: np.ndarray) -> np.ndarray:
    out = np.empty(X.shape[0], dtype=np.float64)
    stack = [(node, np.arange(X.shape[0]))]
    while stack:
        nd, idx = stack.pop()
        if nd.is_leaf:
            out[idx] = nd.value
            continue
        mask = X[idx, nd.feature] < nd.threshold
        stack.append((nd.left, idx[mask]))
        stack.append((nd.right, idx[~mask]))
    return out


def _sigmoid(z: np.ndarray | float):
    return 1.0 / (1.0 + np.exp(-z))


def _log_loss(y: np.ndarray, score: np.ndarray, w: np.ndarray) -> float:
    p = np.clip(_sigmoid(score), 1e-15, 1.0 - 1e-15)
    return float(np.sum(w * -(y * np.log(p) + (1.0 - y) * np.log(1.0 - p))) / np.sum(w))


class _Bins:
    """Training rows coded by bin: one cell per (feature, distinct value).

    `codes[i, f]` is the cell of row i's value of feature f: that value's
    rank among the feature's sorted distinct values plus the feature's
    offset. Features of similar width share a block laid out as a
    (features, width) array padded to its widest feature, so per-feature
    prefix sums are one row-wise `cumsum` per block.
    """

    def __init__(self, X: np.ndarray):
        n, n_features = X.shape
        self.values = [np.unique(X[:, f]) for f in range(n_features)]
        widths = np.array([v.shape[0] for v in self.values], dtype=np.intp)
        width_class = np.maximum(np.ceil(np.log2(widths)), np.log2(_NARROW_BINS))
        self.offsets = np.empty(n_features, dtype=np.intp)
        self.blocks: list[tuple[int, int, int]] = []  # (first cell, features, width)
        start = 0
        for c in np.unique(width_class):
            feats = np.flatnonzero(width_class == c)
            width = int(widths[feats].max())
            self.offsets[feats] = start + width * np.arange(feats.shape[0])
            self.blocks.append((start, feats.shape[0], width))
            start += feats.shape[0] * width
        self.n_cells = start
        self.codes = np.empty((n, n_features), dtype=np.intp)
        for f, values in enumerate(self.values):
            self.codes[:, f] = self.offsets[f] + np.searchsorted(values, X[:, f])
        self.all_rows_counts = np.bincount(self.codes.ravel(), minlength=self.n_cells)
        # Split candidates in feature-major order, so the first maximum is the
        # lowest feature and then the lowest threshold; a feature's last value
        # has nothing above it to split from.
        self.candidates = np.concatenate(
            [np.arange(o, o + k - 1) for o, k in zip(self.offsets, widths)]
        )
        self.candidate_feature = np.repeat(np.arange(n_features), widths - 1)

    def histogram(self, rows: np.ndarray, g: np.ndarray, h: np.ndarray) -> np.ndarray:
        """(3, n_cells) sums of g, h and row counts over `rows` (ascending)."""
        k = self.codes.shape[1]
        all_rows = rows.shape[0] == self.codes.shape[0]
        cells = (self.codes if all_rows else self.codes[rows]).ravel()
        hist = np.empty((3, self.n_cells))
        hist[0] = np.bincount(cells, np.repeat(g[rows], k), self.n_cells)
        hist[1] = np.bincount(cells, np.repeat(h[rows], k), self.n_cells)
        hist[2] = self.all_rows_counts if all_rows else np.bincount(cells, minlength=self.n_cells)
        return hist

    def best_split(
        self, hist: np.ndarray, n_rows: int, G: float, H: float
    ) -> tuple[int, float, int] | None:
        """(feature, threshold, cut cell) of the best split, or None.

        Rows whose cell is below the cut cell go left; that is exactly the
        rows whose value is below the threshold.
        """
        prefix = np.empty_like(hist)
        for start, n_feats, width in self.blocks:
            stop = start + n_feats * width
            np.cumsum(
                hist[:, start:stop].reshape(3, n_feats, width),
                axis=2,
                out=prefix[:, start:stop].reshape(3, n_feats, width),
            )
        cg, ch, cn = prefix
        # An occupied cell with rows above it in the same feature can split,
        # if each side keeps a hessian of at least MIN_CHILD_WEIGHT.
        splittable = (hist[2] > 0) & (cn < n_rows)
        splittable &= (ch >= MIN_CHILD_WEIGHT) & ((H - ch) >= MIN_CHILD_WEIGHT)
        lam = L2_LEAF_REG
        gains = 0.5 * (cg**2 / (ch + lam) + (G - cg) ** 2 / (H - ch + lam) - G * G / (H + lam))
        gains = np.where(splittable, gains, -np.inf)[self.candidates]
        best = int(np.argmax(gains))
        if not gains[best] > _MIN_GAIN:
            return None
        f = int(self.candidate_feature[best])
        cell, offset, values = int(self.candidates[best]), int(self.offsets[f]), self.values[f]
        lo = cell - offset
        hi = lo + 1 + int(np.flatnonzero(hist[2, cell + 1 : offset + values.shape[0]])[0])
        threshold = float(0.5 * (values[lo] + values[hi]))
        return f, threshold, offset + int(np.searchsorted(values, threshold))


def _grow_tree(
    bins: _Bins, g: np.ndarray, h: np.ndarray, score: np.ndarray, cfg: GBDTConfig
) -> TreeNode:
    """Grow one depth-limited tree on gradients/hessians; add it to `score`.

    Each leaf adds its value to `score` over its own rows, the same sum
    `GBDTModel.raw_scores` forms, so `score` stays bit-identical to it. A
    node gets a histogram only if it may split (depth and rows permitting).
    """
    root = TreeNode()
    rows = np.arange(g.shape[0])
    may_split = rows.shape[0] >= 2 and bins.candidates.shape[0] > 0
    stack = [(root, rows, 0, bins.histogram(rows, g, h) if may_split else None)]
    while stack:
        node, rows, depth, hist = stack.pop()
        G, H = g[rows].sum(), h[rows].sum()
        split = None if hist is None else bins.best_split(hist, rows.shape[0], G, H)
        if split is None:
            node.value = float(-cfg.learning_rate * G / (H + L2_LEAF_REG))
            score[rows] += node.value
            continue
        node.feature, node.threshold, cut = split
        goes_left = bins.codes[rows, node.feature] < cut
        left, right = rows[goes_left], rows[~goes_left]
        node.left, node.right = TreeNode(), TreeNode()
        left_hist = right_hist = None
        if depth + 1 < cfg.max_depth:
            # Bin the smaller child; the parent's buffer becomes the larger's.
            if left.shape[0] <= right.shape[0]:
                left_hist = bins.histogram(left, g, h)
                right_hist = _subtract(hist, left_hist)
            else:
                right_hist = bins.histogram(right, g, h)
                left_hist = _subtract(hist, right_hist)
        stack.append((node.right, right, depth + 1, right_hist if right.shape[0] >= 2 else None))
        stack.append((node.left, left, depth + 1, left_hist if left.shape[0] >= 2 else None))
        del hist, left_hist, right_hist  # each histogram lives only as long as its node
    return root


def _subtract(parent: np.ndarray, child: np.ndarray) -> np.ndarray:
    """The sibling's histogram, in the parent's buffer; empty cells sum to 0."""
    parent -= child
    parent[:2] *= parent[2] > 0
    return parent


@dataclass
class GBDTModel:
    """Trained boosted-tree predictor: base log-odds plus an ordered tree list."""

    base_score: float
    trees: list[TreeNode]
    feature_names: tuple[str, ...]
    config: GBDTConfig
    train_loss_curve: list[float] = field(default_factory=list, repr=False)

    def raw_scores(self, X: np.ndarray) -> np.ndarray:
        X = np.atleast_2d(np.asarray(X, dtype=np.float64))
        if X.shape[1] != len(self.feature_names):
            raise SchemaError(
                f"input width {X.shape[1]} != model width {len(self.feature_names)}"
            )
        score = np.full(X.shape[0], self.base_score)
        for tree in self.trees:
            score += _tree_predict(tree, X)
        return score

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        return _sigmoid(self.raw_scores(X))

    def to_json(self) -> str:
        payload = {
            "format_version": MODEL_FORMAT_VERSION,
            "model_type": "gbdt",
            "base_score": self.base_score,
            "config": self.config.to_dict(),
            "feature_names": list(self.feature_names),
            "trees": [t.to_dict() for t in self.trees],
        }
        return json.dumps(payload, sort_keys=True, separators=(",", ":"))

    def save(self, path: str | Path) -> None:
        Path(path).write_text(self.to_json() + "\n")

    @classmethod
    def from_json(cls, text: str) -> "GBDTModel":
        try:
            raw = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ModelError(f"model is not valid JSON: {exc}") from exc
        if not isinstance(raw, dict) or raw.get("format_version") != MODEL_FORMAT_VERSION:
            version = raw.get("format_version") if isinstance(raw, dict) else None
            raise ModelError(f"unsupported model format {version!r}")
        missing = sorted({"base_score", "config", "feature_names", "trees"} - raw.keys())
        if missing:
            raise ModelError(f"model lacks {', '.join(missing)}")
        if not (
            isinstance(raw["trees"], list)
            and isinstance(raw["feature_names"], list)
            and isinstance(raw["config"], dict)
        ):
            raise ModelError("model trees and feature_names must be lists, config an object")
        feature_names = tuple(raw["feature_names"])
        try:
            config = GBDTConfig(**raw["config"])
        except TypeError as exc:
            raise ModelError(f"bad model config: {exc}") from exc
        return cls(
            base_score=_finite(raw["base_score"], "base score"),
            trees=[TreeNode.from_dict(t, len(feature_names)) for t in raw["trees"]],
            feature_names=feature_names,
            config=config,
        )

    @classmethod
    def load(cls, path: str | Path) -> "GBDTModel":
        return cls.from_json(Path(path).read_text())


def _canonicalize(X: np.ndarray, y: np.ndarray, w: np.ndarray):
    """Merge identical (row, label) pairs into summed weights, in sorted order,
    and normalize weights to mean 1. A uniformly duplicated dataset thereby
    reduces to the exact same arrays and trains to the bit-identical model.
    """
    keyed = np.column_stack([X, y])
    _, unique_idx, inverse = np.unique(
        keyed, axis=0, return_index=True, return_inverse=True
    )
    w = np.bincount(inverse.ravel(), weights=w, minlength=len(unique_idx))
    return X[unique_idx], y[unique_idx], w / w.mean()


def fit(
    X: np.ndarray,
    y: np.ndarray,
    sample_weight: np.ndarray | None,
    cfg: GBDTConfig,
    feature_names: tuple[str, ...] | None = None,
) -> GBDTModel:
    """Boost `cfg.n_trees` rounds of Newton-step regression trees on log-loss."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if X.ndim != 2 or y.ndim != 1 or X.shape[0] != y.shape[0] or X.shape[1] == 0:
        raise ModelError("X must be 2-D, with at least one column and one row per label")
    if not np.all(np.isfinite(X)):
        raise DegenerateDataError("feature matrix contains non-finite values")
    if sample_weight is None:
        w = np.ones_like(y)
    else:
        w = np.asarray(sample_weight, dtype=np.float64)
        if w.shape != y.shape:
            raise ModelError(f"sample_weight has shape {w.shape}, expected {y.shape}")
        if not np.all(np.isfinite(w)) or np.any(w < 0):
            raise DegenerateDataError("sample weights must be finite and non-negative")
    if not 0.0 < np.sum(w) < np.inf:
        raise DegenerateDataError("sample weights must have a positive finite sum")
    if feature_names is None:
        feature_names = tuple(f"f{i}" for i in range(X.shape[1]))

    X, y, w = _canonicalize(X, y, w)

    pos_frac = float(np.sum(w * y) / np.sum(w))
    if pos_frac <= 0.0 or pos_frac >= 1.0:
        raise DegenerateDataError("training data contains a single class")

    base = float(np.log(pos_frac / (1.0 - pos_frac)))
    score = np.full(X.shape[0], base)
    bins = _Bins(X)
    del X  # the bin codes stand in for it from here on
    trees: list[TreeNode] = []
    losses = [_log_loss(y, score, w)]
    for _ in range(cfg.n_trees):
        p = _sigmoid(score)
        g = w * (p - y)
        h = w * p * (1.0 - p)
        trees.append(_grow_tree(bins, g, h, score, cfg))
        losses.append(_log_loss(y, score, w))

    return GBDTModel(
        base_score=base,
        trees=trees,
        feature_names=feature_names,
        config=cfg,
        train_loss_curve=losses,
    )
