"""Weighted over-sampling statistics and model-fitting glue."""

import numpy as np
import pytest

from atrisk.errors import EmptyInputError, ModelError, SchemaError
from atrisk.gbdt import GBDTConfig
from atrisk.labeling import TrainingPair
from atrisk.trainer import SamplerConfig, fit_gbdt, oversample

NAMES = ("f0", "f1")


def pos(sid, day, weight=1.0, provenance="original_positive"):
    return TrainingPair(sid, day, 1, weight, provenance)


def neg(sid, day):
    return TrainingPair(sid, day, 0, 1.0, "original_negative")


def test_oversample_hits_target_fraction_within_one_pair():
    negatives = [neg("n", d) for d in range(1, 71)]
    out = oversample([pos("p", 99)], [], negatives, SamplerConfig(seed=0))
    n_pos = sum(1 for p in out if p.label == 1)
    target = 0.3
    achieved = n_pos / len(out)
    step = 1 / len(out)
    assert abs(achieved - target) <= step
    assert [p for p in out if p.label == 0] == negatives  # negatives untouched


def test_oversample_draw_ratio_tracks_weights():
    """Two positives with weights 1.0 and 0.25: draws should approach 4:1."""
    pool_a = pos("a", 10)
    pool_b = pos("b", 5, weight=0.25, provenance="pseudo_positive")
    negatives = [neg("n", d) for d in range(1, 23_334)]  # ~10k draws at 0.3
    out = oversample([pool_a], [pool_b], negatives, SamplerConfig(seed=7))
    drawn = [p for p in out if p.label == 1]
    n = len(drawn)
    assert n >= 9_000
    count_a = sum(1 for p in drawn if p.student_id == "a")
    p_a = 0.8  # 1.0 / (1.0 + 0.25)
    se = np.sqrt(p_a * (1 - p_a) / n)
    assert abs(count_a / n - p_a) <= 3 * se


def test_oversample_drawn_copies_carry_weight_one():
    negatives = [neg("n", d) for d in range(1, 40)]
    out = oversample(
        [], [pos("p", 9, weight=0.3, provenance="pseudo_positive")], negatives,
        SamplerConfig(seed=1),
    )
    assert all(p.weight == 1.0 for p in out if p.label == 1)


def test_oversample_is_seeded():
    negatives = [neg("n", d) for d in range(1, 50)]
    pool = [pos("a", 1), pos("b", 2, weight=0.5, provenance="pseudo_positive")]
    a = oversample(pool[:1], pool[1:], negatives, SamplerConfig(seed=3))
    b = oversample(pool[:1], pool[1:], negatives, SamplerConfig(seed=3))
    assert [(p.student_id, p.day) for p in a] == [(p.student_id, p.day) for p in b]


def test_oversample_empty_pool_raises():
    with pytest.raises(EmptyInputError):
        oversample([], [], [neg("n", 1)], SamplerConfig())


def test_sampler_config_validation():
    with pytest.raises(ModelError):
        SamplerConfig(target_positive_fraction=0.0)
    with pytest.raises(ModelError):
        SamplerConfig(target_positive_fraction=0.6)


def labeled_fixture(seed=0, n=60):
    """(X, pairs): row i of X is the feature row of pairs[i]."""
    rng = np.random.default_rng(seed)
    rows, pairs = [], []
    for i in range(n):
        x = rng.normal(size=2)
        label = int(x[0] + 0.3 * rng.normal() > 0)
        rows.append(x)
        pairs.append(pos(f"s{i}", i + 1) if label else neg(f"s{i}", i + 1))
    return np.array(rows), pairs


def test_fit_gbdt_and_predict_round_trip():
    X, data = labeled_fixture()
    model = fit_gbdt(X, data, NAMES, GBDTConfig(n_trees=20, max_depth=2))
    assert model.feature_names == NAMES
    score, low = model.predict_proba(np.array([[2.0, 0.0], [-2.0, 0.0]]))
    assert 0.0 <= score <= 1.0
    assert score > low


def test_fit_gbdt_requires_features():
    pairs = [pos("p", 1), neg("n", 2)]
    with pytest.raises(ModelError):
        fit_gbdt(np.zeros((3, 2)), pairs, NAMES, GBDTConfig(n_trees=1))
    with pytest.raises(ModelError):
        fit_gbdt(np.zeros(2), pairs, NAMES, GBDTConfig(n_trees=1))
    with pytest.raises(EmptyInputError):
        fit_gbdt(np.zeros((0, 2)), [], NAMES, GBDTConfig(n_trees=1))


def test_duplicate_pairs_merge_into_weights():
    """Oversampled literal copies must train like one row with summed weight."""
    X, base = labeled_fixture(seed=2)
    is_pos = np.array([p.label == 1 for p in base])
    copies = base + [p for p in base if p.label == 1]
    cfg = GBDTConfig(n_trees=10, max_depth=2)
    merged = fit_gbdt(np.vstack([X, X[is_pos]]), copies, NAMES, cfg)

    y = is_pos.astype(float)
    w = np.where(y == 1, 2.0, 1.0)
    from atrisk import gbdt as gbdt_mod

    direct = gbdt_mod.fit(X, y, w, cfg, feature_names=NAMES)
    assert merged.to_json() == direct.to_json()


def test_predict_validates_names():
    """A row of the wrong width is refused; column names are checked where a
    PipelineScorer is built (tests/test_pipeline.py)."""
    X, data = labeled_fixture()
    model = fit_gbdt(X, data, NAMES, GBDTConfig(n_trees=2))
    with pytest.raises(SchemaError):
        model.predict_proba(np.zeros((1, 3)))
    with pytest.raises(SchemaError):
        model.predict_proba(np.zeros((4, 1)))

