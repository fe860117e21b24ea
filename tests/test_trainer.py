"""Weighted over-sampling statistics and model-fitting glue."""

import numpy as np
import pytest

from atrisk.errors import EmptyInputError, ModelError, SchemaError
from atrisk.gbdt import GBDTConfig
from atrisk.labeling import PairSet
from atrisk.trainer import SamplerConfig, fit_gbdt, oversample

from conftest import obs, student

NAMES = ("f0", "f1")
NONE = PairSet.of([], 1)


def pos(sid, day, weight=1.0):
    return PairSet.of([(student(sid, [obs(day)], status="dropout"), day)], 1, [weight])


def negs(n):
    """n negative pairs, one per day 1..n of student "n"."""
    s = student("n", [obs(d) for d in range(1, n + 1)])
    return PairSet.of([(s, d) for d in s.days], 0)


def drawn_ids(out, negatives):
    """Student id of every draw `oversample` appended to `negatives`."""
    assert out.labels[len(negatives):].tolist() == [1] * (len(out) - len(negatives))
    return [s.student_id for s, _ in out.points[len(negatives):]]


def test_oversample_hits_target_fraction_within_one_pair():
    negatives = negs(70)
    out = oversample(pos("p", 99), NONE, negatives, SamplerConfig(seed=0))
    n_pos = int(out.labels.sum())
    target = 0.3
    achieved = n_pos / len(out)
    step = 1 / len(out)
    assert abs(achieved - target) <= step
    # negatives untouched, and first
    assert out.points[:len(negatives)] == negatives.points
    assert out.labels[:len(negatives)].tolist() == negatives.labels.tolist()
    assert out.weights[:len(negatives)].tolist() == negatives.weights.tolist()


def test_oversample_draw_ratio_tracks_weights():
    """Two positives with weights 1.0 and 0.25: draws should approach 4:1."""
    negatives = negs(23_333)  # ~10k draws at 0.3
    out = oversample(pos("a", 10), pos("b", 5, weight=0.25), negatives, SamplerConfig(seed=7))
    drawn = drawn_ids(out, negatives)
    n = len(drawn)
    assert n >= 9_000
    count_a = drawn.count("a")
    p_a = 0.8  # 1.0 / (1.0 + 0.25)
    se = np.sqrt(p_a * (1 - p_a) / n)
    assert abs(count_a / n - p_a) <= 3 * se


def test_oversample_drawn_copies_carry_weight_one():
    negatives = negs(39)
    out = oversample(NONE, pos("p", 9, weight=0.3), negatives, SamplerConfig(seed=1))
    assert drawn_ids(out, negatives) == ["p"] * (len(out) - len(negatives))
    assert out.weights.dtype == np.float64
    assert out.weights.tolist() == [1.0] * len(out)


def test_oversample_is_seeded():
    negatives = negs(49)
    a = oversample(pos("a", 1), pos("b", 2, weight=0.5), negatives, SamplerConfig(seed=3))
    b = oversample(pos("a", 1), pos("b", 2, weight=0.5), negatives, SamplerConfig(seed=3))
    assert [(s.student_id, d) for s, d in a.points] == [(s.student_id, d) for s, d in b.points]


def test_oversample_empty_pool_raises():
    with pytest.raises(EmptyInputError):
        oversample(NONE, NONE, negs(1), SamplerConfig())


def test_sampler_config_validation():
    with pytest.raises(ModelError):
        SamplerConfig(target_positive_fraction=0.0)
    with pytest.raises(ModelError):
        SamplerConfig(target_positive_fraction=0.6)


def labeled_fixture(seed=0, n=60):
    """(X, pairs): row i of X is the feature row of pair i."""
    rng = np.random.default_rng(seed)
    rows, labels = [], []
    for i in range(n):
        x = rng.normal(size=2)
        rows.append(x)
        labels.append(int(x[0] + 0.3 * rng.normal() > 0))
    s = student("s", [obs(d) for d in range(1, n + 1)])
    return np.array(rows), PairSet(list(zip([s] * n, s.days)), np.array(labels), np.ones(n))


def test_fit_gbdt_and_predict_round_trip():
    X, data = labeled_fixture()
    model = fit_gbdt(X, data, NAMES, GBDTConfig(n_trees=20, max_depth=2))
    assert model.feature_names == NAMES
    score, low = model.predict_proba(np.array([[2.0, 0.0], [-2.0, 0.0]]))
    assert 0.0 <= score <= 1.0
    assert score > low


def test_fit_gbdt_requires_features():
    _, pairs = labeled_fixture(n=2)
    with pytest.raises(ModelError):
        fit_gbdt(np.zeros((3, 2)), pairs, NAMES, GBDTConfig(n_trees=1))
    with pytest.raises(ModelError):
        fit_gbdt(np.zeros(2), pairs, NAMES, GBDTConfig(n_trees=1))
    with pytest.raises(EmptyInputError):
        fit_gbdt(np.zeros((0, 2)), NONE, NAMES, GBDTConfig(n_trees=1))


def test_duplicate_pairs_merge_into_weights():
    """Oversampled literal copies must train like one row with summed weight."""
    X, base = labeled_fixture(seed=2)
    is_pos = base.labels == 1
    n_copies = int(is_pos.sum())
    copies = PairSet(
        base.points + [p for p, keep in zip(base.points, is_pos) if keep],
        np.concatenate([base.labels, np.ones(n_copies, dtype=np.int64)]),
        np.ones(len(base) + n_copies),
    )
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

