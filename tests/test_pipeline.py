"""End-to-end pipeline training and scoring."""

import dataclasses
import gc
import weakref

import numpy as np
import pytest

from atrisk.augmentation import AugmentationConfig
from atrisk.errors import InsufficientDataError, SchemaError
from atrisk.evaluation import evaluate_horizons, query_points, split_students
from atrisk.features import FeatureConfig
from atrisk.gbdt import GBDTConfig, GBDTModel
from atrisk.pipeline import PipelineConfig, PipelineScorer, train
from atrisk.synthgen import SimConfig, generate_cohort

from conftest import cohort_of, session, student

FAST = PipelineConfig(gbdt=GBDTConfig(n_trees=10, max_depth=2))


@pytest.fixture(scope="module")
def cohort():
    c, _, _ = generate_cohort(SimConfig(n_students=150, seed=21))
    return c


@pytest.fixture(scope="module")
def trained(cohort):
    return train(cohort, FAST)


def test_train_produces_scorable_pipeline(trained, cohort):
    s = next(iter(cohort))
    (score,) = trained.scorer.many([(s, s.last_day)])
    assert 0.0 <= score <= 1.0
    assert isinstance(trained.model, GBDTModel)
    assert trained.n_pseudo_pairs > 0


def test_scorer_many_invariant_to_order_and_split(trained, cohort):
    points = query_points(cohort)[:300]
    one_call = trained.scorer.many(points)
    perm = np.random.default_rng(0).permutation(len(points))
    shuffled = trained.scorer.many([points[i] for i in perm])
    np.testing.assert_array_equal(shuffled, one_call[perm])
    parts = [trained.scorer.many(points[a:b]) for a, b in ((0, 1), (1, 120), (120, 300))]
    np.testing.assert_array_equal(np.concatenate(parts), one_call)
    assert trained.scorer.many([]).shape == (0,)


def test_scorer_rejects_model_with_other_columns(trained):
    other = dataclasses.replace(trained, feature_config=FeatureConfig(blocks=("time",)))
    with pytest.raises(SchemaError):
        PipelineScorer(other)
    with pytest.raises(SchemaError):
        other.scorer


def test_scoring_does_not_keep_records_alive():
    """Records own their feature arrays; nothing global pins them after use."""
    cohort, _, _ = generate_cohort(SimConfig(n_students=40, seed=4))
    trained = train(cohort, FAST)
    points = query_points(cohort)
    assert len(trained.scorer.many(points)) == len(points)
    record = weakref.ref(points[0][0])
    del cohort, trained, points
    gc.collect()
    assert record() is None


def test_training_is_deterministic(cohort):
    a = train(cohort, FAST)
    b = train(cohort, FAST)
    assert a.model.to_json() == b.model.to_json()


def test_augmentation_disabled_produces_no_pseudo(cohort):
    cfg = PipelineConfig(
        gbdt=FAST.gbdt, augmentation=AugmentationConfig(lookback_days=None)
    )
    assert train(cohort, cfg).n_pseudo_pairs == 0


def test_block_restriction_shrinks_features(cohort):
    full = train(cohort, FAST)
    only_time = train(
        cohort, PipelineConfig(gbdt=FAST.gbdt, feature=FeatureConfig(blocks=("time",)))
    )
    assert len(only_time.model.feature_names) < len(full.model.feature_names)
    assert all(n.startswith("time_") for n in only_time.model.feature_names)


def test_trained_model_beats_chance_out_of_sample():
    # a larger cohort than the module fixture keeps the held-out AUC stable
    big, _, _ = generate_cohort(SimConfig(n_students=300, seed=11))
    cfg = PipelineConfig(gbdt=GBDTConfig(n_trees=80, max_depth=2))
    means = []
    for seed in range(3):
        tr, te = split_students(big, 0.8, seed=seed)
        report = evaluate_horizons(train(tr, cfg).scorer, te, list(range(1, 15)))
        defined = [v for v in report.auc_by_horizon.values() if v is not None]
        assert defined
        means.append(float(np.mean(defined)))
    assert float(np.mean(means)) > 0.6


def test_fingerprint_tracks_config():
    a = PipelineConfig()
    b = PipelineConfig(augmentation=AugmentationConfig(weighting="linear"))
    assert a.fingerprint() == PipelineConfig().fingerprint()
    assert a.fingerprint() != b.fingerprint()


def test_train_requires_class_sessions():
    bare = cohort_of(
        student("a", [session(2), session(9)], status="completion"),
    )
    no_sessions = cohort_of(
        student(
            "b",
            [session(3).__class__(day=3, kind="follow_up")],
            status="completion",
        )
    )
    with pytest.raises(InsufficientDataError):
        train(no_sessions, FAST)
    # two sessions are enough for PCA to fit, but training still needs both
    # classes present, which `bare` lacks (no dropouts) - expect an error
    with pytest.raises(Exception):
        train(bare, FAST)
