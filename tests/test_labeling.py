"""Positive/negative pair partition and horizon ground-truth labels."""

import csv

import pytest

from atrisk.augmentation import WEIGHTINGS, AugmentationConfig, augment
from atrisk.errors import EmptyInputError, ValidationError
from atrisk.labeling import build_original_pairs, horizon_label, write_pairs_csv
from atrisk.synthgen import SimConfig, generate_cohort

from conftest import cohort_of, obs, student


def test_partition_counts(small_cohort):
    positives, negatives = build_original_pairs(small_cohort)
    # each dropout contributes exactly one positive: its final pair
    assert [(s.student_id, d) for s, d in positives.points] == [("s1", 20), ("s3", 8)]
    # everything else from resolved students is negative
    assert len(negatives) == 4 + 4 + 2  # s1 pre-final, all of s2, s3 pre-final
    assert positives.labels.tolist() == [1, 1] and positives.weights.tolist() == [1.0, 1.0]
    assert set(negatives.labels.tolist()) == {0} and set(negatives.weights.tolist()) == {1.0}


def test_ongoing_students_are_excluded(small_cohort):
    positives, negatives = build_original_pairs(small_cohort)
    ids = {s.student_id for s, _ in positives.points + negatives.points}
    assert "s4" not in ids


def test_empty_cohort_raises():
    ongoing = student("x", [obs(1)], status="ongoing")
    with pytest.raises(EmptyInputError):
        build_original_pairs(cohort_of(ongoing))


def test_pair_weights_on_a_synthetic_cohort():
    """Original pairs weigh exactly 1; every pseudo pair, for every weighting
    and lookback, is a positive weighted inside (0, 1]."""
    cohort = generate_cohort(SimConfig(n_students=60, seed=1))
    positives, negatives = build_original_pairs(cohort)
    assert len(positives) and len(negatives)
    for pairs, label in ((positives, 1), (negatives, 0)):
        assert set(pairs.labels.tolist()) == {label}
        assert set(pairs.weights.tolist()) == {1.0}
    n_pseudo = 0
    for weighting in WEIGHTINGS:
        for lookback in range(1, 15):
            pseudo = augment(cohort, AugmentationConfig(lookback, weighting))
            assert len(pseudo.labels) == len(pseudo.weights) == len(pseudo)
            assert pseudo.labels.tolist() == [1] * len(pseudo)
            assert all(0.0 < w <= 1.0 for w in pseudo.weights.tolist())
            n_pseudo += len(pseudo)
    assert n_pseudo > 0


def test_horizon_label_window_boundaries():
    drop = student("d", [obs(50), obs(100, kind="dropout_event")], status="dropout")
    assert horizon_label(drop, 95, 7) == 1  # 100 in (95, 102]
    assert horizon_label(drop, 90, 7) == 0  # 100 not in (90, 97]
    assert horizon_label(drop, 93, 7) == 1  # boundary: 100 in (93, 100]
    assert horizon_label(drop, 100, 7) == 0  # day itself excluded
    assert horizon_label(drop, 99, 1) == 1
    assert horizon_label(drop, 98, 1) == 0


def test_horizon_label_completion_always_zero():
    done = student("c", [obs(10), obs(30)], status="completion")
    for day in (10, 20, 29):
        assert horizon_label(done, day, 14) == 0


def test_horizon_label_rejects_ongoing_and_bad_delta():
    live = student("o", [obs(10)], status="ongoing")
    with pytest.raises(ValidationError):
        horizon_label(live, 5, 7)
    done = student("c", [obs(10)], status="completion")
    with pytest.raises(ValidationError):
        horizon_label(done, 5, 0)


def test_write_pairs_csv(tmp_path, small_cohort):
    positives, negatives = build_original_pairs(small_cohort)
    path = tmp_path / "pairs.csv"
    write_pairs_csv({"original_positive": positives, "original_negative": negatives}, path)
    with open(path) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == len(positives) + len(negatives)
    assert rows[0] == {
        "student_id": "s1",
        "day": "20",
        "label": "1",
        "weight": "1.0",
        "provenance": "original_positive",
    }
    assert rows[-1]["provenance"] == "original_negative"
    assert rows[-1]["label"] == "0"
