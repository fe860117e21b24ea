"""Pseudo-positive day generation and confidence weighting."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from atrisk.augmentation import WEIGHTINGS, AugmentationConfig, augment
from atrisk.errors import ValidationError

from conftest import cohort_of, obs, student


def dropout_with(days, sid=None):
    """Dropout student observed on `days`, dropping on the final one."""
    pairs = [obs(d) for d in days[:-1]] + [obs(days[-1], kind="dropout_event")]
    return student(sid or f"d{days[-1]}", pairs, status="dropout")


def closed_form_count(t_prev, t_n, lam):
    return max(0, t_n - max(t_prev, t_n - lam) - 1)


def pseudo_days(s, lookback):
    """Days of the pseudo-positives `augment` makes for one student."""
    return [d for _, d in augment(cohort_of(s), AugmentationConfig(lookback_days=lookback)).points]


def test_pseudo_days_open_interval():
    s = dropout_with([90, 100])
    # max(90, 93) = 93 < d < 100
    assert pseudo_days(s, 7) == [94, 95, 96, 97, 98, 99]


def test_pseudo_days_clipped_by_previous_observation():
    s = dropout_with([97, 100])
    assert pseudo_days(s, 7) == [98, 99]


def test_pseudo_days_adjacent_observation_yields_none():
    s = dropout_with([99, 100])
    assert pseudo_days(s, 7) == []


def test_pseudo_days_single_observation_yields_none():
    # every day before the only observation precedes the first one, so none is featurizable
    s = student("solo", [obs(3, kind="dropout_event")], status="dropout")
    assert pseudo_days(s, 7) == []


def test_pseudo_days_only_for_dropouts():
    assert pseudo_days(student("c", [obs(5), obs(12)], status="completion"), 7) == []
    assert pseudo_days(student("o", [obs(5), obs(12)], status="ongoing"), 7) == []


@given(
    t_prev=st.integers(min_value=1, max_value=120),
    gap=st.integers(min_value=1, max_value=40),
    lam=st.sampled_from([3, 7, 14]),
)
def test_pseudo_day_count_matches_closed_form(t_prev, gap, lam):
    t_n = t_prev + gap
    s = dropout_with([t_prev, t_n])
    days = pseudo_days(s, lam)
    assert len(days) == closed_form_count(t_prev, t_n, lam)
    for d in days:
        assert max(t_prev, t_n - lam) < d < t_n


def test_weight_formulas_exact():
    lam, t_n = 7, 100
    cohort = cohort_of(dropout_with([90, t_n]))  # pseudo days 94..99
    formulas = {
        "linear": lambda u: 1 - u,
        "convex": lambda u: (1 - u) ** 2,
        "concave": lambda u: 1 - u * u,
    }
    for tag, formula in formulas.items():
        pairs = augment(cohort, AugmentationConfig(lookback_days=lam, weighting=tag))
        assert [d for _, d in pairs.points] == [94, 95, 96, 97, 98, 99]
        for (_, d), weight in zip(pairs.points, pairs.weights.tolist()):
            assert abs(weight - formula((t_n - d) / lam)) < 1e-12


def test_weight_endpoint_values():
    for tag in ("linear", "convex", "concave"):
        g = WEIGHTINGS[tag]
        assert g(0.0) == 1.0
        assert g(1.0) == 0.0


@given(u=st.floats(min_value=0.0, max_value=1.0, allow_nan=False))
def test_weighting_shape_ordering(u):
    lin = WEIGHTINGS["linear"](u)
    cvx = WEIGHTINGS["convex"](u)
    ccv = WEIGHTINGS["concave"](u)
    assert 0.0 <= cvx <= lin <= ccv <= 1.0


@given(
    tag=st.sampled_from(["linear", "convex", "concave"]),
    u1=st.floats(min_value=0.0, max_value=1.0),
    u2=st.floats(min_value=0.0, max_value=1.0),
)
def test_weightings_non_increasing(tag, u1, u2):
    g = WEIGHTINGS[tag]
    lo, hi = min(u1, u2), max(u1, u2)
    assert g(lo) >= g(hi)


def test_unknown_weighting_rejected():
    with pytest.raises(ValidationError):
        AugmentationConfig(weighting="sigmoid")


def test_augment_counts_and_weights():
    s1 = dropout_with([90, 100], sid="a")  # 6 pseudo days under lambda=7
    s2 = dropout_with([97, 100], sid="b")  # 2 pseudo days
    comp = student("c", [obs(4), obs(9)], status="completion")
    cohort = cohort_of(s1, s2, comp)
    pairs = augment(cohort, AugmentationConfig(lookback_days=7, weighting="convex"))
    assert len(pairs) == 8
    assert pairs.labels.tolist() == [1] * 8
    by_student = {}
    for (s, d), weight in zip(pairs.points, pairs.weights.tolist()):
        by_student.setdefault(s.student_id, []).append((d, weight))
    assert sorted(by_student) == ["a", "b"]
    for sid in ("a", "b"):
        for d, weight in by_student[sid]:
            u = (100 - d) / 7
            assert weight == pytest.approx((1 - u) ** 2, abs=1e-12)


def test_augment_disabled_config_yields_no_pairs():
    cohort = cohort_of(dropout_with([90, 100]))
    assert len(augment(cohort, AugmentationConfig(lookback_days=None))) == 0

