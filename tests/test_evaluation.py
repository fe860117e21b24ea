"""AUC against the pair-counting oracle, flagging recall, student splits."""

import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from atrisk.errors import ValidationError
from atrisk.evaluation import (
    auc,
    average_ranks,
    daily_flagging,
    evaluate_horizons,
    horizon_labels,
    query_points,
    rank_active,
    split_students,
)

from atrisk.labeling import horizon_label
from atrisk.synthgen import SimConfig, generate_cohort

from conftest import BatchScorer, auc_bruteforce, cohort_of, obs, student


def test_auc_hand_value():
    scores = [0.1, 0.4, 0.35, 0.8]
    labels = [0, 0, 1, 1]
    assert auc(scores, labels) == pytest.approx(0.75)


def test_auc_perfect_and_inverted():
    assert auc([0.1, 0.2, 0.8, 0.9], [0, 0, 1, 1]) == 1.0
    assert auc([0.9, 0.8, 0.2, 0.1], [0, 0, 1, 1]) == 0.0


def test_auc_all_tied_is_half():
    assert auc([0.5] * 6, [0, 1, 0, 1, 0, 1]) == pytest.approx(0.5)


def test_auc_single_class_is_none():
    assert auc([0.1, 0.2], [1, 1]) is None
    assert auc([0.1, 0.2], [0, 0], average_ranks([0.1, 0.2])) is None
    assert auc_bruteforce([0.1, 0.2], [0, 0]) is None
    assert auc_bruteforce([0.1, 0.2], [1, 1]) is None


def test_auc_length_mismatch():
    with pytest.raises(ValidationError):
        auc([0.1], [0, 1])


@pytest.mark.parametrize("seed", range(50))
def test_auc_matches_bruteforce_random(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 200))
    scores = np.round(rng.normal(size=n), 1)  # rounding forces ties
    labels = rng.integers(0, 2, size=n)
    if labels.min() == labels.max():
        labels[0] = 1 - labels[0]
    assert abs(auc(scores, labels) - auc_bruteforce(scores, labels)) <= 1e-12


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000))
def test_auc_matches_bruteforce_property(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 60))
    scores = rng.choice([0.0, 0.25, 0.5, 0.75, 1.0], size=n)
    labels = rng.integers(0, 2, size=n)
    if labels.min() == labels.max():
        labels[0] = 1 - labels[0]
    assert abs(auc(scores, labels) - auc_bruteforce(scores, labels)) <= 1e-12


def test_query_points_exclude_final_day_and_ongoing(small_cohort):
    points = query_points(small_cohort)
    sids = {s.student_id for s, _ in points}
    assert "s4" not in sids  # ongoing students are not evaluated
    for s, d in points:
        assert d < s.last_day
    s1_days = [d for s, d in points if s.student_id == "s1"]
    assert s1_days == [1, 3, 10, 12]


def test_evaluate_horizons_with_oracle_scorer(small_cohort):
    def oracle(student_record, day):
        if student_record.final_status != "dropout":
            return 0.0
        return 1.0 / (student_record.last_day - day)

    report = evaluate_horizons(BatchScorer(oracle), small_cohort, [1, 2, 8, 30])
    assert report.auc_by_horizon[30] == 1.0  # all dropout days within horizon
    assert report.auc_by_horizon[1] is None  # no positives at delta=1 here
    assert report.auc_by_horizon[2] == 1.0  # s3 day 6 -> dropout day 8
    assert set(report.n_queries_by_horizon.values()) == {len(query_points(small_cohort))}


def test_horizon_labels_equal_per_point_definition():
    cohort = generate_cohort(SimConfig(n_students=60, seed=5))
    points = query_points(cohort)
    deltas = list(range(1, 15))
    labels = horizon_labels(points, deltas)
    assert labels.shape == (len(deltas), len(points))
    expected = [[horizon_label(s, d, delta) for s, d in points] for delta in deltas]
    assert labels.tolist() == expected
    assert 0 < labels.sum() < labels.size


def test_evaluate_horizons_counts_each_horizons_positives():
    """`n_positive_by_horizon` is `horizon_label` summed over the query points."""
    cohort = generate_cohort(SimConfig(n_students=60, seed=5))
    points = query_points(cohort)
    deltas = list(range(1, 15))
    report = evaluate_horizons(BatchScorer(lambda s, d: 0.5), cohort, deltas)
    assert report.n_positive_by_horizon == {
        delta: sum(horizon_label(s, d, delta) for s, d in points) for delta in deltas
    }
    assert 0 < report.n_positive_by_horizon[1] < report.n_positive_by_horizon[14]
    assert report.to_dict()["n_positive_by_horizon"] == {
        str(delta): n for delta, n in report.n_positive_by_horizon.items()
    }


def test_evaluate_horizons_auc_equals_auc_of_each_label_set():
    """One shared ranking gives each delta the bits `auc` gives on its own."""
    cohort = generate_cohort(SimConfig(n_students=60, seed=5))
    points = query_points(cohort)
    deltas = list(range(1, 15))

    def rounded(s, d):  # rounding forces ties across students and days
        return round((int(s.student_id[1:]) % 13 + d % 7) / 100.0, 2)

    scores = BatchScorer(rounded).many(points)
    report = evaluate_horizons(BatchScorer(rounded), cohort, deltas)
    defined = 0
    for delta, labels in zip(deltas, horizon_labels(points, deltas)):
        if labels.min() == labels.max():
            assert report.auc_by_horizon[delta] is None
            continue
        assert report.auc_by_horizon[delta] == auc(scores, labels)
        assert abs(report.auc_by_horizon[delta] - auc_bruteforce(scores, labels)) <= 1e-12
        defined += 1
    assert defined > 5


@pytest.mark.parametrize("deltas", [[0], [3, -2, 0]])
def test_evaluate_horizons_refuses_non_positive_delta(small_cohort, deltas):
    scorer = BatchScorer(lambda s, d: 0.5)
    with pytest.raises(ValidationError, match=f"got {[d for d in deltas if d < 1][0]}"):
        evaluate_horizons(scorer, small_cohort, deltas)


def test_eval_report_save_round_trips(tmp_path, small_cohort):
    report = evaluate_horizons(BatchScorer(lambda s, d: 0.5), small_cohort, [30])
    path = tmp_path / "report.json"
    report.save(path)
    raw = json.loads(path.read_text())
    assert raw["auc_by_horizon"]["30"] == report.auc_by_horizon[30]


def rank_scores(scores, fraction):
    """`rank_active` at day 5 of students active on days 1..9, scored from `scores`."""
    cohort = cohort_of(*(student(sid, [obs(1), obs(9)]) for sid in scores))
    return rank_active(BatchScorer(lambda s, d: scores[s.student_id]), cohort, 5, fraction)


def recall_at_fraction(scores, dropouts, fraction):
    """Share of `dropouts` among the top fraction, as daily_flagging counts it."""
    ranked, n_flag = rank_scores(scores, fraction)
    return len(dropouts.intersection(sid for sid, _ in ranked[:n_flag])) / len(dropouts)


def test_recall_at_fraction_hand_case():
    scores = {"e": 0.1, "c": 0.3, "a": 0.9, "d": 0.2, "b": 0.8}
    assert rank_scores(scores, 0.4) == (
        [("a", 0.9), ("b", 0.8), ("c", 0.3), ("d", 0.2), ("e", 0.1)], 2)
    assert recall_at_fraction(scores, {"a", "b"}, 0.4) == 1.0
    assert recall_at_fraction(scores, {"a", "e"}, 0.4) == 0.5
    assert recall_at_fraction(scores, {"e"}, 0.4) == 0.0


def test_recall_ties_break_by_student_id():
    scores = {"c": 0.5, "b": 0.5, "a": 0.5}
    assert rank_scores(scores, 1 / 3) == ([("a", 0.5), ("b", 0.5), ("c", 0.5)], 1)
    assert recall_at_fraction(scores, {"a"}, 1 / 3) == 1.0
    assert recall_at_fraction(scores, {"c"}, 1 / 3) == 0.0


def test_recall_validation():
    for fraction in (0.0, -0.1, 1.5):
        with pytest.raises(ValidationError):
            rank_scores({"a": 1.0}, fraction)


class RecordingScorer:
    """A constant scorer that records each `many` call's points as (id, day)."""

    def __init__(self):
        self.calls = []

    def many(self, points):
        self.calls.append([(s.student_id, d) for s, d in points])
        return np.zeros(len(points))


def test_rank_active_scores_who_is_active_in_one_call(small_cohort):
    """s1 drops out on day 20, s2 completes on day 14, s3 drops out on day 8,
    and s4, last seen on day 7, is ongoing."""
    expected = {0: [], 1: ["s1"], 4: ["s1", "s2", "s3"], 7: ["s1", "s2", "s3", "s4"],
                8: ["s1", "s2", "s4"], 13: ["s1", "s2", "s4"], 14: ["s1", "s4"],
                19: ["s1", "s4"], 20: ["s4"], 500: ["s4"]}
    for day, active in expected.items():
        scorer = RecordingScorer()
        ranked, n_flag = rank_active(scorer, small_cohort, day, 0.5)
        assert scorer.calls == [[(sid, day) for sid in active]]  # one call, in id order
        assert ranked == [(sid, 0.0) for sid in active]
        assert n_flag == -(-len(active) // 2)


def flagging_cohort(n_per_day=10, n_days=4):
    """One dropout per day plus background completers active throughout."""
    students = []
    for i in range(n_per_day * n_days):
        students.append(
            student(f"c{i:03d}", [obs(1), obs(60)], status="completion")
        )
    for j in range(n_days):
        dday = 10 + j
        students.append(
            student(
                f"d{j:03d}",
                [obs(1), obs(dday - 1), obs(dday, kind="dropout_event")],
                status="dropout",
            )
        )
    return cohort_of(*students)


def test_daily_flagging_oracle_reaches_full_recall():
    cohort = flagging_cohort()

    def oracle(student_record, day):
        if student_record.final_status != "dropout":
            return 0.0
        return 1.0 if student_record.last_day == day + 1 else 0.5

    report = daily_flagging(BatchScorer(oracle), cohort, fraction=0.3)
    assert report == {"pooled@0.3": 1.0, "daily_mean@0.3": 1.0}


def test_daily_flagging_antioracle_misses():
    cohort = flagging_cohort()
    report = daily_flagging(
        BatchScorer(lambda s, d: 0.0 if s.final_status == "dropout" else 1.0), cohort, 0.3
    )
    assert report["pooled@0.3"] == 0.0


def test_daily_flagging_counts_four_dropouts_on_four_days():
    """Only d000 ranks above the tied rest, whose flags go to the completers
    by id: one of four dropouts is caught, on one of four days."""
    cohort = flagging_cohort()
    report = daily_flagging(
        BatchScorer(lambda s, d: 1.0 if s.student_id == "d000" else 0.0), cohort, 0.3
    )
    assert report == {"pooled@0.3": 0.25, "daily_mean@0.3": 0.25}


def test_daily_flagging_needs_dropouts():
    completers = cohort_of(student("c", [obs(1), obs(9)], status="completion"))
    assert daily_flagging(BatchScorer(lambda s, d: 0.0), completers, 0.3) == {}
    # a dropout seen only on the day it leaves is never active the day before
    solo = student("d", [obs(9, kind="dropout_event")], status="dropout")
    assert daily_flagging(BatchScorer(lambda s, d: 0.0), cohort_of(solo, *completers), 0.3) == {}


def test_split_students_partition(small_cohort):
    train, test = split_students(small_cohort, 0.5, seed=0)
    assert set(train.students) | set(test.students) == set(small_cohort.students)
    assert not set(train.students) & set(test.students)
    again_train, _ = split_students(small_cohort, 0.5, seed=0)
    assert set(again_train.students) == set(train.students)
    other_train, _ = split_students(small_cohort, 0.5, seed=99)
    # a different seed is allowed to give a different split; sizes must match
    assert len(other_train.students) == len(train.students)


@pytest.mark.parametrize("fraction", [0.0, 1.0, 1.5, -0.1])
def test_split_students_refuses_fraction_outside_open_unit_interval(small_cohort, fraction):
    with pytest.raises(ValidationError):
        split_students(small_cohort, fraction, seed=0)

