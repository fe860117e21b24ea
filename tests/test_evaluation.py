"""AUC against the pair-counting oracle, flagging recall, sweeps."""

import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from atrisk.errors import UndefinedMetricError, ValidationError
from atrisk.evaluation import (
    SweepCell,
    SweepReport,
    auc,
    auc_bruteforce,
    daily_flagging,
    evaluate_horizons,
    flag_top,
    query_points,
    run_sweep,
    split_students,
)

from conftest import BatchScorer, cohort_of, obs, student


def test_auc_hand_value():
    scores = [0.1, 0.4, 0.35, 0.8]
    labels = [0, 0, 1, 1]
    assert auc(scores, labels) == pytest.approx(0.75)


def test_auc_perfect_and_inverted():
    assert auc([0.1, 0.2, 0.8, 0.9], [0, 0, 1, 1]) == 1.0
    assert auc([0.9, 0.8, 0.2, 0.1], [0, 0, 1, 1]) == 0.0


def test_auc_all_tied_is_half():
    assert auc([0.5] * 6, [0, 1, 0, 1, 0, 1]) == pytest.approx(0.5)


def test_auc_single_class_raises():
    with pytest.raises(UndefinedMetricError):
        auc([0.1, 0.2], [1, 1])
    with pytest.raises(UndefinedMetricError):
        auc_bruteforce([0.1, 0.2], [0, 0])


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


def test_eval_report_save_round_trips(tmp_path, small_cohort):
    report = evaluate_horizons(BatchScorer(lambda s, d: 0.5), small_cohort, [30])
    path = tmp_path / "report.json"
    report.save(path)
    raw = json.loads(path.read_text())
    assert raw["auc_by_horizon"]["30"] == report.auc_by_horizon[30]


def recall_at_fraction(scores, dropouts, fraction):
    """Share of `dropouts` among the top fraction, as daily_flagging counts it."""
    return len(flag_top(scores, fraction) & dropouts) / len(dropouts)


def test_recall_at_fraction_hand_case():
    scores = {"a": 0.9, "b": 0.8, "c": 0.3, "d": 0.2, "e": 0.1}
    assert flag_top(scores, 0.4) == {"a", "b"}
    assert recall_at_fraction(scores, {"a", "b"}, 0.4) == 1.0
    assert recall_at_fraction(scores, {"a", "e"}, 0.4) == 0.5
    assert recall_at_fraction(scores, {"e"}, 0.4) == 0.0


def test_recall_ties_break_by_student_id():
    scores = {"a": 0.5, "b": 0.5, "c": 0.5}
    assert recall_at_fraction(scores, {"a"}, 1 / 3) == 1.0
    assert recall_at_fraction(scores, {"c"}, 1 / 3) == 0.0


def test_recall_validation():
    for fraction in (0.0, -0.1, 1.5):
        with pytest.raises(ValidationError):
            flag_top({"a": 1.0}, fraction)


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
    assert report.pooled_recall == 1.0
    assert report.daily_mean_recall == 1.0
    assert report.n_dropouts == 4


def test_daily_flagging_antioracle_misses():
    cohort = flagging_cohort()
    report = daily_flagging(
        BatchScorer(lambda s, d: 0.0 if s.final_status == "dropout" else 1.0), cohort, 0.3
    )
    assert report.pooled_recall == 0.0


def test_daily_flagging_needs_dropouts():
    completers = cohort_of(student("c", [obs(1), obs(9)], status="completion"))
    with pytest.raises(UndefinedMetricError):
        daily_flagging(BatchScorer(lambda s, d: 0.0), completers, 0.3)


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


def test_run_sweep_single_cell_matches_direct_call(small_cohort):
    cohort = flagging_cohort()
    cell = SweepCell(lookback=7, weighting="convex", blocks=("in", "out", "time"))

    def train_cell(train_cohort, c, seed):
        return BatchScorer(lambda s, d: float(s.final_status == "dropout"))

    report = run_sweep(cohort, [cell], [5], [0], train_cell, train_fraction=0.5)
    train_cohort, test_cohort = split_students(cohort, 0.5, 0)
    direct = evaluate_horizons(train_cell(train_cohort, cell, 0), test_cohort, [5])
    assert report.cells[cell.key][5] == [direct.auc_by_horizon[5]]
    assert report.mean_auc(cell.key, 5) == direct.auc_by_horizon[5]


def test_sweep_report_save_csv(tmp_path):
    cohort = flagging_cohort()
    cells = [
        SweepCell(lookback=None, weighting="convex", blocks=("in",)),
        SweepCell(lookback=7, weighting="linear", blocks=("in", "out")),
    ]

    def train_cell(train_cohort, c, seed):
        return BatchScorer(lambda s, d: float(s.final_status == "dropout"))

    report = run_sweep(cohort, cells, [5, 40], [0, 1], train_cell, 0.5)
    jpath, cpath = tmp_path / "sweep.json", tmp_path / "sweep.csv"
    report.save(jpath)
    report.save_csv(cpath)
    raw = json.loads(jpath.read_text())
    assert set(raw["cells"]) == {c.key for c in cells}
    lines = cpath.read_text().strip().splitlines()
    assert lines[0] == "cell,delta,mean_auc,std_auc,n_seeds"
    assert len(lines) == 1 + len(cells) * 2


def test_sweep_report_cell_without_defined_auc(tmp_path, recwarn):
    """Every summary of a cell with no defined AUC agrees that it has none."""
    report = SweepReport(
        deltas=[1, 7], seeds=[0, 1], cells={"a": {1: [None, None], 7: [0.75, None]}}
    )
    for statistic in (report.mean_auc, report.std_auc):
        with pytest.raises(UndefinedMetricError):
            statistic("a", 1)
    assert report.mean_auc("a", 7) == 0.75
    assert report.std_auc("a", 7) == 0.0
    cells = report.to_dict()["cells"]["a"]
    assert cells["1"] == {"mean": None, "std": None, "per_seed": [None, None]}
    assert cells["7"] == {"mean": 0.75, "std": 0.0, "per_seed": [0.75, None]}
    report.save_csv(tmp_path / "r.csv")
    assert (tmp_path / "r.csv").read_text().splitlines()[1:] == [
        "a,1,,,0", "a,7,0.750000,0.000000,1"
    ]
    assert not recwarn.list


def test_run_sweep_requires_seeds(small_cohort):
    with pytest.raises(ValidationError):
        run_sweep(small_cohort, [], [1], [], lambda *a: None)
