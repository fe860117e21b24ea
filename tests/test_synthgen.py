"""Synthetic cohort generator: calibration, determinism, consistency with its plan."""

import hashlib
import math
from dataclasses import replace

import numpy as np
import pytest

from atrisk.errors import CalibrationError, ValidationError
from atrisk.events import cohort_stats, ingest
from atrisk.synthgen import (
    INCLASS_COLUMNS,
    MAX_MEAN_SPAN_DAYS,
    MIN_SPAN_DAYS,
    OUTCLASS_COLUMNS,
    SimConfig,
    _calibrate_alpha,
    _dropout_day,
    _HazardTable,
    _plan_cohort,
    generate,
    generate_cohort,
    write_cohort,
)


COHORT_CONFIG = SimConfig(n_students=300, seed=11)


@pytest.fixture(scope="module")
def cohort():
    return generate_cohort(COHORT_CONFIG)


def test_dropout_rate_calibrated(cohort):
    n_drop = sum(1 for s in cohort if s.final_status == "dropout")
    assert abs(n_drop / len(cohort) - 0.1616) <= 0.02


def test_all_students_resolved_with_valid_structure(cohort):
    assert len(cohort) == 300
    for s in cohort:
        assert s.final_status in {"dropout", "completion"}
        assert s.days == tuple(sorted(set(s.days)))
        if s.final_status == "dropout":
            assert s.observations[-1].kind == "dropout_event"
        assert s.observations[0].day >= 1


def test_dropout_days_match_the_plan(cohort):
    """Each student drops out on the day its planned hazard draw crosses its
    uniform, at the calibrated intercept, and a completer's never crosses."""
    planned = _plan_cohort(COHORT_CONFIG)
    alpha = _calibrate_alpha(planned, COHORT_CONFIG)
    assert [t.student_id for t in planned] == list(cohort.students)
    for traj in planned:
        student = cohort.students[traj.student_id]
        if student.final_status == "dropout":
            assert _dropout_day(traj, alpha) == student.last_day
        else:
            assert _dropout_day(traj, alpha) is None


def test_generation_is_deterministic(tmp_path):
    cfg = SimConfig(n_students=60, seed=5)
    a = generate(cfg, tmp_path / "a")
    b = generate(cfg, tmp_path / "b")
    for key in ("events", "schema"):
        assert a[key].read_bytes() == b[key].read_bytes()


def test_different_seeds_differ(tmp_path):
    a = generate(SimConfig(n_students=60, seed=5), tmp_path / "a")
    b = generate(SimConfig(n_students=60, seed=6), tmp_path / "b")
    assert a["events"].read_bytes() != b["events"].read_bytes()


def test_generated_files_ingest_cleanly(tmp_path):
    paths = generate(SimConfig(n_students=60, seed=5), tmp_path)
    cohort = ingest(paths["events"], paths["schema"])
    assert len(cohort) == 60
    assert cohort.schema.inclass_columns == INCLASS_COLUMNS
    assert cohort.schema.outclass_columns == OUTCLASS_COLUMNS


def test_unreachable_target_raises():
    with pytest.raises(CalibrationError):
        # one student realizes a rate of 0 or 1, never within 0.02 of 0.5
        generate_cohort(SimConfig(n_students=1, target_dropout_rate=0.5))


def test_config_validation():
    with pytest.raises(ValidationError):
        SimConfig(target_dropout_rate=0.0)
    for mean in (3, 10, MIN_SPAN_DAYS - 1):  # below 10.5 the span clip would be empty
        with pytest.raises(ValidationError, match="at least 21"):
            SimConfig(mean_span_days=mean)
    with pytest.raises(ValidationError):
        SimConfig(mean_span_days=MAX_MEAN_SPAN_DAYS + 1)
    with pytest.raises(ValidationError):
        SimConfig(seed=-1)
    SimConfig(mean_span_days=MAX_MEAN_SPAN_DAYS, seed=0)
    SimConfig(mean_span_days=MIN_SPAN_DAYS)


@pytest.mark.parametrize("n_students,seed", [(60, 1), (120, 7), (500, 0)])
def test_in_memory_cohort_stats_equal_ingested_ones(tmp_path, n_students, seed):
    """`atrisk simulate` reports the stats of the cohort it built, not of a
    re-ingest of the file it wrote; both must be the same."""
    cohort = generate_cohort(SimConfig(n_students=n_students, seed=seed))
    paths = write_cohort(tmp_path, cohort)
    assert cohort_stats(cohort) == cohort_stats(ingest(paths["events"], paths["schema"]))


def test_mean_span_in_expected_range(cohort):
    spans = [s.last_day - s.first_day for s in cohort if s.final_status == "completion"]
    assert 50 <= np.mean(spans) <= 120  # centered on the configured 86-day mean


# sha256 of (events.jsonl, schema.json) per (n_students, seed).
GOLDEN_SHA256 = {
    (60, 5): (
        "42a1994b96f5c889292b18e0df75cb690a2b2d85729e3ab79089ce38b0c8b382",
        "9b533a63f69769ba5350cdfe5fb1ddbf884d157baa26f1a5754ac21d6ee70edb",
    ),
    (400, 0): (
        "43098e9393f4427c70940801976e389579df5d2afe5cb7dafb4ec8dbf8207882",
        "9b533a63f69769ba5350cdfe5fb1ddbf884d157baa26f1a5754ac21d6ee70edb",
    ),
}


@pytest.mark.parametrize("n_students,seed", sorted(GOLDEN_SHA256))
def test_generated_bytes_are_pinned(tmp_path, n_students, seed):
    """The generator writes the bytes it wrote at commit 86131d5.

    Both hashes were computed at that commit, before the dropout count of each
    calibration step was vectorised. The (400, seed 0) cohort is the
    score_daily benchmark's seed-0 input.
    """
    paths = generate(SimConfig(n_students=n_students, seed=seed), tmp_path)
    digests = tuple(
        hashlib.sha256(paths[key].read_bytes()).hexdigest()
        for key in ("events", "schema")
    )
    assert digests == GOLDEN_SHA256[(n_students, seed)]


def scalar_count(trajectories, alpha):
    return sum(_dropout_day(t, alpha) is not None for t in trajectories)


def final_survival(traj, alpha):
    """The scalar loop's survival after every hazard day, in its arithmetic."""
    survival = 1.0
    for d in sorted(traj.hazard_z):
        survival *= 1.0 - 1.0 / (1.0 + math.exp(-(alpha + traj.hazard_z[d])))
    return survival


@pytest.mark.parametrize("seed", [0, 3, 8])
def test_vectorised_dropout_count_equals_scalar_count(seed):
    cfg = SimConfig(n_students=80, seed=seed)
    planned = _plan_cohort(cfg)
    alpha = _calibrate_alpha(planned, cfg)
    # No hazard days: never a dropout, even with uniform 0.
    silent = replace(planned[5], hazard_z={}, uniform=0.0)
    # A uniform exactly at the final cumulative dropout probability: margin 0,
    # so the scalar fallback decides it (a dropout, since the test is >=).
    at_risk = next(t for t in planned if 0.0 < final_survival(t, alpha) < 1.0)
    edge = replace(at_risk, uniform=1.0 - final_survival(at_risk, alpha))
    assert _dropout_day(edge, alpha) is not None
    trajectories = [*planned[:5], silent, edge, *planned[5:], silent]
    table = _HazardTable(trajectories)
    for a in (-20.0, -10.0, -8.0, np.nextafter(alpha, -np.inf), alpha,
              np.nextafter(alpha, np.inf), -5.0, 0.0, 5.0):
        assert table.count(a) == scalar_count(trajectories, a), a
    assert _HazardTable([silent, silent]).count(5.0) == 0
