"""Synthetic cohort generator: calibration, determinism, truth consistency."""

import json

import numpy as np
import pytest

from atrisk.errors import CalibrationError, ValidationError
from atrisk.events import ingest
from atrisk.synthgen import (
    INCLASS_COLUMNS,
    OUTCLASS_COLUMNS,
    SimConfig,
    generate,
    generate_cohort,
)


@pytest.fixture(scope="module")
def generated():
    return generate_cohort(SimConfig(n_students=300, seed=11))


def test_dropout_rate_calibrated(generated):
    cohort, _, _ = generated
    n_drop = sum(1 for s in cohort if s.final_status == "dropout")
    assert abs(n_drop / len(cohort) - 0.1616) <= 0.02


def test_all_students_resolved_with_valid_structure(generated):
    cohort, _, _ = generated
    assert len(cohort) == 300
    for s in cohort:
        assert s.final_status in {"dropout", "completion"}
        assert s.days == tuple(sorted(set(s.days)))
        if s.final_status == "dropout":
            assert s.observations[-1].kind == "dropout_event"
        assert s.observations[0].day >= 1


def test_truth_records_match_cohort(generated):
    cohort, truth, _ = generated
    by_sid = {t["student"]: t for t in truth}
    for s in cohort:
        t = by_sid[s.student_id]
        if s.final_status == "dropout":
            assert t["dropout_day"] == s.last_day
        else:
            assert t["dropout_day"] is None


def test_hazard_probabilities_valid(generated):
    _, truth, alpha = generated
    assert np.isfinite(alpha)
    some = [t for t in truth if t["hazard"]][:20]
    assert some
    for t in some:
        days = [d for d, _ in t["hazard"]]
        probs = [p for _, p in t["hazard"]]
        assert days == sorted(days)
        assert all(0.0 <= p <= 1.0 for p in probs)


def test_generation_is_deterministic(tmp_path):
    cfg = SimConfig(n_students=60, seed=5)
    a = generate(cfg, tmp_path / "a")
    b = generate(cfg, tmp_path / "b")
    for key in ("events", "schema", "truth"):
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
    truth_lines = paths["truth"].read_text().strip().splitlines()
    header = json.loads(truth_lines[0])
    assert header["config_seed"] == 5
    assert len(truth_lines) == 61


def test_unreachable_target_raises():
    with pytest.raises(CalibrationError):
        # one student realizes a rate of 0 or 1, never within 0.02 of 0.5
        generate_cohort(SimConfig(n_students=1, target_dropout_rate=0.5))


def test_config_validation():
    with pytest.raises(ValidationError):
        SimConfig(target_dropout_rate=0.0)
    with pytest.raises(ValidationError):
        SimConfig(mean_span_days=3)


def test_mean_span_in_expected_range(generated):
    cohort, _, _ = generated
    spans = [s.last_day - s.first_day for s in cohort if s.final_status == "completion"]
    assert 50 <= np.mean(spans) <= 120  # centered on the configured 86-day mean
