"""Synthetic cohort generator: calibration, determinism, consistency with its plan."""

import hashlib
import math
from dataclasses import replace

import numpy as np
import pytest

from atrisk import synthgen
from atrisk.errors import CalibrationError, ValidationError
from atrisk.events import ingest, write_events
from atrisk.synthgen import (
    CLASS_GAP_DAYS,
    INCLASS_COLUMNS,
    MAX_MEAN_SPAN_DAYS,
    MIN_SPAN_DAYS,
    N_TEACHERS,
    OUTCLASS_COLUMNS,
    SKIP_GAP_DAYS,
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
    alpha, drops = _calibrate_alpha(_HazardTable(planned), COHORT_CONFIG)
    assert [t.student_id for t in planned] == list(cohort.students)
    for traj, drop in zip(planned, drops.tolist(), strict=True):
        student = cohort.students[traj.student_id]
        assert drop == (student.final_status == "dropout")
        assert _dropout_day(traj, alpha) == (student.last_day if drop else None)


def test_generate_cohort_walks_the_hazard_days_of_dropouts_only(monkeypatch):
    """After calibration, only the students the table marks walk their hazard
    days; the scalar walks inside `drops` are its guard-band decisions."""
    walked, in_table = [], []
    table_drops = _HazardTable.drops

    def drops(table, alpha):
        in_table.append(alpha)
        try:
            return table_drops(table, alpha)
        finally:
            in_table.pop()

    def dropout_day(traj, alpha):
        if not in_table:
            walked.append(traj.student_id)
        return _dropout_day(traj, alpha)

    monkeypatch.setattr(_HazardTable, "drops", drops)
    monkeypatch.setattr(synthgen, "_dropout_day", dropout_day)
    cohort = generate_cohort(SimConfig(n_students=400, seed=0))
    assert walked == [s.student_id for s in cohort if s.final_status == "dropout"]
    assert len(walked) == 65


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
    re-ingest of the file it wrote; the re-ingested cohort writes the same bytes."""
    cohort = generate_cohort(SimConfig(n_students=n_students, seed=seed))
    paths = write_cohort(tmp_path, cohort)
    write_events(ingest(paths["events"], paths["schema"]), tmp_path / "again.jsonl")
    assert (tmp_path / "again.jsonl").read_bytes() == paths["events"].read_bytes()


def test_mean_span_in_expected_range(cohort):
    spans = [s.last_day - s.first_day for s in cohort if s.final_status == "completion"]
    assert 50 <= np.mean(spans) <= 120  # centered on the configured 86-day mean


# sha256 of (events.jsonl, schema.json) per config.
GOLDEN_SHA256 = {
    SimConfig(n_students=60, seed=5): (
        "42a1994b96f5c889292b18e0df75cb690a2b2d85729e3ab79089ce38b0c8b382",
        "9b533a63f69769ba5350cdfe5fb1ddbf884d157baa26f1a5754ac21d6ee70edb",
    ),
    SimConfig(n_students=400, seed=0): (
        "43098e9393f4427c70940801976e389579df5d2afe5cb7dafb4ec8dbf8207882",
        "9b533a63f69769ba5350cdfe5fb1ddbf884d157baa26f1a5754ac21d6ee70edb",
    ),
    # Short spans: about half the span draws fall below the clip floor.
    SimConfig(n_students=200, seed=3, mean_span_days=21): (
        "893a4154868c803ab4995435e4a936682a1a1ba0a377e115ac55ca5b4f9d5e64",
        "9b533a63f69769ba5350cdfe5fb1ddbf884d157baa26f1a5754ac21d6ee70edb",
    ),
    # Long spans and a high dropout target: many planted declines.
    SimConfig(n_students=150, seed=9, target_dropout_rate=0.3, mean_span_days=200): (
        "a473935367763258d6664f11a315cd28b13a8e169302ff934d01f9008981e37c",
        "9b533a63f69769ba5350cdfe5fb1ddbf884d157baa26f1a5754ac21d6ee70edb",
    ),
}


def config_id(cfg):
    """`n-seed`, then each field that differs from its default."""
    default = SimConfig()
    extra = [f"{name}={getattr(cfg, name)}" for name in ("mean_span_days", "target_dropout_rate")
             if getattr(cfg, name) != getattr(default, name)]
    return "-".join([str(cfg.n_students), str(cfg.seed), *extra])


@pytest.mark.parametrize("cfg", list(GOLDEN_SHA256), ids=config_id)
def test_generated_bytes_are_pinned(tmp_path, cfg):
    """The generator writes the bytes it wrote before its draws were rewritten.

    The (60, 5) and (400, 0) hashes were computed at commit 86131d5, before
    the dropout count of each calibration step was vectorised; the (400,
    seed 0) cohort is the score_daily benchmark's seed-0 input. The other two
    were computed at commit 5334550, before the scalar draws moved to
    `random()` and `standard_normal()`.
    """
    paths = generate(cfg, tmp_path)
    digests = tuple(
        hashlib.sha256(paths[key].read_bytes()).hexdigest()
        for key in ("events", "schema")
    )
    assert digests == GOLDEN_SHA256[cfg]


def final_survival(traj, alpha):
    """The scalar loop's survival after every hazard day, in its arithmetic."""
    survival = 1.0
    for z in traj.hazard_z.tolist():
        survival *= 1.0 - 1.0 / (1.0 + math.exp(-(alpha + z)))
    return survival


@pytest.mark.parametrize("seed", [0, 3, 8])
def test_vectorised_dropout_count_equals_scalar_count(seed):
    """The table decides each student as the scalar loop does, so it also
    counts the dropouts the scalar loop counts."""
    cfg = SimConfig(n_students=80, seed=seed)
    planned = _plan_cohort(cfg)
    alpha, _ = _calibrate_alpha(_HazardTable(planned), cfg)
    # A uniform exactly at the final cumulative dropout probability: margin 0,
    # so the scalar fallback decides it (a dropout, since the test is >=).
    at_risk = next(t for t in planned if 0.0 < final_survival(t, alpha) < 1.0)
    edge = replace(at_risk, uniform=1.0 - final_survival(at_risk, alpha))
    assert _dropout_day(edge, alpha) is not None
    trajectories = [*planned[:5], edge, *planned[5:]]
    table = _HazardTable(trajectories)
    for a in (-20.0, -10.0, -8.0, np.nextafter(alpha, -np.inf), alpha,
              np.nextafter(alpha, np.inf), -5.0, 0.0, 5.0):
        scalar = [_dropout_day(t, a) is not None for t in trajectories]
        assert table.drops(a).tolist() == scalar, a


def test_no_gap_before_a_first_class_reaches_the_shortest_span():
    """The first class comes at most a class gap plus a skip after the start,
    which is inside every span; so every student has a class to follow."""
    assert CLASS_GAP_DAYS[1] + SKIP_GAP_DAYS[1] < MIN_SPAN_DAYS


def planned_span(cfg, idx):
    """Student `idx`'s first day and span end, replayed from its first draws."""
    rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, idx]))
    rng.standard_normal(), rng.integers(0, N_TEACHERS)
    start = int(rng.integers(1, 41))
    mean = cfg.mean_span_days
    span = int(min(max(rng.normal(mean, mean * 0.25), MIN_SPAN_DAYS), 2 * mean))
    return start, start + span


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
def test_hazard_days_run_from_the_first_class_to_the_span_end(seed):
    """At the shortest spans, every planned student has hazard days: from the
    day after its first class to the last day of its span."""
    cfg = SimConfig(n_students=200, seed=seed, mean_span_days=MIN_SPAN_DAYS)
    for idx, traj in enumerate(_plan_cohort(cfg)):
        start, end = planned_span(cfg, idx)
        assert min(traj.events) == start
        first_class = min(d for d, o in traj.events.items() if o.kind == "class_session")
        assert traj.risk_day == first_class + 1
        assert traj.hazard_z.dtype == np.float64 and traj.hazard_z.size > 0
        assert traj.risk_day + traj.hazard_z.size - 1 == end


@pytest.mark.parametrize("seed", [0, 1, 7, 12345])
def test_cheap_draws_equal_numpys_own(seed):
    """`random()` is `uniform()` and `0.0 + s * standard_normal()` is
    `normal(0, s)`, bit for bit and from the same stream position, at every
    scale the simulator draws at. A numpy that changes either formula fails
    here first, not at a pinned digest."""
    plain, cheap = np.random.default_rng(seed), np.random.default_rng(seed)

    def same_bits(want_draw, got_draw, n=2_000):
        want = np.array([want_draw() for _ in range(n)])
        got = np.array([got_draw() for _ in range(n)])
        return want.tobytes() == got.tobytes()

    assert same_bits(plain.uniform, cheap.random)
    assert plain.bit_generator.state == cheap.bit_generator.state
    for scale in (0.1, 0.5, 0.6, 0.7, 1.0):
        assert same_bits(lambda: plain.normal(0, scale),
                         lambda: 0.0 + scale * cheap.standard_normal()), scale
        assert plain.bit_generator.state == cheap.bit_generator.state
    assert same_bits(plain.normal, lambda: 0.0 + 1.0 * cheap.standard_normal())
    assert plain.bit_generator.state == cheap.bit_generator.state
