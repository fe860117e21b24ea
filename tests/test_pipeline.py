"""End-to-end pipeline training and scoring."""

import dataclasses
import gc
import json
import tracemalloc
import weakref

import numpy as np
import pytest

from atrisk import features as F, pipeline
from atrisk.augmentation import AugmentationConfig
from atrisk.errors import InsufficientDataError, SchemaError, ValidationError
from atrisk.events import Cohort
from atrisk.evaluation import (
    daily_flagging, evaluate_horizons, query_points, rank_active, split_students,
)
from atrisk.features import FeatureSpace
from atrisk.gbdt import GBDTConfig, GBDTModel
from atrisk.pipeline import PipelineConfig, PipelineScorer, run_sweep, train
from atrisk.trainer import SamplerConfig
from atrisk.synthgen import SimConfig, generate_cohort

from conftest import BatchScorer, cohort_known_at, cohort_of, obs, session, student

FAST = PipelineConfig(gbdt=GBDTConfig(n_trees=10, max_depth=2))


@pytest.fixture(scope="module")
def cohort():
    c = generate_cohort(SimConfig(n_students=150, seed=21))
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


@pytest.mark.parametrize("n", [0, 1, 6, 7, 8, 26])  # B = 7: 0, 1, B-1, B, B+1, 3B+5
def test_scorer_many_scores_in_fixed_batches(trained, cohort, monkeypatch, n):
    batch = 7
    points = query_points(cohort)[:n]
    space = trained.scorer.space
    one_call = trained.model.predict_proba(F.assemble(points, space, F.TimelineIndex()))
    calls = {"assemble": 0, "many": 0}
    assemble, many = F.assemble, PipelineScorer.many

    def counted_assemble(*args, **kwargs):
        calls["assemble"] += 1
        return assemble(*args, **kwargs)

    def counted_many(self, points):
        calls["many"] += 1
        return many(self, points)

    monkeypatch.setattr(pipeline, "_SCORE_BATCH", batch)
    monkeypatch.setattr(F, "assemble", counted_assemble)
    monkeypatch.setattr(PipelineScorer, "many", counted_many)
    scores = PipelineScorer(trained.model, space).many(points)
    assert scores.shape == (n,)
    assert scores.tobytes() == one_call.tobytes()
    assert calls == {"assemble": -(-n // batch), "many": 1}


def test_scorer_memory_does_not_grow_with_points(trained, cohort):
    """The traced peak of scoring 4 batches of points stays below 1.5x that of
    scoring one: a scorer's working set is one batch, not the whole call."""
    batch = pipeline._SCORE_BATCH
    points = query_points(cohort)
    points = (points * (4 * batch // len(points) + 1))[: 4 * batch]
    scorer = PipelineScorer(trained.model, trained.scorer.space)
    scorer.many(points)  # index every record before measuring
    peaks = []
    tracemalloc.start()
    try:
        for n in (batch, 4 * batch):
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            scorer.many(points[:n])
            peaks.append(tracemalloc.get_traced_memory()[1] - before)
    finally:
        tracemalloc.stop()
    assert peaks[1] < 1.5 * peaks[0]


@pytest.mark.parametrize("blocks", [(), ("in", "in"), ("time", "out", "time")])
def test_empty_or_repeated_blocks_are_refused(trained, blocks):
    s = trained.scorer.space
    with pytest.raises(ValidationError, match="distinct"):
        PipelineConfig(blocks=blocks)
    with pytest.raises(ValidationError, match="distinct"):
        FeatureSpace(blocks, s.pca, s.hist, s.schema)


def test_scorer_rejects_model_with_other_columns(trained):
    s = trained.scorer.space
    with pytest.raises(SchemaError):
        PipelineScorer(trained.model, FeatureSpace(("time",), s.pca, s.hist, s.schema))


def test_saved_scorer_scores_as_the_trained_one(trained, cohort, tmp_path):
    paths = trained.scorer.save(tmp_path)
    assert [p.name for p in paths] == ["model.json", "feature_space.json"]
    loaded = PipelineScorer.load(tmp_path, cohort)
    assert loaded.model.to_json() == trained.model.to_json()
    assert loaded.space.blocks == trained.scorer.space.blocks
    points = query_points(cohort)[:300]
    assert loaded.many(points).tobytes() == trained.scorer.many(points).tobytes()


def test_load_refuses_unknown_blocks(trained, cohort, tmp_path):
    """Unknown, no and repeated blocks in feature_space.json are refused."""
    space_path = trained.scorer.save(tmp_path)[1]
    space = json.loads(space_path.read_text())
    for blocks, message in [(["in", "weather"], "unknown feature blocks"),
                            ([], "distinct"), (["in", "in"], "distinct")]:
        space["blocks"] = blocks
        space_path.write_text(json.dumps(space))
        with pytest.raises(ValidationError, match=message):
            PipelineScorer.load(tmp_path, cohort)


def test_loaded_scorer_history_is_causal(trained, cohort, tmp_path):
    """A loaded scorer rebuilds teacher history from the cohort it scores;
    what the cohort learns after a point's day does not change the point's score."""
    trained.scorer.save(tmp_path)
    full = PipelineScorer.load(tmp_path, cohort)
    rng = np.random.default_rng(16)
    ids = sorted(cohort.students)
    n_ongoing = 0
    for _ in range(50):
        s = cohort.students[ids[int(rng.integers(len(ids)))]]
        day = int(s.days[int(rng.integers(len(s.days)))])
        known = cohort_known_at(cohort, day)
        n_ongoing += sum(k.final_status == "ongoing" for k in known)
        score = PipelineScorer.load(tmp_path, known).many([(known.students[s.student_id], day)])
        assert score.tobytes() == full.many([(s, day)]).tobytes()
    assert n_ongoing > 0


def test_scorer_is_built_once_per_pipeline(cohort):
    trained = train(cohort, FAST)
    assert trained.scorer is trained.scorer
    alive = weakref.ref(trained)
    gc.disable()
    try:
        del trained  # the scorer holds no cycle back to its pipeline
        assert alive() is None
    finally:
        gc.enable()


def test_scoring_does_not_keep_records_alive():
    """A scorer's index pins the records it has seen, and nothing else does."""
    cohort = generate_cohort(SimConfig(n_students=40, seed=4))
    trained = train(cohort, FAST)
    points = query_points(cohort)
    assert len(trained.scorer.many(points)) == len(points)
    record = weakref.ref(points[0][0])
    del cohort, trained, points
    gc.collect()
    assert record() is None


def test_scorer_index_memory_stays_small(trained):
    """Scoring every query point of a 400-student cohort in daily batches,
    index included, peaks at 1.71 MB (the index itself holds 1.27 MB); a
    per-record timeline cache on top of the index would add about 2.1 MB."""
    big = generate_cohort(SimConfig(n_students=400, seed=0))
    by_day: dict[int, list] = {}
    for s, d in query_points(big):
        by_day.setdefault(d, []).append((s, d))
    tracemalloc.start()
    try:
        scorer = PipelineScorer(trained.model, trained.scorer.space)
        for day in sorted(by_day):
            scorer.many(by_day[day])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.25e6


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
        cohort, PipelineConfig(gbdt=FAST.gbdt, blocks=("time",))
    )
    assert len(only_time.model.feature_names) < len(full.model.feature_names)
    assert all(n.startswith("time_") for n in only_time.model.feature_names)


def test_trained_model_beats_chance_out_of_sample():
    # a larger cohort than the module fixture keeps the held-out AUC stable
    big = generate_cohort(SimConfig(n_students=300, seed=11))
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


def test_fingerprint_is_pinned():
    """The hashed JSON names the blocks "blocks"; reports carry these bytes."""
    assert PipelineConfig().fingerprint() == "8ec84540543c921d"
    assert PipelineConfig(blocks=("time",)).fingerprint() == "991c98fb8780395d"


def test_config_refuses_unknown_blocks():
    with pytest.raises(ValidationError):
        PipelineConfig(blocks=("in", "weather"))


def test_student_order_does_not_change_the_model():
    """A cohort given its students in reversed id order trains the same model."""
    cohort = generate_cohort(SimConfig(n_students=120, seed=7))
    backwards = Cohort(dict(reversed(cohort.students.items())), cohort.schema)
    assert train(backwards, FAST).model.to_json() == train(cohort, FAST).model.to_json()


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


@pytest.mark.parametrize("lookback", [3, 7, 14])
def test_dropout_observed_once_trains(lookback):
    """No day before a student's only observation can be featurized, so a
    dropout observed once adds no pseudo-positive and training goes through."""
    base = generate_cohort(SimConfig(n_students=60, seed=1))
    solo = student("zz", [obs(30, kind="dropout_event")], status="dropout")
    cohort = Cohort(students={**base.students, "zz": solo}, schema=base.schema)
    config = dataclasses.replace(FAST, augmentation=AugmentationConfig(lookback_days=lookback))
    trained = train(cohort, config)
    assert trained.n_pseudo_pairs > 0
    assert all(s is not solo for s, _ in trained.pairs["pseudo_positive"].points)


def test_run_sweep_arm_equals_direct_train_and_evaluate(cohort):
    """An arm trains with the split's seed as its sampler seed, whatever the
    arm's own sampler seed, and reports that run's AUCs and recall bit for bit."""
    report = run_sweep(cohort, {"fast": FAST}, [1, 7], [3], train_fraction=0.7)
    train_cohort, test_cohort = split_students(cohort, 0.7, seed=3)
    config = dataclasses.replace(FAST, sampler=SamplerConfig(seed=3))
    scorer = train(train_cohort, config).scorer
    direct = evaluate_horizons(scorer, test_cohort, [1, 7]).auc_by_horizon
    recall = daily_flagging(scorer, test_cohort, 0.3)["pooled@0.3"]
    assert report["deltas"] == [1, 7] and report["seeds"] == [3]
    expected = {**{str(d): direct[d] for d in (1, 7)}, "recall": recall}
    got = {**report["cells"]["fast"], "recall": report["recall_at_fraction"]["pooled@0.3"]["fast"]}
    for key, value in expected.items():
        assert value is not None
        assert got[key] == {"mean": value, "std": 0.0, "per_seed": [value]}


def gap_cohort():
    """Half the students drop out five days after their last class, so no
    point has a dropout one day ahead and AUC at delta 1 is never defined."""
    students = []
    for i in range(12):
        sessions = [session(d, (i, d, (i * d) % 5, i % 3)) for d in (1, 4, 8)]
        if i % 2:
            students.append(student(f"s{i:02d}", [*sessions, session(20)]))
        else:
            students.append(student(
                f"s{i:02d}", [*sessions, obs(13, kind="dropout_event")], status="dropout"
            ))
    return cohort_of(*students)


def test_run_sweep_arm_without_defined_auc_reports_null(recwarn):
    report = run_sweep(gap_cohort(), {"fast": FAST}, [1, 40], [0, 1], train_fraction=0.5)
    cell = report["cells"]["fast"]
    assert cell["1"] == {"mean": None, "std": None, "per_seed": [None, None]}
    assert cell["40"]["mean"] is not None
    assert None not in cell["40"]["per_seed"]
    assert not [w for w in recwarn.list if issubclass(w.category, RuntimeWarning)]


def test_run_sweep_split_without_test_dropout_reports_null_recall(cohort, recwarn):
    _, test_cohort = split_students(cohort, 0.98, seed=0)
    assert {s.final_status for s in test_cohort} == {"completion"}
    report = run_sweep(cohort, {"fast": FAST}, [1], [0], train_fraction=0.98)
    null = {"mean": None, "std": None, "per_seed": [None]}
    assert report["recall_at_fraction"] == {"pooled@0.3": {"fast": null}}
    assert report["cells"]["fast"]["1"] == null
    assert not [w for w in recwarn.list if issubclass(w.category, RuntimeWarning)]


def test_run_sweep_requires_seeds(cohort):
    with pytest.raises(ValidationError):
        run_sweep(cohort, {"fast": FAST}, [1], [])


def test_run_sweep_refuses_a_bad_seed_before_training(cohort, monkeypatch):
    trainings = []
    real_train = pipeline.train

    def counted_train(*args, **kwargs):
        trainings.append(1)
        return real_train(*args, **kwargs)

    monkeypatch.setattr(pipeline, "train", counted_train)
    with pytest.raises(ValidationError):
        run_sweep(cohort, {"fast": FAST, "none": dataclasses.replace(
            FAST, augmentation=AugmentationConfig(lookback_days=None))}, [1], [0, -1])
    assert trainings == []


def day_before_recall(scorer, cohort, days, fraction=0.3):
    """Flag the top `fraction` of the active students on each of `days`; of the
    dropouts active on a day d who leave on d+1, the share flagged on d."""
    hits = total = 0
    for day in days:
        ranked, n_flag = rank_active(scorer, cohort, day, fraction)
        leaving = {s.student_id for s in cohort if s.final_status == "dropout"
                   and s.first_day <= day and s.last_day == day + 1}
        hits += len(leaving.intersection(sid for sid, _ in ranked[:n_flag]))
        total += len(leaving)
    return hits / total


def test_online_flagging_detects_most_dropouts_the_day_before(tmp_path):
    """The paper's online experiment: train on the log known at day 60, then
    flag the top 30% of the active students every day for two months. The
    paper detects more than 70% of dropouts; so must every cohort here, and
    more than a seeded random ranking of the same days."""
    window = range(61, 121)
    for seed in range(10):
        full = generate_cohort(SimConfig(n_students=500, seed=seed))
        known = train(cohort_known_at(full, 60),
                      PipelineConfig(gbdt=GBDTConfig(n_trees=80, max_depth=2)))
        known.scorer.save(tmp_path)
        recall = day_before_recall(PipelineScorer.load(tmp_path, full), full, window)
        rng = np.random.default_rng(seed)
        chance = day_before_recall(BatchScorer(lambda s, d: rng.random()), full, window)
        assert recall >= 0.70 and recall > chance, (seed, recall, chance)
