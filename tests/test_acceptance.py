"""Acceptance gate: eight criteria, each with pinned tolerances and budgets.

Every test prints one `ACCEPTANCE <id>: PASS|FAIL ...` line (with capture
suspended so it survives pytest's output swallowing) and asserts the same
condition, so the gate verdict is readable from any run's output.
"""

import time

import numpy as np
import pytest

from atrisk import pipeline
from atrisk.augmentation import AugmentationConfig, augment
from atrisk.cli import EXIT_OK, main as cli_main
from atrisk.evaluation import (
    auc,
    auc_bruteforce,
    daily_flagging,
    evaluate_horizons,
    split_students,
)
from atrisk.events import StudentRecord
from atrisk.features import FeatureConfig, assemble, build_teacher_history, fit_pca
from atrisk.gbdt import GBDTConfig, GBDTModel, fit as gbdt_fit
from atrisk.pipeline import PipelineConfig, train
from atrisk.synthgen import SimConfig, generate_cohort
from atrisk.trainer import SamplerConfig, oversample
from atrisk.labeling import TrainingPair


def verdict(capsys, criterion, ok, detail=""):
    line = f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} {detail}".rstrip()
    with capsys.disabled():
        print(line, flush=True)
    assert ok, line


# --- 1. augmentation exactness -------------------------------------------------

G_REFERENCE = {
    "linear": lambda u: 1.0 - u,
    "convex": lambda u: (1.0 - u) ** 2,
    "concave": lambda u: 1.0 - u * u,
}


def test_criterion_1_augmentation_exactness(capsys):
    t0 = time.perf_counter()
    cohort, _, _ = generate_cohort(SimConfig(n_students=50, seed=1))
    dropouts = [s for s in cohort if s.final_status == "dropout"]
    assert dropouts
    max_weight_err = 0.0
    counts_ok = True
    for lam in (3, 7, 14):
        expected = 0
        for s in dropouts:
            t_n = s.days[-1]
            prev = s.days[-2] if len(s.days) >= 2 else 0
            expected += max(0, t_n - max(prev, t_n - lam) - 1)
        for weighting, g in G_REFERENCE.items():
            pairs = augment(
                cohort, AugmentationConfig(lookback_days=lam, weighting=weighting)
            )
            counts_ok &= len(pairs) == expected
            last_day = {s.student_id: s.days[-1] for s in dropouts}
            for p in pairs:
                u = (last_day[p.student_id] - p.day) / lam
                max_weight_err = max(max_weight_err, abs(p.weight - g(u)))
    elapsed = time.perf_counter() - t0
    ok = counts_ok and max_weight_err <= 1e-12 and elapsed < 1.0
    verdict(
        capsys,
        1, ok,
        f"counts exact, max weight err {max_weight_err:.2e} <= 1e-12, "
        f"{elapsed:.2f}s < 1s",
    )


# --- 2. AUC oracle equivalence -------------------------------------------------


def test_criterion_2_auc_oracle_equivalence(capsys):
    t0 = time.perf_counter()
    rng = np.random.default_rng(2026)
    max_err = 0.0
    for _ in range(1000):
        n = int(rng.integers(2, 201))
        scores = np.round(rng.normal(size=n), 1)  # coarse grid forces ties
        labels = rng.integers(0, 2, size=n)
        if labels.min() == labels.max():
            labels[0] = 1 - labels[0]
        max_err = max(max_err, abs(auc(scores, labels) - auc_bruteforce(scores, labels)))
    elapsed = time.perf_counter() - t0
    ok = max_err <= 1e-12 and elapsed < 5.0
    verdict(capsys, 2, ok, f"1000 sets, max |diff| {max_err:.2e} <= 1e-12, {elapsed:.2f}s < 5s")


# --- 3. GBDT correctness -------------------------------------------------------


def staged_losses(model, X, y, w):
    losses = []
    for k in range(len(model.trees) + 1):
        partial = GBDTModel(model.base_score, model.trees[:k],
                            model.feature_names, model.config)
        p = np.clip(partial.predict_proba(X), 1e-15, 1 - 1e-15)
        losses.append(float(np.sum(w * -(y * np.log(p) + (1 - y) * np.log(1 - p)))
                            / np.sum(w)))
    return losses


def test_criterion_3_gbdt_correctness(capsys):
    t0 = time.perf_counter()
    rng = np.random.default_rng(3)
    worst_increase = -np.inf
    for _ in range(20):
        n = int(rng.integers(30, 120))
        X = rng.normal(size=(n, 3))
        y = (X[:, 0] + 0.5 * rng.normal(size=n) > 0).astype(float)
        if y.min() == y.max():
            y[0] = 1 - y[0]
        w = rng.uniform(0.2, 2.0, size=n)
        model = gbdt_fit(X, y, w, GBDTConfig(n_trees=15, max_depth=3))
        losses = staged_losses(model, X, y, w)
        worst_increase = max(worst_increase, float(np.max(np.diff(losses))))
    monotone_ok = worst_increase <= 1e-9

    X = np.linspace(-1, 1, 40).reshape(-1, 1)
    y = (X[:, 0] > 0).astype(float)
    sep = gbdt_fit(X, y, None, GBDTConfig(n_trees=5, max_depth=2))
    separable_ok = auc(sep.predict_proba(X), y) == 1.0

    Xr = rng.normal(size=(25, 2))
    yr = rng.integers(0, 2, size=25).astype(float)
    yr[0], yr[1] = 0.0, 1.0
    wr = rng.uniform(0.5, 1.5, size=25)
    empty = gbdt_fit(Xr, yr, wr, GBDTConfig(n_trees=0))
    frac = float(np.sum(wr * yr) / np.sum(wr))
    base_ok = bool(np.all(np.abs(empty.predict_proba(Xr) - frac) <= 1e-12))

    full = gbdt_fit(Xr, yr, wr, GBDTConfig(n_trees=12, max_depth=3))
    reloaded = GBDTModel.from_json(full.to_json())
    roundtrip_ok = (
        full.predict_proba(Xr).tobytes() == reloaded.predict_proba(Xr).tobytes()
    )
    elapsed = time.perf_counter() - t0
    ok = monotone_ok and separable_ok and base_ok and roundtrip_ok and elapsed < 30.0
    verdict(
        capsys,
        3, ok,
        f"loss increase max {worst_increase:.2e} <= 1e-9, separable AUC 1.0 "
        f"in 5 trees: {separable_ok}, base-score exact: {base_ok}, "
        f"round-trip bit-identical: {roundtrip_ok}, {elapsed:.2f}s < 30s",
    )


# --- 4. oversampler statistics -------------------------------------------------


def test_criterion_4_oversampler_statistics(capsys):
    t0 = time.perf_counter()
    heavy = TrainingPair("a", 10, 1, 1.0, "original_positive")
    light = TrainingPair("b", 5, 1, 0.25, "pseudo_positive")
    negatives = [
        TrainingPair(f"n{d}", d, 0, 1.0, "original_negative")
        for d in range(1, 23_335)
    ]
    out = oversample([heavy], [light], negatives, SamplerConfig(seed=4))
    drawn = [p for p in out if p.label == 1]
    n = len(drawn)
    frac = n / len(out)
    frac_ok = abs(frac - 0.3) <= 1.0 / len(out)
    p_a = 1.0 / 1.25  # weight 1.0 vs 0.25 -> 4:1 draw odds
    share_a = sum(1 for p in drawn if p.student_id == "a") / n
    se = float(np.sqrt(p_a * (1 - p_a) / n))
    ratio_ok = abs(share_a - p_a) <= 3 * se
    elapsed = time.perf_counter() - t0
    ok = n >= 9_000 and frac_ok and ratio_ok and elapsed < 2.0
    verdict(
        capsys,
        4, ok,
        f"{n} draws, positive fraction {frac:.4f} within 1/n of 0.3, "
        f"heavy share {share_a:.4f} within 3se={3 * se:.4f} of {p_a:.1f}, "
        f"{elapsed:.2f}s < 2s",
    )


# --- 5. causality / no leakage -------------------------------------------------


def test_criterion_5_causality_no_leakage(capsys):
    t0 = time.perf_counter()
    cohort, _, _ = generate_cohort(SimConfig(n_students=80, seed=5))
    config = FeatureConfig()
    pca = fit_pca(pipeline._inclass_rows(cohort))
    hist = build_teacher_history(cohort)
    rng = np.random.default_rng(55)
    students = sorted(cohort.students)
    checked = 0
    all_identical = True
    while checked < 100:
        s = cohort.students[students[int(rng.integers(len(students)))]]
        day = int(s.days[int(rng.integers(len(s.days)))])
        full = assemble([(s, day)], pca, hist, config, cohort.schema)
        truncated = StudentRecord(
            student_id=s.student_id,
            observations=tuple(o for o in s.observations if o.day <= day),
            final_status=s.final_status,
            teacher_id=s.teacher_id,
        )
        trimmed = assemble([(truncated, day)], pca, hist, config, cohort.schema)
        all_identical &= full.tobytes() == trimmed.tobytes()
        checked += 1
    elapsed = time.perf_counter() - t0
    ok = all_identical and elapsed < 5.0
    verdict(capsys, 5, ok, f"100 queries byte-identical after truncation, {elapsed:.2f}s < 5s")


# --- 6 + 7. trend reproduction and flagging (shared sweep) ---------------------

SWEEP_GBDT = GBDTConfig(n_trees=80, max_depth=2)
DELTAS = list(range(1, 15))
N_SEEDS = 10


@pytest.fixture(scope="session")
def trend_sweep():
    t0 = time.perf_counter()
    cohort, _, _ = generate_cohort(SimConfig(n_students=500, seed=20260824))
    arms = {
        "conv": PipelineConfig(gbdt=SWEEP_GBDT),
        "none": PipelineConfig(
            gbdt=SWEEP_GBDT, augmentation=AugmentationConfig(lookback_days=None)
        ),
        "lin": PipelineConfig(
            gbdt=SWEEP_GBDT, augmentation=AugmentationConfig(weighting="linear")
        ),
        "ccv": PipelineConfig(
            gbdt=SWEEP_GBDT, augmentation=AugmentationConfig(weighting="concave")
        ),
        "in": PipelineConfig(gbdt=SWEEP_GBDT, feature=FeatureConfig(blocks=("in",))),
        "out": PipelineConfig(gbdt=SWEEP_GBDT, feature=FeatureConfig(blocks=("out",))),
        "time": PipelineConfig(gbdt=SWEEP_GBDT, feature=FeatureConfig(blocks=("time",))),
    }
    aucs = {k: {d: [] for d in DELTAS} for k in arms}
    recalls = []
    for seed in range(N_SEEDS):
        train_cohort, test_cohort = split_students(cohort, 0.8, seed)
        for key, config in arms.items():
            trained = train(train_cohort, config)
            report = evaluate_horizons(trained.scorer, test_cohort, DELTAS)
            for d in DELTAS:
                aucs[key][d].append(report.auc_by_horizon[d])
            if key == "conv":
                recalls.append(
                    daily_flagging(trained.scorer, test_cohort, 0.3).pooled_recall
                )
    return {
        "cohort": cohort,
        "aucs": aucs,
        "recalls": recalls,
        "elapsed": time.perf_counter() - t0,
    }


def mean_auc(aucs, key, delta):
    defined = [v for v in aucs[key][delta] if v is not None]
    return float(np.mean(defined))


def overall_mean(aucs, key):
    return float(np.mean([mean_auc(aucs, key, d) for d in DELTAS]))


def per_seed_means(aucs, key):
    return np.array(
        [np.mean([aucs[key][d][s] for d in DELTAS]) for s in range(N_SEEDS)]
    )


@pytest.mark.slow
def test_criterion_6a_horizon_ordering(trend_sweep, capsys):
    near = mean_auc(trend_sweep["aucs"], "conv", 1)
    far = mean_auc(trend_sweep["aucs"], "conv", 14)
    verdict(capsys, "6a", near > far, f"mean AUC delta=1 {near:.4f} > delta=14 {far:.4f}")


@pytest.mark.slow
def test_criterion_6b_augmentation_helps(trend_sweep, capsys):
    gain = mean_auc(trend_sweep["aucs"], "conv", 1) - mean_auc(
        trend_sweep["aucs"], "none", 1
    )
    verdict(capsys, "6b", gain >= 0.02, f"convex-vs-none delta=1 gain {gain:+.4f} >= 0.02")


@pytest.mark.slow
def test_criterion_6c_weighting_ordering(trend_sweep, capsys):
    aucs = trend_sweep["aucs"]
    conv = overall_mean(aucs, "conv")
    lin = overall_mean(aucs, "lin")
    ccv = overall_mean(aucs, "ccv")
    seed_wins = int(np.sum(per_seed_means(aucs, "conv") >= per_seed_means(aucs, "ccv")))
    ok = conv >= lin >= ccv and seed_wins >= 8
    verdict(
        capsys,
        "6c", ok,
        f"mean AUC convex {conv:.4f} >= linear {lin:.4f} >= concave {ccv:.4f}; "
        f"convex>=concave in {seed_wins}/{N_SEEDS} seeds (need 8)",
    )


@pytest.mark.slow
def test_criterion_6d_feature_blocks(trend_sweep, capsys):
    aucs = trend_sweep["aucs"]
    full = mean_auc(aucs, "conv", 7)
    singles = {k: mean_auc(aucs, k, 7) for k in ("in", "out", "time")}
    ok = all(full >= v for v in singles.values())
    verdict(
        capsys,
        "6d", ok,
        f"delta=7 mean AUC full {full:.4f} >= " +
        ", ".join(f"{k} {v:.4f}" for k, v in singles.items()),
    )


@pytest.mark.slow
def test_criterion_6_runtime(trend_sweep, capsys):
    elapsed = trend_sweep["elapsed"]
    verdict(capsys, 6, elapsed < 600.0, f"sweep runtime {elapsed:.0f}s < 600s")


@pytest.mark.slow
def test_criterion_7_flagging(trend_sweep, capsys):
    cohort = trend_sweep["cohort"]

    def oracle(student_record, day):
        return 1.0 if student_record.final_status == "dropout" else 0.0

    # every dropout scores above every non-dropout, and daily dropout counts on
    # the synthetic cohort stay far below ceil(0.3 * active), so recall must be 1
    oracle_report = daily_flagging(oracle, cohort, 0.3)
    oracle_ok = oracle_report.pooled_recall == 1.0
    recalls = trend_sweep["recalls"]
    mean_recall = float(np.mean(recalls))
    ok = oracle_ok and mean_recall >= 0.6
    verdict(
        capsys,
        7, ok,
        f"oracle pooled recall {oracle_report.pooled_recall:.2f} == 1.0; trained "
        f"mean pooled recall@0.3 {mean_recall:.4f} >= 0.6 over {len(recalls)} seeds",
    )


# --- 8. determinism ------------------------------------------------------------


def test_criterion_8_determinism(tmp_path, capsys):
    sim = tmp_path / "sim"
    assert cli_main(
        ["simulate", "--n-students", "60", "--seed", "8", "--out-dir", str(sim)]
    ) == EXIT_OK
    io = ["--events", str(sim / "events.jsonl"), "--schema", str(sim / "schema.json")]
    fast = ["--n-trees", "20", "--max-depth", "2"]
    for rep in ("a", "b"):
        assert cli_main(
            ["train", *io, "--out-dir", str(tmp_path / f"train_{rep}"), *fast]
        ) == EXIT_OK
        assert cli_main(
            ["evaluate", *io, "--out-dir", str(tmp_path / f"eval_{rep}"), *fast,
             "--deltas", "1..7", "--seed", "1"]
        ) == EXIT_OK
    model_ok = (
        (tmp_path / "train_a" / "model.json").read_bytes()
        == (tmp_path / "train_b" / "model.json").read_bytes()
    )
    report_ok = (
        (tmp_path / "eval_a" / "report.json").read_bytes()
        == (tmp_path / "eval_b" / "report.json").read_bytes()
    )
    verdict(
        capsys,
        8, model_ok and report_ok,
        f"model.json byte-identical: {model_ok}, report.json byte-identical: {report_ok}",
    )
