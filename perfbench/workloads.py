"""The two benchmark workloads, their input sizes and their output checks.

Every workload is one closed-loop client making sequential calls in a fresh
process. The timed region runs from the first call into atrisk to the last
output file written; `ctx.stop()` ends it, and everything after it (checks,
pair counts, hashes) is untimed and untraced.

- cli_deploy: `atrisk train` then `atrisk evaluate` through `atrisk.cli.main`
  at the CLI-default 200 x 4 GBDT; what an operator pays per run.
- score_daily: ingest a larger log, train a small model on 20% of the
  students, then flag the top 30% of the active held-out students on every
  day of the span; the deployment loop, where ingest, feature assembly and
  tree prediction dominate and `gbdt.fit` is small.
"""

from __future__ import annotations

import hashlib
import json
import math
import resource
import time
from pathlib import Path

import numpy as np

from atrisk import cli, evaluation, events, pipeline
from atrisk.augmentation import AugmentationConfig, augment
from atrisk.gbdt import GBDTConfig, GBDTModel
from atrisk.labeling import horizon_label

DELTAS = list(range(1, 15))
TOP_FRACTION = 0.3


class Ops:
    """Attempted and failed operations; a failed check is a failed operation."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.errors) < 20:
                self.errors.append(what)


class Context:
    """What a workload needs from the child process: paths, sizes, the clock."""

    def __init__(self, inputs: Path, out: Path, params: dict, on_stop=None):
        self.events = inputs / "events.jsonl"
        self.schema = inputs / "schema.json"
        self.out = out
        self.params = params
        self.ops = Ops()
        self.day_ms: list[float] = []
        self.wall_s = 0.0
        self.cpu_s = 0.0
        self.peak_rss_mb = 0.0
        self._on_stop = on_stop
        self._t0 = time.perf_counter()
        self._c0 = time.process_time()

    def start(self) -> None:
        self._t0 = time.perf_counter()
        self._c0 = time.process_time()

    def stop(self) -> None:
        self.wall_s = time.perf_counter() - self._t0
        self.cpu_s = time.process_time() - self._c0
        self.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if self._on_stop is not None:
            self._on_stop()

    def gbdt(self) -> GBDTConfig:
        return GBDTConfig(n_trees=self.params["n_trees"], max_depth=self.params["max_depth"])


class DayTimer:
    """Scorer proxy that times each batch `daily_flagging` scores (one per day)."""

    def __init__(self, scorer, ctx: Context):
        self._scorer = scorer
        self._ctx = ctx
        self.rows = 0

    def many(self, points):
        t0 = time.perf_counter()
        scores = self._scorer.many(points)
        self._ctx.day_ms.append(1e3 * (time.perf_counter() - t0))
        self.rows += len(points)
        self._ctx.ops.check(_valid_scores(scores, len(points)), "day scores invalid")
        return scores


def _valid_scores(scores, n: int) -> bool:
    scores = np.asarray(scores)
    return scores.shape == (n,) and bool(np.all((scores >= 0.0) & (scores <= 1.0)))


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _check_model(ctx: Context, model: GBDTModel, path: Path) -> None:
    probe = np.random.default_rng(20030967).uniform(
        -3.0, 40.0, size=(256, len(model.feature_names)))
    loaded = GBDTModel.load(path)
    same = model.predict_proba(probe).tobytes() == loaded.predict_proba(probe).tobytes()
    ctx.ops.check(same, "model.json does not round-trip to identical probabilities")


def _check_report(ctx: Context, report: dict, test_split) -> None:
    """AUC and recall are defined, and in [0, 1], exactly where the test split allows.

    A delta=1 positive needs a dropout observed on the day before it leaves;
    test splits of the sizes used here hold only a few, so on some seeds the
    report must say undefined (null) there.
    """
    points = evaluation.query_points(test_split)
    for d in DELTAS:
        labels = {horizon_label(s, day, d) for s, day in points}
        value = report["auc_by_horizon"].get(str(d))
        ok = (value is None) if len(labels) < 2 else (value is not None and 0.0 <= value <= 1.0)
        ctx.ops.check(ok and report["n_queries_by_horizon"].get(str(d)) == len(points),
                      f"report.json delta={d}: auc {value} with label classes {labels}")
    recall = report["recall_at_fraction"].get(f"pooled@{TOP_FRACTION}")
    if any(s.final_status == "dropout" for s in test_split):
        ok = recall is not None and 0.0 <= recall <= 1.0
    else:
        ok = recall is None
    ctx.ops.check(ok, f"report.json pooled recall {recall}")


def _n_original_pairs(cohort) -> int:
    return sum(len(s.days) for s in cohort.resolved())


def _summary(ctx: Context, report_path: Path, model_path: Path, pairs: int,
             test_split) -> dict:
    report = json.loads(report_path.read_text())
    _check_report(ctx, report, test_split)
    defined = [a for a in (report["auc_by_horizon"].get(str(d)) for d in DELTAS)
               if a is not None]
    return {
        "wall_s": ctx.wall_s,
        "cpu_s": ctx.cpu_s,
        "peak_rss_mb": ctx.peak_rss_mb,
        "pairs": pairs,
        "day_ms": ctx.day_ms,
        "auc_d1": report["auc_by_horizon"].get("1"),
        "auc_mean": float(np.mean(defined)) if defined else None,
        "recall_at_30": report["recall_at_fraction"].get(f"pooled@{TOP_FRACTION}"),
        "sha256": {"model.json": _sha256(model_path), "report.json": _sha256(report_path)},
    }


def cli_deploy(ctx: Context) -> dict:
    p = ctx.params
    io = ["--events", str(ctx.events), "--schema", str(ctx.schema)]
    model_args = ["--n-trees", str(p["n_trees"]), "--max-depth", str(p["max_depth"])]
    trained = []
    timers = []
    train, flagging = pipeline.train, cli.daily_flagging

    def capture_train(*args, **kwargs):
        result = train(*args, **kwargs)
        trained.append(result)
        return result

    def timed_flagging(scorer, cohort, fraction=0.3):
        timers.append(DayTimer(scorer, ctx))
        return evaluation.daily_flagging(timers[-1], cohort, fraction)

    # Both hooks only forward the call; the first keeps the trained model for
    # the round-trip check, the second times each day of the flag replay.
    pipeline.train, cli.daily_flagging = capture_train, timed_flagging
    ctx.start()
    try:
        rc_train = cli.main(["train", *io, *model_args, "--out-dir", str(ctx.out / "train")])
        rc_eval = cli.main(["evaluate", *io, *model_args, "--deltas", "1..14",
                            "--top-fraction", str(TOP_FRACTION),
                            "--train-fraction", str(p["train_fraction"]),
                            "--out-dir", str(ctx.out / "evaluate")])
    finally:
        pipeline.train, cli.daily_flagging = train, flagging
    ctx.stop()
    ctx.ops.check(rc_train == 0, f"atrisk train exited {rc_train}")
    ctx.ops.check(rc_eval == 0, f"atrisk evaluate exited {rc_eval}")
    model_path = ctx.out / "train" / "model.json"
    _check_model(ctx, trained[0].model, model_path)

    cohort = events.ingest(ctx.events, ctx.schema)
    train_split, test_split = evaluation.split_students(cohort, p["train_fraction"], 0)
    with open(ctx.out / "train" / "pairs.csv") as fh:
        train_pairs = sum(1 for _ in fh) - 1
    report_path = ctx.out / "evaluate" / "report.json"
    n_queries = json.loads(report_path.read_text())["n_queries_by_horizon"]["1"]
    pairs = (train_pairs + _n_original_pairs(train_split)
             + len(augment(train_split, AugmentationConfig()))
             + n_queries + sum(t.rows for t in timers))
    return _summary(ctx, report_path, model_path, pairs, test_split)


def score_daily(ctx: Context) -> dict:
    p = ctx.params
    model_path, report_path = ctx.out / "model.json", ctx.out / "report.json"
    ctx.start()
    cohort = events.ingest(ctx.events, ctx.schema)
    train_split, held_out = evaluation.split_students(cohort, p["train_fraction"], 0)
    trained = pipeline.train(train_split, pipeline.PipelineConfig(gbdt=ctx.gbdt()))
    trained.model.save(model_path)
    scorer = trained.scorer
    students = [held_out.students[sid] for sid in sorted(held_out.students)]
    scored = detected = dropouts = 0
    for day in range(min(s.first_day for s in students), max(s.last_day for s in students)):
        t0 = time.perf_counter()
        active = [s for s in students if s.first_day <= day < s.last_day]
        if not active:
            continue
        scores = scorer.many([(s, day) for s in active])
        n_flag = math.ceil(TOP_FRACTION * len(active))
        values = scores.tolist()
        ranked = sorted(range(len(active)), key=lambda i: (-values[i], active[i].student_id))
        flagged = ranked[:n_flag]
        ctx.day_ms.append(1e3 * (time.perf_counter() - t0))
        ctx.ops.check(_valid_scores(scores, len(active)) and len(flagged) == n_flag,
                      f"day {day}: invalid scores or flag count")
        scored += len(active)
        leaving = {i for i, s in enumerate(active)
                   if s.final_status == "dropout" and s.last_day == day + 1}
        detected += len(leaving.intersection(flagged))
        dropouts += len(leaving)
    report = evaluation.evaluate_horizons(scorer, held_out, DELTAS, trained.config.fingerprint())
    report.recall_at_fraction = {
        f"pooled@{TOP_FRACTION}": detected / dropouts if dropouts else None}
    report.save(report_path)
    ctx.stop()

    _check_model(ctx, trained.model, model_path)
    pairs = (_n_original_pairs(train_split) + trained.n_pseudo_pairs + scored
             + max(report.n_queries_by_horizon.values()))
    return _summary(ctx, report_path, model_path, pairs, held_out)


WORKLOADS = {"cli_deploy": cli_deploy, "score_daily": score_daily}
