"""Command-line entry point: simulate / featurize / train / predict / evaluate / sweep.

Every subcommand writes a manifest.json into its output directory recording
the resolved configuration, seed, and sha256 hashes of inputs and outputs,
so any run can be replayed bit-exactly.

Exit codes: 0 ok, 2 usage (an unknown flag, or a flag value that does not
parse), 3 data error (malformed input, an out-of-range fraction, or an input
or output path that cannot be read or written), 4 model error.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import sys
from collections import Counter
from pathlib import Path

from . import features, labeling, pipeline, synthgen
from .augmentation import AugmentationConfig
from .errors import DataError, ModelError
from .events import cohort_stats, ingest
from .evaluation import (
    SweepCell, daily_flagging, evaluate_horizons, flag_top, run_sweep, split_students,
)
from .features import FeatureConfig
from .gbdt import GBDTConfig
from .trainer import SamplerConfig

EXIT_OK, EXIT_USAGE, EXIT_DATA, EXIT_MODEL = 0, 2, 3, 4

LOOKBACK_CHOICES = ("none", "3", "7", "14")
WEIGHTING_CHOICES = ("linear", "convex", "concave")
FEATURE_CHOICES = ("in", "out", "time", "in+time", "out+time", "in+out", "in+out+time")


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _write_manifest(out_dir: Path, subcommand: str, args: argparse.Namespace,
                    inputs: list[Path], outputs: list[Path], extra: dict | None = None) -> None:
    manifest = {
        "subcommand": subcommand,
        "args": {k: v for k, v in sorted(vars(args).items()) if k != "func"},
        "inputs": {str(p): _sha256(p) for p in inputs},
        "outputs": {str(p): _sha256(p) for p in outputs},
    }
    if extra:
        manifest.update(extra)
    (out_dir / "manifest.json").write_text(
        json.dumps(manifest, sort_keys=True, indent=2, default=str) + "\n"
    )


def _parse_lookback(value: str) -> int | None:
    return None if value == "none" else int(value)


# Argparse types for list flags: a value that does not parse exits 2 with usage.
def int_list(value: str) -> list[int]:
    """Integers as 'a,b,c' or as the inclusive range 'a..b'."""
    lo, sep, hi = value.partition("..")
    return list(range(int(lo), int(hi) + 1)) if sep else [int(v) for v in value.split(",")]


def lookback_list(value: str) -> list[int | None]:
    return [_parse_lookback(v) for v in value.split(",")]


def _parse_blocks(value: str) -> tuple[str, ...]:
    return tuple(value.split("+"))


def _pipeline_config(
    args: argparse.Namespace, cell: SweepCell | None = None, seed: int | None = None
) -> pipeline.PipelineConfig:
    """The training config of a run; a sweep passes the cell and seed it varies."""
    if cell is None:
        cell = SweepCell(_parse_lookback(args.lookback), args.weighting, _parse_blocks(args.features))
    return pipeline.PipelineConfig(
        feature=FeatureConfig(blocks=cell.blocks),
        augmentation=AugmentationConfig(lookback_days=cell.lookback, weighting=cell.weighting),
        sampler=SamplerConfig(
            target_positive_fraction=args.positive_fraction,
            seed=args.seed if seed is None else seed,
        ),
        gbdt=GBDTConfig(
            n_trees=args.n_trees, max_depth=args.max_depth, learning_rate=args.learning_rate
        ),
    )


def cmd_simulate(args: argparse.Namespace) -> int:
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    cfg = synthgen.SimConfig(
        n_students=args.n_students,
        target_dropout_rate=args.dropout_rate,
        mean_span_days=args.mean_span,
        seed=args.seed,
    )
    paths = synthgen.generate(cfg, out_dir)
    cohort = ingest(paths["events"], paths["schema"])
    stats = cohort_stats(cohort)
    print(
        f"simulated {stats.n_students} students, dropout rate "
        f"{stats.dropout_rate:.4f}, mean span {stats.mean_span_days:.1f} days, "
        f"{stats.total_pairs} pairs"
    )
    _write_manifest(out_dir, "simulate", args, [], sorted(paths.values()))
    return EXIT_OK


def _load_cohort(args: argparse.Namespace):
    return ingest(args.events, args.schema)


def cmd_featurize(args: argparse.Namespace) -> int:
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    cohort = _load_cohort(args)
    fconfig = FeatureConfig(blocks=_parse_blocks(args.features))
    pca = features.fit_pca(pipeline._inclass_rows(cohort))
    hist = features.build_teacher_history(cohort)
    points = [(cohort.students[sid], d) for sid in sorted(cohort.students)
              for d in cohort.students[sid].days]
    X = features.assemble(points, pca, hist, fconfig, cohort.schema)
    out_path = out_dir / "features.csv"
    with open(out_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["student_id", "day", *features.feature_names(cohort.schema, pca, fconfig)])
        for (student, day), row in zip(points, X):
            writer.writerow([student.student_id, day, *map(repr, row.tolist())])
    print(f"wrote {out_path}")
    _write_manifest(out_dir, "featurize", args, [Path(args.events), Path(args.schema)], [out_path])
    return EXIT_OK


def cmd_train(args: argparse.Namespace) -> int:
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    cohort = _load_cohort(args)
    config = _pipeline_config(args)
    trained = pipeline.train(cohort, config)
    model_path = out_dir / "model.json"
    trained.model.save(model_path)
    pairs_path = out_dir / "pairs.csv"
    labeling.write_pairs_csv(trained.pairs, pairs_path)
    by_provenance = Counter(p.provenance for p in trained.pairs)
    print(
        f"trained gbdt on {by_provenance['original_positive']} positives, "
        f"{by_provenance['pseudo_positive']} pseudo positives, "
        f"{by_provenance['original_negative']} negatives"
    )
    _write_manifest(
        out_dir, "train", args, [Path(args.events), Path(args.schema)], [model_path, pairs_path],
        extra={"n_pseudo_pairs": trained.n_pseudo_pairs,
               "config_fingerprint": config.fingerprint()},
    )
    return EXIT_OK


def _retrain_for_scoring(args: argparse.Namespace):
    # Scoring needs the feature-space state (PCA, teacher history) alongside the
    # model; retraining from the events file with the same seed reproduces both.
    cohort = _load_cohort(args)
    config = _pipeline_config(args)
    return cohort, pipeline.train(cohort, config)


def cmd_predict(args: argparse.Namespace) -> int:
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    cohort, trained = _retrain_for_scoring(args)
    at_day = args.at_day if args.at_day is not None else max(s.last_day for s in cohort)
    points = [(cohort.students[sid], min(at_day, cohort.students[sid].last_day))
              for sid in sorted(cohort.students) if cohort.students[sid].first_day <= at_day]
    values = trained.scorer.many(points)
    scores = {s.student_id: float(v) for (s, _), v in zip(points, values)}
    flagged = flag_top(scores, args.top_fraction)
    ranked = sorted(scores, key=lambda sid: (-scores[sid], sid))
    out_path = out_dir / "predictions.csv"
    with open(out_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["student_id", "probability", "flagged"])
        for sid in ranked:
            writer.writerow([sid, f"{scores[sid]:.6f}", int(sid in flagged)])
    print(f"scored {len(ranked)} students at day {at_day}; flagged {len(flagged)}")
    _write_manifest(out_dir, "predict", args, [Path(args.events), Path(args.schema)], [out_path])
    return EXIT_OK


def cmd_evaluate(args: argparse.Namespace) -> int:
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    cohort = _load_cohort(args)
    config = _pipeline_config(args)
    train_cohort, test_cohort = split_students(cohort, args.train_fraction, args.seed)
    trained = pipeline.train(train_cohort, config)
    report = evaluate_horizons(trained.scorer, test_cohort, args.deltas, config.fingerprint())
    try:
        flagging = daily_flagging(trained.scorer, test_cohort, args.top_fraction)
        report.recall_at_fraction = {
            f"pooled@{args.top_fraction}": flagging.pooled_recall,
            f"daily_mean@{args.top_fraction}": flagging.daily_mean_recall,
        }
    except ModelError:
        pass  # no evaluable dropout days in the test split
    report_path = out_dir / "report.json"
    report.save(report_path)
    for d in args.deltas:
        a = report.auc_by_horizon[d]
        print(f"delta={d:2d}  auc={'undefined' if a is None else f'{a:.4f}'}")
    _write_manifest(out_dir, "evaluate", args, [Path(args.events), Path(args.schema)], [report_path])
    return EXIT_OK


def cmd_sweep(args: argparse.Namespace) -> int:
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    cohort = _load_cohort(args)
    cells = [
        SweepCell(lb, wt, _parse_blocks(fs))
        for lb in args.lookbacks
        for wt in args.weightings.split(",")
        for fs in args.feature_sets.split(",")
    ]

    def train_cell(train_cohort, cell: SweepCell, seed: int):
        return pipeline.train(train_cohort, _pipeline_config(args, cell, seed)).scorer

    report = run_sweep(cohort, cells, args.deltas, args.seeds, train_cell, args.train_fraction)
    json_path = out_dir / "report.json"
    csv_path = out_dir / "report.csv"
    report.save(json_path)
    report.save_csv(csv_path)
    for key in sorted(report.cells):
        means = " ".join(
            f"d{d}={report.mean_auc(key, d):.3f}"
            for d in args.deltas
            if any(v is not None for v in report.cells[key][d])
        )
        print(f"{key}: {means}")
    _write_manifest(out_dir, "sweep", args, [Path(args.events), Path(args.schema)],
                    [json_path, csv_path])
    return EXIT_OK


def _add_io_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--events", required=True, help="events.jsonl path")
    p.add_argument("--schema", required=True, help="schema.json path")
    p.add_argument("--out-dir", default="out", help="output directory")


def _add_train_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--lookback", choices=LOOKBACK_CHOICES, default="7")
    p.add_argument("--weighting", choices=WEIGHTING_CHOICES, default="convex")
    p.add_argument("--features", choices=FEATURE_CHOICES, default="in+out+time")
    p.add_argument("--positive-fraction", type=float, default=0.3)
    p.add_argument("--n-trees", type=int, default=200)
    p.add_argument("--max-depth", type=int, default=4)
    p.add_argument("--learning-rate", type=float, default=0.1)
    p.add_argument("--seed", type=int, default=0)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="atrisk", description="At-risk student early-warning pipeline."
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("simulate", help="generate a synthetic cohort")
    p.add_argument("--n-students", type=int, default=500)
    p.add_argument("--dropout-rate", type=float, default=0.1616)
    p.add_argument("--mean-span", type=int, default=86)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out-dir", default="out")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("featurize", help="dump per-pair feature vectors to CSV")
    _add_io_args(p)
    p.add_argument("--features", choices=FEATURE_CHOICES, default="in+out+time")
    p.set_defaults(func=cmd_featurize)

    p = sub.add_parser("train", help="train on a full cohort and write model.json")
    _add_io_args(p)
    _add_train_args(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("predict", help="rank students by dropout probability")
    _add_io_args(p)
    _add_train_args(p)
    p.add_argument("--at-day", type=int, default=None)
    p.add_argument("--top-fraction", type=float, default=0.3)
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("evaluate", help="split, train, and report AUC per horizon")
    _add_io_args(p)
    _add_train_args(p)
    p.add_argument("--deltas", type=int_list, default="1..14")
    p.add_argument("--train-fraction", type=float, default=0.8)
    p.add_argument("--top-fraction", type=float, default=0.3)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("sweep", help="grid over lookback/weighting/feature sets")
    _add_io_args(p)
    p.add_argument("--lookbacks", type=lookback_list, default="none,3,7,14")
    p.add_argument("--weightings", default="convex")
    p.add_argument("--feature-sets", default="in+out+time")
    p.add_argument("--deltas", type=int_list, default="1,7,14")
    p.add_argument("--seeds", type=int_list, default="0")
    p.add_argument("--positive-fraction", type=float, default=0.3)
    p.add_argument("--n-trees", type=int, default=60)
    p.add_argument("--max-depth", type=int, default=3)
    p.add_argument("--learning-rate", type=float, default=0.1)
    p.add_argument("--train-fraction", type=float, default=0.8)
    p.set_defaults(func=cmd_sweep)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (DataError, OSError) as exc:
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}),
              file=sys.stderr)
        return EXIT_DATA
    except ModelError as exc:
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}),
              file=sys.stderr)
        return EXIT_MODEL


if __name__ == "__main__":
    sys.exit(main())
