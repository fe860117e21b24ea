"""Command-line entry point: simulate / featurize / train / predict / evaluate / sweep.

`train` writes the model directory that `predict --model` scores with. `main`
creates each run's output directory and writes its manifest.json, recording
the resolved configuration, seed, and sha256 hashes of inputs and outputs, so
any run can be replayed bit-exactly. Each subcommand returns the paths it
wrote and any extra manifest keys.

Exit codes: 0 ok, 2 usage (an unknown flag, or a flag value that does not
parse, such as an empty range), 3 data error (malformed input, an
out-of-range fraction or horizon, a negative seed, a `predict --at-day`
at which no student is active, a model that does not fit the schema, or a
path that cannot be read or written), 4 model error.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import sys
from pathlib import Path

from . import features, labeling, pipeline, synthgen
from .augmentation import WEIGHTINGS, AugmentationConfig
from .errors import DataError, EmptyInputError, ModelError, ValidationError, check_seed
from .events import ingest
from .evaluation import (
    TOP_FRACTION, check_deltas, check_top_fraction, check_train_fraction, daily_flagging,
    evaluate_horizons, rank_active, split_students,
)
from .gbdt import GBDTConfig
from .trainer import SamplerConfig

EXIT_OK, EXIT_USAGE, EXIT_DATA, EXIT_MODEL = 0, 2, 3, 4

LOOKBACK_CHOICES = ("none", "3", "7", "14")
WEIGHTING_CHOICES = tuple(WEIGHTINGS)
FEATURE_CHOICES = ("in", "out", "time", "in+time", "out+time", "in+out", "in+out+time")


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _write_manifest(out_dir: Path, args: argparse.Namespace, inputs: list[Path],
                    outputs: list[Path], extra: dict) -> None:
    manifest = {
        "subcommand": args.subcommand,
        "args": {k: v for k, v in sorted(vars(args).items()) if k != "func"},
        "inputs": {str(p): _sha256(p) for p in inputs},
        "outputs": {str(p): _sha256(p) for p in outputs},
        **extra,
    }
    (out_dir / "manifest.json").write_text(
        json.dumps(manifest, sort_keys=True, indent=2, default=str) + "\n"
    )


def _parse_lookback(value: str) -> int | None:
    return None if value == "none" else int(value)


# Argparse types for list flags: a value that does not parse exits 2 with usage.
def int_list(value: str) -> list[int]:
    """Integers as 'a,b,c' or as the inclusive range 'a..b', a <= b; a repeated value counts once."""
    lo, sep, hi = value.partition("..")
    values = range(int(lo), int(hi) + 1) if sep else map(int, value.split(","))
    if not (values := list(dict.fromkeys(values))):
        raise argparse.ArgumentTypeError(f"{value!r} is an empty range")
    return values


def lookback_list(value: str) -> list[int | None]:
    """Lookbacks as 'a,b,c', each one that --lookback accepts."""
    return [_parse_lookback(v) for v in choice_list(LOOKBACK_CHOICES)(value)]


def choice_list(choices: tuple[str, ...]):
    """An argparse type for 'a,b,c' where every value is one of `choices`."""
    def parse(value: str) -> list[str]:
        values = value.split(",")
        if not set(values) <= set(choices):
            raise argparse.ArgumentTypeError(f"{value!r}: choose each from {', '.join(choices)}")
        return values
    return parse


def _parse_blocks(value: str) -> tuple[str, ...]:
    return tuple(value.split("+"))


def _arm_config(args: argparse.Namespace, lookback: int | None, weighting: str,
                features: str, seed: int = 0) -> pipeline.PipelineConfig:
    """A training config: the flags every training subcommand shares plus the
    augmentation and feature blocks that a sweep varies (a sweep replaces the
    sampler seed with each split's)."""
    return pipeline.PipelineConfig(
        blocks=_parse_blocks(features),
        augmentation=AugmentationConfig(lookback_days=lookback, weighting=weighting),
        sampler=SamplerConfig(target_positive_fraction=args.positive_fraction, seed=seed),
        gbdt=GBDTConfig(
            n_trees=args.n_trees, max_depth=args.max_depth, learning_rate=args.learning_rate
        ),
    )


def _pipeline_config(args: argparse.Namespace) -> pipeline.PipelineConfig:
    """The training config of a train or evaluate run."""
    return _arm_config(args, _parse_lookback(args.lookback), args.weighting, args.features,
                       args.seed)


def cmd_simulate(args: argparse.Namespace, out_dir: Path) -> tuple[list[Path], dict]:
    cfg = synthgen.SimConfig(
        n_students=args.n_students,
        target_dropout_rate=args.dropout_rate,
        mean_span_days=args.mean_span,
        seed=args.seed,
    )
    cohort = synthgen.generate_cohort(cfg)
    paths = synthgen.write_cohort(out_dir, cohort)
    n_dropout = sum(s.final_status == "dropout" for s in cohort)
    mean_span = sum(s.last_day - s.first_day for s in cohort) / len(cohort)
    print(f"simulated {len(cohort)} students, dropout rate {n_dropout / len(cohort):.4f}, "
          f"mean span {mean_span:.1f} days, {sum(len(s.observations) for s in cohort)} pairs")
    return sorted(paths.values()), {}


def cmd_featurize(args: argparse.Namespace, out_dir: Path) -> tuple[list[Path], dict]:
    cohort = ingest(args.events, args.schema)
    space = pipeline.fit_feature_space(cohort, _parse_blocks(args.features))
    points = [(s, d) for s in cohort for d in s.days]
    X = features.assemble(points, space, features.build_teacher_history(cohort))
    out_path = out_dir / "features.csv"
    with open(out_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["student_id", "day", *space.names])
        for (student, day), row in zip(points, X):
            writer.writerow([student.student_id, day, *map(repr, row.tolist())])
    print(f"wrote {out_path}")
    return [out_path], {}


def cmd_train(args: argparse.Namespace, out_dir: Path) -> tuple[list[Path], dict]:
    config = _pipeline_config(args)  # refuse a bad flag before reading input
    cohort = ingest(args.events, args.schema)
    trained = pipeline.train(cohort, config)
    pairs_path = out_dir / "pairs.csv"
    labeling.write_pairs_csv(trained.pairs, pairs_path)
    counts = {provenance: len(pairs) for provenance, pairs in trained.pairs.items()}
    print(f"trained gbdt on {counts['original_positive']} positives, "
          f"{counts['pseudo_positive']} pseudo positives, {counts['original_negative']} negatives")
    return [*trained.scorer.save(out_dir), pairs_path], {
        "config_fingerprint": config.fingerprint(),
        "pairs_by_provenance": {**counts, "drawn": trained.n_drawn},
        "train_loss_curve": trained.model.train_loss_curve}


def cmd_predict(args: argparse.Namespace, out_dir: Path) -> tuple[list[Path], dict]:
    check_top_fraction(args.top_fraction)  # refuse a bad fraction before reading input
    cohort = ingest(args.events, args.schema)
    if not cohort.students:
        raise EmptyInputError("the events file holds no student to score")
    scorer = pipeline.PipelineScorer.load(Path(args.model), cohort)
    at_day = args.at_day if args.at_day is not None else max(s.last_day for s in cohort)
    ranked, n_flag = rank_active(scorer, cohort, at_day, args.top_fraction)
    if not ranked:
        raise ValidationError(f"no student is active at day {at_day}")
    out_path = out_dir / "predictions.csv"
    with open(out_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["student_id", "probability", "flagged"])
        for rank, (sid, score) in enumerate(ranked):
            writer.writerow([sid, f"{score:.6f}", int(rank < n_flag)])
    print(f"scored {len(ranked)} students at day {at_day}; flagged {n_flag}")
    return [out_path], {}


def cmd_evaluate(args: argparse.Namespace, out_dir: Path) -> tuple[list[Path], dict]:
    check_deltas(args.deltas)  # refuse a bad horizon or fraction before reading input
    check_top_fraction(args.top_fraction)
    check_train_fraction(args.train_fraction)
    config = _pipeline_config(args)
    cohort = ingest(args.events, args.schema)
    train_cohort, test_cohort = split_students(cohort, args.train_fraction, args.seed)
    trained = pipeline.train(train_cohort, config)  # then scored as predict scores the log
    scorer = pipeline.PipelineScorer(trained.model, trained.scorer.space, cohort)
    report = evaluate_horizons(scorer, test_cohort, args.deltas, config.fingerprint())
    report.recall_at_fraction = daily_flagging(scorer, test_cohort, args.top_fraction)
    report_path = out_dir / "report.json"
    report.save(report_path)
    for d in args.deltas:
        a = report.auc_by_horizon[d]
        print(f"delta={d:2d}  auc={'undefined' if a is None else f'{a:.4f}'}")
    return [report_path], {}


def cmd_sweep(args: argparse.Namespace, out_dir: Path) -> tuple[list[Path], dict]:
    arms = {  # a repeated flag value, or any weighting without augmentation, names
        # the same arm, which trains once per seed
        ("lookback=none," if lb is None else f"lookback={lb},weighting={wt},")
        + f"blocks={fs}": _arm_config(args, lb, wt, fs)
        for lb in args.lookbacks for wt in args.weightings for fs in args.feature_sets
    }
    check_deltas(args.deltas)  # refuse a bad horizon, fraction or seed before reading input
    check_train_fraction(args.train_fraction)
    check_seed(min(args.seeds))
    cohort = ingest(args.events, args.schema)
    report = pipeline.run_sweep(cohort, arms, args.deltas, args.seeds, args.train_fraction)
    json_path = out_dir / "report.json"
    json_path.write_text(json.dumps(report, sort_keys=True, separators=(",", ":")) + "\n")
    recall_key = f"pooled@{TOP_FRACTION}"
    for key in sorted(report["cells"]):
        means = {f"d{d}": report["cells"][key][str(d)]["mean"] for d in args.deltas}
        means[recall_key] = report["recall_at_fraction"][recall_key][key]["mean"]
        print(f"{key}: " + " ".join(f"{name}={m:.3f}" for name, m in means.items()
                                    if m is not None))
    return [json_path], {}


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

    p = sub.add_parser("predict", help="rank students by a trained model's dropout probability")
    _add_io_args(p)
    p.add_argument("--model", required=True, help="model directory that train wrote")
    p.add_argument("--at-day", type=int, default=None)
    p.add_argument("--top-fraction", type=float, default=TOP_FRACTION)
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("evaluate", help="split, train, and report AUC per horizon")
    _add_io_args(p)
    _add_train_args(p)
    p.add_argument("--deltas", type=int_list, default="1..14")
    p.add_argument("--train-fraction", type=float, default=0.8)
    p.add_argument("--top-fraction", type=float, default=TOP_FRACTION)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("sweep", help="grid over lookback/weighting/feature sets")
    _add_io_args(p)
    p.add_argument("--lookbacks", type=lookback_list, default="none,3,7,14")
    p.add_argument("--weightings", type=choice_list(WEIGHTING_CHOICES), default="convex")
    p.add_argument("--feature-sets", type=choice_list(FEATURE_CHOICES), default="in+out+time")
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
    args = build_parser().parse_args(argv)
    out_dir = Path(args.out_dir)
    inputs = [Path(args.events), Path(args.schema)] if "events" in args else []
    if "model" in args:
        inputs += [Path(args.model, name) for name in pipeline.MODEL_FILES]
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        outputs, extra = args.func(args, out_dir)
        _write_manifest(out_dir, args, inputs, outputs, extra)
    except (DataError, OSError, ModelError) as exc:
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}),
              file=sys.stderr)
        return EXIT_MODEL if isinstance(exc, ModelError) else EXIT_DATA
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
