"""The benchmark's tracer still finds every atrisk name it traces.

`perfbench/tracing.py` resolves each traced function and method by name when
it installs, so renaming or deleting one of them breaks the benchmark; its
pair counters read the shapes the pair builders return, and its cli_deploy
workload times flagging through `atrisk.cli.daily_flagging`. These tests make
any such break show in the unit suite as well.
"""

import importlib.util
import json
from pathlib import Path

import numpy as np

import atrisk.cli  # the benchmark runs the CLI, so it is loaded there too
from atrisk import events, evaluation, gbdt, pipeline
from atrisk.augmentation import AugmentationConfig, augment
from atrisk.gbdt import GBDTConfig
from atrisk.labeling import build_original_pairs
from atrisk.synthgen import SimConfig, generate, generate_cohort
from atrisk.trainer import SamplerConfig, oversample

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_uninstalls():
    tracing = load_tracing()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        patched = list(tracer._patched)
        assert len(patched) >= len(tracing.FUNCTIONS) + len(tracing.METHODS)
        for owner, attr, original in patched:
            assert getattr(owner, attr) is not original
    finally:
        tracer.uninstall()
    for owner, attr, original in patched:
        assert getattr(owner, attr) is original


def test_tracer_pair_counts_match_the_pair_sets():
    """The benchmark's pair counters read the shapes that `build_original_pairs`,
    `augment` and `oversample` return; each must still count the true pairs."""
    tracing = load_tracing()
    cohort = generate_cohort(SimConfig(n_students=60, seed=1))
    resolved = cohort.resolved()
    dropouts = [s for s in resolved if s.final_status == "dropout"]
    n_pos = len(dropouts)
    n_neg = sum(len(s.days) for s in resolved) - n_pos
    n_pseudo = sum(max(0, s.days[-1] - max(s.days[-2] if len(s.days) > 1 else 0,
                                           s.days[-1] - 7) - 1) for s in dropouts)
    n_drawn = round(0.3 * n_neg / 0.7)
    assert n_pos and n_pseudo

    originals = build_original_pairs(cohort)
    assert tracing._pair_counts((cohort,), {}, originals) == (n_pos, n_neg)
    config = AugmentationConfig(lookback_days=7)
    pseudo = augment(cohort, config)
    assert tracing._len_out((cohort, config), {}, pseudo) == n_pseudo
    positives, negatives = originals
    args = (positives, pseudo, negatives, SamplerConfig())
    sampled = oversample(*args)
    assert int(sampled.labels.sum()) == n_drawn
    assert tracing._sample_counts(args, {}, sampled) == (n_neg + n_drawn, n_drawn)
    assert tracing._sample_counts(args[:2], {"negatives": negatives, "cfg": args[3]},
                                  sampled) == (n_neg + n_drawn, n_drawn)


def test_evaluate_reports_what_the_hooked_daily_flagging_returns(tmp_path, monkeypatch):
    """The cli_deploy workload times flagging by replacing `atrisk.cli.daily_flagging`;
    `evaluate` must call that name once and store what it returns as the recall."""
    calls = []
    sentinel = {"pooled@0.25": 0.125}

    def recorder(scorer, cohort, fraction=0.3):
        calls.append(fraction)
        return sentinel

    monkeypatch.setattr(atrisk.cli, "daily_flagging", recorder)
    sim, out = tmp_path / "sim", tmp_path / "evaluate"
    assert atrisk.cli.main(["simulate", "--n-students", "80", "--seed", "3",
                            "--out-dir", str(sim)]) == 0
    assert atrisk.cli.main(["evaluate", "--events", str(sim / "events.jsonl"),
                            "--schema", str(sim / "schema.json"), "--out-dir", str(out),
                            "--n-trees", "10", "--max-depth", "2", "--deltas", "1",
                            "--top-fraction", "0.25"]) == 0
    assert calls == [0.25]
    assert json.loads((out / "report.json").read_text())["recall_at_fraction"] == sentinel


def n_nodes(tree: dict) -> int:
    return 1 if "value" in tree else 1 + n_nodes(tree["left"]) + n_nodes(tree["right"])


def test_tracer_counts_match_a_traced_run(tmp_path):
    """The counts of ingest, gbdt.fit, evaluate_horizons and PipelineScorer.many,
    taken from the arguments and results of a run under the installed tracer,
    equal the events file's lines, the nodes of model.json, the report's query
    points and the points scored, in positional and keyword calls alike."""
    tracing = load_tracing()
    sim = tmp_path / "sim"
    generate(SimConfig(n_students=60, seed=1), sim)
    cfg = GBDTConfig(n_trees=5, max_depth=3)
    X = np.random.default_rng(0).normal(size=(40, 3))
    tracer = tracing.Tracer()
    tracer.install()
    try:
        cohort = events.ingest(sim / "events.jsonl", sim / "schema.json")
        train_split, test_split = evaluation.split_students(cohort, 0.7, 0)
        trained = pipeline.train(train_split, pipeline.PipelineConfig(gbdt=cfg))
        evaluation.evaluate_horizons(trained.scorer, test_split, [1, 7])
        points = evaluation.query_points(test_split)[:25]
        trained.scorer.many(points=points)
        small = gbdt.fit(X=X, y=(X[:, 0] > 0).astype(np.int64), sample_weight=None, cfg=cfg)
    finally:
        tracer.uninstall()
    counts: dict[str, list] = {}
    for _, _, name, _, _, count in tracer.spans:
        counts.setdefault(name, []).append(count)

    with open(sim / "events.jsonl") as fh:
        assert counts["events.ingest"] == [sum(1 for line in fh if line.strip())]
    trained.scorer.save(tmp_path)
    trees = json.loads((tmp_path / "model.json").read_text())["trees"]
    n_rows = len(trained.pairs["original_negative"]) + trained.n_drawn
    assert counts["gbdt.fit"] == [
        (n_rows, sum(map(n_nodes, trees)), 5),
        (40, sum(n_nodes(t) for t in json.loads(small.to_json())["trees"]), 5),
    ]
    n_queries = len(evaluation.query_points(test_split))
    assert counts["evaluation.evaluate_horizons"] == [n_queries]
    assert counts["pipeline.scorer_many"] == [n_queries, 25]
