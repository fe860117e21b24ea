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

import atrisk.cli  # the benchmark runs the CLI, so it is loaded there too
from atrisk.augmentation import AugmentationConfig, augment
from atrisk.labeling import build_original_pairs
from atrisk.synthgen import SimConfig, generate_cohort
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
    cohort, _, _ = generate_cohort(SimConfig(n_students=60, seed=1))
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
