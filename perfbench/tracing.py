"""Span tracing around atrisk's public functions, from outside the package.

`Tracer.install()` replaces each traced function with a wrapper that records
a span (id, parent id, name, start, end, count). A function is replaced under
every name that binds it, so calls through names imported with
`from .x import y` (for example `atrisk.cli.ingest` or
`atrisk.pipeline.augment`) are traced too. Spans stay in memory until
`write()`; `layer_metrics()` folds them into per-layer numbers, where a
layer's self time is its span time minus the time of its child spans.
"""

from __future__ import annotations

import functools
import json
import sys
import time

import numpy as np

import atrisk  # noqa: F401  (loads every submodule that may bind a traced name)
from atrisk import gbdt, pipeline


def _n_events(args, kwargs, cohort):
    return sum(len(s.observations) for s in cohort)


def _pair_counts(args, kwargs, out):
    positives, negatives = out
    return (len(positives), len(negatives))


def _sample_counts(args, kwargs, out):
    negatives = args[2] if len(args) > 2 else kwargs["negatives"]
    return (len(out), len(out) - len(negatives))


def _predict_rows(args, kwargs, out):
    return int(np.shape(out)[0])


def _fit_counts(args, kwargs, model):
    rows = int(np.shape(args[0] if args else kwargs["X"])[0])
    count = 0
    for tree in model.trees:
        stack = [tree]
        while stack:
            node = stack.pop()
            count += 1
            if not node.is_leaf:
                stack += [node.left, node.right]
    return (rows, count, len(model.trees))


def _len_out(args, kwargs, out):
    return len(out)


def _len_points(args, kwargs, out):
    return len(args[1] if len(args) > 1 else kwargs["points"])


def _n_queries(args, kwargs, report):
    return max(report.n_queries_by_horizon.values(), default=0)


# (span name, module that defines it, attribute, count taken from the call)
FUNCTIONS = [
    ("events.ingest", "atrisk.events", "ingest", _n_events),
    ("features.assemble", "atrisk.features", "assemble", None),
    ("features.fit_pca", "atrisk.features", "fit_pca", None),
    ("features.build_teacher_history", "atrisk.features", "build_teacher_history", None),
    ("labeling.build_original_pairs", "atrisk.labeling", "build_original_pairs", _pair_counts),
    ("labeling.write_pairs_csv", "atrisk.labeling", "write_pairs_csv", None),
    ("augmentation.augment", "atrisk.augmentation", "augment", _len_out),
    ("trainer.oversample", "atrisk.trainer", "oversample", _sample_counts),
    ("trainer.fit_gbdt", "atrisk.trainer", "fit_gbdt", None),
    ("gbdt.fit", "atrisk.gbdt", "fit", _fit_counts),
    ("pipeline.train", "atrisk.pipeline", "train", None),
    ("evaluation.evaluate_horizons", "atrisk.evaluation", "evaluate_horizons", _n_queries),
    ("evaluation.daily_flagging", "atrisk.evaluation", "daily_flagging", None),
    ("evaluation.auc", "atrisk.evaluation", "auc", None),
    ("cli.main", "atrisk.cli", "main", None),
    ("cli.write_manifest", "atrisk.cli", "_write_manifest", None),
]
METHODS = [
    ("gbdt.predict_proba", gbdt.GBDTModel, "predict_proba", _predict_rows),
    ("pipeline.scorer_many", pipeline.PipelineScorer, "many", _len_points),
]

# Span names each workload must produce when traced.
EXPECTED = {
    "common": [
        "events.ingest", "features.assemble", "features.fit_pca",
        "features.build_teacher_history", "labeling.build_original_pairs",
        "augmentation.augment", "trainer.oversample", "trainer.fit_gbdt", "gbdt.fit",
        "gbdt.predict_proba", "pipeline.train", "pipeline.scorer_many",
        "evaluation.evaluate_horizons", "evaluation.auc",
    ],
    "cli_deploy": ["labeling.write_pairs_csv", "evaluation.daily_flagging",
                   "cli.main", "cli.write_manifest"],
    "score_daily": [],
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [id, parent, name, start, end, count]
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def span_wrapper(self, name, fn, count=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [len(spans), stack[-1] if stack else -1, name, clock(), 0.0, None]
            spans.append(span)
            stack.append(span[0])
            try:
                out = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[4] = clock()
            if count is not None:
                span[5] = count(args, kwargs, out)
            return out

        return traced

    def _replace(self, owner, attr, new):
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self) -> None:
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "atrisk" or n.startswith("atrisk."))]
        for name, module_name, attr, count in FUNCTIONS:
            original = getattr(sys.modules[module_name], attr)
            traced = self.span_wrapper(name, original, count)
            for module in modules:
                if module.__dict__.get(attr) is original:
                    self._replace(module, attr, traced)
        for name, cls, attr, count in METHODS:
            self._replace(cls, attr, self.span_wrapper(name, getattr(cls, attr), count))

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for sid, parent, name, start, end, count in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "name": name,
                                     "start": start, "end": end, "count": count}) + "\n")

    def layer_metrics(self) -> dict[str, float]:
        total: dict[str, float] = {}
        self_time: dict[str, float] = {}
        calls: dict[str, int] = {}
        child_time = [0.0] * len(self.spans)
        for _, parent, _, start, end, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        for sid, _, name, start, end, _ in self.spans:
            total[name] = total.get(name, 0.0) + (end - start)
            self_time[name] = self_time.get(name, 0.0) + (end - start - child_time[sid])
            calls[name] = calls.get(name, 0) + 1

        def counts(name):
            # a span whose call raised has no count
            return [s[5] for s in self.spans if s[2] == name and s[5] is not None]

        def ratio(a, b):
            return a / b if b else 0.0

        n_events = sum(counts("events.ingest"))
        pos_neg = counts("labeling.build_original_pairs")
        fit = counts("gbdt.fit")
        fit_rows = sum(rows for rows, _, _ in fit)
        fit_nodes = sum(nodes for _, nodes, _ in fit)
        fit_trees = sum(trees for _, _, trees in fit)
        sampled = counts("trainer.oversample")
        predict_rows = sum(counts("gbdt.predict_proba"))
        many_rows = sum(counts("pipeline.scorer_many"))
        t = total.get
        return {
            "events.ingest_s": t("events.ingest", 0.0),
            "events.ingest_events_per_s": ratio(n_events, t("events.ingest", 0.0)),
            "events.n_events": n_events,
            "features.assemble_calls": calls.get("features.assemble", 0),
            "features.assemble_s": t("features.assemble", 0.0),
            "features.assemble_us_per_call": 1e6 * ratio(
                t("features.assemble", 0.0), calls.get("features.assemble", 0)),
            "features.fit_pca_s": t("features.fit_pca", 0.0),
            "features.teacher_history_s": t("features.build_teacher_history", 0.0),
            "labeling.build_pairs_s": t("labeling.build_original_pairs", 0.0),
            "labeling.n_original_pos": sum(p for p, _ in pos_neg),
            "labeling.n_original_neg": sum(n for _, n in pos_neg),
            "labeling.write_pairs_s": t("labeling.write_pairs_csv", 0.0),
            "augmentation.augment_self_s": self_time.get("augmentation.augment", 0.0),
            "augmentation.n_pseudo": sum(counts("augmentation.augment")),
            "trainer.oversample_s": t("trainer.oversample", 0.0),
            "trainer.n_drawn": sum(drawn for _, drawn in sampled),
            "trainer.fit_gbdt_self_s": self_time.get("trainer.fit_gbdt", 0.0),
            "trainer.merge_ratio": ratio(fit_rows, sum(out for out, _ in sampled)),
            "gbdt.fit_s": t("gbdt.fit", 0.0),
            "gbdt.fit_s_per_tree": ratio(t("gbdt.fit", 0.0), fit_trees),
            "gbdt.fit_rows": fit_rows,
            "gbdt.nodes_built": fit_nodes,
            "gbdt.predict_rows": predict_rows,
            "gbdt.predict_rows_per_s": ratio(predict_rows, t("gbdt.predict_proba", 0.0)),
            "pipeline.train_self_s": self_time.get("pipeline.train", 0.0),
            "pipeline.scorer_many_calls": calls.get("pipeline.scorer_many", 0),
            "pipeline.scorer_us_per_row": 1e6 * ratio(
                t("pipeline.scorer_many", 0.0), many_rows),
            "evaluation.evaluate_horizons_self_s":
                self_time.get("evaluation.evaluate_horizons", 0.0),
            "evaluation.daily_flagging_self_s":
                self_time.get("evaluation.daily_flagging", 0.0),
            "evaluation.auc_calls": calls.get("evaluation.auc", 0),
            "evaluation.auc_s": t("evaluation.auc", 0.0),
            "evaluation.n_queries": sum(counts("evaluation.evaluate_horizons")),
            "cli.self_s": self_time.get("cli.main", 0.0),
            "cli.manifest_s": t("cli.write_manifest", 0.0),
        }

    def missing_spans(self, workload: str) -> list[str]:
        seen = {s[2] for s in self.spans}
        return [n for n in EXPECTED["common"] + EXPECTED[workload] if n not in seen]
