"""Span tracing of a run, from outside the package.

``instrumented(tracer)`` swaps the public entry points of each
``stagedml`` module for wrappers that open a span around the call, and
swaps them back on exit; ``src/`` itself is not touched. Learners,
meta-learners, scalers and filters are traced through a ``Registry``
built here from the default catalog, whose callables are wrapped (and
whose fitted models get a wrapped ``predict``). Spans are kept in memory
and written out when the run ends.
"""

from __future__ import annotations

import contextlib
import time
from collections import Counter
from dataclasses import replace

import harness

from stagedml import cli, data, evaluation, orchestrator, stages, stats, synth
from stagedml.components.registry import Registry, registry_default

ROOT_SPAN = "bench.round"
STAGE_CLASSES = (
    stages.ProbingStage,
    stages.ScalingStage,
    stages.FilteringStage,
    stages.MetaStage,
    stages.TuningStage,
    stages.ValidationStage,
)
STAGE_IDS = tuple(cls.stage_id for cls in STAGE_CLASSES)
SYNTH_KINDS = ("madelon_like", "scale_sensitive")


class Tracer:
    """In-memory span recorder: name, start, end and parent of each span,
    plus named counters."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.counters: Counter = Counter()
        self._stack: list[dict] = []

    def begin(self, name: str) -> dict:
        span = {
            "id": len(self.spans),
            "name": name,
            "start": time.perf_counter(),
            "end": None,
            "parent": self._stack[-1]["id"] if self._stack else None,
        }
        self.spans.append(span)
        self._stack.append(span)
        return span

    def end(self) -> None:
        self._stack.pop()["end"] = time.perf_counter()

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            self.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end()

        return traced

    def enclosing(self, prefix: str) -> str | None:
        """Name of the innermost open span whose name starts with prefix."""
        for span in reversed(self._stack):
            if span["name"].startswith(prefix):
                return span["name"]
        return None


class _Patches:
    def __init__(self) -> None:
        self._saved: list[tuple[object, str, object]] = []

    def set(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def restore(self) -> None:
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)


def traced_registry(tracer: Tracer) -> Registry:
    """The default catalog with every fit, transform, predict and filter
    score wrapped in a span."""
    base = registry_default()
    learners = {}
    for lid, spec in base.learners.items():
        group = "meta" if spec.is_meta else "learners"

        def fit(*args, _fit=spec.fit, _name=f"{group}.{lid}", **kwargs):
            tracer.begin(f"{_name}.fit")
            try:
                model = _fit(*args, **kwargs)
            finally:
                tracer.end()
            model.predict = tracer.wrap(f"{_name}.predict", model.predict)
            return model

        learners[lid] = replace(spec, fit=fit)
    scalers = {}
    for sid, spec in base.scalers.items():

        def fit_scaler(X, _fit=spec.fit, _name=f"scaling.{sid}"):
            tracer.begin(f"{_name}.fit")
            try:
                scaler = _fit(X)
            finally:
                tracer.end()
            scaler.transform = tracer.wrap(f"{_name}.transform", scaler.transform)
            return scaler

        scalers[sid] = replace(spec, fit=fit_scaler)
    filters = {
        fid: replace(spec, score=tracer.wrap(f"filters.{fid}.score", spec.score))
        for fid, spec in base.filters.items()
    }
    return Registry(learners=learners, scalers=scalers, filters=filters)


@contextlib.contextmanager
def instrumented(tracer: Tracer):
    """Route every traced entry point through ``tracer`` while active."""
    patches = _Patches()
    registry = traced_registry(tracer)
    try:
        patches.set(orchestrator, "_registry", lambda: registry)
        patches.set(cli, "registry_default", lambda: registry)
        patches.set(orchestrator, "run", tracer.wrap("orchestrator.run", orchestrator.run))
        for cls in STAGE_CLASSES:
            patches.set(cls, "run", tracer.wrap(f"stages.{cls.stage_id}", cls.run))

        original_evaluate = evaluation.Evaluator.evaluate

        def evaluate(self, *args, **kwargs):
            before = self.evaluation_count
            tracer.begin("evaluation.evaluate")
            try:
                return original_evaluate(self, *args, **kwargs)
            finally:
                tracer.end()
                tracer.counters["evaluation.evaluate_calls"] += 1
                if self.evaluation_count == before:
                    tracer.counters["evaluation.cache_hits"] += 1
                else:
                    tracer.counters[f"{tracer.enclosing('stages.')}.evaluations"] += 1

        patches.set(evaluation.Evaluator, "evaluate", evaluate)
        patches.set(evaluation, "mccv_score", tracer.wrap("evaluation.mccv_score", evaluation.mccv_score))
        patches.set(evaluation, "mccv_splits", tracer.wrap("evaluation.mccv_splits", evaluation.mccv_splits))
        traced_split = tracer.wrap("data.split_indices", data.split_indices)
        traced_project = tracer.wrap("data.project", data.project)
        for module in (data, evaluation):
            patches.set(module, "split_indices", traced_split)
            patches.set(module, "project", traced_project)
        patches.set(data.Dataset, "subset_rows", tracer.wrap("data.subset_rows", data.Dataset.subset_rows))
        patches.set(cli, "load_dataset", tracer.wrap("data.load_dataset", cli.load_dataset))
        for kind in SYNTH_KINDS:
            patches.set(synth, kind, tracer.wrap(f"synth.{kind}", getattr(synth, kind)))

        original_wilcoxon = stats.wilcoxon_signed_rank

        def wilcoxon(*args, **kwargs):
            tracer.counters["stats.wilcoxon_calls"] += 1
            return original_wilcoxon(*args, **kwargs)

        patches.set(stats, "wilcoxon_signed_rank", wilcoxon)
        yield tracer
    finally:
        patches.restore()


# ---------------------------------------------------------------------------
# per-layer metrics from the spans of one traced round

LEARNER_IDS = ("knn", "gaussian_nb", "decision_tree", "logistic_regression", "random_forest")
META_IDS = ("bagging", "adaboost")
SCALER_IDS = ("standardize", "minmax", "quantile_rank")
FILTER_IDS = ("pearson_correlation", "mutual_information", "chi_squared", "variance")


def _self_metric(name: str) -> str:
    """The per-layer metric that a span's self time is booked to. Every
    span inside a round maps to exactly one, so these metrics add up to
    the round's root span."""
    group, _, rest = name.partition(".")
    if name == ROOT_SPAN:
        return "trace.root_self_s"
    if group == "cli":
        return "cli.self_s"
    if name == "orchestrator.run":
        return "orchestrator.self_s"
    if group == "stages":
        return f"stages.{rest}.self_s"
    if name == "evaluation.mccv_score":
        return "evaluation.overhead_s"
    if name in ("evaluation.evaluate", "evaluation.mccv_splits"):
        return f"{name}_self_s"
    if group == "meta" and rest.endswith(".fit"):
        return f"{name}_self_s"
    if group in ("learners", "meta", "scaling", "filters", "data"):
        return f"{name}_s"
    raise ValueError(f"span {name!r} has no per-layer metric")


SELF_METRICS = (
    ["trace.root_self_s", "cli.self_s", "orchestrator.self_s"]
    + [f"stages.{s}.self_s" for s in STAGE_IDS]
    + ["evaluation.evaluate_self_s", "evaluation.overhead_s", "evaluation.mccv_splits_self_s"]
    + [f"learners.{i}.{op}_s" for i in LEARNER_IDS for op in ("fit", "predict")]
    + [f"meta.{i}.fit_self_s" for i in META_IDS]
    + [f"meta.{i}.predict_s" for i in META_IDS]
    + [f"scaling.{i}.{op}_s" for i in SCALER_IDS for op in ("fit", "transform")]
    + [f"filters.{i}.score_s" for i in FILTER_IDS]
    + ["data.split_indices_s", "data.subset_rows_s", "data.project_s", "data.load_dataset_s"]
)


def layer_metrics(tracer: Tracer, root: dict) -> dict[str, float]:
    """Self times, inclusive times and counts of every layer inside the
    root span, plus the root's duration and the sum of the self times."""
    spans = harness.subtree(tracer.spans, root["id"])
    selfs = harness.self_times(spans)
    by_id = {s["id"]: s for s in spans}
    out: dict[str, float] = {name: 0.0 for name in SELF_METRICS}
    inclusive: Counter = Counter()
    calls: Counter = Counter()
    for s in spans:
        out[_self_metric(s["name"])] += selfs[s["id"]]
        inclusive[s["name"]] += s["end"] - s["start"]
        calls[s["name"]] += 1
        parent = by_id.get(s["parent"])
        if s["name"].startswith("learners.") and s["name"].endswith(".fit") and parent:
            if parent["name"].startswith("meta.") and parent["name"].endswith(".fit"):
                calls[f"{parent['name']}.base_fits"] += 1
        if s["name"] == "orchestrator.run" and parent and parent["name"] == "cli.bench":
            calls["cli.bench_cells"] += 1
    for lid in LEARNER_IDS:
        out[f"learners.{lid}.calls"] = calls[f"learners.{lid}.fit"]
    for mid in META_IDS:
        out[f"meta.{mid}.base_fits"] = calls[f"meta.{mid}.fit.base_fits"]
    for sid in SCALER_IDS:
        out[f"scaling.{sid}.calls"] = calls[f"scaling.{sid}.fit"]
    for stage in STAGE_IDS:
        out[f"stages.{stage}.s"] = float(inclusive[f"stages.{stage}"])
        out[f"stages.{stage}.evaluations"] = tracer.counters[f"stages.{stage}.evaluations"]
    evaluate_calls = tracer.counters["evaluation.evaluate_calls"]
    hits = tracer.counters["evaluation.cache_hits"]
    out["evaluation.evaluations"] = evaluate_calls - hits
    out["evaluation.cache_hit_ratio"] = hits / evaluate_calls if evaluate_calls else 0.0
    out["evaluation.mccv_score_s"] = float(inclusive["evaluation.mccv_score"])
    out["data.split_indices.calls"] = calls["data.split_indices"]
    out["cli.bench_s"] = float(inclusive["cli.bench"])
    out["cli.report_s"] = float(inclusive["cli.report"])
    out["cli.bench_cells"] = calls["cli.bench_cells"]
    out["stats.wilcoxon_calls"] = tracer.counters["stats.wilcoxon_calls"]
    out["trace.root_s"] = root["end"] - root["start"]
    out["trace.self_sum_s"] = sum(out[name] for name in SELF_METRICS)
    return out


def synth_metrics(tracer: Tracer) -> dict[str, float]:
    """Generation time of each synthetic kind, over spans outside rounds."""
    out = {f"synth.{kind}_s": 0.0 for kind in SYNTH_KINDS}
    for s in tracer.spans:
        if s["name"].startswith("synth."):
            out[f"{s['name']}_s"] += s["end"] - s["start"]
    return out
