"""The benchmark's span tracer still finds every name it wraps.

``benchmark/tracing.py`` patches public names of ``stagedml`` from
outside the package. A refactor that drops or renames one of them, or
fits a learner around its registry entry, must fail here, not only in a
traced benchmark run.
"""

import importlib
from pathlib import Path

import pytest

from stagedml import orchestrator
from stagedml.evaluation import EvalConfig
from stagedml.synth import make_dataset

BENCHMARK = Path(__file__).resolve().parents[1] / "benchmark"


def test_traced_search_books_every_span(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCHMARK))
    tracing = importlib.import_module("tracing")
    tracer = tracing.Tracer()
    data = make_dataset("scale_sensitive", 80, 4, 1)
    cfg = orchestrator.scheme_presets(seed=1, eval_config=EvalConfig(seed=1))["monotone-filtering"]
    with tracing.instrumented(tracer):
        root = tracer.begin(tracing.ROOT_SPAN)
        try:
            report = orchestrator.run(data, cfg)
        finally:
            tracer.end()
    metrics = tracing.layer_metrics(tracer, root)
    assert report.ok
    assert metrics["evaluation.evaluations"] == len(report.journal)
    # a logistic-regression or knn evaluation fits all its folds in one traced call
    learners = [r["candidate_key"].split("|")[2] for r in report.journal if r["status"] == "ok"]
    for lid, op in (("logistic_regression", "fit"), ("knn", "predict")):
        fitted = learners.count(lid)
        assert fitted and metrics[f"learners.{lid}.calls"] == fitted
        assert metrics[f"learners.{lid}.{op}_s"] > 0
    assert metrics["trace.self_sum_s"] == pytest.approx(metrics["trace.root_s"], rel=1e-9)
