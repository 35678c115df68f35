"""How a run is measured: timed rounds for the end-to-end metrics, and
a traced round plus fixed-size layer blocks for the per-layer metrics."""

from __future__ import annotations

import json
import math
import statistics
import time
from pathlib import Path

import harness
import tracing
import workloads

from stagedml import cli
from stagedml.components.registry import registry_default
from stagedml.evaluation import Candidate, EvalConfig, mccv_score
from stagedml.rng import Rng

TRACES = Path(__file__).resolve().parent / "traces"

MIN_ROUNDS = 2
MIN_SETUPS = 3
SETUP_SECONDS = 0.5
LAYER_REPEATS = 3
RNG_DRAWS = 200_000
SHUFFLE_SIZE = 100_000
EVAL_KINDS = {
    "knn": Candidate("knn"),
    "gaussian_nb": Candidate("gaussian_nb"),
    "logistic_regression": Candidate("logistic_regression"),
    "decision_tree": Candidate("decision_tree"),
    "random_forest": Candidate("random_forest"),
    "adaboost-logistic_regression": Candidate("logistic_regression", meta="adaboost"),
    "bagging-decision_tree": Candidate("decision_tree", meta="bagging"),
    "bagging-random_forest": Candidate("random_forest", meta="bagging"),
}


def _summary_line(name: str, samples, unit: str, what: str) -> str:
    s = harness.summarize(samples)
    tail = "".join(f", {k} {v:.4f}" for k, v in s.items() if k.startswith("p"))
    return f"  {name:<12} median {s['median']:.4f} {unit}{tail} over {s['n']} {what}"


def timed_run(workload, seed: int, seconds: float) -> tuple[dict, list, int, int, list]:
    """Run whole rounds, each on the inputs of its own seed, until their
    time adds up to ``seconds`` (at least MIN_ROUNDS).
    Before each round, set its inputs up until the set-ups add up to
    SETUP_SECONDS (at least MIN_SETUPS), so set-up samples spread over
    the whole run."""
    setup, rounds, elapsed = [], [], 0.0
    while len(rounds) < MIN_ROUNDS or elapsed + rounds[-1].seconds <= seconds:
        round_seed = workloads.round_seed(seed, len(rounds))
        spent = []
        while len(spent) < MIN_SETUPS or sum(spent) < SETUP_SECONDS:
            started = time.perf_counter()
            inputs = workload.inputs(round_seed)
            spent.append(time.perf_counter() - started)
        setup += spent
        rnd = workload.round(inputs, round_seed)
        workload.check_round(inputs, rnd, round_seed)
        rounds.append(rnd)
        elapsed += rnd.seconds
    rss = harness.peak_rss_mb(children=workload.runs_children)
    workloads.check_other_seeds(rounds)
    run_s = [r.seconds for r in rounds]
    metrics = {"setup_s": statistics.median(setup), "run_s": statistics.median(run_s), "peak_rss_mb": rss}
    lines = [
        _summary_line("setup_s", setup, "s", "set-ups"),
        _summary_line("run_s", run_s, "s", "rounds") + ": " + " ".join(f"{v:.3f}" for v in run_s),
        f"  {'peak_rss_mb':<12} {rss:.1f} MB",
    ]
    return metrics, rounds, sum(r.attempted for r in rounds), sum(r.failed for r in rounds), lines


def layer_blocks(dataset, seed: int) -> dict:
    """Fixed-size blocks timed untraced: RNG draws, and one 5-repeat MCCV
    evaluation of each candidate kind of the baseline table."""
    out = {}
    draws, shuffles = [], []
    for _ in range(LAYER_REPEATS):
        rng = Rng(seed)
        started = time.perf_counter()
        for _ in range(RNG_DRAWS):
            rng.randbelow(1000)
        draws.append(RNG_DRAWS / (time.perf_counter() - started))
        xs = list(range(SHUFFLE_SIZE))
        started = time.perf_counter()
        rng.shuffle(xs)
        shuffles.append(time.perf_counter() - started)
    out["rng.randbelow_per_s"] = statistics.median(draws)
    out["rng.shuffle_s"] = statistics.median(shuffles)
    cfg = EvalConfig(seed=seed, per_eval_timeout=math.inf)
    registry = registry_default()
    for name, candidate in EVAL_KINDS.items():
        started = time.perf_counter()
        score = mccv_score(candidate, dataset, cfg, registry)
        out[f"evaluation.ms_per_eval.{name}"] = (time.perf_counter() - started) * 1000.0
        workloads.require(score.ok, f"{name}: evaluation status {score.status}")
    return out


def traced_run(workload, seed: int) -> tuple[dict, list, int, int, list]:
    """One traced round between two untraced ones, all on ``seed``."""
    tracer = tracing.Tracer()

    def traced_cli(argv):
        return tracer.wrap(f"cli.{argv[0]}", cli.main)(argv)

    with tracing.instrumented(tracer):
        inputs = workload.inputs(seed, call=traced_cli)
    before = workload.round(inputs, seed, call=cli.main)
    with tracing.instrumented(tracer):
        traced = workload.round(inputs, seed, call=traced_cli, tracer=tracer)
    after = workload.round(inputs, seed, call=cli.main)
    rounds = [before, traced, after]
    for rnd in rounds:
        workload.check_round(inputs, rnd, seed)
    workloads.check_same_seed(rounds)

    root = next(s for s in reversed(tracer.spans) if s["name"] == tracing.ROOT_SPAN)
    metrics = tracing.layer_metrics(tracer, root)
    n_spans = len(tracer.spans)
    workloads.require(
        abs(metrics["trace.self_sum_s"] - metrics["trace.root_s"]) <= 1e-9 * n_spans,
        "per-layer self times do not add up to the root span",
    )
    workloads.require(
        metrics["evaluation.evaluations"] == len(traced.journal),
        "the trace saw another number of evaluations than the journal holds",
    )
    untraced_s = statistics.median([before.seconds, after.seconds])
    metrics["trace.overhead_s"] = metrics["trace.root_s"] - untraced_s
    metrics["evaluation.evals_per_s"] = len(traced.journal) / untraced_s
    metrics.update(tracing.synth_metrics(tracer))
    metrics.update(layer_blocks(workload.layer_dataset(inputs), seed))

    TRACES.mkdir(exist_ok=True)
    with open(TRACES / f"{workload.name}-seed{seed}.json", "w", encoding="utf-8") as fh:
        json.dump({"workload": workload.name, "seed": seed, "spans": tracer.spans,
                   "counters": dict(tracer.counters), "metrics": metrics}, fh)
    lines = [
        f"  untraced round {untraced_s:.4f} s, traced round {metrics['trace.root_s']:.4f} s, "
        f"tracing overhead {metrics['trace.overhead_s']:.4f} s over {n_spans} spans",
    ]
    return metrics, rounds, sum(r.attempted for r in rounds), sum(r.failed for r in rounds), lines
