"""The three fixed-work workloads and the checks on their outputs.

Fixed work: every stage ``time_limit`` is ``None``; the global budget,
the per-evaluation budget and the tuning per-candidate budget are
infinite; tuning runs a fixed ``max_evals``. A run therefore does the
same evaluations however fast the code is, and a faster program shows
as a lower ``run_s``, never as more evaluations.

Each workload makes its inputs from the seed it is given (``inputs``),
runs one round of its search (``round``) and checks what the round
produced (``check_round``). The checks use independent arithmetic or
properties the method must have, never stored copies of earlier output.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass, replace
from pathlib import Path

import tracing

from stagedml import cli, data, evaluation, orchestrator, synth
from stagedml.components.registry import registry_default
from stagedml.rng import Rng, derive_seed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"


class CheckFailed(Exception):
    """An output of the program is wrong."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


@dataclass
class Round:
    """One fixed-work search: its wall time, its journal without
    ``wall_ms``, its operation counts and what the checks need."""

    seconds: float
    journal: list[dict]
    attempted: int
    failed: int
    outputs: dict


class Stopwatch:
    """Times the block it encloses; with a tracer, the block is also the
    root span of the traced round."""

    def __init__(self, tracer=None) -> None:
        self.tracer = tracer
        self.seconds = 0.0

    def __enter__(self) -> "Stopwatch":
        if self.tracer is not None:
            self.tracer.begin(tracing.ROOT_SPAN)
        self._started = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self.seconds = time.perf_counter() - self._started
        if self.tracer is not None:
            self.tracer.end()


def fixed_work(cfg: orchestrator.SchemeConfig, max_evals: int) -> orchestrator.SchemeConfig:
    stages = []
    for stage in cfg.stages:
        stage = replace(stage, time_limit=None)
        if stage.stage_id == "tuning":
            stage = replace(stage, max_evals=max_evals, per_candidate_seconds=math.inf)
        stages.append(stage)
    return replace(
        cfg,
        stages=stages,
        global_timeout=math.inf,
        eval=replace(cfg.eval, per_eval_timeout=math.inf),
    )


def _strip_wall(records) -> list[dict]:
    return [{k: v for k, v in r.items() if k != "wall_ms"} for r in records]


def _count_failed(records) -> int:
    return sum(1 for r in records if r["status"] != "ok")


# ---------------------------------------------------------------------------
# checks shared by the workloads


def check_folds(dataset, cfg: evaluation.EvalConfig) -> None:
    """The MCCV folds of a run are disjoint, cover every row, hold
    round-half-up(f * n) training rows, and keep every class within one
    row of its share f * n_c."""
    labels = [int(v) for v in dataset.labels]
    n = len(labels)
    f = cfg.train_fraction
    target = math.floor(f * n + 0.5)
    class_sizes = {c: labels.count(c) for c in set(labels)}
    for r, (train, val) in enumerate(evaluation.mccv_splits(dataset, cfg)):
        tr, va = [int(i) for i in train], [int(i) for i in val]
        require(not set(tr) & set(va), f"fold {r}: train and validation rows overlap")
        require(sorted(tr + va) == list(range(n)), f"fold {r}: rows not covered exactly once")
        require(len(tr) == target, f"fold {r}: {len(tr)} train rows, expected {target}")
        for c, size in class_sizes.items():
            in_train = sum(1 for i in tr if labels[i] == c)
            require(abs(in_train - f * size) <= 1.0, f"fold {r}: class {c} off its share")


def check_journal(records: list[dict]) -> None:
    """Every ok record's mean is the mean of its folds, and every fold
    error lies in [0, 1]."""
    require(records, "empty journal")
    for rec in records:
        if rec["status"] != "ok":
            continue
        folds = rec["per_fold"]
        require(folds and all(0.0 <= e <= 1.0 for e in folds), f"{rec['candidate_key']}: fold error outside [0, 1]")
        mean = math.fsum(folds) / len(folds)
        require(
            math.isclose(rec["mean"], mean, rel_tol=1e-12, abs_tol=1e-15),
            f"{rec['candidate_key']}: mean {rec['mean']!r} is not the mean of its folds {mean!r}",
        )


def check_same_seed(rounds: list[Round]) -> None:
    """Rounds run with the same seed give identical journals."""
    for i, r in enumerate(rounds[1:], start=2):
        require(r.journal == rounds[0].journal, f"round {i} journal differs from round 1 under the same seed")


def check_other_seeds(rounds: list[Round]) -> None:
    """Rounds run with different seeds give different journals."""
    for i, r in enumerate(rounds[1:], start=2):
        require(r.journal != rounds[0].journal, f"round {i} journal equals round 1 under another seed")


def round_seed(seed: int, r: int) -> int:
    """Seed of round r of a run: the run's own seed for the first round."""
    return seed if r == 0 else derive_seed(seed, "round", r) % 2**31


def check_fixed_work(stage_traces: list[dict], config: dict) -> None:
    """No deadline fired, no stage was skipped, and the echoed config
    really has every budget switched off."""
    for t in stage_traces:
        require(not t["deadline_hit"], f"stage {t['stage_id']} hit a deadline")
        require("skipped" not in t and "skipped" not in t.get("detail", {}), f"stage {t['stage_id']} was skipped")
    require(config["global_timeout"] == math.inf, "global_timeout is not infinite")
    require(config["eval"]["per_eval_timeout"] == math.inf, "per_eval_timeout is not infinite")
    for s in config["stages"]:
        require(s["time_limit"] is None, f"stage {s['stage_id']} has a time limit")
        if s["stage_id"] == "tuning":
            require(s["per_candidate_seconds"] == math.inf, "tuning per-candidate budget is finite")


def fresh_error(report, train, fresh, seed: int) -> float:
    """Error on ``fresh`` of the selected pipeline refitted on ``train``."""
    fitted = evaluation.fit_pipeline(
        report.best_candidate, train, registry_default(), seed=derive_seed(seed, "bench-refit")
    )
    return evaluation.error_rate(fresh.labels, fitted.predict(fresh.instances))


def majority_error(labels) -> float:
    counts = [int((labels == c).sum()) for c in set(int(v) for v in labels)]
    return 1.0 - max(counts) / len(labels)


def normal_cdf(z: float) -> float:
    return 0.5 * math.erfc(-z / math.sqrt(2.0))


# ---------------------------------------------------------------------------
# workloads on the library API


class ApiWorkload:
    """A preset searched through ``orchestrator.run`` on one dataset."""

    name = ""
    preset = ""
    max_evals = 1
    runs_children = False

    def config(self, seed: int) -> orchestrator.SchemeConfig:
        presets = orchestrator.scheme_presets(seed=seed, eval_config=evaluation.EvalConfig(seed=seed))
        return fixed_work(presets[self.preset], self.max_evals)

    def round(self, inputs: dict, seed: int, call=None, tracer=None) -> Round:
        cfg = self.config(seed)
        with Stopwatch(tracer) as watch:
            report = orchestrator.run(inputs["train"], cfg)
        return Round(
            seconds=watch.seconds,
            journal=_strip_wall(report.journal),
            attempted=len(report.journal),
            failed=_count_failed(report.journal),
            outputs={"report": report, "cfg": cfg},
        )

    def layer_dataset(self, inputs: dict):
        return inputs["train"]

    def check_round(self, inputs: dict, rnd: Round, seed: int) -> None:
        report, cfg = rnd.outputs["report"], rnd.outputs["cfg"]
        require(report.ok, f"no model found: {report.failure}")
        check_fixed_work(report.stage_traces, report.config)
        check_journal(rnd.journal)
        optimization, _ = orchestrator.holdout_split(inputs["train"], cfg)
        check_folds(optimization, replace(cfg.eval, seed=cfg.seed))
        self.check_result(inputs, report, cfg, seed)

    def check_result(self, inputs: dict, report, cfg, seed: int) -> None:
        raise NotImplementedError


class FullMadelon(ApiWorkload):
    """The paper's method end to end: all six stages on a linear concept
    over two informative columns, two noise columns and label noise.

    The dataset and the search seed are pinned and the workload seed
    permutes the rows. A round's cost depends on the draw itself (how
    many labels flipped, how deep trees grow, when AdaBoost stops) and
    on the tuning draws: over fresh draws per seed it varied by a
    quarter between seeds, over row orders of one draw by about 5 %.
    """

    name = "full-madelon"
    preset = "full"
    n, d, informative, max_evals = 40, 4, 2, 1
    data_seed = search_seed = 7
    scaled_column, scale = 3, 1000.0
    fresh_rows = 2000
    margin = 0.10  # "clearly below" the majority-class error

    def config(self, seed: int) -> orchestrator.SchemeConfig:
        return super().config(self.search_seed)

    def inputs(self, seed: int, call=None) -> dict:
        # madelon_like draws its column signs from its seed, so another
        # seed is another concept. The fresh sample is therefore the
        # continuation of the same stream: rows n.. of a longer draw.
        full = synth.make_dataset(
            "madelon_like", self.n + self.fresh_rows, self.d, self.data_seed, informative=self.informative
        )
        # one noise column in units 1000x larger: unscaled knn then sees
        # noise alone, so every scaler strictly improves it and the scaling
        # stage expands the same scalers whatever the row order
        x = full.instances.copy()
        x[:, self.scaled_column] *= self.scale
        full = data.Dataset(x, full.labels, full.feature_names, full.source_columns, full.class_names)
        order = list(range(self.n))
        Rng(seed).shuffle(order)
        return {
            "train": full.subset_rows(order),
            "fresh": full.subset_rows(range(self.n, self.n + self.fresh_rows)),
        }

    def check_result(self, inputs: dict, report, cfg, seed: int) -> None:
        require(report.selection_basis == orchestrator.SELECTION_VALIDATION_FINAL, "validation did not select")
        trace = next(t for t in report.stage_traces if t["stage_id"] == "validation")["detail"]
        h, total, n_bar = report.holdout_rows, inputs["train"].n_rows, cfg.validation.n_bar
        tau = min(1.0, h / n_bar)
        w = tau + (h / total) * (1.0 - tau)
        finalist = next(f for f in trace["finalists"] if f["key"] == report.best_key)
        internal = {r["candidate_key"]: r["mean"] for r in report.journal if not r["auxiliary"]}
        require(finalist["phi_int"] == internal[report.best_key], "phi_int is not the journal mean")
        require(
            math.isclose(finalist["phi_val"] * h, round(finalist["phi_val"] * h), abs_tol=1e-9),
            "phi_val is not a count of holdout errors over the holdout size",
        )
        blend = finalist["phi_int"] * (1.0 - w) + finalist["phi_val"] * w
        require(math.isclose(report.best_score, blend, rel_tol=1e-12, abs_tol=1e-15),
                f"selected score {report.best_score!r} is not the blend {blend!r}")
        require(report.best_score == min(f["final"] for f in trace["finalists"]), "selected finalist is not the best blend")
        err = fresh_error(report, inputs["train"], inputs["fresh"], seed)
        majority = majority_error(inputs["fresh"].labels)
        require(err <= majority - self.margin,
                f"fresh-sample error {err:.4f} not clearly below the majority-class error {majority:.4f}")


class FilterLargeN(ApiWorkload):
    """Probing, scaling and filtering on many rows and few columns, one
    of them a sigma=1000 noise column."""

    name = "filter-large-n"
    preset = "monotone-filtering"
    n, d = 1500, 6
    fresh_rows = 2000

    def inputs(self, seed: int, call=None) -> dict:
        return {
            "train": synth.make_dataset("scale_sensitive", self.n, self.d, seed),
            # the concept does not depend on the seed: class means are -3
            # and +3 on the first three columns, whatever the seed
            "fresh": synth.make_dataset("scale_sensitive", self.fresh_rows, self.d, derive_seed(seed, "fresh")),
        }

    def error_bound(self) -> float:
        """One informative column alone separates means -3 and +3 at unit
        variance, so its midpoint rule errs with probability Phi(-3).
        Allow three binomial standard errors of the fresh sample over
        that, plus one percentage point of estimation slack."""
        p = normal_cdf(-3.0)
        return p + 3.0 * math.sqrt(p * (1.0 - p) / self.fresh_rows) + 0.01

    def check_result(self, inputs: dict, report, cfg, seed: int) -> None:
        scaling = next(t for t in report.stage_traces if t["stage_id"] == "scaling")["detail"]
        require("standardize" in scaling["expanded_scalers"], "scaling did not expand standardize")
        err = fresh_error(report, inputs["train"], inputs["fresh"], seed)
        require(err <= self.error_bound(), f"fresh-sample error {err:.4f} above {self.error_bound():.4f}")


# ---------------------------------------------------------------------------
# workload on the command line


class CliBenchTiny:
    """synth, bench and report through the command line, on two tiny
    datasets: many short runs, so per-call overhead weighs most.

    The datasets are pinned and the workload seed is the ``--seed`` of
    ``bench``, which draws the outer splits and every cell's search
    seed. With fresh datasets for every seed, the evaluations of a round
    varied by a tenth between seeds.
    """

    name = "cli-bench-tiny"
    runs_children = True
    datasets = (("scale", "scale_sensitive", 40, 4), ("madelon", "madelon_like", 40, 4))
    presets = ("primitive", "single-scaling", "single-filtering", "monotone-filtering")
    data_seed = 7
    splits = 10
    trim = 0.10
    report_range = "monotone-filtering=single-scaling,single-filtering"

    def __init__(self) -> None:
        self.dir = OUT / self.name

    def _cli(self, argv: list[str], call) -> None:
        """Run one command: in this process through ``call`` (``cli.main``
        or a traced wrapper of it), or as a child process when ``call``
        is None."""
        if call is not None:
            with contextlib.redirect_stdout(io.StringIO()):
                code = call(argv)
            require(code == 0, f"stagedml {argv[0]} exited with {code}")
            return
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
        done = subprocess.run(
            [sys.executable, "-m", "stagedml.cli", *argv],
            cwd=self.dir, env=env, capture_output=True, text=True, check=False,
        )
        require(done.returncode == 0, f"stagedml {argv[0]} exited with {done.returncode}: {done.stderr.strip()}")

    def inputs(self, seed: int, call=None) -> dict:
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        paths, loaded = [], []
        for stem, kind, n, d in self.datasets:
            path = self.dir / f"{stem}.csv"
            self._cli(["synth", "--kind", kind, "--n", str(n), "--d", str(d),
                       "--seed", str(derive_seed(self.data_seed, stem) % 2**31), "--out", str(path)], call)
            paths.append(path)
            loaded.append(data.load_dataset(path, label_column="label"))
        return {"paths": paths, "datasets": loaded}

    def layer_dataset(self, inputs: dict):
        return inputs["datasets"][0]

    def round(self, inputs: dict, seed: int, call=None, tracer=None) -> Round:
        bench_dir, tables_dir = self.dir / "bench", self.dir / "tables"
        shutil.rmtree(bench_dir, ignore_errors=True)
        shutil.rmtree(tables_dir, ignore_errors=True)
        bench = ["bench", "--label", "label", "--splits", str(self.splits), "--seed", str(seed),
                 "--global-timeout", "inf", "--per-eval-timeout", "inf",
                 "--tuning-candidate-seconds", "inf", "--out", str(bench_dir)]
        for path in inputs["paths"]:
            bench += ["--data", str(path)]
        for preset in self.presets:
            bench += ["--preset", preset]
        report = ["report", "--results", str(bench_dir / "results.csv"), "--baseline", "primitive",
                  "--range", self.report_range, "--out", str(tables_dir)]
        with Stopwatch(tracer) as watch:
            self._cli(bench, call)
            self._cli(report, call)
        return self._collect(watch.seconds, bench_dir, tables_dir)

    def _collect(self, seconds: float, bench_dir: Path, tables_dir: Path) -> Round:
        with open(bench_dir / "journal.jsonl", encoding="utf-8") as fh:
            journal = [json.loads(line) for line in fh]
        with open(bench_dir / "results.csv", encoding="utf-8", newline="") as fh:
            results = list(csv.DictReader(fh))
        reports = {}
        for path in sorted((bench_dir / "runs").glob("*/report.json")):
            # json.load accepts the Infinity the reports carry for infinite budgets
            with open(path, encoding="utf-8") as fh:
                reports[path.parent.name] = json.load(fh)
        tables = {}
        for name in ("mean_table", "tournament"):
            with open(tables_dir / f"{name}.csv", encoding="utf-8", newline="") as fh:
                tables[name] = list(csv.DictReader(fh))
        cells = len(self.datasets) * len(self.presets) * self.splits
        done_cells = sum(1 for row in results if row["error"] != "")
        return Round(
            seconds=seconds,
            journal=_strip_wall(journal),
            attempted=len(journal) + cells,
            failed=_count_failed(journal) + cells - done_cells,
            outputs={"results": results, "reports": reports, "tables": tables},
        )

    def check_round(self, inputs: dict, rnd: Round, seed: int) -> None:
        check_journal(rnd.journal)
        for doc in rnd.outputs["reports"].values():
            check_fixed_work(doc["stage_traces"], doc["config"])
        for ds in inputs["datasets"]:
            check_folds(ds, evaluation.EvalConfig(seed=seed))
        out = rnd.outputs
        stems = [stem for stem, *_ in self.datasets]
        expected = {(s, p, str(i)) for s in stems for p in self.presets for i in range(self.splits)}
        keys = [(row["dataset_id"], row["approach_id"], row["split_index"]) for row in out["results"]]
        require(len(keys) == len(expected) and set(keys) == expected,
                "results.csv does not hold exactly one row per (dataset, preset, split)")
        errors: dict[tuple[str, str], list[float]] = {}
        for row in out["results"]:
            e = float(row["error"])
            require(0.0 <= e <= 1.0, f"error {e} outside [0, 1]")
            errors.setdefault((row["dataset_id"], row["approach_id"]), []).append(e)
        require(len(out["reports"]) == len(expected), "a bench cell wrote no report.json")
        mean_rows = out["tables"]["mean_table"]
        require(len(mean_rows) == len(errors), "mean_table.csv misses (dataset, preset) rows")
        for row in mean_rows:
            values = sorted(errors[(row["dataset_id"], row["approach_id"])])
            k = math.floor(self.trim * len(values))
            kept = values[k : len(values) - k]
            own = math.fsum(kept) / len(kept)
            require(math.isclose(float(row["trimmed_mean"]), own, rel_tol=1e-12, abs_tol=1e-15),
                    f"trimmed mean of {row['dataset_id']}/{row['approach_id']} is not {own!r}")
        tour = out["tables"]["tournament"]
        require(len(tour) == len(self.presets) - 1, "tournament misses a variant")
        for row in tour:
            total = int(row["wins"]) + int(row["losses"]) + int(row["draws"])
            require(total == len(stems), f"tournament row {row['approach_id']} sums to {total}")


WORKLOADS = {w.name: w for w in (FullMadelon, FilterLargeN, CliBenchTiny)}
