"""Replay one meta batch at several dataset sizes: one candidate at a
time against one stacked fit per stack signature.

The batch is the one the ``full`` preset's meta stage submits on a
40-row ``madelon_like`` dataset of 4 columns (two informative, one noise
column in units 1000x larger), found by running probing, scaling and
filtering on it. The same candidates are then scored, in this process
and on every size's folds, by ``mccv_score`` one by one and by
``mccv_score_group`` on whole signature groups, with no size limit on a
group. Per-fold scores and statuses must be identical.

For each size it prints one JSON line: the stacked training cells of a
group (members x folds x train rows x width), the median seconds of
both ways over ``--repeats`` alternating repeats, and the peak of
``tracemalloc`` while the batch is scored each way (a separate pass, as
tracing slows the timed code).

Usage: python scripts/replay_meta_groups.py [--rows 40 160 640 1280 2560 5120] [--repeats 3]
"""

import argparse
import json
import statistics
import sys
import time
import tracemalloc
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from stagedml.components.registry import registry_default
from stagedml.data import Dataset
from stagedml.evaluation import EvalConfig, Evaluator, mccv_score, mccv_score_group, mccv_splits, stack_signature
from stagedml.rng import derive_seed
from stagedml.stages import CandidatePool, FilteringStage, ProbingStage, ScalingStage, StageContext
from stagedml.synth import make_dataset

WIDTH, INFORMATIVE, NOISE_COLUMN, SCALE = 4, 2, 3, 1000.0


def dataset(rows: int, seed: int) -> Dataset:
    d = make_dataset("madelon_like", rows, WIDTH, seed, informative=INFORMATIVE)
    x = d.instances.copy()
    x[:, NOISE_COLUMN] *= SCALE
    return Dataset(x, d.labels, d.feature_names, d.source_columns, d.class_names)


def meta_batch(registry, cfg: EvalConfig, seed: int) -> list:
    """The candidates the meta stage submits after probing, scaling and
    filtering on the 40-row dataset."""
    data = dataset(40, seed)
    evaluator = Evaluator(registry=registry, dataset=data, cfg=cfg)
    pool = CandidatePool()
    for stage in (ProbingStage(), ScalingStage(), FilteringStage()):
        ctx = StageContext(evaluator=evaluator, registry=registry, data=data, seed=derive_seed(seed, stage.stage_id))
        pool = stage.run(pool, ctx)
    evaluator.close()
    return [
        entry.candidate.with_meta(meta)
        for entry in pool.sorted_by_score()
        if entry.candidate.meta is None
        for meta in registry.meta_learner_ids()
    ]


def score_alone(batch, data, cfg, registry, folds):
    return [mccv_score(c, data, cfg, registry, folds=folds) for c in batch]


def score_grouped(batch, groups, data, cfg, registry, folds):
    scores = [None] * len(batch)
    for group in groups:
        for i, score in zip(group, mccv_score_group([batch[i] for i in group], data, cfg, registry, folds=folds)):
            scores[i] = score
    return scores


def peak_mb(fn) -> float:
    tracemalloc.start()
    fn()
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    return peak / 2**20


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--rows", type=int, nargs="+", default=[40, 160, 640, 1280, 2560, 5120])
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args()

    registry = registry_default()
    cfg = EvalConfig(seed=args.seed, per_eval_timeout=float("inf"))
    batch = meta_batch(registry, cfg, args.seed)
    signatures: dict = {}
    for i, candidate in enumerate(batch):
        signatures.setdefault(stack_signature(candidate, WIDTH), []).append(i)
    groups = list(signatures.values())

    for rows in args.rows:
        data = dataset(rows, derive_seed(args.seed, "rows", rows))
        folds = mccv_splits(data, cfg)
        n_train = len(folds[0][0])
        cells = [len(g) * cfg.repeats * n_train * width for (_, width), g in signatures.items()]
        alone_s, grouped_s = [], []
        for _ in range(args.repeats):
            started = time.perf_counter()
            alone = score_alone(batch, data, cfg, registry, folds)
            alone_s.append(time.perf_counter() - started)
            started = time.perf_counter()
            grouped = score_grouped(batch, groups, data, cfg, registry, folds)
            grouped_s.append(time.perf_counter() - started)
            if grouped != alone:
                raise SystemExit(f"{rows} rows: grouped scores differ from scores alone")
        line = {
            "rows": rows,
            "train_rows": n_train,
            "candidates": len(batch),
            "groups": len(groups),
            "group_cells": [min(cells), max(cells)],
            "alone_s": round(statistics.median(alone_s), 3),
            "grouped_s": round(statistics.median(grouped_s), 3),
            "grouped_over_alone": round(statistics.median(grouped_s) / statistics.median(alone_s), 3),
            "alone_peak_mb": round(peak_mb(lambda: score_alone(batch, data, cfg, registry, folds)), 2),
            "grouped_peak_mb": round(peak_mb(lambda: score_grouped(batch, groups, data, cfg, registry, folds)), 2),
        }
        print(json.dumps(line), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
