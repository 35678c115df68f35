"""Time the logistic-regression epoch, the knn predict, the gaussian
naive Bayes fit plus predict and the random-forest fit and predict at the
shapes the benchmark's workloads fit, and check that a stacked fit or
predict equals each slice's fit or predict as a stack of one, bit for bit.

Each shape is a stack as ``mccv_score_group``, bagging or the validation
refit hands it to the learner: r slices of n train rows and d columns,
two classes, and for knn, gaussian NB and forest predicts m prediction
rows per slice. The data are standard normal draws from ``--seed``. Every
repeat fits (LR, forests), predicts (knn, forest predicts) or fits and
predicts (NB) the whole stack once; an LR fit runs ``--epochs`` epochs,
a forest grows its default depth and feature subsample.

For each shape it prints one JSON line: the median and quartiles of µs
per LR epoch, of ms per knn predict, forest fit or forest predict, or of
µs per NB fit plus predict over ``--repeats`` repeats, and ``equal``,
whether every slice of the stack matched the fit (LR weights, forest
predictions) or predict (knn, NB and forest labels) of that slice as a
stack of one. A forest fit also prints ``steps``, how many grower steps
(deadline checks) one fit of the stack takes, and its node count; a
forest predict its node count and depth, the levels every row descends.
The exit status is 1 if any shape is not equal.

Usage: python scripts/replay_kernels.py [--repeats 9] [--epochs 200] [--seed 7]
"""

import os

# one BLAS thread, as the benchmark pins it, before numpy is imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from stagedml.components import learners  # noqa: E402
from stagedml.timing import NO_DEADLINE  # noqa: E402

# (workload, what, r, n, d): LR stacks of r problems of n rows, d columns
LR_SHAPES = [
    ("filter-large-n", "folds", 5, 1050, 6),
    ("full-madelon", "folds", 5, 25, 4),
    # a meta group of 5 candidates x 5 folds x 10 bagging estimators on 20 sampled rows
    ("full-madelon", "bagging", 250, 20, 4),
    ("cli-bench-tiny", "folds", 5, 20, 4),
]
# (workload, what, r, n, d, m): fold stacks of knn and gaussian NB, m
# validation rows per slice
FOLD_SHAPES = [
    ("filter-large-n", "folds", 5, 1050, 6, 450),
    ("full-madelon", "folds", 5, 25, 4, 11),
    ("cli-bench-tiny", "folds", 5, 20, 4, 8),
]
# (workload, what, r, n, d, n_trees, m): random-forest stacks, m rows
# predicted per slice
FOREST_SHAPES = [
    ("full-madelon", "folds", 5, 25, 4, 10, 11),
    ("full-madelon", "folds", 5, 25, 4, 50, 11),
    ("full-madelon", "validation refit", 1, 28, 4, 10, 12),
    ("filter-large-n", "folds", 5, 1050, 6, 10, 450),
]
# (r, n, d, n_trees, m): large forests, timed predicting only
FOREST_PREDICT_SHAPES = [(5, 1050, 7, 20, 300)]


class CountingDeadline:
    """A deadline that never lapses and counts its checks: ``_grow``
    checks once per step."""

    def __init__(self) -> None:
        self.checks = 0

    def check(self) -> None:
        self.checks += 1


def timed(fn, repeats: int) -> tuple[list[float], object]:
    """Seconds of each of ``repeats`` calls after one warm-up call, and
    the warm-up call's result."""
    result = fn()
    seconds = []
    for _ in range(repeats):
        started = time.perf_counter()
        fn()
        seconds.append(time.perf_counter() - started)
    return seconds, result


def quartiles(values: list[float], scale: float) -> list[float]:
    q = statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3
    return [round(v * scale, 2) for v in (q[0], statistics.median(values), q[2])]


def replay_lr(shape, repeats: int, epochs: int, rng) -> dict:
    workload, what, r, n, d = shape
    X, y = rng.normal(size=(r, n, d)), rng.integers(0, 2, size=(r, n))
    params = {"learning_rate": 0.1, "epochs": epochs, "l2": 1e-4}
    seconds, model = timed(lambda: learners.fit_logistic_regression(X, y, 2, params), repeats)
    one = [learners.fit_logistic_regression(X[i : i + 1], y[i : i + 1], 2, params) for i in range(r)]
    equal = all(np.array_equal(model.weights[i], one[i].weights[0]) for i in range(r))
    return {"kernel": "logistic_regression.fit", "workload": workload, "what": what, "stack": [r, n, d + 1, 2],
            "us_per_epoch_q25_median_q75": quartiles(seconds, 1e6 / epochs), "equal": equal}


def replay_knn(shape, repeats: int, rng) -> dict:
    workload, what, r, n, d, m = shape
    X, y = rng.normal(size=(r, n, d)), rng.integers(0, 2, size=(r, n))
    rows = rng.normal(size=(r, m, d))
    model = learners.fit_knn(X, y, 2, {"k": 5})
    seconds, preds = timed(lambda: model.predict(rows), repeats)
    equal = all(
        np.array_equal(preds[i], learners.fit_knn(X[i : i + 1], y[i : i + 1], 2, {"k": 5}).predict(rows[i : i + 1])[0])
        for i in range(r)
    )
    return {"kernel": "knn.predict", "workload": workload, "what": what, "train": [r, n, d], "rows": [r, m, d],
            "ms_per_predict_q25_median_q75": quartiles(seconds, 1e3), "equal": equal}


def replay_nb(shape, repeats: int, rng) -> dict:
    workload, what, r, n, d, m = shape
    X, y = rng.normal(size=(r, n, d)), rng.integers(0, 2, size=(r, n))
    rows = rng.normal(size=(r, m, d))
    seconds, preds = timed(lambda: learners.fit_gaussian_nb(X, y, 2, {}).predict(rows), repeats)
    equal = all(
        np.array_equal(preds[i], learners.fit_gaussian_nb(X[i : i + 1], y[i : i + 1], 2, {}).predict(rows[i : i + 1])[0])
        for i in range(r)
    )
    return {"kernel": "gaussian_nb.fit+predict", "workload": workload, "what": what, "train": [r, n, d],
            "rows": [r, m, d], "us_per_fit_predict_q25_median_q75": quartiles(seconds, 1e6), "equal": equal}


def _forest(r, n, d, n_trees, m, rng):
    """A forest fitted on a stack of random data, the rows it predicts,
    and whether every slice's labels equal those of that slice fitted
    as a stack of one; plus a fit of the stack to time."""
    X, y = rng.normal(size=(r, n, d)), rng.integers(0, 2, size=(r, n))
    rows = rng.normal(size=(r, m, d))
    params = {"n_trees": n_trees, "max_depth": 0, "feature_subsample": 0.5}
    seeds = rng.integers(0, 2**63, size=r).tolist()

    def fit(at=slice(None), deadline=NO_DEADLINE):
        return learners.fit_random_forest(X[at], y[at], 2, params, seed=seeds[at], deadline=deadline)

    model = fit()
    preds = model.predict(rows)
    equal = all(np.array_equal(preds[i], fit(slice(i, i + 1)).predict(rows[i : i + 1])[0]) for i in range(r))
    return model, rows, equal, fit


def replay_forest(shape, repeats: int, rng) -> dict:
    workload, what, r, n, d, n_trees, m = shape
    model, _, equal, fit = _forest(r, n, d, n_trees, m, rng)
    seconds, _ = timed(fit, repeats)
    steps = CountingDeadline()
    fit(deadline=steps)
    return {"kernel": "random_forest.fit", "workload": workload, "what": what, "train": [r, n, d],
            "n_trees": n_trees, "ms_per_fit_q25_median_q75": quartiles(seconds, 1e3), "steps": steps.checks,
            "nodes": int(model.label.size), "equal": equal}


def replay_forest_predict(shape, repeats: int, rng) -> dict:
    r, n, d, n_trees, m = shape
    model, rows, equal, _ = _forest(r, n, d, n_trees, m, rng)
    seconds, _ = timed(lambda: model.predict(rows), repeats)
    return {"kernel": "random_forest.predict", "train": [r, n, d], "n_trees": n_trees, "rows": [r, m, d],
            "nodes": int(model.label.size), "depth": model.depth,
            "ms_per_predict_q25_median_q75": quartiles(seconds, 1e3), "equal": equal}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--repeats", type=int, default=9)
    parser.add_argument("--epochs", type=int, default=200)
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args()
    rng = np.random.default_rng(args.seed)
    lines = itertools.chain(
        (replay_lr(shape, args.repeats, args.epochs, rng) for shape in LR_SHAPES),
        (replay_knn(shape, args.repeats, rng) for shape in FOLD_SHAPES),
        (replay_nb(shape, args.repeats, rng) for shape in FOLD_SHAPES),
        (replay_forest(shape, args.repeats, rng) for shape in FOREST_SHAPES),
        (replay_forest_predict(shape, args.repeats, rng) for shape in FOREST_PREDICT_SHAPES),
    )
    equal = True
    for line in lines:
        print(json.dumps(line), flush=True)
        equal = equal and line["equal"]
    return 0 if equal else 1


if __name__ == "__main__":
    raise SystemExit(main())
