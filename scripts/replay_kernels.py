"""Time the logistic-regression epoch, the knn predict and the gaussian
naive Bayes fit plus predict at the shapes the benchmark's workloads fit,
and check that a stacked fit or predict equals each slice's fit or
predict as a stack of one, bit for bit.

Each shape is a stack as ``mccv_score_group`` or bagging hands it to the
learner: r slices of n train rows and d columns, two classes, and for
knn and gaussian NB m prediction rows per slice. The data are standard
normal draws from ``--seed``. Every repeat fits (LR), predicts (knn) or
fits and predicts (NB) the whole stack once; an LR fit runs ``--epochs``
epochs.

For each shape it prints one JSON line: the median and quartiles of µs
per LR epoch, of ms per knn predict or of µs per NB fit plus predict over
``--repeats`` repeats, and ``equal``, whether every slice of the stack
matched the fit (LR weights) or predict (knn and NB labels) of that
slice as a stack of one. The exit status is 1 if any shape is not equal.

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
    )
    equal = True
    for line in lines:
        print(json.dumps(line), flush=True)
        equal = equal and line["equal"]
    return 0 if equal else 1


if __name__ == "__main__":
    raise SystemExit(main())
