import multiprocessing
import os
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

from stagedml.components import registry_default  # noqa: E402
from stagedml.components.learners import fit_gaussian_nb  # noqa: E402
from stagedml.components.registry import LearnerSpec  # noqa: E402
from stagedml.data import ColumnOrigin, Dataset  # noqa: E402


@pytest.fixture(scope="session")
def registry():
    return registry_default()


def make_numeric_dataset(x, y, class_names=None):
    x = np.asarray(x, dtype=np.float64)
    if x.ndim == 1:
        x = x[:, None]
    y = np.asarray(y, dtype=np.int64)
    if class_names is None:
        class_names = [str(c) for c in range(int(y.max()) + 1 if y.size else 1)]
    names = [f"x{j}" for j in range(x.shape[1])]
    return Dataset(
        instances=x,
        labels=y,
        feature_names=names,
        source_columns=[ColumnOrigin(source=n, kind="numeric") for n in names],
        class_names=list(class_names),
    )


def random_dataset(rng: np.random.Generator, n=None, d=None, n_classes=None):
    n = int(rng.integers(12, 60)) if n is None else n
    d = int(rng.integers(1, 6)) if d is None else d
    n_classes = int(rng.integers(2, 4)) if n_classes is None else n_classes
    x = rng.normal(size=(n, d))
    # at least two members per class so stratified splits stay legal
    y = np.concatenate([np.arange(n_classes), np.arange(n_classes), rng.integers(0, n_classes, n - 2 * n_classes)])
    rng.shuffle(y)
    return make_numeric_dataset(x, y, class_names=[f"c{k}" for k in range(n_classes)])


def _exit_in_worker_fit(X, y, n_classes, params, seed=0, deadline=None):
    """Gaussian NB in the main process; kills the process in a worker."""
    if multiprocessing.parent_process() is not None:
        os._exit(3)
    return fit_gaussian_nb(X, y, n_classes, params, seed=seed, deadline=deadline)


def spy_registry(registry, on_fit):
    """A copy of ``registry`` whose base learner and scaler fits first call
    ``on_fit(component id, stack)`` with their training matrices as one
    (r, n, d) stack; a scaler's one matrix comes as a stack of one.
    Meta-learners fit their base through the same spied spec."""

    def spied(spec):
        def fit(X, *args, **kwargs):
            on_fit(spec.id, X if X.ndim == 3 else X[None])
            return spec.fit(X, *args, **kwargs)

        return replace(spec, fit=fit)

    learners = {lid: spec if spec.is_meta else spied(spec) for lid, spec in registry.learners.items()}
    return replace(registry, learners=learners, scalers={sid: spied(spec) for sid, spec in registry.scalers.items()})


def exiting_registry(registry):
    """``registry`` plus the base learner ``exits``, which kills any
    worker process that fits it."""
    spec = LearnerSpec(id="exits", default_params={}, param_space={}, is_meta=False, fit=_exit_in_worker_fit)
    return replace(registry, learners={**registry.learners, "exits": spec})
