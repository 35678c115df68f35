import math
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stagedml.components import learners, meta, registry_default
from stagedml.components.domains import (
    enumerate_grid,
    space_grid_size,
    space_is_enumerable,
)
from stagedml.components.registry import UnknownComponentError
from stagedml.evaluation import Candidate, fit_pipeline
from stagedml.rng import Rng
from stagedml.timing import Deadline, DeadlineExceeded

from conftest import make_numeric_dataset


@pytest.fixture(scope="module")
def reg():
    return registry_default()


class TestRegistry:
    def test_catalog_counts(self, reg):
        assert len(reg.base_learner_ids()) == 5
        assert len(reg.meta_learner_ids()) == 2
        assert len(reg.scaler_ids()) == 3
        assert len(reg.filter_ids()) == 4

    def test_knn_default(self, reg):
        assert reg.default_params("knn") == {"k": 5}

    def test_unknown_ids_raise(self, reg):
        with pytest.raises(UnknownComponentError):
            reg.learner("svm")
        with pytest.raises(UnknownComponentError):
            reg.scaler("robust")
        with pytest.raises(UnknownComponentError):
            reg.filter("relief")

    def test_defaults_inside_spaces(self, reg):
        for lid in [*reg.base_learner_ids(), *reg.meta_learner_ids()]:
            spec = reg.learner(lid)
            for name, value in spec.default_params.items():
                assert spec.param_space[name].contains(value)

    def test_json_dump_shape(self, reg):
        doc = reg.to_json_dict()
        assert {l["id"] for l in doc["learners"]} >= {"knn", "bagging"}
        knn = next(l for l in doc["learners"] if l["id"] == "knn")
        assert knn["param_space"]["k"]["type"] == "categorical"

    def test_invalid_params_rejected(self, reg):
        d = make_numeric_dataset(np.arange(8.0), [0, 1] * 4)
        with pytest.raises(ValueError):
            fit_pipeline(Candidate("knn", {"k": 4}), d, reg)  # 4 not in the declared grid
        with pytest.raises(ValueError):
            fit_pipeline(Candidate("knn", {"q": 1}), d, reg)


class TestSampling:
    def test_knn_sample_in_grid(self, reg):
        rng = Rng(0)
        for _ in range(50):
            assert reg.sample_params("knn", rng)["k"] in (1, 3, 5, 7, 11, 15, 21)

    def test_fixed_seed_repeats(self, reg):
        a = reg.sample_params("logistic_regression", Rng(7))
        b = reg.sample_params("logistic_regression", Rng(7))
        assert a == b

    def test_log_uniform_mass_per_decade(self, reg):
        # analytic oracle: learning_rate spans [1e-4, 1e-1]; a third of
        # the log mass lies in [1e-4, 1e-3]
        rng = Rng(123)
        hits = 0
        n = 10_000
        for _ in range(n):
            lr = reg.sample_params("logistic_regression", rng)["learning_rate"]
            assert 1e-4 <= lr <= 1e-1
            if lr <= 1e-3:
                hits += 1
        assert abs(hits / n - 1.0 / 3.0) <= 0.02

    def test_grid_enumeration(self, reg):
        space = reg.learner("knn").param_space
        assert space_is_enumerable(space)
        assert space_grid_size(space) == 7
        grid = list(enumerate_grid(space))
        assert [g["k"] for g in grid] == [1, 3, 5, 7, 11, 15, 21]
        assert not space_is_enumerable(reg.learner("logistic_regression").param_space)


class TestFitPredict:
    def test_gaussian_nb_disjoint_intervals(self, reg):
        # analytic class boundaries: class 0 on [0,1], class 1 on [10,11]
        x = np.concatenate([np.linspace(0, 1, 10), np.linspace(10, 11, 10)])
        y = np.array([0] * 10 + [1] * 10)
        d = make_numeric_dataset(x, y)
        model = fit_pipeline(Candidate("gaussian_nb"), d, reg)
        assert np.array_equal(model.predict(d.instances), y)

    def test_tree_zero_training_error_on_consistent_data(self, reg):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(40, 3))
        y = rng.integers(0, 3, 40)
        d = make_numeric_dataset(x, y, class_names=["a", "b", "c"])
        model = fit_pipeline(Candidate("decision_tree"), d, reg)  # unbounded depth default
        assert np.array_equal(model.predict(d.instances), y)

    def test_tree_solves_xor(self, reg):
        # forced zero-gain first split must not stop growth
        x = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]] * 3)
        y = np.array([0, 1, 1, 0] * 3)
        model = fit_pipeline(Candidate("decision_tree"), make_numeric_dataset(x, y), reg)
        assert np.array_equal(model.predict(x), y)

    def test_knn_1nn_training_error_zero(self, reg):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(30, 4))
        y = rng.integers(0, 2, 30)
        d = make_numeric_dataset(x, y)
        model = fit_pipeline(Candidate("knn", {"k": 1}), d, reg)
        assert np.array_equal(model.predict(d.instances), y)

    def test_knn_single_example_majority_fallback(self, reg):
        d = make_numeric_dataset([[1.0]], [0], class_names=["a", "b"])
        model = fit_pipeline(Candidate("knn", {"k": 7}), d, reg)
        assert list(model.predict(np.array([[0.0], [99.0]]))) == [0, 0]

    def test_predict_empty_matrix(self, reg):
        d = make_numeric_dataset(np.arange(6.0), [0, 1] * 3)
        model = fit_pipeline(Candidate("gaussian_nb"), d, reg)
        assert model.predict(np.empty((0, 1))).shape == (0,)

    def test_predict_column_mismatch(self, reg):
        d = make_numeric_dataset(np.arange(6.0), [0, 1] * 3)
        fitted = fit_pipeline(Candidate("knn"), d, reg)
        with pytest.raises(ValueError):
            fitted.predict(np.zeros((2, 3)))
        with pytest.raises(ValueError):
            fitted.model.predict(np.zeros((1, 2, 3)))

    def test_constant_features_nb_majority(self, reg):
        # posterior reduces to priors; majority class is 1 (4 of 6)
        d = make_numeric_dataset(np.ones(6), [1, 1, 0, 1, 0, 1])
        model = fit_pipeline(Candidate("gaussian_nb"), d, reg)
        assert list(model.predict(np.ones((3, 1)))) == [1, 1, 1]

    def test_single_class_training_predicts_it_everywhere(self, reg):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(12, 3))
        d = make_numeric_dataset(x, np.full(12, 1), class_names=["a", "b", "c"])
        for lid in reg.base_learner_ids():
            model = fit_pipeline(Candidate(lid), d, reg, seed=5)
            assert set(model.predict(x)) == {1}, lid

    def test_fit_determinism(self, reg):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(50, 5))
        y = rng.integers(0, 3, 50)
        d = make_numeric_dataset(x, y, class_names=["a", "b", "c"])
        probe = rng.normal(size=(20, 5))
        for lid in reg.base_learner_ids():
            m1 = fit_pipeline(Candidate(lid), d, reg, seed=11)
            m2 = fit_pipeline(Candidate(lid), d, reg, seed=11)
            assert np.array_equal(m1.predict(probe), m2.predict(probe)), lid

    def test_logistic_regression_separable(self, reg):
        x = np.concatenate([np.random.default_rng(5).normal(-3, 1, 40), np.random.default_rng(6).normal(3, 1, 40)])
        y = np.array([0] * 40 + [1] * 40)
        d = make_numeric_dataset(x, y)
        model = fit_pipeline(Candidate("logistic_regression"), d, reg)
        assert float(np.mean(model.predict(d.instances) != y)) <= 0.05

    @pytest.mark.parametrize(
        "candidate, labels",
        [pytest.param(Candidate(lid), [0, 1] * 10, id=lid) for lid in registry_default().base_learner_ids()]
        + [
            # one class: a tree of one leaf, which predicts without descending
            pytest.param(Candidate("decision_tree"), [0] * 20, id="decision_tree-leaf"),
            pytest.param(Candidate("decision_tree", meta="bagging"), [0, 1] * 10, id="bagging-decision_tree"),
            pytest.param(Candidate("decision_tree", meta="adaboost"), [0, 1] * 10, id="adaboost-decision_tree"),
        ],
    )
    def test_expired_deadline_in_pipeline(self, reg, candidate, labels):
        d = make_numeric_dataset(np.arange(20.0), labels, class_names=["a", "b"])
        fitted = fit_pipeline(candidate, d, reg)
        with pytest.raises(DeadlineExceeded):
            fitted.predict(d.instances, deadline=Deadline(0.0))

    def test_voting_predict_honours_deadline(self, reg):
        d = make_numeric_dataset(np.arange(20.0), [0, 1] * 10)
        fitted = fit_pipeline(Candidate("decision_tree", meta="bagging"), d, reg)
        with pytest.raises(DeadlineExceeded):
            fitted.model.predict(d.instances[None], deadline=Deadline(0.0))


class _LapsesAfter:
    """A deadline whose first ``checks`` checks pass and every later one
    lapses."""

    def __init__(self, checks):
        self.checks = checks

    def check(self):
        self.checks -= 1
        if self.checks < 0:
            raise DeadlineExceeded("lapsed")


def _knn_reference(x, y, k, n_classes, rows):
    """knn as a full stable sort of each row's distances, then one
    bincount per row; distances are computed chunk by chunk as in
    ``KnnModel.predict``."""
    train_sq = np.einsum("ij,ij->i", x, x)
    out = []
    for start in range(0, rows.shape[0], learners._PREDICT_CHUNK):
        d2 = train_sq[None, :] - 2.0 * rows[start : start + learners._PREDICT_CHUNK] @ x.T
        order = np.argsort(d2, axis=1, kind="stable")[:, :k]
        for votes in y[order]:
            out.append(int(np.argmax(np.bincount(votes, minlength=n_classes))))
    return np.array(out, dtype=np.int64)


def _knn_stack(r, n, d_cols, n_classes, m, seed):
    """r integer-grid problems of n train rows with labels below
    ``n_classes``, and m prediction rows each: a small grid forces many
    exact distance ties."""
    rng = np.random.default_rng(seed)
    X = rng.integers(-2, 3, size=(r, n, d_cols)).astype(np.float64)
    y = rng.integers(0, n_classes, size=(r, n))
    rows = rng.integers(-3, 4, size=(r, m, d_cols)).astype(np.float64)
    return X, y, rows


@settings(max_examples=40, deadline=None)
@given(
    r=st.integers(min_value=1, max_value=4),
    n=st.integers(min_value=1, max_value=40),
    d_cols=st.integers(min_value=1, max_value=3),
    present=st.integers(min_value=1, max_value=3),
    absent=st.integers(min_value=0, max_value=2),
    n_rows=st.integers(min_value=513, max_value=1100),
    data=st.data(),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_knn_matches_stable_sort_reference(r, n, d_cols, present, absent, n_rows, data, seed):
    """A stack's predict reuses its buffers across slices and chunks, a
    shorter tail chunk included, and must still give each slice what its
    stack of one and the stable-sort reference give."""
    k = data.draw(st.integers(min_value=1, max_value=n), label="k")
    x, y, rows = _knn_stack(r, n, d_cols, present, n_rows, seed)
    n_classes = present + absent
    stacked = learners.fit_knn(x, y, n_classes, {"k": k}).predict(rows)
    assert stacked.shape == (r, n_rows)
    for i in range(r):
        alone = learners.fit_knn(x[i : i + 1], y[i : i + 1], n_classes, {"k": k}).predict(rows[i : i + 1])[0]
        assert np.array_equal(alone, _knn_reference(x[i], y[i], k, n_classes, rows[i]))
        assert np.array_equal(stacked[i], alone)


def test_stacked_knn_predicts_concurrently():
    """Threads predicting different stacks at once, more of them than
    cores and switching often, each get the answers of their slices as
    stacks of one: no buffer is shared between calls."""
    stacks = [_knn_stack(3, 60, 2, 3, 2 * learners._PREDICT_CHUNK + 7, seed) for seed in range(4)]
    models = [learners.fit_knn(X, y, 3, {"k": 5}) for X, y, _ in stacks]
    expected = [
        np.concatenate(
            [learners.fit_knn(X[i : i + 1], y[i : i + 1], 3, {"k": 5}).predict(rows[i : i + 1]) for i in range(3)]
        )
        for X, y, rows in stacks
    ]
    results = [[] for _ in stacks]
    barrier = threading.Barrier(len(stacks))

    def work(j):
        barrier.wait(timeout=30)
        for _ in range(10):
            results[j].append(models[j].predict(stacks[j][2]))

    threads = [threading.Thread(target=work, args=(j,)) for j in range(len(stacks))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    for got, want in zip(results, expected):
        assert len(got) == 10
        assert all(np.array_equal(g, want) for g in got)


def test_stacked_knn_checks_the_deadline_per_chunk():
    X, y, rows = _knn_stack(2, 10, 2, 2, learners._PREDICT_CHUNK + 1, 0)
    model = learners.fit_knn(X, y, 2, {"k": 3})
    # two chunks per slice: exactly four checks, one per chunk
    assert model.predict(rows, deadline=_LapsesAfter(4)).shape == (2, learners._PREDICT_CHUNK + 1)
    with pytest.raises(DeadlineExceeded):
        model.predict(rows, deadline=_LapsesAfter(3))
    with pytest.raises(DeadlineExceeded):
        model.predict(rows, deadline=Deadline(0.0))


def _best_split_reference(X, y, idx, n_classes, feature_ids):
    """The split search one feature at a time, over value boundaries only."""
    y_node = y[idx]
    n = idx.size
    counts = np.bincount(y_node, minlength=n_classes).astype(np.float64)
    gini_node = 1.0 - np.sum((counts / n) ** 2)
    best = (-1, 0.0, -np.inf)
    onehot = np.zeros((n, n_classes))
    onehot[np.arange(n), y_node] = 1.0
    for j in feature_ids:
        col = X[idx, j]
        order = np.argsort(col, kind="stable")
        vs = col[order]
        cum = np.cumsum(onehot[order], axis=0)
        boundaries = np.flatnonzero(vs[1:] != vs[:-1]) + 1
        if boundaries.size == 0:
            continue
        left_n = boundaries.astype(np.float64)
        right_n = n - left_n
        left_counts = cum[boundaries - 1]
        right_counts = counts[None, :] - left_counts
        gini_left = 1.0 - np.sum((left_counts / left_n[:, None]) ** 2, axis=1)
        gini_right = 1.0 - np.sum((right_counts / right_n[:, None]) ** 2, axis=1)
        gains = gini_node - (left_n * gini_left + right_n * gini_right) / n
        pos = int(np.argmax(gains))
        if gains[pos] > best[2]:
            b = boundaries[pos]
            best = (int(j), float((vs[b - 1] + vs[b]) / 2.0), float(gains[pos]))
    return best


@settings(max_examples=200, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=60),
    d_cols=st.integers(min_value=1, max_value=6),
    n_classes=st.integers(min_value=1, max_value=12),
    n_nodes=st.sampled_from([1, 1, 2, 5]),
    grid=st.booleans(),
    block=st.sampled_from([None, 1, 7]),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_best_split_matches_per_feature_reference(n, d_cols, n_classes, n_nodes, grid, block, seed):
    """One node, or a batch of nodes of mixed sizes, each with its own rows
    and candidate features (as many for every node)."""
    rng = np.random.default_rng(seed)
    x = rng.integers(-2, 3, size=(n, d_cols)).astype(np.float64) if grid else rng.normal(size=(n, d_cols))
    y = rng.integers(0, n_classes, size=n)
    n_features = int(rng.integers(1, d_cols + 1))
    nodes = [
        np.sort(rng.choice(n, size=int(rng.integers(2, n + 1)), replace=bool(rng.integers(2))))
        for _ in range(n_nodes)
    ]
    features = [sorted(rng.choice(d_cols, size=n_features, replace=False).tolist()) for _ in range(n_nodes)]
    expected = [_best_split_reference(x, y, idx, n_classes, f) for idx, f in zip(nodes, features)]
    with pytest.MonkeyPatch.context() as mp:
        if block is not None:
            # a small budget scores a few nodes, or a few features of one node, at a time
            mp.setattr(learners, "_SPLIT_BLOCK", block * int(rng.integers(2, n + 1)) * n_classes)
        counts = [np.bincount(y[idx], minlength=n_classes) for idx in nodes]
        got = learners._best_splits(x, y, np.concatenate(nodes), [idx.size for idx in nodes], counts, features)
    assert [(int(f), float(t), float(g)) for f, t, g in zip(*got)] == expected


@settings(max_examples=100, deadline=None)
@given(
    n_classes=st.integers(min_value=1, max_value=20),
    cells=st.integers(min_value=1, max_value=30),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_class_sums_round_like_numpy_last_axis_sums(n_classes, cells, seed):
    """The split search sums class terms over a leading axis; its rounding
    must be that of numpy's sum over a contiguous last axis (the old
    layout), which adds short rows in order and long ones pairwise."""
    rng = np.random.default_rng(seed)
    q = rng.random(size=(cells, n_classes)) * 10.0 ** rng.integers(-8, 8, size=(cells, n_classes))
    assert np.array_equal(learners._sum_classes(np.ascontiguousarray(q.T)), q.sum(axis=1))


def _grow_reference(X, y, idx, n_classes, depth, max_depth, min_split, sampler, key, nodes):
    """The recursive, one-node-at-a-time grower: appends each node as
    [feature, threshold, left, right, label] in pre-order and returns its
    index; a leaf has feature -1 and points to itself. With a ``sampler``,
    a searched node draws its features from ``Rng(key)`` and then the keys
    of its left and right child."""
    counts = np.bincount(y[idx], minlength=n_classes)
    at = len(nodes)
    nodes.append([-1, 0.0, at, at, int(np.argmax(counts))])
    if np.count_nonzero(counts) <= 1 or 0 < max_depth <= depth or idx.size < min_split:
        return at
    rng = Rng(key) if sampler is not None else None
    features = sampler(rng) if sampler is not None else range(X.shape[1])
    left_key, right_key = (rng.next_u64(), rng.next_u64()) if rng is not None else (None, None)
    feature, threshold, _ = _best_split_reference(X, y, idx, n_classes, features)
    if feature < 0:
        return at
    go_left = X[idx, feature] <= threshold
    if go_left.all() or not go_left.any():
        return at
    left = _grow_reference(X, y, idx[go_left], n_classes, depth + 1, max_depth, min_split, sampler, left_key, nodes)
    right = _grow_reference(X, y, idx[~go_left], n_classes, depth + 1, max_depth, min_split, sampler, right_key, nodes)
    nodes[at][:4] = [feature, threshold, left, right]
    return at


def _trees_reference(X, y, n_classes, learner, params, seed):
    """Each tree of a fit as a pre-order node list: a decision tree on all
    rows, or forest trees, tree t (from 0) drawing from ``Rng(s)``, s the
    (t + 1)-th output of ``Rng(seed)``, its bootstrap one ``randbelow`` at
    a time and then its root's key, and each searched node drawing its
    features by ``Rng.shuffle`` from the stream of its own key."""
    n, d = X.shape
    if learner == "decision_tree":
        nodes = []
        min_split = max(2, params["min_split"])
        _grow_reference(X, y, np.arange(n), n_classes, 0, params["max_depth"], min_split, None, None, nodes)
        return [nodes]
    m = max(1, int(round(params["feature_subsample"] * d)))

    def sampler(node_rng):
        if m >= d:
            return range(d)
        pool = list(range(d))
        node_rng.shuffle(pool)
        return sorted(pool[:m])

    seeds = Rng(seed)
    trees = []
    for _ in range(params["n_trees"]):
        rng = Rng(seeds.next_u64())
        boot = np.array(sorted(rng.randbelow(n) for _ in range(n)), dtype=np.int64)
        root_key = rng.next_u64()
        nodes = []
        _grow_reference(X[boot], y[boot], np.arange(n), n_classes, 0, params["max_depth"], 2, sampler, root_key, nodes)
        trees.append(nodes)
    return trees


def _model_trees(model, s):
    """The trees of stack slice s of a fitted model as pre-order node
    lists: each tree walked from its root, left child first, with every
    node's ``left`` and ``right`` given as positions in that walk (None
    for a node outside it)."""
    trees = []
    for root in model.roots[s].tolist():
        order, stack = [], [root]
        while stack:
            i = stack.pop()
            order.append(i)
            assert len(order) <= model.label.size, "a tree revisits a node"
            if model.feature[i] >= 0:
                stack += [int(model.right[i]), int(model.left[i])]
        at = {i: p for p, i in enumerate(order)}
        trees.append(
            [
                [
                    int(model.feature[i]),
                    float(model.threshold[i]),
                    at.get(int(model.left[i])),
                    at.get(int(model.right[i])),
                    int(model.label[i]),
                ]
                for i in order
            ]
        )
    return trees


def _predict_reference(trees, rows, n_classes):
    votes = np.zeros((rows.shape[0], n_classes), dtype=np.int64)
    for nodes in trees:
        for q, row in enumerate(rows):
            i = 0
            while nodes[i][0] >= 0:
                i = nodes[i][2] if row[nodes[i][0]] <= nodes[i][1] else nodes[i][3]
            votes[q, nodes[i][4]] += 1
    return np.argmax(votes, axis=1)


@settings(max_examples=150, deadline=None)
@given(
    r=st.integers(min_value=1, max_value=8),
    n=st.integers(min_value=1, max_value=40),
    d_cols=st.integers(min_value=1, max_value=8),
    n_classes=st.integers(min_value=1, max_value=4),
    grid=st.booleans(),
    forest=st.booleans(),
    max_depth=st.sampled_from([0, 1, 2, 4, 8, 16]),
    sampled=st.integers(min_value=1, max_value=8),
    n_trees=st.sampled_from([1, 2, 5]),
    min_split=st.integers(min_value=2, max_value=16),
    block=st.sampled_from([None, 40]),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_lockstep_trees_match_one_at_a_time_reference(
    r, n, d_cols, n_classes, grid, forest, max_depth, sampled, n_trees, min_split, block, seed
):
    """A stack of r fits grown level by level gives, slice by slice, the
    trees of the recursive grower and of the slice's stack of one: nodes
    of many sizes and trees meet in one search, integer grids make tied
    values, every count of sampled features occurs, and a small block
    splits the trees of one slice over several groups."""
    fraction = min(sampled, d_cols) / d_cols
    rng = np.random.default_rng(seed)
    X = rng.integers(-2, 3, size=(r, n, d_cols)).astype(np.float64) if grid else rng.normal(size=(r, n, d_cols))
    y = rng.integers(0, n_classes, size=(r, n))
    seeds = rng.integers(0, 2**63, size=r).tolist()
    rows = rng.integers(-3, 4, size=(r, 9, d_cols)).astype(np.float64)
    if forest:
        learner, params = "random_forest", {"n_trees": n_trees, "max_depth": max_depth, "feature_subsample": fraction}
        fit = learners.fit_random_forest
    else:
        learner, params = "decision_tree", {"max_depth": max_depth, "min_split": min_split}
        fit = learners.fit_decision_tree
    with pytest.MonkeyPatch.context() as mp:
        if block is not None:
            mp.setattr(learners, "_SPLIT_BLOCK", block)
        model = fit(X, y, n_classes, params, seed=seeds)
        alone = [fit(X[s : s + 1], y[s : s + 1], n_classes, params, seed=[seeds[s]]) for s in range(r)]
    stacked = model.predict(rows)
    walked = 0
    for s in range(r):
        trees = _trees_reference(X[s], y[s], n_classes, learner, params, seeds[s])
        assert _model_trees(model, s) == trees
        assert _model_trees(alone[s], 0) == trees
        # the walks visit as many nodes as the models hold
        nodes = sum(map(len, trees))
        assert nodes == alone[s].label.size
        walked += nodes
        expected = _predict_reference(trees, rows[s], n_classes)
        assert np.array_equal(stacked[s], expected)
        assert np.array_equal(alone[s].predict(rows[s : s + 1])[0], expected)
    assert walked == model.label.size


def _logistic_reference(X, y, n_classes, lr, epochs, l2):
    """Gradient descent on one (n, d) problem, stopping at the first
    non-finite step."""
    n, d = X.shape
    W = np.zeros((d + 1, n_classes))
    onehot = np.zeros((n, n_classes))
    onehot[np.arange(n), y] = 1.0
    Xb = np.hstack([X, np.ones((n, 1))])
    for _ in range(epochs):
        logits = Xb @ W
        logits -= logits.max(axis=1, keepdims=True)
        expl = np.exp(logits)
        probs = expl / expl.sum(axis=1, keepdims=True)
        grad = Xb.T @ (probs - onehot) / n
        grad[:-1] += l2 * W[:-1]
        step = W - lr * grad
        if not np.all(np.isfinite(step)):
            break
        W = step
    return W


@settings(max_examples=200, deadline=None)
@given(
    r=st.integers(min_value=1, max_value=6),
    n=st.integers(min_value=1, max_value=60),
    d_cols=st.integers(min_value=1, max_value=6),
    # 8 classes and more take the pairwise class sum of the softmax
    n_classes=st.integers(min_value=2, max_value=9),
    data=st.data(),
    lr=st.one_of(st.floats(min_value=1e-4, max_value=0.1), st.floats(min_value=1.0, max_value=10.0)),
    epochs=st.integers(min_value=0, max_value=80),
    l2=st.sampled_from([0.0, 1e-4, 1.0, 5.0]),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_stacked_logistic_matches_per_problem_reference(r, n, d_cols, n_classes, data, lr, epochs, l2, seed):
    present = data.draw(st.integers(min_value=1, max_value=n_classes), label="present")
    rng = np.random.default_rng(seed)
    # each problem on its own scale, so large steps break them at different epochs
    scales = 10.0 ** rng.choice([0, 50, 100, 125, 140, 150], size=(r, 1, 1))
    X = rng.normal(size=(r, n, d_cols)) * scales
    y = rng.integers(0, present, size=(r, n))
    rows = rng.normal(size=(r, 7, d_cols)) * scales
    params = {"learning_rate": lr, "epochs": epochs, "l2": l2}
    with np.errstate(all="ignore"):
        model = learners.fit_logistic_regression(X, y, n_classes, params)
        assert model.weights.shape == (r, d_cols + 1, n_classes)
        stacked = model.predict(rows)
        for i in range(r):
            W = _logistic_reference(X[i], y[i], n_classes, lr, epochs, l2)
            assert np.array_equal(model.weights[i], W, equal_nan=True)
            alone = learners.fit_logistic_regression(X[i : i + 1], y[i : i + 1], n_classes, params)
            assert np.array_equal(alone.weights[0], W, equal_nan=True)
            assert np.array_equal(stacked[i], np.argmax(rows[i] @ W[:-1] + W[-1], axis=1))
            assert np.array_equal(alone.predict(rows[i : i + 1])[0], stacked[i])


_BASE_AND_META = pytest.mark.parametrize(
    "lid, meta_id",
    [pytest.param(lid, None, id=lid) for lid in registry_default().base_learner_ids()]
    + [pytest.param("decision_tree", mid, id=f"{mid}-decision_tree") for mid in registry_default().meta_learner_ids()],
)


def _fit_stack(reg, lid, meta_id, X, y):
    """A fit of learner ``lid``, alone or wrapped in ``meta_id``, with
    default params and one seed per slice."""
    base = reg.learner(lid)
    seeds = list(range(1, len(X) + 1))
    if meta_id is None:
        return base.fit(X, y, 2, base.default_params, seed=seeds)
    meta_spec = reg.learner(meta_id)
    return meta_spec.fit(base, base.default_params, X, y, 2, meta_spec.default_params, seed=seeds)


@_BASE_AND_META
def test_fitted_stack_rejects_other_shapes(reg, lid, meta_id):
    """A model of 3 slices of 2 columns takes (3, m, 2) rows only: not 2-d
    rows, not another slice count, not another width."""
    rng = np.random.default_rng(5)
    X = rng.normal(size=(3, 12, 2))
    y = rng.integers(0, 2, size=(3, 12))
    model = _fit_stack(reg, lid, meta_id, X, y)
    rows = rng.normal(size=(3, 5, 2))
    assert model.predict(rows).shape == (3, 5)
    for bad in (rows[0], rows[:2], rng.normal(size=(3, 5, 3))):
        with pytest.raises(ValueError):
            model.predict(bad)


@_BASE_AND_META
def test_fit_rejects_other_shapes(reg, lid, meta_id):
    """A fit takes (r, n, d) rows with (r, n) labels only, and says so in
    one message: not a 2-d problem, not labels of another slice or row
    count, not 2-d labels beside a 2-d matrix."""
    rng = np.random.default_rng(5)
    X = rng.normal(size=(3, 12, 2))
    y = rng.integers(0, 2, size=(3, 12))
    for bad_X, bad_y in ((X[0], y[0]), (X[0], y), (X, y[0]), (X, y[:2]), (X, y[:, :5]), (X[:, :, 0], y)):
        with pytest.raises(ValueError, match=r"fit input has shapes .* not \(r, n, d\) rows with \(r, n\) labels"):
            _fit_stack(reg, lid, meta_id, bad_X, bad_y)


@pytest.mark.parametrize("lid", ["knn", "gaussian_nb"])
def test_stacked_fit_matches_each_slice_as_a_stack_of_one(reg, lid):
    rng = np.random.default_rng(4)
    X = rng.normal(size=(3, 12, 2))
    y = rng.integers(0, 3, size=(3, 12))
    rows = rng.normal(size=(3, 5, 2))
    spec = reg.learner(lid)
    stacked = spec.fit(X, y, 3, spec.default_params, seed=[1, 2, 3]).predict(rows)
    assert stacked.shape == (3, 5)
    for i in range(3):
        alone = spec.fit(X[i : i + 1], y[i : i + 1], 3, spec.default_params, seed=[i + 1])
        assert np.array_equal(alone.predict(rows[i : i + 1])[0], stacked[i])


def _gaussian_nb_reference(X, y, n_classes, rows):
    """Gaussian naive Bayes on one (n, d) problem, scored class by class:
    (m, d) rows -> (m,)."""
    n = len(X)
    overall_var = float(np.max(np.var(X, axis=0))) if X.size else 0.0
    eps = 1e-9 * overall_var if overall_var > 0 else 1e-12
    scores = np.full((rows.shape[0], n_classes), -np.inf)
    for c in range(n_classes):
        mask = y == c
        cnt = int(mask.sum())
        if cnt == 0:
            continue
        var = X[mask].var(axis=0) + eps
        ll = -0.5 * (np.log(2.0 * np.pi * var) + (rows - X[mask].mean(axis=0)) ** 2 / var)
        scores[:, c] = math.log(cnt / n) + ll.sum(axis=1)
    return np.argmax(scores, axis=1).astype(np.int64)


@settings(max_examples=200, deadline=None)
@given(
    r=st.integers(min_value=1, max_value=5),
    n=st.integers(min_value=1, max_value=40),
    d_cols=st.integers(min_value=1, max_value=6),
    n_classes=st.integers(min_value=2, max_value=6),
    columns=st.sampled_from(["normal", "grid", "constant", "zero"]),
    m=st.integers(min_value=0, max_value=12),
    data=st.data(),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_stacked_gaussian_nb_matches_per_problem_reference(r, n, d_cols, n_classes, columns, m, data, seed):
    # fewer present labels than classes leaves classes absent from some slices
    present = data.draw(st.integers(min_value=1, max_value=n_classes), label="present")
    rng = np.random.default_rng(seed)
    if columns == "normal":
        X = rng.normal(size=(r, n, d_cols)) * 10.0 ** rng.integers(-3, 4, size=(r, 1, d_cols))
    elif columns == "grid":
        X = rng.integers(-2, 3, size=(r, n, d_cols)).astype(np.float64)
    else:
        # constant and all-zero columns take the smallest variance floor, eps
        X = np.full((r, n, d_cols), 3.0 if columns == "constant" else 0.0)
    y = rng.integers(0, present, size=(r, n))
    rows = rng.integers(-3, 4, size=(r, m, d_cols)).astype(np.float64)
    rows[:, ::2] += rng.normal(size=rows[:, ::2].shape)
    if m and data.draw(st.booleans(), label="nan row"):
        # argmax takes the first NaN score, so an absent class must stay -inf
        rows[0, 0, 0] = np.nan
    with np.errstate(all="ignore"):
        model = learners.fit_gaussian_nb(X, y, n_classes, {})
        stacked = model.predict(rows)
        assert stacked.shape == (r, m) and stacked.dtype == np.int64
        for i in range(r):
            expected = _gaussian_nb_reference(X[i], y[i], n_classes, rows[i])
            assert np.array_equal(stacked[i], expected)
            assert set(stacked[i]) <= set(y[i])
            alone = learners.fit_gaussian_nb(X[i : i + 1], y[i : i + 1], n_classes, {})
            assert np.array_equal(alone.predict(rows[i : i + 1])[0], expected)


def _bagging_reference(fit, base_params, X, y, n_classes, params, seed, rows):
    """Bagging one problem as a loop: each estimator's rows and seed from
    scalar draws, one fit of a stack of one each, votes added in estimator
    order."""
    n = X.shape[0]
    m = max(1, min(n, int(round(params["sample_fraction"] * n))))
    rng = Rng(seed)
    samples, seeds = [], []
    for _ in range(params["n_estimators"]):
        if params["replace"]:
            samples.append(sorted(rng.randbelow(n) for _ in range(m)))
        else:
            pool = list(range(n))
            rng.shuffle(pool)
            samples.append(sorted(pool[:m]))
        seeds.append(rng.next_u64())
    scores = np.zeros((rows.shape[0], n_classes))
    for idx, fit_seed in zip(samples, seeds):
        model = fit(X[None, idx], y[None, idx], n_classes, base_params, seed=[fit_seed])
        scores[np.arange(rows.shape[0]), model.predict(rows[None])[0]] += 1.0
    return np.argmax(scores, axis=1)


def _adaboost_reference(fit, base_params, X, y, n_classes, params, seed, rows):
    """SAMME boosting of one problem as a loop: resampling one ``random()``
    and one ``searchsorted`` at a time, each round's base fit a stack of
    one, rejected rounds left out."""
    n = X.shape[0]
    k = max(2, int(len(np.unique(y))) if n_classes < 2 else n_classes)
    rng = Rng(seed)
    w = np.full(n, 1.0 / n)
    models, alphas = [], []
    for _ in range(params["n_estimators"]):
        cum = np.cumsum(w)
        idx = sorted(min(int(np.searchsorted(cum, rng.random() * cum[-1], side="right")), n - 1) for _ in range(n))
        model = fit(X[None, idx], y[None, idx], n_classes, base_params, seed=[rng.next_u64()])
        incorrect = model.predict(X[None])[0] != y
        err = float(np.sum(w[incorrect]))
        if err <= 0.0:
            models.append(model)
            alphas.append(1.0)
            break
        if err >= 1.0 - 1.0 / k:
            break
        alpha = params["learning_rate"] * (math.log((1.0 - err) / err) + math.log(k - 1.0))
        models.append(model)
        alphas.append(alpha)
        w = w * np.exp(alpha * incorrect)
        w /= w.sum()
    if not models:
        models.append(fit(X[None], y[None], n_classes, base_params, seed=[rng.next_u64()]))
        alphas.append(1.0)
    scores = np.zeros((rows.shape[0], n_classes))
    for model, alpha in zip(models, alphas):
        scores[np.arange(rows.shape[0]), model.predict(rows[None])[0]] += alpha
    return np.argmax(scores, axis=1)


@settings(max_examples=60, deadline=None)
@given(
    r=st.integers(min_value=1, max_value=4),
    n=st.integers(min_value=2, max_value=30),
    d_cols=st.integers(min_value=1, max_value=4),
    n_classes=st.integers(min_value=1, max_value=3),
    base_id=st.sampled_from(["decision_tree", "random_forest", "logistic_regression", "knn", "gaussian_nb"]),
    boosting=st.booleans(),
    n_estimators=st.sampled_from([1, 3, 8]),
    replace_rows=st.booleans(),
    fraction=st.sampled_from([0.5, 1.0]),
    learning_rate=st.sampled_from([0.05, 1.0, 2.0]),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_stacked_meta_learners_match_loop_reference(
    r, n, d_cols, n_classes, base_id, boosting, n_estimators, replace_rows, fraction, learning_rate, seed
):
    """Bagging and boosting of a stack give, slice by slice, the loop over
    one problem (the base fitted once per chunk or round), and so does each
    slice fitted as a stack of one; boosting stops early on perfect and on
    worse-than-chance rounds in some slices."""
    rng = np.random.default_rng(seed)
    X = rng.integers(-2, 3, size=(r, n, d_cols)).astype(np.float64)
    y = rng.integers(0, n_classes, size=(r, n))
    seeds = rng.integers(0, 2**63, size=r).tolist()
    rows = rng.integers(-3, 4, size=(r, 7, d_cols)).astype(np.float64)
    base = registry_default().learner(base_id)
    base_params = {
        "decision_tree": {"max_depth": 2, "min_split": 2},
        "random_forest": {"n_trees": 3, "max_depth": 0, "feature_subsample": 0.5},
        "logistic_regression": {"learning_rate": 0.5, "epochs": 20, "l2": 0.0},
        "knn": {"k": 5},
        "gaussian_nb": {},
    }[base_id]
    if boosting:
        fit_meta, reference = meta.fit_adaboost, _adaboost_reference
        params = {"n_estimators": n_estimators, "learning_rate": learning_rate}
    else:
        fit_meta, reference = meta.fit_bagging, _bagging_reference
        params = {"n_estimators": n_estimators, "replace": replace_rows, "sample_fraction": fraction}
    stacked = fit_meta(base, base_params, X, y, n_classes, params, seed=seeds).predict(rows)
    for i in range(r):
        expected = reference(base.fit, base_params, X[i], y[i], n_classes, params, seeds[i], rows[i])
        assert np.array_equal(stacked[i], expected)
        alone = fit_meta(base, base_params, X[i : i + 1], y[i : i + 1], n_classes, params, seed=[seeds[i]])
        assert np.array_equal(alone.predict(rows[i : i + 1])[0], expected)


class TestMetaLearners:
    def _toy(self):
        rng = np.random.default_rng(7)
        x = np.concatenate([rng.normal(-2, 1, (30, 3)), rng.normal(2, 1, (30, 3))])
        y = np.array([0] * 30 + [1] * 30)
        return make_numeric_dataset(x, y)

    def test_bagging_single_copy_identity(self, reg):
        d = self._toy()
        single = {"n_estimators": 1, "sample_fraction": 1.0, "replace": False}
        wrapped = fit_pipeline(Candidate("decision_tree", meta="bagging", meta_params=single), d, reg, seed=3)
        base = fit_pipeline(Candidate("decision_tree"), d, reg, seed=3)
        probe = np.random.default_rng(8).normal(size=(40, 3))
        assert np.array_equal(wrapped.predict(probe), base.predict(probe))

    def test_adaboost_improves_on_stump(self, reg):
        # boosting oracle: training error of the ensemble never exceeds
        # the single stump's on a linearly structured set
        d = self._toy()
        stump_params = {"max_depth": 1, "min_split": 2}
        stump = fit_pipeline(Candidate("decision_tree", stump_params), d, reg)
        stump_err = float(np.mean(stump.predict(d.instances) != d.labels))
        boosted = fit_pipeline(
            Candidate("decision_tree", stump_params, meta="adaboost", meta_params={"n_estimators": 10}), d, reg, seed=1
        )
        boosted_err = float(np.mean(boosted.predict(d.instances) != d.labels))
        assert boosted_err <= stump_err

    def test_bagging_deterministic(self, reg):
        d = self._toy()
        comp = Candidate("knn", {"k": 1}, meta="bagging", meta_params={"n_estimators": 25})
        probe = np.random.default_rng(9).normal(size=(25, 3))
        p1 = fit_pipeline(comp, d, reg, seed=42).predict(probe)
        p2 = fit_pipeline(comp, d, reg, seed=42).predict(probe)
        assert np.array_equal(p1, p2)


class TestScalers:
    def test_standardize_two_points(self, reg):
        # oracle: mean 3, population std 1 -> [-1, 1]
        d = make_numeric_dataset([[2.0], [4.0]], [0, 1])
        scaler = reg.scaler("standardize").fit(d.instances)
        out = scaler.transform(d.instances)
        assert np.allclose(out[:, 0], [-1.0, 1.0])

    def test_standardize_zero_variance_passthrough(self, reg):
        d = make_numeric_dataset([[5.0, 1.0], [5.0, 2.0]], [0, 1])
        out = reg.scaler("standardize").fit(d.instances).transform(d.instances)
        assert np.array_equal(out[:, 0], [5.0, 5.0])

    def test_standardize_columns_whose_statistics_overflow(self, reg):
        # the first column's mean overflows, the second's squared deviations do
        x = np.column_stack(
            [
                np.linspace(1e308, 1.5e308, 20),
                np.linspace(0.5e308, 1e308, 20) * np.tile([1.0, -1.0], 10),
                np.arange(20.0),
            ]
        )
        scaler = reg.scaler("standardize").fit(x)
        shrunk = np.ldexp(x[:, :2], -1024)  # both columns peak between 2**1023 and 2**1024
        assert scaler.center[:2] == pytest.approx(np.ldexp(shrunk.mean(axis=0), 1024), rel=1e-12)
        assert scaler.scale[:2] == pytest.approx(np.ldexp(shrunk.std(axis=0), 1024), rel=1e-12)
        assert (scaler.center[2], scaler.scale[2]) == (x[:, 2].mean(), x[:, 2].std())
        out = scaler.transform(x)
        assert np.allclose(out.mean(axis=0), 0.0) and np.allclose(out.std(axis=0), 1.0)

    def test_minmax_constant_column(self, reg):
        d = make_numeric_dataset([[5.0], [5.0], [5.0]], [0, 0, 1])
        scaler = reg.scaler("minmax").fit(d.instances)
        assert np.array_equal(scaler.transform(d.instances)[:, 0], [5.0, 5.0, 5.0])
        # unseen values in a degenerate column also map to the constant
        assert np.array_equal(scaler.transform(np.array([[7.0]]))[:, 0], [5.0])

    def test_minmax_range(self, reg):
        d = make_numeric_dataset([[1.0], [3.0], [5.0]], [0, 1, 0])
        out = reg.scaler("minmax").fit(d.instances).transform(d.instances)
        assert np.allclose(out[:, 0], [0.0, 0.5, 1.0])

    def test_minmax_columns_whose_range_overflows(self, reg):
        # the first column's range overflows; the others must keep the plain formula
        x = np.column_stack(
            [
                np.linspace(0.5e308, 1e308, 20) * np.tile([1.0, -1.0], 10),
                np.linspace(-3.0, 7.0, 20) ** 3,
                np.full(20, 2.0),
            ]
        )
        scaler = reg.scaler("minmax").fit(x)
        out = scaler.transform(x)
        assert np.isfinite(out).all() and out[:, 0].min() == 0.0 and out[:, 0].max() == 1.0
        assert np.allclose(out[:, 0], (x[:, 0] / 2 - x[:, 0].min() / 2) / (x[:, 0].max() / 2 - x[:, 0].min() / 2))
        col = x[:, 1]
        assert np.array_equal(out[:, 1], (col - col.min()) / (col.max() - col.min()))
        assert np.array_equal(out[:, 2], x[:, 2])

    def test_quantile_rank_three_values(self, reg):
        # rank/(n-1) oracle
        d = make_numeric_dataset([[10.0], [20.0], [30.0]], [0, 1, 0])
        out = reg.scaler("quantile_rank").fit(d.instances).transform(d.instances)
        assert np.allclose(out[:, 0], [0.0, 0.5, 1.0])

    def test_quantile_rank_unseen_values_clamp(self, reg):
        d = make_numeric_dataset([[10.0], [20.0], [30.0]], [0, 1, 0])
        scaler = reg.scaler("quantile_rank").fit(d.instances)
        out = scaler.transform(np.array([[0.0], [15.0], [99.0]]))
        assert out[0, 0] == 0.0 and out[2, 0] == 1.0
        assert 0.0 < out[1, 0] < 0.5 or out[1, 0] == 0.25

    def test_transform_uses_fit_statistics_only(self, reg):
        d = make_numeric_dataset([[0.0], [10.0]], [0, 1])
        scaler = reg.scaler("standardize").fit(d.instances)
        out = scaler.transform(np.array([[20.0]]))
        assert out[0, 0] == pytest.approx((20.0 - 5.0) / 5.0)

    @settings(max_examples=25, deadline=None)
    @given(values=st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=3, max_size=30, unique=True))
    def test_standardize_roundtrip(self, reg, values):
        d = make_numeric_dataset(values, [i % 2 for i in range(len(values))])
        scaler = reg.scaler("standardize").fit(d.instances)
        back = scaler.transform(d.instances) * scaler.scale + scaler.center
        assert np.allclose(back, d.instances, rtol=1e-9, atol=1e-9)

    def test_minmax_identity_on_unit_data_preserves_predictions(self, reg):
        rng = np.random.default_rng(10)
        x = rng.uniform(size=(40, 3))
        x[0] = [0.0, 0.0, 0.0]
        x[1] = [1.0, 1.0, 1.0]  # every column spans exactly [0, 1]
        y = rng.integers(0, 2, 40)
        d = make_numeric_dataset(x, y)
        scaled = reg.scaler("minmax").fit(d.instances).transform(x)
        for lid in ("knn", "decision_tree"):
            m_raw = fit_pipeline(Candidate(lid), d, reg, seed=2)
            m_scaled = fit_pipeline(Candidate(lid), make_numeric_dataset(scaled, y), reg, seed=2)
            assert np.array_equal(m_raw.predict(x), m_scaled.predict(scaled)), lid


class TestFilters:
    def test_variance_ranking(self, reg):
        # variance oracle: column variances [0, 3, 1] -> ranking [1, 2, 0]
        rng = np.random.default_rng(11)
        n = 200
        x = np.column_stack([
            np.zeros(n),
            rng.normal(0, math.sqrt(3), n),
            rng.normal(0, 1, n),
        ])
        d = make_numeric_dataset(x, rng.integers(0, 2, n))
        assert reg.rank_features("variance", d) == [1, 2, 0]

    def test_pearson_perfect_column_first(self, reg):
        rng = np.random.default_rng(12)
        y = rng.integers(0, 2, 50)
        x = np.column_stack([2.0 * y - 1.0, rng.normal(size=50)])
        d = make_numeric_dataset(x, y)
        assert reg.rank_features("pearson_correlation", d)[0] == 0

    def test_tie_breaks_toward_lower_index(self, reg):
        rng = np.random.default_rng(13)
        col = rng.normal(size=30)
        x = np.column_stack([col, col])
        d = make_numeric_dataset(x, rng.integers(0, 2, 30))
        for fid in reg.filter_ids():
            ranking = reg.rank_features(fid, d)
            assert ranking == [0, 1], fid

    @settings(max_examples=20, deadline=None)
    @given(
        d_cols=st.integers(min_value=1, max_value=8),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_ranking_is_permutation(self, reg, d_cols, seed):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(25, d_cols))
        data = make_numeric_dataset(x, rng.integers(0, 2, 25))
        for fid in reg.filter_ids():
            ranking = reg.rank_features(fid, data)
            assert sorted(ranking) == list(range(d_cols)), fid

    def test_mi_and_chi2_detect_informative_column(self, reg):
        rng = np.random.default_rng(14)
        y = rng.integers(0, 2, 300)
        x = np.column_stack([y + rng.normal(0, 0.1, 300), rng.normal(size=300)])
        d = make_numeric_dataset(x, y)
        assert reg.rank_features("mutual_information", d)[0] == 0
        assert reg.rank_features("chi_squared", d)[0] == 0
