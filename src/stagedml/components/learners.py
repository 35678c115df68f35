"""Self-contained base learners operating on dense float64 matrices.

Every fit is a pure function of (X, y, params, seed); all internal
randomness comes from seeded splitmix64 streams and every argmax
breaks ties toward the smallest class index, so repeated fits are
bit-identical. Every fit and predict takes a ``Deadline``
(``NO_DEADLINE`` by default) and checks it between coarse work units
(a growth step, every 8th epoch, a prediction chunk).

Every fit takes a stack of r equal-sized independent problems: ``X``
(r, n, d), ``y`` (r, n) and ``seed`` a sequence of r seeds, one per
slice (a learner that draws nothing ignores them), and rejects input of
any other shape (``check_fit``). Its model maps (r, m, d) rows to (r, m)
predictions, slice i by the model of slice i, and rejects rows of any
other shape (``check_stack``). Each slice comes out bit-identical to
fitting it as a stack of one with its seed, so callers with many small
fits (the folds of one evaluation, the estimators of one bagging
ensemble) stack them, and a caller with one problem fits a stack of one.
Logistic regression serves all r with each numpy call of an epoch; knn
keeps the stack and predicts it slice by slice into distance buffers
that one call reuses; gaussian naive Bayes loops over the slices itself,
and its model holds every slice's arrays.

Trees of all slices grow at once, level by level (``_grow``), as a
random forest keys its draws by tree and by node: tree t of slice i
draws its bootstrap and then its root's key from the stream seeded by
output t + 1 of ``Rng(seed[i])``, and a searched node of key K its
feature subset and then its left and its right child's keys from ``Rng(K)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from stagedml.rng import next_u64_block, node_draws, streams, tree_start
from stagedml.timing import NO_DEADLINE, Deadline

_PREDICT_CHUNK = 512
# most (feature, row, class) cells of one split-search block, and most rows
# of one grower step: a search holds about 15 temporaries of this size
_SPLIT_BLOCK = 1 << 14
# most (tree, row) pairs descending a stacked forest at once
_DESCENT_CELLS = 1 << 16
# most (slice, row, column) training cells a caller fits as one stack: the
# estimators of a bagging chunk, the candidates of an evaluation group
STACK_CELLS = 1 << 16


# ---------------------------------------------------------------------------
# stacks


def check_fit(X, y) -> tuple[np.ndarray, np.ndarray]:
    """``X`` as float64 and ``y`` as int64 if they are a stack of r
    training problems, ``X`` (r, n, d) and ``y`` (r, n): the input of
    every fit."""
    X, y = np.asarray(X, dtype=np.float64), np.asarray(y, dtype=np.int64)
    if X.ndim != 3 or y.shape != X.shape[:2]:
        raise ValueError(f"fit input has shapes {X.shape} and {y.shape}, not (r, n, d) rows with (r, n) labels")
    return X, y


def check_stack(rows, r: int, d: int) -> np.ndarray:
    """``rows`` as float64 if they are a stack of r row sets of d columns,
    the input of a model fitted on r slices of d columns."""
    rows = np.asarray(rows, dtype=np.float64)
    if rows.ndim != 3 or rows.shape[0] != r or rows.shape[2] != d:
        raise ValueError(f"prediction input has shape {rows.shape}, model stack is {r} models on {d} columns")
    return rows


# ---------------------------------------------------------------------------
# k-nearest neighbours


@dataclass
class KnnModel:
    x: np.ndarray  # (r, n, d) train rows
    y: np.ndarray  # (r, n) labels
    k: int
    n_classes: int

    def predict(self, rows: np.ndarray, deadline: Deadline = NO_DEADLINE) -> np.ndarray:
        """Majority vote of the k nearest train rows; distance ties at
        the k-th place go to the earlier train row, class ties to the
        smaller class index. (r, m, d) rows -> (r, m), slice i by train
        slice i.

        Slices go one at a time and rows in chunks of ``_PREDICT_CHUNK``,
        so a chunk's distances are the product that slice computes as a
        stack of one. They land in one distance and one partition buffer that
        this call allocates and every slice and chunk reuses: fresh
        temporaries of a few MiB cost more in page faults than the matmul
        that fills them."""
        x, y = self.x, self.y
        rows = check_stack(rows, len(x), x.shape[2])
        r, m, _ = rows.shape
        n = x.shape[1]
        k, n_classes = self.k, self.n_classes
        out = np.empty((r, m), dtype=np.int64)
        d2_buffer = np.empty((min(m, _PREDICT_CHUNK), n))
        part_buffer = np.empty_like(d2_buffer)
        for s in range(r):
            train_sq = np.einsum("ij,ij->i", x[s], x[s])
            train_t = x[s].T
            for start in range(0, m, _PREDICT_CHUNK):
                deadline.check()
                chunk = rows[s, start : start + _PREDICT_CHUNK]
                d2, part = d2_buffer[: len(chunk)], part_buffer[: len(chunk)]
                np.matmul(2.0 * chunk, train_t, out=d2)
                np.subtract(train_sq, d2, out=d2)
                np.copyto(part, d2)
                part.partition(k - 1, axis=1)
                kth = part[:, k - 1 : k]
                near = d2 <= kth
                # rows tied at the k-th distance select more than k train rows;
                # keep the earliest tied ones, as a stable sort would
                selected = np.count_nonzero(near, axis=1)
                for i in np.flatnonzero(selected > k):
                    tied = np.flatnonzero(d2[i] == kth[i, 0])
                    near[i, tied[tied.size - (selected[i] - k) :]] = False
                q, t = np.divmod(np.flatnonzero(near), n)
                votes = np.bincount(q * n_classes + y[s, t], minlength=len(chunk) * n_classes)
                out[s, start : start + len(chunk)] = np.argmax(votes.reshape(-1, n_classes), axis=1)
        return out


def fit_knn(X, y, n_classes, params, seed=0, deadline=NO_DEADLINE):
    """Stores the train rows of the stack: a fit draws nothing and does no
    work, so ``seed`` and ``deadline`` go unused."""
    X, y = check_fit(X, y)
    return KnnModel(X, y, max(1, min(int(params["k"]), X.shape[1])), n_classes)


# ---------------------------------------------------------------------------
# gaussian naive bayes


@dataclass
class GaussianNbModel:
    log_priors: np.ndarray  # (r, n_classes), -inf for a class absent from a slice
    means: np.ndarray  # (r, n_classes, d)
    variances: np.ndarray  # (r, n_classes, d), smoothed

    def predict(self, rows: np.ndarray, deadline: Deadline = NO_DEADLINE) -> np.ndarray:
        """The class of largest log prior plus gaussian log likelihood,
        ties to the smaller class index; a class absent from a slice is
        never predicted there. (r, m, d) rows -> (r, m)."""
        r, n_classes, d = self.means.shape
        rows = check_stack(rows, r, d)
        deadline.check()
        scores = np.empty((r, rows.shape[1], n_classes))
        for c in range(n_classes):
            var = self.variances[:, c, None]
            ll = -0.5 * (np.log(2.0 * np.pi * var) + (rows - self.means[:, c, None]) ** 2 / var)
            scores[:, :, c] = self.log_priors[:, c, None] + ll.sum(axis=2)
        scores[np.broadcast_to(self.log_priors[:, None] == -np.inf, scores.shape)] = -np.inf
        return np.argmax(scores, axis=2).astype(np.int64)


def fit_gaussian_nb(X, y, n_classes, params, seed=0, deadline=NO_DEADLINE) -> GaussianNbModel:
    """Each slice's class priors, means and variances, the variances
    smoothed by 1e-9 of the slice's largest column variance (1e-12 when
    every column is constant). Draws nothing, so ``seed`` goes unused;
    checks the deadline between slices."""
    X, y = check_fit(X, y)
    r, n, d = X.shape
    means = np.zeros((r, n_classes, d))
    variances = np.ones((r, n_classes, d))
    log_priors = np.full((r, n_classes), -np.inf)
    for s, (slice_X, slice_y) in enumerate(zip(X, y)):
        deadline.check()
        overall_var = float(np.max(np.var(slice_X, axis=0))) if slice_X.size else 0.0
        eps = 1e-9 * overall_var if overall_var > 0 else 1e-12
        for c in range(n_classes):
            mask = slice_y == c
            cnt = int(mask.sum())
            if cnt == 0:
                continue
            log_priors[s, c] = math.log(cnt / n)
            means[s, c] = slice_X[mask].mean(axis=0)
            variances[s, c] = slice_X[mask].var(axis=0) + eps
    return GaussianNbModel(log_priors, means, variances)


# ---------------------------------------------------------------------------
# CART-style decision trees (Gini) and random forests, grown level by level


@dataclass
class ForestModel:
    """Trees as flat node arrays, the nodes of all trees in the order they
    were grown.

    Node i is a leaf when ``feature[i]`` is -1; a leaf points to itself in
    ``left`` and ``right``. Otherwise rows whose value in column
    ``feature[i]`` is at most ``threshold[i]`` go to ``left[i]`` and the
    rest to ``right[i]``. ``label`` is the majority class of a node's
    training rows, ``roots[s, t]`` the root of tree t of the forest of
    stack slice s, and ``depth`` the most splits on any root-to-leaf path.
    A decision tree is a forest of one tree.
    """

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    label: np.ndarray
    roots: np.ndarray  # (r, n_trees)
    depth: int
    n_features: int
    n_classes: int

    def predict(self, rows: np.ndarray, deadline: Deadline = NO_DEADLINE) -> np.ndarray:
        """Majority vote of each forest's trees, ties to the smaller class
        index: (r, m, d) rows -> (r, m), slice i by forest i. The rows
        descend all trees one level at a time, in chunks of rows, and the
        deadline is checked before each chunk."""
        r = self.roots.shape[0]
        rows = np.ascontiguousarray(check_stack(rows, r, self.n_features))
        m, d = rows.shape[1:]
        k = self.n_classes
        flat = rows.reshape(-1)
        feature = np.maximum(self.feature, 0)
        out = np.empty((r, m), dtype=np.int64)
        chunk = max(1, _DESCENT_CELLS // self.roots.size)
        for lo in range(0, m, chunk):
            deadline.check()
            c = min(chunk, m - lo)
            at = np.arange(lo, lo + c) * d + (np.arange(r) * (m * d))[:, None, None]
            node = np.repeat(self.roots[:, :, None], c, axis=2)
            for _ in range(self.depth):
                go_left = flat[at + feature[node]] <= self.threshold[node]
                node = np.where(go_left, self.left[node], self.right[node])
            slot = np.arange(r * c).reshape(r, 1, c) * k
            votes = np.bincount((slot + self.label[node]).ravel(), minlength=r * c * k)
            out[:, lo : lo + c] = np.argmax(votes.reshape(r, c, k), axis=2)
        return out


def _sum_classes(q: np.ndarray) -> np.ndarray:
    """``q`` summed over its first (class) axis with the rounding of
    numpy's sum over a contiguous last axis, which the split search and
    the logistic-regression softmax have always used: numpy adds fewer
    than 8 terms in order and more pairwise, so only those go through a
    class-last copy."""
    if q.shape[0] >= 8:
        return np.ascontiguousarray(np.moveaxis(q, 0, -1)).sum(axis=-1)
    total = q[0]
    for c in range(1, q.shape[0]):
        total = total + q[c]
    return total


def _score_block(X, y, rows, sizes, counts, gini, features) -> tuple[np.ndarray, np.ndarray]:
    """Best gain and threshold of node j on its i-th candidate feature, as
    (F, J) arrays; see ``_best_splits``."""
    n_nodes, n_features = features.shape
    n_classes = counts.shape[1]
    n_rows = rows.size
    node_of = np.arange(n_nodes).repeat(sizes)
    starts = sizes.cumsum() - sizes
    first = starts[node_of]
    labels = y[rows]
    # segment (i, j), node j's rows on its i-th feature, is one stretch of
    # row i: sort each row by value, then stably by node (a radix sort)
    values = X[rows, features.T.take(node_of, axis=1)]
    order = values.argsort(axis=1)
    at = np.arange(n_features)[:, None]
    if n_nodes > 1:
        order = order[at, node_of.astype(np.min_scalar_type(n_nodes))[order].argsort(axis=1, kind="stable")]
    values = values[at, order]
    # class-major cumulative counts; a node's left side after sorted row p
    onehot = labels[order] == np.arange(n_classes)[:, None, None]
    cum = np.zeros((n_classes, n_features, n_rows + 1))
    np.add.accumulate(onehot, axis=2, dtype=np.float64, out=cum[:, :, 1:])
    left = cum[:, :, 1:] - cum.take(first, axis=2)
    right = counts.T.take(node_of, axis=1)[:, None] - left
    left_n = np.arange(1.0, n_rows + 1) - first
    n = sizes.astype(np.float64)[node_of]
    # a node's last row has no right side: scored with right_n 1, never picked
    right_n = np.maximum(n - left_n, 1.0)
    gini_left = 1.0 - _sum_classes((left / left_n) ** 2)
    gini_right = 1.0 - _sum_classes((right / right_n) ** 2)
    gains = gini[node_of] - (left_n * gini_left + right_n * gini_right) / n
    # only a change of value within a node is a threshold
    invalid = np.empty(values.shape, dtype=bool)
    invalid[:, :-1] = values[:, 1:] == values[:, :-1]
    invalid |= left_n == n
    gains[invalid] = -np.inf
    best = np.maximum.reduceat(gains, starts, axis=1)
    pick = np.minimum.reduceat(np.where(gains == best.take(node_of, axis=1), np.arange(n_rows), n_rows), starts, axis=1)
    return best, (values[at, pick] + values[at, pick + 1]) / 2.0


def _best_splits(X, y, rows, sizes, counts, features) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The best Gini split of each node of a batch.

    Node j holds the ``sizes[j]`` (at least two) rows of ``X`` and ``y``
    listed next in ``rows``, ``counts[j]`` their class counts, and
    ``features[j]`` its candidate features in ascending order, as many for
    every node. Returns (feature, threshold, gain) arrays, one entry per
    node: the split of largest Gini impurity reduction, ties to the lowest
    feature id, then the lowest threshold; feature -1 and gain -inf where
    no candidate feature takes two values.

    A (node, feature) pair is a segment of rows. Groups of nodes are
    scored in blocks of features, a block holding at most ``_SPLIT_BLOCK``
    (row, class) cells unless one feature of one node is larger; a batch
    within that budget is one block. Within a block the rows of all nodes
    on one feature are sorted by value and then stably by node, which
    sorts every segment; one cumulative class count runs over them and each
    segment subtracts the count at its start. So nodes of any mix of sizes
    are scored together without padding.
    """
    sizes = np.asarray(sizes, dtype=np.int64)
    features = np.asarray(features, dtype=np.int64)
    counts = np.asarray(counts, dtype=np.float64)
    n_nodes, n_features = features.shape
    n_classes = counts.shape[1]
    gini = 1.0 - np.add.reduce((counts / sizes[:, None]) ** 2, axis=1)
    if rows.size * n_classes * n_features <= _SPLIT_BLOCK:
        gains, thresholds = _score_block(X, y, rows, sizes, counts, gini, features)
    else:
        gains = np.empty((n_features, n_nodes))
        thresholds = np.empty((n_features, n_nodes))
        ends = sizes.cumsum()
        lo = 0
        while lo < n_nodes:
            start = ends[lo - 1] if lo else 0
            hi = max(lo + 1, int(ends.searchsorted(start + _SPLIT_BLOCK // n_classes, side="right")))
            block = max(1, _SPLIT_BLOCK // ((ends[hi - 1] - start) * n_classes))
            at = slice(lo, hi)
            for f in range(0, n_features, block):
                gains[f : f + block, at], thresholds[f : f + block, at] = _score_block(
                    X, y, rows[start : ends[hi - 1]], sizes[at], counts[at], gini[at], features[at, f : f + block]
                )
            lo = hi
    at = np.arange(n_nodes)
    best = gains.argmax(axis=0)
    gain = gains[best, at]
    found = gain > -np.inf
    return np.where(found, features[at, best], -1), np.where(found, thresholds[best, at], 0.0), gain


def _grow(X, y, n_classes, seeds, n_trees, max_depth, min_split, n_sampled, bootstrap, deadline) -> ForestModel:
    """``n_trees`` trees for every slice of a stack, all grown at once.

    Tree t of slice i draws from the stream ``Rng(s)`` whose seed s is
    output t + 1 of ``Rng(seeds[i])``: with ``bootstrap``, n
    ``randbelow(n)`` draws, the rows it grows on (otherwise it grows on
    all rows), then the key of its root (``tree_start``). A node of key K
    that is searched draws from ``Rng(K)``: its ``n_sampled`` candidate
    features are the first ``n_sampled`` places, ascending, of a
    ``Rng.shuffle`` of range(d), which takes d - 1 draws, and the next two
    outputs are the keys of its left and its right child (``node_draws``).
    With ``n_sampled`` = d a node draws nothing and searches every feature,
    and a tree that neither bootstraps nor samples draws nothing at all.

    So no node waits for another: trees grow in groups of at most
    ``_SPLIT_BLOCK`` rows (one tree when a tree has more), and each step
    searches every pending node of every tree in the group, one level of
    them. A pending node carries its row range, depth and class counts.
    A node stays a leaf without search when it is pure, at ``max_depth``
    (0: unbounded) or smaller than ``min_split``, and after search when no
    feature separates its rows or its threshold sends them all one way.
    The deadline is checked once per step; raising (not truncating) keeps
    a fitted tree a pure function of (data, params, seed), and a lapsed
    budget fails the whole evaluation. Nodes are numbered as they are
    made, the two children of a split together, and keep those numbers in
    the model.
    """
    X, y = check_fit(X, y)
    r, n, d = X.shape
    k = n_classes
    X = np.ascontiguousarray(X).reshape(r * n, d)
    y = y.reshape(r * n)
    draws = n_sampled < d
    if bootstrap or draws:
        tree_seeds = next_u64_block(streams([int(s) for s in seeds]), n_trees).reshape(-1)
    roots = np.empty(r * n_trees, dtype=np.int32)
    labels, splits = [], []
    n_nodes = 0

    def make(entries):
        """Numbers new nodes, whose depths and class counts ``entries``
        hold, and sets their sizes; returns which need a split search."""
        nonlocal n_nodes
        counts = entries[:, 5:]
        entries[:, 0] = np.arange(n_nodes, n_nodes + len(entries))
        n_nodes += len(entries)
        labels.append(counts.argmax(axis=1))
        entries[:, 2] = size = np.add.reduce(counts, axis=1)
        grows = np.maximum.reduce(counts, axis=1) < size  # impure, so at least 2 rows
        if min_split > 2:
            grows &= size >= min_split
        return grows & (entries[:, 3] < max_depth) if max_depth > 0 else grows

    group = max(1, _SPLIT_BLOCK // n)
    for first in range(0, r * n_trees, group):
        trees = np.arange(first, min(first + group, r * n_trees))
        # pending nodes, one row each: node id, first row in the group's
        # samples, row count, depth, key (its bits as int64), class counts
        nodes = np.zeros((trees.size, 5 + k), dtype=np.int64)
        if bootstrap or draws:
            boot, keys = tree_start(tree_seeds[trees], n if bootstrap else 0)
            nodes[:, 4] = keys.view(np.int64)
        # the rows (of X) of each tree of the group; a node's rows are a range of them
        samples = (boot if bootstrap else np.arange(n)) + (trees // n_trees * n)[:, None]
        flat_samples = samples.reshape(-1)
        nodes[:, 1] = np.arange(trees.size) * n
        nodes[:, 5:] = np.add.reduce(y[samples][:, :, None] == np.arange(k), axis=1)
        roots[trees] = np.arange(n_nodes, n_nodes + trees.size)
        nodes = nodes[make(nodes)]
        while nodes.size:
            deadline.check()
            if draws:
                features, child_keys = node_draws(nodes[:, 4].view(np.uint64), d, n_sampled)
            else:
                features = np.arange(d)[None, :].repeat(len(nodes), axis=0)
            size = nodes[:, 2]
            node_of = np.arange(len(nodes)).repeat(size)
            at = (nodes[:, 1] - size.cumsum() + size).repeat(size)
            at += np.arange(node_of.size)
            rows = flat_samples[at]
            feature, threshold, _ = _best_splits(X, y, rows, size, nodes[:, 5:], features)
            go_left = X[rows, feature[node_of]] <= threshold[node_of]
            left_n = np.bincount(node_of[go_left], minlength=len(nodes))
            split = (feature >= 0) & (left_n > 0) & (left_n < size)
            if not np.count_nonzero(split):
                break
            # each node's rows, the right side's first (their order within a
            # side never changes a split, and unsplit nodes are leaves)
            side = node_of * 2 + go_left
            flat_samples[at] = rows[side.argsort(kind="stable")]
            both = np.bincount(side * k + y[rows], minlength=len(nodes) * 2 * k).reshape(-1, 2, k)
            children = nodes[split].repeat(2, axis=0)  # 2i right, 2i + 1 left child of split node i
            children[:, 3] += 1
            children[1::2, 1] += (size - left_n)[split]
            if draws:
                children[:, 4] = child_keys[split][:, ::-1].reshape(-1).view(np.int64)
            children[:, 5:] = both[split].reshape(-1, k)
            grows = make(children)
            right = children[0::2, 0].copy()  # a view would keep all the children alive
            splits.append((nodes[split, 0], nodes[split, 3], feature[split], threshold[split], right))
            nodes = children[grows]
    return _assemble(labels, splits, roots.reshape(r, n_trees), d, n_classes)


def _assemble(labels, splits, roots, n_features, n_classes) -> ForestModel:
    """The grown nodes as a ``ForestModel``, numbered in creation order.
    ``splits`` holds the split nodes, their depths, features, thresholds
    and right children; a left child follows its right sibling. Node
    arrays are int32: a stack of many forests holds all its trees at once."""
    label = np.concatenate(labels, dtype=np.int32)
    records = list(zip(*splits)) or [[np.empty(0, dtype=np.int32)]] * 5
    at, depth, feature, right = (np.concatenate(records[i], dtype=np.int32) for i in (0, 1, 2, 4))
    model = ForestModel(
        feature=np.full(label.size, -1, dtype=np.int32),
        threshold=np.zeros(label.size),
        left=np.arange(label.size, dtype=np.int32),
        right=np.arange(label.size, dtype=np.int32),
        label=label,
        roots=roots,
        depth=int(depth.max()) + 1 if depth.size else 0,
        n_features=n_features,
        n_classes=n_classes,
    )
    model.feature[at], model.threshold[at] = feature, np.concatenate(records[3], dtype=np.float64)
    model.left[at], model.right[at] = right + 1, right
    return model


def fit_decision_tree(X, y, n_classes, params, seed=0, deadline=NO_DEADLINE) -> ForestModel:
    """One tree on all rows, every feature a candidate at every node; draws
    nothing, so ``seed`` is unused."""
    max_depth = int(params["max_depth"])  # 0 means unbounded
    min_split = max(2, int(params["min_split"]))
    return _grow(X, y, n_classes, seed, 1, max_depth, min_split, X.shape[-1], False, deadline)


def fit_random_forest(X, y, n_classes, params, seed=0, deadline=NO_DEADLINE) -> ForestModel:
    """``n_trees`` trees per slice, each on a bootstrap of the rows, each
    searched node choosing among round(``feature_subsample`` * d) features
    (at least one). Tree t of slice i draws its bootstrap and then its
    root's key from the stream seeded by the (t + 1)-th output of
    ``Rng(seed[i])``, and a node its features and then its children's keys
    from the stream seeded by its own key (``_grow``)."""
    n_trees = int(params["n_trees"])
    max_depth = int(params["max_depth"])
    fraction = float(params["feature_subsample"])
    n_sampled = max(1, int(round(fraction * X.shape[-1])))
    return _grow(X, y, n_classes, seed, n_trees, max_depth, 2, n_sampled, True, deadline)

# ---------------------------------------------------------------------------
# multinomial logistic regression (full-batch gradient descent)


@dataclass
class LogisticModel:
    weights: np.ndarray  # (r, d + 1, n_classes); last row of each slice is the bias
    n_classes: int

    def predict(self, rows: np.ndarray, deadline: Deadline = NO_DEADLINE) -> np.ndarray:
        """(r, m, d) rows -> (r, m) labels, slice i by model i."""
        deadline.check()
        r, d_bias, _ = self.weights.shape
        rows = check_stack(rows, r, d_bias - 1)
        logits = rows @ self.weights[:, :-1, :] + self.weights[:, -1:, :]
        return np.argmax(logits, axis=-1).astype(np.int64)


def fit_logistic_regression(X, y, n_classes, params, seed=0, deadline=NO_DEADLINE) -> LogisticModel:
    """Full-batch gradient descent on the softmax loss.

    The r problems of the stack are fitted together: every numpy call of
    an epoch serves all r, and each slice of the returned weights is
    bit-identical to fitting that slice as a stack of one. A
    problem whose step turns non-finite keeps its last finite weights
    (the others go on). The fit draws no randomness and ignores ``seed``.

    The softmax of an epoch takes each row's maximum and sum over the
    classes as elementwise passes over class columns, not as reductions
    along a class axis of a few entries. A maximum is exact in any order;
    the sum rounds as numpy's sum over a contiguous last axis does, in
    class order below 8 classes and pairwise from 8 on (``_sum_classes``).
    """
    lr = float(params["learning_rate"])
    epochs = int(params["epochs"])
    l2 = float(params["l2"])
    X, y = check_fit(X, y)
    Xb = np.concatenate([X, np.ones((*X.shape[:-1], 1))], axis=-1)
    r, n, _ = Xb.shape
    XbT = Xb.transpose(0, 2, 1)
    W = np.zeros((r, Xb.shape[2], n_classes))
    onehot = np.zeros((r, n, n_classes))
    onehot[np.arange(r)[:, None], np.arange(n), y] = 1.0
    for epoch in range(epochs):
        if epoch % 8 == 0:
            deadline.check()
        logits = Xb @ W
        classes = logits.transpose(2, 0, 1)  # views: class c of every row is classes[c]
        peak = classes[0]
        for column in classes[1:]:
            peak = np.maximum(peak, column)
        logits -= peak[..., None]
        expl = np.exp(logits, out=logits)
        expl /= _sum_classes(classes)[..., None]
        expl -= onehot
        grad = XbT @ expl
        grad /= n
        grad[:, :-1] += l2 * W[:, :-1]
        step = W - lr * grad
        # a sum of finite entries may overflow, but one with a NaN or an
        # infinity never is finite: look at the slices only then
        if not math.isfinite(step.sum()):
            finite = np.isfinite(step).all(axis=(1, 2))
            if not finite.any():
                break
            # the weights of a stopped slice stay put, so its step stays
            # non-finite in every later epoch too
            step[~finite] = W[~finite]
        W = step
    return LogisticModel(weights=W, n_classes=n_classes)
