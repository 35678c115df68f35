"""Self-contained base learners operating on dense float64 matrices.

Every fit is a pure function of (X, y, params, seed); all internal
randomness comes from the seeded splitmix64 stream and every argmax
breaks ties toward the smallest class index, so repeated fits are
bit-identical. Long fits cooperate with an optional deadline, checking
it between coarse work units (per growth step, per epoch, per
prediction chunk).

Every fit takes one (n, d) problem or a stack of r equal-sized
independent problems: ``X`` (r, n, d), ``y`` (r, n) and ``seed`` a
sequence of r seeds, one per slice (a learner that draws nothing ignores
them). The model of a stack maps (r, m, d) rows to (r, m) predictions,
and each slice comes out bit-identical to fitting it alone with its
seed, so callers with many small fits (the folds of one evaluation, the
estimators of one bagging ensemble) stack them. Logistic regression
serves all r with each numpy call of an epoch; trees of all slices grow
in lockstep, one split search for the next node of every tree, each
node carrying its class counts and looking up feature subsets drawn in
blocks (``_grow``); knn and gaussian naive Bayes fit one slice at a time
through ``per_slice``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from stagedml.rng import advance, streams, tree_draws
from stagedml.timing import Deadline

_PREDICT_CHUNK = 512
# most (feature, row, class) cells of one split-search block, and most rows
# of one lockstep step: a search holds about 15 temporaries of this size
_SPLIT_BLOCK = 1 << 14
# most nodes of a tree whose feature subsets are drawn at once
_SUBSET_NODES = 32
# most (tree, row) pairs descending a stacked forest at once
_DESCENT_CELLS = 1 << 16
# most (slice, row, column) training cells a caller fits as one stack: the
# estimators of a bagging chunk, the candidates of an evaluation group
STACK_CELLS = 1 << 16


def _check_columns(model_columns: int, rows: np.ndarray) -> np.ndarray:
    rows = np.asarray(rows, dtype=np.float64)
    if rows.ndim != 2:
        raise ValueError("prediction input must be a 2-d matrix")
    if rows.shape[1] != model_columns:
        raise ValueError(
            f"prediction input has {rows.shape[1]} columns, model was trained on {model_columns}"
        )
    return rows


# ---------------------------------------------------------------------------
# stacks


def as_stack(X, y, seed) -> tuple[np.ndarray, np.ndarray, list[int], bool]:
    """``(X, y, seeds, stacked)`` of a fit: a stack (r, n, d) with its
    sequence of r seeds, or one (n, d) problem as a stack of one."""
    if X.ndim == 3:
        return X, y, [int(s) for s in seed], True
    return X[None], y[None], [int(seed)], False


@dataclass
class SliceModels:
    """Independent models of a stack's slices: (r, m, d) rows -> (r, m),
    slice i by model i."""

    models: list

    def predict(self, rows: np.ndarray, deadline: Deadline | None = None) -> np.ndarray:
        if np.ndim(rows) != 3 or len(rows) != len(self.models):
            raise ValueError(f"prediction input has shape {np.shape(rows)}, model stack has {len(self.models)} slices")
        return np.stack([model.predict(part, deadline=deadline) for model, part in zip(self.models, rows)])


def per_slice(X, y, deadline, fit_one):
    """``fit_one(X, y)`` of one (n, d) problem, or a ``SliceModels`` of it
    on every slice of an (r, n, d) stack, checking the deadline between
    slices: the stack contract for a fit of one problem that draws
    nothing."""
    if X.ndim == 2:
        return fit_one(X, y)
    models = []
    for slice_X, slice_y in zip(X, y):
        if deadline is not None:
            deadline.check()
        models.append(fit_one(slice_X, slice_y))
    return SliceModels(models)


# ---------------------------------------------------------------------------
# k-nearest neighbours


@dataclass
class KnnModel:
    x: np.ndarray
    y: np.ndarray
    k: int
    n_classes: int

    @property
    def n_columns(self) -> int:
        return self.x.shape[1]

    def predict(self, rows: np.ndarray, deadline: Deadline | None = None) -> np.ndarray:
        """Majority vote of the k nearest train rows; distance ties at
        the k-th place go to the earlier train row, class ties to the
        smaller class index."""
        rows = _check_columns(self.n_columns, rows)
        out = np.empty(rows.shape[0], dtype=np.int64)
        train_sq = np.einsum("ij,ij->i", self.x, self.x)
        k, n_classes = self.k, self.n_classes
        for start in range(0, rows.shape[0], _PREDICT_CHUNK):
            if deadline is not None:
                deadline.check()
            chunk = rows[start : start + _PREDICT_CHUNK]
            d2 = train_sq[None, :] - 2.0 * chunk @ self.x.T
            kth = np.partition(d2, k - 1, axis=1)[:, k - 1 : k]
            near = d2 <= kth
            # rows tied at the k-th distance select more than k train rows;
            # keep the earliest tied ones, as a stable sort would
            selected = np.count_nonzero(near, axis=1)
            for i in np.flatnonzero(selected > k):
                tied = np.flatnonzero(d2[i] == kth[i, 0])
                near[i, tied[tied.size - (selected[i] - k) :]] = False
            q, t = np.divmod(np.flatnonzero(near), near.shape[1])
            votes = np.bincount(q * n_classes + self.y[t], minlength=chunk.shape[0] * n_classes)
            out[start : start + chunk.shape[0]] = np.argmax(votes.reshape(-1, n_classes), axis=1)
        return out


def fit_knn(X, y, n_classes, params, seed=0, deadline=None):
    k = int(params["k"])
    return per_slice(X, y, deadline, lambda X, y: KnnModel(X, y, max(1, min(k, X.shape[0])), n_classes))


# ---------------------------------------------------------------------------
# gaussian naive bayes


@dataclass
class GaussianNbModel:
    log_priors: np.ndarray  # (n_classes,), -inf for absent classes
    means: np.ndarray  # (n_classes, d)
    variances: np.ndarray  # (n_classes, d), smoothed
    present: np.ndarray
    n_classes: int

    @property
    def n_columns(self) -> int:
        return self.means.shape[1]

    def predict(self, rows: np.ndarray, deadline: Deadline | None = None) -> np.ndarray:
        rows = _check_columns(self.n_columns, rows)
        if rows.shape[0] == 0:
            return np.empty(0, dtype=np.int64)
        scores = np.full((rows.shape[0], self.n_classes), -np.inf)
        for c in range(self.n_classes):
            if not self.present[c]:
                continue
            var = self.variances[c]
            ll = -0.5 * (np.log(2.0 * np.pi * var) + (rows - self.means[c]) ** 2 / var)
            scores[:, c] = self.log_priors[c] + ll.sum(axis=1)
        return np.argmax(scores, axis=1).astype(np.int64)


def fit_gaussian_nb(X, y, n_classes, params, seed=0, deadline=None):
    if X.ndim == 3:
        return per_slice(X, y, deadline, lambda X, y: fit_gaussian_nb(X, y, n_classes, params))
    n, d = X.shape
    means = np.zeros((n_classes, d))
    variances = np.ones((n_classes, d))
    log_priors = np.full(n_classes, -np.inf)
    present = np.zeros(n_classes, dtype=bool)
    overall_var = float(np.max(np.var(X, axis=0))) if X.size else 0.0
    eps = 1e-9 * overall_var if overall_var > 0 else 1e-12
    for c in range(n_classes):
        mask = y == c
        cnt = int(mask.sum())
        if cnt == 0:
            continue
        present[c] = True
        log_priors[c] = math.log(cnt / n)
        means[c] = X[mask].mean(axis=0)
        variances[c] = X[mask].var(axis=0) + eps
    return GaussianNbModel(log_priors, means, variances, present, n_classes)


# ---------------------------------------------------------------------------
# CART-style decision trees (Gini) and random forests, grown in lockstep


@dataclass
class ForestModel:
    """Trees as flat node arrays, each tree one pre-order block.

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
    stacked: bool

    def predict(self, rows: np.ndarray, deadline: Deadline | None = None) -> np.ndarray:
        """Majority vote of the trees, ties to the smaller class index:
        (m, d) rows -> (m,). A stack of r forests maps (r, m, d) rows to
        (r, m), slice i by forest i, and (m, d) rows to (r, m), every forest
        on the same rows. All rows descend all trees one level at a time."""
        r = self.roots.shape[0]
        rows = np.asarray(rows, dtype=np.float64)
        per_slice = self.stacked and rows.ndim == 3
        if per_slice and (rows.shape[0] != r or rows.shape[2] != self.n_features):
            raise ValueError(
                f"prediction input has shape {rows.shape}, model stack is {r} forests on {self.n_features} columns"
            )
        rows = np.ascontiguousarray(rows if per_slice else _check_columns(self.n_features, rows))
        m, d = rows.shape[-2:]
        k = self.n_classes
        flat = rows.reshape(-1)
        feature = np.maximum(self.feature, 0)
        out = np.empty((r, m), dtype=np.int64)
        chunk = max(1, _DESCENT_CELLS // self.roots.size)
        for lo in range(0, m, chunk):
            c = min(chunk, m - lo)
            at = np.arange(lo, lo + c) * d
            if per_slice:
                at = at + (np.arange(r) * (m * d))[:, None, None]
            node = np.repeat(self.roots[:, :, None], c, axis=2)
            for _ in range(self.depth):
                if deadline is not None:
                    deadline.check()
                go_left = flat[at + feature[node]] <= self.threshold[node]
                node = np.where(go_left, self.left[node], self.right[node])
            slot = np.arange(r * c).reshape(r, 1, c) * k
            votes = np.bincount((slot + self.label[node]).ravel(), minlength=r * c * k)
            out[:, lo : lo + c] = np.argmax(votes.reshape(r, c, k), axis=2)
        return out if self.stacked else out[0]


def _sum_classes(q: np.ndarray) -> np.ndarray:
    """``q`` summed over its first (class) axis with the rounding of
    numpy's sum over a contiguous last axis, which the split search has
    always used: numpy adds fewer than 8 terms in order and more pairwise,
    so only those go through a class-last copy."""
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


def _grow(X, y, n_classes, seed, n_trees, max_depth, min_split, n_sampled, bootstrap, deadline) -> ForestModel:
    """``n_trees`` trees for every slice of a stack, grown in lockstep.

    Tree t of a forest grows on a bootstrap of n ``randbelow(n)`` draws
    from the slice's stream (with ``bootstrap``; otherwise on all rows),
    then each node it searches draws its ``n_sampled`` candidate features
    by a Fisher-Yates shuffle of range(d), d - 1 draws, in pre-order. A
    lane is a sequence of trees whose nodes must be searched one at a
    time, and a step searches the next pending node of every lane at once
    (all of them when nodes draw nothing, each tree then its own lane). A
    pending node carries its row range, depth and class counts; below a
    lane's nodes wait its unstarted trees, and a step that pops one draws
    its bootstrap and searches its root. A tree's first search, and every
    ``_SUBSET_NODES``-th after, draws the subsets of as many nodes in one
    block; the next tree starts n + searched * (d - 1) draws after the last.
    A node stays a leaf without search when it is pure, at ``max_depth``
    (0: unbounded) or smaller than ``min_split``, and after search when no
    feature separates its rows or its threshold sends them all one way.
    The deadline is checked once per step; raising (not truncating) keeps
    a fitted tree a pure function of (data, params, seed), and a lapsed
    budget fails the whole evaluation.
    """
    X, y, seeds, stacked = as_stack(X, y, seed)
    r, n, d = X.shape
    k = n_classes
    X = np.ascontiguousarray(X, dtype=np.float64).reshape(r * n, d)
    y = np.asarray(y, dtype=np.int64).reshape(r * n)
    draws = n_sampled < d
    per_lane = n_trees if draws or not bootstrap else 1  # lane j grows trees j * per_lane, ...
    forest = np.arange(r * n_trees // per_lane) * per_lane // n_trees
    # each lane's stream where its current tree's bootstrap ends (before its first tree: begins)
    states = streams([seeds[f] for f in forest], np.arange(forest.size) * per_lane % n_trees * n)
    roots = np.empty(r * n_trees, dtype=np.int64)
    labels, splits = [], []
    n_nodes = 0

    def make(entries):
        """Numbers new nodes, whose depths and class counts ``entries``
        hold, and sets their sizes; returns which need a split search."""
        nonlocal n_nodes
        counts = entries[:, 5:]
        entries[:, 1] = np.arange(n_nodes, n_nodes + len(entries))
        n_nodes += len(entries)
        labels.append(counts.argmax(axis=1))
        entries[:, 3] = size = np.add.reduce(counts, axis=1)
        grows = np.maximum.reduce(counts, axis=1) < size  # impure, so at least 2 rows
        if min_split > 2:
            grows &= size >= min_split
        return grows & (entries[:, 4] < max_depth) if max_depth > 0 else grows

    # lanes grow a group at a time, so a step holds at most _SPLIT_BLOCK rows
    group = max(1, _SPLIT_BLOCK // n)
    for first_lane in range(0, forest.size, group):
        n_lanes = min(group, forest.size - first_lane)
        lane_states = states[first_lane : first_lane + n_lanes]
        offset = forest[first_lane : first_lane + n_lanes] * n
        # the rows (of X) of each lane's current tree; a node's rows are a range of them
        samples = np.empty((n_lanes, n), dtype=np.int64)
        flat_samples = samples.reshape(-1)
        # searched nodes of each lane's current tree, and the feature subsets of its next ones
        searched = np.zeros(n_lanes, dtype=np.int64)
        chunk = max(1, min(_SUBSET_NODES, _SPLIT_BLOCK // (n_lanes * d))) if draws else 0
        subsets = np.empty((n_lanes, chunk, n_sampled), dtype=np.int64)
        # pending nodes, one row each: lane (in the group), node id, first row in the
        # group's samples, row count, depth, class counts; grouped by lane, each
        # lane's top last. An unstarted tree has no rows, its place in roots for id.
        slot = np.arange(first_lane * per_lane, (first_lane + n_lanes) * per_lane)[::-1]
        pending = np.zeros((slot.size, 5 + k), dtype=np.int64)
        pending[:, 0] = lane = slot // per_lane - first_lane
        pending[:, 1], pending[:, 2] = slot, lane * n
        while pending.size:
            if deadline is not None:
                deadline.check()
            if draws:
                top = np.empty(len(pending), dtype=bool)
                top[-1] = True
                np.not_equal(pending[1:, 0], pending[:-1, 0], out=top[:-1])
                nodes, pending = pending[top], pending[~top]
            else:
                nodes, pending = pending, pending[:0]
            starts = nodes[:, 3] == 0
            if np.count_nonzero(starts):
                trees = nodes[starts]
                lane = trees[:, 0]
                # a tree starts where the last one's bootstrap ended, past its searched nodes
                at_states = lane_states[lane]
                advance(at_states, searched[lane] * (d - 1))
                boot, subsets[lane] = tree_draws(at_states, n, d, n_sampled, chunk)
                lane_states[lane], searched[lane] = at_states, 0
                samples[lane] = rows = (boot if bootstrap else np.arange(n)) + offset[lane, None]
                roots[trees[:, 1]] = np.arange(n_nodes, n_nodes + lane.size)
                trees[:, 5:] = np.add.reduce(y[rows][:, :, None] == np.arange(k), axis=1)
                nodes = np.concatenate([nodes[~starts], trees[make(trees)]])
                if not nodes.size:
                    continue
            if draws:
                lane = nodes[:, 0]
                done = searched[lane]
                features = subsets[lane, done % chunk]
                searched[lane] = done = done + 1
                # a lane that used all the feature subsets it drew draws the next ones
                refill = lane[done % chunk == 0]
                if refill.size:
                    at_states = lane_states[refill]
                    advance(at_states, searched[refill] * (d - 1))
                    _, subsets[refill] = tree_draws(at_states, 0, d, n_sampled, chunk)
            else:
                features = np.arange(d)[None, :].repeat(len(nodes), axis=0)
            size = nodes[:, 3]
            node_of = np.arange(len(nodes)).repeat(size)
            at = (nodes[:, 2] - size.cumsum() + size).repeat(size)
            at += np.arange(node_of.size)
            rows = flat_samples[at]
            feature, threshold, _ = _best_splits(X, y, rows, size, nodes[:, 5:], features)
            go_left = X[rows, feature[node_of]] <= threshold[node_of]
            left_n = np.bincount(node_of[go_left], minlength=len(nodes))
            split = (feature >= 0) & (left_n > 0) & (left_n < size)
            if not np.count_nonzero(split):
                continue
            # each node's rows, the right side's first (their order within a
            # side never changes a split, and unsplit nodes are leaves)
            key = node_of * 2 + go_left
            flat_samples[at] = rows[key.argsort(kind="stable")]
            both = np.bincount(key * k + y[rows], minlength=len(nodes) * 2 * k).reshape(-1, 2, k)
            children = nodes[split].repeat(2, axis=0)  # 2i right, 2i + 1 left child of split node i
            children[:, 4] += 1
            children[:, 5:] = both[split].reshape(-1, k)
            children[1::2, 2] += (size - left_n)[split]
            grows = make(children)
            right = children[0::2, 1].copy()  # a view would keep all the children alive
            splits.append((nodes[split, 1], nodes[split, 4], feature[split], threshold[split], right))
            # children on top of their lanes' stacks, the right below the left one, searched next
            pending = np.concatenate([pending, children[grows]])
            pending = pending[pending[:, 0].argsort(kind="stable")]
    return _assemble(labels, splits, roots.reshape(r, n_trees), d, n_classes, stacked)


def _assemble(labels, splits, roots, n_features, n_classes, stacked) -> ForestModel:
    """The grown nodes, numbered in creation order, renumbered so that each
    tree is one pre-order block and the trees follow ``roots`` row by row.
    ``splits`` holds the split nodes, their depths, features, thresholds
    and right children; a left child follows its right sibling. Both lists
    are emptied once copied, and node arrays are int32: a stack of many
    forests holds all its trees at once."""
    label = np.concatenate(labels, dtype=np.int32)
    records = list(zip(*splits)) or [[np.empty(0, dtype=np.int32)]] * 5
    parent, depth, feature, right = (np.concatenate(records[i], dtype=np.int32) for i in (0, 1, 2, 4))
    threshold = np.concatenate(records[3], dtype=np.float64)
    labels.clear()
    splits.clear()
    del records
    # subtree sizes bottom-up, then pre-order positions top-down, one depth at a time
    levels = [np.flatnonzero(depth == level) for level in range(depth.max() + 1 if depth.size else 0)]
    size = np.ones(label.size, dtype=np.int32)
    for i in reversed(levels):
        size[parent[i]] = 1 + size[right[i]] + size[right[i] + 1]
    pos = np.empty(label.size, dtype=np.int32)
    tree_size = size[roots.reshape(-1)]
    pos[roots.reshape(-1)] = tree_size.cumsum() - tree_size
    for i in levels:
        pos[right[i] + 1] = pos[parent[i]] + 1
        pos[right[i]] = pos[right[i] + 1] + size[right[i] + 1]
    model = ForestModel(
        feature=np.full(label.size, -1, dtype=np.int32),
        threshold=np.zeros(label.size),
        left=np.arange(label.size, dtype=np.int32),
        right=np.arange(label.size, dtype=np.int32),
        label=np.empty(label.size, dtype=np.int32),
        roots=pos[roots],
        depth=len(levels),
        n_features=n_features,
        n_classes=n_classes,
        stacked=stacked,
    )
    model.label[pos] = label
    at = pos[parent]
    model.feature[at], model.threshold[at] = feature, threshold
    model.left[at], model.right[at] = pos[right + 1], pos[right]
    return model


def fit_decision_tree(X, y, n_classes, params, seed=0, deadline=None) -> ForestModel:
    """One tree on all rows, every feature a candidate at every node; draws
    nothing, so ``seed`` is unused."""
    max_depth = int(params["max_depth"])  # 0 means unbounded
    min_split = max(2, int(params["min_split"]))
    return _grow(X, y, n_classes, seed, 1, max_depth, min_split, X.shape[-1], False, deadline)


def fit_random_forest(X, y, n_classes, params, seed=0, deadline=None) -> ForestModel:
    n_trees = int(params["n_trees"])
    max_depth = int(params["max_depth"])
    fraction = float(params["feature_subsample"])
    n_sampled = max(1, int(round(fraction * X.shape[-1])))
    return _grow(X, y, n_classes, seed, n_trees, max_depth, 2, n_sampled, True, deadline)

# ---------------------------------------------------------------------------
# multinomial logistic regression (full-batch gradient descent)


@dataclass
class LogisticModel:
    weights: np.ndarray  # (d + 1, n_classes) or a stack (r, d + 1, n_classes); last row is the bias
    n_classes: int

    @property
    def n_columns(self) -> int:
        return self.weights.shape[-2] - 1

    def predict(self, rows: np.ndarray, deadline: Deadline | None = None) -> np.ndarray:
        """(m, d) rows -> (m,) labels. A stack of r models maps (r, m, d)
        rows to (r, m), slice i by model i, and (m, d) rows to (r, m), every
        model on the same rows."""
        if self.weights.ndim == 3 and np.ndim(rows) == 3:
            rows = np.asarray(rows, dtype=np.float64)
            if rows.shape[0] != self.weights.shape[0] or rows.shape[2] != self.n_columns:
                raise ValueError(
                    f"prediction input has shape {rows.shape}, model stack is "
                    f"{self.weights.shape[0]} models on {self.n_columns} columns"
                )
        else:
            rows = _check_columns(self.n_columns, rows)
        logits = rows @ self.weights[..., :-1, :] + self.weights[..., -1:, :]
        return np.argmax(logits, axis=-1).astype(np.int64)


def fit_logistic_regression(X, y, n_classes, params, seed=0, deadline=None) -> LogisticModel:
    """Full-batch gradient descent on the softmax loss.

    ``X`` is one (n, d) matrix with labels ``y`` of shape (n,), or a stack
    of r independent problems, (r, n, d) with (r, n), fitted together:
    every numpy call of an epoch serves all r, and each slice of the
    returned weights is bit-identical to fitting that slice alone. A
    problem whose step turns non-finite keeps its last finite weights
    (the others go on). The fit draws no randomness and ignores ``seed``.
    """
    lr = float(params["learning_rate"])
    epochs = int(params["epochs"])
    l2 = float(params["l2"])
    stacked = X.ndim == 3
    Xb = np.concatenate([X, np.ones((*X.shape[:-1], 1))], axis=-1)
    if not stacked:
        Xb, y = Xb[None], y[None]
    r, n, _ = Xb.shape
    XbT = Xb.transpose(0, 2, 1)
    W = np.zeros((r, Xb.shape[2], n_classes))
    onehot = np.zeros((r, n, n_classes))
    onehot[np.arange(r)[:, None], np.arange(n), y] = 1.0
    for epoch in range(epochs):
        if deadline is not None and epoch % 8 == 0:
            deadline.check()
        logits = Xb @ W
        logits -= logits.max(axis=2, keepdims=True)
        expl = np.exp(logits, out=logits)
        expl /= expl.sum(axis=2, keepdims=True)
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
    return LogisticModel(weights=W if stacked else W[0], n_classes=n_classes)
