"""The node-level split search against a per-feature reference search.

The reference below scores one feature at a time: it argsorts every column of
every round's row subsample, takes cumulative gradient sums over the present
rows of that feature, and keeps the best split of each feature in turn.  It
is the straightforward statement of exact greedy search with learned default
directions (Chen & Guestrin, XGBoost, Alg. 1 and 3), and it sums a hessian
where ``gbrt`` counts rows.  ``gbrt.train`` must reproduce its trees exactly:
same splits, gains, thresholds, default directions, covers and leaf weights, to
the last bit.
"""

import json

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from bloodbank import gbrt
from bloodbank.gbrt import (
    Ensemble,
    FeatureMatrix,
    GbrtConfig,
    TreeNode,
    ensemble_to_dict,
    gradients_squared_error,
    leaf_weight,
    tree_predict,
)

# ---------------------------------------------------------------------------
# reference search: one feature at a time
# ---------------------------------------------------------------------------


def best_split_for_feature(values, sorted_rows, n_present, g, h, g_total, h_total,
                           reg_lambda, gamma, min_child_weight):
    """Best (gain, threshold, default_left) over one feature, or gain=-inf."""
    present = sorted_rows[:n_present]
    if n_present < 2:
        return -np.inf, 0.0, True
    vals = values[present]
    boundaries = np.nonzero(vals[:-1] < vals[1:])[0]
    if boundaries.size == 0:
        return -np.inf, 0.0, True
    cg = np.cumsum(g[present])
    ch = np.cumsum(h[present])
    gl = cg[boundaries]
    hl = ch[boundaries]
    g_miss = g_total - cg[-1]
    h_miss = h_total - ch[-1]

    def gains(gl_side, hl_side):
        gr_side = g_total - gl_side
        hr_side = h_total - hl_side
        valid = ((hl_side >= min_child_weight) & (hr_side >= min_child_weight)
                 & (hl_side + reg_lambda > 0.0) & (hr_side + reg_lambda > 0.0))
        with np.errstate(divide="ignore", invalid="ignore"):
            raw = 0.5 * (
                gl_side**2 / (hl_side + reg_lambda)
                + gr_side**2 / (hr_side + reg_lambda)
                - (g_total**2) / (h_total + reg_lambda)
            ) - gamma
        return np.where(valid & np.isfinite(raw), raw, -np.inf)

    gains_left = gains(gl + g_miss, hl + h_miss)  # missing rows routed left
    gains_right = gains(gl, hl)
    best = np.maximum(gains_left, gains_right)
    pos = int(np.argmax(best))  # first max -> smallest threshold on ties
    if not np.isfinite(best[pos]):
        return -np.inf, 0.0, True
    cut = boundaries[pos]
    threshold = 0.5 * (vals[cut] + vals[cut + 1])
    return float(best[pos]), float(threshold), bool(gains_left[pos] >= gains_right[pos])


def grow(X, g, h, sorted_rows, n_present, missing, depth, config):
    rows = sorted_rows[next(iter(sorted_rows))]
    g_total = float(g[rows].sum())
    h_total = float(h[rows].sum())
    node = TreeNode(weight=leaf_weight(g_total, h_total, config.reg_lambda), cover=rows.size)
    if config.max_depth is not None and depth >= config.max_depth:
        return node

    best = None
    for feature in sorted(sorted_rows):
        gain, threshold, default_left = best_split_for_feature(
            X[:, feature], sorted_rows[feature], n_present[feature], g, h, g_total, h_total,
            config.reg_lambda, config.gamma, config.min_child_weight)
        if best is None or gain > best[0]:  # a later feature must beat it strictly
            best = (gain, feature, threshold, default_left)
    gain, feature, threshold, default_left = best
    if gain <= 0.0:
        return node

    col = X[:, feature]
    goes_left = np.zeros(X.shape[0], dtype=bool)
    goes_left[rows] = np.where(np.isnan(col[rows]), default_left, col[rows] < threshold)
    children = ({}, {}), ({}, {})
    for f, order in sorted_rows.items():
        mask = goes_left[order]
        for (orders, present), part in zip(children, (order[mask], order[~mask])):
            orders[f] = part
            present[f] = int(part.size - missing[part, f].sum())
    node.feature, node.threshold, node.default_left, node.gain = (
        feature, threshold, default_left, gain)
    node.left, node.right = (grow(X, g, h, orders, present, missing, depth + 1, config)
                             for orders, present in children)
    return node


def reference_build_tree(X, g, h, config, feature_indices=None):
    values = X.values
    missing = np.isnan(values)
    features = range(X.n_cols) if feature_indices is None else feature_indices
    sorted_rows, n_present = {}, {}
    for feature in features:
        feature = int(feature)
        sorted_rows[feature] = np.argsort(values[:, feature], kind="stable")  # NaN last
        n_present[feature] = int(X.n_rows - missing[:, feature].sum())
    return grow(values, g, h, sorted_rows, n_present, missing, 0, config)


def reference_train(X, y, config):
    """Boosting with a fresh argsort of every round's row subsample."""
    rng = np.random.Generator(np.random.PCG64(config.seed))
    n, d = X.n_rows, X.n_cols
    base_score = float(y.mean())
    predictions = np.full(n, base_score)
    model = Ensemble(trees=[], learning_rate=config.learning_rate, base_score=base_score,
                     feature_names=list(X.feature_names), config=config)
    for _ in range(config.n_rounds):
        rows = np.arange(n)
        if config.subsample_rows < 1.0:
            n_sub = max(1, int(round(config.subsample_rows * n)))
            rows = np.sort(rng.choice(n, size=n_sub, replace=False))
        cols = np.arange(d)
        if config.subsample_cols < 1.0:
            n_cols = max(1, int(round(config.subsample_cols * d)))
            cols = np.sort(rng.choice(d, size=n_cols, replace=False))
        g, h = gradients_squared_error(y[rows], predictions[rows])
        sub = FeatureMatrix(X.values[rows], X.feature_names)
        tree = reference_build_tree(sub, g, h, config, feature_indices=cols)
        predictions += config.learning_rate * tree_predict(tree, X.values)
        model.trees.append(tree)
    return model


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------

COLUMN_KINDS = ("continuous", "tied", "binary", "constant")


def make_matrix(rng, n, kinds, nan_fraction):
    columns = []
    for kind in kinds:
        if kind == "continuous":
            col = rng.normal(size=n)
        elif kind == "tied":
            col = rng.integers(0, 4, size=n) * 0.5
        elif kind == "binary":
            col = rng.integers(0, 2, size=n).astype(float)
        else:
            col = np.full(n, 2.5)
        col[rng.random(n) < nan_fraction] = np.nan
        columns.append(col)
    values = np.column_stack(columns)
    return FeatureMatrix(values, [f"x{i}" for i in range(len(kinds))])


configs = st.builds(
    GbrtConfig,
    n_rounds=st.integers(1, 6),
    learning_rate=st.sampled_from([0.1, 0.5, 1.0]),
    max_depth=st.sampled_from([None, 1, 2, 3, 5]),
    min_child_weight=st.sampled_from([0.0, 1.0, 5.0]),
    subsample_rows=st.sampled_from([1.0, 0.8, 0.5]),
    subsample_cols=st.sampled_from([1.0, 0.6]),
    reg_lambda=st.sampled_from([0.0, 1.0, 2.5]),
    gamma=st.sampled_from([0.0, 0.3, 2.0]),
    seed=st.integers(0, 2**16),
)


def tree_texts(trees):
    """Each tree as canonical JSON text, so -0.0 and 0.0 count as different."""
    doc = ensemble_to_dict(Ensemble(trees=list(trees)))
    return [json.dumps(tree, sort_keys=True) for tree in doc["trees"]]


# ---------------------------------------------------------------------------
# tests
# ---------------------------------------------------------------------------


@given(
    data_seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 60),
    kinds=st.lists(st.sampled_from(COLUMN_KINDS), min_size=1, max_size=5),
    nan_fraction=st.sampled_from([0.0, 0.0, 0.15, 0.6]),
    config=configs,
)
def test_train_matches_reference_tree_by_tree(data_seed, n, kinds, nan_fraction, config):
    rng = np.random.default_rng(data_seed)
    X = make_matrix(rng, n, kinds, nan_fraction)
    y = np.round(rng.normal(scale=3.0, size=n), 2)  # rounding makes tied gradients
    fast = gbrt.train(X, y, config)
    slow = reference_train(X, y, config)
    assert fast.base_score == slow.base_score
    assert len(fast.trees) == len(slow.trees) == config.n_rounds
    for i, (a, b) in enumerate(zip(tree_texts(fast.trees), tree_texts(slow.trees))):
        assert a == b, f"tree {i}"


def test_default_direction_follows_rounding_noise_without_nans():
    """With no missing values, both directions score the same split, up to the last
    bit of the pairwise node total against the running sum; the stored direction
    follows that bit in both searches."""
    rng = np.random.default_rng(3)
    X = make_matrix(rng, 200, ["continuous", "binary", "continuous"], 0.0)
    y = rng.normal(scale=10.0, size=200)
    config = GbrtConfig(n_rounds=20, max_depth=3)
    fast = gbrt.train(X, y, config)
    slow = reference_train(X, y, config)
    assert tree_texts(fast.trees) == tree_texts(slow.trees)

    def directions(node):
        if node.is_leaf:
            return []
        return [node.default_left] + directions(node.left) + directions(node.right)

    seen = {d for tree in fast.trees for d in directions(tree)}
    assert seen == {True, False}
