"""The histogram grower against a per-feature reference search.

The reference below scores one feature at a time: it argsorts the node's rows
by each column, takes cumulative gradient sums over the present rows of that
feature, and keeps the best cut of each feature in turn.  It is the
straightforward statement of exact greedy search with learned default
directions (Chen & Guestrin, XGBoost, Alg. 1 and 3), under the same rule as
``gbrt``: a node with missing rows on a feature sends them to the better side,
ties left; a node without sends them to the larger child, ties left; and ties
between candidates go to the lowest feature, then to its smallest threshold.
It sums a hessian where ``gbrt`` counts rows.

``gbrt.train`` adds the same gradients in another order (per-bin histograms,
the larger child's as its parent's minus its sibling's), so gains and leaf
sums agree only to rounding, and a candidate that its runner-up matches to
rounding may go either way.  So the reference regrows every round from the
model's own predictions, and wherever each node's choice beats the best
different partition (a leaf counts as one, with gain 0) by more than 1e-9 of
the larger of the two gains and the node's sum of squared gradients, both must
cut the round's training rows into the same leaves, with node weights equal to
rounding.
"""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from bloodbank import gbrt
from bloodbank.gbrt import (
    Ensemble,
    FeatureMatrix,
    GbrtConfig,
    TreeNode,
    gradients_squared_error,
    leaf_weight,
    tree_predict,
)

# every test here runs again at 1,000 examples in the deep property run (-m deep)
pytestmark = pytest.mark.deep

# ---------------------------------------------------------------------------
# reference search: one feature at a time
# ---------------------------------------------------------------------------

MARGIN = 1e-9


def gains(gl, hl, g_total, h_total, config):
    gr, hr = g_total - gl, h_total - hl
    lam = config.reg_lambda
    valid = ((hl >= config.min_child_weight) & (hr >= config.min_child_weight)
             & (hl + lam > 0.0) & (hr + lam > 0.0))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        raw = 0.5 * (gl**2 / (hl + lam) + gr**2 / (hr + lam)
                     - (g_total**2) / (h_total + lam)) - config.gamma
    return np.where(valid & np.isfinite(raw), raw, -np.inf)


def feature_candidates(col, rows, g, h, g_total, h_total, config):
    """Every (gain, threshold, default_left) of one feature over a node's rows, in
    threshold order; with missing rows each cut counts once per direction, left first."""
    present = rows[~np.isnan(col[rows])]
    present = present[np.argsort(col[present], kind="stable")]
    vals = col[present]
    cuts = np.nonzero(vals[:-1] < vals[1:])[0]
    if cuts.size == 0:
        return []
    cg, ch = np.cumsum(g[present]), np.cumsum(h[present])
    gl, hl = cg[cuts], ch[cuts]
    # the halves' sum, or the upper value where that sum is not above the lower one
    mid = 0.5 * vals[cuts] + 0.5 * vals[cuts + 1]
    thresholds = np.where(mid > vals[cuts], mid, vals[cuts + 1])
    if present.size == rows.size:  # no missing rows: they would go to the larger child
        return [(gain, t, bool(left >= h_total - left))
                for gain, t, left in zip(gains(gl, hl, g_total, h_total, config), thresholds, hl)]
    g_miss, h_miss = g_total - cg[-1], h_total - ch[-1]
    routed_left = gains(gl + g_miss, hl + h_miss, g_total, h_total, config)
    routed_right = gains(gl, hl, g_total, h_total, config)
    return [c for t, a, b in zip(thresholds, routed_left, routed_right)
            for c in ((a, t, True), (b, t, False))]


def goes_left(col, threshold, default_left):
    return np.where(np.isnan(col), default_left, col < threshold)


def grow(X, g, h, rows, features, depth, config):
    """The reference subtree.  Each node searched sets ``decided``: whether its choice
    beat the best outcome with another partition of its rows by the margin."""
    g_total = float(g[rows].sum())
    h_total = float(h[rows].sum())
    node = TreeNode(weight=leaf_weight(g_total, h_total, config.reg_lambda), cover=rows.size)
    if config.max_depth is not None and depth >= config.max_depth:
        return node

    candidates = [(gain, f, t, d) for f in features
                  for gain, t, d in feature_candidates(X[:, f], rows, g, h, g_total, h_total,
                                                       config)]
    best = max(candidates, key=lambda c: c[0], default=None)  # first max
    split = best is not None and best[0] > 0.0
    # a leaf is an outcome too, with gain 0
    chosen, runner_up = (best[0], 0.0) if split else (0.0, -np.inf)
    if split:
        mask = goes_left(X[rows, best[1]], best[2], best[3])
    for gain, f, t, d in candidates:
        if not (split and np.array_equal(goes_left(X[rows, f], t, d), mask)):
            runner_up = max(runner_up, gain)
    scale = max(abs(chosen), abs(runner_up) if np.isfinite(runner_up) else 0.0,
                float(np.sum(g[rows] ** 2)))  # a gain at rounding level has no sign
    node.decided = bool(chosen - runner_up > MARGIN * scale)
    if not split:
        return node

    node.gain, node.feature, node.threshold, node.default_left = best
    left = goes_left(X[rows, node.feature], node.threshold, node.default_left)
    node.left, node.right = (grow(X, g, h, part, features, depth + 1, config)
                             for part in (rows[left], rows[~left]))
    return node


def reference_build_tree(X, g, h, config, feature_indices=None):
    """One reference tree over every row of ``X``."""
    features = range(X.n_cols) if feature_indices is None else feature_indices
    return grow(X.values, g, h, np.arange(X.n_rows), [int(f) for f in features], 0, config)


def round_sample(rng, n, d, config):
    """A round's rows and columns, drawn as ``gbrt.train`` draws them."""
    rows, cols = np.arange(n), np.arange(d)
    if config.subsample_rows < 1.0:
        n_sub = max(1, int(round(config.subsample_rows * n)))
        rows = np.sort(rng.choice(n, size=n_sub, replace=False))
    if config.subsample_cols < 1.0:
        n_cols = max(1, int(round(config.subsample_cols * d)))
        cols = np.sort(rng.choice(d, size=n_cols, replace=False))
    return rows, cols


def reference_train(X, y, config, follow=None):
    """Boosting with the reference search.  Given a model to ``follow``, each round
    starts from that model's predictions instead, so a near tie in one round cannot
    carry into the next.  Returns the model and each round's rows and gradients."""
    rng = np.random.Generator(np.random.PCG64(config.seed))
    n, d = X.n_rows, X.n_cols
    base_score = float(y.mean())
    predictions = np.full(n, base_score)
    model = Ensemble(trees=[], learning_rate=config.learning_rate, base_score=base_score,
                     feature_names=list(X.feature_names), config=config)
    rounds = []
    for i in range(config.n_rounds):
        rows, cols = round_sample(rng, n, d, config)
        g, h = gradients_squared_error(y[rows], predictions[rows])
        tree = reference_build_tree(FeatureMatrix(X.values[rows], X.feature_names), g, h,
                                    config, cols)
        rounds.append((rows, g))
        followed = tree if follow is None else follow.trees[i]
        predictions += config.learning_rate * tree_predict(followed, X.values)
        model.trees.append(tree)
    return model, rounds


def assert_same_partitions(tree, reference, values, g):
    """Walk both trees over the rows of ``values``.  Wherever the reference's choice
    was decided by the margin, both keep the node's rows whole or cut them the same
    way, with node weights equal to rounding; below a near tie either may follow.
    Returns how many nodes were compared."""
    atol = 1e-12 * max(1.0, float(np.abs(g).sum()))

    def walk(a, b, rows):
        if not getattr(b, "decided", True):  # depth-limited leaves search nothing
            return 0
        assert a.is_leaf == b.is_leaf
        assert abs(a.weight - b.weight) <= atol + 1e-9 * abs(b.weight)
        if b.is_leaf:
            return 1
        left = goes_left(values[rows, b.feature], b.threshold, b.default_left)
        assert np.array_equal(goes_left(values[rows, a.feature], a.threshold, a.default_left),
                              left)
        if a.feature == b.feature:
            assert (a.threshold, a.default_left) == (b.threshold, b.default_left)
        return 1 + walk(a.left, b.left, rows[left]) + walk(a.right, b.right, rows[~left])

    return walk(tree, reference, np.arange(values.shape[0]))


def assert_matches_reference(X, y, config, model):
    """Each round of ``model`` partitions its rows as the reference does, from the
    same predictions; returns how many nodes each round compared."""
    assert model.base_score == float(y.mean())
    assert len(model.trees) == config.n_rounds
    reference, rounds = reference_train(X, y, config, follow=model)
    return [assert_same_partitions(tree, ref, X.values[rows], g)
            for tree, ref, (rows, g) in zip(model.trees, reference.trees, rounds)]


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
    assert_matches_reference(X, y, config, gbrt.train(X, y, config))


def splits(node):
    if node.is_leaf:
        return []
    return [node] + splits(node.left) + splits(node.right)


def test_identical_columns_lower_index_wins_every_split():
    rng = np.random.default_rng(3)
    x = make_matrix(rng, 200, ["continuous", "tied"], 0.1).values
    X = FeatureMatrix(np.column_stack([x, x]), ["a", "b", "a2", "b2"])
    y = rng.normal(scale=10.0, size=200) + 5.0 * np.nan_to_num(x[:, 0])
    model = gbrt.train(X, y, GbrtConfig(n_rounds=20, max_depth=3))
    used = {node.feature for tree in model.trees for node in splits(tree)}
    assert 0 in used and used <= {0, 1}


@pytest.mark.parametrize("low_rows", [3, 7])
def test_nan_at_forecast_on_a_feature_without_training_nans_goes_to_larger_child(low_rows):
    X = FeatureMatrix(np.arange(10.0)[:, None], ["x"])
    y = np.where(np.arange(10) < low_rows, 0.0, 10.0)
    model = gbrt.train(X, y, GbrtConfig(n_rounds=1, learning_rate=1.0, max_depth=1,
                                        reg_lambda=0.0))
    root = model.trees[0]
    assert root.threshold == low_rows - 0.5
    assert root.default_left == (low_rows > 5)
    larger = root.left if low_rows > 5 else root.right
    missing = gbrt.predict(model, FeatureMatrix(np.array([[np.nan]]), ["x"]))
    assert missing[0] == model.base_score + larger.weight


def test_missing_rows_whose_two_sides_score_the_same_go_left():
    # gradients -1, -1, 1, 1 with lambda 0: routing the two missing rows to
    # either side scores 1/3 + 1 exactly
    X = FeatureMatrix(np.array([[1.0], [2.0], [np.nan], [np.nan]]), ["x"])
    model = gbrt.train(X, np.array([1.0, 1.0, -1.0, -1.0]),
                       GbrtConfig(n_rounds=1, max_depth=1, reg_lambda=0.0))
    root = model.trees[0]
    assert (root.threshold, root.gain, root.default_left) == (1.5, 0.5 * (1 / 3 + 1), True)


def test_node_without_missing_rows_stores_default_by_child_counts():
    rng = np.random.default_rng(5)
    X = make_matrix(rng, 150, ["continuous", "tied", "binary"], 0.2)
    y = np.round(rng.normal(scale=3.0, size=150), 2)
    model = gbrt.train(X, y, GbrtConfig(n_rounds=10, max_depth=4))
    seen = set()

    def check(node, rows):
        if node.is_leaf:
            return
        col = X.values[rows, node.feature]
        left = goes_left(col, node.threshold, node.default_left)
        if not np.isnan(col).any():
            assert node.default_left == (left.sum() >= (~left).sum())
            seen.add(node.default_left)
        check(node.left, rows[left])
        check(node.right, rows[~left])

    for tree in model.trees:
        check(tree, np.arange(X.n_rows))
    assert seen == {True, False}
    # two equal children: ties go left
    even = gbrt.train(FeatureMatrix(np.arange(4.0)[:, None], ["x"]), np.array([0.0, 0, 1, 1]),
                      GbrtConfig(n_rounds=1, max_depth=1, reg_lambda=0.0))
    assert even.trees[0].default_left
