"""The per-feature bin grid of ``gbrt.train`` and the level-at-a-time walk of
``gbrt.predict``.

The grid lays the features' bins out one after another, adjacent features whose
bin counts lie within 2x of each other padded to a common width, so that none
holds more than twice its own bins.  Columns whose widths alternate (binary beside
300-value columns) each start a run, and all-NaN, constant and tied columns hold
one, two or a few bins: on all of them the grower must cut as the per-feature
reference search does, tree by tree, with and without column subsampling.  ``predict`` walks a chunk of trees at once and adds their terms by
one ``cumsum``: it must give the sums of adding ``lr * tree_predict`` tree after
tree, bit for bit, whatever the number of trees against the chunk.
"""

import dataclasses
import math

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from bloodbank import gbrt
from bloodbank.gbrt import FeatureMatrix, GbrtConfig, TreeNode, predict, tree_predict
from test_gbrt_oracle import assert_matches_reference

KINDS = ("binary", "wide", "tied", "constant", "all_nan", "continuous")


def column(rng, kind, n, nan_fraction):
    if kind == "binary":
        col = rng.integers(0, 2, size=n).astype(float)
    elif kind == "wide":  # 300 distinct values, each on a row or two
        col = rng.permutation(np.arange(n) % 300) * 0.37 - 40.0
    elif kind == "tied":
        col = rng.integers(0, 4, size=n) * 0.5
    elif kind == "constant":
        col = np.full(n, 2.5)
    elif kind == "all_nan":
        col = np.full(n, np.nan)
    else:
        col = rng.normal(size=n)
    col[rng.random(n) < nan_fraction] = np.nan
    return col


def alternating_matrix(rng, n, pairs, extra, nan_fraction):
    """``pairs`` binary and 300-value columns side by side, then the ``extra`` kinds."""
    kinds = ["binary", "wide"] * pairs + list(extra)
    values = np.column_stack([column(rng, kind, n, nan_fraction) for kind in kinds])
    return FeatureMatrix(values, [f"x{i}" for i in range(len(kinds))])


matrices = st.builds(
    lambda seed, n, pairs, extra, nan_fraction: alternating_matrix(
        np.random.default_rng(seed), n, pairs, extra, nan_fraction),
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(300, 340),
    pairs=st.integers(1, 2),
    extra=st.lists(st.sampled_from(KINDS), max_size=3),
    nan_fraction=st.sampled_from([0.0, 0.0, 0.1, 0.5]),
)


@given(X=matrices, y_seed=st.integers(0, 2**16), config=st.builds(
    GbrtConfig,
    n_rounds=st.integers(1, 3),
    learning_rate=st.sampled_from([0.3, 1.0]),
    max_depth=st.sampled_from([1, 2, 3]),
    min_child_weight=st.sampled_from([0.0, 1.0, 20.0]),
    subsample_rows=st.sampled_from([1.0, 0.7]),
    subsample_cols=st.sampled_from([1.0, 1.0, 0.5]),
    reg_lambda=st.sampled_from([0.0, 1.0]),
    seed=st.integers(0, 2**16),
))
def test_grid_grows_the_reference_trees(X, y_seed, config):
    y = np.round(np.random.default_rng(y_seed).normal(scale=3.0, size=X.n_rows), 2)
    assert_matches_reference(X, y, config, gbrt.train(X, y, config))


@given(counts=st.lists(st.integers(0, 40), min_size=1, max_size=12), seed=st.integers(0, 2**16))
def test_no_feature_is_padded_past_twice_its_bins(counts, seed):
    rng = np.random.default_rng(seed)
    values = np.column_stack([rng.permutation(np.resize(np.arange(count) * 0.5, 60))
                              if count else np.full(60, np.nan) for count in counts])
    values[rng.random(values.shape) < 0.1] = np.nan
    codes, grid = gbrt._bins(values)
    for j, col in enumerate(values.T):  # each cell's bin lies in its feature's, in order
        present = ~np.isnan(col)
        own = np.unique(col[present]).size + 1
        assert own <= np.count_nonzero(grid.feature == j) <= 2 * own
        assert (grid.feature[codes[:, j]] == j).all()
        assert (codes[~present, j] == grid.nan[j]).all()
        assert np.array_equal(grid.edges[codes[present, j]], col[present])


def leaf_of(node: TreeNode, row: np.ndarray) -> float:
    """The weight of the leaf one row reaches, one split after another."""
    while not node.is_leaf:
        x = row[node.feature]
        left = node.default_left if math.isnan(x) else x < node.threshold
        node = node.left if left else node.right
    return node.weight


@given(
    seed=st.integers(0, 2**32 - 1),
    n_trees=st.sampled_from([0, 1, 2, gbrt._CHUNK - 1, gbrt._CHUNK, gbrt._CHUNK + 1,
                             2 * gbrt._CHUNK + 1]),
    leaf_only=st.sampled_from([0.0, 0.3, 1.0]),
    max_depth=st.sampled_from([1, 3, None]),
    rows=st.integers(1, 40),
)
def test_walk_adds_tree_after_tree(seed, n_trees, leaf_only, max_depth, rows):
    rng = np.random.default_rng(seed)
    kinds = ("binary", "tied", "continuous")
    X = FeatureMatrix(np.column_stack([column(rng, kind, 60, 0.1) for kind in kinds]), kinds)
    config = GbrtConfig(n_rounds=n_trees, learning_rate=0.3, max_depth=max_depth,
                        min_child_weight=0.0, seed=seed % 2**16)
    model = gbrt.train(X, rng.normal(size=X.n_rows), config)
    trees = [TreeNode(weight=float(rng.normal()), threshold=float(rng.normal()),
                      default_left=bool(rng.random() < 0.5)) if rng.random() < leaf_only else tree
             for tree in model.trees]  # some single leaves, whose split fields mean nothing
    model = dataclasses.replace(model, trees=trees)
    values = X.values[rng.integers(0, X.n_rows, size=rows)]
    values[rng.random(values.shape) < 0.2] = np.nan
    values[0] = np.nan  # a row with no value at all
    added = np.full(rows, model.base_score)
    for tree in trees:
        weights = tree_predict(tree, values)
        assert weights.tobytes() == np.array([leaf_of(tree, row) for row in values]).tobytes()
        added += model.learning_rate * weights
    assert predict(model, FeatureMatrix(values, X.feature_names)).tobytes() == added.tobytes()
