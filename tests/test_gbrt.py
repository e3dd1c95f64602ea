import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from bloodbank import gbrt
from bloodbank.errors import ParameterError, SchemaError
from bloodbank.gbrt import (
    Ensemble,
    FeatureMatrix,
    GbrtConfig,
    TreeNode,
    ensemble_from_dict,
    ensemble_to_dict,
    gradients_squared_error,
    leaf_weight,
    predict,
    split_gain,
    train,
    tree_predict,
    variable_importance,
)
from test_gbrt_oracle import (
    COLUMN_KINDS,
    assert_matches_reference,
    assert_same_partitions,
    configs,
    make_matrix,
    reference_build_tree,
)


def training_objective(model: Ensemble, X: FeatureMatrix, y, n_trees: int) -> float:
    """Squared-error loss plus the complexity penalty of the first ``n_trees`` trees.

    The L2 penalty applies to leaf values as they enter the prediction, i.e.
    after shrinkage; measured this way the objective never increases across
    boosting rounds when gamma is zero and no subsampling is active.
    """
    preds = np.full(X.n_rows, model.base_score)
    penalty = 0.0
    shrinkage, reg_lambda, gamma = model.learning_rate, model.config.reg_lambda, model.config.gamma

    def leaf_penalty(node: TreeNode) -> float:
        if node.is_leaf:
            return gamma + 0.5 * reg_lambda * (shrinkage * node.weight) ** 2
        return leaf_penalty(node.left) + leaf_penalty(node.right)

    for tree in model.trees[:n_trees]:
        preds += shrinkage * tree_predict(tree, X.values)
        penalty += leaf_penalty(tree)
    return float(0.5 * ((np.asarray(y) - preds) ** 2).sum() + penalty)


def n_leaves(node: TreeNode) -> int:
    return 1 if node.is_leaf else n_leaves(node.left) + n_leaves(node.right)


class TestGradients:
    def test_definition_at_zero_prediction(self):
        g, h = gradients_squared_error([2.0, 4.0], [0.0, 0.0])
        assert np.array_equal(g, [-2.0, -4.0])
        assert np.array_equal(h, [1.0, 1.0])

    def test_zero_at_minimum(self):
        g, h = gradients_squared_error([1.0, 5.0], [1.0, 5.0])
        assert np.array_equal(g, [0.0, 0.0])
        assert np.array_equal(h, [1.0, 1.0])

    def test_hand_differentiated_values(self):
        g, h = gradients_squared_error([1.0, 2.0, 3.0], [3.0, 2.0, 1.0])
        assert np.array_equal(g, [2.0, 0.0, -2.0])
        assert np.array_equal(h, [1.0, 1.0, 1.0])

    def test_length_mismatch(self):
        with pytest.raises(ParameterError):
            gradients_squared_error([1.0], [1.0, 2.0])


class TestLeafWeight:
    def test_hand_arithmetic(self):
        assert leaf_weight(-6.0, 2.0, 1.0) == pytest.approx(2.0, abs=1e-9)

    def test_zero_gradient(self):
        assert leaf_weight(0.0, 5.0, 0.3) == 0.0

    def test_single_sample_unregularized(self):
        assert leaf_weight(-10.0, 1.0, 0.0) == pytest.approx(10.0, abs=1e-9)

    def test_degenerate_denominator(self):
        with pytest.raises(ParameterError):
            leaf_weight(1.0, 0.0, 0.0)

    def test_lambda_shrinks_magnitude(self):
        rng = np.random.default_rng(8)
        for _ in range(200):
            g = rng.normal(scale=5.0)
            h = rng.uniform(0.5, 10.0)
            lam_small, lam_big = sorted(rng.uniform(0.0, 5.0, size=2))
            assert abs(leaf_weight(g, h, lam_big)) <= abs(leaf_weight(g, h, lam_small)) + 1e-12


class TestSplitGain:
    def test_hand_arithmetic(self):
        expected = 0.5 * (18.0 + 100.0 - 256.0 / 3.0)
        assert split_gain(-6.0, 2.0, -10.0, 1.0, 0.0, 0.0) == pytest.approx(expected, abs=1e-9)
        assert expected == pytest.approx(16.3333333333, abs=1e-6)

    def test_symmetric_split_gains_nothing(self):
        assert split_gain(-3.0, 1.0, -3.0, 1.0, 0.0, 0.0) == pytest.approx(0.0, abs=1e-12)

    def test_gamma_is_additive_penalty(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            gl, gr = rng.normal(size=2) * 4.0
            hl, hr = rng.uniform(0.5, 5.0, size=2)
            lam = rng.uniform(0.0, 2.0)
            base = split_gain(gl, hl, gr, hr, lam, 0.0)
            assert split_gain(gl, hl, gr, hr, lam, 5.0) == pytest.approx(base - 5.0, abs=1e-12)

    def test_degenerate_denominator(self):
        with pytest.raises(ParameterError):
            split_gain(1.0, 0.0, 1.0, 1.0, 0.0, 0.0)

    def test_consistency_with_leaf_losses(self):
        # loss after a split, evaluated through the optimal-weight quadratic,
        # must equal loss before minus the gain (gamma excluded)
        rng = np.random.default_rng(123)

        def newton_loss(g_sum, h_sum, lam):
            w = leaf_weight(g_sum, h_sum, lam)
            return g_sum * w + 0.5 * (h_sum + lam) * w * w

        for _ in range(10_000):
            gl, gr = rng.normal(scale=5.0, size=2)
            hl, hr = rng.uniform(0.1, 8.0, size=2)
            lam = rng.uniform(0.0, 3.0)
            before = newton_loss(gl + gr, hl + hr, lam)
            after = newton_loss(gl, hl, lam) + newton_loss(gr, hr, lam)
            gain = split_gain(gl, hl, gr, hr, lam, 0.0)
            assert before - after == pytest.approx(gain, abs=1e-9)


def single_column(values):
    return FeatureMatrix(np.asarray(values, dtype=float).reshape(-1, 1), ["x"])


def grow_tree(X: FeatureMatrix, g, config: GbrtConfig, out=None) -> TreeNode:
    """One tree of ``train``'s grower over every row and column of ``X``."""
    codes, edges = gbrt._bins(X.values)
    return gbrt._grow(codes, edges, np.arange(X.n_cols), np.arange(X.n_rows),
                      np.asarray(g, dtype=float), 0, config, out)


class TestBuildTree:
    def test_single_row_is_single_leaf(self):
        tree = grow_tree(single_column([3.0]), [2.0], GbrtConfig(reg_lambda=0.5))
        assert tree.is_leaf
        assert tree.weight == pytest.approx(leaf_weight(2.0, 1.0, 0.5))

    def test_hand_enumerated_split(self):
        # targets [2, 4, 10] with zero predictions: g = [-2, -4, -10]
        X = single_column([1.0, 2.0, 10.0])
        g = np.array([-2.0, -4.0, -10.0])
        config = GbrtConfig(max_depth=2, reg_lambda=0.0, gamma=0.0, min_child_weight=1.0)
        tree = grow_tree(X, g, config)
        assert not tree.is_leaf
        assert tree.threshold == pytest.approx(6.0)  # between the 2 and the 10
        assert tree.gain == pytest.approx(0.5 * (18.0 + 100.0 - 256.0 / 3.0), abs=1e-9)

    def test_homogeneous_targets_stay_single_leaf(self):
        X = single_column([1.0, 2.0, 3.0, 4.0])
        g = np.full(4, -3.0)  # identical residuals
        tree = grow_tree(X, g, GbrtConfig(max_depth=4, reg_lambda=0.0, gamma=0.0))
        assert tree.is_leaf
        assert tree.weight == pytest.approx(3.0)

    def test_min_child_weight_blocks_small_children(self):
        X = single_column([1.0, 2.0, 10.0])
        g = np.array([-2.0, -4.0, -10.0])
        config = GbrtConfig(max_depth=2, reg_lambda=0.0, min_child_weight=2.0)
        tree = grow_tree(X, g, config)
        assert tree.is_leaf  # any split would leave a child with sum(h) = 1

    def test_tie_break_prefers_lowest_feature_then_threshold(self):
        # two identical columns: equal gains everywhere, so feature 0 must win
        values = np.column_stack([[1.0, 2.0, 3.0, 4.0], [1.0, 2.0, 3.0, 4.0]])
        X = FeatureMatrix(values, ["a", "b"])
        g = np.array([-1.0, -1.0, 1.0, 1.0])
        tree = grow_tree(X, g, GbrtConfig(max_depth=1, reg_lambda=0.0))
        assert tree.feature == 0


class TestTrainPredict:
    def test_interpolation_regime_zero_rmse(self):
        rng = np.random.default_rng(1)
        X = FeatureMatrix(rng.normal(size=(30, 3)), ["a", "b", "c"])
        y = rng.normal(size=30)
        config = GbrtConfig(
            n_rounds=1, learning_rate=1.0, max_depth=None, min_child_weight=1.0,
            reg_lambda=0.0, gamma=0.0,
        )
        model = train(X, y, config)
        assert np.max(np.abs(predict(model, X) - y)) <= 1e-9

    def test_leaf_weights_equal_mean_residuals(self):
        # one tree, lr=1, lambda=0: every leaf is the mean residual of its rows
        rng = np.random.default_rng(21)
        X = FeatureMatrix(rng.normal(size=(40, 2)), ["a", "b"])
        y = rng.normal(size=40)
        config = GbrtConfig(n_rounds=1, learning_rate=1.0, max_depth=2, reg_lambda=0.0)
        model = train(X, y, config)
        residual = y - y.mean()

        def check(node, rows):
            values = X.values
            if node.is_leaf:
                assert node.weight == pytest.approx(residual[rows].mean(), abs=1e-9)
                return
            col = values[rows, node.feature]
            left = col < node.threshold
            check(node.left, rows[left])
            check(node.right, rows[~left])

        check(model.trees[0], np.arange(40))

    @pytest.mark.parametrize("low, high", [
        (1.0, 1.0000000000000002),  # adjacent floats: their midpoint rounds down to 1.0
        (1e308, 1.7e308),  # their sum overflows to inf
    ])
    def test_split_threshold_separates_what_training_separated(self, low, high):
        X = FeatureMatrix(np.repeat([low, high], 5)[:, None], ["x"])
        y = np.repeat([0.0, 10.0], 5)
        model = train(X, y, GbrtConfig(n_rounds=1, learning_rate=1.0, max_depth=1))
        root = model.trees[0]
        assert (root.left.cover, root.right.cover) == (5, 5)
        assert low < root.threshold <= high
        predicted = predict(model, X)
        assert len(set(predicted[:5])) == len(set(predicted[5:])) == 1
        assert predicted[0] < predicted[5]
        loaded = ensemble_from_dict(json.loads(json.dumps(ensemble_to_dict(model))))
        assert np.array_equal(predict(loaded, X), predicted)

    def test_zero_rounds_predicts_mean(self):
        rng = np.random.default_rng(2)
        X = FeatureMatrix(rng.normal(size=(10, 2)), ["a", "b"])
        y = rng.normal(size=10)
        model = train(X, y, GbrtConfig(n_rounds=0))
        assert np.allclose(predict(model, X), y.mean())

    def test_learns_seeded_linear_signal(self):
        rng = np.random.default_rng(5)
        n = 500
        values = rng.normal(size=(n, 3))
        y = 3.0 * values[:, 0] + rng.normal(0.0, 1.0, n)
        cut = n - n // 5
        names = ["x1", "x2", "x3"]
        model = train(
            FeatureMatrix(values[:cut], names), y[:cut],
            GbrtConfig(n_rounds=100, learning_rate=0.1, max_depth=3),
        )
        pred = predict(model, FeatureMatrix(values[cut:], names))
        test_rmse = np.sqrt(np.mean((pred - y[cut:]) ** 2))
        assert test_rmse < 0.5 * y.std()

    def test_hand_built_two_leaf_tree(self):
        tree = TreeNode(
            feature=0, threshold=5.0, default_left=True,
            left=TreeNode(weight=-1.0), right=TreeNode(weight=2.0),
        )
        model = Ensemble(trees=[tree], learning_rate=0.5, base_score=10.0, feature_names=["x"])
        out = predict(model, single_column([3.0, 7.0]))
        assert out[0] == pytest.approx(9.5)
        assert out[1] == pytest.approx(11.0)

    def test_column_mismatch_rejected(self):
        rng = np.random.default_rng(3)
        X = FeatureMatrix(rng.normal(size=(5, 2)), ["a", "b"])
        model = train(X, rng.normal(size=5), GbrtConfig(n_rounds=1))
        with pytest.raises(ParameterError):
            predict(model, single_column([1.0]))

    def test_nan_targets_rejected(self):
        X = single_column([1.0, 2.0])
        with pytest.raises(ParameterError):
            train(X, [1.0, np.nan], GbrtConfig())

    def test_one_row_rejected(self):
        with pytest.raises(ParameterError, match="at least two rows"):
            train(single_column([1.0]), [1.0], GbrtConfig())

    def test_residuals_whose_squared_sums_overflow_rejected(self):
        # the rounding left in the root's gradient sum of values near 1e300
        # once overflowed ``g_total ** 2`` with a bare OverflowError
        rng = np.random.default_rng(4)
        X = FeatureMatrix(rng.normal(size=(50, 2)), ["a", "b"])
        with pytest.raises(ParameterError, match="squared-error sums overflow"):
            train(X, rng.normal(scale=1e300, size=50), GbrtConfig(n_rounds=1))
        # the positive and the negative gradients each sum to 9.8e153, whose
        # square fits, although the sum of their magnitudes squared would not
        y = np.zeros(50)
        y[7] = 1e154
        assert np.isfinite(predict(train(X, y, GbrtConfig(n_rounds=1)), X)).all()

    def test_missing_values_follow_learned_default(self):
        values = np.array([[1.0], [2.0], [np.nan], [10.0], [11.0]])
        X = FeatureMatrix(values, ["x"])
        y = np.array([0.0, 0.0, 10.0, 10.0, 10.0])
        model = train(X, y, GbrtConfig(n_rounds=1, learning_rate=1.0, max_depth=2,
                                       reg_lambda=0.0))
        assert np.max(np.abs(predict(model, X) - y)) <= 1e-9

    def test_determinism_bit_identical(self):
        rng = np.random.default_rng(9)
        values = rng.normal(size=(60, 4))
        y = rng.normal(size=60)
        names = ["a", "b", "c", "d"]
        config = GbrtConfig(n_rounds=15, subsample_rows=0.7, subsample_cols=0.5, seed=3)
        one = train(FeatureMatrix(values, names), y, config)
        two = train(FeatureMatrix(values, names), y, config)
        assert ensemble_to_dict(one) == ensemble_to_dict(two)

    def test_objective_non_increasing_without_subsampling(self):
        rng = np.random.default_rng(5)
        values = rng.normal(size=(300, 3))
        y = 3.0 * values[:, 0] + rng.normal(0.0, 1.0, 300)
        names = ["x1", "x2", "x3"]
        X = FeatureMatrix(values, names)
        for config in (
            GbrtConfig(n_rounds=40, learning_rate=0.1, max_depth=3, reg_lambda=1.0, gamma=0.0),
            GbrtConfig(n_rounds=40, learning_rate=1.0, max_depth=3, reg_lambda=0.0, gamma=0.0),
            GbrtConfig(n_rounds=40, learning_rate=0.3, max_depth=4, reg_lambda=5.0, gamma=0.0),
        ):
            model = train(X, y, config)
            objective = [training_objective(model, X, y, k) for k in range(41)]
            for before, after in zip(objective, objective[1:]):
                assert after <= before + 1e-9 * abs(before)

    def test_gamma_weakly_reduces_leaf_count(self):
        rng = np.random.default_rng(14)
        values = rng.normal(size=(200, 3))
        y = np.sin(values[:, 0]) + rng.normal(0.0, 0.3, 200)
        names = ["a", "b", "c"]

        def leaves(gamma):
            model = train(FeatureMatrix(values, names), y,
                          GbrtConfig(n_rounds=10, max_depth=4, gamma=gamma, reg_lambda=0.0))
            return sum(n_leaves(tree) for tree in model.trees)

        assert leaves(5.0) <= leaves(0.5) <= leaves(0.0)


class TestUnitHessian:
    """``_grow`` counts rows for squared error's unit hessian, counts only the smaller
    child's histogram and, given ``out``, writes each row's leaf weight."""

    @given(
        data_seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 60),
        kinds=st.lists(st.sampled_from(COLUMN_KINDS), min_size=1, max_size=5),
        nan_fraction=st.sampled_from([0.0, 0.2, 0.6]),
        config=configs,
    )
    def test_counts_grow_the_tree_of_a_hessian_of_ones(self, data_seed, n, kinds,
                                                        nan_fraction, config):
        rng = np.random.default_rng(data_seed)
        X = make_matrix(rng, n, kinds, nan_fraction)
        g = np.round(rng.normal(scale=3.0, size=n), 2)  # rounding makes tied gradients
        out = np.empty(n)
        counted = grow_tree(X, g, config, out)
        summed = reference_build_tree(X, g, np.ones(n), config)
        assert_same_partitions(counted, summed, X.values, g)
        assert out.tobytes() == tree_predict(counted, X.values).tobytes()

    def trained_like_reference(self, X, y, config):
        fast = train(X, y, config)
        assert all(assert_matches_reference(X, y, config, fast))  # every root compared
        return fast

    def test_depth_one_split_decided_by_missing_rows(self):
        # the missing rows carry the high targets: the root's children are
        # leaves, and only routing the missing rows right separates the targets
        X = single_column([1.0, 2.0, np.nan, 3.0, 4.0, 5.0, np.nan, 6.0])
        y = np.array([0.0, 0.0, 9.0, 0.0, 9.0, 9.0, 9.0, 9.0])
        model = self.trained_like_reference(X, y, GbrtConfig(n_rounds=4, max_depth=1))
        root = model.trees[0]
        assert not root.default_left and root.left.is_leaf and root.right.is_leaf
        assert root.threshold == 3.5

    def test_missing_rows_all_in_one_child(self):
        # the root cuts column a at 19.5, so every missing b lands in the left
        # child, whose NaN bin for b is counted; the right child's b has none
        rng = np.random.default_rng(21)
        a = np.arange(40.0)
        b = rng.normal(size=40)
        b[:6] = np.nan
        X = FeatureMatrix(np.column_stack([a, b]), ["a", "b"])
        y = np.where(a < 20, 0.0, 30.0) + np.where(np.isnan(b), 4.0, b)
        config = GbrtConfig(n_rounds=4, max_depth=3, reg_lambda=0.0)
        model = self.trained_like_reference(X, y, config)
        root = model.trees[0]
        assert (root.feature, root.threshold) == (0, 19.5)
        assert root.left.feature == 1

    @pytest.mark.parametrize("config", [
        GbrtConfig(n_rounds=6, max_depth=2, subsample_rows=0.5, seed=7),  # walks the tree
        GbrtConfig(n_rounds=4, max_depth=None, min_child_weight=0.0, reg_lambda=0.5),
    ])
    def test_subsampled_and_unbounded_trees_match_reference(self, config):
        rng = np.random.default_rng(8)
        X = make_matrix(rng, 80, ["continuous", "tied", "binary"], 0.15)
        y = np.round(rng.normal(scale=3.0, size=80), 2)
        self.trained_like_reference(X, y, config)


class TestInSampleFit:
    """``train`` keeps the in-sample fit its rounds build; ``in_sample`` returns it for the
    training rows, equal to ``predict`` bit for bit, and for no other rows."""

    @given(
        data_seed=st.integers(0, 2**32 - 1),
        n=st.integers(2, 30),
        kinds=st.lists(st.sampled_from(COLUMN_KINDS), min_size=1, max_size=4),
        nan_fraction=st.sampled_from([0.0, 0.2, 0.6]),
        config=st.builds(
            GbrtConfig,
            n_rounds=st.integers(0, 4),
            learning_rate=st.sampled_from([0.1, 0.5, 1.0]),
            max_depth=st.sampled_from([None, 1, 3]),
            min_child_weight=st.sampled_from([0.0, 1.0, 5.0]),
            subsample_rows=st.sampled_from([1.0, 0.8, 0.5]),
            subsample_cols=st.sampled_from([1.0, 0.6]),
            reg_lambda=st.sampled_from([0.0, 1.0]),
            seed=st.integers(0, 2**16),
        ),
    )
    def test_kept_fit_is_predict_bit_for_bit(self, data_seed, n, kinds, nan_fraction, config):
        rng = np.random.default_rng(data_seed)
        X = make_matrix(rng, n, kinds, nan_fraction)
        y = np.round(rng.normal(scale=3.0, size=n), 2)
        model = train(X, y, config)
        assert gbrt.in_sample(model, X).tobytes() == predict(model, X).tobytes()

    def test_only_the_training_rows_get_the_kept_fit(self):
        rng = np.random.default_rng(5)
        X = make_matrix(rng, 40, ["continuous", "tied"], 0.1)
        model = train(X, rng.normal(size=40), GbrtConfig(n_rounds=5))
        copy = FeatureMatrix(X.values.copy(), X.feature_names)
        assert gbrt.in_sample(model, copy).tobytes() == predict(model, X).tobytes()
        other = X.values.copy()
        other[0, 0] += 1.0
        assert gbrt.in_sample(model, FeatureMatrix(other, X.feature_names)) is None
        assert gbrt.in_sample(model, FeatureMatrix(X.values[:-1], X.feature_names)) is None
        assert gbrt.in_sample(model, FeatureMatrix(X.values, ["p", "q"])) is None
        loaded = ensemble_from_dict(ensemble_to_dict(model))
        assert loaded.fitted is None and gbrt.in_sample(loaded, X) is None

    def test_kept_fit_stays_out_of_documents_repr_and_equality(self):
        rng = np.random.default_rng(9)
        X = make_matrix(rng, 30, ["continuous"], 0.0)
        model = train(X, rng.normal(size=30), GbrtConfig(n_rounds=3))
        assert model.fitted is not None and "fitted" not in ensemble_to_dict(model)
        copy = dataclasses.replace(model)
        assert "fitted" not in repr(model) and copy.fitted is None and copy == model

    def test_replaced_ensembles_walk_their_trees(self):
        rng = np.random.default_rng(11)
        X = make_matrix(rng, 40, ["continuous", "tied"], 0.1)
        model = train(X, rng.normal(size=40), GbrtConfig(n_rounds=6))
        for copy in (dataclasses.replace(model, trees=model.trees[:2]),
                     dataclasses.replace(model, learning_rate=0.5),
                     dataclasses.replace(model, base_score=model.base_score + 1.0)):
            assert gbrt.in_sample(copy, X) is None
            assert predict(copy, X).tobytes() != gbrt.in_sample(model, X).tobytes()


class TestImportance:
    def test_single_used_feature_gets_everything(self):
        rng = np.random.default_rng(6)
        values = np.column_stack([rng.normal(size=50), np.zeros(50)])
        y = 2.0 * values[:, 0]
        model = train(FeatureMatrix(values, ["a", "b"]), y,
                      GbrtConfig(n_rounds=5, max_depth=2))
        importance = variable_importance(model)
        assert importance["a"] == pytest.approx(1.0, abs=1e-9)
        assert importance["b"] == 0.0

    def test_planted_signal_dominates(self):
        rng = np.random.default_rng(10)
        values = rng.normal(size=(400, 5))
        y = 4.0 * values[:, 0] + rng.normal(0.0, 0.5, 400)
        names = [f"x{i}" for i in range(5)]
        model = train(FeatureMatrix(values, names), y,
                      GbrtConfig(n_rounds=30, learning_rate=0.2, max_depth=3))
        importance = variable_importance(model)
        assert importance["x0"] > 0.8

    def test_normalization(self):
        rng = np.random.default_rng(11)
        values = rng.normal(size=(100, 3))
        y = values[:, 0] + 0.5 * values[:, 1] + rng.normal(0.0, 0.2, 100)
        model = train(FeatureMatrix(values, ["a", "b", "c"]), y,
                      GbrtConfig(n_rounds=10, max_depth=3))
        assert sum(variable_importance(model).values()) == pytest.approx(1.0, abs=1e-9)

    def test_empty_ensemble(self):
        model = Ensemble(trees=[], learning_rate=0.1, base_score=0.0, feature_names=["a"])
        assert variable_importance(model) == {}


class TestSerialization:
    def test_round_trip_is_prediction_identical(self, tmp_path):
        rng = np.random.default_rng(13)
        values = rng.normal(size=(120, 4))
        values[rng.random(size=(120, 4)) < 0.1] = np.nan
        y = rng.normal(size=120)
        names = ["a", "b", "c", "d"]
        X = FeatureMatrix(values, names)
        model = train(X, y, GbrtConfig(n_rounds=12, max_depth=3, subsample_cols=0.75, seed=4))
        path = tmp_path / "model.json"
        path.write_text(json.dumps(ensemble_to_dict(model)))
        loaded = ensemble_from_dict(json.loads(path.read_text()))
        assert np.array_equal(predict(loaded, X), predict(model, X))
        assert loaded.config == model.config

    def test_document_is_versioned(self):
        model = Ensemble(trees=[], learning_rate=0.1, base_score=1.0, feature_names=["a"])
        doc = ensemble_to_dict(model)
        assert doc["format"] == "bloodbank.ensemble"
        assert doc["version"] == 1
        with pytest.raises(SchemaError):
            ensemble_from_dict({**doc, "format": "other"})
        with pytest.raises(SchemaError):
            ensemble_from_dict({**doc, "version": 99})

    def test_json_is_plain_text(self, tmp_path):
        model = Ensemble(trees=[TreeNode(weight=0.25)], learning_rate=0.1,
                         base_score=1.0, feature_names=["a"])
        path = tmp_path / "model.json"
        path.write_text(json.dumps(ensemble_to_dict(model)))
        doc = json.loads(path.read_text())
        assert doc["trees"] == [{"weight": 0.25}]


def test_config_validation():
    with pytest.raises(ParameterError):
        GbrtConfig(learning_rate=0.0)
    with pytest.raises(ParameterError):
        GbrtConfig(subsample_rows=1.5)
    with pytest.raises(ParameterError):
        GbrtConfig(reg_lambda=-1.0)
    with pytest.raises(ParameterError):
        GbrtConfig(max_depth=0)


@pytest.mark.parametrize("make, message", [
    # 2.5 rounds or seed once raised a raw TypeError, and depth 2.5 was accepted
    (lambda: GbrtConfig(n_rounds=2.5), "n_rounds must be a whole number, got 2.5"),
    (lambda: GbrtConfig(max_depth=2.5), "max_depth must be a whole number, got 2.5"),
    (lambda: GbrtConfig(max_depth=True), "max_depth must be a whole number, got True"),
    (lambda: GbrtConfig(seed=1.5), "seed must be a whole number, got 1.5"),
    (lambda: GbrtConfig(gamma="0"), "gamma must be non-negative and finite, got '0'"),
    (lambda: GbrtConfig(reg_lambda=True), "reg_lambda must be non-negative and finite, got True"),
    (lambda: GbrtConfig(min_child_weight=float("inf")),
     "min_child_weight must be non-negative and finite, got inf"),
    # an int past the float range once passed, and train raised a raw OverflowError
    (lambda: GbrtConfig(reg_lambda=10**400),
     f"reg_lambda must be non-negative and finite, got {10**400}"),
    (lambda: GbrtConfig(gamma=10**400), f"gamma must be non-negative and finite, got {10**400}"),
])
def test_config_fields_fail_closed(make, message):
    with pytest.raises(ParameterError) as info:
        make()
    assert str(info.value) == message


@pytest.mark.parametrize("field, value", [
    # text once raised a raw TypeError, and True passed as 1
    ("learning_rate", "0.1"), ("learning_rate", True), ("learning_rate", float("nan")),
    ("subsample_rows", "1"), ("subsample_rows", float("inf")), ("subsample_cols", True),
])
def test_float_fields_must_be_finite_numbers(field, value):
    with pytest.raises(ParameterError) as info:
        GbrtConfig(**{field: value})
    assert str(info.value) == f"{field} must be a finite number, got {value!r}"
    # a finite number is kept as given, so model.json's config block keeps its bytes
    assert type(getattr(GbrtConfig(**{field: 1}), field)) is int


def test_config_takes_numpy_ints_as_ints_and_no_depth_limit():
    config = GbrtConfig(n_rounds=np.int64(5), max_depth=np.int32(2), seed=np.int64(3))
    assert config == GbrtConfig(n_rounds=5, max_depth=2, seed=3)
    assert type(config.n_rounds) is int and GbrtConfig(max_depth=None).max_depth is None
