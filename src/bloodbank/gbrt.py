"""Gradient-boosted regression trees with Newton leaf weights.

Trees are grown by exact greedy search: every midpoint between consecutive
distinct sorted feature values is scored with the regularized gain, and rows
with a missing value follow a per-node default direction learned during the
search.  Leaf weights are the closed-form Newton step -G / (H + lambda).
Boosting applies shrinkage and optional row/column subsampling; identical
seeds produce bit-identical ensembles.

``train`` sorts every column once; a round takes its row subsample out of
that order, which stays sorted.  A node searches all of its features in one
pass: it holds a (features, rows) array of row indices sorted per feature,
takes cumulative gradient sums along each row, and scores both missing-value
directions at every boundary between distinct present values.  The first
maximum in feature-major order wins, so ties go to the lowest feature, then to
its smallest threshold.  Squared error, the one objective, has a hessian of 1,
so the one grower counts rows where a general hessian would be summed; leaves
take their rows without cutting the node's arrays, and when a round uses every
row they write its predictions, so no tree is walked.

``gradients_squared_error``, ``leaf_weight``, ``split_gain`` and
``tree_predict`` are the closed forms that the demos and the reference search
in the tests state the method with.  Row and column subsampling and the seed
stay in ``GbrtConfig``: the pinned forecasts and the benchmark set them.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import ParameterError, SchemaError, nonnegative_finite, whole

__all__ = [
    "FeatureMatrix",
    "TreeNode",
    "Ensemble",
    "GbrtConfig",
    "gradients_squared_error",
    "leaf_weight",
    "split_gain",
    "train",
    "predict",
    "variable_importance",
    "ensemble_to_dict",
    "ensemble_from_dict",
]

MODEL_FORMAT = "bloodbank.ensemble"
MODEL_VERSION = 1


@dataclass
class FeatureMatrix:
    """Dense feature matrix; NaN cells mark missing values."""

    values: np.ndarray
    feature_names: list[str]

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=float)
        if values.ndim != 2:
            raise ParameterError(f"feature matrix must be 2-d, got shape {values.shape}")
        if values.shape[0] < 1 or values.shape[1] < 1:
            raise ParameterError(f"feature matrix must be non-empty, got shape {values.shape}")
        if values.shape[1] != len(self.feature_names):
            raise ParameterError(
                f"{values.shape[1]} columns but {len(self.feature_names)} feature names"
            )
        if len(set(self.feature_names)) != len(self.feature_names):
            raise ParameterError("feature names must be unique")
        if np.isinf(values).any():
            raise ParameterError("feature matrix contains infinities; use NaN for missing")
        self.values = values
        self.feature_names = list(self.feature_names)

    @property
    def n_rows(self) -> int:
        return self.values.shape[0]

    @property
    def n_cols(self) -> int:
        return self.values.shape[1]


@dataclass
class TreeNode:
    """Internal split or leaf.  Internal nodes keep their training gain and
    row cover so importance can be computed after the fact."""

    weight: float = 0.0
    feature: int | None = None
    threshold: float = 0.0
    default_left: bool = True
    left: "TreeNode | None" = None
    right: "TreeNode | None" = None
    gain: float = 0.0
    cover: int = 0

    @property
    def is_leaf(self) -> bool:
        return self.feature is None


@dataclass(frozen=True)
class GbrtConfig:
    n_rounds: int = 100
    learning_rate: float = 0.1
    max_depth: int | None = 3
    min_child_weight: float = 1.0
    subsample_rows: float = 1.0
    subsample_cols: float = 1.0
    reg_lambda: float = 1.0
    gamma: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("n_rounds", "seed") + (("max_depth",) if self.max_depth is not None else ()):
            object.__setattr__(self, name, whole(name, getattr(self, name)))
        if self.n_rounds < 0:
            raise ParameterError("n_rounds must be non-negative")
        if not 0.0 < self.learning_rate <= 1.0:
            raise ParameterError(f"learning_rate must lie in (0, 1], got {self.learning_rate}")
        if self.max_depth is not None and self.max_depth < 1:
            raise ParameterError(f"max_depth must be >= 1 or None, got {self.max_depth}")
        nonnegative_finite(self, ("min_child_weight", "reg_lambda", "gamma"))
        for name in ("subsample_rows", "subsample_cols"):
            frac = getattr(self, name)
            if not 0.0 < frac <= 1.0:
                raise ParameterError(f"{name} must lie in (0, 1], got {frac}")
        if self.seed < 0:
            raise ParameterError(f"seed must be non-negative, got {self.seed}")


@dataclass
class Ensemble:
    trees: list[TreeNode] = field(default_factory=list)
    learning_rate: float = 1.0
    base_score: float = 0.0
    feature_names: list[str] = field(default_factory=list)
    config: GbrtConfig | None = None


def gradients_squared_error(targets, predictions) -> tuple[np.ndarray, np.ndarray]:
    """First and second derivatives of 0.5 * (target - prediction)^2."""
    targets = np.asarray(targets, dtype=float)
    predictions = np.asarray(predictions, dtype=float)
    if targets.shape != predictions.shape:
        raise ParameterError(
            f"length mismatch: {targets.size} targets vs {predictions.size} predictions"
        )
    return predictions - targets, np.ones_like(targets)


def leaf_weight(g_sum: float, h_sum: float, reg_lambda: float) -> float:
    denom = h_sum + reg_lambda
    if denom <= 0.0:
        raise ParameterError(f"h_sum + reg_lambda must be positive, got {denom}")
    return -g_sum / denom


def split_gain(
    gl: float, hl: float, gr: float, hr: float, reg_lambda: float, gamma: float
) -> float:
    dl, dr, dp = hl + reg_lambda, hr + reg_lambda, hl + hr + reg_lambda
    if dl <= 0.0 or dr <= 0.0 or dp <= 0.0:
        raise ParameterError("degenerate denominator in split gain")
    return 0.5 * (gl * gl / dl + gr * gr / dr - (gl + gr) ** 2 / dp) - gamma


def _gains(
    gl: np.ndarray,
    hl: np.ndarray,
    g_total: float,
    h_total: float,
    reg_lambda: float,
    gamma: float,
    min_child_weight: float,
) -> np.ndarray:
    """Split gain for each left-child total (gl, hl); -inf where a child is invalid."""
    gr = g_total - gl
    hr = h_total - hl
    valid = (
        (hl >= min_child_weight)
        & (hr >= min_child_weight)
        & (hl + reg_lambda > 0.0)
        & (hr + reg_lambda > 0.0)
    )
    with np.errstate(divide="ignore", invalid="ignore"):
        raw = 0.5 * (
            gl**2 / (hl + reg_lambda)
            + gr**2 / (hr + reg_lambda)
            - (g_total**2) / (h_total + reg_lambda)
        ) - gamma
    return np.where(valid & np.isfinite(raw), raw, -np.inf)


def _grow(
    vals: np.ndarray | None,
    order: np.ndarray,
    features: np.ndarray,
    g: np.ndarray,
    goes_left: np.ndarray,
    depth: int,
    config: GbrtConfig,
    out: np.ndarray | None = None,
) -> TreeNode:
    """Grow the subtree over one node's rows.

    ``order[i]`` lists the node's rows sorted by column ``features[i]``, NaN last,
    and ``vals[i]`` (None at a leaf) holds their values.  Every hessian is 1, so
    hessian sums are row counts.  ``goes_left`` is a scratch row mask, ``out`` (if
    given) each row's leaf weight.
    """
    rows = order[0]
    g_total = float(g[rows].sum())
    h_total = float(rows.size)
    node = TreeNode(weight=leaf_weight(g_total, h_total, config.reg_lambda), cover=rows.size)
    if out is not None:
        out[rows] = node.weight
    if config.max_depth is not None and depth >= config.max_depth:
        return node

    # every feature at once: a candidate cut lies between two distinct present
    # values; ``at`` is its flat index into the (features, rows) sums below
    n_features, m = order.shape
    flat = np.flatnonzero(vals[:, :-1] < vals[:, 1:])
    if flat.size == 0:
        return node
    feature = flat // (m - 1)
    at = flat + feature
    last_present = np.full(n_features, m - 1)
    tail = np.isnan(vals[:, -1])  # NaN sorts last: only these columns have missing rows
    last_present[tail] = np.count_nonzero(~np.isnan(vals[tail]), axis=1) - 1
    cg = np.cumsum(g[order], axis=1)
    # not 0 without NaN: its last bit sets default_left
    g_miss = (g_total - cg[np.arange(n_features), last_present])[feature]
    gl = cg.ravel()[at]
    hl = at - feature * m + 1
    h_miss = (h_total - (last_present + 1))[feature]
    gains = _gains(np.concatenate((gl + g_miss, gl)), np.concatenate((hl + h_miss, hl)),
                   g_total, h_total, config.reg_lambda, config.gamma, config.min_child_weight)
    gains_left, gains_right = gains[:at.size], gains[at.size:]  # missing rows routed left, right
    best = np.maximum(gains_left, gains_right)
    # first max: the lowest feature wins ties, then its smallest threshold
    k = int(np.argmax(best))
    if not best[k] > 0.0:
        return node

    f = feature[k]
    c = at[k] - f * m
    node.feature = int(features[f])
    node.threshold = float(0.5 * (vals[f, c] + vals[f, c + 1]))
    node.default_left = bool(gains_left[k] >= gains_right[k])
    node.gain = float(best[k])
    col = vals[f]
    goes_left[order[f]] = np.where(np.isnan(col), node.default_left, col < node.threshold)
    if config.max_depth is not None and depth + 1 >= config.max_depth:
        left = goes_left[rows]  # leaves: their rows in order[0]'s order, no partition
        children = (None, rows[left][None]), (None, rows[~left][None])
    else:
        left = goes_left[order]
        children = _cut(vals, order, left), _cut(vals, order, ~left)
    node.left, node.right = (_grow(v, o, features, g, goes_left, depth + 1, config, out)
                             for v, o in children)
    return node


def _cut(vals: np.ndarray, order: np.ndarray, keep: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each feature's entries of ``vals`` and ``order`` where the mask ``keep`` of their
    shape holds, in order; one flat index for both is far cheaper than two 2-d masks."""
    i = np.flatnonzero(keep)
    return vals.take(i).reshape(order.shape[0], -1), order.take(i).reshape(order.shape[0], -1)


def _sorted_columns(values: np.ndarray, features: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each feature's rows in value order (stable, NaN last) and its values in that order."""
    values_t = values.T[features]
    order = np.argsort(values_t, axis=1, kind="stable")
    return np.take_along_axis(values_t, order, axis=1), order


def _tree_apply(node: TreeNode, values: np.ndarray, out: np.ndarray, rows: np.ndarray) -> None:
    if node.is_leaf:
        out[rows] = node.weight
        return
    col = values[rows, node.feature]
    left = np.where(np.isnan(col), node.default_left, col < node.threshold)
    _tree_apply(node.left, values, out, rows[left])
    _tree_apply(node.right, values, out, rows[~left])


def tree_predict(node: TreeNode, values: np.ndarray) -> np.ndarray:
    out = np.empty(values.shape[0])
    _tree_apply(node, values, out, np.arange(values.shape[0]))
    return out


def train(X: FeatureMatrix, y, config: GbrtConfig) -> Ensemble:
    """Boost ``config.n_rounds`` trees against the squared-error objective."""
    y = np.asarray(y, dtype=float)
    if y.ndim != 1 or y.size != X.n_rows:
        raise ParameterError(f"target length {y.size} does not match {X.n_rows} rows")
    if X.n_rows < 2:
        raise ParameterError("training needs at least two rows")
    if not np.all(np.isfinite(y)):
        raise ParameterError("targets contain NaN or infinities")

    rng = np.random.Generator(np.random.PCG64(config.seed))
    n, d = X.n_rows, X.n_cols
    base_score = float(y.mean())
    predictions = np.full(n, base_score)
    model = Ensemble(
        learning_rate=config.learning_rate,
        base_score=base_score,
        feature_names=list(X.feature_names),
        config=config,
    )

    # sort every column once; a round's rows are filtered out of this order,
    # which keeps them sorted, ties in row order and NaN last
    all_cols = np.arange(d)
    presorted_vals, presorted = _sorted_columns(X.values, all_cols)
    goes_left = np.zeros(n, dtype=bool)
    for _ in range(config.n_rounds):
        rows = None
        if config.subsample_rows < 1.0:
            n_sub = max(1, int(round(config.subsample_rows * n)))
            rows = rng.choice(n, size=n_sub, replace=False)
        cols, vals, order = all_cols, presorted_vals, presorted
        if config.subsample_cols < 1.0:
            n_cols = max(1, int(round(config.subsample_cols * d)))
            cols = np.sort(rng.choice(d, size=n_cols, replace=False))
            vals, order = vals[cols], order[cols]
        if rows is not None:
            in_round = np.zeros(n, dtype=bool)
            in_round[rows] = True
            vals, order = _cut(vals, order, in_round[order])

        # unit hessian; with every row in the round the leaves give the tree's predictions
        g, _ = gradients_squared_error(y, predictions)
        out = np.empty(n) if rows is None else None
        # a node's gradient sum, which its gain squares, is at most the larger of
        # the positive and the negative gradients' sums
        g_bound = (float(np.abs(g).sum()) + abs(float(g.sum()))) / 2
        if not g_bound * g_bound < math.inf:
            raise ParameterError(f"residuals as large as {np.abs(g).max():.6g} make the "
                                 "squared-error sums overflow")
        tree = _grow(vals, order, cols, g, goes_left, 0, config, out)
        if out is None:  # rows outside the round still need the walk
            out = tree_predict(tree, X.values)
        predictions += config.learning_rate * out
        model.trees.append(tree)
    return model


def predict(model: Ensemble, X: FeatureMatrix) -> np.ndarray:
    if X.feature_names != model.feature_names:
        raise ParameterError(
            f"feature columns {X.feature_names} do not match the model's "
            f"{model.feature_names}"
        )
    out = np.full(X.n_rows, model.base_score)
    for tree in model.trees:
        out += model.learning_rate * tree_predict(tree, X.values)
    return out


def variable_importance(model: Ensemble) -> dict[str, float]:
    """Gain x cover per split, summed per feature and normalized to 1."""
    if not model.trees:
        return {}
    totals = dict.fromkeys(model.feature_names, 0.0)

    def walk(node: TreeNode) -> None:
        if node.is_leaf:
            return
        totals[model.feature_names[node.feature]] += node.gain * node.cover
        walk(node.left)
        walk(node.right)

    for tree in model.trees:
        walk(tree)
    grand_total = sum(totals.values())
    if grand_total <= 0.0:
        return totals
    return {name: value / grand_total for name, value in totals.items()}


def _node_to_dict(node: TreeNode) -> dict:
    if node.is_leaf:
        return {"weight": node.weight}
    return {
        "feature": node.feature,
        "threshold": node.threshold,
        "default_left": node.default_left,
        "gain": node.gain,
        "cover": node.cover,
        "left": _node_to_dict(node.left),
        "right": _node_to_dict(node.right),
    }


def _exact(value, kind: type, name: str):
    """A JSON value of exactly ``kind`` (bool is not an int); SchemaError otherwise."""
    if type(value) is not kind:
        expected = "true or false" if kind is bool else "a whole number"
        raise SchemaError(f"split {name} must be {expected}, got {value!r}")
    return value


def _finite(value, name: str) -> float:
    """A finite JSON number (bool is not one) as a float; SchemaError otherwise."""
    if type(value) not in (int, float) or not math.isfinite(value):
        raise SchemaError(f"{name} must be a finite number, got {value!r}")
    return float(value)


def _node_from_dict(data: dict, n_features: int) -> TreeNode:
    if "weight" in data:
        return TreeNode(weight=_finite(data["weight"], "leaf weight"))
    feature = _exact(data["feature"], int, "feature")
    if not 0 <= feature < n_features:
        raise SchemaError(f"split feature {feature} is not a column of {n_features} features")
    return TreeNode(
        feature=feature,
        threshold=_finite(data["threshold"], "split threshold"),
        default_left=_exact(data["default_left"], bool, "default_left"),
        gain=_finite(data.get("gain", 0.0), "split gain"),
        cover=_exact(data.get("cover", 0), int, "cover"),
        left=_node_from_dict(data["left"], n_features),
        right=_node_from_dict(data["right"], n_features),
    )


def ensemble_to_dict(model: Ensemble) -> dict:
    doc = {
        "format": MODEL_FORMAT,
        "version": MODEL_VERSION,
        "base_score": model.base_score,
        "learning_rate": model.learning_rate,
        "feature_names": list(model.feature_names),
        "trees": [_node_to_dict(tree) for tree in model.trees],
    }
    if model.config is not None:
        doc["config"] = asdict(model.config)
    return doc


def ensemble_from_dict(doc: dict) -> Ensemble:
    if not isinstance(doc, dict) or doc.get("format") != MODEL_FORMAT:
        found = doc.get("format") if isinstance(doc, dict) else type(doc).__name__
        raise SchemaError(f"not an ensemble document: format={found!r}")
    if doc.get("version") != MODEL_VERSION:
        raise SchemaError(f"unsupported ensemble version {doc.get('version')!r}")
    config = GbrtConfig(**doc["config"]) if "config" in doc else None
    names = doc["feature_names"]
    if not isinstance(names, list) or not all(isinstance(name, str) for name in names):
        raise SchemaError(f"feature_names must be a list of names, got {names!r}")
    return Ensemble(
        trees=[_node_from_dict(tree, len(names)) for tree in doc["trees"]],
        learning_rate=_finite(doc["learning_rate"], "learning_rate"),
        base_score=_finite(doc["base_score"], "base_score"),
        feature_names=list(names),
        config=config,
    )

