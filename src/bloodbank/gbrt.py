"""Gradient-boosted regression trees with Newton leaf weights.

Trees are grown by exact greedy search: every cut between consecutive distinct
feature values present in a node is scored with the regularized gain, and rows
with a missing value follow a per-node default direction.  A split stores the
sum of the two values' halves as its threshold, or the upper value where that
sum is not above the lower one, so that it is finite and separates them.  Leaf weights
are the closed-form Newton step -G / (H + lambda).  Boosting applies shrinkage
and optional row/column subsampling; identical seeds produce bit-identical
ensembles.

``train`` bins each feature once per fit: one bin per distinct present value,
plus one for NaN, feature after feature, adjacent features within 2x of each
other padded to one width.  A node's histogram holds its gradient sum and row
count per bin, from one ``np.bincount`` over all features; only the smaller
child is counted, and the larger one's histogram is its parent's minus its
sibling's.  Cumulative sums within each feature, a call per run of one width,
score every boundary between non-empty bins.  The rule for ties and missing
values: a node with missing rows on a feature (by its NaN bin's count) sends
them to the better side, ties left; a node without sends them to the larger
child, ties left; and the first maximum in feature-major order wins, so ties go
to the lowest feature, then to its smallest threshold.  Squared error, the one
objective, has a hessian of 1, so the grower counts rows where a general hessian
would be summed.  Node totals are sums over the node's rows, and when a round
uses every row its leaves write the round's predictions, so no tree is walked.

``train`` keeps the in-sample fit its rounds build, ``base + lr * out`` tree
after tree in the order ``predict`` adds them, with a digest of the rows it was
fit on (``Ensemble.fitted``).  It equals ``predict`` on those rows bit for bit,
so ``in_sample`` hands it back for them without a walk.  A loaded ensemble, or
a copy made with ``dataclasses.replace``, has none and walks its trees, a chunk
of them at a time, and adds their ``learning_rate * leaf`` terms in tree order
by one sequential ``cumsum``: the sums of adding tree after tree.

``gradients_squared_error``, ``leaf_weight``, ``split_gain`` and
``tree_predict`` are the closed forms that the demos and the reference search
in the tests state the method with.  Row and column subsampling and the seed
stay in ``GbrtConfig``: the pinned forecasts and the benchmark set them.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import asdict, dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import (ParameterError, SchemaError, document_version, every_field, finite_real,
                     nonnegative_finite, whole)

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
    "in_sample",
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
        if self.max_depth is not None and self.max_depth < 1:
            raise ParameterError(f"max_depth must be >= 1 or None, got {self.max_depth}")
        nonnegative_finite(self, ("min_child_weight", "reg_lambda", "gamma"))
        for name in ("learning_rate", "subsample_rows", "subsample_cols"):
            frac = finite_real(name, getattr(self, name))
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
    # a digest of ``train``'s rows and its predictions for them: in no document, repr or ==,
    # and not an ``__init__`` argument, so a ``dataclasses.replace`` copy has none
    fitted: tuple[bytes, np.ndarray] | None = field(default=None, init=False, repr=False,
                                                    compare=False)


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


def _gains(gl: np.ndarray, hl: np.ndarray, g_total: float, h_total: int,
           config: GbrtConfig) -> np.ndarray:
    """Split gain for each left-child total (gl, hl); -inf where a child is lighter than
    ``min_child_weight`` or the sums overflow (``train`` grows its trees with numpy's
    overflow warnings off).  Both children hold rows, so every denominator is at
    least 1, and a ``min_child_weight`` of at most 1 excludes none."""
    hr = h_total - hl
    raw = 0.5 * (
        gl**2 / (hl + config.reg_lambda)
        + (g_total - gl) ** 2 / (hr + config.reg_lambda)
        - (g_total**2) / (h_total + config.reg_lambda)
    ) - config.gamma
    keep = np.isfinite(raw)
    if config.min_child_weight > 1.0:
        keep &= (hl >= config.min_child_weight) & (hr >= config.min_child_weight)
    return np.where(keep, raw, -np.inf)


class _Grid(NamedTuple):
    """Bins, feature after feature: each one's present values ascending (``edges``), NaN
    padding, its NaN bin (``nan``); ``runs``: (first bin, end, width) per run of one width."""
    edges: np.ndarray
    feature: np.ndarray
    nan: np.ndarray
    runs: list[tuple[int, int, int]]


def _grow(codes: np.ndarray, grid: _Grid, features: np.ndarray, rows: np.ndarray,
          g: np.ndarray, depth: int, config: GbrtConfig, out: np.ndarray | None = None,
          hist: tuple[np.ndarray, np.ndarray] | None = None,
          cuts: tuple[np.ndarray, ...] | None = None) -> TreeNode:
    """Grow the subtree over one node's ``rows``, kept in ascending order.

    ``codes`` holds each row's bin in ``grid`` per feature; column ``i`` is feature
    ``features[i]``.  ``hist`` is the node's gradient sum and row count per bin,
    counted here if None, and ``cuts`` its ``_cuts``, found here if None.  Every
    hessian is 1, so hessian sums are row counts.  ``out`` (if given) receives each
    row's leaf weight.
    """
    g_total = float(g[rows].sum())
    h_total = rows.size
    node = TreeNode(weight=leaf_weight(g_total, h_total, config.reg_lambda), cover=h_total)
    if out is not None:
        out[rows] = node.weight
    if config.max_depth is not None and depth >= config.max_depth:
        return node

    hg, hc = _histogram(codes, rows, g, grid.edges.size) if hist is None else hist
    at, above, feature, hl = _cuts(hc, grid, h_total) if cuts is None else cuts
    if at.size == 0:
        return node
    gl = np.concatenate([np.cumsum(hg[lo:hi].reshape(-1, width), axis=1).ravel()
                         for lo, hi, width in grid.runs])[at]  # within each feature
    h_miss = hc[grid.nan]
    gains_right = _gains(gl, hl, g_total, h_total, config)  # missing rows routed right
    gains_left = gains_right
    if h_miss.any():  # the NaN bin's count decides; with no missing rows g_miss is 0
        g_miss = np.where(h_miss > 0, hg[grid.nan], 0.0)[feature]
        gains_left = _gains(gl + g_miss, hl + h_miss[feature], g_total, h_total, config)
    best = gains_right if gains_left is gains_right else np.maximum(gains_left, gains_right)
    # first max: the lowest feature wins ties, then its smallest threshold
    k = int(np.argmax(best))
    if not best[k] > 0.0:
        return node

    f = feature[k]
    node.feature = int(features[f])
    # the midpoint, halved first so that it cannot overflow; where it rounds down to
    # the lower value, as between adjacent floats, the upper value separates them
    low, high = grid.edges[at[k]], grid.edges[above[k]]
    mid = 0.5 * low + 0.5 * high
    node.threshold = float(mid if mid > low else high)
    # missing rows follow the better side, ties left; with none, the larger child
    node.default_left = bool(gains_left[k] >= gains_right[k] if h_miss[f]
                             else 2 * hl[k] >= h_total)
    node.gain = float(best[k])
    code = codes[:, f][rows]
    left = code <= at[k]  # NaN's bin lies above every present bin of the feature
    if node.default_left and h_miss[f]:
        left |= code == grid.nan[f]
    parts = rows.compress(left), rows.compress(~left)
    hists = None, None
    if config.max_depth is None or depth + 2 <= config.max_depth:  # the children search
        # count the smaller child; the larger one's histogram is the rest of the node's
        small = int(parts[1].size < parts[0].size)
        counted = _histogram(codes, parts[small], g, grid.edges.size)
        rest = hg - counted[0], hc - counted[1]
        hists = (counted, rest) if small == 0 else (rest, counted)
    node.left, node.right = (_grow(codes, grid, features, part, g, depth + 1, config, out, h)
                             for part, h in zip(parts, hists))
    return node


def _cuts(hc: np.ndarray, grid: _Grid, h_total: int) -> tuple[np.ndarray, ...]:
    """A node's candidate cuts from its row count per bin: each follows a non-empty
    present bin whose feature has a present bin above it in the node.  ``at`` and
    ``above`` are the two bins, then the cut's feature and the rows at or below
    ``at`` (each feature's bins count every row)."""
    filled = (hc > 0).nonzero()[0]
    feature = grid.feature[filled]
    after = filled[1:]
    i = ((feature[:-1] == feature[1:]) & (after != grid.nan[feature[1:]])).nonzero()[0]
    return filled[i], after[i], feature[i], np.cumsum(hc[filled])[i] - feature[i] * h_total


def _histogram(codes: np.ndarray, rows: np.ndarray, g: np.ndarray,
               size: int) -> tuple[np.ndarray, np.ndarray]:
    """The gradient sum and the row count in each of ``size`` bins over ``rows``."""
    flat = codes.take(rows, axis=0).ravel()
    return (np.bincount(flat, np.repeat(g[rows], codes.shape[1]), size),
            np.bincount(flat, minlength=size))


def _bins(values: np.ndarray) -> tuple[np.ndarray, _Grid]:
    """Each cell's bin, row-major, and the ``_Grid`` of the columns of ``values``: one bin per
    distinct present value and one for NaN.  Adjacent features whose bin counts lie within
    2x of each other are padded to the widest, so none holds more than twice its bins."""
    distinct = [np.unique(col[~np.isnan(col)]) for col in values.T]
    runs = [[]]  # the bin counts of adjacent features, run by run
    for count in (u.size + 1 for u in distinct):
        if max(runs[-1] + [count]) > 2 * min(runs[-1] + [count]):
            runs.append([])
        runs[-1].append(count)
    widths = np.repeat([max(run) for run in runs], [len(run) for run in runs])
    start = np.cumsum(widths) - widths
    edges, codes = np.full(widths.sum(), np.nan), np.empty(values.shape, dtype=np.intp)
    for j, (col, u) in enumerate(zip(values.T, distinct)):
        edges[start[j]:start[j] + u.size] = u
        codes[:, j] = start[j] + np.where(np.isnan(col), widths[j] - 1, np.searchsorted(u, col))
    ends = np.cumsum([len(run) * max(run) for run in runs])
    return codes, _Grid(edges, np.repeat(np.arange(len(distinct)), widths), start + widths - 1,
                        [(end - len(r) * max(r), end, max(r)) for end, r in zip(ends, runs)])


_CHUNK = 16  # trees walked together: the walk holds (trees, rows) node indices


def _walk(trees: list[TreeNode], values: np.ndarray) -> np.ndarray:
    """Each tree's leaf weight for each row, shape (trees, rows), a level at a time.  Nodes
    lie level by level, roots first, so split ``k``'s children follow the roots' ``2 * k``;
    a leaf is its own child, with a NaN threshold that every row fails."""
    nodes, level, depth = [], list(trees), -1
    while level:
        nodes, depth = nodes + level, depth + 1
        level = [c for node in level if node.feature is not None for c in (node.left, node.right)]
    leaf = np.array([node.feature is None for node in nodes], dtype=bool)
    feature = np.array([node.feature or 0 for node in nodes], dtype=np.intp)
    threshold = np.where(leaf, math.nan, [node.threshold for node in nodes])
    default_right = ~(leaf | [node.default_left for node in nodes])
    child = np.where(leaf, np.arange(leaf.size), len(trees) + 2 * np.cumsum(~leaf) - 2)
    flat, cells = np.ascontiguousarray(values).ravel(), np.arange(0, values.size, values.shape[1])
    at = np.repeat(np.arange(len(trees))[:, None], values.shape[0], axis=1)
    for _ in range(depth):
        x = flat.take(cells + feature[at])
        at = child[at] + np.where(np.isnan(x), default_right[at], x >= threshold[at])
    return np.array([node.weight for node in nodes])[at]


def tree_predict(node: TreeNode, values: np.ndarray) -> np.ndarray:
    return _walk([node], values)[0]


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

    # one bin per distinct value, coded once; a round takes an ascending row set and,
    # with column subsampling, its columns' codes, their bins' features renumbered
    codes, grid = _bins(X.values)
    counts = np.bincount(codes.ravel(), minlength=grid.edges.size)  # a full round's root
    root_cuts = _cuts(counts, grid, n)
    all_rows, all_cols = np.arange(n), np.arange(d)
    for _ in range(config.n_rounds):
        rows = all_rows
        if config.subsample_rows < 1.0:
            n_sub = max(1, int(round(config.subsample_rows * n)))
            rows = np.sort(rng.choice(n, size=n_sub, replace=False))
        cols, round_codes, round_grid = all_cols, codes, grid
        if config.subsample_cols < 1.0:
            n_cols = max(1, int(round(config.subsample_cols * d)))
            cols = np.sort(rng.choice(d, size=n_cols, replace=False))
            round_codes = codes[:, cols]
            round_grid = grid._replace(feature=np.searchsorted(cols, grid.feature),
                                       nan=grid.nan[cols])

        # unit hessian; with every row in the round the leaves give the tree's predictions
        g, _ = gradients_squared_error(y, predictions)
        out = np.empty(n) if rows.size == n else None
        # a node's gradient sum, which its gain squares, is at most the larger of
        # the positive and the negative gradients' sums
        g_bound = (float(np.abs(g).sum()) + abs(float(g.sum()))) / 2
        if not g_bound * g_bound < math.inf:
            raise ParameterError(f"residuals as large as {np.abs(g).max():.6g} make the "
                                 "squared-error sums overflow")
        root = cuts = None
        if rows.size == n and cols.size == d:  # every row and column: only g is new
            root = np.bincount(codes.ravel(), np.repeat(g, d), grid.edges.size), counts
            cuts = root_cuts
        with np.errstate(over="ignore", invalid="ignore"):  # an overflowing gain is -inf
            tree = _grow(round_codes, round_grid, cols, rows, g, 0, config, out, root, cuts)
        if out is None:  # rows outside the round still need the walk
            out = tree_predict(tree, X.values)
        predictions += config.learning_rate * out
        model.trees.append(tree)
    model.fitted = _digest(X.values), predictions
    return model


def _digest(values: np.ndarray) -> bytes:
    """SHA-256 of a matrix's shape and bytes: the same only for the same rows."""
    digest = hashlib.sha256(repr(values.shape).encode())
    digest.update(np.ascontiguousarray(values))
    return digest.digest()


def in_sample(model: Ensemble, X: FeatureMatrix) -> np.ndarray | None:
    """``predict(model, X)`` as ``train`` built it, if ``X`` holds the rows the model
    was trained on; None otherwise, and for a loaded model, which must walk its trees."""
    if (model.fitted is None or X.feature_names != model.feature_names
            or _digest(X.values) != model.fitted[0]):
        return None
    return model.fitted[1].copy()


def predict(model: Ensemble, X: FeatureMatrix) -> np.ndarray:
    if X.feature_names != model.feature_names:
        raise ParameterError(
            f"feature columns {X.feature_names} do not match the model's "
            f"{model.feature_names}"
        )
    out = np.full(X.n_rows, model.base_score)
    for lo in range(0, len(model.trees), _CHUNK):
        terms = model.learning_rate * _walk(model.trees[lo:lo + _CHUNK], X.values)
        out = np.cumsum(np.concatenate([out[None], terms]), axis=0)[-1]
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


def _node_from_dict(data: dict, n_features: int) -> TreeNode:
    if "weight" in data:
        return TreeNode(weight=float(finite_real("leaf weight", data["weight"])))
    feature, default_left = whole("split feature", data["feature"]), data["default_left"]
    if not 0 <= feature < n_features:
        raise SchemaError(f"split feature {feature} is not a column of {n_features} features")
    if type(default_left) is not bool:
        raise SchemaError(f"split default_left must be true or false, got {default_left!r}")
    return TreeNode(
        feature=feature,
        threshold=float(finite_real("split threshold", data["threshold"])),
        default_left=default_left,
        gain=float(finite_real("split gain", data["gain"])),
        cover=whole("split cover", data["cover"]),
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
    document_version(doc, MODEL_FORMAT, (MODEL_VERSION,), "ensemble")
    try:  # a field that breaks its value rule fails as SchemaError, with the rule's text
        config = (GbrtConfig(**every_field(GbrtConfig, doc["config"], "ensemble config"))
                  if "config" in doc else None)
        names = doc["feature_names"]
        if not isinstance(names, list) or not all(isinstance(name, str) for name in names):
            raise SchemaError(f"feature_names must be a list of names, got {names!r}")
        return Ensemble(
            trees=[_node_from_dict(tree, len(names)) for tree in doc["trees"]],
            learning_rate=float(finite_real("learning_rate", doc["learning_rate"])),
            base_score=float(finite_real("base_score", doc["base_score"])),
            feature_names=list(names),
            config=config,
        )
    except ParameterError as exc:
        raise SchemaError(str(exc)) from exc
