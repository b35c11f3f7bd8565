"""Random forest for binary labels, built on CART trees with Gini splits.

Kept dependency-free on purpose. The protocol is fixed (Breiman 2001):
each tree is grown greedily to purity on a bootstrap resample of the n
rows, drawing floor(sqrt(m)) of the m features at every split.
Prediction is a majority vote over trees; vote ties fall to the negative
class. Everything is a pure function of (data, config.seed), so refits
reproduce bit-identically.

`RandomForest.fit` codes the columns once per forest, and each split
takes one of two routes by the column's distinct values (see
`_best_split`): a two-valued column (every one-hot indicator and binary
feature) is scored from four (value, label) counts, any other column by
sorting. Both give the costs, and so the nodes, thresholds and leaf
values, of sorting every column. Each node draws its features with one
`rng.choice`, depth first, whichever route it then takes, so the random
stream and the trees do not depend on the routes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError


@dataclass(frozen=True)
class ForestConfig:
    """Tree count and seed: all of the fixed protocol that a caller sets."""

    n_trees: int = 100
    seed: int = 0

    def __post_init__(self):
        if self.n_trees < 1:
            raise ValueError(f"n_trees must be at least 1, got {self.n_trees}")


class _Tree:
    """One CART tree stored as flat arrays (feature, threshold, children)."""

    __slots__ = ("feature", "threshold", "left", "right", "value")

    def __init__(self):
        self.feature: list[int] = []
        self.threshold: list[float] = []
        self.left: list[int] = []
        self.right: list[int] = []
        self.value: list[int] = []  # majority class at the node, 0 or 1

    def _new_node(self, value: int) -> int:
        self.feature.append(-1)
        self.threshold.append(np.nan)
        self.left.append(-1)
        self.right.append(-1)
        self.value.append(value)
        return len(self.feature) - 1

    def fit(self, cols: _Columns, idx, rng, mtry: int):
        pos = int(cols.b[idx].sum())
        root = self._new_node(_majority(pos, idx.size))
        stack = [(root, idx, pos)]
        while stack:
            node, rows, pos = stack.pop()
            k = rows.size
            if pos == 0 or pos == k or k < 2:
                continue
            feats = rng.choice(cols.m, size=mtry, replace=False)
            split = _best_split(cols, rows, pos, feats)
            if split is None:
                continue
            f, thr, left_rows, right_rows, left_pos = split
            right_pos = pos - left_pos
            self.feature[node] = f
            self.threshold[node] = thr
            left = self._new_node(_majority(left_pos, left_rows.size))
            right = self._new_node(_majority(right_pos, right_rows.size))
            self.left[node] = left
            self.right[node] = right
            stack.append((left, left_rows, left_pos))
            stack.append((right, right_rows, right_pos))

    def predict(self, X) -> np.ndarray:
        feature = np.asarray(self.feature)
        threshold = np.asarray(self.threshold)
        left = np.asarray(self.left)
        right = np.asarray(self.right)
        value = np.asarray(self.value)
        node = np.zeros(X.shape[0], dtype=np.int64)
        while True:
            internal = feature[node] >= 0
            if not internal.any():
                break
            rows = np.flatnonzero(internal)
            cur = node[rows]
            goes_left = X[rows, feature[cur]] <= threshold[cur]
            node[rows] = np.where(goes_left, left[cur], right[cur])
        return value[node]


def _majority(pos: int, n: int) -> int:
    # ties fall to class 0 (the negative class)
    return int(pos * 2 > n)


class _Columns:
    """The training matrix coded once per forest for the two split routes.

    `X` holds the columns contiguously (`X[f]` is column f) and `span` is
    `arange(n + 1)`, the left row counts of the sorted route. A column
    with exactly two values lo < hi gets `code[f] = 2*[x == hi] + b` and
    `mid[f] = (lo + hi) / 2`; any other column has `code[f] = None`.
    """

    def __init__(self, X, b):
        self.X = np.ascontiguousarray(X.T)
        self.b = b
        self.m = self.X.shape[0]
        self.span = np.arange(X.shape[0] + 1)
        self.code: list[np.ndarray | None] = []
        self.mid: list[float] = []
        for col in self.X:
            v = np.unique(col)
            two = v.size == 2
            self.code.append(2 * (col == v[-1]) + b if two else None)
            self.mid.append(float((v[0] + v[-1]) / 2) if two else np.nan)


def _best_split(cols: _Columns, rows, pos: int, feats):
    """Lowest weighted Gini over candidate features; None if nothing splits.

    Returns (feature, threshold, left rows, right rows, left positives).
    A cut with n_l rows (p_l positives) on the left and n_r (p_r) on the
    right of a k-row node costs
    (n_l*2*q_l*(1-q_l) + n_r*2*q_r*(1-q_r)) / k with q = p/n. Features
    are compared in `feats` order with strict `<`, so the first of equal
    costs wins. The column's distinct values choose the route:

    - Two values lo < hi: the one cut is at (lo + hi) / 2. One
      `bincount` of the column's code over the node's rows gives the
      four (value, label) counts; the cost is the expression above in
      Python scalars, with the same operand order.
    - Otherwise: sort the node's values and score every cut between
      unequal neighbours from a cumulative label sum; the first minimum
      wins.

    The two routes give the same floats. The counts are exact integers
    below 2**53, so each converts to float64 exactly, Python's int / int
    rounds the exact quotient as numpy's division of the converted
    values does, and the remaining operations are the same IEEE
    operations in the same order. At a cut between unequal values the
    cumulative sum counts every row at or below the cut, whatever the
    order of tied rows, so the sort need not be stable.

    A split sends left the rows at or below the lower value of its cut.
    That is the rows with `x <= threshold` unless the midpoint rounds up
    to the upper value, which takes adjacent doubles or an overflow.
    """
    k = rows.size
    best_cost = np.inf
    best = None
    labels = None
    for f in feats:
        code = cols.code[f]
        if code is not None:
            c = code[rows]
            lo_neg, lo_pos, _, hi_pos = np.bincount(c, minlength=4).tolist()
            left_n = lo_neg + lo_pos
            if left_n == 0 or left_n == k:
                continue
            right_n = k - left_n
            p_l = lo_pos / left_n
            p_r = hi_pos / right_n
            cost = (left_n * 2 * p_l * (1 - p_l) + right_n * 2 * p_r * (1 - p_r)) / k
            if cost < best_cost:
                best_cost = cost
                best = (int(f), cols.mid[f], lo_pos, c, None)
            continue
        v = cols.X[f][rows]
        order = v.argsort()
        vs = v[order]
        if vs[0] == vs[-1]:
            continue
        if labels is None:
            labels = cols.b[rows]
        left_pos = labels[order].cumsum()[:-1]
        left_n = cols.span[1:k]
        right_n = k - left_n
        right_pos = pos - left_pos
        p_l = left_pos / left_n
        p_r = right_pos / right_n
        cost = (left_n * 2 * p_l * (1 - p_l) + right_n * 2 * p_r * (1 - p_r)) / k
        cost[vs[1:] == vs[:-1]] = np.inf
        i = int(cost.argmin())
        if cost[i] < best_cost:
            best_cost = cost[i]
            best = (int(f), float((vs[i] + vs[i + 1]) / 2), int(left_pos[i]), order, i + 1)
    if best is None:
        return None
    f, thr, left_pos, sel, cut = best
    if cut is None:  # two-valued: sel holds the node's codes
        left = sel < 2
        return f, thr, rows[left], rows[~left], left_pos
    return f, thr, rows[sel[:cut]], rows[sel[cut:]], left_pos  # sel is the sort order


class RandomForest:
    """Bootstrap-aggregated CART trees voting on a {-1, +1} label."""

    def __init__(self, config: ForestConfig = ForestConfig()):
        self.config = config
        self.trees: list[_Tree] = []

    def fit(self, X, y) -> "RandomForest":
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y).ravel()
        if X.ndim != 2 or X.shape[0] != y.size:
            raise ValueError(f"X {X.shape} and y {y.shape} disagree")
        classes = set(np.unique(y).tolist())
        if not classes <= {-1, 1}:
            raise ValueError(f"labels must lie in {{-1, +1}}, got {sorted(classes)}")
        if len(classes) < 2:
            raise DataError("training split contains a single class")
        if np.isnan(X).any():
            raise ValueError("X contains NaN")
        n, m = X.shape
        cols = _Columns(X, (y == 1).astype(np.int64))
        mtry = max(1, int(np.sqrt(m)))
        self.trees = []
        for child in np.random.SeedSequence(self.config.seed).spawn(self.config.n_trees):
            rng = np.random.default_rng(child)
            tree = _Tree()
            tree.fit(cols, rng.integers(0, n, size=n), rng, mtry)
            self.trees.append(tree)
        return self

    def predict(self, X) -> np.ndarray:
        if not self.trees:
            raise RuntimeError("forest is not fitted")
        X = np.asarray(X, dtype=np.float64)
        votes = np.zeros(X.shape[0], dtype=np.int64)
        for tree in self.trees:
            votes += tree.predict(X)
        # votes counts trees saying +1; ties go to -1
        return np.where(2 * votes > len(self.trees), 1, -1).astype(np.int64)
