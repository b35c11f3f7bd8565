"""Random forest for binary labels, built on CART trees with Gini splits.

Kept dependency-free on purpose. The protocol is fixed (Breiman 2001):
each tree is grown greedily to purity on a bootstrap resample of the n
rows, drawing floor(sqrt(m)) of the m features at every split.
Prediction is a majority vote over trees; vote ties fall to the negative
class. Everything is a pure function of (data, config.seed), so refits
reproduce bit-identically.

Each tree's random stream draws its bootstrap resample, then its nodes'
features DRAW_BLOCK nodes at a time: the first mtry of the ranks of m
uniform variates, a uniformly drawn ordered set of distinct features.
Each impure node takes the next draw, depth first, right child first.

`RandomForest.fit` codes the columns once per forest, and each split
takes one of two routes by the column's distinct values (see
`_best_split`): a two-valued column (every one-hot indicator and binary
feature) is scored from four (value, label) counts, any other column by
sorting. Both maximise the same purity sum from exact integer counts,
so they give the same floats, and so the nodes, thresholds and leaf
values, of sorting every column.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
import numpy.random  # else the first np.random call imports it, inside a command

from .errors import DataError, SchemaError, signs

DRAW_BLOCK = 64  # nodes per feature draw of a tree's random stream


@dataclass(frozen=True)
class ForestConfig:
    """Tree count and seed: all of the fixed protocol that a caller sets."""

    n_trees: int = 100
    seed: int = 0

    def __post_init__(self):
        if self.n_trees < 1:
            raise SchemaError(f"n_trees must be at least 1, got {self.n_trees}")


class _Tree(NamedTuple):
    """One CART tree as arrays indexed by node; the root is node 0.

    Node i sends `x[feature[i]] <= threshold[i]` to `left[i]` and the
    rest to `left[i] + 1`; a leaf has feature -1. `value` is every
    node's majority class, 0 or 1.
    """

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    value: np.ndarray


def _draws(rng, m: int, mtry: int):
    """Each node's features: rows of blocks of DRAW_BLOCK ranked draws."""
    while True:
        yield from rng.random((DRAW_BLOCK, m)).argsort(axis=1)[:, :mtry].tolist()


def _grow(cols: _Columns, idx, draws) -> _Tree:
    """Grow one tree to purity on the rows `idx`, depth first.

    A split numbers its two children next, so k rows make at most
    2k - 1 nodes.
    """
    size = 2 * idx.size - 1
    feature, threshold, left, value = [-1] * size, [math.nan] * size, [-1] * size, [0] * size
    stack = [(0, idx, int(cols.b[idx].sum()))]
    count = 1
    while stack:
        node, rows, pos = stack.pop()
        value[node] = int(pos * 2 > rows.size)  # ties fall to class 0
        if not 0 < pos < rows.size:
            continue
        split = _best_split(cols, rows, pos, next(draws))
        if split is None:
            continue
        feature[node], threshold[node], left_rows, right_rows, left_pos = split
        left[node] = count
        stack.append((count, left_rows, left_pos))
        stack.append((count + 1, right_rows, pos - left_pos))
        count += 2
    return _Tree(*(np.array(column[:count]) for column in (feature, threshold, left, value)))


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
    right of a k-row node with p positives has weighted Gini 2(p - S)/k
    with S = p_l²/n_l + p_r²/n_r, so the cut of highest purity sum S is
    the cut of lowest Gini. Features are compared in `feats`
    order with strict `>`, so the first of equal sums wins. The column's
    distinct values choose the route:

    - Two values lo < hi: the one cut is at (lo + hi) / 2. One
      `bincount` of the column's code over the node's rows gives the
      four (value, label) counts, and S is computed from Python ints.
    - Otherwise: sort the node's values and score every cut between
      unequal neighbours from a cumulative label sum in int64; the first
      maximum wins.

    The two routes give the same floats: the squares are exact integers
    below 2**53, int / int rounds the exact quotient in Python as numpy's
    division of the converted integers does, and the one addition is the
    same. At a cut between unequal values the cumulative sum counts every
    row at or below the cut, whatever the order of tied rows, so the sort
    need not be stable.

    A split sends left the rows at or below the lower value of its cut.
    That is the rows with `x <= threshold` unless the midpoint rounds up
    to the upper value, which takes adjacent doubles or an overflow.
    """
    k = rows.size
    best_score = -1.0
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
            score = lo_pos * lo_pos / left_n + hi_pos * hi_pos / (k - left_n)
            if score > best_score:
                best_score = score
                best = (f, cols.mid[f], lo_pos, c, None)
            continue
        v = cols.X[f][rows]
        order = v.argsort()
        vs = v[order]
        if vs[0] == vs[-1]:
            continue
        if labels is None:
            labels = cols.b[rows]
        left_pos = labels[order].cumsum()[:-1]
        right_pos = pos - left_pos
        left_n, right_n = cols.span[1:k], cols.span[k - 1 : 0 : -1]
        score = left_pos * left_pos / left_n + right_pos * right_pos / right_n
        score[vs[1:] == vs[:-1]] = -1.0
        i = int(score.argmax())
        if score[i] > best_score:
            best_score = score[i]
            best = (f, float((vs[i] + vs[i + 1]) / 2), int(left_pos[i]), order, i + 1)
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
        self.width = 0  # columns of the fitted X

    def fit(self, X, y) -> "RandomForest":
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y).ravel()
        if X.ndim != 2 or X.shape[0] != y.size:
            raise ValueError(f"X {X.shape} and y {y.shape} disagree")
        if X.shape[1] == 0:
            raise ValueError("X has no feature columns")
        if np.unique(signs(y)).size < 2:
            raise DataError("training split contains a single class")
        if np.isnan(X).any():
            raise ValueError("X contains NaN")
        n, m = X.shape
        cols = _Columns(X, (y == 1).astype(np.int64))
        mtry = math.isqrt(m)
        self.width = m
        self.trees = []
        for child in np.random.SeedSequence(self.config.seed).spawn(self.config.n_trees):
            rng = np.random.default_rng(child)
            idx = rng.integers(0, n, size=n)
            self.trees.append(_grow(cols, idx, _draws(rng, m, mtry)))
        return self

    def predict(self, X) -> np.ndarray:
        """Majority vote of the trees, walked together through one node table.

        A NaN fails `x <= threshold`, so it goes right.
        """
        if not self.trees:
            raise RuntimeError("forest is not fitted")
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2 or X.shape[1] != self.width:
            raise ValueError(f"X is {X.shape}; the forest was fitted on {self.width} columns")
        n = X.shape[0]
        sizes = [tree.feature.size for tree in self.trees]
        roots = np.cumsum([0] + sizes[:-1])
        feature, threshold, left, value = (np.concatenate(column) for column in zip(*self.trees))
        left = left + np.repeat(roots, sizes)  # a leaf's left is never read
        node = np.repeat(roots, n)
        row = np.tile(np.arange(n), len(self.trees))
        walking = np.arange(node.size)
        while walking.size:
            cur = node[walking]
            f = feature[cur]
            internal = f >= 0
            walking, cur, f = walking[internal], cur[internal], f[internal]
            node[walking] = left[cur] + ~(X[row[walking], f] <= threshold[cur])
        votes = value[node].reshape(len(self.trees), n).sum(axis=0)
        # votes counts trees saying +1; ties go to -1
        return np.where(2 * votes > len(self.trees), 1, -1).astype(np.int64)


def fit_predict(X, y, X_test, config: ForestConfig) -> np.ndarray:
    """One cross-validation fold: fit a forest on (X, y), predict X_test.

    A pure function of its arguments, so a fold gives the same
    predictions in whichever process it runs.
    """
    return RandomForest(config).fit(X, y).predict(X_test)
