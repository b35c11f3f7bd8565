"""Independent reference implementations used only by tests.

These deliberately share no code with the package: kernels are built by
explicit double loops, the centering matrix H is materialized, operators
use a dense general-purpose inverse, and confusion counts come from a
per-row conditional loop. Slow and obvious beats fast and clever here.
`rowwise_load_dataset` is the CSV loader as it was before the block
loader: one Python pass over the rows, then a per-cell interpretation of
each column. It builds the package's own `Dataset` and raises its
`DataError`, so the two loaders' results and errors compare directly.
"""

import csv
import math

import numpy as np

from fairdep.data import BINARY, CATEGORICAL, NUMERIC, Column, Dataset, Schema
from fairdep.errors import DataError


def naive_gram(v, kind):
    n = len(v)
    K = np.empty((n, n))
    for i in range(n):
        for j in range(n):
            if kind == "linear":
                K[i, j] = v[i] * v[j]
            else:
                K[i, j] = np.exp(-((v[i] - v[j]) ** 2) / n)
    return K


def value_gram(values, n):
    """RBF Gram of a column's distinct values at the column's bandwidth n.

    Entry (a, b) is exp((v_a - v_b)^2 / -n) as one array expression,
    for comparing `value_band` against bit for bit.
    """
    v = np.asarray(values, dtype=np.float64)
    D = np.subtract.outer(v, v)
    return np.exp(D * D / -n)


def naive_center(K):
    n = K.shape[0]
    H = np.eye(n) - np.ones((n, n)) / n
    return H @ K @ H


def naive_operator(v, kind, epsilon):
    n = len(v)
    G = naive_center(naive_gram(v, kind))
    return G @ np.linalg.inv(G + n * epsilon * np.eye(n))


def naive_hsic(x, y, kind):
    n = len(x)
    H = np.eye(n) - np.ones((n, n)) / n
    return np.trace(naive_gram(x, kind) @ H @ naive_gram(y, kind) @ H) / (n - 1) ** 2


def naive_nocco(x, y, kind, epsilon):
    return float(np.trace(naive_operator(x, kind, epsilon) @ naive_operator(y, kind, epsilon)))


def brute_force_group_confusion(predictions, labels, group):
    """Count the eight cells one row at a time."""
    cells = {
        "tp": 0, "tn": 0, "fp": 0, "fn": 0,
        "tp_c": 0, "tn_c": 0, "fp_c": 0, "fn_c": 0,
    }
    for pred, lab, g in zip(predictions, labels, group):
        suffix = "" if g == 1 else "_c"
        if lab == 1 and pred == 1:
            cells["tp" + suffix] += 1
        elif lab == -1 and pred == -1:
            cells["tn" + suffix] += 1
        elif lab == -1 and pred == 1:
            cells["fp" + suffix] += 1
        else:
            cells["fn" + suffix] += 1
    return cells


def argsort_cart_forest(X, y, n_trees, seed):
    """Random forest of Gini CART trees, every split found by sorting.

    Breiman's protocol: each tree grows to purity on a bootstrap resample
    and draws floor(sqrt(m)) of the m features at every node. Each node
    sorts each drawn feature (stable `argsort`), scores every cut between
    unequal neighbours by its purity sum p_l²/n_l + p_r²/n_r (the weighted
    Gini is 2(p - sum)/k), keeps the first maximum, compares features in
    draw order with strict `>`, and partitions with `x <= threshold`. The
    random draws follow `RandomForest.fit`: one child seed per tree, a
    bootstrap resample, then blocks of 64 rows of m uniform variates,
    whose ranks give each impure node's features in turn, depth first
    with the right child popped first. So the trees must agree node for
    node. Returns one (feature, threshold, left, right, value) tuple of
    lists per tree.
    """
    X = np.asarray(X, dtype=np.float64)
    b = (np.asarray(y).ravel() == 1).astype(np.int64)
    n, m = X.shape
    mtry = math.isqrt(m)
    trees = []
    for child in np.random.SeedSequence(seed).spawn(n_trees):
        rng = np.random.default_rng(child)
        idx = rng.integers(0, n, size=n)
        trees.append(_argsort_cart_tree(X, b, idx, rng, mtry))
    return trees


def _argsort_cart_tree(X, b, idx, rng, mtry):
    feature, threshold, left, right, value = [], [], [], [], []

    def blocks():
        while True:
            for variates in rng.random((64, X.shape[1])):
                yield np.argsort(variates, kind="stable")[:mtry]

    draws = blocks()

    def new_node(rows):
        feature.append(-1)
        threshold.append(np.nan)
        left.append(-1)
        right.append(-1)
        value.append(int(b[rows].sum() * 2 > rows.size))  # ties fall to 0
        return len(feature) - 1

    stack = [(new_node(idx), idx)]
    while stack:
        node, rows = stack.pop()
        k = rows.size
        pos = int(b[rows].sum())
        if pos == 0 or pos == k or k < 2:
            continue
        feats = next(draws)
        best_score, best = -np.inf, None
        labels = b[rows]
        for f in feats:
            v = X[rows, f]
            order = np.argsort(v, kind="stable")
            vs = v[order]
            if vs[0] == vs[-1]:
                continue
            bs = labels[order]
            left_pos = np.cumsum(bs)[:-1]
            left_n = np.arange(1, k)
            right_n = k - left_n
            right_pos = left_pos[-1] + bs[-1] - left_pos
            score = left_pos**2 / left_n + right_pos**2 / right_n
            score[vs[1:] == vs[:-1]] = -np.inf
            i = int(np.argmax(score))
            if score[i] > best_score:
                best_score = score[i]
                best = (int(f), float((vs[i] + vs[i + 1]) / 2))
        if best is None:
            continue
        f, thr = best
        goes_left = X[rows, f] <= thr
        feature[node], threshold[node] = f, thr
        left[node] = new_node(rows[goes_left])
        right[node] = new_node(rows[~goes_left])
        stack.append((left[node], rows[goes_left]))
        stack.append((right[node], rows[~goes_left]))
    return feature, threshold, left, right, value


def _open_csv(csv_source):
    if hasattr(csv_source, "read"):
        return csv_source, False
    return open(csv_source, "r", encoding="utf-8", newline=""), True


def rowwise_load_dataset(csv_source, schema: Schema) -> Dataset:
    """Read a headered CSV into a validated Dataset.

    Rows with a missing marker in any schema column (features or label)
    are dropped and counted in `dropped_rows`. Cell whitespace is
    stripped before interpretation.
    """
    fh, should_close = _open_csv(csv_source)
    try:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError("CSV is empty") from None
        header = [h.strip() for h in header]
        positions = {name: i for i, name in enumerate(header)}
        needed = list(schema.names) + [schema.label]
        for name in needed:
            if name not in positions:
                raise DataError(f"unknown column: {name!r} not in CSV header")
        missing = set(schema.missing_values)

        raw_columns: list[list[str]] = [[] for _ in needed]
        dropped = 0
        for row_no, row in enumerate(reader, start=2):
            if not row:
                continue
            try:
                cells = [row[positions[name]].strip() for name in needed]
            except IndexError:
                raise DataError(f"row {row_no}: too few fields") from None
            if any(cell in missing for cell in cells):
                dropped += 1
                continue
            for store, cell in zip(raw_columns, cells):
                store.append(cell)

        n = len(raw_columns[-1])
        if n < 2:
            raise DataError(f"fewer than 2 rows survive missing-value removal (got {n})")

        features = tuple(
            _interpret_column(col, raw_columns[i]) for i, col in enumerate(schema.columns)
        )
        label_cells = raw_columns[-1]
        y = np.where(np.asarray(label_cells, dtype=object) == schema.positive, 1, -1).astype(
            np.int64
        )
        if schema.positive not in label_cells:
            raise DataError(
                f"degenerate labels: positive value {schema.positive!r} never observed"
            )
        if int(np.sum(y == 1)) == n:
            raise DataError("degenerate labels: only the positive class present")
        negatives = sorted({cell for cell in label_cells if cell != schema.positive})
        return Dataset(
            schema=schema,
            features=features,
            y=y,
            dropped_rows=dropped,
            negative_display=negatives[0] if len(negatives) == 1 else None,
        )
    finally:
        if should_close:
            fh.close()


def _interpret_column(col: Column, cells: list[str]) -> np.ndarray:
    if col.kind == NUMERIC:
        return _parse_floats(col.name, cells)
    if col.bins is not None:
        values = _parse_floats(col.name, cells)
        idx = np.searchsorted(np.asarray(col.bins), values, side="right")
        cats = np.array(col.categories, dtype=object)
        return cats[idx]
    out = np.asarray(cells, dtype=object)
    if col.recode:
        out = np.array([col.recode.get(v, v) for v in out], dtype=object)
    if col.kind == CATEGORICAL:
        declared = set(col.categories)
        if col.recode_default is not None:
            out = np.array(
                [v if v in declared else col.recode_default for v in out], dtype=object
            )
        observed = set(out.tolist())
        extra = observed - declared
        if extra:
            raise DataError(
                f"column {col.name!r}: undeclared category values {sorted(extra)!r}"
            )
    else:  # binary
        observed = sorted(set(out.tolist()))
        if col.categories is not None:
            extra = set(observed) - set(col.categories)
            if extra:
                raise DataError(
                    f"column {col.name!r}: values {sorted(extra)!r} outside declared pair"
                )
        elif len(observed) != 2:
            raise DataError(
                f"column {col.name!r}: binary column has {len(observed)} distinct "
                f"values, expected exactly 2"
            )
    return out


def _parse_floats(name: str, cells: list[str]) -> np.ndarray:
    try:
        return np.asarray(cells, dtype=np.float64)
    except ValueError:
        for cell in cells:
            try:
                float(cell)
            except ValueError:
                raise DataError(f"column {name!r}: non-numeric value {cell!r}") from None
        raise
