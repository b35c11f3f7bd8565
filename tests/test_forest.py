import hashlib
import math
import subprocess
import sys
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from conftest import recording_forks
from oracles import argsort_cart_forest

from fairdep import DataError, ForestConfig, RandomForest
from fairdep.dependence import DependenceConfig
from fairdep.detector import audit_dataset
from fairdep.forest import DRAW_BLOCK, _best_split, _Columns, _draws
from fairdep.kernels import LINEAR, KernelSpec
from fairdep.synth import default_validation_spec, generate
from fairdep.validation import cross_validate
from fairdep.workers import FORKS, usable_cpus


def planted_problem(n, seed, flip=0.0):
    rng = np.random.default_rng(seed)
    y = np.where(rng.random(n) < 0.5, 1, -1)
    b = (y == 1).astype(float)
    if flip:
        mask = rng.random(n) < flip
        b = np.where(mask, 1 - b, b)
    X = np.column_stack([b, rng.standard_normal(n), rng.standard_normal(n)])
    return X, y


def test_config_validation():
    with pytest.raises(ValueError):
        ForestConfig(n_trees=0)


def test_single_class_training_rejected():
    X = np.random.default_rng(0).standard_normal((10, 2))
    with pytest.raises(DataError, match="single class"):
        RandomForest().fit(X, np.ones(10))


def test_perfectly_separable_reaches_full_accuracy():
    X, y = planted_problem(400, seed=1)
    Xt, yt = planted_problem(200, seed=2)
    model = RandomForest(ForestConfig(n_trees=100, seed=0)).fit(X, y)
    assert np.mean(model.predict(Xt) == yt) == 1.0


def test_deterministic_under_seed():
    X, y = planted_problem(300, seed=3, flip=0.2)
    Xt, _ = planted_problem(100, seed=4, flip=0.2)
    a = RandomForest(ForestConfig(n_trees=30, seed=5)).fit(X, y).predict(Xt)
    b = RandomForest(ForestConfig(n_trees=30, seed=5)).fit(X, y).predict(Xt)
    np.testing.assert_array_equal(a, b)


def test_different_seeds_differ_somewhere():
    X, y = planted_problem(300, seed=6, flip=0.35)
    Xt, _ = planted_problem(200, seed=7, flip=0.35)
    a = RandomForest(ForestConfig(n_trees=15, seed=0)).fit(X, y).predict(Xt)
    b = RandomForest(ForestConfig(n_trees=15, seed=1)).fit(X, y).predict(Xt)
    assert (a != b).any()


def test_noise_features_give_chance_level_accuracy():
    # empirical calibration: pooled 10-fold accuracy on pure noise, with
    # the folds on min(10, usable CPUs) forked workers where the package forks
    accs = []
    with recording_forks() as forked:
        for seed in range(10):
            rng = np.random.default_rng(100 + seed)
            X = rng.standard_normal((500, 5))
            y = np.where(rng.random(500) < 0.5, 1, -1)
            forest = ForestConfig(n_trees=30, seed=seed)
            cv = cross_validate(X, y, folds=10, forest=forest, seed=seed)
            accs.append(np.mean(cv.predictions == y))
    workers = min(10, usable_cpus()) if FORKS else 1
    assert len(forked) == (10 * workers if workers > 1 else 0)
    assert all(0.4 <= a <= 0.6 for a in accs)


@pytest.mark.parametrize("module", ["fairdep.forest", "fairdep.__main__"])
def test_worker_imports_load_no_scipy(module):
    # importing the forest (what a library caller needs for the folds) or
    # the `fairdep` script's main module costs no scipy and no data layer
    code = (
        f"import sys, {module}; "
        "sys.exit(' '.join(m for m in sys.modules "
        "if m.startswith('scipy') or m == 'fairdep.data') or None)"
    )
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr


def test_predictions_are_signs():
    X, y = planted_problem(200, seed=8, flip=0.1)
    model = RandomForest(ForestConfig(n_trees=9, seed=2)).fit(X, y)
    assert set(np.unique(model.predict(X))) <= {-1, 1}


def test_predict_before_fit_rejected():
    with pytest.raises(RuntimeError):
        RandomForest().predict(np.ones((3, 2)))


@pytest.mark.parametrize("width", [1, 6])
def test_predict_rejects_other_widths(width):
    X, y = planted_problem(50, seed=11)
    model = RandomForest(ForestConfig(n_trees=3)).fit(X, y)
    with pytest.raises(ValueError, match=rf"\(4, {width}\).*fitted on 3 columns"):
        model.predict(np.ones((4, width)))


def test_nan_input_rejected():
    X, y = planted_problem(50, seed=10)
    X[3, 1] = np.nan
    with pytest.raises(ValueError, match="NaN"):
        RandomForest(ForestConfig(n_trees=2)).fit(X, y)


def test_zero_columns_rejected():
    y = np.array([1, -1] * 5)
    with pytest.raises(ValueError, match="no feature columns"):
        RandomForest(ForestConfig(n_trees=2)).fit(np.empty((10, 0)), y)


def _walk(tree, x):
    node = 0
    while tree.feature[node] >= 0:
        node = tree.left[node] + (not x[tree.feature[node]] <= tree.threshold[node])
    return tree.value[node]


def test_predict_votes_equal_each_trees_walk():
    # an even tree count, so vote ties occur and fall to -1
    X, y = mixed_problem(300, seed=11)
    forest = RandomForest(ForestConfig(n_trees=24, seed=3)).fit(X, y)
    Xt, _ = mixed_problem(150, seed=12)
    Xt[::7, 4] = np.nan  # NaN fails x <= threshold, so it goes right
    Xt[::11] = np.nan
    votes = np.array([sum(_walk(tree, x) for tree in forest.trees) for x in Xt])
    assert (2 * votes == 24).any()
    np.testing.assert_array_equal(forest.predict(Xt), np.where(2 * votes > 24, 1, -1))


# ------------------------------------------------------- draws and split choice


@pytest.mark.parametrize("m", [2, 5, 8, 11])
def test_block_draws_pick_each_feature_subset_uniformly(m):
    from scipy import stats

    mtry = math.isqrt(m)
    draws = _draws(np.random.default_rng(m), m, mtry)
    picks = [next(draws) for _ in range(500 * DRAW_BLOCK)]
    assert all(len(set(p)) == mtry and 0 <= min(p) and max(p) < m for p in picks)
    counts = Counter(frozenset(p) for p in picks)
    assert len(counts) == math.comb(m, mtry)
    assert stats.chisquare(list(counts.values())).pvalue > 1e-3


def _gini(labels) -> Fraction:
    # weighted Gini of a cut, sum over both sides of n * 2q(1 - q), over k
    total = Fraction(0)
    for side in labels:
        if side.size:
            q = Fraction(int(side.sum()), side.size)
            total += side.size * 2 * q * (1 - q)
    return total / sum(side.size for side in labels)


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), k=st.integers(2, 60), m=st.integers(1, 5))
def test_chosen_cut_has_the_lowest_weighted_gini(seed, k, m):
    # few distinct values per column, so nodes hold tied values and
    # some columns take the two-valued route
    rng = np.random.default_rng(seed)
    X = np.column_stack([rng.choice(rng.standard_normal(rng.integers(2, 6)), 80) for _ in range(m)])
    b = rng.integers(0, 2, 80)
    rows = rng.integers(0, 80, k)
    pos = int(b[rows].sum())
    assume(0 < pos < k)
    split = _best_split(_Columns(X, b), rows, pos, list(range(m)))
    costs = []
    for f in range(m):
        v = np.unique(X[rows, f])
        for thr in (v[1:] + v[:-1]) / 2:
            goes_left = X[rows, f] <= thr
            costs.append(_gini((b[rows[goes_left]], b[rows[~goes_left]])))
    if not costs:
        assert split is None
        return
    f, thr, left_rows, right_rows, left_pos = split
    goes_left = X[rows, f] <= thr
    np.testing.assert_array_equal(np.sort(left_rows), np.sort(rows[goes_left]))
    np.testing.assert_array_equal(np.sort(right_rows), np.sort(rows[~goes_left]))
    assert left_pos == b[left_rows].sum()
    assert _gini((b[left_rows], b[right_rows])) <= min(costs) * (1 + Fraction(1, 10**12))


# ------------------------------------------- bit identity with the argsort CART


def test_trees_and_cv_predictions_match_golden_hashes():
    # SHA-256 of the argsort CART's output under the default forest: the
    # trees of the planted problems above (feature, threshold, left and
    # value arrays), and the out-of-fold predictions on the validation
    # suite as `fairdep validate --kernel linear` encodes it. Both were
    # re-pinned when nodes began drawing their features in blocks and
    # scoring cuts by the purity sum, which changes the trees; both hashes
    # were reproduced from `argsort_cart_forest` itself, the predictions
    # by walking its trees row by row.
    digest = hashlib.sha256()
    for (n, seed, flip), config in [
        ((400, 1, 0.0), ForestConfig(n_trees=100, seed=0)),
        ((300, 3, 0.2), ForestConfig(n_trees=30, seed=5)),
        ((300, 6, 0.35), ForestConfig(n_trees=15, seed=0)),
        ((300, 6, 0.35), ForestConfig(n_trees=15, seed=1)),
        ((200, 8, 0.1), ForestConfig(n_trees=9, seed=2)),
    ]:
        X, y = planted_problem(n, seed, flip)
        for tree in RandomForest(config).fit(X, y).trees:
            for array in tree:  # feature, threshold, left, value
                digest.update(array.tobytes())
    assert digest.hexdigest() == "d3b638e714296245d2fa7117aad20332c4edffb2eb5f4046ca682999a015bcdd"

    dataset, _ = generate(default_validation_spec(7))
    encoded, _ = audit_dataset(dataset, DependenceConfig(KernelSpec(LINEAR)))
    predictions = cross_validate(encoded.matrix, encoded.y).predictions.astype(np.int64)
    assert (
        hashlib.sha256(predictions.tobytes()).hexdigest()
        == "8af609e1be949bd4c7c45757ff705aebf0969d35936dd7589c94a0ddcf568046"
    )


def mixed_problem(n, seed):
    """Every column kind the split routes distinguish, with planted cost ties."""
    rng = np.random.default_rng(seed)
    y = np.where(rng.random(n) < 0.45, 1, -1)
    y[:2] = (1, -1)
    pos = y == 1
    binary = (rng.random(n) < np.where(pos, 0.7, 0.3)).astype(float)
    odd_pair = np.where(rng.random(n) < 0.5, 7.0, -3.5)
    rare = (rng.random(n) < 0.05).astype(float)  # one value in most nodes
    counts = rng.integers(0, 4, n) + pos.astype(float)
    normal = rng.standard_normal(n) + 0.5 * pos
    noise = rng.standard_normal(n)
    ages = rng.integers(18, 40, n).astype(float)
    same_cut = np.where(binary == 1, 7.0, -3.5)  # ties `binary` on the count route
    nearly_binary = binary.copy()  # sorted route; ties `binary` where the 2 is absent
    nearly_binary[rng.integers(n)] = 2.0
    constant = np.full(n, 4.25)
    X = np.column_stack(
        [binary, odd_pair, rare, counts, normal, same_cut, nearly_binary, constant, 1 - binary, noise, ages]
    )
    return X, y


def _assert_trees_match_reference(X, y, config):
    forest = RandomForest(config).fit(X, y)
    reference = argsort_cart_forest(X, y, config.n_trees, config.seed)
    assert len(forest.trees) == len(reference)
    for tree, (feature, threshold, left, right, value) in zip(forest.trees, reference):
        for got, want in zip(tree, (feature, threshold, left, value)):
            np.testing.assert_array_equal(got, np.asarray(want, dtype=got.dtype))
        internal = tree.feature >= 0
        np.testing.assert_array_equal(np.asarray(right)[internal], tree.left[internal] + 1)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(2, 150), seed=st.integers(0, 2**32 - 1), m=st.integers(1, 11))
def test_trees_match_argsort_reference(n, seed, m):
    # the first m columns: 1-3 columns draw one feature per split, 4-8 two, 9-11 three
    X, y = mixed_problem(n, seed)
    _assert_trees_match_reference(X[:, :m], y, ForestConfig(n_trees=4, seed=seed))


def test_deep_trees_match_argsort_reference():
    X, y = mixed_problem(1500, seed=21)
    _assert_trees_match_reference(X, y, ForestConfig(n_trees=6, seed=4))
