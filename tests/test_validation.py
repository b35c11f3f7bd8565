import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

from fairdep import Column, DataError, ForestConfig, Schema, cross_validate, encode
from fairdep.data import dataset_from_arrays
from fairdep.detector import detect, score_features
from fairdep.synth import PlantedFeature, SynthSpec, generate
from fairdep.validation import (
    _spearman,
    kernel_consistency,
    stratified_folds,
    validate,
    write_scatter_csv,
)


def suite_dataset(seed=0, n=300):
    spec = SynthSpec(
        n=n,
        planted=(PlantedFeature(0.05), PlantedFeature(0.25), PlantedFeature(0.5)),
        noise_binary=1,
        noise_numeric=1,
        balance=0.6,
        seed=seed,
    )
    return generate(spec)[0]


@pytest.fixture(scope="module")
def validated():
    dataset = suite_dataset()
    encoded = encode(dataset)
    scores = score_features(encoded, dataset.y)
    report = detect(scores, config={"kernel": "rbf"})
    vrep = validate(
        encoded,
        dataset.y,
        report,
        folds=5,
        forest=ForestConfig(n_trees=30, seed=0),
        seed=0,
    )
    return dataset, encoded, report, vrep


# ----------------------------------------------------------------- folds


def test_folds_partition_all_rows():
    y = np.where(np.random.default_rng(0).random(100) < 0.5, 1, -1)
    folds = stratified_folds(y, 10, seed=1)
    assert len(folds) == 10
    assert sorted(np.concatenate(folds).tolist()) == list(range(100))
    sizes = [f.size for f in folds]
    assert max(sizes) - min(sizes) <= 2


def test_folds_stratify_within_one_row():
    rng = np.random.default_rng(1)
    y = np.where(rng.random(200) < 0.3, 1, -1)
    n_pos = (y == 1).sum()
    folds = stratified_folds(y, 10, seed=2)
    for f in folds:
        got = (y[f] == 1).sum()
        expected = n_pos * f.size / 200
        assert abs(got - expected) <= 1


def test_folds_reject_scarce_class():
    y = np.array([1] * 3 + [-1] * 97)
    with pytest.raises(DataError, match="single class"):
        stratified_folds(y, 5, seed=0)


def test_folds_reject_tiny_input():
    with pytest.raises(ValueError):
        stratified_folds(np.array([1, -1, 1]), 1)


def test_cross_validate_covers_every_row_once():
    rng = np.random.default_rng(3)
    X = rng.standard_normal((80, 3))
    y = np.where(rng.random(80) < 0.5, 1, -1)
    X[:, 0] = y  # separable
    cv = cross_validate(X, y, folds=8, forest=ForestConfig(n_trees=60, seed=0), seed=0)
    assert len(cv.fold_test_indices) == 8
    assert sorted(np.concatenate(cv.fold_test_indices).tolist()) == list(range(80))
    assert set(np.unique(cv.predictions)) <= {-1, 1}
    assert np.mean(cv.predictions == y) == 1.0


def test_cross_validate_deterministic():
    rng = np.random.default_rng(4)
    X = rng.standard_normal((60, 3))
    y = np.where(rng.random(60) < 0.5, 1, -1)
    a = cross_validate(X, y, folds=5, forest=ForestConfig(n_trees=8, seed=1), seed=9)
    b = cross_validate(X, y, folds=5, forest=ForestConfig(n_trees=8, seed=1), seed=9)
    np.testing.assert_array_equal(a.predictions, b.predictions)


# -------------------------------------------------------------- validate


def test_every_indicator_subfeature_appears_once(validated):
    _, encoded, _, vrep = validated
    from fairdep.fairness import indicator_columns

    expected = {encoded.subfeatures[c].name for c in indicator_columns(encoded)}
    names = [r.name for r in vrep.records]
    assert sorted(names) == sorted(expected)
    assert len(names) == len(set(names))


def test_numeric_noise_not_paired(validated):
    _, _, _, vrep = validated
    assert all(not r.name.startswith("noise_num") for r in vrep.records)


def test_fold_count_matches_config(validated):
    _, _, _, vrep = validated
    assert len(vrep.fold_accuracy) == 5
    assert all(len(r.per_fold) == 5 for r in vrep.records)


def test_nocco_column_echoes_report(validated):
    _, _, report, vrep = validated
    for r in vrep.records:
        assert r.nocco == report.subfeature_score(r.name)


def test_strong_feature_shows_larger_disparity(validated):
    _, _, _, vrep = validated
    by_name = {r.name: r for r in vrep.records}
    strong = by_name["planted0_p05_1"].means["f_eo"]
    weak = by_name["planted2_p50_1"].means["f_eo"]
    assert strong is not None and weak is not None
    assert strong > weak


def test_spearman_keys_present(validated):
    _, _, _, vrep = validated
    assert set(vrep.spearman) == {"f_pe", "f_ep", "f_eo", "f_oae"}


def test_validation_json_and_scatter(tmp_path, validated):
    _, _, _, vrep = validated
    vrep.to_json(tmp_path / "validation.json")
    write_scatter_csv(vrep, "rbf", tmp_path / "scatter.csv")
    import csv
    import json

    doc = json.loads((tmp_path / "validation.json").read_text())
    assert doc["config"]["folds"] == 5
    with open(tmp_path / "scatter.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["subfeature", "kernel", "nocco", "f_pe", "f_ep", "f_eo", "f_oae", "accuracy"]
    assert len(rows) == 1 + len(vrep.records)
    assert all(row[1] == "rbf" for row in rows[1:])


def test_exclude_sensitive_drops_columns(validated):
    dataset, encoded, report, _ = validated
    vrep = validate(
        encoded,
        dataset.y,
        report,
        folds=4,
        forest=ForestConfig(n_trees=10, seed=0),
        seed=0,
        exclude_sensitive=True,
    )
    assert set(vrep.config["excluded_features"]) == set(report.sensitive_features)
    # fairness still evaluated for the excluded features' subfeatures
    names = {r.name for r in vrep.records}
    assert any(n.startswith("planted0") for n in names)


def test_undefined_folds_counted():
    # a constant indicator gives an empty complement: every fold undefined
    schema = Schema(
        columns=(
            Column("always", "binary", categories=("0", "1")),
            Column("signal", "numeric"),
        ),
        label="y",
        positive="1",
    )
    rng = np.random.default_rng(5)
    y = np.where(rng.random(60) < 0.5, 1, -1)
    ds = dataset_from_arrays(
        schema,
        [np.array(["1"] * 60, dtype=object), y + rng.standard_normal(60)],
        y,
    )
    encoded = encode(ds)
    report = detect(score_features(encoded, y), config={})
    vrep = validate(encoded, y, report, folds=4, forest=ForestConfig(n_trees=10, seed=0), seed=0)
    rec = next(r for r in vrep.records if r.name.startswith("always"))
    assert all(rec.means[k] is None for k in rec.means)
    assert all(rec.undefined[k] == 4 for k in rec.undefined)


# ---------------------------------------------------- kernel consistency


def test_kernel_consistency_on_planted_suite():
    dataset = suite_dataset(seed=2, n=400)
    encoded = encode(dataset)
    kc = kernel_consistency(encoded, dataset.y)
    assert kc.spearman_features >= 0.9
    assert kc.only_rbf == () and kc.only_linear == ()
    doc = kc.to_dict()
    assert set(doc) >= {"spearman_features", "argmax_flips", "only_rbf", "only_linear"}


def test_kernel_consistency_single_candidate():
    schema = Schema(columns=(Column("b", "binary", categories=("0", "1")),), label="y", positive="1")
    rng = np.random.default_rng(6)
    y = np.where(rng.random(50) < 0.5, 1, -1)
    raw = np.where(rng.random(50) < 0.5, "1", "0").astype(object)
    ds = dataset_from_arrays(schema, [raw], y)
    kc = kernel_consistency(encode(ds), y)
    assert kc.sensitive_rbf == kc.sensitive_linear


# ---------------------------------------------------- spearman


def test_cli_import_leaves_scipy_stats_unloaded():
    code = "import sys, fairdep.cli; sys.exit('scipy.stats' in sys.modules)"
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr or "import fairdep.cli loaded scipy.stats"


def test_lazy_package_exports_resolve():
    import fairdep

    for name in fairdep.__all__:
        getattr(fairdep, name)  # AttributeError if the table names a missing object
    assert fairdep.validate is fairdep.validation.validate
    with pytest.raises(AttributeError):
        getattr(fairdep, "no_such_name")


@pytest.mark.parametrize("ties", [False, True])
def test_spearman_equals_scipy_bit_for_bit(ties):
    from scipy import stats

    rng = np.random.default_rng(11 + ties)
    checked = 0
    for _ in range(500):
        n = int(rng.integers(3, 60))
        if ties:
            a = rng.integers(0, 4, n).astype(float)
            b = rng.integers(0, 3, n) + 0.5 * rng.integers(0, 2, n)
        else:
            a = rng.standard_normal(n)
            b = a + rng.standard_normal(n)
        if (a == a[0]).all() or (b == b[0]).all():
            continue
        expected = float(stats.spearmanr(a, b).statistic)
        assert _spearman(a, b) == expected, (a, b)
        checked += 1
    assert checked > 400


def test_spearman_of_constant_input_is_nan():
    assert np.isnan(_spearman([2.0, 2.0, 2.0, 2.0], [1.0, 3.0, 2.0, 4.0]))
    assert np.isnan(_spearman([1.0, 3.0, 2.0], [0.5, 0.5, 0.5]))


def test_kernel_consistency_constant_scores_give_nan(monkeypatch):
    import fairdep.validation as validation

    dataset = suite_dataset(seed=3, n=120)
    encoded = encode(dataset)
    real = validation.score_features

    def flat(encoded, y, cfg):
        # every feature scores the same under the linear kernel
        scores = real(encoded, y, cfg)
        if cfg.kernel.kind != "linear":
            return scores
        return [replace(fs, score=0.5) for fs in scores]

    monkeypatch.setattr(validation, "score_features", flat)
    kc = kernel_consistency(encoded, dataset.y)
    assert np.isnan(kc.spearman_features)
