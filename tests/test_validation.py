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
    scores = score_features(encoded)
    report = detect(scores, config={"kernel": "rbf"})
    vrep = validate(
        encoded,
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
    sub_scores = {
        sub: d for fs in report.scores for sub, d in zip(fs.subfeature_names, fs.subfeature_scores)
    }
    for r in vrep.records:
        assert r.nocco == sub_scores[r.name]


@pytest.mark.parametrize("change", ["reordered", "dropped"])
def test_validate_rejects_another_datasets_report(validated, change):
    # a report naming every indicator, in another column order, used to be
    # accepted and read by name
    dataset, encoded, _, _ = validated
    keep = list(reversed(range(dataset.m))) if change == "reordered" else list(range(1, dataset.m))
    other = dataset_from_arrays(
        Schema(
            columns=tuple(dataset.schema.columns[j] for j in keep),
            label=dataset.schema.label,
            positive=dataset.schema.positive,
        ),
        [dataset.features[j] for j in keep],
        dataset.y,
    )
    report = detect(score_features(encode(other)))
    with pytest.raises(ValueError, match="must come from the same encoded dataset"):
        validate(encoded, report, folds=3, forest=ForestConfig(n_trees=2, seed=0))


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
    report = detect(score_features(encoded), config={})
    vrep = validate(encoded, report, folds=4, forest=ForestConfig(n_trees=10, seed=0), seed=0)
    rec = next(r for r in vrep.records if r.name.startswith("always"))
    assert all(rec.means[k] is None for k in rec.means)
    assert all(rec.undefined[k] == 4 for k in rec.undefined)


# ---------------------------------------------------- kernel consistency


def test_kernel_consistency_on_planted_suite():
    dataset = suite_dataset(seed=2, n=400)
    encoded = encode(dataset)
    kc = kernel_consistency(encoded)
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
    kc = kernel_consistency(encode(ds))
    assert kc.sensitive_rbf == kc.sensitive_linear


def test_kernel_consistency_reports_argmax_flips(monkeypatch):
    import fairdep.validation as validation

    cats = {"race": ("a", "b", "c"), "edu": ("p", "q", "r"), "job": ("s", "t")}
    schema = Schema(
        columns=tuple(Column(name, "categorical", categories=c) for name, c in cats.items()),
        label="y",
        positive="1",
    )
    rng = np.random.default_rng(9)
    features = [rng.choice(c, 60).astype(object) for c in cats.values()]
    encoded = encode(dataset_from_arrays(schema, features, np.where(np.arange(60) % 2, 1, -1)))
    # subfeature scores per kernel: each feature's top group differs between
    # them, and job's top score is not positive under either
    planted = {
        "rbf": {"race": (0.4, 0.3, 0.1), "edu": (0.9, 0.1, 0.2), "job": (-2e-9, -3e-9)},
        "linear": {"race": (0.2, 0.5, 0.1), "edu": (0.3, 0.35, 0.1), "job": (-4e-9, -1e-9)},
    }
    real = validation.score_features

    def plant(encoded, cfg):
        out = []
        for fs in real(encoded, cfg):
            subs = planted[cfg.kernel.kind][fs.name]
            top = int(np.argmax(subs))
            out.append(replace(fs, subfeature_scores=subs, score=subs[top], argmax=top))
        return out

    monkeypatch.setattr(validation, "score_features", plant)
    kc = kernel_consistency(encoded)
    flips = {f.feature: f for f in kc.argmax_flips}
    assert [f.feature for f in kc.argmax_flips] == ["race", "edu", "job"]
    assert [(f.group_rbf, f.group_linear) for f in flips.values()] == [
        ("race_a", "race_b"), ("edu_p", "edu_q"), ("job_s", "job_t"),
    ]
    # the larger of the kernels' (top - other) / top: linear's for race, rbf's for edu
    assert flips["race"].relative_gap == pytest.approx((0.5 - 0.2) / 0.5)
    assert flips["edu"].relative_gap == pytest.approx((0.9 - 0.1) / 0.9)
    assert flips["job"].relative_gap == 0.0  # top <= 0 under both kernels
    assert kc.to_dict()["argmax_flips"][0] == {
        "feature": "race", "group_rbf": "race_a", "group_linear": "race_b",
        "relative_gap": flips["race"].relative_gap,
    }


# ---------------------------------------------------- spearman


def test_cli_import_leaves_scipy_stats_unloaded():
    # nor the scipy.linalg package: dependence loads only its LAPACK module;
    # nor concurrent.futures and the logging it imports: no command starts an executor
    modules = ("scipy.stats", "scipy.linalg", "concurrent.futures", "logging")
    code = f"import sys, fairdep.cli; print(*(m for m in {modules!r} if m in sys.modules))"
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == [], f"import fairdep.cli loaded {done.stdout}"


# the package's public names, by the module that defines each
PACKAGE_EXPORTS = {
    "data": "Column Dataset EncodedDataset Schema Subfeature encode load_dataset standardize_numeric",
    "dependence": "DependenceConfig hsic nocco regularized_operator",
    "detector": "DependenceReport FeatureScore audit_dataset detect score_features subsample",
    "errors": "DataError FairdepError NumericsError SchemaError WorkerError",
    "fairness": "FairnessMeasures GroupConfusion fairness_measures group_confusion",
    "forest": "ForestConfig RandomForest",
    "kernels": "LINEAR RBF KernelSpec center gram",
    "synth": "PlantedFeature SynthSpec generate",
    "validation": "KernelConsistency ValidationReport cross_validate kernel_consistency validate",
}


def test_package_exports_resolve():
    import fairdep

    exported = {name: module for module, names in PACKAGE_EXPORTS.items() for name in names.split()}
    assert fairdep.__all__ == sorted(exported)
    for name, module in exported.items():
        assert getattr(fairdep, name) is getattr(getattr(fairdep, module), name), name


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

    def flat(encoded, cfg):
        # every feature scores the same under the linear kernel
        scores = real(encoded, cfg)
        if cfg.kernel.kind != "linear":
            return scores
        return [replace(fs, score=0.5) for fs in scores]

    monkeypatch.setattr(validation, "score_features", flat)
    kc = kernel_consistency(encoded)
    assert np.isnan(kc.spearman_features)
