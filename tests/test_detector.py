import numpy as np
import pytest

from fairdep import (
    Column,
    DependenceConfig,
    KernelSpec,
    Schema,
    detect,
    encode,
    score_features,
    subsample,
)
from fairdep.data import dataset_from_arrays
from fairdep.detector import FeatureScore, audit_dataset, is_candidate
from fairdep.kernels import LINEAR, RBF
from fairdep.synth import PlantedFeature, SynthSpec, generate


def small_planted_dataset(seed=0, n=120):
    spec = SynthSpec(
        n=n,
        planted=(PlantedFeature(0.0), PlantedFeature(0.3)),
        noise_binary=1,
        noise_numeric=1,
        balance=0.5,
        seed=seed,
    )
    return generate(spec)


def fs(name, score, subs=None, candidate=True):
    subs = subs or ((name + "_1", score),)
    names, values = zip(*subs)
    return FeatureScore(
        index=0,
        name=name,
        kind="binary",
        candidate=candidate,
        subfeature_names=names,
        subfeature_scores=values,
        score=max(values),
        argmax=int(np.argmax(values)),
    )


# ------------------------------------------------------------- scoring


def test_label_equal_feature_scores_highest():
    dataset, _ = small_planted_dataset()
    encoded = encode(dataset)
    scores = score_features(encoded, dataset.y)
    by_name = {s.name: s.score for s in scores}
    assert max(by_name, key=by_name.get) == "planted0_p00"


def test_constant_subfeature_scores_zero():
    schema = Schema(
        columns=(
            Column("flat", "numeric"),
            Column("real", "binary", categories=("0", "1")),
        ),
        label="y",
        positive="1",
    )
    rng = np.random.default_rng(0)
    y = np.where(rng.random(40) < 0.5, 1, -1)
    ds = dataset_from_arrays(
        schema,
        [np.full(40, 3.0), np.array(["1" if v == 1 else "0" for v in y], dtype=object)],
        y,
    )
    scores = score_features(encode(ds), y)
    assert scores[0].score == pytest.approx(0.0, abs=1e-12)
    assert scores[1].score > 0.9


def test_categorical_scoring_takes_max_over_subfeatures():
    rng = np.random.default_rng(1)
    n = 90
    y = np.where(rng.random(n) < 0.5, 1, -1)
    # three-way split where one category tracks the positive class
    cat = np.where(y == 1, "hit", np.where(rng.random(n) < 0.5, "a", "b")).astype(object)
    schema = Schema(
        columns=(Column("grp", "categorical", categories=("hit", "a", "b")),),
        label="y",
        positive="1",
    )
    ds = dataset_from_arrays(schema, [cat], y)
    (score,) = score_features(encode(ds), y)
    assert score.subfeature_names[score.argmax] == "grp_hit"
    assert score.score == max(score.subfeature_scores)
    assert len(score.subfeature_scores) == 3


def test_binary_feature_scored_once_and_coding_invariant():
    rng = np.random.default_rng(2)
    n = 60
    y = np.where(rng.random(n) < 0.5, 1, -1)
    raw = np.where(rng.random(n) < 0.4, "m", "f").astype(object)
    for kind in (RBF, LINEAR):
        scores = []
        for order in (("m", "f"), ("f", "m")):
            schema = Schema(
                columns=(
                    Column("sex", "binary", categories=order),
                    Column("grp", "categorical", categories=order),
                ),
                label="y",
                positive="1",
            )
            ds = dataset_from_arrays(schema, [raw, raw], y)
            binary, categorical = score_features(encode(ds), y, DependenceConfig(KernelSpec(kind)))
            scores.append(binary.score)
            # a two-category feature's indicators are complements
            assert len(categorical.subfeature_scores) == 2
            assert categorical.subfeature_scores[0] == categorical.subfeature_scores[1] > 0, kind
            assert categorical.argmax == 0
            assert categorical.score == binary.score, kind
        # the two-valued closed form is symmetric in the two values, so
        # both codings give the same bits
        assert scores[0] == scores[1] > 0, kind


def test_score_features_annotates_failing_column():
    schema = Schema(columns=(Column("bad", "numeric"),), label="y", positive="1")
    ds = dataset_from_arrays(
        schema, [np.array([1.0, 2.0, 3.0, 4.0])], np.array([1, -1, 1, -1])
    )
    enc = encode(ds)
    broken = enc.matrix.copy()
    broken[1, 0] = np.inf
    broken.setflags(write=False)
    from dataclasses import replace

    enc = replace(enc, matrix=broken)
    with pytest.raises(Exception, match="bad"):
        score_features(enc, ds.y)


def test_scores_are_nonnegative():
    dataset, _ = small_planted_dataset(seed=3)
    scores = score_features(encode(dataset), dataset.y)
    assert all(s.score >= 0 for s in scores)
    assert all(min(s.subfeature_scores) >= 0 for s in scores)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("kind", [RBF, LINEAR])
def test_single_class_labels_score_zero(kind):
    dataset, _ = small_planted_dataset(seed=4)
    scores = score_features(encode(dataset), np.ones(dataset.n), DependenceConfig(KernelSpec(kind)))
    assert all(d == 0.0 for s in scores for d in s.subfeature_scores)


@pytest.mark.parametrize("kind", [RBF, LINEAR])
def test_scoring_memory_stays_within_four_grams(kind):
    # the per-column path holds at most a few n x n arrays at once
    import tracemalloc

    n = 600
    dataset, _ = small_planted_dataset(seed=6, n=n)
    encoded = encode(dataset)
    config = DependenceConfig(KernelSpec(kind))
    tracemalloc.start()
    try:
        score_features(encoded, dataset.y, config)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 4 * 8 * n * n


# ------------------------------------------------------------ detection


def test_detect_median_of_three():
    report = detect([fs("a", 0.1), fs("b", 0.2), fs("c", 0.9)])
    assert report.threshold == pytest.approx(0.2)
    assert report.sensitive_features == ("b", "c")


def test_detect_even_count_uses_middle_mean():
    report = detect([fs("a", 0.1), fs("b", 0.2), fs("c", 0.4), fs("d", 0.9)])
    assert report.threshold == pytest.approx(0.3)
    assert report.sensitive_features == ("c", "d")


def test_detect_all_equal_scores_selects_every_candidate():
    report = detect([fs("a", 0.5), fs("b", 0.5), fs("c", 0.5)])
    assert report.sensitive_features == ("a", "b", "c")


def test_detect_median_includes_non_candidates():
    # the non-candidate's score moves the median even though it cannot be flagged
    report = detect([fs("a", 0.9, candidate=False), fs("b", 0.5), fs("c", 0.1)])
    assert report.threshold == pytest.approx(0.5)
    assert report.sensitive_features == ("b",)


def test_detect_fixed_threshold():
    report = detect([fs("a", 0.4), fs("b", 0.6)], threshold=0.5)
    assert report.sensitive_features == ("b",)
    assert report.config["threshold_mode"] == "fixed"


@pytest.mark.parametrize("threshold", [np.nan, np.inf, -np.inf])
def test_detect_rejects_nonfinite_fixed_threshold(threshold):
    # nan and inf would flag nothing, -inf every candidate, and none is valid JSON
    with pytest.raises(ValueError, match="finite"):
        detect([fs("a", 0.4), fs("b", 0.6)], threshold=threshold)


def test_detect_order_invariant_as_sets():
    scores = [fs("a", 0.1), fs("b", 0.5), fs("c", 0.9)]
    fwd = detect(scores)
    rev = detect(list(reversed(scores)))
    assert set(fwd.sensitive_features) == set(rev.sensitive_features)
    assert set(fwd.sensitive_groups) == set(rev.sensitive_groups)
    assert fwd.threshold == rev.threshold


def test_median_split_cardinality():
    # distinct scores, every feature a candidate: exactly ceil(m/2) flagged
    import math

    rng = np.random.default_rng(7)
    for m in (3, 4, 7, 10, 15):
        values = rng.permutation(np.linspace(0.01, 0.99, m))
        report = detect([fs(f"f{i}", float(v)) for i, v in enumerate(values)])
        assert len(report.sensitive_features) == math.ceil(m / 2)


def test_sensitive_groups_hold_argmax_subfeature():
    score = fs("race", 0.0, subs=(("race_a", 0.2), ("race_b", 0.7), ("race_c", 0.1)))
    report = detect([score], threshold=0.5)
    assert report.sensitive_groups == ("race_b",)


def test_candidacy_defaults():
    assert is_candidate("binary", None)
    assert is_candidate("categorical", None)
    assert not is_candidate("numeric", None)
    assert is_candidate("numeric", True)
    assert not is_candidate("binary", False)


def test_report_json_shape(tmp_path):
    report = detect([fs("a", 0.3), fs("b", 0.8)])
    path = tmp_path / "report.json"
    report.to_json(path)
    import json

    doc = json.loads(path.read_text())
    assert set(doc) == {
        "config",
        "scores",
        "threshold",
        "sensitive_features",
        "sensitive_groups",
    }
    assert doc["scores"][0]["subfeatures"][0].keys() == {"name", "d"}
    assert "threshold" in doc["config"]


# ----------------------------------------------------------- subsample


def _labels(n_pos, n_neg):
    return np.array([1] * n_pos + [-1] * n_neg)


def make_dataset(n_pos, n_neg, seed=0):
    rng = np.random.default_rng(seed)
    y = _labels(n_pos, n_neg)
    schema = Schema(columns=(Column("x", "numeric"),), label="y", positive="1")
    return dataset_from_arrays(schema, [rng.standard_normal(y.size)], y)


def test_subsample_identity_when_small():
    ds = make_dataset(50, 50)
    assert subsample(ds, max_n=200) is ds


def test_subsample_preserves_balance_within_one_row():
    ds = make_dataset(500, 500)
    out = subsample(ds, max_n=500, seed=1)
    assert out.n == 500
    n_pos = int((out.y == 1).sum())
    assert abs(n_pos - 250) <= 1


def test_subsample_deterministic():
    ds = make_dataset(400, 600)
    a = subsample(ds, max_n=300, seed=9)
    b = subsample(ds, max_n=300, seed=9)
    np.testing.assert_array_equal(a.features[0], b.features[0])
    np.testing.assert_array_equal(a.y, b.y)


def test_subsample_skewed_labels_keeps_both_classes():
    ds = make_dataset(990, 10)
    out = subsample(ds, max_n=100, seed=2)
    assert out.n == 100
    assert (out.y == -1).sum() >= 1


def test_undeclared_binary_pair_survives_every_subsample():
    # one "yes" in 3,000 rows: many 2,000-row draws miss it, and the pair
    # must still come from the whole column
    n = 3000
    rng = np.random.default_rng(0)
    y = np.where(rng.random(n) < 0.5, 1, -1)
    flag = np.full(n, "no", dtype=object)
    flag[1234] = "yes"
    schema = Schema(
        columns=(Column("flag", "binary"), Column("x", "numeric")), label="y", positive="1"
    )
    ds = dataset_from_arrays(schema, [flag, y + rng.standard_normal(n)], y)
    assert ds.schema.columns[0].categories == ("no", "yes")
    missed = 0
    for seed in range(10):
        encoded, _, _ = audit_dataset(ds, max_n=2000, seed=seed)
        assert encoded.schema.columns[0].categories == ("no", "yes")
        assert encoded.subfeatures[0].name == "flag_yes"
        missed += not encoded.column(0).any()
    assert missed > 0


# ------------------------------------------------------- planted sweep


def test_planted_scores_decrease_with_corruption():
    corruptions = (0.0, 0.1, 0.25, 0.5)
    for seed in range(3):
        spec = SynthSpec(
            n=500,
            planted=tuple(PlantedFeature(p) for p in corruptions),
            noise_binary=1,
            noise_numeric=2,
            balance=0.5,
            seed=seed,
        )
        dataset, _ = generate(spec)
        scores = score_features(encode(dataset), dataset.y)
        planted = [s.score for s in scores if s.name.startswith("planted")]
        assert all(a > b for a, b in zip(planted, planted[1:]))


def test_audit_dataset_end_to_end():
    dataset, _ = small_planted_dataset(seed=5, n=200)
    encoded, y, report = audit_dataset(dataset, max_n=150, seed=0)
    assert encoded.n == 150 and y.size == 150
    assert "planted0_p00" in report.sensitive_features
    assert report.config["subsampled_to"] == 150
    assert report.config["kernel"] == "rbf"
