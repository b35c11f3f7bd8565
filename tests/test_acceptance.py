"""Acceptance gate: one test per release criterion, at pinned tolerances.

Each test prints a `[criterion N] PASS` line on success so a plain
`pytest tests/test_acceptance.py -v -s` reads as a checklist. Criteria
that compare against the public benchmark datasets run only when the
CSVs are present (see data/README.md for fetch instructions); they skip
loudly otherwise.
"""

import os
import time
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

from fairdep import (
    DependenceConfig,
    ForestConfig,
    KernelSpec,
    Schema,
    encode,
    fairness_measures,
    gram,
    group_confusion,
    hsic,
    load_dataset,
    nocco,
)
from fairdep.data import dataset_from_arrays
from fairdep.dependence import regularized_operator
from fairdep.detector import audit_dataset, detect, score_features, subsample
from fairdep.fairness import GroupConfusion
from fairdep.kernels import LINEAR, RBF
from fairdep.synth import (
    PlantedFeature,
    SynthSpec,
    default_detector_spec,
    default_validation_spec,
    generate,
)
from fairdep.validation import kernel_consistency, validate

from conftest import TOY_EXTENDED
from oracles import brute_force_group_confusion, naive_nocco

EPS = 1e-6

REPO = Path(__file__).resolve().parent.parent
DATA_DIR = Path(os.environ.get("FAIRDEP_DATA_DIR", REPO / "data" / "raw"))
SCHEMA_DIR = REPO / "data" / "schemas"


def _passed(num: int, text: str):
    print(f"\n[criterion {num}] PASS - {text}")


def _load_benchmark(name: str):
    csv_path = DATA_DIR / f"{name}.csv"
    if not csv_path.exists():
        pytest.skip(
            f"{csv_path} not present; fetch it per data/README.md "
            "(benchmark CSVs are not redistributed)"
        )
    schema = Schema.from_json(SCHEMA_DIR / f"{name}.json")
    return load_dataset(csv_path, schema)


def _random_pair(rng, n):
    """Pair with randomized coupling strength.

    Noise levels stay at or below the signal so the dependence values
    sit well away from zero, keeping the relative comparison against
    the oracle meaningful.
    """
    x = rng.standard_normal(n)
    sigma = float(rng.choice([0.1, 0.5, 1.0]))
    y = x + sigma * rng.standard_normal(n)
    return x, y


def test_criterion_1_oracle_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(101)
    worst = 0.0
    for trial in range(50):
        n = (10, 30, 60)[trial % 3]
        x, y = _random_pair(rng, n)
        for kind in (RBF, LINEAR):
            fast = nocco(x, y, DependenceConfig(KernelSpec(kind), EPS))
            slow = naive_nocco(x, y, kind, EPS)
            worst = max(worst, abs(fast - slow) / abs(slow))
    elapsed = time.perf_counter() - start
    assert worst <= 1e-8, f"worst relative deviation {worst:.3e}"
    assert elapsed < 5.0, f"took {elapsed:.2f}s"
    _passed(1, f"solve path matches dense-inverse oracle (worst rel {worst:.2e}, {elapsed:.2f}s)")


def test_criterion_2_closed_form():
    worst = 0.0
    target = (1.0 / (1.0 + EPS)) ** 2
    for n in (2, 10, 100, 500, 1000):
        y = np.ones(n)
        y[: n // 2] = -1
        value = nocco(y, y, DependenceConfig(KernelSpec(LINEAR), EPS))
        worst = max(worst, abs(value - target))
    assert worst <= 1e-10, f"worst absolute deviation {worst:.3e}"
    _passed(2, f"balanced-label closed form (1/(1+eps))^2 (worst abs {worst:.2e})")


def test_criterion_3_degeneracy_and_complement():
    rng = np.random.default_rng(103)
    y = np.where(rng.random(200) < 0.5, 1.0, -1.0)
    const = np.full(200, 4.2)
    assert abs(hsic(const, y)) <= 1e-12
    for kind in (RBF, LINEAR):
        cfg = DependenceConfig(KernelSpec(kind), EPS)
        assert abs(nocco(const, y, cfg)) <= 1e-12
        for _ in range(20):
            b = (rng.random(80) < rng.uniform(0.2, 0.8)).astype(float)
            lhs = nocco(b, y[:80], cfg)
            rhs = nocco(1.0 - b, y[:80], cfg)
            assert abs(lhs - rhs) <= 1e-10 * max(abs(lhs), abs(rhs), 1e-30)
    _passed(3, "constant columns score zero; complements score identically")


def test_criterion_4_spectral_bounds():
    rng = np.random.default_rng(104)
    for kind in (RBF, LINEAR):
        cfg = DependenceConfig(KernelSpec(kind), EPS)
        R = regularized_operator(gram(rng.standard_normal(60), cfg.kernel), EPS)
        for _ in range(20):
            v = rng.standard_normal(60)
            q = float(v @ R @ v) / float(v @ v)
            assert -1e-9 <= q <= 1.0 + 1e-9
    for _ in range(50):
        n = 50
        x, y = _random_pair(rng, n)
        for kind in (RBF, LINEAR):
            cfg = DependenceConfig(KernelSpec(kind), EPS)
            rx = regularized_operator(gram(x, cfg.kernel), EPS)
            ry = regularized_operator(gram(y, cfg.kernel), EPS)
            assert nocco(x, y, cfg) <= min(np.trace(rx), np.trace(ry)) + 1e-9
    _passed(4, "Rayleigh quotients in [0, 1]; trace bound holds")


def test_criterion_5_detector_monotonicity():
    start = time.perf_counter()
    for seed in range(10):
        dataset, _ = generate(default_detector_spec(seed=seed))
        scores = score_features(encode(dataset))
        planted = [s for s in scores if s.name.startswith("planted")]
        values = [s.score for s in planted]
        assert all(a > b for a, b in zip(values, values[1:])), (
            f"seed {seed}: planted scores not strictly decreasing: {values}"
        )
        top = max(scores, key=lambda s: s.score)
        assert top.name == "planted0_p00", f"seed {seed}: {top.name} outranked p=0"
        p25 = next(s.score for s in planted if s.name == "planted2_p25")
        noise = [s.score for s in scores if s.name.startswith("noise")]
        assert max(noise) < p25, f"seed {seed}: noise scores reach the p=0.25 feature"
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0, f"took {elapsed:.1f}s"
    _passed(5, f"planted scores strictly decrease in corruption, p=0 first ({elapsed:.1f}s)")


@pytest.fixture(scope="module")
def validated_suite():
    """Full pipeline on the planted-signal suite (shared by criteria 6/8)."""
    spec = default_validation_spec(seed=7)
    dataset, _ = generate(spec)
    encoded = encode(dataset)
    start = time.perf_counter()
    scores = score_features(encoded)
    report = detect(scores, config={"kernel": RBF})
    vrep = validate(
        encoded,
        report,
        folds=10,
        forest=ForestConfig(n_trees=100, seed=7),
        seed=7,
    )
    elapsed = time.perf_counter() - start
    return encoded, dataset.y, report, vrep, elapsed


def test_criterion_6_hypothesis_reproduction(validated_suite):
    _, _, _, vrep, elapsed = validated_suite
    assert elapsed < 600.0, f"took {elapsed:.0f}s"
    for key, rho in vrep.spearman.items():
        assert rho is not None and rho >= 0.8, f"spearman[{key}] = {rho}"
    pretty = {k: round(v, 3) for k, v in vrep.spearman.items()}
    _passed(6, f"dependence ranks disparities: spearman {pretty} ({elapsed:.0f}s)")


def test_criterion_7_qualitative_benchmarks():
    checked = []

    compas = _load_benchmark("compas")
    _, report = audit_dataset(compas, max_n=2000, seed=42)
    t = report.threshold
    by_name = {s.name: s for s in report.scores}
    sub_scores = {
        sub: d for s in report.scores for sub, d in zip(s.subfeature_names, s.subfeature_scores)
    }
    assert by_name["sex"].score < t, "sex should fall below the median"
    assert sub_scores["race_African-American"] >= t
    assert sub_scores["age_cat_Greater than 45"] >= t
    assert "race" in report.sensitive_features
    assert "age_cat" in report.sensitive_features
    assert "sex" not in report.sensitive_features
    checked.append("compas")

    taiwan = _load_benchmark("taiwan_credit")
    _, report = audit_dataset(taiwan, max_n=2000, seed=42)
    t = report.threshold
    by_name = {s.name: s for s in report.scores}
    for feature in ("SEX", "EDUCATION", "MARRIAGE"):
        assert by_name[feature].score < t, f"{feature} should fall below the median"
    checked.append("taiwan_credit")

    lsac = _load_benchmark("lsac")
    _, report = audit_dataset(lsac, max_n=2000, seed=42)
    t = report.threshold
    by_name = {s.name: s for s in report.scores}
    assert by_name["race1"].score >= t, "race should clear the median"
    assert by_name["male"].score < t, "male should fall below the median"
    checked.append("lsac")

    _passed(7, f"qualitative ordering reproduced on {', '.join(checked)}")


def _assert_consistency(kc):
    assert kc.spearman_features >= 0.9, f"kernel spearman {kc.spearman_features}"
    assert kc.only_rbf == () and kc.only_linear == (), (
        f"sensitive sets differ: rbf-only {kc.only_rbf}, linear-only {kc.only_linear}"
    )
    for flip in kc.argmax_flips:
        assert flip.relative_gap < 0.05, f"non-near-tie flip {flip}"


def test_criterion_8_kernel_consistency(validated_suite):
    from dataclasses import replace

    base = default_validation_spec(seed=7)
    for seed in range(10):
        spec = replace(base, n=1000, seed=seed)
        dataset, _ = generate(spec)
        kc = kernel_consistency(encode(dataset))
        _assert_consistency(kc)

    encoded, _, _, _, _ = validated_suite
    kc_full = kernel_consistency(encoded)
    _assert_consistency(kc_full)

    compas_path = DATA_DIR / "compas.csv"
    note = "synthetic suite only (COMPAS csv absent)"
    if compas_path.exists():
        compas = load_dataset(compas_path, Schema.from_json(SCHEMA_DIR / "compas.json"))
        small = subsample(compas, max_n=2000, seed=42)
        kc_compas = kernel_consistency(encode(small))
        _assert_consistency(kc_compas)
        note = "synthetic suite and COMPAS"

    _passed(8, f"kernels agree (spearman >= 0.9, no set drift) on {note}")


def test_criterion_9_fairness_arithmetic():
    rng = np.random.default_rng(109)
    for _ in range(100):
        gc = GroupConfusion(*(int(v) for v in rng.integers(0, 50, size=8)))
        m = fairness_measures(gc)
        if m.predictive_equality is not None and m.equal_opportunity is not None:
            assert m.equalized_odds == m.predictive_equality + m.equal_opportunity
    for _ in range(100):
        n = int(rng.integers(2, 101))
        pred = np.where(rng.random(n) < 0.5, 1, -1)
        lab = np.where(rng.random(n) < 0.5, 1, -1)
        g = (rng.random(n) < rng.random()).astype(int)
        gc = group_confusion(pred, lab, g)
        ref = brute_force_group_confusion(pred, lab, g)
        assert (gc.tp, gc.tn, gc.fp, gc.fn, gc.tp_c, gc.tn_c, gc.fp_c, gc.fn_c) == (
            ref["tp"], ref["tn"], ref["fp"], ref["fn"],
            ref["tp_c"], ref["tn_c"], ref["fp_c"], ref["fn_c"],
        )
    _passed(9, "equalized odds = sum of parts; counts match per-row oracle")


def test_criterion_10_encoding(toy_dataset):
    enc = encode(toy_dataset)
    np.testing.assert_array_equal(enc.matrix, TOY_EXTENDED)

    def check_one_hot(encoded):
        for j, col in enumerate(encoded.schema.columns):
            if col.kind == "categorical":
                block = encoded.matrix[:, list(encoded.parent_columns[j])]
                np.testing.assert_array_equal(block.sum(axis=1), np.ones(encoded.n))

    check_one_hot(enc)
    datasets = ["toy", "detector suite", "validation suite"]
    check_one_hot(encode(generate(default_detector_spec(seed=0))[0]))
    check_one_hot(encode(generate(default_validation_spec(seed=7))[0]))
    for name in ("compas", "adult", "lsac", "taiwan_credit"):
        csv_path = DATA_DIR / f"{name}.csv"
        if not csv_path.exists():
            continue
        ds = load_dataset(csv_path, Schema.from_json(SCHEMA_DIR / f"{name}.json"))
        check_one_hot(encode(subsample(ds, max_n=2000, seed=0)))
        datasets.append(name)
    _passed(10, f"toy table encodes exactly; one-hot rows sum to 1 on {', '.join(datasets)}")
