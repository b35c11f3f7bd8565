import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairdep import (
    FairnessMeasures,
    GroupConfusion,
    fairness_measures,
    group_confusion,
)
from fairdep.data import Column, EncodedDataset, Schema, dataset_from_arrays, encode
from fairdep.fairness import indicator_columns

from oracles import brute_force_group_confusion, unique_indicator_columns


def test_hand_enumerated_four_instances():
    gc = group_confusion(
        predictions=[1, 1, -1, -1],
        labels=[1, -1, 1, -1],
        group_indicator=[1, 1, 0, 0],
    )
    assert (gc.tp, gc.fp, gc.tn, gc.fn) == (1, 1, 0, 0)
    assert (gc.tp_c, gc.fp_c, gc.tn_c, gc.fn_c) == (0, 0, 1, 1)


def test_perfect_classifier_whole_population_group():
    labels = np.array([1, -1, 1, -1, 1])
    gc = group_confusion(labels, labels, np.ones(5))
    assert gc.fp == gc.fn == 0
    assert gc.n_complement == 0
    assert gc.n_group == 5


def test_empty_group_counts_zero():
    labels = np.array([1, -1])
    gc = group_confusion(labels, labels, np.zeros(2))
    assert gc.n_group == 0
    measures = fairness_measures(gc)
    assert measures.accuracy_equality is None


def test_counts_sum_to_n():
    rng = np.random.default_rng(0)
    pred = np.where(rng.random(50) < 0.5, 1, -1)
    lab = np.where(rng.random(50) < 0.5, 1, -1)
    g = (rng.random(50) < 0.3).astype(int)
    gc = group_confusion(pred, lab, g)
    assert gc.n_group + gc.n_complement == 50
    assert gc.n_group == g.sum()


def test_length_mismatch_rejected():
    with pytest.raises(ValueError):
        group_confusion([1, -1], [1, -1, 1], [1, 0, 1])


def test_non_sign_labels_rejected():
    with pytest.raises(ValueError):
        group_confusion([1, 0], [1, -1], [1, 0])


@settings(max_examples=60, deadline=None)
@given(st.integers(5, 100), st.integers(0, 2**31 - 1))
def test_counts_match_brute_force(n, seed):
    rng = np.random.default_rng(seed)
    pred = np.where(rng.random(n) < 0.5, 1, -1)
    lab = np.where(rng.random(n) < 0.5, 1, -1)
    g = (rng.random(n) < rng.random()).astype(int)
    gc = group_confusion(pred, lab, g)
    ref = brute_force_group_confusion(pred, lab, g)
    assert (gc.tp, gc.tn, gc.fp, gc.fn) == (ref["tp"], ref["tn"], ref["fp"], ref["fn"])
    assert (gc.tp_c, gc.tn_c, gc.fp_c, gc.fn_c) == (
        ref["tp_c"],
        ref["tn_c"],
        ref["fp_c"],
        ref["fn_c"],
    )


# --------------------------------------------------------------- measures


def test_identical_rates_give_zero_measures():
    gc = GroupConfusion(tp=3, tn=3, fp=1, fn=1, tp_c=6, tn_c=6, fp_c=2, fn_c=2)
    m = fairness_measures(gc)
    assert m.predictive_equality == pytest.approx(0.0)
    assert m.equal_opportunity == pytest.approx(0.0)
    assert m.equalized_odds == pytest.approx(0.0)
    assert m.accuracy_equality == pytest.approx(0.0)


def test_tpr_gap_only():
    # group TPR 3/4 vs complement TPR 1/4, equal FPRs
    gc = GroupConfusion(tp=3, fn=1, fp=1, tn=3, tp_c=1, fn_c=3, fp_c=1, tn_c=3)
    m = fairness_measures(gc)
    assert m.equal_opportunity == pytest.approx(0.5)
    assert m.predictive_equality == pytest.approx(0.0)
    assert m.equalized_odds == pytest.approx(0.5)


def test_accuracy_gap():
    # group accuracy 9/10, complement accuracy 12/20
    gc = GroupConfusion(tp=5, tn=4, fp=1, fn=0, tp_c=6, tn_c=6, fp_c=4, fn_c=4)
    m = fairness_measures(gc)
    assert m.accuracy_equality == pytest.approx(0.3)


def test_zero_denominator_marks_undefined_not_zero():
    # group holds no negatives: FPR_g undefined
    gc = GroupConfusion(tp=4, tn=0, fp=0, fn=1, tp_c=2, tn_c=3, fp_c=1, fn_c=1)
    m = fairness_measures(gc)
    assert m.predictive_equality is None
    assert m.equalized_odds is None
    assert m.equal_opportunity is not None


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(0, 40), min_size=8, max_size=8))
def test_equalized_odds_is_exact_sum(cells):
    gc = GroupConfusion(*cells)
    m = fairness_measures(gc)
    if m.predictive_equality is not None and m.equal_opportunity is not None:
        assert m.equalized_odds == m.predictive_equality + m.equal_opportunity
    else:
        assert m.equalized_odds is None


@settings(max_examples=50, deadline=None)
@given(st.integers(10, 80), st.integers(0, 2**31 - 1))
def test_measures_invariant_under_group_relabel(n, seed):
    rng = np.random.default_rng(seed)
    pred = np.where(rng.random(n) < 0.6, 1, -1)
    lab = np.where(rng.random(n) < 0.5, 1, -1)
    g = (rng.random(n) < 0.5).astype(int)
    a = fairness_measures(group_confusion(pred, lab, g))
    b = fairness_measures(group_confusion(pred, lab, 1 - g))
    for key in ("f_pe", "f_ep", "f_eo", "f_oae"):
        va, vb = a.as_dict()[key], b.as_dict()[key]
        if va is None or vb is None:
            assert va is None and vb is None
        else:
            assert va == pytest.approx(vb, abs=1e-12)


def test_measure_ranges():
    rng = np.random.default_rng(1)
    for _ in range(50):
        pred = np.where(rng.random(30) < 0.5, 1, -1)
        lab = np.where(rng.random(30) < 0.5, 1, -1)
        g = (rng.random(30) < 0.5).astype(int)
        m = fairness_measures(group_confusion(pred, lab, g))
        if m.predictive_equality is not None:
            assert 0 <= m.predictive_equality <= 1
        if m.equal_opportunity is not None:
            assert 0 <= m.equal_opportunity <= 1
        if m.equalized_odds is not None:
            assert 0 <= m.equalized_odds <= 2
        if m.accuracy_equality is not None:
            assert 0 <= m.accuracy_equality <= 1


# ------------------------------------------------------ one group vs the rest


def three_way_encoded():
    schema = Schema(
        columns=(Column("grp", "categorical", categories=("a", "b", "c")),),
        label="y",
        positive="1",
    )
    rng = np.random.default_rng(2)
    values = rng.choice(np.array(["a", "b", "c"], dtype=object), size=30)
    y = np.where(rng.random(30) < 0.5, 1, -1)
    ds = dataset_from_arrays(schema, [values], y)
    return encode(ds), y


def test_group_confusion_three_categories():
    enc, y = three_way_encoded()
    pred = -y
    results = [fairness_measures(group_confusion(pred, y, enc.matrix[:, i])) for i in range(3)]
    assert len(results) == 3
    for i, m in enumerate(results):
        cells = brute_force_group_confusion(pred, y, enc.matrix[:, i])
        assert m == fairness_measures(GroupConfusion(**cells))


def test_group_confusion_binary_parent_complement_symmetry():
    schema = Schema(columns=(Column("sex", "binary", categories=("f", "m")),), label="y", positive="1")
    rng = np.random.default_rng(3)
    raw = np.where(rng.random(40) < 0.5, "m", "f").astype(object)
    y = np.where(rng.random(40) < 0.5, 1, -1)
    ds = dataset_from_arrays(schema, [raw], y)
    enc = encode(ds)
    pred = np.where(rng.random(40) < 0.7, y, -y)
    m_ind = fairness_measures(group_confusion(pred, y, enc.matrix[:, 0]))
    flipped = fairness_measures(group_confusion(pred, y, 1 - enc.matrix[:, 0]))
    for key, value in m_ind.as_dict().items():
        other = flipped.as_dict()[key]
        if value is None:
            assert other is None
        else:
            assert value == pytest.approx(other, abs=1e-12)


def test_group_confusion_degenerate_everyone_in_group():
    schema = Schema(columns=(Column("x", "numeric"),), label="y", positive="1")
    y = np.array([1, -1, 1, -1])
    ds = dataset_from_arrays(schema, [np.ones(4)], y)
    enc = encode(ds)
    m = fairness_measures(group_confusion(y, y, enc.matrix[:, 0]))
    assert all(v is None for v in m.as_dict().values())


def test_group_confusion_rejects_non_indicator():
    schema = Schema(columns=(Column("x", "numeric"),), label="y", positive="1")
    y = np.array([1, -1, 1, -1])
    ds = dataset_from_arrays(schema, [np.array([0.0, 0.5, 1.0, 2.0])], y)
    enc = encode(ds)
    with pytest.raises(ValueError, match="0/1"):
        group_confusion(y, y, enc.matrix[:, 0])


def test_indicator_columns_filter(toy_dataset):
    enc = encode(toy_dataset)
    # ncrimes column holds 0/1/2 values and is excluded
    assert indicator_columns(enc) == [0, 1, 3, 4, 5]


COLUMN_KINDS = {
    "indicator": lambda rng, n: rng.integers(0, 2, n).astype(float),
    "all_zero": lambda rng, n: np.zeros(n),
    "all_one": lambda rng, n: np.ones(n),
    "zero_one_two": lambda rng, n: rng.integers(0, 3, n).astype(float),
    "float": lambda rng, n: rng.random(n),
    "indicator_and_half": lambda rng, n: np.where(rng.random(n) < 0.2, 0.5, rng.integers(0, 2, n)),
    "negative_zero": lambda rng, n: np.where(rng.random(n) < 0.5, -0.0, 1.0),
    "all_negative_zero": lambda rng, n: np.full(n, -0.0),
}


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.sampled_from(sorted(COLUMN_KINDS)), min_size=1, max_size=8),
    st.integers(1, 30),
    st.integers(0, 2**31 - 1),
)
def test_indicator_columns_match_per_column_unique(kinds, n, seed):
    rng = np.random.default_rng(seed)
    matrix = np.column_stack([COLUMN_KINDS[kind](rng, n) for kind in kinds])
    # indicator_columns reads only the matrix
    enc = EncodedDataset(
        schema=None, matrix=matrix, y=np.ones(n), subfeatures=(), parent_columns=()
    )
    assert indicator_columns(enc) == unique_indicator_columns(matrix)
