import csv
import io
import json
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairdep import Column, DataError, Dataset, Schema, SchemaError, encode, load_dataset
from fairdep import data
from fairdep.data import (
    dataset_from_arrays,
    standardize_numeric,
    write_encoded_csv,
)

from conftest import TOY_EXTENDED
from oracles import rowwise_load_dataset


# ---------------------------------------------------------------- schema


def test_schema_rejects_duplicate_names():
    with pytest.raises(SchemaError):
        Schema(
            columns=(Column("a", "numeric"), Column("a", "numeric")),
            label="y",
            positive="1",
        )


def test_schema_rejects_label_feature_collision():
    with pytest.raises(SchemaError):
        Schema(columns=(Column("y", "numeric"),), label="y", positive="1")


def test_categorical_needs_categories():
    with pytest.raises(SchemaError):
        Column("c", "categorical")
    with pytest.raises(SchemaError):
        Column("c", "categorical", categories=("only",))


def test_bins_must_match_categories():
    with pytest.raises(SchemaError):
        Column("age", "categorical", categories=("a", "b"), bins=(25.0, 60.0))
    col = Column("age", "categorical", categories=("<25", "25-60", ">60"), bins=(25.0, 60.0))
    assert col.bins == (25.0, 60.0)


def test_schema_json_round_trip(toy_schema, tmp_path):
    path = tmp_path / "schema.json"
    path.write_text(json.dumps(toy_schema.to_dict()), encoding="utf-8")
    loaded = Schema.from_json(path)
    assert loaded == toy_schema


def test_schema_from_malformed_document():
    with pytest.raises(SchemaError):
        Schema.from_dict({"columns": [{"name": "a"}], "label": {"name": "y", "positive": "1"}})


# ----------------------------------------------------------------- load


def test_load_toy_csv(toy_csv, toy_schema):
    ds = load_dataset(toy_csv, toy_schema)
    assert ds.n == 3 and ds.m == 3
    np.testing.assert_array_equal(ds.y, [1, -1, -1])
    assert ds.dropped_rows == 0


def test_load_drops_rows_with_missing_cells(toy_schema):
    csv_text = (
        "gender,ncrimes,age,recid\n"
        "male,2,30-60,yes\n"
        "female,,<30,no\n"
        "female,1,>60,no\n"
        "male,3,<30,yes\n"
    )
    ds = load_dataset(io.StringIO(csv_text), toy_schema)
    assert ds.n == 3
    assert ds.dropped_rows == 1


def test_load_unknown_column(toy_schema):
    with pytest.raises(DataError, match="unknown column"):
        load_dataset(io.StringIO("gender,ncrimes,recid\nmale,1,yes\n"), toy_schema)


def test_load_undeclared_category(toy_schema):
    csv_text = "gender,ncrimes,age,recid\nmale,2,30-60,yes\nother,0,<30,no\n"
    with pytest.raises(DataError, match="undeclared category"):
        load_dataset(io.StringIO(csv_text), toy_schema)


def test_load_degenerate_labels(toy_schema):
    csv_text = "gender,ncrimes,age,recid\nmale,2,30-60,yes\nfemale,0,<30,yes\n"
    with pytest.raises(DataError, match="degenerate labels"):
        load_dataset(io.StringIO(csv_text), toy_schema)


def test_load_too_few_rows(toy_schema):
    csv_text = "gender,ncrimes,age,recid\nmale,2,30-60,yes\n"
    with pytest.raises(DataError, match="fewer than 2"):
        load_dataset(io.StringIO(csv_text), toy_schema)


def test_load_non_numeric_cell(toy_schema):
    csv_text = "gender,ncrimes,age,recid\nmale,many,30-60,yes\nfemale,0,<30,no\n"
    with pytest.raises(DataError, match="non-numeric"):
        load_dataset(io.StringIO(csv_text), toy_schema)


def test_load_applies_recode_and_bins():
    schema = Schema(
        columns=(
            Column(
                "race",
                "categorical",
                categories=("A", "B", "Other"),
                recode={"C": "Other", "D": "Other"},
            ),
            Column("age", "categorical", categories=("<25", "25-60", ">60"), bins=(25, 60)),
        ),
        label="y",
        positive="1",
    )
    csv_text = "race,age,y\nA,24,1\nC,25,0\nD,60,0\nB,61,1\n"
    ds = load_dataset(io.StringIO(csv_text), schema)
    assert ds.features[0].tolist() == ["A", "Other", "Other", "B"]
    # right-open intervals: 24 -> <25, 25 -> 25-60, 60 and 61 -> >60
    assert ds.features[1].tolist() == ["<25", "25-60", ">60", ">60"]


def test_load_strips_cell_whitespace(toy_schema):
    csv_text = "gender, ncrimes, age, recid\n male , 2 , 30-60 , yes\nfemale,0,<30,no\n"
    ds = load_dataset(io.StringIO(csv_text), toy_schema)
    assert ds.features[0][0] == "male"


def test_binary_column_requires_two_observed_values():
    schema = Schema(columns=(Column("b", "binary"),), label="y", positive="1")
    with pytest.raises(DataError, match="distinct"):
        load_dataset(io.StringIO("b,y\nx,1\nx,0\n"), schema)


def test_load_path_with_byte_order_mark(tmp_path, toy_schema):
    path = tmp_path / "bom.csv"
    path.write_bytes(b"\xef\xbb\xbfgender,ncrimes,age,recid\nmale,2,30-60,yes\nfemale,0,<30,no\n")
    ds = load_dataset(path, toy_schema)
    assert ds.features[0].tolist() == ["male", "female"]


def test_load_rejects_repeated_header_column(toy_schema):
    csv_text = "gender,ncrimes,age,recid,gender\nmale,2,30-60,yes,female\nfemale,0,<30,no,male\n"
    with pytest.raises(DataError, match="duplicate column: 'gender'"):
        load_dataset(io.StringIO(csv_text), toy_schema)


def test_short_row_outranks_an_earlier_value_error(monkeypatch, toy_schema):
    # the bad count sits in the first block and the short row in a later one
    monkeypatch.setattr(data, "BLOCK_ROWS", 2)
    csv_text = "gender,ncrimes,age,recid\nmale,many,30-60,yes\nfemale,0,<30,no\n\nmale,1\n"
    with pytest.raises(DataError, match="row 5: too few fields"):
        load_dataset(io.StringIO(csv_text), toy_schema)


# Every column form the loader interprets: each with clean cells and odd
# ones (padding, padded missing markers, recodes, undeclared values, text
# that needs quoting). Clean cells are drawn more often, so that most
# cases load and the rest fail in every documented way.
_DIFF_COLUMNS = {
    "num": (Column("num", "numeric"),
            ["1", "2.5", "-0", "1e3"], [" 3 ", "nan", "\x1c4", "abc", "", "?", " NA "]),
    "cat": (Column("cat", "categorical", categories=("a", "b", "c"), recode={"x": "a", "y": "b"}),
            ["a", "b", "c", "x"], [" a ", "y ", "z", "a,b", "?"]),
    "dflt": (Column("dflt", "categorical", categories=("p", "q", "other"), recode={"r": "p"},
                    recode_default="other"),
             ["p", "q", "r", "other"], [" s", "t\nu", " ? "]),
    "age": (Column("age", "categorical", categories=("lo", "mid", "hi"), bins=(10, 20)),
            ["5", "10", "20", "25"], [" 15", "x", ""]),
    "bin": (Column("bin", "binary"), ["u", "v"], [" v ", "w", "NA"]),
    "pair": (Column("pair", "binary", categories=("f", "m")), ["f", "m"], [" m", "g", "?"]),
    "y": (None, ["1", "0"], [" 0 ", "1 ", "2", "?", ""]),
    "extra": (None, ["e"], ["", "x,y", 'say "hi"', "two\nlines"]),
}
_FEATURES = sorted(name for name, (col, _, _) in _DIFF_COLUMNS.items() if col is not None)


def _cell(name):
    _, clean, odd = _DIFF_COLUMNS[name]
    return st.sampled_from(clean * 4 + odd)


@st.composite
def _csv_case(draw):
    names = draw(st.lists(st.sampled_from(_FEATURES), min_size=1, unique=True))
    schema = Schema(
        columns=tuple(_DIFF_COLUMNS[name][0] for name in names),
        label="y",
        positive=draw(st.sampled_from(["1", "0"])),
    )
    header = draw(st.permutations(names + ["y"] + draw(st.sampled_from([[], ["extra"]]))))
    rows = []
    for _ in range(draw(st.integers(0, 16))):
        shape = draw(st.sampled_from(["full"] * 40 + ["blank", "trailing"] * 2 + ["short"]))
        row = [draw(_cell(name)) for name in header]
        if shape == "blank":
            row = []
        elif shape == "short":
            row = row[: draw(st.integers(1, len(row) - 1))]
        elif shape == "trailing":
            row += draw(st.lists(_cell("extra"), min_size=1, max_size=2))
        rows.append(row)
    out = io.StringIO()
    writer = csv.writer(
        out, lineterminator="\n", quoting=draw(st.sampled_from([csv.QUOTE_MINIMAL, csv.QUOTE_ALL]))
    )
    writer.writerow([draw(st.sampled_from([h, f" {h} "])) for h in header])
    writer.writerows(rows)
    return schema, out.getvalue()


def _load_outcome(loader, text, schema):
    try:
        return loader(io.StringIO(text), schema)
    except Exception as exc:  # compared by type and message
        return type(exc), str(exc)


def _assert_same_dataset(got, want):
    assert (got.schema, got.dropped_rows, got.negative_display) == (
        want.schema, want.dropped_rows, want.negative_display,
    )
    assert got.y.dtype == want.y.dtype and got.y.tolist() == want.y.tolist()
    for a, b in zip(got.features, want.features, strict=True):
        assert a.dtype == b.dtype and a.shape == b.shape
        if a.dtype == object:
            assert a.tolist() == b.tolist()
            assert all(type(v) is str for v in a.tolist())
        else:
            assert a.tobytes() == b.tobytes()  # float bits, NaN and -0.0 included


@settings(max_examples=300, deadline=None)
@given(case=_csv_case(), block=st.sampled_from([2, 3]))
def test_block_loader_matches_rowwise_reference(case, block):
    schema, text = case
    want = _load_outcome(rowwise_load_dataset, text, schema)
    with mock.patch.object(data, "BLOCK_ROWS", block):
        got = _load_outcome(load_dataset, text, schema)
    if isinstance(want, tuple):
        assert got == want
    else:
        assert not isinstance(got, tuple), got
        _assert_same_dataset(got, want)


def test_load_peak_memory_per_kept_cell(tmp_path):
    rng = np.random.default_rng(3)
    n = 20_000
    schema = Schema(
        columns=(
            Column("age", "numeric"),
            Column("hours", "numeric"),
            Column("job", "categorical", categories=("a", "b", "c", "d")),
            Column("sex", "binary"),
        ),
        label="y",
        positive=">50K",
    )
    columns = [
        rng.integers(17, 90, n).astype(str),
        np.round(rng.uniform(1, 99, n), 2).astype(str),
        rng.choice(["a", "b", "c", "d", "?"], n, p=[0.3, 0.3, 0.2, 0.15, 0.05]),
        rng.choice(["Male", "Female"], n),
        rng.choice([">50K", "<=50K"], n),
    ]
    path = tmp_path / "wide.csv"
    lines = ["age,hours,job,sex,y"] + [",".join(row) for row in zip(*columns)]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    tracemalloc.start()
    try:
        ds = load_dataset(path, schema)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    kept_cells = ds.n * (ds.m + 1)
    assert ds.dropped_rows > 0
    assert peak / kept_cells <= 32.0


# --------------------------------------------------------------- encode


def test_encode_toy_matches_extended_matrix(toy_dataset):
    enc = encode(toy_dataset)
    np.testing.assert_array_equal(enc.matrix, TOY_EXTENDED)
    assert [s.name for s in enc.subfeatures] == [
        "gender_male",
        "gender_female",
        "ncrimes",
        "age_<30",
        "age_30-60",
        "age_>60",
    ]
    assert enc.parent_columns == ((0, 1), (2,), (3, 4, 5))


def test_encode_numeric_only_is_identity():
    schema = Schema(
        columns=(Column("a", "numeric"), Column("b", "numeric")),
        label="y",
        positive="1",
    )
    a = np.array([1.5, 2.5, -3.0])
    b = np.array([0.0, 10.0, 20.0])
    ds = dataset_from_arrays(schema, [a, b], np.array([1, -1, 1]))
    enc = encode(ds)
    np.testing.assert_array_equal(enc.matrix, np.column_stack([a, b]))


def test_encode_binary_single_column_and_complement_symmetry():
    schema = Schema(columns=(Column("sex", "binary"),), label="y", positive="1")
    ds = dataset_from_arrays(
        schema,
        [np.array(["male", "female", "female", "male"], dtype=object)],
        np.array([1, -1, 1, -1]),
    )
    enc = encode(ds)
    assert enc.width == 1
    # lexicographic pair: female -> 0, male -> 1
    np.testing.assert_array_equal(enc.matrix[:, 0], [1, 0, 0, 1])
    assert enc.subfeatures[0].name == "sex_male"
    # complementing the 0/1 assignment yields exactly the complement column
    np.testing.assert_array_equal(1 - enc.matrix[:, 0], [0, 1, 1, 0])


def test_one_hot_rows_sum_to_one(toy_dataset):
    enc = encode(toy_dataset)
    for j, col in enumerate(enc.schema.columns):
        if col.kind == "categorical":
            block = enc.matrix[:, list(enc.parent_columns[j])]
            np.testing.assert_array_equal(block.sum(axis=1), np.ones(enc.n))


def test_encode_round_trip(toy_dataset):
    enc = encode(toy_dataset)
    for j in range(toy_dataset.m):
        np.testing.assert_array_equal(enc.decode_parent(j), toy_dataset.features[j])


def test_encode_deterministic_category_order(toy_dataset):
    first = encode(toy_dataset)
    second = encode(toy_dataset)
    np.testing.assert_array_equal(first.matrix, second.matrix)
    assert [s.name for s in first.subfeatures] == [s.name for s in second.subfeatures]


def test_encoded_width_accounting(toy_dataset):
    enc = encode(toy_dataset)
    q_sum = sum(
        len(c.categories) if c.kind == "categorical" else 1 for c in enc.schema.columns
    )
    assert enc.width == q_sum == 6


def test_binary_pair_prefers_declared_order():
    # the declared order, not the sorted one, fixes the 0/1 assignment
    schema = Schema(
        columns=(Column("sex", "binary", categories=("male", "female")),), label="y", positive="1"
    )
    ds = dataset_from_arrays(
        schema, [np.array(["female", "male", "male"], dtype=object)], np.array([1, -1, 1])
    )
    enc = encode(ds)
    np.testing.assert_array_equal(enc.matrix[:, 0], [1, 0, 0])
    assert enc.subfeatures[0].name == "sex_female"
    np.testing.assert_array_equal(enc.decode_parent(0), ds.features[0])


@pytest.mark.parametrize(
    "column, values",
    [
        (Column("b", "binary", categories=("0", "1")), ["0", "1", "2", "1"]),
        (Column("b", "binary"), ["0", "1", "2", "1"]),
        (Column("b", "binary"), ["1", "1", "1", "1"]),
        (Column("c", "categorical", categories=("x", "y")), ["x", "z", "y", "x"]),
    ],
    ids=["declared-pair", "undeclared-three", "undeclared-constant", "categorical"],
)
def test_in_memory_values_follow_the_loader_rule(column, values):
    schema = Schema(columns=(column,), label="y", positive="1")
    labels = ["1", "0", "1", "0"]
    text = "\n".join([f"{column.name},y"] + [f"{v},{l}" for v, l in zip(values, labels)])
    with pytest.raises(DataError) as from_csv:
        load_dataset(io.StringIO(text), schema)
    with pytest.raises(DataError) as from_arrays:
        dataset_from_arrays(schema, [np.array(values, dtype=object)], np.array([1, -1, 1, -1]))
    assert str(from_arrays.value) == str(from_csv.value)


def test_in_memory_binary_cells_must_be_strings():
    # an integer column would settle the pair ("0", "1") and encode as all zeros
    schema = Schema(columns=(Column("b", "binary"),), label="y", positive="1")
    with pytest.raises(DataError, match="binary values must be strings"):
        dataset_from_arrays(schema, [np.array([0, 1, 1, 0])], np.array([1, -1, 1, -1]))


@pytest.mark.parametrize(
    "cells",
    [
        np.array([0, 1, 1, 0]),
        np.array([0.0, 1.0, 1.0, 0.0]),
        np.array(["a", 1, 1, "a"], dtype=object),
    ],
    ids=["int", "float", "mixed"],
)
def test_direct_dataset_rejects_non_string_binary_cells(cells):
    # the pair is settled in Dataset itself, so a Dataset built without
    # the loader or dataset_from_arrays must not encode as all zeros
    schema = Schema(columns=(Column("flag", "binary"),), label="y", positive="1")
    with pytest.raises(DataError, match="column 'flag': binary values must be strings"):
        Dataset(schema=schema, features=(cells,), y=np.array([1, -1, 1, -1]))


def test_standardize_touches_only_numeric(toy_dataset):
    enc = encode(toy_dataset)
    std = standardize_numeric(enc)
    assert std.matrix[:, 2].mean() == pytest.approx(0.0, abs=1e-12)
    assert std.matrix[:, 2].std() == pytest.approx(1.0, rel=1e-12)
    np.testing.assert_array_equal(std.matrix[:, [0, 1, 3, 4, 5]], enc.matrix[:, [0, 1, 3, 4, 5]])


def test_write_encoded_csv_round_trips_through_loader(tmp_path, toy_dataset):
    enc = encode(toy_dataset)
    path = tmp_path / "enc.csv"
    write_encoded_csv(enc, toy_dataset.y, path)
    header = path.read_text().splitlines()[0]
    assert header.split(",")[:3] == ["gender_male", "gender_female", "ncrimes"]
    all_numeric = Schema(
        columns=tuple(Column(s.name, "numeric") for s in enc.subfeatures),
        label="recid",
        positive="yes",
    )
    again = load_dataset(path, all_numeric)
    np.testing.assert_array_equal(np.column_stack(again.features), enc.matrix)
