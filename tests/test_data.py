import contextlib
import csv
import io
import json
import os
import re
import threading
import tracemalloc
from dataclasses import replace
from pathlib import Path
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
from fairdep.workers import FORKS

from conftest import TOY_EXTENDED, needs_fork, split_loads
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


def _doc(**column):
    column = {"name": "a", "kind": "binary", **column}
    return {"columns": [column], "label": {"name": "y", "positive": "1"}}


@pytest.mark.parametrize(
    "doc, key",
    [
        (_doc(candidate_sensitiv=True), "candidate_sensitiv"),
        ({**_doc(), "label": {"name": "y", "positive": "1", "negative": "0"}}, "negative"),
        ({**_doc(), "missing": ["?"]}, "missing"),
    ],
    ids=["column", "label", "top-level"],
)
def test_schema_rejects_unknown_keys(doc, key):
    # a misspelled key was dropped without a word
    with pytest.raises(SchemaError, match=f"unknown key '{key}'"):
        Schema.from_dict(doc)


@pytest.mark.parametrize("flag", ["false", 0, 1, None])
def test_candidate_sensitive_is_a_bool_or_absent(flag):
    if flag is None:
        assert Schema.from_dict(_doc()).columns[0].candidate_sensitive is None
        return
    # the string "false" was stored as a truthy value and flagged the column
    with pytest.raises(SchemaError, match="candidate_sensitive must be true or false"):
        Schema.from_dict(_doc(candidate_sensitive=flag))


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("recode", ["a"], "recode must map strings to strings"),
        ("recode", {"a": 1}, "recode must map strings to strings"),
        ("categories", "ab", "categories must be a list"),
        ("bins", 25, "bins must be a list"),
        ("bins", ["x"], "malformed schema document: could not convert"),
        ("name", 5, "column name must be a string"),
        ("kind", "ordinal", "column 'age': unknown kind 'ordinal'"),
        ("categories", ["x", "x"], "column 'age': duplicate categories"),
        ("kind", "numeric", "column 'age': numeric columns take no categories"),
        ("recode_default", "z", "column 'age': recode_default 'z' is not a declared category"),
        ("bins", [60, 25], "column 'age': bins must be ascending"),
    ],
)
def test_mistyped_column_fields_are_schema_errors(field, value, message):
    column = {"name": "age", "kind": "categorical", "categories": ["x", "y"], field: value}
    with pytest.raises(SchemaError, match=message):
        Schema.from_dict({"columns": [column], "label": {"name": "y", "positive": "1"}})


@pytest.mark.parametrize(
    "column, message",
    [
        ({"kind": "binary", "categories": ["a", "b", "c"]},
         "binary categories, when given, must be a pair"),
        ({"kind": "binary", "recode": {"a": "b"}}, "recode applies to categorical columns only"),
        ({"kind": "numeric", "bins": [25]}, "bins apply to categorical columns only"),
    ],
)
def test_column_fields_that_need_another_kind(column, message):
    with pytest.raises(SchemaError, match=re.escape(f"column 'c': {message}")):
        Column("c", **column)


@pytest.mark.parametrize(
    "top, message",
    [
        ({"missing_values": "NA"}, "missing_values must be a list of strings"),
        ({"missing_values": ["?", None]}, "missing_values must be a list of strings"),
        ({"label": {"name": 1, "positive": "1"}}, "label name and positive value must be"),
        ({"label": {"name": "y", "positive": True}}, "label name and positive value must be"),
        ({"columns": []}, "schema declares no feature columns"),
    ],
)
def test_mistyped_schema_fields_are_schema_errors(top, message):
    # "NA" was read as the two markers 'N' and 'A', and true as the positive value 'True'
    with pytest.raises(SchemaError, match=message):
        Schema.from_dict({**_doc(), **top})


def test_schema_file_that_is_not_json(tmp_path):
    path = tmp_path / "schema.json"
    path.write_text('{"columns": [', encoding="utf-8")
    with pytest.raises(SchemaError, match=f"^schema file {re.escape(str(path))} is not valid JSON: "):
        Schema.from_json(path)


@pytest.mark.parametrize("marker", [" ?", "? ", "\tNA"])
def test_padded_missing_marker_is_a_schema_error(marker):
    # cells are stripped before the comparison, so " ?" never matched a "?"
    # cell, which then failed as an undeclared category
    with pytest.raises(SchemaError, match=re.escape(f"missing value {marker!r} has surrounding")):
        Schema.from_dict({**_doc(), "missing_values": [marker]})


@pytest.mark.parametrize("edge", [float("nan"), float("inf"), float("-inf")])
def test_bins_must_be_finite(edge):
    # a NaN edge passed the ascending check and put every value in the first bin
    with pytest.raises(SchemaError, match="bins must be finite"):
        Column("age", "categorical", categories=("lo", "hi"), bins=(edge,))


@pytest.mark.parametrize(
    "doc", [[], "schema", {"columns": ["a"], "label": {"name": "y", "positive": "1"}}]
)
def test_schema_document_must_hold_objects(doc):
    with pytest.raises(SchemaError, match="must be a JSON object"):
        Schema.from_dict(doc)


def test_encoded_names_must_be_unique():
    # both encode as "a_b"; validate paired the numeric a_b with the indicator's score
    schema = Schema(
        columns=(Column("a", "categorical", categories=("b", "c")), Column("a_b", "numeric")),
        label="y",
        positive="1",
    )
    features = [np.array(["b", "c", "b", "c"], dtype=object), np.array([0.0, 1.0, 1.0, 0.0])]
    ds = dataset_from_arrays(schema, features, [1, -1, 1, -1])
    with pytest.raises(SchemaError, match="columns 'a' and 'a_b' both encode as 'a_b'"):
        encode(ds)


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


@pytest.mark.parametrize("cell", ["nan", "inf", "-inf", "1e999", " NaN "])
@pytest.mark.parametrize("kind", ["numeric", "binned"])
def test_load_rejects_non_finite_cells(cell, kind):
    # one bad cell among 300 rows: it used to pass unless a subsample drew its row,
    # and a binned nan landed in the last bin
    column = (
        Column("x", "numeric")
        if kind == "numeric"
        else Column("x", "categorical", categories=("lo", "hi"), bins=(0.5,))
    )
    schema = Schema(columns=(column,), label="y", positive="1")
    rows = [f"{i % 3},{i % 2}" for i in range(300)]
    rows[137] = f"{cell},1"
    text = "\n".join(["x,y"] + rows) + "\n"
    with pytest.raises(DataError, match=f"column 'x': non-finite value {cell.strip()!r}"):
        load_dataset(io.StringIO(text), schema)


def test_first_bad_cell_in_row_order_wins():
    schema = Schema(columns=(Column("x", "numeric"),), label="y", positive="1")
    with pytest.raises(DataError, match="non-finite value 'inf'"):
        load_dataset(io.StringIO("x,y\n1,1\ninf,0\nabc,1\n"), schema)
    with pytest.raises(DataError, match="non-numeric value 'abc'"):
        load_dataset(io.StringIO("x,y\n1,1\nabc,0\ninf,1\n"), schema)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_in_memory_numeric_cells_must_be_finite(value):
    from fairdep import audit_dataset

    schema = Schema(columns=(Column("x", "numeric"),), label="y", positive="1")
    x = np.arange(300, dtype=np.float64) % 3
    x[137] = value
    y = np.where(np.arange(300) % 2 == 0, 1, -1)
    # the kernel's own check saw the cell only on seeds that drew its row
    for seed in range(20):
        with pytest.raises(DataError, match=f"column 'x': non-finite value {float(value)!r}"):
            audit_dataset(dataset_from_arrays(schema, [x], y), max_n=50, seed=seed)
    with pytest.raises(DataError, match="non-finite"):
        Dataset(schema=schema, features=(x,), y=y)


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


def test_load_empty_csv_and_malformed_header(toy_schema):
    with pytest.raises(DataError, match="^CSV is empty$"):
        load_dataset(io.StringIO(""), toy_schema)
    huge = '"' + "x" * (csv.field_size_limit() + 1) + '"'
    with pytest.raises(DataError, match="^row 1: malformed CSV record: field larger than"):
        load_dataset(io.StringIO(f"gender,{huge},age,recid\nmale,2,30-60,yes\n"), toy_schema)


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
            ["1", "2.5", "-0", "1e3", "-1", "-1.0"],
            [" 3 ", "nan", "inf", "\x1c4", "abc", "", "?", " NA ", " -1 ", " -1e0"]),
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
        # markers that float() rejects, one it parses as finite, one as nan
        missing_values=draw(st.sampled_from([data.DEFAULT_MISSING, ("?", "-1"), ("", "nan")])),
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
    return _outcome(loader, io.StringIO(text), schema)


def _outcome(loader, source, schema):
    try:
        return loader(source, schema)
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
@given(case=_csv_case(), block=st.sampled_from([1, 2, 3, 5]))
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


@pytest.mark.parametrize(
    "markers, cells",
    [(("?", "-1"), ["-1", " -1 "]), (("", "nan"), ["nan", " nan "])],
    ids=["finite", "non-finite"],
)
def test_numeric_cells_that_are_markers(markers, cells):
    # a marker that parses as a number must still drop its row
    schema = Schema(
        columns=(Column("x", "numeric"), Column("b", "binary")),
        label="y",
        positive="1",
        missing_values=markers,
    )
    rows = ["1,u,1", f"{cells[0]},v,0", "2,v,0", f'"{cells[1]}",u,1', "3,u,0"]
    text = "x,b,y\n" + "\n".join(rows) + "\n"
    ds = load_dataset(io.StringIO(text), schema)
    assert ds.dropped_rows == 2 and ds.features[0].tolist() == [1.0, 2.0, 3.0]
    _assert_same_dataset(ds, rowwise_load_dataset(io.StringIO(text), schema))


def test_numeric_column_parsed_then_coded(monkeypatch):
    # blocks of two rows: the first parses as float64, the second fails to
    # parse ("abc") and is read cell by cell, and so is the fourth (" x7 ")
    monkeypatch.setattr(data, "BLOCK_ROWS", 2)
    schema = Schema(
        columns=(Column("x", "numeric"), Column("b", "binary")), label="y", positive="1"
    )
    rows = ["1,u,1", "2,v,0", "abc,?,1", "3,u,0", "4,v,1", "5,u,0"]
    text = "x,b,y\n" + "\n".join(rows) + "\n"
    ds = load_dataset(io.StringIO(text), schema)  # "abc" sits only in a dropped row
    assert ds.dropped_rows == 1 and ds.features[0].tolist() == [1.0, 2.0, 3.0, 4.0, 5.0]
    _assert_same_dataset(ds, rowwise_load_dataset(io.StringIO(text), schema))
    text += "6,v,1\n x7 ,u,0\n"
    with pytest.raises(DataError, match=r"^column 'x': non-numeric value 'x7'$"):
        load_dataset(io.StringIO(text), schema)
    assert _load_outcome(rowwise_load_dataset, text, schema) == (
        DataError, "column 'x': non-numeric value 'x7'",
    )


def test_block_of_blank_records(monkeypatch, toy_schema):
    # the second block holds only the two blank lines, and zip(*[]) gives no columns
    monkeypatch.setattr(data, "BLOCK_ROWS", 2)
    csv_text = "gender,ncrimes,age,recid\nmale,2,30-60,yes\nfemale,0,<30,no\n\n\nmale,1,>60,no\n"
    ds = load_dataset(io.StringIO(csv_text), toy_schema)
    assert ds.features[0].tolist() == ["male", "female", "male"]
    assert ds.y.tolist() == [1, -1, -1]


# ------------------------------------------------ byte ranges, forked readers


@needs_fork
@settings(max_examples=200, deadline=None)
@given(
    case=_csv_case(),
    block=st.sampled_from([1, 2, 3, 5]),
    cpus=st.integers(2, 4),
    newline=st.sampled_from(["\n", "\r\n"]),
)
def test_split_loader_matches_rowwise_reference(tmp_path_factory, case, block, cpus, newline):
    # a file with no quote character is read in byte ranges by forked readers
    schema, text = case
    text = text.replace("\n", newline)
    want = _load_outcome(rowwise_load_dataset, text, schema)
    path = tmp_path_factory.getbasetemp() / "split.csv"
    path.write_bytes(text.encode("utf-8"))
    with mock.patch.object(data, "BLOCK_ROWS", block), split_loads(cpus):
        got = _outcome(load_dataset, path, schema)
    if isinstance(want, tuple):
        assert got == want
    else:
        assert not isinstance(got, tuple), got
        _assert_same_dataset(got, want)


def _split_and_whole(path, schema, cpus=4):
    """The outcomes of loading `path` in byte ranges on `cpus` CPUs, and in one range."""
    with split_loads(cpus) as forked:
        split = _outcome(load_dataset, path, schema)
    assert forked, "the file was read in one range"
    return split, _outcome(load_dataset, path, schema)


_ROWS = [b"male,2,30-60,yes\n", b"female,0,<30,no\n", b"female,1,>60,no\n"]
_HEADER = b"gender,ncrimes,age,recid\n"
_FAULTS = {  # a record, and the message it gives at row `row`, byte `at`
    "short": (b"female,0\n", "row {row}: too few fields"),
    "field": (b"x" * 300 + b",0,<30,no\n", "row {row}: malformed CSV record: field larger than"),
    "byte": (b"f\xe9male,1,>60,no\n", "byte {at}: not valid UTF-8 (invalid continuation byte)"),
}


@pytest.fixture
def field_limit_200():
    old = csv.field_size_limit(200)  # forked readers inherit it
    yield
    csv.field_size_limit(old)


@needs_fork
@pytest.mark.parametrize("early", [None, "short", "field", "byte"])
@pytest.mark.parametrize("late", ["short", "field", "byte"])
def test_error_in_a_later_range_keeps_its_one_range_message(tmp_path, toy_schema, field_limit_200, early, late):
    # 8,000 rows in four ranges, with a run of blank records in the second
    # and third: `late` sits in the last range and `early`, when given, in
    # the first, past the header's text chunk and more than a block and a
    # chunk before `late`, so that the one-range load meets them in file
    # order too
    records = [_ROWS[i % 3] for i in range(8000)]
    records[2300:2300] = [b"\n"] * 40
    records[4300:4300] = [b"\r\n"] * 40
    faults = {7000: late} if early is None else {1000: early, 7000: late}
    for index, fault in faults.items():
        records[index] = _FAULTS[fault][0]
    first = min(faults)
    at = len(_HEADER) + sum(map(len, records[:first])) + 1  # the e-acute's offset
    want = _FAULTS[faults[first]][1].format(row=first + 2, at=at)
    path = tmp_path / "faults.csv"
    path.write_bytes(_HEADER + b"".join(records))
    split, whole = _split_and_whole(path, toy_schema)
    assert split == whole
    assert split[0] is DataError and split[1].startswith(want), split


@needs_fork
@pytest.mark.parametrize("newline", ["\n", "\r\n"])
def test_split_keeps_bom_line_ends_and_blank_records_on_a_range_edge(tmp_path, toy_schema, newline):
    # the middle of the body, where the one cut of two ranges lands, is a
    # run of blank records; a short row after it names its file-order row
    rows = [_ROWS[i % 3].decode().rstrip() for i in range(60)]
    lines = ["gender,ncrimes,age,recid"] + rows[:30] + [""] * 12 + rows[30:]
    text = newline.join(lines) + newline
    path = tmp_path / "bom.csv"
    path.write_bytes(b"\xef\xbb\xbf" + text.encode())
    split, whole = _split_and_whole(path, toy_schema, cpus=2)
    _assert_same_dataset(split, whole)
    _assert_same_dataset(split, rowwise_load_dataset(io.StringIO(text), toy_schema))
    assert split.n == 60 and split.schema.names[0] == "gender"
    path.write_bytes(b"\xef\xbb\xbf" + (text + newline.join(["female,0"] * 2) + newline).encode())
    split, whole = _split_and_whole(path, toy_schema, cpus=2)
    assert split == whole == (DataError, "row 74: too few fields")


@needs_fork
def test_bad_cell_in_a_later_range_is_judged_by_its_own_row(tmp_path, toy_schema):
    # the second half drops every row for its label, and so the bad count
    # in each, which the first half's kept rows must not take for theirs
    text = "gender,ncrimes,age,recid\n" + "male,2,30-60,yes\nfemale,0,<30,no\n" * 15
    text += "male,many,30-60,?\n" * 30
    path = tmp_path / "halves.csv"
    path.write_text(text, encoding="utf-8")
    split, whole = _split_and_whole(path, toy_schema, cpus=2)
    _assert_same_dataset(split, whole)
    _assert_same_dataset(split, rowwise_load_dataset(io.StringIO(text), toy_schema))
    assert (split.n, split.dropped_rows) == (30, 30)


@needs_fork
def test_a_quote_anywhere_keeps_one_range(tmp_path, toy_schema, forced_split, monkeypatch):
    def no_fork():
        raise AssertionError("a range reader was forked for a quoted file")

    monkeypatch.setattr(os, "fork", no_fork)
    path = tmp_path / "quoted.csv"
    body = b"".join(_ROWS * 40)
    path.write_bytes(_HEADER + body + b'"male",3,<30,yes\n')
    assert load_dataset(path, toy_schema).n == 121


@needs_fork
def test_split_leaves_no_process_behind(tmp_path, toy_schema, forced_split, monkeypatch):
    path = tmp_path / "rows.csv"
    path.write_bytes(_HEADER + b"".join(_ROWS * 40))
    assert load_dataset(path, toy_schema).n == 120
    path.write_bytes(_HEADER + b"".join(_ROWS * 40) + b"female\n")
    with pytest.raises(DataError, match="^row 122: too few fields$"):
        load_dataset(path, toy_schema)
    parent, scan = os.getpid(), data._scan

    def interrupted(*args):  # the parent is interrupted while it reads the first range
        if os.getpid() == parent:
            raise KeyboardInterrupt
        return scan(*args)

    monkeypatch.setattr(data, "_scan", interrupted)
    with pytest.raises(KeyboardInterrupt):
        load_dataset(path, toy_schema)
    assert len(forced_split) == 9  # three readers per load, each reaped (see split_loads)


def test_one_range_reads_no_file_by_position(tmp_path, toy_schema, monkeypatch):
    """Where readers do not fork, a path loads through a plain `open`:
    Windows has neither `os.preadv` nor `os.pread`."""
    path = tmp_path / "rows.csv"
    path.write_bytes(_HEADER + b"".join(_ROWS * 40))
    want = load_dataset(io.StringIO(path.read_text()), toy_schema)
    monkeypatch.setattr(data, "FORKS", False)
    monkeypatch.setattr(data, "SPLIT_BYTES", 1)
    monkeypatch.delattr(os, "preadv", raising=False)
    monkeypatch.delattr(os, "pread", raising=False)
    _assert_same_dataset(load_dataset(path, toy_schema), want)


@needs_fork
def test_a_pipe_is_read_in_one_range(tmp_path, toy_schema, forced_split):
    """A FIFO has no size and no positions: it streams through one range."""
    text = _HEADER + b"".join(_ROWS * 40)
    fifo = tmp_path / "rows.fifo"
    os.mkfifo(fifo)
    writer = threading.Thread(target=fifo.write_bytes, args=(text,))
    writer.start()
    try:
        got = load_dataset(fifo, toy_schema)
    finally:
        writer.join()
    _assert_same_dataset(got, load_dataset(io.StringIO(text.decode()), toy_schema))
    assert not forced_split


@needs_fork
def test_last_range_reads_to_the_end_of_a_growing_file(tmp_path, toy_schema, forced_split, monkeypatch):
    path = tmp_path / "rows.csv"
    path.write_bytes(_HEADER + b"".join(_ROWS * 40))
    byte_ranges = data._byte_ranges

    def growing(fd):  # rows are appended after the file is cut
        cuts = byte_ranges(fd)
        with open(path, "ab") as fh:
            fh.write(b"".join(_ROWS * 2))
        return cuts

    monkeypatch.setattr(data, "_byte_ranges", growing)
    assert load_dataset(path, toy_schema).n == 126
    assert len(forced_split) == 3


@needs_fork
def test_fault_in_a_reader_shows_its_traceback(tmp_path, toy_schema, forced_split, monkeypatch):
    # the reader's own exception, as one range would raise it, caused by the child's traceback
    parent, read_range = os.getpid(), data._read_range

    def faulty(*args):
        if os.getpid() != parent:
            raise TypeError("a fault in the reader")
        return read_range(*args)

    monkeypatch.setattr(data, "_read_range", faulty)
    path = tmp_path / "rows.csv"
    path.write_bytes(_HEADER + b"".join(_ROWS * 40))
    with pytest.raises(TypeError, match="^a fault in the reader$") as caught:
        load_dataset(path, toy_schema)
    child = str(caught.value.__cause__)
    assert "Traceback (most recent call last):\n" in child
    assert ", in faulty\n" in child and "TypeError: a fault in the reader\n" in child
    assert len(forced_split) == 3


@needs_fork
def test_error_in_the_first_range_outranks_a_dead_reader(tmp_path, toy_schema, forced_split, monkeypatch):
    # the readers after a range with an error are not waited for
    parent, read_range = os.getpid(), data._read_range

    def dying(*args):
        if os.getpid() != parent:
            os._exit(1)
        return read_range(*args)

    monkeypatch.setattr(data, "_read_range", dying)
    path = tmp_path / "rows.csv"
    path.write_bytes(_HEADER + b"female,0\n" + b"".join(_ROWS * 40))
    with pytest.raises(DataError, match="^row 2: too few fields$"):
        load_dataset(path, toy_schema)
    assert len(forced_split) == 3


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
    for split in (contextlib.nullcontext(), split_loads(2) if FORKS else contextlib.nullcontext()):
        with split:  # in byte ranges, the parent holds what its readers send
            tracemalloc.start()
            try:
                ds = load_dataset(path, schema)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        kept_cells = ds.n * (ds.m + 1)
        assert ds.dropped_rows > 0
        assert peak / kept_cells <= 32.0


def _second_load_peak(path, schema):
    """tracemalloc peak of `load_dataset`, after one load outside the trace."""
    load_dataset(path, schema)
    tracemalloc.start()
    try:
        ds = load_dataset(path, schema)
        return tracemalloc.get_traced_memory()[1], ds
    finally:
        tracemalloc.stop()


def test_numeric_markers_keep_the_clean_peak(tmp_path):
    # a numeric block holding a "?", or a number equal to a marker such as
    # "-1", was coded against a table of every raw cell of such blocks
    rng = np.random.default_rng(7)
    n, block = 8192, data.BLOCK_ROWS
    money = [[f"{v:.2f}" for v in rng.uniform(0, 1e6, n)] for _ in range(2)]
    labels = rng.choice(["1", "0"], n).tolist()

    def write(name, columns):
        path = tmp_path / name
        lines = ["a,b,y"] + [",".join(row) for row in zip(*columns, labels)]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return path

    clean = write("clean.csv", money)
    for col in money:  # one "?" in each block of each column, in different rows
        for start in range(0, n, block):
            col[start + int(rng.integers(block))] = "?"
    marked = write("marked.csv", money)
    schema = Schema(
        columns=(Column("a", "numeric"), Column("b", "numeric")), label="y", positive="1"
    )
    base, ds = _second_load_peak(clean, schema)
    assert ds.dropped_rows == 0
    for split in (contextlib.nullcontext(), split_loads(2) if FORKS else contextlib.nullcontext()):
        with split:
            peak, ds = _second_load_peak(marked, schema)
            assert 0 < ds.dropped_rows <= 2 * n // block and peak <= 1.25 * base
            peak, ds = _second_load_peak(clean, replace(schema, missing_values=("", "?", "-1")))
            assert ds.dropped_rows == 0 and peak <= 1.25 * base


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


@pytest.mark.parametrize(
    "column, cells, bad",
    [
        (Column("c", "categorical", categories=("a", "b")), ["a", "zzz", "b", "a"], "zzz"),
        (Column("c", "binary", categories=("a", "b")), ["a", "b", "q", "b"], "q"),
    ],
    ids=["categorical", "binary"],
)
def test_encode_rejects_undeclared_values(column, cells, bad):
    # a Dataset built directly checks no declared categories: 'zzz' encoded
    # as an all-zero indicator row and 'q' as the pair's first value
    schema = Schema(columns=(column,), label="y", positive="1")
    cells = np.array(cells, dtype=object)
    ds = Dataset(schema=schema, features=(cells,), y=np.array([1, -1, 1, -1]))
    with pytest.raises(DataError, match=f"column 'c': undeclared value '{bad}'"):
        encode(ds)


# ---------------------------------------------------------------- labels


def test_dataset_labels_must_be_signs(toy_dataset):
    with pytest.raises(DataError, match=r"labels must lie in \{-1, \+1\}, got \[0, 1\]"):
        replace(toy_dataset, y=np.array([1, 0, 0]))
    assert issubclass(DataError, ValueError)  # callers catching ValueError keep working


@pytest.mark.parametrize(
    "change, message",
    [
        (lambda ds: {"features": ds.features[:2]}, "feature count does not match schema"),
        (lambda ds: {"features": tuple(f[:1] for f in ds.features), "y": ds.y[:1]},
         "need at least 2 samples, got 1"),
        (lambda ds: {"features": (ds.features[0][:2], *ds.features[1:])},
         "feature columns and labels have mismatched lengths"),
        (lambda ds: {"y": np.ones(3, np.int64)}, "degenerate labels: only one class present"),
    ],
    ids=["count", "rows", "lengths", "one-class"],
)
def test_dataset_checks_its_shape(toy_dataset, change, message):
    with pytest.raises(DataError, match=f"^{message}$"):
        replace(toy_dataset, **change(toy_dataset))


def test_encoded_dataset_checks_its_labels(toy_dataset):
    # validate once trained on the first rows of a longer matrix against
    # labels from another dataset, without an error
    enc = encode(toy_dataset)
    np.testing.assert_array_equal(enc.y, toy_dataset.y)
    with pytest.raises(DataError, match=r"labels \(2\) and matrix \(3\) disagree"):
        replace(enc, y=enc.y[:2])
    with pytest.raises(DataError, match=r"labels must lie in \{-1, \+1\}, got \[0.0, 1.0\]"):
        replace(enc, y=np.array([1.0, 0.0, 0.0]))
    assert replace(enc, y=np.ones(3)).y.tolist() == [1, 1, 1]  # one class is allowed
    np.testing.assert_array_equal(standardize_numeric(enc).y, enc.y)


def test_one_label_coding_check_in_source():
    sources = sorted(Path(data.__file__).parent.glob("*.py"))
    hits = [p.name for p in sources for _ in range(p.read_text().count("must lie in {"))]
    assert hits == ["errors.py"]


def test_standardize_touches_only_numeric(toy_dataset):
    enc = encode(toy_dataset)
    std = standardize_numeric(enc)
    assert std.matrix[:, 2].mean() == pytest.approx(0.0, abs=1e-12)
    assert std.matrix[:, 2].std() == pytest.approx(1.0, rel=1e-12)
    np.testing.assert_array_equal(std.matrix[:, [0, 1, 3, 4, 5]], enc.matrix[:, [0, 1, 3, 4, 5]])


def test_write_encoded_csv_round_trips_through_loader(tmp_path, toy_dataset):
    enc = encode(toy_dataset)
    path = tmp_path / "enc.csv"
    write_encoded_csv(enc, path)
    header = path.read_text().splitlines()[0]
    assert header.split(",")[:3] == ["gender_male", "gender_female", "ncrimes"]
    all_numeric = Schema(
        columns=tuple(Column(s.name, "numeric") for s in enc.subfeatures),
        label="recid",
        positive="yes",
    )
    again = load_dataset(path, all_numeric)
    np.testing.assert_array_equal(np.column_stack(again.features), enc.matrix)


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
def test_write_json_refuses_values_standard_json_lacks(tmp_path, value):
    path = tmp_path / "doc.json"
    with pytest.raises(ValueError, match="JSON compliant"):
        data.write_json(path, {"scores": [0.5, value]})
    assert not path.exists()
    data.write_json(path, {"scores": [0.5, None]})
    assert path.read_text(encoding="utf-8") == '{\n  "scores": [\n    0.5,\n    null\n  ]\n}\n'
