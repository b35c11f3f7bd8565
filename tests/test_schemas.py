"""The shipped benchmark schemas parse and ingest plausible rows.

Real benchmark CSVs are not bundled (see data/README.md), so these
tests fabricate a handful of rows in each source's column format and
push them through load -> encode. That pins the schema files against
drift: column names, category lists, recodes, and bins all get
exercised.
"""

import io
from pathlib import Path

import numpy as np
import pytest

from fairdep import Schema, encode, load_dataset

SCHEMA_DIR = Path(__file__).resolve().parent.parent / "data" / "schemas"


def _csv(header, rows):
    return io.StringIO("\n".join([",".join(header)] + [",".join(r) for r in rows]) + "\n")


@pytest.mark.parametrize(
    "name", ["compas.json", "adult.json", "lsac.json", "taiwan_credit.json"]
)
def test_schema_files_parse(name):
    schema = Schema.from_json(SCHEMA_DIR / name)
    assert schema.columns
    assert schema.label
    assert Schema.from_dict(schema.to_dict()) == schema


def test_compas_schema_ingests_propublica_rows():
    schema = Schema.from_json(SCHEMA_DIR / "compas.json")
    header = [
        "sex", "age_cat", "race", "juv_fel_count", "juv_misd_count",
        "juv_other_count", "priors_count", "c_charge_degree", "two_year_recid",
        "extra_column",
    ]
    rows = [
        ["Male", "Less than 25", "African-American", "0", "1", "0", "3", "F", "1", "x"],
        ["Female", "25 - 45", "Caucasian", "0", "0", "0", "0", "M", "0", "x"],
        ["Male", "Greater than 45", "Hispanic", "1", "0", "2", "5", "F", "1", "x"],
        ["Male", "25 - 45", "Native American", "0", "0", "0", "1", "M", "0", "x"],
        ["Female", "Less than 25", "Asian", "0", "0", "0", "0", "F", "0", "x"],
    ]
    ds = load_dataset(_csv(header, rows), schema)
    assert ds.n == 5
    enc = encode(ds)
    # race folds the long tail into Other
    race_idx = [c.name for c in schema.columns].index("race")
    assert set(ds.features[race_idx]) == {"African-American", "Caucasian", "Other"}
    block = enc.matrix[:, list(enc.parent_columns[race_idx])]
    np.testing.assert_array_equal(block.sum(axis=1), np.ones(5))


def test_adult_schema_ingests_census_rows():
    schema = Schema.from_json(SCHEMA_DIR / "adult.json")
    header = [
        "age", "workclass", "educational-num", "marital-status", "occupation",
        "relationship", "race", "gender", "capital-gain", "capital-loss",
        "hours-per-week", "native-country", "income",
    ]
    rows = [
        ["24", "Private", "10", "Never-married", "Adm-clerical", "Own-child",
         "White", "Male", "0", "0", "40", "United-States", "<=50K"],
        ["39", "State-gov", "13", "Married-civ-spouse", "Exec-managerial", "Husband",
         "Black", "Male", "2174", "0", "50", "Cuba", ">50K"],
        ["61", "?", "9", "Divorced", "Handlers-cleaners", "Not-in-family",
         "White", "Female", "0", "0", "20", "United-States", "<=50K"],
        ["30", "Self-emp-inc", "14", "Widowed", "Armed-Forces", "Unmarried",
         "Asian-Pac-Islander", "Female", "0", "1408", "60", "India", ">50K"],
    ]
    ds = load_dataset(_csv(header, rows), schema)
    assert ds.dropped_rows == 1  # the "?" workclass row
    assert ds.n == 3
    by_name = dict(zip([c.name for c in schema.columns], ds.features))
    assert by_name["age"].tolist() == ["<25", "25-60", "25-60"]
    assert by_name["workclass"].tolist() == ["private", "non-private", "non-private"]
    assert by_name["marital-status"].tolist() == ["never-married", "married", "other"]
    assert by_name["native-country"].tolist() == ["US", "non-US", "non-US"]
    np.testing.assert_array_equal(ds.y, [-1, 1, 1])


def test_lsac_schema_ingests_bar_rows():
    schema = Schema.from_json(SCHEMA_DIR / "lsac.json")
    header = [
        "decile1b", "decile3", "lsat", "ugpa", "zfygpa", "zgpa", "fulltime",
        "fam_inc", "male", "race1", "tier", "pass_bar",
    ]
    rows = [
        ["10", "8", "44", "3.5", "1.33", "1.88", "1", "5", "1", "white", "4", "1"],
        ["5", "4", "29", "3.1", "-0.11", "-0.57", "2", "4", "0", "black", "2", "0"],
        ["7", "6", "36", "3.2", "0.01", "0.32", "1", "3", "0", "hisp", "3", "1"],
    ]
    ds = load_dataset(_csv(header, rows), schema)
    assert ds.n == 3
    fulltime = next(c for c in encode(ds).schema.columns if c.name == "fulltime")
    assert fulltime.categories == ("1", "2")
    assert fulltime.candidate_sensitive is False


def test_taiwan_schema_ingests_uci_rows():
    schema = Schema.from_json(SCHEMA_DIR / "taiwan_credit.json")
    names = [c.name for c in schema.columns]
    header = names + ["default.payment.next.month"]
    base = {
        "LIMIT_BAL": "20000", "SEX": "2", "EDUCATION": "2", "MARRIAGE": "1",
        "AGE": "24", "PAY_0": "2", "PAY_2": "-1", "PAY_3": "0", "PAY_4": "0",
        "PAY_5": "-2", "PAY_6": "0",
    }
    for k in range(1, 7):
        base[f"BILL_AMT{k}"] = str(1000 * k)
        base[f"PAY_AMT{k}"] = str(100 * k)
    rows = []
    for sex, edu, marriage, age, label in [
        ("2", "2", "1", "24", "1"),
        ("1", "1", "2", "40", "0"),
        ("2", "5", "0", "35", "0"),
        ("1", "3", "3", "60", "1"),
    ]:
        row = dict(base, SEX=sex, EDUCATION=edu, MARRIAGE=marriage, AGE=age)
        rows.append([row[n] for n in names] + [label])
    ds = load_dataset(_csv(header, rows), schema)
    by_name = dict(zip(names, ds.features))
    assert by_name["EDUCATION"].tolist() == ["university", "graduate", "others", "high_school"]
    assert by_name["MARRIAGE"].tolist() == ["married", "single", "others", "others"]
    # AGE banded at 35, right-open: 24 -> <35, 35 -> >=35
    assert by_name["AGE"].tolist() == ["<35", ">=35", ">=35", ">=35"]
    np.testing.assert_array_equal(ds.y, [1, -1, -1, 1])
