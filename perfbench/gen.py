"""Seeded input generators for the benchmark workloads.

Each generator writes a raw CSV (and, where needed, a schema) that the
program reads exactly as a user's file, and returns a truth record the
output checks use: which features carry planted dependence on the label,
which group inside each is the planted one, and one numeric column for
the dense reference check. The same seed gives byte-identical files.

The Adult and Taiwan-credit files follow the shipped schemas
(`data/schemas/adult.json`, `data/schemas/taiwan_credit.json`) at the
real datasets' row counts: pre-recode raw strings with an unmapped long
tail, numeric sources for binned columns, missing markers at the real
shares, and real magnitudes.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

ADULT_ROWS = 48842
TAIWAN_ROWS = 30000


def _rng(seed: int, salt: int) -> np.random.Generator:
    if seed < 0:
        raise ValueError(f"seed must be nonnegative, got {seed}")
    return np.random.default_rng([salt, seed])


def _pick(rng, table: dict[str, float], n: int) -> np.ndarray:
    names = list(table)
    p = np.array([table[k] for k in names], dtype=np.float64)
    return np.array(names, dtype=object)[rng.choice(len(names), size=n, p=p / p.sum())]


def _ints(values) -> list[str]:
    return [str(v) for v in np.asarray(values, dtype=np.int64).tolist()]


def _write_csv(path: Path, header: list[str], columns: list[list[str]]) -> None:
    lines = [",".join(header)]
    lines.extend(",".join(row) for row in zip(*columns))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def _value_pool(salt: int, size: int, low: float, high: float) -> np.ndarray:
    """Fixed, seed-independent set of distinct amounts, like a real code list."""
    rng = np.random.default_rng([salt, 0xA11])
    pool = np.unique(np.round(np.exp(rng.uniform(np.log(low), np.log(high), size * 2))))
    return rng.permutation(pool)[:size].astype(np.int64)


EDUCATION_LEVELS = {  # Adult's education string -> educational-num, share
    "Preschool": (1, 0.002),
    "1st-4th": (2, 0.005),
    "5th-6th": (3, 0.010),
    "7th-8th": (4, 0.020),
    "9th": (5, 0.015),
    "10th": (6, 0.028),
    "11th": (7, 0.037),
    "12th": (8, 0.013),
    "HS-grad": (9, 0.323),
    "Some-college": (10, 0.223),
    "Assoc-voc": (11, 0.042),
    "Assoc-acdm": (12, 0.033),
    "Bachelors": (13, 0.164),
    "Masters": (14, 0.054),
    "Prof-school": (15, 0.017),
    "Doctorate": (16, 0.012),
}
WORKCLASS = {
    "Private": 0.736, "Self-emp-not-inc": 0.084, "Local-gov": 0.068, "State-gov": 0.043,
    "Self-emp-inc": 0.037, "Federal-gov": 0.031, "Without-pay": 0.0005, "Never-worked": 0.0002,
}
OCCUPATION = {
    "Prof-specialty": 0.134, "Craft-repair": 0.133, "Exec-managerial": 0.132,
    "Adm-clerical": 0.122, "Sales": 0.120, "Other-service": 0.107,
    "Machine-op-inspct": 0.066, "Transport-moving": 0.051, "Handlers-cleaners": 0.045,
    "Farming-fishing": 0.032, "Tech-support": 0.031, "Protective-serv": 0.021,
    "Priv-house-serv": 0.005, "Armed-Forces": 0.0003,
}
MARITAL = {
    "Married-civ-spouse": 0.458, "Never-married": 0.330, "Divorced": 0.136,
    "Separated": 0.031, "Widowed": 0.031, "Married-spouse-absent": 0.013,
    "Married-AF-spouse": 0.001,
}
UNMARRIED_RELATIONSHIP = {
    "Not-in-family": 0.45, "Own-child": 0.30, "Unmarried": 0.19, "Other-relative": 0.06,
}
RACE = {
    "White": 0.855, "Black": 0.096, "Asian-Pac-Islander": 0.031,
    "Amer-Indian-Eskimo": 0.010, "Other": 0.008,
}
COUNTRY = {
    "United-States": 0.913, "Mexico": 0.020, "Philippines": 0.006, "Germany": 0.0043,
    "Puerto-Rico": 0.0038, "Canada": 0.0037, "El-Salvador": 0.0032, "India": 0.0031,
    "Cuba": 0.0028, "England": 0.0026, "China": 0.0025, "South": 0.0024,
    "Jamaica": 0.0022, "Italy": 0.0022, "Dominican-Republic": 0.0021, "Japan": 0.0019,
    "Guatemala": 0.0018, "Poland": 0.0018, "Vietnam": 0.0018, "Columbia": 0.0017,
    "Haiti": 0.0015, "Portugal": 0.0014, "Taiwan": 0.0013, "Iran": 0.0012,
    "Greece": 0.0010, "Nicaragua": 0.0010, "Peru": 0.0009, "Ecuador": 0.0009,
    "France": 0.0008, "Ireland": 0.0007, "Hong": 0.0006, "Thailand": 0.0006,
    "Cambodia": 0.0006, "Trinadad&Tobago": 0.0006, "Laos": 0.0005, "Yugoslavia": 0.0005,
    "Outlying-US(Guam-USVI-etc)": 0.0005, "Scotland": 0.0004, "Honduras": 0.0004,
    "Hungary": 0.0004, "Holand-Netherlands": 0.0001,
}
ADULT_MISSING_SHARE = 0.074  # rows with a '?' cell in the real 48,842-row file

ADULT_TRUTH = {
    "schema": "adult.json",
    "planted": {
        "marital-status": "marital-status_married",
        "relationship": "relationship_Husband",
        "gender": "gender_Male",
    },
    "reference_numeric": "capital-gain",
}


def write_adult(path, seed: int, n: int = ADULT_ROWS) -> dict:
    """Adult-income-shaped raw CSV (Kaggle `adult.csv` header and coding).

    The label leans on being married (civ/AF spouse), on being male and
    on years of education, so `marital-status_married`,
    `relationship_Husband` and `gender_Male` are the planted groups.
    """
    rng = _rng(seed, 1)
    age = np.clip(np.round(17 + rng.gamma(5.5, 4.0, n)), 17, 90)
    gender = np.where(rng.random(n) < 0.668, "Male", "Female")
    marital = _pick(rng, MARITAL, n)
    married = np.isin(marital, ["Married-civ-spouse", "Married-AF-spouse"])
    relationship = np.where(gender == "Male", "Husband", "Wife").astype(object)
    relationship[married & (rng.random(n) < 0.02)] = "Other-relative"
    relationship[~married] = _pick(rng, UNMARRIED_RELATIONSHIP, int((~married).sum()))
    names = list(EDUCATION_LEVELS)
    shares = np.array([EDUCATION_LEVELS[k][1] for k in names])
    level = rng.choice(len(names), size=n, p=shares / shares.sum())
    education = np.array(names, dtype=object)[level]
    edu_num = np.array([EDUCATION_LEVELS[k][0] for k in names])[level]
    hours = np.where(
        rng.random(n) < 0.47, 40, np.clip(np.round(rng.normal(40, 12, n)), 1, 99)
    )
    gain = np.where(
        rng.random(n) < 0.083, rng.choice(_value_pool(11, 118, 114, 99999), size=n), 0
    )
    loss = np.where(
        rng.random(n) < 0.047, rng.choice(_value_pool(12, 92, 155, 4356), size=n), 0
    )
    fnlwgt = np.round(np.exp(rng.normal(np.log(178000), 0.55, n)))
    logit = -3.5 + 2.7 * married + 0.9 * (gender == "Male") + 0.3 * (edu_num - 10)
    income = np.where(rng.random(n) < 1 / (1 + np.exp(-logit)), ">50K", "<=50K")

    workclass = _pick(rng, WORKCLASS, n)
    occupation = _pick(rng, OCCUPATION, n)
    country = _pick(rng, COUNTRY, n)
    # '?' marks: mostly workclass and occupation together, the rest country
    holes = np.flatnonzero(rng.random(n) < ADULT_MISSING_SHARE)
    job_hole = rng.random(holes.size) < 0.77
    workclass[holes[job_hole]] = "?"
    occupation[holes[job_hole]] = "?"
    country[holes[~job_hole]] = "?"

    header = [
        "age", "workclass", "fnlwgt", "education", "educational-num", "marital-status",
        "occupation", "relationship", "race", "gender", "capital-gain", "capital-loss",
        "hours-per-week", "native-country", "income",
    ]
    columns = [
        _ints(age), workclass.tolist(), _ints(fnlwgt), education.tolist(), _ints(edu_num),
        marital.tolist(), occupation.tolist(), relationship.tolist(),
        _pick(rng, RACE, n).tolist(), gender.tolist(), _ints(gain), _ints(loss),
        _ints(hours), country.tolist(), income.tolist(),
    ]
    _write_csv(path, header, columns)
    return dict(ADULT_TRUTH, rows=n, missing_rows=int(holes.size))


TAIWAN_EDUCATION = {"1": 0.350, "2": 0.450, "3": 0.180, "4": 0.004, "5": 0.009, "6": 0.002, "0": 0.0005}
TAIWAN_MARRIAGE = {"1": 0.455, "2": 0.532, "3": 0.011, "0": 0.002}
PAY_STATUS = {
    "-2": 0.090, "-1": 0.190, "0": 0.490, "1": 0.120, "2": 0.090, "3": 0.011,
    "4": 0.003, "5": 0.001, "6": 0.0004, "7": 0.001, "8": 0.0007,
}
ROUND_PAYMENTS = np.array([1000, 1500, 2000, 2500, 3000, 4000, 5000, 6000, 10000, 20000])

TAIWAN_TRUTH = {
    "schema": "taiwan_credit.json",
    "planted": {"EDUCATION": "EDUCATION_high_school"},
    "reference_numeric": "BILL_AMT1",
}


def write_taiwan(path, seed: int, n: int = TAIWAN_ROWS) -> dict:
    """Taiwan-credit-shaped raw CSV (UCI header, integer codes, NT$ amounts).

    Defaults follow EDUCATION code 3 (high school) with 4 % of rows
    flipped. The planted group must clear the median rule even though
    the twelve bill and payment columns are high-cardinality, so their
    RBF Grams are close to full rank and score high on their own.
    """
    rng = _rng(seed, 2)
    limit = np.clip(np.round(np.exp(rng.normal(np.log(140000), 0.75, n)) / 10000), 1, 100) * 10000
    sex = np.where(rng.random(n) < 0.40, "1", "2")
    education = _pick(rng, TAIWAN_EDUCATION, n)
    marriage = _pick(rng, TAIWAN_MARRIAGE, n)
    age = np.clip(np.round(21 + rng.gamma(3.3, 4.3, n)), 21, 79)
    default = (education == "3") ^ (rng.random(n) < 0.04)
    pays = [_pick(rng, PAY_STATUS, n).tolist() for _ in range(6)]
    bills, payments = [], []
    for k in range(6):
        amount = np.round(np.exp(rng.normal(np.log(22000), 1.2, n)))
        amount = np.minimum(amount, 960000)
        u = rng.random(n)
        amount[u < 0.07 + 0.01 * k] = 0
        amount[u > 0.98] *= -0.05
        bills.append(_ints(np.round(amount)))
        paid = np.round(np.exp(rng.normal(np.log(2500), 1.1, n)))
        u = rng.random(n)
        paid[u < 0.45] = rng.choice(ROUND_PAYMENTS, size=int((u < 0.45).sum()))
        paid[u < 0.17 + 0.015 * k] = 0
        payments.append(_ints(paid))
    header = (
        ["ID", "LIMIT_BAL", "SEX", "EDUCATION", "MARRIAGE", "AGE"]
        + ["PAY_0", "PAY_2", "PAY_3", "PAY_4", "PAY_5", "PAY_6"]
        + [f"BILL_AMT{k}" for k in range(1, 7)]
        + [f"PAY_AMT{k}" for k in range(1, 7)]
        + ["default.payment.next.month"]
    )
    columns = (
        [_ints(np.arange(1, n + 1)), _ints(limit), sex.tolist(), education.tolist(),
         marriage.tolist(), _ints(age)]
        + pays + bills + payments
        + [np.where(default, "1", "0").tolist()]
    )
    _write_csv(path, header, columns)
    return dict(TAIWAN_TRUTH, rows=n, missing_rows=0)


def write_validation_suite(directory, seed: int) -> dict:
    """CSV and schema of `default_validation_spec(seed)` (4,000 rows).

    Six planted binaries with corruption 0.1, 0.15, 0.2, 0.25, 0.3, 0.4
    and two numeric noise columns; the ones with corruption <= 0.25 are
    the features the median rule should flag.
    """
    from fairdep.data import write_dataset_csv
    from fairdep.synth import default_validation_spec, generate

    directory = Path(directory)
    dataset, truth = generate(default_validation_spec(seed))
    csv_path = directory / "synth.csv"
    schema_path = directory / "synth.schema.json"
    write_dataset_csv(dataset, csv_path, negative=dataset.negative_display)
    schema_path.write_text(json.dumps(dataset.schema.to_dict(), indent=2) + "\n", encoding="utf-8")
    planted = truth["planted"]
    return {
        "schema_path": str(schema_path),
        "planted": sorted(planted),
        "flagged": sorted(k for k, v in planted.items() if v["corruption"] <= 0.25),
        "corruption": {k: v["corruption"] for k, v in planted.items()},
        "rows": dataset.n,
        "missing_rows": 0,
    }
