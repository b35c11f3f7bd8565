import csv
import json

import numpy as np
import pytest

from fairdep.cli import EXIT_CONFIG, EXIT_DATA, EXIT_OK, main


@pytest.fixture
def toy_files(tmp_path, toy_schema, toy_csv):
    schema_path = tmp_path / "toy.schema.json"
    schema_path.write_text(json.dumps(toy_schema.to_dict()), encoding="utf-8")
    return toy_csv, schema_path


@pytest.fixture
def synth_files(tmp_path):
    out = tmp_path / "gen"
    code = main(
        [
            "synth",
            "--n", "240",
            "--planted", "0.0,0.3",
            "--noise-binary", "1",
            "--noise-numeric", "1",
            "--seed", "5",
            "--out", str(out),
        ]
    )
    assert code == EXIT_OK
    return out / "synth.csv", out / "synth.schema.json"


def test_synth_writes_loadable_pair(synth_files):
    data, schema_path = synth_files
    assert data.exists() and schema_path.exists()
    from fairdep import Schema, load_dataset

    ds = load_dataset(data, Schema.from_json(schema_path))
    assert ds.n == 240
    truth = json.loads((data.parent / "synth.truth.json").read_text())
    assert "planted0_p00" in truth["planted"]


def test_audit_runs_and_writes_report(tmp_path, synth_files):
    data, schema_path = synth_files
    out = tmp_path / "audit"
    code = main(
        ["audit", "--data", str(data), "--schema", str(schema_path), "--out", str(out), "--seed", "1"]
    )
    assert code == EXIT_OK
    doc = json.loads((out / "report.json").read_text())
    assert "planted0_p00" in doc["sensitive_features"]
    assert (out / "report.txt").exists()
    # full effective config recorded
    for key in ("kernel", "epsilon", "subsample_max_n", "subsample_seed", "threshold"):
        assert key in doc["config"]


def test_audit_rerun_is_bit_identical(tmp_path, synth_files):
    data, schema_path = synth_files
    out1, out2 = tmp_path / "a1", tmp_path / "a2"
    for out in (out1, out2):
        assert main(
            ["audit", "--data", str(data), "--schema", str(schema_path), "--out", str(out)]
        ) == EXIT_OK
    assert (out1 / "report.json").read_bytes() == (out2 / "report.json").read_bytes()


def test_audit_fixed_threshold(tmp_path, synth_files):
    data, schema_path = synth_files
    out = tmp_path / "fixed"
    code = main(
        [
            "audit",
            "--data", str(data),
            "--schema", str(schema_path),
            "--threshold", "0.5",
            "--out", str(out),
        ]
    )
    assert code == EXIT_OK
    doc = json.loads((out / "report.json").read_text())
    assert doc["threshold"] == 0.5
    assert doc["config"]["threshold_mode"] == "fixed"
    for entry in doc["scores"]:
        if entry["feature"] in doc["sensitive_features"]:
            assert entry["d"] >= 0.5


def test_missing_schema_is_config_error(tmp_path, synth_files):
    data, _ = synth_files
    out = tmp_path / "none"
    code = main(
        ["audit", "--data", str(data), "--schema", str(tmp_path / "nope.json"), "--out", str(out)]
    )
    assert code == EXIT_CONFIG
    assert not (out / "report.json").exists()


def test_degenerate_data_is_data_error(tmp_path, toy_files):
    toy_csv, schema_path = toy_files
    bad = tmp_path / "bad.csv"
    bad.write_text(
        "gender,ncrimes,age,recid\nmale,2,30-60,yes\nfemale,0,<30,yes\n", encoding="utf-8"
    )
    code = main(["audit", "--data", str(bad), "--schema", str(schema_path), "--out", str(tmp_path / "o")])
    assert code == EXIT_DATA


def test_bad_threshold_is_config_error(tmp_path, synth_files):
    data, schema_path = synth_files
    code = main(
        [
            "audit",
            "--data", str(data),
            "--schema", str(schema_path),
            "--threshold", "sometimes",
            "--out", str(tmp_path / "o"),
        ]
    )
    assert code == EXIT_CONFIG


def test_encode_toy_matches_extended_matrix(tmp_path, toy_files):
    toy_csv, schema_path = toy_files
    out = tmp_path / "enc"
    code = main(["encode", "--data", str(toy_csv), "--schema", str(schema_path), "--out", str(out)])
    assert code == EXIT_OK
    with open(out / "encoded.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0][:6] == [
        "gender_male",
        "gender_female",
        "ncrimes",
        "age_<30",
        "age_30-60",
        "age_>60",
    ]
    got = np.array([[float(v) for v in row[:6]] for row in rows[1:]])
    from conftest import TOY_EXTENDED

    np.testing.assert_array_equal(got, TOY_EXTENDED)


def test_encode_numeric_only_identity(tmp_path):
    src = tmp_path / "nums.csv"
    src.write_text("a,b,y\n1.5,2,1\n-3.25,4,0\n0,6,1\n", encoding="utf-8")
    schema = {
        "columns": [{"name": "a", "kind": "numeric"}, {"name": "b", "kind": "numeric"}],
        "label": {"name": "y", "positive": "1"},
    }
    schema_path = tmp_path / "nums.schema.json"
    schema_path.write_text(json.dumps(schema), encoding="utf-8")
    out = tmp_path / "enc"
    assert main(["encode", "--data", str(src), "--schema", str(schema_path), "--out", str(out)]) == EXIT_OK
    with open(out / "encoded.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["a", "b", "y"]
    assert [r[:2] for r in rows[1:]] == [["1.5", "2"], ["-3.25", "4"], ["0", "6"]]


def test_validate_writes_scatter_and_report(tmp_path, synth_files):
    data, schema_path = synth_files
    out = tmp_path / "val"
    code = main(
        [
            "validate",
            "--data", str(data),
            "--schema", str(schema_path),
            "--folds", "4",
            "--trees", "20",
            "--seed", "3",
            "--out", str(out),
        ]
    )
    assert code == EXIT_OK
    doc = json.loads((out / "validation.json").read_text())
    assert doc["config"]["folds"] == 4
    assert doc["config"]["forest"]["n_trees"] == 20
    with open(out / "scatter.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["subfeature", "kernel", "nocco", "f_pe", "f_ep", "f_eo", "f_oae", "accuracy"]
    assert len(rows) > 1


def test_validate_degenerate_folds_error(tmp_path, toy_files):
    toy_csv, schema_path = toy_files
    code = main(
        [
            "validate",
            "--data", str(toy_csv),
            "--schema", str(schema_path),
            "--folds", "2",
            "--out", str(tmp_path / "o"),
        ]
    )
    assert code == EXIT_DATA


def test_validate_exclude_sensitive_flag(tmp_path, synth_files):
    data, schema_path = synth_files
    out = tmp_path / "valx"
    code = main(
        [
            "validate",
            "--data", str(data),
            "--schema", str(schema_path),
            "--folds", "4",
            "--trees", "10",
            "--exclude-sensitive-from-training",
            "--out", str(out),
        ]
    )
    assert code == EXIT_OK
    doc = json.loads((out / "validation.json").read_text())
    assert doc["config"]["exclude_sensitive"] is True
    assert doc["config"]["excluded_features"]


def test_both_kernels_produce_comparable_reports(tmp_path, synth_files):
    data, schema_path = synth_files
    reports = {}
    for kernel in ("rbf", "linear"):
        out = tmp_path / kernel
        assert main(
            [
                "audit",
                "--data", str(data),
                "--schema", str(schema_path),
                "--kernel", kernel,
                "--out", str(out),
            ]
        ) == EXIT_OK
        reports[kernel] = json.loads((out / "report.json").read_text())
    assert reports["rbf"]["config"]["kernel"] == "rbf"
    assert reports["linear"]["config"]["kernel"] == "linear"
    assert set(reports["rbf"]["sensitive_features"]) == set(reports["linear"]["sensitive_features"])


def test_linear_audit_of_large_magnitude_columns_succeeds(tmp_path):
    # lognormal(11, 1) and six-digit integer columns at n=1000 used to make
    # the dense linear Gram lose its ridge to rounding and exit 4
    from fairdep import Column, Schema

    rng = np.random.default_rng(3)
    n = 1000
    limit = rng.lognormal(11.0, 1.0, n)
    bill = rng.integers(10_000, 1_000_000, n)
    flag = rng.random(n) < 0.4
    label = np.log(limit) - 11.0 + rng.standard_normal(n) > 0
    data = tmp_path / "money.csv"
    with data.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["limit", "bill", "flag", "y"])
        for row in zip(limit, bill, flag, label):
            writer.writerow([repr(float(row[0])), int(row[1]), "a" if row[2] else "b", "1" if row[3] else "0"])
    schema = Schema(
        columns=(
            Column("limit", "numeric"),
            Column("bill", "numeric"),
            Column("flag", "binary", categories=("a", "b")),
        ),
        label="y",
        positive="1",
    )
    schema_path = tmp_path / "money.schema.json"
    schema_path.write_text(json.dumps(schema.to_dict()), encoding="utf-8")
    out = tmp_path / "out"
    code = main(
        ["audit", "--data", str(data), "--schema", str(schema_path), "--kernel", "linear", "--out", str(out)]
    )
    assert code == EXIT_OK
    doc = json.loads((out / "report.json").read_text())
    assert all(0.0 <= fs["d"] <= 1.0 for fs in doc["scores"])
