import csv
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from fairdep.cli import EXIT_CONFIG, EXIT_DATA, EXIT_OK, main

REPO = Path(__file__).resolve().parents[1]


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


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_nonfinite_threshold_is_config_error(tmp_path, synth_files, value, capsys):
    data, schema_path = synth_files
    out = tmp_path / "o"
    argv = ["audit", "--data", str(data), "--schema", str(schema_path), "--out", str(out)]
    # "--threshold=-inf" in one word, or argparse reads "-inf" as an option
    assert main(argv + [f"--threshold={value}"]) == EXIT_CONFIG
    assert "finite" in capsys.readouterr().err
    assert not (out / "report.json").exists()


def test_infinite_epsilon_is_config_error(tmp_path, synth_files, capsys):
    data, schema_path = synth_files
    out = tmp_path / "o"
    argv = ["audit", "--data", str(data), "--schema", str(schema_path), "--out", str(out)]
    assert main(argv + ["--epsilon", "inf"]) == EXIT_CONFIG
    assert "finite" in capsys.readouterr().err
    assert not (out / "report.json").exists()


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


def test_directory_path_is_config_error(tmp_path, synth_files, capsys):
    data, schema_path = synth_files
    for data_arg, schema_arg in ((tmp_path, schema_path), (data, tmp_path)):
        argv = ["audit", "--data", str(data_arg), "--schema", str(schema_arg), "--out", str(tmp_path / "o")]
        assert main(argv) == EXIT_CONFIG
        assert "file not found" in capsys.readouterr().err


def test_malformed_csv_record_is_data_error(tmp_path, toy_files, capsys):
    # a quoted field over csv.field_size_limit() (131,072 characters)
    _, schema_path = toy_files
    huge = '"' + "x" * 200_000 + '"'
    for body, message in (
        (f"male,2,30-60,yes\n{huge},0,<30,no\n", "row 3: malformed CSV record"),
        # a short row earlier in the same block still raises first
        (f"male,2,30-60,yes\nfemale,0\n{huge},0,<30,no\n", "row 3: too few fields"),
    ):
        bad = tmp_path / "bad.csv"
        bad.write_text("gender,ncrimes,age,recid\n" + body, encoding="utf-8")
        code = main(["audit", "--data", str(bad), "--schema", str(schema_path), "--out", str(tmp_path / "o")])
        assert code == EXIT_DATA
        assert message in capsys.readouterr().err


def test_undecodable_csv_byte_is_data_error(tmp_path, toy_files, capsys):
    _, schema_path = toy_files
    head = b"gender,ncrimes,age,recid\n" + b"male,2,30-60,yes\nfemale,0,<30,no\n" * 400
    bad = tmp_path / "latin1.csv"
    bad.write_bytes(head + b"f\xe9male,1,>60,no\n")  # Latin-1 e-acute past the first 8 KiB
    code = main(["audit", "--data", str(bad), "--schema", str(schema_path), "--out", str(tmp_path / "o")])
    assert code == EXIT_DATA
    assert f"byte {len(head) + 1}: not valid UTF-8" in capsys.readouterr().err


# --------------------------------------- every command on real-shaped files


@pytest.fixture(scope="module")
def shaped_files(tmp_path_factory):
    """600-row Adult- and Taiwan-credit-shaped CSVs with their shipped schemas."""
    sys.path.insert(0, str(REPO / "perfbench"))
    import gen

    tmp = tmp_path_factory.mktemp("shaped")
    files = {}
    for shape, write in (("adult", gen.write_adult), ("taiwan", gen.write_taiwan)):
        truth = write(tmp / f"{shape}.csv", 1, n=600)
        files[shape] = (tmp / f"{shape}.csv", REPO / "data" / "schemas" / truth["schema"])
    return files


@pytest.mark.parametrize("standardize", [False, True], ids=["raw", "standardize"])
@pytest.mark.parametrize("kernel", ["rbf", "linear"])
@pytest.mark.parametrize("command", ["audit", "validate"])
@pytest.mark.parametrize("shape", ["adult", "taiwan"])
def test_commands_on_shaped_files(tmp_path, shaped_files, shape, command, kernel, standardize):
    import checks

    data, schema_path = shaped_files[shape]
    argv = [command, "--data", str(data), "--schema", str(schema_path), "--kernel", kernel]
    argv += ["--out", str(tmp_path)] + (["--standardize"] if standardize else [])
    if command == "validate":
        argv += ["--trees", "5", "--folds", "3"]
    assert main(argv) == EXIT_OK
    report = _strict_json((tmp_path / "report.json").read_text())
    if command == "validate":
        _strict_json((tmp_path / "validation.json").read_text())
    assert checks.check_report(report) == []


def _strict_json(text):
    """json.loads that refuses NaN and Infinity, which standard JSON does not have."""

    def refuse(constant):
        raise ValueError(f"not standard JSON: {constant}")

    return json.loads(text, parse_constant=refuse)


@pytest.mark.parametrize("shape", ["adult", "taiwan"])
def test_encode_on_shaped_files(tmp_path, shaped_files, shape):
    from fairdep import Schema, encode, load_dataset

    data, schema_path = shaped_files[shape]
    assert main(["encode", "--data", str(data), "--schema", str(schema_path), "--out", str(tmp_path)]) == EXIT_OK
    with open(tmp_path / "encoded.csv") as fh:
        rows = list(csv.reader(fh))
    encoded = encode(load_dataset(data, Schema.from_json(schema_path)))
    assert len(rows) == encoded.n + 1
    assert {len(row) for row in rows} == {encoded.width + 1}
