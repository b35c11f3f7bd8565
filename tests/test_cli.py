import contextlib
import csv
import json
import os
import re
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from fairdep import DataError, ForestConfig, NumericsError, RandomForest, SchemaError, encode
from fairdep import cli as cli_module
from fairdep import data as data_module
from fairdep import validation as validation_module
from fairdep import workers as workers_module
from fairdep.dependence import DependenceConfig, regularized_operator
from fairdep.detector import FeatureScore, detect, score_features, subsample
from fairdep.kernels import KernelSpec
from fairdep.synth import PlantedFeature, SynthSpec, generate
from fairdep.cli import (
    EXIT_CONFIG,
    EXIT_DATA,
    EXIT_NUMERIC,
    EXIT_OK,
    EXIT_WORKER,
    _run_audit_pipeline,
    build_parser,
    main,
)
from fairdep.validation import stratified_folds, validate, write_scatter_csv
from fairdep.workers import FORKS

from conftest import needs_fork, recording_forks, split_loads

REPO = Path(__file__).resolve().parents[1]
_SCORES = [FeatureScore("a", "binary", True, ("a_1",), (0.5,), 0.5, 0)]


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


def test_tiny_epsilon_error_names_epsilon(tmp_path, synth_files, capsys):
    # the RBF value Gram is positive definite; a ridge n*eps of 2.4e-16 is
    # below the banded factor's rounding, and the message says so
    data, schema_path = synth_files
    argv = ["audit", "--data", str(data), "--schema", str(schema_path), "--out", str(tmp_path / "o")]
    assert main(argv + ["--epsilon", "1e-18"]) == EXIT_NUMERIC
    err = capsys.readouterr().err
    assert "epsilon = 1e-18" in err and "n*epsilon = 2.4e-16" in err
    assert "raise --epsilon" in err


def test_audit_imports_no_numpy_or_scipy_module(synth_files, tmp_path):
    # what `import fairdep.cli` leaves for a command to load would count
    # into the command's own time
    data, schema_path = synth_files
    argv = ["audit", "--data", str(data), "--schema", str(schema_path), "--out", str(tmp_path / "o")]
    code = (
        "import sys, fairdep.cli; before = set(sys.modules); "
        f"code = fairdep.cli.main({argv!r}); "
        "print(code, *sorted(m for m in set(sys.modules) - before if m.startswith(('numpy.', 'scipy'))))"
    )
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split()[-1:] == [str(EXIT_OK)], done.stdout
    if not FORKS:
        return
    # read in two byte ranges, the command imports no module of any kind
    # but the text codec that opening the CSV imports on either path, and
    # reaps its one reader
    code = f"""
import os, sys, fairdep.cli, fairdep.data
fairdep.data.SPLIT_BYTES = 1
os.sched_getaffinity = lambda pid: {{0, 1}}
fork, forks = os.fork, []
os.fork = lambda: forks.append(1) or fork()
before = set(sys.modules)
code = fairdep.cli.main({argv!r})
new = sorted(set(sys.modules) - before - {{"encodings.utf_8_sig"}})
try:
    os.waitpid(-1, os.WNOHANG)
except ChildProcessError:
    print(code, len(forks), *new)
"""
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split()[-2:] == [str(EXIT_OK), "1"], done.stdout


def test_out_naming_a_file_is_config_error(tmp_path, synth_files, capsys):
    data, schema_path = synth_files
    taken = tmp_path / "taken"
    taken.write_text("keep me", encoding="utf-8")
    for out in (taken, taken / "sub"):
        argv = ["audit", "--data", str(data), "--schema", str(schema_path), "--out", str(out)]
        assert main(argv) == EXIT_CONFIG
        assert "not a directory" in capsys.readouterr().err
    assert taken.read_text(encoding="utf-8") == "keep me"


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


# every flag or schema value that exits 2 does so through SchemaError, with
# no traceback, now that main no longer maps any ValueError to exit 2
_CONFIG_ERRORS = [
    ("audit", ["--epsilon", "-1"], "epsilon must be positive"),
    ("audit", ["--epsilon", "nan"], "epsilon must be positive"),
    ("audit", ["--max-n", "1"], "max_n must be at least 2"),
    ("audit", ["--threshold=inf"], "finite"),
    ("audit", ["--seed", "-1"], "--seed must be nonnegative"),
    ("validate", ["--folds", "1"], "at least 2 folds"),
    ("validate", ["--trees", "0"], "n_trees must be at least 1"),
    ("validate", ["--seed", "-1"], "--seed must be nonnegative"),
    ("synth", ["--n", "5"], "n must be at least 10"),
    ("synth", ["--balance", "2"], "balance must lie in"),
    ("synth", ["--planted", "0.1:2"], "fraction must lie in"),
    ("synth", ["--planted", ","], "--planted lists no features"),
    ("synth", ["--seed", "-1"], "--seed must be nonnegative"),
]


@pytest.mark.parametrize(
    "command, flags, message", _CONFIG_ERRORS, ids=[" ".join([c, *f]) for c, f, _ in _CONFIG_ERRORS]
)
def test_bad_settings_are_config_errors(tmp_path, synth_files, capsys, command, flags, message):
    data, schema_path = synth_files
    argv = [command, "--out", str(tmp_path / "o")]
    if command != "synth":
        argv += ["--data", str(data), "--schema", str(schema_path)]
    assert main(argv + flags) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("error (config): ") and message in err
    # a bad setting stops the run before any work, so nothing is written
    assert not (tmp_path / "o" / "report.json").exists()


def test_mistyped_schema_value_is_config_error(tmp_path, synth_files, capsys):
    data, schema_path = synth_files
    doc = json.loads(schema_path.read_text(encoding="utf-8"))
    band = {"name": "band", "kind": "categorical", "categories": ["a", "b"], "bins": ["x"]}
    doc["columns"].append(band)
    bad = tmp_path / "bad.schema.json"
    bad.write_text(json.dumps(doc), encoding="utf-8")
    argv = ["audit", "--data", str(data), "--schema", str(bad), "--out", str(tmp_path / "o")]
    assert main(argv) == EXIT_CONFIG
    assert "malformed schema document" in capsys.readouterr().err


@pytest.mark.parametrize("epsilon", ["1e308", "1e302"])
def test_epsilon_too_large_for_n_is_config_error(tmp_path, synth_files, capsys, epsilon):
    # n^3 * epsilon overflows from about 1.3e301 at n = 240: 1e308 ended in a
    # ZeroDivisionError, and 1e302 scored every column 0 and flagged them all
    data, schema_path = synth_files
    out = tmp_path / "o"
    argv = ["audit", "--data", str(data), "--schema", str(schema_path), "--out", str(out)]
    assert main(argv + ["--epsilon", epsilon]) == EXIT_CONFIG
    assert f"epsilon = {float(epsilon):g} is too large for n = 240" in capsys.readouterr().err
    assert not (out / "report.json").exists()


def test_internal_value_error_is_not_a_config_error(tmp_path, synth_files, monkeypatch):
    # a bug inside the pipeline is reported as itself, not as exit 2
    def broken(*args, **kwargs):
        raise ValueError("an internal bug")

    monkeypatch.setattr(cli_module, "audit_dataset", broken)
    data, schema_path = synth_files
    argv = ["audit", "--data", str(data), "--schema", str(schema_path), "--out", str(tmp_path / "o")]
    with pytest.raises(ValueError, match="an internal bug"):
        main(argv)


@pytest.mark.parametrize("seed", range(20))
def test_non_finite_cell_is_data_error_on_every_subsample_seed(tmp_path, synth_files, capsys, seed):
    # the cell's row is drawn by few 60-row subsamples; the audit used to pass on the others
    data, schema_path = synth_files
    with data.open(encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    rows[101][rows[0].index("noise_num0")] = "nan"
    bad = tmp_path / "nan.csv"
    with bad.open("w", encoding="utf-8", newline="") as fh:
        csv.writer(fh).writerows(rows)
    argv = ["audit", "--data", str(bad), "--schema", str(schema_path), "--out", str(tmp_path / "o")]
    assert main(argv + ["--max-n", "60", "--seed", str(seed)]) == EXIT_DATA
    assert "column 'noise_num0': non-finite value 'nan'" in capsys.readouterr().err


def test_colliding_encoded_names_are_config_error(tmp_path, capsys):
    schema = {
        "columns": [
            {"name": "a", "kind": "categorical", "categories": ["b", "c"]},
            {"name": "a_b", "kind": "numeric"},
        ],
        "label": {"name": "y", "positive": "1"},
    }
    schema_path = tmp_path / "s.json"
    schema_path.write_text(json.dumps(schema), encoding="utf-8")
    data = tmp_path / "d.csv"
    data.write_text("a,a_b,y\nb,0,1\nc,1,0\nb,1,1\nc,0,0\n", encoding="utf-8")
    for command in ("audit", "encode"):
        argv = [command, "--data", str(data), "--schema", str(schema_path), "--out", str(tmp_path / "o")]
        assert main(argv) == EXIT_CONFIG
        assert "columns 'a' and 'a_b' both encode as 'a_b'" in capsys.readouterr().err


@pytest.mark.parametrize(
    "build",
    [
        lambda: DependenceConfig(epsilon=-1.0),
        lambda: KernelSpec("poly"),
        lambda: ForestConfig(n_trees=0),
        lambda: SynthSpec(n=5),
        lambda: PlantedFeature(0.7),
        lambda: generate(SynthSpec(planted=(PlantedFeature(0.1, 0.9),), balance=0.5)),
        lambda: subsample(generate(SynthSpec())[0], max_n=1),
        lambda: stratified_folds(np.array([1, -1, 1, -1]), 1),
        lambda: detect(_SCORES, threshold=np.inf),
        lambda: detect(_SCORES, threshold="mean"),
    ],
    ids=[
        "DependenceConfig", "KernelSpec", "ForestConfig", "SynthSpec", "PlantedFeature",
        "planted-indicator", "subsample", "stratified_folds", "detect-inf", "detect-mode",
    ],
)
def test_setting_checks_raise_schema_error(build):
    with pytest.raises(SchemaError):
        build()


def _validate_without_columns():
    # every feature is flagged at a threshold below every score, then excluded
    encoded = encode(generate(SynthSpec(n=40, noise_numeric=0))[0])
    report = detect(score_features(encoded), threshold=-1.0)
    return validate(encoded, report, folds=2, exclude_sensitive=True)


@pytest.mark.parametrize(
    "build, error, message",
    [
        (lambda: regularized_operator(np.eye(3), epsilon=0.0), ValueError,
         "epsilon must be positive, got 0.0"),
        (lambda: detect(()), ValueError, "no feature scores to threshold"),
        (lambda: RandomForest().fit(np.zeros((4, 2)), [1, -1, 1]), ValueError,
         "X (4, 2) and y (3,) disagree"),
        (lambda: SynthSpec(noise_binary=-1), SchemaError,
         "noise feature counts must be nonnegative"),
        (lambda: stratified_folds(np.array([1, -1, 1]), 5), DataError,
         "cannot split 3 rows into 5 folds"),
        (_validate_without_columns, DataError,
         "excluding sensitive features leaves no training columns"),
    ],
    ids=["regularized_operator", "detect", "forest-fit", "SynthSpec-noise", "folds", "validate"],
)
def test_input_checks_name_the_fault(build, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        build()


def test_directory_path_is_config_error(tmp_path, synth_files, capsys):
    data, schema_path = synth_files
    for data_arg, schema_arg in ((tmp_path, schema_path), (data, tmp_path)):
        argv = ["audit", "--data", str(data_arg), "--schema", str(schema_arg), "--out", str(tmp_path / "o")]
        assert main(argv) == EXIT_CONFIG
        assert "file not found" in capsys.readouterr().err


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes on this platform")
def test_audit_reads_data_through_a_pipe(tmp_path, synth_files):
    # as `--data <(cat synth.csv)` hands it a /dev/fd path
    data, schema_path = synth_files
    fifo = tmp_path / "synth.fifo"
    os.mkfifo(fifo)
    writer = threading.Thread(target=fifo.write_bytes, args=(data.read_bytes(),))
    writer.start()
    try:
        code = main(["audit", "--data", str(fifo), "--schema", str(schema_path), "--out", str(tmp_path / "pipe")])
    finally:
        writer.join()
    assert code == EXIT_OK
    assert main(["audit", "--data", str(data), "--schema", str(schema_path), "--out", str(tmp_path / "file")]) == EXIT_OK
    piped = json.loads((tmp_path / "pipe" / "report.json").read_text(encoding="utf-8"))
    filed = json.loads((tmp_path / "file" / "report.json").read_text(encoding="utf-8"))
    assert piped["config"].pop("data") == str(fifo)
    filed["config"].pop("data")
    assert piped == filed


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
    for split in (contextlib.nullcontext(), split_loads(2) if FORKS else contextlib.nullcontext()):
        with split:  # in two byte ranges, the byte is the second range's
            code = main(["audit", "--data", str(bad), "--schema", str(schema_path), "--out", str(tmp_path / "o")])
        assert code == EXIT_DATA
        assert f"byte {len(head) + 1}: not valid UTF-8" in capsys.readouterr().err


# -------------------------------------- validate's folds on forked workers

VALIDATION_OUTPUTS = ("validation.json", "scatter.csv")


def _validate_argv(synth_files, out, exclude=False, folds=3):
    data, schema_path = synth_files
    argv = ["validate", "--data", str(data), "--schema", str(schema_path)]
    argv += ["--folds", str(folds), "--trees", "5", "--seed", "3", "--out", str(out)]
    return argv + (["--exclude-sensitive-from-training"] if exclude else [])


def _outputs(out):
    return {name: (out / name).read_bytes() for name in VALIDATION_OUTPUTS}


def _in_process_outputs(argv):
    """What `validate` writes when every fold runs in this process."""
    args = build_parser().parse_args(argv)
    out = Path(args.out)
    out.mkdir()
    encoded, report = _run_audit_pipeline(args)
    with mock.patch.object(validation_module, "FORKS", False):
        vreport = validate(
            encoded,
            report,
            folds=args.folds,
            forest=ForestConfig(n_trees=args.trees, seed=args.seed),
            seed=args.seed,
            exclude_sensitive=args.exclude_sensitive_from_training,
        )
    vreport.to_json(out / "validation.json")
    write_scatter_csv(vreport, args.kernel, out / "scatter.csv")
    return _outputs(out)


@pytest.fixture
def two_cpu_forks(monkeypatch):
    """The pids forked in the test, with two usable CPUs; each must be reaped by its end."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    with recording_forks() as forked:
        yield forked


@pytest.mark.parametrize("exclude", [False, True], ids=["all-columns", "exclude-sensitive"])
def test_validate_worker_pool_matches_in_process_folds(tmp_path, synth_files, two_cpu_forks, exclude):
    # min(3 folds, 2 CPUs) forked workers, where the package forks
    assert main(_validate_argv(synth_files, tmp_path / "cli", exclude)) == EXIT_OK
    assert len(two_cpu_forks) == (2 if FORKS else 0)
    expected = _in_process_outputs(_validate_argv(synth_files, tmp_path / "ref", exclude))
    assert _outputs(tmp_path / "cli") == expected


@needs_fork
def test_validate_forks_one_worker_per_fold_when_cpus_outnumber_folds(tmp_path, synth_files, monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)), raising=False)
    with recording_forks() as forked:
        assert main(_validate_argv(synth_files, tmp_path / "cli")) == EXIT_OK
    assert len(forked) == 3
    assert _outputs(tmp_path / "cli") == _in_process_outputs(_validate_argv(synth_files, tmp_path / "ref"))


@pytest.mark.parametrize("cpu_source", ["affinity", "cpu_count", "no-fork"])
def test_validate_on_one_cpu_starts_no_process(tmp_path, synth_files, monkeypatch, cpu_source):
    def no_fork():
        raise AssertionError("a fold worker was forked")

    if cpu_source == "affinity":
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    elif cpu_source == "cpu_count":  # a platform without CPU affinity
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 1)
    else:  # two CPUs on a platform that does not fork
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        monkeypatch.setattr(validation_module, "FORKS", False)
    monkeypatch.setattr(os, "fork", no_fork, raising=False)
    assert main(_validate_argv(synth_files, tmp_path / "cli")) == EXIT_OK
    assert _outputs(tmp_path / "cli") == _in_process_outputs(_validate_argv(synth_files, tmp_path / "ref"))


@pytest.mark.parametrize("module", ["fairdep", "fairdep.cli"])
def test_validate_as_main_module_in_a_subprocess(tmp_path, synth_files, module):
    # the command forks its workers from a main module, which no worker imports again
    argv = _validate_argv(synth_files, tmp_path / "cli")
    done = subprocess.run(
        [sys.executable, "-m", module, *argv], capture_output=True, text=True, timeout=300
    )
    assert done.returncode == EXIT_OK, done.stderr
    assert _outputs(tmp_path / "cli") == _in_process_outputs(_validate_argv(synth_files, tmp_path / "ref"))


def test_validate_imports_no_process_pool(tmp_path, synth_files):
    argv = _validate_argv(synth_files, tmp_path / "cli")
    code = (
        "import os, sys, fairdep.cli; "
        "os.sched_getaffinity = lambda pid: {0, 1}; "
        f"code = fairdep.cli.main({argv!r}); "
        "print(code, *(m in sys.modules for m in ('multiprocessing', 'concurrent.futures.process')))"
    )
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1].split() == [str(EXIT_OK), "False", "False"]


def _failing_fold(X, y, X_test, config):
    with open(os.environ["FAIRDEP_TEST_FOLD_LOG"], "a") as log:
        log.write(f"{os.getpid()}\n")
    raise NumericsError("fold failed in a worker")


def _dying_fold(X, y, X_test, config):
    os._exit(1)


def _slow_fold(X, y, X_test, config):
    time.sleep(60)


def test_failed_fold_in_a_worker_drops_the_folds_not_started(tmp_path, synth_files, two_cpu_forks, monkeypatch, capsys):
    # each of the two workers stops at its first fold, which fails
    log = tmp_path / "folds.log"
    monkeypatch.setenv("FAIRDEP_TEST_FOLD_LOG", str(log))
    monkeypatch.setattr(validation_module, "fit_predict", _failing_fold)
    assert main(_validate_argv(synth_files, tmp_path / "cli", folds=10)) == EXIT_NUMERIC
    assert "error (numerics): fold failed in a worker" in capsys.readouterr().err
    started = log.read_text().splitlines()
    assert 1 <= len(started) <= (2 if FORKS else 1)
    assert len(set(started)) == len(started)
    assert len(two_cpu_forks) == (2 if FORKS else 0)


@needs_fork
def test_dead_worker_is_reported_with_its_own_exit_code(tmp_path, synth_files, two_cpu_forks, monkeypatch, capsys):
    monkeypatch.setattr(validation_module, "fit_predict", _dying_fold)
    assert main(_validate_argv(synth_files, tmp_path / "cli", folds=10)) == EXIT_WORKER
    err = capsys.readouterr().err
    assert re.fullmatch(r"error \(workers\): the worker of folds 1-5 ended without a result \(wait status 256\)\n", err), err
    assert len(two_cpu_forks) == 2


@needs_fork
def test_interrupted_validate_leaves_no_worker(tmp_path, synth_files, two_cpu_forks, monkeypatch):
    # SIGALRM stands in for the SIGINT of a Ctrl-C, once the parent waits on its workers
    monkeypatch.setattr(validation_module, "fit_predict", _slow_fold)
    result = workers_module._result

    def interrupt_soon(*args):
        signal.setitimer(signal.ITIMER_REAL, 0.2)
        return result(*args)

    def interrupt(signum, frame):
        raise KeyboardInterrupt

    monkeypatch.setattr(workers_module, "_result", interrupt_soon)
    previous = signal.signal(signal.SIGALRM, interrupt)
    started = time.monotonic()
    try:
        with pytest.raises(KeyboardInterrupt):
            main(_validate_argv(synth_files, tmp_path / "cli", folds=10))
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    assert time.monotonic() - started < 30
    assert len(two_cpu_forks) == 2


@needs_fork
@pytest.mark.parametrize("command", ["audit", "validate", "encode"])
def test_dead_csv_reader_is_reported_with_the_worker_exit_code(tmp_path, synth_files, forced_split, monkeypatch, capsys, command):
    parent, read_range = os.getpid(), data_module._read_range

    def dying(*args):
        if os.getpid() != parent:
            os._exit(1)
        return read_range(*args)

    monkeypatch.setattr(data_module, "_read_range", dying)
    data, schema_path = synth_files
    argv = [command, "--data", str(data), "--schema", str(schema_path), "--out", str(tmp_path / "o")]
    assert main(argv) == EXIT_WORKER
    err = capsys.readouterr().err
    # the one line load_dataset's BrokenExecutor gives, naming where the range starts
    want = r"error \(workers\): the reader of the CSV from byte \d+ ended without a result \(wait status 256\)\n"
    assert re.fullmatch(want, err), err
    assert len(forced_split) == 3


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


@pytest.mark.parametrize("kernel", ["linear", "rbf"])
def test_audit_scores_columns_at_any_finite_magnitude(tmp_path, kernel):
    # (b - a)^2 overflows for the two-valued column and ||z||^2 for the
    # other; each linear form runs on x / 2^e, and RBF's g takes its limit
    rng = np.random.default_rng(3)
    n = 60
    y = rng.random(n) < 0.5
    two = np.where(y ^ (rng.random(n) < 0.2), 1e160, 0.0)
    wide = (rng.standard_normal(n) + y) * 1e200
    data = tmp_path / "big.csv"
    rows = zip(two.tolist(), wide.tolist(), y.astype(int).tolist())
    data.write_text("two,wide,y\n" + "".join(f"{a!r},{b!r},{c}\n" for a, b, c in rows), encoding="utf-8")
    schema = {
        "columns": [{"name": "two", "kind": "numeric"}, {"name": "wide", "kind": "numeric"}],
        "label": {"name": "y", "positive": "1"},
    }
    schema_path = tmp_path / "big.schema.json"
    schema_path.write_text(json.dumps(schema), encoding="utf-8")
    argv = ["audit", "--data", str(data), "--schema", str(schema_path), "--kernel", kernel]
    assert main(argv + ["--out", str(tmp_path / "out")]) == EXIT_OK
    report = _strict_json((tmp_path / "out" / "report.json").read_text())
    scores = [feature["d"] for feature in report["scores"]]
    assert len(scores) == 2 and all(0.0 < d < 1.0 for d in scores)


def test_audit_standardizes_columns_at_any_finite_magnitude(tmp_path):
    # v.std() squares the raw values, which overflows past about 1e154;
    # a warning fails the test, as pytest turns warnings into errors here
    from fairdep import Schema, encode, load_dataset
    from fairdep.data import standardize_numeric

    rng = np.random.default_rng(5)
    n = 60
    y = rng.random(n) < 0.5
    scales = {"a": 1e160, "b": 1e200, "c": 1e307}
    columns = [(rng.standard_normal(n) + y) * s for s in scales.values()]
    data = tmp_path / "big.csv"
    rows = zip(*(c.tolist() for c in columns), y.astype(int).tolist())
    data.write_text("a,b,c,y\n" + "".join(",".join(map(repr, r)) + "\n" for r in rows), encoding="utf-8")
    schema = {
        "columns": [{"name": k, "kind": "numeric"} for k in scales],
        "label": {"name": "y", "positive": "1"},
    }
    schema_path = tmp_path / "big.schema.json"
    schema_path.write_text(json.dumps(schema), encoding="utf-8")
    argv = ["audit", "--data", str(data), "--schema", str(schema_path), "--standardize"]
    assert main(argv + ["--out", str(tmp_path / "out")]) == EXIT_OK
    report = _strict_json((tmp_path / "out" / "report.json").read_text())
    assert all(0.0 < feature["d"] < 1.0 for feature in report["scores"])
    encoded = encode(load_dataset(data, Schema.from_dict(schema)))
    std = standardize_numeric(encoded)
    for c in range(3):  # the z-scores of the column divided by 2^e, bit for bit
        v = encoded.matrix[:, c]
        w = np.ldexp(v, -int(np.frexp(np.abs(v).max())[1]))
        assert std.matrix[:, c].tobytes() == ((w - w.mean()) / w.std()).tobytes()


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
