import copy
import json
from pathlib import Path

import pytest

import checks
import gen
from fairdep.cli import main


@pytest.fixture(scope="module")
def audited(tmp_path_factory):
    """A real audit of a small Adult-shaped file, plus its dense reference."""
    tmp = tmp_path_factory.mktemp("audit")
    data = tmp / "adult.csv"
    truth = gen.write_adult(data, 0, n=3000)
    schema = Path(__file__).resolve().parents[2] / "data" / "schemas" / truth["schema"]
    assert main(["audit", "--data", str(data), "--schema", str(schema), "--out", str(tmp), "--max-n", "500"]) == 0
    report = json.loads((tmp / "report.json").read_text())
    columns = sorted(truth["planted"].values()) + [truth["reference_numeric"]]
    reference = checks.reference_scores(data, schema, report, columns)
    # at 500 rows only the two strong planted groups reliably clear the median
    strong = {k: v for k, v in truth["planted"].items() if k != "gender"}
    return report, dict(truth, planted=strong), reference


def _problems(report, truth, reference):
    return (
        checks.check_report(report)
        + checks.check_planted(report, truth["planted"])
        + checks.check_reference(report, reference)
    )


def test_untouched_report_passes(audited):
    assert _problems(*audited) == []


def test_flipped_flag_fails(audited):
    report, truth, reference = audited
    tampered = copy.deepcopy(report)
    i = tampered["sensitive_features"].index("marital-status")
    del tampered["sensitive_features"][i]
    del tampered["sensitive_groups"][i]
    assert _problems(tampered, truth, reference)


def test_perturbed_score_fails(audited):
    report, truth, reference = audited
    tampered = copy.deepcopy(report)
    for fs in tampered["scores"]:
        if fs["feature"] == "capital-gain":
            fs["subfeatures"][0]["d"] *= 1 + 1e-4
            fs["d"] = fs["subfeatures"][0]["d"]
    assert checks.check_reference(tampered, reference)


def test_out_of_range_score_fails(audited):
    report, _, _ = audited
    tampered = copy.deepcopy(report)
    tampered["scores"][0]["subfeatures"][0]["d"] = float("nan")
    assert checks.check_report(tampered)


def test_validation_floor_and_sets():
    truth = {"planted": ["a", "b", "c"], "flagged": ["a", "b"]}
    report = {"sensitive_features": ["a", "b"]}
    validation = {
        "fold_accuracy": [0.8] * 10,
        "spearman": {"f_pe": 0.5, "f_ep": 0.9, "f_eo": 0.85, "f_oae": 0.6},
        "subfeatures": [{"parent": p} for p in ("a", "b", "c")],
    }
    assert checks.check_validation(report, validation, truth) == []
    low = copy.deepcopy(validation)
    low["spearman"]["f_eo"] = 0.7
    assert checks.check_validation(report, low, truth)
    assert checks.check_validation({"sensitive_features": ["a"]}, validation, truth)
    short = dict(validation, fold_accuracy=[0.8] * 9)
    assert checks.check_validation(report, short, truth)
