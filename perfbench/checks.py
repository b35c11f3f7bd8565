"""Output checks for the benchmark's CLI jobs.

Each check takes the parsed JSON the program wrote and the generator's
truth record and returns a list of problems; an empty list passes. The
dense reference check recomputes a few scores with the public dense
operators `gram` and `regularized_operator`, outside any timed region.
"""

from __future__ import annotations

import math

import numpy as np

REL_TOL = 1e-6
ABS_TOL = 1e-9  # for scores below SMALL_SCORE
SMALL_SCORE = 1e-3
SPEARMAN_EO_FLOOR = 0.8
FOLDS = 10


def check_report(report: dict) -> list[str]:
    """Scores in [0, 1], and flags that follow from them by the median rule."""
    problems = []
    scores = report["scores"]
    for fs in scores:
        subs = [s["d"] for s in fs["subfeatures"]]
        for name, d in ((s["name"], s["d"]) for s in fs["subfeatures"]):
            if not (isinstance(d, (int, float)) and math.isfinite(d) and 0.0 <= d <= 1.0):
                problems.append(f"score of {name} is {d!r}, not a finite number in [0, 1]")
        if subs and fs["d"] != max(subs):
            problems.append(f"feature {fs['feature']} scores {fs['d']}, not the max {max(subs)}")
    if problems:
        return problems
    median = float(np.median([fs["d"] for fs in scores]))
    if report["threshold"] != median:
        problems.append(f"threshold {report['threshold']} is not the median {median}")
    flagged = [fs for fs in scores if fs["candidate"] and fs["d"] >= report["threshold"]]
    if report["sensitive_features"] != [fs["feature"] for fs in flagged]:
        problems.append(
            f"flagged {report['sensitive_features']}, the median rule flags "
            f"{[fs['feature'] for fs in flagged]}"
        )
    if report["sensitive_groups"] != [fs["argmax"] for fs in flagged]:
        problems.append(f"groups {report['sensitive_groups']} are not the flagged argmaxes")
    return problems


def check_planted(report: dict, planted: dict[str, str]) -> list[str]:
    """Every planted feature is flagged, with its planted group as argmax."""
    groups = dict(zip(report["sensitive_features"], report["sensitive_groups"]))
    problems = []
    for feature, group in planted.items():
        if feature not in groups:
            problems.append(f"planted feature {feature} is not flagged")
        elif groups[feature] != group:
            problems.append(f"planted feature {feature} has argmax {groups[feature]}, not {group}")
    return problems


def subfeature_scores(report: dict) -> dict[str, float]:
    return {s["name"]: s["d"] for fs in report["scores"] for s in fs["subfeatures"]}


def reference_scores(data_path, schema_path, report: dict, columns) -> dict[str, float]:
    """Dense `tr(R_x R_y)` for the named subfeatures on the report's rows.

    Rebuilds the audited rows with the report's own subsample settings,
    then scores each column against the label with the public n x n
    operators. Costs one dense solve per column plus one for the label.
    """
    from fairdep.data import Schema, encode, load_dataset
    from fairdep.dependence import regularized_operator
    from fairdep.detector import subsample
    from fairdep.kernels import KernelSpec, gram

    config = report["config"]
    dataset = load_dataset(data_path, Schema.from_json(schema_path))
    working = subsample(dataset, max_n=config["subsample_max_n"], seed=config["subsample_seed"])
    encoded = encode(working)
    spec = KernelSpec(config["kernel"])
    eps = config["epsilon"]
    ry = regularized_operator(gram(working.y.astype(np.float64), spec), eps)
    index = {s.name: s.column for s in encoded.subfeatures}
    return {
        name: max(float(np.vdot(regularized_operator(gram(encoded.column(index[name]), spec), eps), ry)), 0.0)
        for name in columns
    }


def check_reference(report: dict, reference: dict[str, float]) -> list[str]:
    """Reported scores agree with the dense reference within tolerance."""
    got = subfeature_scores(report)
    problems = []
    for name, want in reference.items():
        have = got.get(name)
        if have is None:
            problems.append(f"report has no score for {name}")
            continue
        err = abs(have - want)
        ok = err <= ABS_TOL if want < SMALL_SCORE else err <= REL_TOL * abs(want)
        if not ok:
            problems.append(f"{name}: reported {have!r}, dense reference {want!r}")
    return problems


def check_validation(report: dict, validation: dict, truth: dict) -> list[str]:
    """Folds, records and rank correlations of the planted-signal suite."""
    problems = []
    if len(validation["fold_accuracy"]) != FOLDS:
        problems.append(f"{len(validation['fold_accuracy'])} fold accuracies, expected {FOLDS}")
    parents = sorted(r["parent"] for r in validation["subfeatures"])
    if parents != sorted(truth["planted"]):
        problems.append(f"validation records for {parents}, expected {sorted(truth['planted'])}")
    if sorted(report["sensitive_features"]) != truth["flagged"]:
        problems.append(f"flagged {sorted(report['sensitive_features'])}, expected {truth['flagged']}")
    for key, rho in validation["spearman"].items():
        if rho is None or not rho > 0:
            problems.append(f"spearman[{key}] = {rho}, expected > 0")
    eo = validation["spearman"].get("f_eo")
    if eo is None or eo < SPEARMAN_EO_FLOOR:
        problems.append(f"spearman[f_eo] = {eo}, expected >= {SPEARMAN_EO_FLOOR}")
    return problems
