"""Cross-validated check that high-dependence features show high disparity.

Protocol: train a random forest under label-stratified k-fold
cross-validation, compute the four group-fairness measures for every
indicator subfeature on each fold's held-out rows, average them across
the folds where they are defined, and pair each subfeature's mean
disparities with its dependence score. The Spearman rank correlation
between the two columns summarizes how well dependence predicts
disparity. A second entry point re-scores the features under both
kernels and reports how much the rankings and detected sets move.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace

import numpy as np

from .data import EncodedDataset
from .dependence import DependenceConfig
from .detector import DependenceReport, detect, score_features
from .errors import DataError
from .fairness import (
    MEASURE_KEYS,
    FairnessMeasures,
    fairness_measures,
    group_confusion,
    indicator_columns,
)
from .forest import ForestConfig, fit_predict
from .kernels import LINEAR, RBF, KernelSpec


def stratified_folds(y, folds: int, seed: int = 0) -> list[np.ndarray]:
    """Disjoint, exhaustive test-index sets with per-fold label balance.

    Each class's shuffled indices are dealt into `folds` chunks, so fold
    label proportions sit within one row of the global proportions.
    Raises DataError when a class has fewer members than folds (some
    fold would otherwise see a single class).
    """
    y = np.asarray(y).ravel()
    if folds < 2:
        raise ValueError(f"need at least 2 folds, got {folds}")
    if y.size < folds:
        raise DataError(f"cannot split {y.size} rows into {folds} folds")
    rng = np.random.default_rng(seed)
    parts: list[list[np.ndarray]] = [[] for _ in range(folds)]
    for value in (-1, 1):
        idx = np.flatnonzero(y == value)
        if idx.size < folds:
            raise DataError(
                f"class {value:+d} has {idx.size} samples, fewer than {folds} folds; "
                "a fold would contain a single class"
            )
        rng.shuffle(idx)
        for i, chunk in enumerate(np.array_split(idx, folds)):
            parts[i].append(chunk)
    return [np.sort(np.concatenate(chunks)) for chunks in parts]


@dataclass(frozen=True)
class CrossValResult:
    """Out-of-fold predictions: every row predicted exactly once."""

    fold_test_indices: tuple[np.ndarray, ...]
    predictions: np.ndarray
    fold_accuracy: tuple[float, ...]


def _fold_seed(seed: int, fold: int) -> int:
    return int(np.random.SeedSequence([seed, fold]).generate_state(1)[0])


def cross_validate(
    matrix,
    y,
    folds: int = 10,
    forest: ForestConfig = ForestConfig(),
    seed: int = 0,
    fold_map=map,
) -> CrossValResult:
    """Stratified k-fold fit/predict; deterministic under (seed, forest).

    Each fold is one `forest.fit_predict(train X, train y, test X,
    config)` call, a pure function of the fold's rows and its seed, and
    the folds are handed to `fold_map(fit_predict, *argument iterables)`.
    The builtin `map` (the default) runs them one after another in this
    process. A process pool's order-keeping `map` (such as
    `ProcessPoolExecutor.map`) runs them in parallel with the same
    result, bit for bit; a script that passes one needs an
    `if __name__ == "__main__":` guard, because spawned workers import
    the script's main module again.
    """
    X = np.asarray(matrix, dtype=np.float64)
    y = np.asarray(y).ravel()
    test_sets = stratified_folds(y, folds, seed)
    train_sets = [np.setdiff1d(np.arange(y.size), test_idx) for test_idx in test_sets]
    predicted = fold_map(
        fit_predict,
        (X[idx] for idx in train_sets),
        (y[idx] for idx in train_sets),
        (X[idx] for idx in test_sets),
        (replace(forest, seed=_fold_seed(forest.seed, fold)) for fold in range(folds)),
    )
    predictions = np.zeros(y.size, dtype=np.int64)
    accuracy = []
    for test_idx, pred in zip(test_sets, predicted):
        predictions[test_idx] = pred
        accuracy.append(float(np.mean(pred == y[test_idx])))
    return CrossValResult(
        fold_test_indices=tuple(test_sets),
        predictions=predictions,
        fold_accuracy=tuple(accuracy),
    )


@dataclass(frozen=True)
class SubfeatureValidation:
    """Fold-wise fairness of one subfeature paired with its dependence."""

    name: str
    parent: str
    nocco: float
    per_fold: tuple[FairnessMeasures, ...]
    means: dict
    undefined: dict


@dataclass(frozen=True)
class ValidationReport:
    records: tuple[SubfeatureValidation, ...]
    fold_accuracy: tuple[float, ...]
    spearman: dict
    config: dict

    def to_dict(self) -> dict:
        return {
            "config": self.config,
            "fold_accuracy": list(self.fold_accuracy),
            "spearman": self.spearman,
            "subfeatures": [
                {
                    "name": r.name,
                    "parent": r.parent,
                    "nocco": r.nocco,
                    "means": r.means,
                    "undefined_folds": r.undefined,
                    "folds": [m.as_dict() for m in r.per_fold],
                }
                for r in self.records
            ],
        }

    def to_json(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_dict(), fh, indent=2)
            fh.write("\n")

    def scatter_rows(self, kernel: str) -> list[dict]:
        """Plot-ready rows: one per subfeature, means plus CV accuracy."""
        acc = float(np.mean(self.fold_accuracy))
        rows = []
        for r in self.records:
            row = {"subfeature": r.name, "kernel": kernel, "nocco": r.nocco}
            row.update(r.means)
            row["accuracy"] = acc
            rows.append(row)
        return rows


def write_scatter_csv(report: ValidationReport, kernel: str, path) -> None:
    import csv

    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["subfeature", "kernel", "nocco", *MEASURE_KEYS, "accuracy"])
        for row in report.scatter_rows(kernel):
            writer.writerow(
                [
                    row["subfeature"],
                    row["kernel"],
                    f"{row['nocco']:.6g}",
                    *[("" if row[k] is None else f"{row[k]:.6g}") for k in MEASURE_KEYS],
                    f"{row['accuracy']:.6g}",
                ]
            )


def _mean_defined(values: list[float | None]) -> tuple[float | None, int]:
    defined = [v for v in values if v is not None]
    if not defined:
        return None, len(values)
    return float(np.mean(defined)), len(values) - len(defined)


def _average_ranks(x) -> np.ndarray:
    """Ranks 1..n; tied values share the mean of their ranks."""
    _, inverse, counts = np.unique(x, return_inverse=True, return_counts=True)
    ends = np.cumsum(counts)
    return (ends - (counts - 1) / 2)[inverse]


def _spearman(a, b) -> float:
    """Spearman rank correlation of two equal-length samples.

    Pearson correlation of the average ranks, taken as scipy's
    `spearmanr` takes it (the [1, 0] entry of `corrcoef` on the stacked
    ranks), so the two agree bit for bit. NaN when either input is
    constant.
    """
    ra, rb = _average_ranks(a), _average_ranks(b)
    if (ra == ra[0]).all() or (rb == rb[0]).all():
        return float("nan")
    return float(np.corrcoef(np.column_stack((ra, rb)), rowvar=False)[1, 0])


def _spearman_or_none(pairs) -> float | None:
    """Rank correlation, or None when degenerate (too few or constant)."""
    if len(pairs) < 3:
        return None
    a = np.array([p[0] for p in pairs])
    b = np.array([p[1] for p in pairs])
    if np.unique(a).size < 2 or np.unique(b).size < 2:
        return None
    return _spearman(a, b)


def validate(
    encoded: EncodedDataset,
    y,
    report: DependenceReport,
    folds: int = 10,
    forest: ForestConfig = ForestConfig(),
    seed: int = 0,
    exclude_sensitive: bool = False,
    fold_map=map,
) -> ValidationReport:
    """Fairness-vs-dependence pairing for every indicator subfeature.

    All subfeatures with a 0/1 column are evaluated, not only detected
    ones; the point is the full dependence-to-disparity scatter. With
    `exclude_sensitive`, the columns of detected sensitive features are
    hidden from the classifier (the fairness split still uses them).

    The classifier is `RandomForest` under its one protocol (bootstrap
    resamples, floor(sqrt(m)) features per split, trees grown to
    purity); only `forest.n_trees` and `forest.seed` vary. The config's
    "forest" record states that protocol as `max_depth` null,
    `max_features` "sqrt" and `bootstrap` true.

    The folds run in this process unless `fold_map` says otherwise; it
    is passed to `cross_validate`, whose docstring states the contract.
    """
    y = np.asarray(y).ravel()
    train_matrix = encoded.matrix
    excluded: list[str] = []
    if exclude_sensitive:
        drop = set()
        sensitive = set(report.sensitive_features)
        for j, col in enumerate(encoded.schema.columns):
            if col.name in sensitive:
                drop.update(encoded.parent_columns[j])
                excluded.append(col.name)
        keep = [i for i in range(encoded.width) if i not in drop]
        if not keep:
            raise DataError("excluding sensitive features leaves no training columns")
        train_matrix = encoded.matrix[:, keep]

    cv = cross_validate(train_matrix, y, folds=folds, forest=forest, seed=seed, fold_map=fold_map)

    records = []
    for c in indicator_columns(encoded):
        sub = encoded.subfeatures[c]
        try:
            d = report.subfeature_score(sub.name)
        except KeyError:
            raise ValueError(
                f"dependence report does not cover subfeature {sub.name!r}; "
                "it must come from the same encoded dataset"
            ) from None
        fold_measures = []
        for test_idx in cv.fold_test_indices:
            gc = group_confusion(
                cv.predictions[test_idx], y[test_idx], encoded.matrix[test_idx, c]
            )
            fold_measures.append(fairness_measures(gc))
        means = {}
        undefined = {}
        for key in MEASURE_KEYS:
            mean, n_undefined = _mean_defined([m.as_dict()[key] for m in fold_measures])
            means[key] = mean
            undefined[key] = n_undefined
        records.append(
            SubfeatureValidation(
                name=sub.name,
                parent=sub.parent_name,
                nocco=d,
                per_fold=tuple(fold_measures),
                means=means,
                undefined=undefined,
            )
        )

    spearman = {}
    for key in MEASURE_KEYS:
        pairs = [(r.nocco, r.means[key]) for r in records if r.means[key] is not None]
        spearman[key] = _spearman_or_none(pairs)

    config = {
        "folds": folds,
        "forest": {
            "n_trees": forest.n_trees,
            "max_depth": None,
            "max_features": "sqrt",
            "bootstrap": True,
            "seed": forest.seed,
        },
        "cv_seed": seed,
        "exclude_sensitive": exclude_sensitive,
        "excluded_features": excluded,
        "dependence": report.config,
    }
    return ValidationReport(
        records=tuple(records),
        fold_accuracy=cv.fold_accuracy,
        spearman=spearman,
        config=config,
    )


@dataclass(frozen=True)
class ArgmaxFlip:
    """A feature whose top-scoring subfeature differs between kernels."""

    feature: str
    group_rbf: str
    group_linear: str
    relative_gap: float  # max over kernels of (top - other) / top


@dataclass(frozen=True)
class KernelConsistency:
    spearman_features: float
    sensitive_rbf: tuple[str, ...]
    sensitive_linear: tuple[str, ...]
    only_rbf: tuple[str, ...]
    only_linear: tuple[str, ...]
    argmax_flips: tuple[ArgmaxFlip, ...]
    report_rbf: DependenceReport
    report_linear: DependenceReport

    def to_dict(self) -> dict:
        return {
            "spearman_features": self.spearman_features,
            "sensitive_rbf": list(self.sensitive_rbf),
            "sensitive_linear": list(self.sensitive_linear),
            "only_rbf": list(self.only_rbf),
            "only_linear": list(self.only_linear),
            "argmax_flips": [
                {
                    "feature": f.feature,
                    "group_rbf": f.group_rbf,
                    "group_linear": f.group_linear,
                    "relative_gap": f.relative_gap,
                }
                for f in self.argmax_flips
            ],
        }


def _flip_gap(fs, other_argmax: int) -> float:
    top = fs.subfeature_scores[fs.argmax]
    other = fs.subfeature_scores[other_argmax]
    if top <= 0:
        return 0.0
    return (top - other) / top


def kernel_consistency(encoded: EncodedDataset, y) -> KernelConsistency:
    """Score under both kernels and compare rankings and detected sets.

    Each kernel scores with the default `DependenceConfig` (epsilon 1e-6)
    and flags by the median rule, as `fairdep audit` does by default.
    """
    reports = {}
    for kind in (RBF, LINEAR):
        scores = score_features(encoded, y, DependenceConfig(KernelSpec(kind)))
        reports[kind] = detect(scores, config={"kernel": kind})
    r_rbf, r_lin = reports[RBF], reports[LINEAR]
    d_rbf = [fs.score for fs in r_rbf.scores]
    d_lin = [fs.score for fs in r_lin.scores]
    if len(d_rbf) >= 3:
        rho = _spearman(d_rbf, d_lin)
    else:
        rho = 1.0 if np.argsort(d_rbf).tolist() == np.argsort(d_lin).tolist() else -1.0

    s_rbf = set(r_rbf.sensitive_features)
    s_lin = set(r_lin.sensitive_features)
    flips = []
    for fs_rbf, fs_lin in zip(r_rbf.scores, r_lin.scores):
        if fs_rbf.argmax != fs_lin.argmax:
            gap = max(_flip_gap(fs_rbf, fs_lin.argmax), _flip_gap(fs_lin, fs_rbf.argmax))
            flips.append(
                ArgmaxFlip(
                    feature=fs_rbf.name,
                    group_rbf=fs_rbf.argmax_name,
                    group_linear=fs_lin.argmax_name,
                    relative_gap=gap,
                )
            )
    return KernelConsistency(
        spearman_features=rho,
        sensitive_rbf=r_rbf.sensitive_features,
        sensitive_linear=r_lin.sensitive_features,
        only_rbf=tuple(sorted(s_rbf - s_lin)),
        only_linear=tuple(sorted(s_lin - s_rbf)),
        argmax_flips=tuple(flips),
        report_rbf=r_rbf,
        report_linear=r_lin,
    )
