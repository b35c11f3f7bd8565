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

from dataclasses import dataclass, replace

import numpy as np
import numpy.random  # else the first np.random call imports it, inside a command

from .data import EncodedDataset, write_json
from .dependence import DependenceConfig
from .detector import DependenceReport, detect, score_features
from .errors import DataError, SchemaError
from .fairness import (
    MEASURE_KEYS,
    FairnessMeasures,
    fairness_measures,
    group_confusion,
    indicator_columns,
)
from .forest import ForestConfig, fit_predict
from .kernels import LINEAR, RBF, KernelSpec
from .workers import FORKS, forked, usable_cpus


def stratified_folds(y, folds: int, seed: int = 0) -> list[np.ndarray]:
    """Disjoint, exhaustive test-index sets with per-fold label balance.

    Each class's shuffled indices are dealt into `folds` chunks, so fold
    label proportions sit within one row of the global proportions.
    Raises DataError when a class has fewer members than folds (some
    fold would otherwise see a single class).
    """
    y = np.asarray(y).ravel()
    if folds < 2:
        raise SchemaError(f"need at least 2 folds, got {folds}")
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
) -> CrossValResult:
    """Stratified k-fold fit/predict; deterministic under (seed, forest).

    Each fold is one `forest.fit_predict(train X, train y, test X,
    config)` call, a pure function of the fold's rows and its seed, so
    the result is the same, bit for bit, wherever the folds run. Where
    the package forks (Linux, see `fairdep.workers`) and more than one CPU
    is usable, the folds are cut into min(folds, usable CPUs) contiguous
    runs, and a forked child runs each run's folds on rows of the matrix
    it inherited, so this process runs no fold and copies no training
    rows; a fold's exception is raised here, and ends its child's run.
    Otherwise the folds run in this process, one after another. So on
    Linux this function may `os.fork`; a caller whose process runs other
    threads that may hold locks should keep to one usable CPU
    (`os.sched_setaffinity`).
    """
    X = np.asarray(matrix, dtype=np.float64)
    y = np.asarray(y).ravel()
    test_sets = stratified_folds(y, folds, seed)

    def fold(k: int) -> np.ndarray:
        train_idx = np.setdiff1d(np.arange(y.size), test_sets[k])
        config = replace(forest, seed=_fold_seed(forest.seed, k))
        return fit_predict(X[train_idx], y[train_idx], X[test_sets[k]], config)

    workers = min(folds, usable_cpus()) if FORKS else 1
    if workers <= 1:
        predicted = map(fold, range(folds))
    else:
        runs = [run.tolist() for run in np.array_split(np.arange(folds), workers)]
        calls = [(f"the worker of folds {run[0] + 1}-{run[-1] + 1}", (run,)) for run in runs]
        with forked(lambda run: list(map(fold, run)), calls) as results:
            predicted = [pred for result in results for pred in result]
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
        write_json(path, self.to_dict())


def write_scatter_csv(report: ValidationReport, kernel: str, path) -> None:
    """Plot-ready rows: one per subfeature, mean disparities plus CV accuracy."""
    import csv

    acc = f"{float(np.mean(report.fold_accuracy)):.6g}"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["subfeature", "kernel", "nocco", *MEASURE_KEYS, "accuracy"])
        for r in report.records:
            means = ("" if r.means[k] is None else f"{r.means[k]:.6g}" for k in MEASURE_KEYS)
            writer.writerow([r.name, kernel, f"{r.nocco:.6g}", *means, acc])


def _mean_defined(values: list[float | None]) -> tuple[float | None, int]:
    defined = [v for v in values if v is not None]
    mean = float(np.mean(defined)) if defined else None
    return mean, len(values) - len(defined)


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


def _spearman_or_none(records, key: str) -> float | None:
    """Rank correlation of nocco with the defined means of `key`.

    None when degenerate: fewer than three defined means, or a constant side.
    """
    pairs = [(r.nocco, r.means[key]) for r in records if r.means[key] is not None]
    if len(pairs) < 3:
        return None
    rho = _spearman([a for a, _ in pairs], [b for _, b in pairs])
    return None if np.isnan(rho) else rho


def validate(
    encoded: EncodedDataset,
    report: DependenceReport,
    folds: int = 10,
    forest: ForestConfig = ForestConfig(),
    seed: int = 0,
    exclude_sensitive: bool = False,
) -> ValidationReport:
    """Fairness-vs-dependence pairing for every indicator subfeature.

    The classifier learns `encoded.y`. All subfeatures with a 0/1 column
    are evaluated, not only detected ones; the point is the full
    dependence-to-disparity scatter. Each one's nocco is the report's
    subfeature score at its encoded column's position, so `report` must
    list `encoded`'s subfeature names in order (ValueError otherwise).
    With `exclude_sensitive`, the columns of detected sensitive features
    are hidden from the classifier (the fairness split still uses them).

    The classifier is `RandomForest` under its one protocol (bootstrap
    resamples, floor(sqrt(m)) features per split, trees grown to
    purity); only `forest.n_trees` and `forest.seed` vary. The config's
    "forest" record states that protocol as `max_depth` null,
    `max_features` "sqrt" and `bootstrap` true. The folds run where
    `cross_validate` runs them: on forked children where the package
    forks (see `fairdep.workers`).
    """
    # the report's scores, flattened, are in encoded-column order
    names = [sub.name for sub in encoded.subfeatures]
    if [name for fs in report.scores for name in fs.subfeature_names] != names:
        raise ValueError("the dependence report must come from the same encoded dataset")
    nocco = [d for fs in report.scores for d in fs.subfeature_scores]
    y = encoded.y
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

    cv = cross_validate(train_matrix, y, folds=folds, forest=forest, seed=seed)

    records = []
    for c in indicator_columns(encoded):
        sub = encoded.subfeatures[c]
        per_fold = tuple(
            fairness_measures(group_confusion(cv.predictions[idx], y[idx], encoded.matrix[idx, c]))
            for idx in cv.fold_test_indices
        )
        values = [m.as_dict() for m in per_fold]
        means, undefined = {}, {}
        for key in MEASURE_KEYS:
            means[key], undefined[key] = _mean_defined([v[key] for v in values])
        records.append(
            SubfeatureValidation(sub.name, sub.parent_name, nocco[c], per_fold, means, undefined)
        )
    spearman = {key: _spearman_or_none(records, key) for key in MEASURE_KEYS}

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


def kernel_consistency(encoded: EncodedDataset) -> KernelConsistency:
    """Score under both kernels and compare rankings and detected sets.

    Each kernel scores with the default `DependenceConfig` (epsilon 1e-6)
    and flags by the median rule, as `fairdep audit` does by default.
    """
    reports = {}
    for kind in (RBF, LINEAR):
        scores = score_features(encoded, DependenceConfig(KernelSpec(kind)))
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
