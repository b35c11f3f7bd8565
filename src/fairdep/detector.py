"""Sensitive-feature detection from per-feature dependence scores.

Every feature gets a dependence score against the label vector, the
NOCCO quadratic form of its column's operator along the label's
rank-one direction (see `dependence.label_direction`): numeric and
binary features are scored on their single encoded column;
a categorical feature with q >= 3 categories is scored per indicator
column and takes the maximum. Binary features are scored once, because
an indicator and its complement have identical centered Grams and hence
identical scores. The threshold is the median of all m feature scores,
and candidate features scoring at or above it are flagged sensitive,
each with its top-scoring group.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .data import BINARY, CATEGORICAL, Dataset, EncodedDataset, encode, standardize_numeric
from .dependence import DependenceConfig, label_direction, quadratic_form
from .errors import DataError, NumericsError

DEFAULT_SUBSAMPLE = 2000
DEFAULT_SEED = 42


@dataclass(frozen=True)
class FeatureScore:
    """Dependence of one parent feature and its subfeatures on the label."""

    index: int
    name: str
    kind: str
    candidate: bool
    subfeature_names: tuple[str, ...]
    subfeature_scores: tuple[float, ...]
    score: float
    argmax: int

    @property
    def argmax_name(self) -> str:
        return self.subfeature_names[self.argmax]


@dataclass(frozen=True)
class DependenceReport:
    """Scores, threshold, and the detected sensitive sets."""

    scores: tuple[FeatureScore, ...]
    threshold: float
    sensitive_features: tuple[str, ...]
    sensitive_groups: tuple[str, ...]
    config: dict

    def subfeature_score(self, name: str) -> float:
        for fs in self.scores:
            for sub_name, value in zip(fs.subfeature_names, fs.subfeature_scores):
                if sub_name == name:
                    return value
        raise KeyError(name)

    def to_dict(self) -> dict:
        return {
            "config": self.config,
            "scores": [
                {
                    "feature": fs.name,
                    "kind": fs.kind,
                    "candidate": fs.candidate,
                    "subfeatures": [
                        {"name": sub, "d": d}
                        for sub, d in zip(fs.subfeature_names, fs.subfeature_scores)
                    ],
                    "d": fs.score,
                    "argmax": fs.argmax_name,
                }
                for fs in self.scores
            ],
            "threshold": self.threshold,
            "sensitive_features": list(self.sensitive_features),
            "sensitive_groups": list(self.sensitive_groups),
        }

    def to_json(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_dict(), fh, indent=2)
            fh.write("\n")

    def table(self) -> str:
        """Human-readable score table, one row per subfeature."""
        lines = [
            f"{'feature':<24} {'subfeature':<32} {'d':>10}  flag",
            "-" * 74,
        ]
        sensitive = set(self.sensitive_features)
        for fs in self.scores:
            for sub, d in zip(fs.subfeature_names, fs.subfeature_scores):
                mark = ""
                if fs.name in sensitive and sub == fs.argmax_name:
                    mark = "SENSITIVE GROUP"
                elif fs.name in sensitive:
                    mark = "sensitive"
                elif not fs.candidate:
                    mark = "(not a candidate)"
                lines.append(f"{fs.name:<24} {sub:<32} {d:>10.4f}  {mark}")
        lines.append("-" * 74)
        lines.append(f"threshold (median of feature scores): {self.threshold:.4f}")
        return "\n".join(lines)


def is_candidate(kind: str, flag: bool | None) -> bool:
    """Schema flag wins; otherwise group-splitting kinds are candidates.

    Numeric features rank in the report and enter the median, but do not
    by themselves split people into groups, so they are not flagged
    unless the schema says so.
    """
    if flag is not None:
        return flag
    return kind in (BINARY, CATEGORICAL)


def _check_labels(y) -> np.ndarray:
    y = np.asarray(y, dtype=np.float64).ravel()
    values = set(np.unique(y).tolist())
    if not values <= {-1.0, 1.0}:
        raise ValueError(f"labels must lie in {{-1, +1}}, got {sorted(values)}")
    return y


def score_features(
    encoded: EncodedDataset,
    y,
    config: DependenceConfig = DependenceConfig(),
) -> tuple[FeatureScore, ...]:
    """Dependence scores for every feature and subfeature.

    The label's operator is rank one, R_y = a uu^T, so each column's
    score is a * u^T R_x u: one Cholesky factor of the column's centered
    Gram and one solve against u, with u and a computed once from the
    labels. Single-class labels score every column 0.
    """
    y = _check_labels(y)
    if y.size != encoded.n:
        raise ValueError(f"labels ({y.size}) and matrix ({encoded.n}) disagree")
    u, weight = label_direction(y, config)

    def score(c: int) -> float:
        try:
            # quadratic forms of a PSD operator dip below zero only by rounding
            return max(weight * quadratic_form(encoded.matrix[:, c], u, config), 0.0)
        except (DataError, NumericsError) as exc:
            raise type(exc)(f"column {encoded.subfeatures[c].name!r}: {exc}") from exc

    out: list[FeatureScore] = []
    for j, col in enumerate(encoded.schema.columns):
        block = encoded.parent_columns[j]
        names = tuple(encoded.subfeatures[c].name for c in block)
        if col.kind == CATEGORICAL and len(block) >= 3:
            scores = tuple(score(c) for c in block)
            argmax = int(np.argmax(scores))  # ties resolve to the lowest index
        else:
            # one evaluation covers the whole block: a two-category
            # feature's indicators are complements with equal scores
            scores = (score(block[0]),) * len(block)
            argmax = 0
        out.append(
            FeatureScore(
                index=j,
                name=col.name,
                kind=col.kind,
                candidate=is_candidate(col.kind, col.candidate_sensitive),
                subfeature_names=names,
                subfeature_scores=scores,
                score=max(scores),
                argmax=argmax,
            )
        )
    return tuple(out)


def detect(
    scores,
    threshold: float | str = "median",
    config: dict | None = None,
) -> DependenceReport:
    """Apply the threshold rule to feature scores.

    With `threshold="median"` the cut t is the median over all m feature
    scores (candidates and non-candidates alike); a float fixes t
    directly. A candidate feature is sensitive iff its score is >= t,
    and its top-scoring subfeature becomes the sensitive group.
    """
    scores = tuple(scores)
    if not scores:
        raise ValueError("no feature scores to threshold")
    d = np.array([fs.score for fs in scores], dtype=np.float64)
    if isinstance(threshold, str):
        if threshold != "median":
            raise ValueError(f"threshold must be 'median' or a number, got {threshold!r}")
        t = float(np.median(d))
        mode = "median"
    else:
        t = float(threshold)
        mode = "fixed"
    selected = [fs for fs in scores if fs.candidate and fs.score >= t]
    echo = dict(config or {})
    echo.setdefault("threshold_mode", mode)
    echo["threshold"] = t
    return DependenceReport(
        scores=scores,
        threshold=t,
        sensitive_features=tuple(fs.name for fs in selected),
        sensitive_groups=tuple(fs.argmax_name for fs in selected),
        config=echo,
    )


def subsample(dataset: Dataset, max_n: int = DEFAULT_SUBSAMPLE, seed: int = DEFAULT_SEED) -> Dataset:
    """Label-stratified row subsample without replacement.

    Identity when n <= max_n. Class shares are preserved within one row;
    the picked rows keep their original order, and the draw is a pure
    function of the seed.
    """
    if max_n < 2:
        raise ValueError(f"max_n must be at least 2, got {max_n}")
    n = dataset.n
    if n <= max_n:
        return dataset
    rng = np.random.default_rng(seed)
    pos = np.flatnonzero(dataset.y == 1)
    neg = np.flatnonzero(dataset.y == -1)
    k_pos = int(round(max_n * pos.size / n))
    k_pos = min(max(k_pos, max_n - neg.size, 1), pos.size, max_n - 1)
    k_neg = max_n - k_pos
    take = np.concatenate(
        [
            rng.choice(pos, size=k_pos, replace=False),
            rng.choice(neg, size=k_neg, replace=False),
        ]
    )
    take.sort()
    return dataset.take(take)


def audit_dataset(
    dataset: Dataset,
    config: DependenceConfig = DependenceConfig(),
    threshold: float | str = "median",
    max_n: int = DEFAULT_SUBSAMPLE,
    seed: int = DEFAULT_SEED,
    standardize: bool = False,
) -> tuple[EncodedDataset, np.ndarray, DependenceReport]:
    """Full detection pipeline: subsample, encode, score, threshold.

    Returns the encoded (possibly subsampled) dataset, its label vector,
    and the report; the report's config echoes every effective setting.
    """
    working = subsample(dataset, max_n=max_n, seed=seed)
    encoded = encode(working)
    if standardize:
        encoded = standardize_numeric(encoded)
    scores = score_features(encoded, working.y, config)
    echo = {
        "kernel": config.kernel.kind,
        "epsilon": config.epsilon,
        "subsample_max_n": max_n,
        "subsample_seed": seed,
        "subsampled_to": working.n,
        "standardize": standardize,
        "n": working.n,
        "dropped_rows": dataset.dropped_rows,
    }
    report = detect(scores, threshold=threshold, config=echo)
    return encoded, working.y, report
