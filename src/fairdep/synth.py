"""Synthetic datasets with planted, tunable feature-label dependence.

Labels are drawn first. A planted binary feature copies the label's
indicator and then flips each row independently with probability p
(corruption). p = 0 reproduces the label indicator exactly; p = 0.5 is
an independent coin. Noise features are independent of the label. This
gives a single monotone knob for how much a group indicator tells you
about the outcome.

A planted feature may also pin its expected fraction of ones; the flips
then become label-asymmetric while keeping total corruption p. That is
how group sizes are decoupled from the label balance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import BINARY, Column, Dataset, NUMERIC, Schema, dataset_from_arrays
from .errors import SchemaError

LABEL_NAME = "outcome"
POSITIVE = "1"
NEGATIVE = "0"


@dataclass(frozen=True)
class PlantedFeature:
    """Corruption probability and optional target fraction of ones."""

    corruption: float
    fraction: float | None = None

    def __post_init__(self):
        if not 0.0 <= self.corruption <= 0.5:
            raise SchemaError(f"corruption must lie in [0, 0.5], got {self.corruption}")
        if self.fraction is not None and not 0.0 < self.fraction < 1.0:
            raise SchemaError(f"fraction must lie in (0, 1), got {self.fraction}")


@dataclass(frozen=True)
class SynthSpec:
    """Shape of one synthetic dataset."""

    n: int = 500
    planted: tuple[PlantedFeature, ...] = (
        PlantedFeature(0.0),
        PlantedFeature(0.1),
        PlantedFeature(0.25),
        PlantedFeature(0.5),
    )
    noise_binary: int = 1
    noise_numeric: int = 2
    balance: float = 0.5
    seed: int = 0

    def __post_init__(self):
        if self.n < 10:
            raise SchemaError(f"n must be at least 10, got {self.n}")
        if not 0.0 < self.balance < 1.0:
            raise SchemaError(f"balance must lie in (0, 1), got {self.balance}")
        if self.noise_binary < 0 or self.noise_numeric < 0:
            raise SchemaError("noise feature counts must be nonnegative")
        object.__setattr__(self, "planted", tuple(self.planted))


def default_detector_spec(seed: int = 0) -> SynthSpec:
    """Sweep for detector calibration: corruption 0, 0.1, 0.25, 0.5.

    Includes a perfectly predictive feature (p = 0), one binary noise
    feature, and two numeric noise features; the score of the planted
    features must fall strictly as p grows.
    """
    return SynthSpec(n=500, seed=seed)


def default_validation_spec(seed: int = 7) -> SynthSpec:
    """Planted-signal suite used for the dependence-vs-disparity check.

    Corruptions span 0.1..0.4 with no perfectly predictive feature: a
    p = 0 feature would let the classifier reach zero error, flattening
    every disparity to zero and leaving nothing to rank. Unbalanced
    labels (0.7) keep group accuracy differences visible, and the size
    keeps per-fold rate estimates above their sampling-noise floor.
    """
    return SynthSpec(
        n=4000,
        planted=tuple(PlantedFeature(p) for p in (0.1, 0.15, 0.2, 0.25, 0.3, 0.4)),
        noise_binary=0,
        noise_numeric=2,
        balance=0.7,
        seed=seed,
    )


def _planted_indicator(rng, label_ind: np.ndarray, planted: PlantedFeature, balance: float):
    p = planted.corruption
    if planted.fraction is None:
        flips = rng.random(label_ind.size) < p
        return np.where(flips, 1 - label_ind, label_ind)
    f, pi = planted.fraction, balance
    if abs(f - pi) > p + 1e-12:
        raise SchemaError(
            f"fraction {f} unreachable with corruption {p} at balance {pi}: "
            f"needs |fraction - balance| <= corruption"
        )
    # flip rates by label value; averages to p, lands the target fraction
    p_pos = (p + pi - f) / (2 * pi)
    p_neg = (p + f - pi) / (2 * (1 - pi))
    if p_pos > 1.0 or p_neg > 1.0:
        raise SchemaError(
            f"fraction {f} with corruption {p} needs a per-label flip rate above 1 "
            f"at balance {pi}; lower the corruption or move the fraction"
        )
    rate = np.where(label_ind == 1, p_pos, p_neg)
    flips = rng.random(label_ind.size) < rate
    return np.where(flips, 1 - label_ind, label_ind)


def generate(spec: SynthSpec) -> tuple[Dataset, dict]:
    """Dataset plus a ground-truth record of the planted dependencies.

    Deterministic under `spec.seed`. Labels are redrawn (still from the
    seeded stream) in the vanishing case where a single class comes up,
    so the returned dataset always carries both classes.
    """
    rng = np.random.default_rng(spec.seed)
    for _ in range(100):
        y = np.where(rng.random(spec.n) < spec.balance, 1, -1).astype(np.int64)
        if np.unique(y).size == 2:
            break
    label_ind = (y == 1).astype(np.int64)

    columns: list[Column] = []
    features: list[np.ndarray] = []
    truth: dict = {"planted": {}, "noise": [], "balance": spec.balance, "seed": spec.seed}

    for i, planted in enumerate(spec.planted):
        name = f"planted{i}_p{int(round(planted.corruption * 100)):02d}"
        ind = _planted_indicator(rng, label_ind, planted, spec.balance)
        columns.append(Column(name=name, kind=BINARY, categories=(NEGATIVE, POSITIVE)))
        features.append(np.array([POSITIVE if v else NEGATIVE for v in ind], dtype=object))
        truth["planted"][name] = {
            "corruption": planted.corruption,
            "fraction": planted.fraction,
            "observed_fraction": float(np.mean(ind)),
        }
    for i in range(spec.noise_binary):
        name = f"noise_bin{i}"
        ind = rng.integers(0, 2, size=spec.n)
        columns.append(Column(name=name, kind=BINARY, categories=(NEGATIVE, POSITIVE)))
        features.append(np.array([POSITIVE if v else NEGATIVE for v in ind], dtype=object))
        truth["noise"].append(name)
    for i in range(spec.noise_numeric):
        name = f"noise_num{i}"
        columns.append(Column(name=name, kind=NUMERIC))
        features.append(rng.standard_normal(spec.n))
        truth["noise"].append(name)

    schema = Schema(columns=tuple(columns), label=LABEL_NAME, positive=POSITIVE)
    return dataset_from_arrays(schema, features, y, negative_display=NEGATIVE), truth
