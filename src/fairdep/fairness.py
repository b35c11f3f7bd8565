"""Group-fairness disparity measures from predictions and a group split.

All four measures compare a group against its complement (one-vs-all):

    predictive equality   |FPR_g - FPR_c|
    equal opportunity     |TPR_g - TPR_c|
    equalized odds        the sum of the two terms above
    accuracy equality     |ACC_g - ACC_c|

Rates follow the positive class (+1). A measure whose rate has a zero
denominator on either side is reported as undefined (None) rather than
silently zeroed; callers exclude undefined evaluations from aggregates
and report how many were excluded.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import EncodedDataset
from .errors import signs

MEASURE_KEYS = ("f_pe", "f_ep", "f_eo", "f_oae")


@dataclass(frozen=True)
class GroupConfusion:
    """Confusion counts inside a group and inside its complement."""

    tp: int
    tn: int
    fp: int
    fn: int
    tp_c: int
    tn_c: int
    fp_c: int
    fn_c: int

    @property
    def n_group(self) -> int:
        return self.tp + self.tn + self.fp + self.fn

    @property
    def n_complement(self) -> int:
        return self.tp_c + self.tn_c + self.fp_c + self.fn_c


@dataclass(frozen=True)
class FairnessMeasures:
    """Absolute disparities; None marks an undefined measure."""

    predictive_equality: float | None
    equal_opportunity: float | None
    equalized_odds: float | None
    accuracy_equality: float | None

    def as_dict(self) -> dict:
        return {
            "f_pe": self.predictive_equality,
            "f_ep": self.equal_opportunity,
            "f_eo": self.equalized_odds,
            "f_oae": self.accuracy_equality,
        }


def group_confusion(predictions, labels, group_indicator) -> GroupConfusion:
    """Exact confusion counts conditioned on group membership.

    `errors.signs` checks the predictions and the labels.
    """
    pred = signs(predictions, "predictions")
    lab = signs(labels)
    g = np.asarray(group_indicator, dtype=np.float64).ravel()
    if not (pred.size == lab.size == g.size):
        raise ValueError(
            f"length mismatch: predictions {pred.size}, labels {lab.size}, group {g.size}"
        )
    if not set(np.unique(g).tolist()) <= {0.0, 1.0}:
        raise ValueError("group indicator must be 0/1")
    # each row's cell is 4*[in group] + 2*[label +1] + [prediction +1]
    cells = np.bincount(4 * (g == 1) + 2 * (lab == 1) + (pred == 1), minlength=8)
    tn_c, fp_c, fn_c, tp_c, tn, fp, fn, tp = cells.tolist()
    return GroupConfusion(tp, tn, fp, fn, tp_c, tn_c, fp_c, fn_c)


def _rate(num: int, den: int) -> float | None:
    return num / den if den > 0 else None


def fairness_measures(gc: GroupConfusion) -> FairnessMeasures:
    """The four absolute-difference measures from one confusion split."""
    fpr_g = _rate(gc.fp, gc.fp + gc.tn)
    fpr_c = _rate(gc.fp_c, gc.fp_c + gc.tn_c)
    tpr_g = _rate(gc.tp, gc.tp + gc.fn)
    tpr_c = _rate(gc.tp_c, gc.tp_c + gc.fn_c)
    acc_g = _rate(gc.tp + gc.tn, gc.n_group)
    acc_c = _rate(gc.tp_c + gc.tn_c, gc.n_complement)

    pe = abs(fpr_g - fpr_c) if fpr_g is not None and fpr_c is not None else None
    ep = abs(tpr_g - tpr_c) if tpr_g is not None and tpr_c is not None else None
    eo = pe + ep if pe is not None and ep is not None else None
    oae = abs(acc_g - acc_c) if acc_g is not None and acc_c is not None else None
    return FairnessMeasures(pe, ep, eo, oae)


def indicator_columns(encoded: EncodedDataset) -> list[int]:
    """Indices of columns usable as group indicators (0/1-valued)."""
    M = encoded.matrix
    return np.flatnonzero(((M == 0) | (M == 1)).all(axis=0)).tolist()
