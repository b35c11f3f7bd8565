"""Kernel Gram matrices for single feature vectors, and Gram centering.

Two kernels are supported. For a length-n vector z,

    rbf:     K[i, j] = exp(-(z_i - z_j)^2 / n)
    linear:  K[i, j] = z_i * z_j

The RBF exponent is scaled by 1/n with n the sample count; there is no
free bandwidth parameter. Kernels are always evaluated per column, never
on a whole matrix. `gram` gives the n x n matrix over a column's rows.
`value_band` gives the band of the scaled RBF Gram over a column's k
distinct values, at the same bandwidth n, cut where its entries can no
longer change a score in double precision: pairs of values within
sqrt(s n), with s = min(ln(sqrt(n) / (2^-53 eps)), 746) for the ridge
eps. Everything outside is at most e^-s times the scale, and together it
moves a score by at most about 1.1e-16; the detector works from that band.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DataError, SchemaError

RBF = "rbf"
LINEAR = "linear"
KERNEL_KINDS = (RBF, LINEAR)


@dataclass(frozen=True)
class KernelSpec:
    """Choice of kernel. `kind` is one of ``"rbf"`` or ``"linear"``."""

    kind: str = RBF

    def __post_init__(self):
        if self.kind not in KERNEL_KINDS:
            raise SchemaError(f"unknown kernel kind {self.kind!r}; expected one of {KERNEL_KINDS}")


def kernel_input(values) -> np.ndarray:
    """A feature vector as flat float64, checked for use in a kernel.

    Raises DataError on non-finite entries and ValueError for n < 2.
    """
    v = np.asarray(values, dtype=np.float64).ravel()
    if v.size < 2:
        raise ValueError(f"kernel input needs at least 2 samples, got {v.size}")
    if not np.all(np.isfinite(v)):
        raise DataError("kernel input contains non-finite values")
    return v


def scaled_down(x: np.ndarray) -> tuple[np.ndarray, int]:
    """x / 2^e and e, for the least e >= 0 with max |x| < 2^e.

    The division is exact, and the entries of x / 2^e lie in (-1, 1), so
    no square or sum of squares of them overflows. x is never scaled up.
    """
    e = max(int(np.frexp(np.abs(x).max())[1]), 0)
    return np.ldexp(x, -e), e


# np.exp(-s) is exactly 0.0 for every s > 745.14
RBF_UNDERFLOW = 746.0


def _rbf(D: np.ndarray, n: int) -> np.ndarray:
    """exp(-D*D/n), in place on an array D of value differences."""
    np.multiply(D, D, out=D)
    # negation is exact, so d*d/(-n) is bit-identical to -(d*d)/n
    np.divide(D, -n, out=D)
    return np.exp(D, out=D)


def gram(values, spec: KernelSpec = KernelSpec()) -> np.ndarray:
    """n x n Gram matrix of a single feature vector, in one n x n buffer.

    Raises DataError on non-finite entries and ValueError for n < 2.
    """
    v = kernel_input(values)
    K = np.empty((v.size, v.size))
    if spec.kind == LINEAR:
        return np.multiply.outer(v, v, out=K)
    return _rbf(np.subtract.outer(v, v, out=K), v.size)


def value_band(values, n: int, scale, epsilon: float) -> np.ndarray:
    """Lower band of diag(scale) K diag(scale), K the RBF Gram of sorted distinct values.

    In LAPACK lower band storage: a Fortran-ordered (kd+1) x k array whose
    entry [d, j] is matrix entry (j + d, j), that is `gram(column)[r, s]`
    for rows r, s holding values j + d and j (same formula, same operand
    order, so bit for bit) times scale[j + d] * scale[j]; entries [d, j]
    with j + d >= k are padding. kd is the largest number of values
    within sqrt(s n) above any value, with s = ln(sqrt(n) / (2^-53 eps))
    (54.4 at n = 2000, eps = 1e-6; taken in logs, so a tiny eps cannot
    overflow) capped at RBF_UNDERFLOW and raised to 0 if negative. Builds
    no k x k array.

    What the band drops cannot move a score. With scale = sqrt(c) for
    counts c summing to n (as the detector calls it), every dropped entry
    is at most sqrt(c_i c_j) e^-s, so the dropped part E has
    ||E||_2 <= ||E||_inf <= sqrt(n) sqrt(k n) e^-s <= 2^-53 n eps
    (Cauchy-Schwarz on the sum of sqrt(c_j), and k <= n). At the cap,
    s = 746, every dropped entry underflows to exactly 0.0, and the band
    is exact.
    """
    v = np.asarray(values, dtype=np.float64).ravel()
    s = np.asarray(scale, dtype=np.float64).ravel()
    k = v.size
    cut = 0.5 * math.log(n) + 53 * math.log(2.0) - math.log(epsilon)
    reach = np.searchsorted(v, v + math.sqrt(min(max(cut, 0.0), RBF_UNDERFLOW) * n), "right")
    kd = int(np.max(reach - np.arange(1, k + 1)))

    def windows(a):
        # read-only view with windows(a)[j, d] = a[j + d], padded past the end with a[-1]
        padded = np.concatenate([a, np.full(kd, a[-1])])
        return np.lib.stride_tricks.sliding_window_view(padded, kd + 1)

    ab = np.empty((kd + 1, k), order="F")
    lower = ab.T  # C-ordered view, lower[j, d] = ab[d, j]
    _rbf(np.subtract(windows(v), v[:, None], out=lower), n)
    lower *= windows(s)
    lower *= s[:, None]
    return ab


def center(K) -> np.ndarray:
    """Doubly-centered Gram matrix H K H with H = I - ee^T/n, for a symmetric K.

    Computed without materialising H: subtract the column means and the row
    means, add back the grand mean. Row and column means of a symmetric K
    are the same vector m, and entries (i, j) and (j, i) subtract m[i] and
    m[j] in the two orders; the result holds the mean of both orders, so it
    is exactly symmetric. (Subtracting the rounded m[i] + m[j] instead is
    symmetric too, but doubles the dense linear reference's rounding
    error.) Every row and column of the result sums to zero (up to
    rounding).
    """
    K = np.asarray(K, dtype=np.float64)
    if K.ndim != 2 or K.shape[0] != K.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {K.shape}")
    m = K.mean(axis=0)
    G = K - m
    G -= m[:, None]
    G += G.T
    G *= 0.5
    G += K.mean()
    return G
