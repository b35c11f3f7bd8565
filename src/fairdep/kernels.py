"""Kernel Gram matrices for single feature vectors, and Gram centering.

Two kernels are supported. For a length-n vector z,

    rbf:     K[i, j] = exp(-(z_i - z_j)^2 / n)
    linear:  K[i, j] = z_i * z_j

The RBF exponent is scaled by 1/n with n the sample count; there is no
free bandwidth parameter. Kernels are always evaluated per column, never
on a whole matrix. `gram` gives the n x n matrix over a column's rows;
`value_gram` gives the k x k matrix over its k distinct values at the
same bandwidth, from which the detector works.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DataError

RBF = "rbf"
LINEAR = "linear"
KERNEL_KINDS = (RBF, LINEAR)


@dataclass(frozen=True)
class KernelSpec:
    """Choice of kernel. `kind` is one of ``"rbf"`` or ``"linear"``."""

    kind: str = RBF

    def __post_init__(self):
        if self.kind not in KERNEL_KINDS:
            raise ValueError(f"unknown kernel kind {self.kind!r}; expected one of {KERNEL_KINDS}")


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


def _fill(K: np.ndarray, v: np.ndarray, n: int, kind: str) -> np.ndarray:
    """Write the kernel of v against itself into K, RBF bandwidth set by n."""
    if kind == LINEAR:
        return np.multiply.outer(v, v, out=K)
    np.subtract.outer(v, v, out=K)
    np.multiply(K, K, out=K)
    # negation is exact, so d*d/(-n) is bit-identical to -(d*d)/n
    np.divide(K, -n, out=K)
    return np.exp(K, out=K)


def gram(values, spec: KernelSpec = KernelSpec()) -> np.ndarray:
    """n x n Gram matrix of a single feature vector, in one n x n buffer.

    Raises DataError on non-finite entries and ValueError for n < 2.
    """
    v = kernel_input(values)
    return _fill(np.empty((v.size, v.size)), v, v.size, spec.kind)


def value_gram(values, n: int, spec: KernelSpec = KernelSpec()) -> np.ndarray:
    """k x k Gram of a column's k distinct values, in a Fortran-ordered buffer.

    The RBF bandwidth is the column's row count n, not k, so entry (a, b)
    equals `gram(column)[i, j]` for any rows i, j holding values a and b.
    """
    v = np.asarray(values, dtype=np.float64).ravel()
    return _fill(np.empty((v.size, v.size), order="F"), v, n, spec.kind)


def center(K) -> np.ndarray:
    """Doubly-centered Gram matrix H K H with H = I - ee^T/n.

    Computed without materialising H: subtract row means, column means,
    add back the grand mean. Every row and column of the result sums to
    zero (up to rounding).
    """
    K = np.asarray(K, dtype=np.float64)
    if K.ndim != 2 or K.shape[0] != K.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {K.shape}")
    col_means = K.mean(axis=0, keepdims=True)
    row_means = K.mean(axis=1, keepdims=True)
    return K - col_means - row_means + K.mean()
