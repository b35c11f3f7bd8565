"""Empirical HSIC and its normalized variant, NOCCO.

For centered Gram matrices G_x = H K_x H and G_y = H K_y H:

    hsic(x, y)  = tr(K_x H K_y H) / (n - 1)^2
    nocco(x, y) = tr(R_x R_y),   R = G (G + n*eps*I)^{-1}

The regularized operator R has eigenvalues lam/(lam + n*eps) in [0, 1),
which makes nocco insensitive to the scale of the observations; eps
defaults to 1e-6. R is obtained from a Cholesky solve of the SPD matrix
G + n*eps*I, never from a general-purpose inverse. `hsic`, `nocco` and
`regularized_operator` form these n x n matrices; they are the dense
reference.

A two-valued label has a rank-one R_y = a uu^T, so nocco(x, y) is
a * u^T R_x u, and the detector scores a column x by that quadratic
form alone, on x's k distinct values. With P the n x k indicator of
which value each row holds and c its column counts, Q = P diag(c)^{-1/2}
has orthonormal columns and G_x = Q K~ Q^T, where

    K~ = Pi diag(sqrt c) K_v diag(sqrt c) Pi,   Pi = I - ww^T,  w = sqrt(c/n)

is k x k and K_v is the kernel on the distinct values (RBF bandwidth
and ridge still use n). Hence u^T R_x u = t^T t - n*eps ||L^{-1} t||^2
with t = Q^T u and L L^T = K~ + n*eps*I: O(n log n + k^3) time and
O(n + k^2) memory per column. The linear kernel's K~ has rank one, so
there u^T R_x u = (u^T z)^2 / (||z||^2 + n*eps) with z = x - mean(x),
in O(n) and without a factorization.
"""

from dataclasses import dataclass

import numpy as np
from scipy import linalg

from .errors import NumericsError
from .kernels import LINEAR, KernelSpec, center, gram, kernel_input, value_gram


@dataclass(frozen=True)
class DependenceConfig:
    """Kernel choice plus the ridge eps used by the regularized operator."""

    kernel: KernelSpec = KernelSpec()
    epsilon: float = 1e-6

    def __post_init__(self):
        if not self.epsilon > 0:
            raise ValueError(f"epsilon must be positive, got {self.epsilon}")


def _check_pair(x, y):
    x = np.asarray(x, dtype=np.float64).ravel()
    y = np.asarray(y, dtype=np.float64).ravel()
    if x.size != y.size:
        raise ValueError(f"length mismatch: {x.size} vs {y.size}")
    return x, y


def _canonical_indicator(v: np.ndarray) -> np.ndarray:
    """Map a 0/1 column and its complement onto one representative.

    Centered Grams of b and 1-b coincide for both kernels, so the
    dependence of an indicator is complement-invariant; routing both
    codings through the same arithmetic makes that equality exact
    instead of rounding-level. Non-indicator vectors pass through.
    """
    u = np.unique(v)
    if u.size == 2 and u[0] == 0.0 and u[1] == 1.0:
        ones = int(v.sum())
        if 2 * ones > v.size or (2 * ones == v.size and v[0] == 1.0):
            return 1.0 - v
    return v


def hsic(x, y, spec: KernelSpec = KernelSpec()) -> float:
    """Empirical HSIC of two equal-length vectors.

    tr(K_x H K_y H) equals the Frobenius inner product of the two
    centered Grams, so no matrix product is formed.
    """
    x, y = _check_pair(x, y)
    gx = center(gram(x, spec))
    gy = center(gram(y, spec))
    n = x.size
    return float(np.vdot(gx, gy)) / (n - 1) ** 2


def _ridge_factor(A: np.ndarray, ridge: float):
    """Cholesky factor of A + ridge*I from A's lower triangle, in place when A is Fortran-ordered."""
    A.flat[:: A.shape[0] + 1] += ridge
    try:
        return linalg.cho_factor(A, lower=True, overwrite_a=True, check_finite=False)
    except linalg.LinAlgError as exc:
        raise NumericsError(
            "centered Gram plus ridge is not positive definite; "
            "the kernel matrix is broken (non-PSD input?)"
        ) from exc


def regularized_operator(K, epsilon: float = 1e-6) -> np.ndarray:
    """R = G (G + n*eps*I)^{-1} for G = H K H.

    G and (G + n*eps*I)^{-1} commute, so R equals the solution Z of the
    SPD system (G + n*eps*I) Z = G; Z comes from a Cholesky factorization
    and is symmetrized to scrub rounding asymmetry.
    """
    if not epsilon > 0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    G = center(K)
    factor = _ridge_factor(np.asfortranarray(G), G.shape[0] * epsilon)
    R = linalg.cho_solve(factor, G, check_finite=False)
    return (R + R.T) / 2.0


def nocco(x, y, config: DependenceConfig = DependenceConfig()) -> float:
    """Normalized dependence tr(R_x R_y) of two equal-length vectors.

    Symmetric in (x, y), nonnegative, and bounded by min(tr R_x, tr R_y).
    0/1 indicator inputs are complement-canonicalized, so an indicator
    and its complement score identically to the last bit.
    """
    x, y = _check_pair(x, y)
    x = _canonical_indicator(x)
    y = _canonical_indicator(y)
    rx = regularized_operator(gram(x, config.kernel), config.epsilon)
    ry = regularized_operator(gram(y, config.kernel), config.epsilon)
    return float(np.vdot(rx, ry))


def label_direction(y, config: DependenceConfig = DependenceConfig()) -> tuple[np.ndarray, float]:
    """u and a with R_y = a uu^T for a two-valued label vector y.

    Any kernel on such a y has a rank-one centered Gram H K_y H = c uu^T,
    u = Hy/||Hy||, c = u^T K_y u, so a = c/(c + n*eps). c = s^T K_v s
    with s the sums of u over the rows of each distinct label value, so
    no n x n Gram is formed. A single-class y has Hy = 0 and R_y = 0, and
    gets u = 0 and a = 0.
    """
    y = np.asarray(y, dtype=np.float64).ravel()
    v = y - y.mean()
    vv = float(v @ v)
    if vv == 0.0:
        return v, 0.0
    u = v / np.sqrt(vv)
    values, code = np.unique(y, return_inverse=True)
    s = np.bincount(code, u)
    c = float(s @ value_gram(values, y.size, config.kernel) @ s)
    return u, c / (c + y.size * config.epsilon)


def quadratic_form(x, u: np.ndarray, config: DependenceConfig = DependenceConfig()) -> float:
    """u^T R_x u for a column x, computed on x's distinct values.

    With u, a from `label_direction`, nocco(x, y) = a * quadratic_form(x, u).
    Linear kernel: (u^T z)^2 / (||z||^2 + n*eps) with z = x - mean(x).
    Otherwise, for x's k distinct values with counts c and t the sums of
    u over each value's rows divided by sqrt(c), the form is
    t^T t - n*eps ||L^{-1} t||^2, where L L^T = K~ + n*eps*I factors the
    k x k centered value Gram K~ (see the module docstring): one k x k
    buffer, one Cholesky factor and one triangular solve. 0/1 indicators
    are complement-canonicalized as in `nocco`.
    """
    x, u = _check_pair(kernel_input(x), u)
    x = _canonical_indicator(x)
    n = x.size
    ridge = n * config.epsilon
    if config.kernel.kind == LINEAR:
        z = x - x.mean()
        return float(u @ z) ** 2 / (float(z @ z) + ridge)
    values, code, counts = np.unique(x, return_inverse=True, return_counts=True)
    root = np.sqrt(counts)
    t = np.bincount(code, u) / root
    w = root / np.sqrt(n)
    K = value_gram(values, n, config.kernel)
    K *= root[:, None]
    K *= root
    # Pi M Pi = M - (w b^T + b w^T) with b = Mw - (w^T M w) w / 2; the
    # update and the factor below read and write only the lower triangle
    Kw = K @ w
    b = Kw - 0.5 * float(w @ Kw) * w
    K = linalg.blas.dsyr2(-1.0, w, b, lower=1, a=K, overwrite_a=1)
    L, _ = _ridge_factor(K, ridge)
    p = linalg.solve_triangular(L, t, lower=True, check_finite=False)
    return float(t @ t) - ridge * float(p @ p)
