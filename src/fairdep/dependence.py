"""Empirical HSIC and its normalized variant, NOCCO.

For centered Gram matrices G_x = H K_x H and G_y = H K_y H:

    hsic(x, y)  = tr(K_x H K_y H) / (n - 1)^2
    nocco(x, y) = tr(R_x R_y),   R = G (G + n*eps*I)^{-1}

The regularized operator R has eigenvalues lam/(lam + n*eps) in [0, 1),
which makes nocco insensitive to the scale of the observations; eps
defaults to 1e-6. R is obtained from a Cholesky solve of the SPD matrix
G + n*eps*I, never from a general-purpose inverse.

A two-valued label has a rank-one R_y = a uu^T, so nocco(x, y) is
a * u^T R_x u: one Cholesky factor and one triangular solve per x.
"""

from dataclasses import dataclass

import numpy as np
from scipy import linalg

from .errors import NumericsError
from .kernels import KernelSpec, center, gram


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


def _ridge_factor(A: np.ndarray, epsilon: float):
    """Cholesky factor of A + n*eps*I, built in place when A is Fortran-ordered."""
    n = A.shape[0]
    A.flat[:: n + 1] += n * epsilon
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
    factor = _ridge_factor(np.asfortranarray(G), epsilon)
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
    u = Hy/||Hy||, c = u^T K_y u, so a = c/(c + n*eps). A single-class y
    has Hy = 0 and R_y = 0, and gets u = 0 and a = 0.
    """
    y = np.asarray(y, dtype=np.float64).ravel()
    v = y - y.mean()
    vv = float(v @ v)
    if vv == 0.0:
        return v, 0.0
    c = float(v @ (gram(y, config.kernel) @ v)) / vv
    return v / np.sqrt(vv), c / (c + y.size * config.epsilon)


def quadratic_form(x, u: np.ndarray, config: DependenceConfig = DependenceConfig()) -> float:
    """u^T R_x u from one Cholesky factor L L^T = G_x + n*eps*I.

    R_x = I - n*eps (G_x + n*eps*I)^{-1}, so the form is
    u^T u - n*eps ||L^{-1} u||^2: one triangular solve with u. With u, a
    from `label_direction`, nocco(x, y) = a * quadratic_form(x, u).
    0/1 indicators are complement-canonicalized as in `nocco`.
    """
    x, u = _check_pair(x, u)
    G = center(gram(_canonical_indicator(x), config.kernel))
    # G is symmetric, so its transpose is the Fortran-ordered view the factor overwrites
    L, _ = _ridge_factor(G.T, config.epsilon)
    p = linalg.solve_triangular(L, u, lower=True, check_finite=False)
    return float(u @ u) - u.size * config.epsilon * float(p @ p)
