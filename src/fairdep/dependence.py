"""Empirical HSIC and its normalized variant, NOCCO.

For centered Gram matrices G_x = H K_x H and G_y = H K_y H:

    hsic(x, y)  = tr(K_x H K_y H) / (n - 1)^2
    nocco(x, y) = tr(R_x R_y),   R = G (G + n*eps*I)^{-1}

The regularized operator R has eigenvalues lam/(lam + n*eps) in [0, 1),
which makes nocco insensitive to the scale of the observations; eps
defaults to 1e-6. R is obtained from a Cholesky solve of the SPD matrix
G + n*eps*I, never from a general-purpose inverse. `hsic`, `nocco` and
`regularized_operator` form these n x n matrices; they are the dense
reference. Under the linear kernel they lose accuracy on large-magnitude
columns without raising, so the detector uses the closed form below.

A two-valued label has a rank-one R_y = a uu^T, so nocco(x, y) is
a * u^T R_x u, and the detector scores a column x by that quadratic
form alone, on x's k distinct values. With P the n x k indicator of
which value each row holds and c its column counts, Q = P diag(c)^{-1/2}
has orthonormal columns and G_x = Q K~ Q^T, where

    K~ = Pi M Pi,  M = diag(sqrt c) K_v diag(sqrt c),  Pi = I - ww^T,  w = sqrt(c/n)

is k x k and K_v is the kernel on the distinct values (RBF bandwidth
and ridge still use n). Hence u^T R_x u = t^T t - n*eps t^T (K~ + n*eps*I)^{-1} t
with t = Q^T u. As u is centered, t is orthogonal to w, and since
K~ + n*eps*I = Pi A Pi + n*eps ww^T with the uncentered A = M + n*eps*I,
that solve is the one on the compression of A to the complement of w:

    u^T R_x u = t^T t - n*eps (t^T p - (w^T p)^2 / (w^T q)),  p = A^{-1} t,  q = A^{-1} w.

A is held as a band: RBF entries of two values more than sqrt(s n)
apart, s = min(ln(sqrt(n) / (2^-53 eps)), 746) (54.4 at n = 2000,
eps = 1e-6), are dropped, and kd is the most values lying within that
distance above any one value. Each dropped entry is at most
sqrt(c_i c_j) e^-s, so the dropped part E has ||E|| <= 2^-53 n eps
(`value_band`). The banded A - E stays positive definite, at least
(1 - 2^-53) n eps I, and the form moves by at most
||E|| / (n eps - ||E||) ||u||^2, about 1.1e-16 for a unit u: far below
the form's own rounding. One banded Cholesky factor and one two-column
solve give it in O(n log n + k kd^2) time and O(n + k kd) memory per
column. kd is 0 for a column whose values all lie that far apart, and
k - 1 for one whose values all lie close. The linear kernel's K~ has
rank one, so there
u^T R_x u = (u^T z)^2 / (||z||^2 + n*eps) with z = x - mean(x), in O(n)
and without a factorization.

A column with two distinct values a < b, counts c_0, c_1 and sums s_0,
s_1 of u over their rows has a rank-one centered Gram under any kernel:
(g/n) c_0 c_1 times a unit projector, g = K(a,a) + K(b,b) - 2K(a,b),
which is (b - a)^2 for the linear kernel and -2 expm1(-(b - a)^2/n) for
the RBF. Hence, for any u,

    u^T R_x u = g (s_0 c_1 - s_1 c_0)^2 / (n (g c_0 c_1 + n^2 eps)),

in O(n) and without a factorization. It is symmetric in the two values,
so x and a + b - x give the same bits; a constant column gives 0. The
label is such a column, and with ||u|| = 1 its R_y = a uu^T has
a = u^T R_y u, the same form.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy import linalg

from .errors import NumericsError
from .kernels import LINEAR, KernelSpec, center, gram, kernel_input, value_band


@dataclass(frozen=True)
class DependenceConfig:
    """Kernel choice plus the ridge eps used by the regularized operator."""

    kernel: KernelSpec = KernelSpec()
    epsilon: float = 1e-6

    def __post_init__(self):
        if not 0 < self.epsilon < math.inf:
            raise ValueError(f"epsilon must be positive and finite, got {self.epsilon}")


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
    codings through the same arithmetic makes the dense `nocco`'s
    equality exact instead of rounding-level (`quadratic_form` is exact
    by construction). Non-indicator vectors pass through.
    """
    u = np.unique(v)
    if u.size == 2 and u[0] == 0.0 and u[1] == 1.0:
        ones = int(v.sum())
        if 2 * ones > v.size or (2 * ones == v.size and v[0] == 1.0):
            return 1.0 - v
    return v


_NOT_PD = "Gram plus ridge is not positive definite; the kernel matrix is broken (non-PSD input?)"


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


def regularized_operator(K, epsilon: float = 1e-6) -> np.ndarray:
    """R = G (G + n*eps*I)^{-1} for G = H K H, K a symmetric Gram.

    G and (G + n*eps*I)^{-1} commute, so R equals the solution Z of the
    SPD system (G + n*eps*I) Z = G; Z comes from a Cholesky factorization
    and is symmetrized to scrub rounding asymmetry.

    A dense reference, accurate while rounding in K stays small against
    the n*eps ridge. A linear-kernel Gram of large-magnitude values
    (entries around 1e9) breaks that: the result drifts without any error
    being raised (1.6-3.1 % off the exact value on an Adult-shaped
    capital-gain column), or the factor fails. The detector uses the
    closed form of `quadratic_form` instead.
    """
    if not epsilon > 0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    G = center(K)
    A = np.asfortranarray(G)
    A.flat[:: A.shape[0] + 1] += A.shape[0] * epsilon
    try:
        factor = linalg.cho_factor(A, lower=True, overwrite_a=True, check_finite=False)
    except linalg.LinAlgError as exc:
        raise NumericsError(_NOT_PD) from exc
    R = linalg.cho_solve(factor, G, check_finite=False)
    return (R + R.T) / 2.0


def nocco(x, y, config: DependenceConfig = DependenceConfig()) -> float:
    """Normalized dependence tr(R_x R_y) of two equal-length vectors.

    Symmetric in (x, y), nonnegative, and bounded by min(tr R_x, tr R_y).
    0/1 indicator inputs are complement-canonicalized, so an indicator
    and its complement score identically to the last bit. A dense
    reference built on `regularized_operator`: under the linear kernel it
    loses accuracy on large-magnitude columns without raising, where the
    detector's closed form (`quadratic_form`) stays exact.
    """
    x, y = _check_pair(x, y)
    x = _canonical_indicator(x)
    y = _canonical_indicator(y)
    rx = regularized_operator(gram(x, config.kernel), config.epsilon)
    ry = regularized_operator(gram(y, config.kernel), config.epsilon)
    return float(np.vdot(rx, ry))


def label_direction(y, config: DependenceConfig = DependenceConfig()) -> tuple[np.ndarray, float]:
    """u and a with R_y = a uu^T for a two-valued label vector y.

    Any kernel on such a y has a rank-one centered Gram, with unit
    direction u = Hy/||Hy||, so R_y = a uu^T and a = u^T R_y u, which is
    `quadratic_form(y, u)`. No n x n Gram is formed. A single-class y has
    Hy = 0 and R_y = 0, and gets u = 0 and a = 0.
    """
    y = np.asarray(y, dtype=np.float64).ravel()
    v = y - y.mean()
    vv = float(v @ v)
    if vv == 0.0:
        return v, 0.0
    u = v / np.sqrt(vv)
    return u, quadratic_form(y, u, config)


def quadratic_form(x, u: np.ndarray, config: DependenceConfig = DependenceConfig()) -> float:
    """u^T R_x u for a column x and a centered u, computed on x's distinct values.

    With u, a from `label_direction`, nocco(x, y) = a * quadratic_form(x, u).
    A column with k <= 2 distinct values takes the two-valued closed form
    g (s_0 c_1 - s_1 c_0)^2 / (n (g c_0 c_1 + n^2 eps)) under either
    kernel (see the module docstring), with no factorization; k <= 2 is
    found from min, max and one equality pass, so only RBF columns with
    k > 2 are sorted into distinct values.
    Linear kernel: (u^T z)^2 / (||z||^2 + n*eps) with z = x - mean(x).
    Otherwise, for x's k distinct values with counts c, t the sums of u
    over each value's rows divided by sqrt(c) and w = sqrt(c/n), the form
    is t^T t - n*eps (t^T p - (w^T p)^2 / (w^T q)) with [p, q] = A^{-1} [t, w]
    and A = diag(sqrt c) K_v diag(sqrt c) + n*eps*I the uncentered value
    Gram (see the module docstring). A is held as its band of width kd
    (`value_band`): one (kd+1) x k buffer, which the banded Cholesky
    factor overwrites, and one solve for both right-hand sides, in
    O(n log n + k kd^2) time and O(n + k kd) memory; no k x k array
    unless the band is full. The band drops the entries of values more
    than sqrt(s n) apart, s = min(ln(sqrt(n) / (2^-53 eps)), 746); the
    dropped part E has ||E|| <= 2^-53 n eps, so the banded matrix stays
    at least (1 - 2^-53) n eps I and the form moves by at most
    ||E|| / (n eps - ||E||) <= 1.1e-16 (||u|| = 1), a score by at most
    that times a <= 1.
    """
    x, u = _check_pair(kernel_input(x), u)
    n = x.size
    ridge = n * config.epsilon
    lo, hi = x.min(), x.max()
    if lo == hi:
        return 0.0
    top = x == hi
    if np.count_nonzero(top | (x == lo)) == n:  # two values, found without a sort
        d = hi - lo
        g = d * d if config.kernel.kind == LINEAR else -2.0 * np.expm1(-d * d / n)
        c1 = np.count_nonzero(top)
        c0 = n - c1
        s0, s1 = np.bincount(top, u, minlength=2)
        # the integer product c0 * c1 is exact, so swapping the two values
        # changes no rounding and x and a + b - x give the same bits
        return float(g * (s0 * c1 - s1 * c0) ** 2 / (n * (g * (c0 * c1) + n * ridge)))
    if config.kernel.kind == LINEAR:
        z = x - x.mean()
        return float(u @ z) ** 2 / (float(z @ z) + ridge)
    values, code, counts = np.unique(x, return_inverse=True, return_counts=True)
    root = np.sqrt(counts)
    t = np.bincount(code, u) / root
    w = root / np.sqrt(n)
    ab = value_band(values, n, root, config.epsilon)
    ab[0] += ridge
    try:
        factor = linalg.cholesky_banded(ab, overwrite_ab=True, lower=True, check_finite=False)
    except linalg.LinAlgError as exc:  # K_v is positive definite: the ridge is below rounding
        raise NumericsError(
            f"the banded factor failed at epsilon = {config.epsilon:g} (ridge n*epsilon = "
            f"{ridge:.3g}, below its rounding); raise --epsilon"
        ) from exc
    p, q = linalg.cho_solve_banded(
        (factor, True), np.column_stack([t, w]), overwrite_b=True, check_finite=False
    ).T
    wp = float(w @ p)
    return float(t @ t) - ridge * (float(t @ p) - wp * wp / float(w @ q))
