import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from fairdep import DependenceConfig, KernelSpec, NumericsError, gram, hsic, nocco
from fairdep.dependence import label_direction, quadratic_form, regularized_operator
from fairdep.kernels import LINEAR, RBF, center, value_band

from oracles import naive_hsic, naive_nocco, value_gram

EPS = 1e-6
LIN = DependenceConfig(KernelSpec(LINEAR), EPS)
GAUSS = DependenceConfig(KernelSpec(RBF), EPS)


def balanced_labels(n):
    y = np.ones(n)
    y[: n // 2] = -1
    return y


def test_config_rejects_nonpositive_epsilon():
    with pytest.raises(ValueError):
        DependenceConfig(epsilon=0.0)


def test_config_rejects_infinite_epsilon():
    # the band's cut takes ln(eps), and an infinite ridge scores nothing
    with pytest.raises(ValueError, match="finite"):
        DependenceConfig(epsilon=np.inf)


# ---------------------------------------------------------------- hsic


def test_hsic_constant_input_is_zero():
    rng = np.random.default_rng(0)
    y = rng.standard_normal(20)
    assert hsic(np.full(20, 2.0), y) == pytest.approx(0.0, abs=1e-12)


def test_hsic_symmetric_in_arguments():
    rng = np.random.default_rng(1)
    x, y = rng.standard_normal(25), rng.standard_normal(25)
    for kind in (RBF, LINEAR):
        spec = KernelSpec(kind)
        assert hsic(x, y, spec) == pytest.approx(hsic(y, x, spec), rel=1e-12)


def test_hsic_alternating_pair_closed_form():
    # x = y = (1,-1,1,-1), linear kernel: tr((xx^T)^2)/(n-1)^2 = 16/9
    x = np.array([1.0, -1.0, 1.0, -1.0])
    assert hsic(x, x, KernelSpec(LINEAR)) == pytest.approx(16.0 / 9.0, rel=1e-12)


def test_hsic_matches_naive_oracle():
    rng = np.random.default_rng(2)
    x, y = rng.standard_normal(18), rng.standard_normal(18)
    for kind in (RBF, LINEAR):
        assert hsic(x, y, KernelSpec(kind)) == pytest.approx(
            naive_hsic(x, y, kind), rel=1e-10
        )


def test_hsic_length_mismatch():
    with pytest.raises(ValueError):
        hsic(np.ones(3), np.ones(4))


# ------------------------------------------------- regularized operator


def test_operator_of_constant_feature_is_zero():
    R = regularized_operator(np.ones((8, 8)), EPS)
    np.testing.assert_allclose(R, np.zeros((8, 8)), atol=1e-12)


def test_operator_rank_one_closed_form():
    # balanced +-1 vector, linear kernel: R = yy^T / (n (1+eps)),
    # single nonzero eigenvalue 1/(1+eps)
    n = 12
    y = balanced_labels(n)
    R = regularized_operator(gram(y, KernelSpec(LINEAR)), EPS)
    np.testing.assert_allclose(R, np.outer(y, y) / (n * (1 + EPS)), atol=1e-9)
    w = np.linalg.eigvalsh(R)
    assert w[-1] == pytest.approx(1 / (1 + EPS), abs=1e-10)
    np.testing.assert_allclose(w[:-1], np.zeros(n - 1), atol=1e-9)


def test_operator_eigenvalues_in_unit_interval():
    rng = np.random.default_rng(3)
    for kind in (RBF, LINEAR):
        K = gram(rng.standard_normal(30), KernelSpec(kind))
        w = np.linalg.eigvalsh(regularized_operator(K, EPS))
        assert w.min() >= -1e-9
        assert w.max() <= 1.0 + 1e-9


def test_operator_symmetric():
    rng = np.random.default_rng(4)
    R = regularized_operator(gram(rng.standard_normal(20), KernelSpec(RBF)), EPS)
    np.testing.assert_allclose(R, R.T, atol=1e-9)


def test_operator_rejects_broken_kernel():
    # a decidedly non-PSD "Gram" whose centered form stays indefinite
    K = np.diag([1.0, -50.0, 1.0, -50.0])
    with pytest.raises(NumericsError):
        regularized_operator(K, 1e-8)


# ---------------------------------------------------------------- nocco


def test_nocco_constant_input_is_zero():
    rng = np.random.default_rng(5)
    y = rng.standard_normal(20)
    for cfg in (LIN, GAUSS):
        assert nocco(np.full(20, 7.0), y, cfg) == pytest.approx(0.0, abs=1e-12)


def test_nocco_balanced_label_closed_form():
    y = balanced_labels(10)
    assert nocco(y, y, LIN) == pytest.approx((1 / (1 + EPS)) ** 2, abs=1e-10)


def test_nocco_symmetric():
    rng = np.random.default_rng(6)
    x, y = rng.standard_normal(30), rng.standard_normal(30)
    for cfg in (LIN, GAUSS):
        a, b = nocco(x, y, cfg), nocco(y, x, cfg)
        assert a == pytest.approx(b, rel=1e-10)


def test_nocco_indicator_complement_invariance():
    rng = np.random.default_rng(7)
    y = balanced_labels(40)
    for cfg in (LIN, GAUSS):
        for _ in range(5):
            b = (rng.random(40) > 0.4).astype(float)
            assert nocco(b, y, cfg) == pytest.approx(nocco(1 - b, y, cfg), rel=1e-10)


def test_nocco_matches_naive_oracle_small_n():
    rng = np.random.default_rng(8)
    for n in (10, 25, 60):
        x = rng.standard_normal(n)
        y = x + rng.standard_normal(n)  # dependent pair keeps values well away from 0
        for kind in (RBF, LINEAR):
            fast = nocco(x, y, DependenceConfig(KernelSpec(kind), EPS))
            slow = naive_nocco(x, y, kind, EPS)
            assert fast == pytest.approx(slow, rel=1e-8)


def test_nocco_independent_noise_stays_small():
    # empirical calibration: observed max ~0.007 over these seeds at n=500
    worst = 0.0
    for seed in range(20):
        rng = np.random.default_rng(1000 + seed)
        x = rng.random(500)
        y = np.where(rng.random(500) < 0.5, 1.0, -1.0)
        worst = max(worst, nocco(x, y, GAUSS))
    assert worst < 0.05


def test_nocco_linear_scale_robustness():
    rng = np.random.default_rng(9)
    x, y = rng.standard_normal(50), rng.standard_normal(50)
    base = nocco(x, y, LIN)
    for c in (0.1, 10.0):
        assert nocco(c * x, y, LIN) == pytest.approx(base, rel=1e-3)


def test_nocco_upper_bound_by_operator_traces():
    rng = np.random.default_rng(10)
    for _ in range(10):
        x, y = rng.standard_normal(25), rng.standard_normal(25)
        for cfg in (LIN, GAUSS):
            rx = regularized_operator(gram(x, cfg.kernel), cfg.epsilon)
            ry = regularized_operator(gram(y, cfg.kernel), cfg.epsilon)
            assert nocco(x, y, cfg) <= min(np.trace(rx), np.trace(ry)) + 1e-9


def _exact_linear_nocco(x, y, epsilon):
    # (z_x^T z_y)^2 / ((||z_x||^2 + n eps)(||z_y||^2 + n eps)) in exact rationals
    from fractions import Fraction

    def centered(v):
        vs = [Fraction(a) for a in v.tolist()]
        mean = sum(vs) / len(vs)
        return [a - mean for a in vs]

    zx, zy = centered(x), centered(y)
    ridge = len(zx) * Fraction(epsilon)
    xy = sum(a * b for a, b in zip(zx, zy))
    return float(xy * xy / ((sum(a * a for a in zx) + ridge) * (sum(b * b for b in zy) + ridge)))


def test_linear_nocco_exact_at_adult_magnitude():
    # capital-gain-like: mostly 0, a few amounts of 1e3 to 1e5 that track
    # the label; a dense R of this column loses the n*eps ridge to rounding
    rng = np.random.default_rng(11)
    n = 1000
    gain = rng.random(n) < 0.08
    x = np.where(gain, np.round(rng.lognormal(np.log(8000), 1.0, n)).clip(1e3, 1e5), 0.0)
    y = np.where((gain & (rng.random(n) < 0.7)) | (rng.random(n) < 0.2), 1.0, -1.0)
    want = _exact_linear_nocco(x, y, EPS)
    assert want > 0.01
    assert nocco(x, y, LIN) == pytest.approx(want, rel=1e-12)
    assert nocco(y, x, LIN) == pytest.approx(want, rel=1e-12)


def test_linear_nocco_forms_no_gram(monkeypatch):
    from fairdep import dependence

    def refuse(*args, **kwargs):
        raise AssertionError("an n x n Gram or operator was formed")

    monkeypatch.setattr(dependence, "gram", refuse)
    monkeypatch.setattr(dependence, "regularized_operator", refuse)
    rng = np.random.default_rng(21)
    x, y = rng.standard_normal(50), rng.standard_normal(50)
    assert nocco(x, y, LIN) == pytest.approx(_exact_linear_nocco(x, y, EPS), rel=1e-12)
    with pytest.raises(AssertionError, match="n x n"):  # the RBF dense reference still does
        nocco(x, y, GAUSS)


@settings(max_examples=20, deadline=None)
@given(
    arrays(np.float64, 12, elements=st.floats(-20, 20)),
    arrays(np.float64, 12, elements=st.floats(-20, 20)),
    st.sampled_from([RBF, LINEAR]),
)
def test_nocco_nonnegative(x, y, kind):
    assert nocco(x, y, DependenceConfig(KernelSpec(kind), EPS)) >= -1e-12


@settings(max_examples=60, deadline=None)
@given(
    st.integers(3, 40),
    st.integers(0, 2**32 - 1),
    st.sampled_from(
        [
            (shape, kind)
            for shape in ("indicator", "count", "normal", "wide", "distinct", "money")
            for kind in (RBF, LINEAR)
        ]
    ),
)
# the dense linear trace misses this draw by 5.1e-10 (0.013157876309
# against an exact 0.0131578768179), the closed form by under 1e-17
@example(3, 129137, ("count", LINEAR))
def test_label_quadratic_form_matches_dense_trace(n, seed, case):
    shape, kind = case
    rng = np.random.default_rng(seed)
    y = np.where(rng.random(n) < 0.5, 1.0, -1.0)
    x = {
        "indicator": lambda: (rng.random(n) < 0.5).astype(float),
        "count": lambda: rng.poisson(3.0, n).astype(float),
        "normal": lambda: rng.standard_normal(n),
        # few distinct values of wide magnitude
        "wide": lambda: rng.choice([0.0, 1.0, 37.0, 1e3, 5e4], n),
        # every value distinct, k = n
        "distinct": lambda: rng.permutation(n).astype(float),
        # NT$-like amounts: most value pairs lie outside the RBF band
        "money": lambda: np.round(rng.lognormal(np.log(22000), 1.2, n)),
    }[shape]()
    cfg = DependenceConfig(KernelSpec(kind), EPS)
    u, a = label_direction(y, cfg)
    if kind == LINEAR:
        # the dense linear trace loses the ridge to rounding (5.1e-10 off on
        # the pinned draw, far more on the wide shapes), so the linear cases
        # take the exact rational form; the closed form missed it by at most
        # 4.4e-16 absolute over 9,000 draws, 1,500 per shape
        want = a * _exact_linear_form(x, u, EPS)
        assert a * quadratic_form(x, u, cfg) == pytest.approx(want, rel=1e-11, abs=1e-14)
        return
    dense = np.vdot(
        regularized_operator(gram(x, cfg.kernel), EPS), regularized_operator(gram(y, cfg.kernel), EPS)
    )
    # both paths miss a 40-digit reference by up to about 1e-10 on these
    # inputs (dense: 7.2e-11 over 240 draws), so the absolute floor sits
    # above that; relative agreement holds to 1e-8
    assert a * quadratic_form(x, u, cfg) == pytest.approx(dense, rel=1e-8, abs=5e-10)


def _value_space_form(x, u, epsilon):
    """u^T R_x u from the dense k x k centered value Gram and a general solve."""
    n = x.size
    values, code, counts = np.unique(x, return_inverse=True, return_counts=True)
    root = np.sqrt(counts)
    t = np.bincount(code, u) / root
    w = root / np.sqrt(n)
    pi = np.eye(values.size) - np.outer(w, w)
    centered = pi @ (root[:, None] * value_gram(values, n) * root) @ pi
    centered += n * epsilon * np.eye(values.size)
    return float(t @ t) - n * epsilon * float(t @ np.linalg.solve(centered, t))


# at eps = 1e-9 the ridge is 2e-6 and the problem's own rounding reaches
# about 2e-11 on the uniform column, for this form and for the dense
# reference alike (each against an extended-precision refinement, where
# dropping the band's outside changes no bit), so the bound is wider there
@pytest.mark.parametrize("epsilon, rel", [(1e-9, 1e-10), (1e-6, 1e-12), (1e-3, 1e-12)])
@pytest.mark.parametrize("shape", ["money", "pay", "uniform"])
def test_banded_quadratic_form_matches_dense_value_reference(shape, epsilon, rel):
    # the band drops every entry of values more than sqrt(s n) apart; against
    # the full k x k value Gram the form still agrees to rounding level
    cfg = DependenceConfig(KernelSpec(RBF), epsilon)
    x, u = _shaped_column(shape, cfg)
    assert quadratic_form(x, u, cfg) == pytest.approx(_value_space_form(x, u, epsilon), rel=rel)


def _shaped_column(shape, cfg, n=2000):
    """A money-, pay- or uniform-shaped column of many distinct values, and a label's u."""
    rng = np.random.default_rng(20)
    x = {
        "money": lambda: np.round(rng.lognormal(np.log(22000), 1.2, n)),
        "pay": lambda: np.round(rng.lognormal(np.log(2500), 1.1, n)),
        "uniform": lambda: np.round(rng.uniform(0.0, 20_000.0, n)),
    }[shape]()
    u, _ = label_direction(np.where(x + rng.normal(0, 5000, n) > 20_000, 1.0, -1.0), cfg)
    return x, u


@pytest.mark.parametrize("shape", ["money", "pay", "uniform"])
def test_banded_form_equals_scipy_linalg_arithmetic(shape):
    # the LAPACK routines loaded by path are the ones scipy.linalg's
    # cholesky_banded and cho_solve_banded call, so every bit is the same
    from scipy import linalg

    x, u = _shaped_column(shape, GAUSS)
    n = x.size
    ridge = n * EPS
    values, code, counts = np.unique(x, return_inverse=True, return_counts=True)
    root = np.sqrt(counts)
    t = np.bincount(code, u) / root
    w = root / np.sqrt(n)
    ab = value_band(values, n, root, EPS)
    assert ab.shape[0] > 1  # a band, not a diagonal
    ab[0] += ridge
    factor = linalg.cholesky_banded(ab, overwrite_ab=True, lower=True, check_finite=False)
    p, q = linalg.cho_solve_banded(
        (factor, True), np.column_stack([t, w]), overwrite_b=True, check_finite=False
    ).T
    wp = float(w @ p)
    assert quadratic_form(x, u, GAUSS) == float(t @ t) - ridge * (float(t @ p) - wp * wp / float(w @ q))


def test_operator_equals_scipy_linalg_arithmetic():
    from scipy import linalg

    rng = np.random.default_rng(21)
    K = gram(rng.standard_normal(200), KernelSpec(RBF))
    G = center(K)
    A = np.asfortranarray(G)
    A.flat[:: A.shape[0] + 1] += A.shape[0] * EPS
    R = linalg.cho_solve(linalg.cho_factor(A, lower=True, overwrite_a=True, check_finite=False), G)
    assert (regularized_operator(K, EPS) == (R + R.T) / 2.0).all()


_SCORE_IN_A_FRESH_INTERPRETER = """
import hashlib, sys
if sys.argv[1] == "before":
    import scipy.linalg
import numpy as np
from fairdep.dependence import DependenceConfig, label_direction, quadratic_form, regularized_operator
from fairdep.kernels import KernelSpec, gram
if sys.argv[1] == "after":
    import scipy.linalg
rng = np.random.default_rng(22)
x = np.round(rng.lognormal(np.log(22000), 1.2, 2000))
cfg = DependenceConfig(KernelSpec("rbf"))
u, a = label_direction(np.where(x + rng.normal(0, 5000, 2000) > 20_000, 1.0, -1.0), cfg)
R = regularized_operator(gram(x[:200], cfg.kernel), cfg.epsilon)
print(a.hex(), quadratic_form(x, u, cfg).hex(), hashlib.sha256(R.tobytes()).hexdigest())
"""


def test_scores_do_not_depend_on_when_scipy_linalg_is_imported():
    # dependence loads scipy's LAPACK module by path; a scipy.linalg import
    # before or after it must find and keep the same routines
    runs = [
        subprocess.run(
            [sys.executable, "-c", _SCORE_IN_A_FRESH_INTERPRETER, order],
            capture_output=True, text=True, timeout=120,
        )
        for order in ("before", "after")
    ]
    assert [done.returncode for done in runs] == [0, 0], [done.stderr for done in runs]
    before, after = (done.stdout.split() for done in runs)
    assert len(before) == 3 and before == after


def test_missing_lapack_extension_names_its_path_and_scipy_version():
    code = (
        "import importlib.machinery, scipy; importlib.machinery.EXTENSION_SUFFIXES[:] = ['.none']; "
        "print(scipy.__version__); import fairdep.dependence"
    )
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    version = done.stdout.strip()
    assert f"ImportError: scipy {version} has no LAPACK extension " in done.stderr
    assert "_flapack with a suffix in ['.none']" in done.stderr


def _closed_form_inputs(n):
    rng = np.random.default_rng(12345)
    z = rng.standard_normal(n)
    y = np.where(z + rng.standard_normal(n) > 0.3, 1.0, -1.0)
    return y, {
        "normal": z + 0.5 * rng.standard_normal(n),
        "count": rng.poisson(np.exp(0.5 * z + 1.0)).astype(float),
        "age": np.clip(np.round(40 + 12 * z + 5 * rng.standard_normal(n)), 17, 90),
        "indicator": (z + rng.standard_normal(n) > 0.5).astype(float),
        "independent": rng.standard_normal(n),
    }


def test_label_quadratic_form_linear_closed_form_at_n2000():
    # linear kernel: R_z = s_z/(s_z + n eps) * P_z with s_z = ||Hz||^2 and
    # P_z the projector on Hz, so nocco = s_x/(s_x+n eps) s_y/(s_y+n eps) corr^2
    n = 2000
    y, columns = _closed_form_inputs(n)
    u, a = label_direction(y, LIN)
    hy = y - y.mean()
    for name, x in columns.items():
        hx = x - x.mean()
        sx, sy = hx @ hx, hy @ hy
        want = sx / (sx + n * EPS) * sy / (sy + n * EPS) * (hx @ hy) ** 2 / (sx * sy)
        # the dense tr(R_x R_y) misses this closed form by up to 3.7e-10
        # relative on these columns; the bound allows about ten times that
        assert a * quadratic_form(x, u, LIN) == pytest.approx(want, rel=5e-9, abs=0), name


@pytest.mark.parametrize("cfg", [GAUSS, LIN], ids=[RBF, LINEAR])
def test_quadratic_form_is_row_permutation_invariant(cfg):
    rng = np.random.default_rng(13)
    n = 300
    y = np.where(rng.random(n) < 0.4, 1.0, -1.0)
    u, _ = label_direction(y, cfg)
    perm = rng.permutation(n)
    for x in (
        (rng.random(n) < 0.3).astype(float),
        rng.poisson(4.0, n).astype(float),
        rng.standard_normal(n),
    ):
        assert quadratic_form(x[perm], u[perm], cfg) == pytest.approx(
            quadratic_form(x, u, cfg), rel=1e-12
        )


def _exact_linear_form(x, u, epsilon):
    # (u^T z)^2 / (||z||^2 + n eps), z = x - mean(x), in exact rationals
    from fractions import Fraction

    xs = [Fraction(v) for v in x.tolist()]
    n = len(xs)
    mean = sum(xs) / n
    z = [v - mean for v in xs]
    uz = sum(Fraction(a) * b for a, b in zip(u.tolist(), z))
    return float(uz * uz / (sum(v * v for v in z) + n * Fraction(epsilon)))


@pytest.mark.parametrize("shape", ["lognormal", "integer", "two-valued"])
def test_linear_quadratic_form_exact_at_large_magnitude(shape):
    # Taiwan-credit-like magnitudes: the dense n x n Gram's rounding swamps
    # the n*eps ridge there, and its Cholesky factor fails or drifts
    rng = np.random.default_rng(14)
    n = 1000
    x = {
        "lognormal": lambda: rng.lognormal(11.0, 1.0, n),
        "integer": lambda: rng.integers(10_000, 1_000_000, n).astype(float),
        "two-valued": lambda: rng.choice([10_000.0, 960_000.0], n),
    }[shape]()
    z = (x - x.mean()) / x.std()
    y = np.where(z + rng.standard_normal(n) > 0, 1.0, -1.0)
    u, _ = label_direction(y, LIN)
    assert quadratic_form(x, u, LIN) == pytest.approx(_exact_linear_form(x, u, EPS), rel=1e-12)


def _unit_centered(v):
    # v / max|v|, centered and normalized; nothing here can overflow
    z = v / np.abs(v).max()
    z = z - z.mean()
    return z / np.sqrt(z @ z)


def _huge_column(shape, scale, rng, n=60):
    """A column whose largest |value| is `scale`, and labels that track it."""
    if shape == "many-valued":
        base = rng.standard_normal(n)
    else:  # two values, -scale and scale, whose difference overflows
        base = np.where(rng.random(n) < 0.4, 1.0, -1.0)
    y = np.where(base + rng.standard_normal(n) > 0, 1.0, -1.0)
    return base / np.abs(base).max() * scale, y


@pytest.mark.parametrize("scale", [1e150, 1e200, 1e308])
@pytest.mark.parametrize("shape", ["many-valued", "two-valued"])
def test_linear_forms_are_finite_at_any_magnitude(shape, scale):
    # x's ridge n*eps is far below ||z||^2 here, so the forms sit at their
    # limits without it: (u^T z^)^2 for the unit centered z^ of x, and
    # (z^T z_y)^2 / (||z_y||^2 + n*eps) for nocco
    x, y = _huge_column(shape, scale, np.random.default_rng(23))
    u, _ = label_direction(y, LIN)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        form = quadratic_form(x, u, LIN)
        d = nocco(x, y, LIN)
    assert 0.0 <= form <= 1.0 and form == pytest.approx(float(u @ _unit_centered(x)) ** 2, rel=1e-12)
    zy = y - y.mean()  # y is +-1, so its ridge stays
    want = float(_unit_centered(x) @ zy) ** 2 / (float(zy @ zy) + y.size * EPS)
    assert 0.0 <= d <= 1.0 and d == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("scale", [0.3, 3.0, 1e5, 1e100])
@pytest.mark.parametrize("shape", ["many-valued", "two-valued"])
def test_linear_forms_keep_the_bits_of_the_unscaled_formula(shape, scale):
    # dividing x by a power of two and the ridge by its square is exact, so
    # wherever the formula on x itself is finite, the forms give its bits
    x, y = _huge_column(shape, scale, np.random.default_rng(24))
    u, _ = label_direction(y, LIN)
    n, ridge = x.size, x.size * EPS
    if shape == "two-valued":
        top = x == x.max()
        c1 = np.count_nonzero(top)
        c0 = n - c1
        s0, s1 = np.bincount(top, u, minlength=2)
        g = (x.max() - x.min()) ** 2
        want = float(g * (s0 * c1 - s1 * c0) ** 2 / (n * (g * (c0 * c1) + n * ridge)))
    else:
        z = x - x.mean()
        want = float(u @ z) ** 2 / (float(z @ z) + ridge)
    assert quadratic_form(x, u, LIN) == want
    zx, zy = x - x.mean(), y - y.mean()
    want = float(zx @ zy) ** 2 / ((float(zx @ zx) + ridge) * (float(zy @ zy) + ridge))
    assert nocco(x, y, LIN) == want


@pytest.mark.parametrize("lo, hi", [(0.0, 1e160), (-1e308, 1e308)])
def test_rbf_two_valued_form_takes_its_limit_without_warning(lo, hi):
    # (hi - lo)^2 overflows to inf, and g = -2 expm1(-inf) = 2 is its limit
    rng = np.random.default_rng(25)
    n = 60
    top = rng.random(n) < 0.4
    x = np.where(top, hi, lo)
    u, _ = label_direction(np.where(top ^ (rng.random(n) < 0.2), 1.0, -1.0), GAUSS)
    c1 = np.count_nonzero(top)
    c0 = n - c1
    s0, s1 = u[~top].sum(), u[top].sum()
    want = 2.0 * (s0 * c1 - s1 * c0) ** 2 / (n * (2.0 * c0 * c1 + n * n * EPS))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert quadratic_form(x, u, GAUSS) == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("cfg", [GAUSS, LIN], ids=[RBF, LINEAR])
def test_two_valued_form_is_exact_under_value_swap(cfg):
    # x and lo + hi - x have the same centered Gram under any kernel, and
    # the two-valued form is symmetric in the two values, so the bits agree
    rng = np.random.default_rng(17)
    pairs = [(0.0, 1.0), (-3.5, 7.0), (1e4, 9.6e5)]
    for draw in range(50):
        lo, hi = pairs[draw % len(pairs)]
        n = int(rng.integers(3, 401))
        x = np.where(rng.random(n) < rng.uniform(0.1, 0.9), hi, lo)
        x[:2] = lo, hi
        u, _ = label_direction(np.where(rng.random(n) < 0.5, 1.0, -1.0), cfg)
        assert quadratic_form(x, u, cfg) == quadratic_form(lo + hi - x, u, cfg), (draw, n, lo)


def test_two_valued_columns_need_no_factor(monkeypatch):
    from fairdep import dependence

    def refuse(*args, **kwargs):
        raise AssertionError("two-valued columns take the closed form")

    monkeypatch.setattr(dependence._lapack, "dpbtrf", refuse)
    monkeypatch.setattr(dependence._lapack, "dpbtrs", refuse)
    rng = np.random.default_rng(18)
    n = 200
    y = np.where(rng.random(n) < 0.5, 1.0, -1.0)
    u, a = label_direction(y, GAUSS)
    assert 0 < a < 1
    assert quadratic_form((rng.random(n) < 0.3).astype(float), u, GAUSS) >= 0
    assert quadratic_form(np.where(y > 0, 7.0, -3.5), u, GAUSS) > 0.9
    assert quadratic_form(np.full(n, 2.5), u, GAUSS) == 0.0


def _sorted_two_valued_form(x, u, cfg):
    """The two-valued form from the sorted distinct values, counts and codes."""
    n = x.size
    values, code, counts = np.unique(x, return_inverse=True, return_counts=True)
    d = values[1] - values[0]
    g = d * d if cfg.kernel.kind == LINEAR else -2.0 * np.expm1(-d * d / n)
    (s0, s1), (c0, c1) = np.bincount(code, u), counts
    return float(g * (s0 * c1 - s1 * c0) ** 2 / (n * (g * (c0 * c1) + n * n * cfg.epsilon)))


def test_two_valued_and_linear_columns_need_no_sort(monkeypatch):
    rng = np.random.default_rng(19)
    n = 300
    u, _ = label_direction(np.where(rng.random(n) < 0.4, 1.0, -1.0), GAUSS)
    pairs = [
        np.where(rng.random(n) < 0.3, 1.0, 0.0),
        np.where(rng.random(n) < 0.6, 9.6e5, -3.5),
        np.where(rng.random(n) < 0.5, -0.0, 2.0) * np.where(rng.random(n) < 0.5, 1.0, 0.0),
    ]
    many = rng.integers(0, 7, n).astype(float)
    want = {
        (i, cfg.kernel.kind): _sorted_two_valued_form(x, u, cfg)
        for i, x in enumerate(pairs)
        for cfg in (GAUSS, LIN)
    }
    z = many - many.mean()
    want_many = float(u @ z) ** 2 / (float(z @ z) + n * EPS)

    def refuse(*args, **kwargs):
        raise AssertionError("k <= 2 and linear columns are scored without np.unique")

    monkeypatch.setattr(np, "unique", refuse)
    for i, x in enumerate(pairs):
        for cfg in (GAUSS, LIN):
            assert quadratic_form(x, u, cfg) == want[i, cfg.kernel.kind], (i, cfg.kernel.kind)
    assert quadratic_form(many, u, LIN) == want_many
    assert quadratic_form(np.full(n, 4.0), u, LIN) == 0.0
    with pytest.raises(AssertionError, match="np.unique"):
        quadratic_form(many, u, GAUSS)  # k > 2 under the RBF still needs the distinct values


@pytest.mark.parametrize("cfg", [GAUSS, LIN], ids=[RBF, LINEAR])
def test_label_scoring_memory_is_linear_in_n(cfg):
    # value-space scoring holds O(n + k kd) bytes; a dense n x n Gram
    # alone would be 8n bytes per row
    import tracemalloc

    rng = np.random.default_rng(15)
    n = 3000
    y = np.where(rng.random(n) < 0.5, 1.0, -1.0)
    indicator = (rng.random(n) < 0.3).astype(float)
    count = rng.integers(0, 50, n).astype(float)
    tracemalloc.start()
    try:
        u, _ = label_direction(y, cfg)
        quadratic_form(indicator, u, cfg)
        quadratic_form(count, u, cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 128 * n


def test_banded_quadratic_form_memory_stays_within_band():
    # a money column at n=2000 has k of about 2000 distinct values but a
    # band of width about 30: the scoring buffer is (kd+1) x k,
    # where a k x k value Gram alone would take about 30 MiB
    import tracemalloc

    rng = np.random.default_rng(16)
    n = 2000
    y = np.where(rng.random(n) < 0.5, 1.0, -1.0)
    money = np.round(rng.lognormal(np.log(22000), 1.2, n))
    u, _ = label_direction(y, GAUSS)
    tracemalloc.start()
    try:
        quadratic_form(money, u, GAUSS)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 4 * 2**20


def test_hsic_and_nocco_agree_on_degenerate_flags():
    rng = np.random.default_rng(12)
    y = rng.standard_normal(15)
    x = np.full(15, 3.0)
    assert hsic(x, y) == pytest.approx(0.0, abs=1e-12)
    assert nocco(x, y, GAUSS) == pytest.approx(0.0, abs=1e-12)
