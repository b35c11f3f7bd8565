import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from fairdep import DependenceConfig, KernelSpec, NumericsError, gram, hsic, nocco
from fairdep.dependence import label_direction, quadratic_form, regularized_operator
from fairdep.kernels import LINEAR, RBF

from oracles import naive_hsic, naive_nocco

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
    st.sampled_from(["indicator", "count", "normal"]),
    st.sampled_from([RBF, LINEAR]),
)
def test_label_quadratic_form_matches_dense_trace(n, seed, shape, kind):
    rng = np.random.default_rng(seed)
    y = np.where(rng.random(n) < 0.5, 1.0, -1.0)
    x = {
        "indicator": lambda: (rng.random(n) < 0.5).astype(float),
        "count": lambda: rng.poisson(3.0, n).astype(float),
        "normal": lambda: rng.standard_normal(n),
    }[shape]()
    cfg = DependenceConfig(KernelSpec(kind), EPS)
    u, a = label_direction(y, cfg)
    dense = np.vdot(
        regularized_operator(gram(x, cfg.kernel), EPS), regularized_operator(gram(y, cfg.kernel), EPS)
    )
    # both paths miss a 40-digit reference by up to about 1e-10 on these
    # inputs (dense: 7.2e-11 over 240 draws), so the absolute floor sits
    # above that; relative agreement holds to 1e-8
    assert a * quadratic_form(x, u, cfg) == pytest.approx(dense, rel=1e-8, abs=5e-10)


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


def test_hsic_and_nocco_agree_on_degenerate_flags():
    rng = np.random.default_rng(12)
    y = rng.standard_normal(15)
    x = np.full(15, 3.0)
    assert hsic(x, y) == pytest.approx(0.0, abs=1e-12)
    assert nocco(x, y, GAUSS) == pytest.approx(0.0, abs=1e-12)
