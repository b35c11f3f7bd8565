import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from fairdep import DataError, KernelSpec, center, gram
from fairdep.kernels import LINEAR, RBF, value_band

from oracles import naive_center, naive_gram, value_gram


def test_unknown_kernel_kind_rejected():
    with pytest.raises(ValueError):
        KernelSpec("polynomial")


def test_rbf_constant_vector_gives_all_ones():
    K = gram(np.full(5, 3.7), KernelSpec(RBF))
    np.testing.assert_array_equal(K, np.ones((5, 5)))


def test_rbf_two_points():
    # exp(-(0-1)^2 / 2) off-diagonal for the pair (0, 1)
    K = gram(np.array([0.0, 1.0]), KernelSpec(RBF))
    expected = np.exp(-0.5)
    assert K[0, 0] == K[1, 1] == 1.0
    assert K[0, 1] == pytest.approx(expected, abs=1e-15)
    assert expected == pytest.approx(0.606531, abs=1e-6)


def test_linear_is_outer_product():
    K = gram(np.array([2.0, -3.0]), KernelSpec(LINEAR))
    np.testing.assert_array_equal(K, np.array([[4.0, -6.0], [-6.0, 9.0]]))


@pytest.mark.parametrize("kind", [RBF, LINEAR])
def test_gram_matches_loop_oracle(kind):
    rng = np.random.default_rng(0)
    v = rng.standard_normal(17)
    np.testing.assert_allclose(gram(v, KernelSpec(kind)), naive_gram(v, kind), atol=1e-14)


@pytest.mark.parametrize("n", [2, 17, 600])
def test_rbf_gram_is_bit_identical_to_formula(n):
    rng = np.random.default_rng(n)
    v = rng.standard_normal(n) * 50.0
    d = v[:, None] - v[None, :]
    np.testing.assert_array_equal(gram(v, KernelSpec(RBF)), np.exp(-(d * d) / n))


def test_rbf_gram_holds_one_n_by_n_buffer():
    import tracemalloc

    n = 600
    v = np.random.default_rng(7).standard_normal(n)
    tracemalloc.start()
    try:
        gram(v, KernelSpec(RBF))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.1 * 8 * n * n


def test_gram_rejects_non_finite():
    with pytest.raises(DataError):
        gram(np.array([1.0, np.nan, 2.0]))


def test_gram_rejects_single_sample():
    with pytest.raises(ValueError):
        gram(np.array([1.0]))


def test_rbf_translation_invariance():
    rng = np.random.default_rng(1)
    v = rng.standard_normal(20)
    np.testing.assert_allclose(
        gram(v, KernelSpec(RBF)), gram(v + 123.4, KernelSpec(RBF)), atol=1e-12
    )


def test_rbf_entries_positive_and_bounded():
    rng = np.random.default_rng(2)
    K = gram(rng.standard_normal(30), KernelSpec(RBF))
    assert (K > 0).all() and (K <= 1).all()
    np.testing.assert_array_equal(np.diag(K), np.ones(30))


def test_center_kills_all_ones():
    np.testing.assert_allclose(center(np.ones((6, 6))), np.zeros((6, 6)), atol=1e-15)


def test_center_is_idempotent():
    rng = np.random.default_rng(3)
    K = gram(rng.standard_normal(12), KernelSpec(RBF))
    once = center(K)
    np.testing.assert_allclose(center(once), once, atol=1e-12)


def test_center_mean_zero_linear_gram_unchanged():
    # (1, -1) has zero mean, so H K H leaves its linear Gram alone
    K = gram(np.array([1.0, -1.0]), KernelSpec(LINEAR))
    np.testing.assert_allclose(center(K), np.array([[1.0, -1.0], [-1.0, 1.0]]), atol=1e-15)


def test_center_matches_explicit_h_oracle():
    rng = np.random.default_rng(4)
    K = gram(rng.standard_normal(15), KernelSpec(RBF))
    np.testing.assert_allclose(center(K), naive_center(K), atol=1e-12)


@pytest.mark.parametrize("kind, n", [(RBF, 600), (LINEAR, 2000)])
def test_center_is_exactly_symmetric(kind, n):
    rng = np.random.default_rng(n)
    # row and column means summed in different orders would leave these
    # about 4e-15 and 7e-15 off symmetric
    v = rng.standard_normal(n) if kind == RBF else rng.poisson(4.0, n).astype(float)
    G = center(gram(v, KernelSpec(kind)))
    np.testing.assert_array_equal(G, G.T)


def test_center_rejects_non_square():
    with pytest.raises(ValueError):
        center(np.ones((3, 4)))


@settings(max_examples=40, deadline=None)
@given(
    arrays(np.float64, 10, elements=st.floats(-50, 50)),
)
def test_center_row_and_column_sums_vanish(v):
    for kind in (RBF, LINEAR):
        C = center(gram(v, KernelSpec(kind)))
        n = C.shape[0]
        assert np.abs(C.sum(axis=0)).max() <= 1e-9 * n
        assert np.abs(C.sum(axis=1)).max() <= 1e-9 * n


@settings(max_examples=25, deadline=None)
@given(arrays(np.float64, 9, elements=st.floats(0, 1)), st.sampled_from([RBF, LINEAR]))
def test_indicator_complement_has_same_centered_gram(u, kind):
    b = (u > 0.5).astype(float)
    spec = KernelSpec(kind)
    np.testing.assert_allclose(
        center(gram(b, spec)), center(gram(1.0 - b, spec)), atol=1e-12
    )


def test_gram_symmetric():
    rng = np.random.default_rng(5)
    v = rng.standard_normal(25)
    for kind in (RBF, LINEAR):
        K = gram(v, KernelSpec(kind))
        np.testing.assert_array_equal(K, K.T)


def test_psd_on_random_probes():
    rng = np.random.default_rng(6)
    for kind in (RBF, LINEAR):
        v = rng.standard_normal(40)
        K = gram(v, KernelSpec(kind))
        w = np.linalg.eigvalsh(K)
        assert w.min() >= -1e-8 * len(v)


def _band_columns(n):
    rng = np.random.default_rng(n)
    return {
        "indicator": (rng.random(n) < 0.3).astype(float),
        "count": rng.poisson(3.0, n).astype(float),
        "normal": rng.standard_normal(n),
        "money": np.round(rng.lognormal(np.log(22000), 1.2, n)),
        "pay": np.round(rng.lognormal(np.log(2500), 1.1, n)),
    }


@pytest.mark.parametrize("epsilon", [1e-9, 1e-6, 1e-3])
@pytest.mark.parametrize("n", [40, 400, 2000])
@pytest.mark.parametrize("shape", ["indicator", "count", "normal", "money", "pay"])
def test_value_band_drops_only_what_cannot_move_a_score(shape, n, epsilon):
    values, counts = np.unique(_band_columns(n)[shape], return_counts=True)
    root = np.sqrt(counts)
    ab = value_band(values, n, root, epsilon)
    assert ab.flags.f_contiguous
    kd, k = ab.shape[0] - 1, values.size
    K = value_gram(values, n)
    K *= root[:, None]
    K *= root
    for d in range(kd + 1):
        np.testing.assert_array_equal(ab[d, : k - d], np.diagonal(K, -d))
    # the dropped part E, both triangles: ||E||_inf stays within 2^-53 n eps,
    # so the banded A = M - E + n eps I keeps every score to about 1e-16
    dropped = np.tril(K, -kd - 1)
    dropped += dropped.T
    assert np.abs(dropped).sum(axis=1).max() <= 2.0**-53 * n * epsilon
    if n == 2000 and shape in ("money", "pay"):
        assert kd < k // 6
