import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ushrink import (
    KernelSpec,
    ParameterError,
    UnsupportedOperationError,
    gram,
    kernel_function,
    load_gram_csv,
)
from ushrink.kernels import _kernel_block

SPECS = [KernelSpec.linear(), KernelSpec.gaussian(1.0), KernelSpec.exponential(1.0)]


def small_datasets():
    return st.integers(1, 8).flatmap(
        lambda n: st.integers(1, 3).flatmap(
            lambda d: st.lists(
                st.lists(st.floats(-3, 3), min_size=d, max_size=d),
                min_size=n, max_size=n,
            )
        )
    )


class TestEvalKernel:
    def test_linear_orthogonal(self):
        assert kernel_function(KernelSpec.linear())((1, 0), (0, 1)) == 0.0

    def test_gaussian_at_zero_distance(self):
        x = np.array([0.3, -1.2, 4.0])
        assert kernel_function(KernelSpec.gaussian(1.0))(x, x) == 1.0

    def test_exponential_unit_vector(self):
        val = kernel_function(KernelSpec.exponential(1.0))((1, 0), (1, 0))
        assert val == pytest.approx(math.e, rel=1e-15)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="mismatched dimensions"):
            kernel_function(KernelSpec.linear())((1, 0), (1, 0, 0))

    def test_precomputed_rejected(self):
        spec = KernelSpec.precomputed(np.eye(2))
        with pytest.raises(UnsupportedOperationError):
            kernel_function(spec)((1, 0), (0, 1))

    @pytest.mark.parametrize("spec", SPECS, ids=lambda s: s.kind)
    def test_symmetry(self, spec):
        rng = np.random.default_rng(0)
        for _ in range(20):
            x, y = rng.uniform(-3, 3, size=(2, 4))
            a, b = kernel_function(spec)(x, y), kernel_function(spec)(y, x)
            if spec.kind == "linear":
                assert a == b
            else:
                assert a == pytest.approx(b, abs=1e-12)


class TestGram:
    def test_linear_orthonormal(self):
        g = gram(KernelSpec.linear(), [[1, 0], [0, 1]])
        assert np.array_equal(g.entries, np.eye(2))

    def test_gaussian_single_point(self):
        g = gram(KernelSpec.gaussian(1.0), [[2.5]])
        assert np.array_equal(g.entries, [[1.0]])

    def test_linear_opposite_points(self):
        g = gram(KernelSpec.linear(), [[1, 0], [-1, 0]])
        assert np.array_equal(g.entries, [[1, -1], [-1, 1]])

    def test_precomputed_dimension_checked(self):
        spec = KernelSpec.precomputed(np.eye(3))
        with pytest.raises(ValueError, match="observations"):
            gram(spec, [[1.0], [2.0]])

    def test_precomputed_passthrough(self):
        m = np.array([[2.0, 0.5], [0.5, 1.0]])
        g = gram(KernelSpec.precomputed(m), [[0.0], [1.0]])
        assert np.array_equal(g.entries, m)

    @settings(max_examples=30, deadline=None)
    @given(data=small_datasets(), idx=st.integers(0, 2))
    def test_exact_transpose_symmetry(self, data, idx):
        g = gram(SPECS[idx], data).entries
        assert np.array_equal(g, g.T)

    @pytest.mark.parametrize("spec", SPECS, ids=lambda s: s.kind)
    def test_positive_semidefinite(self, spec):
        rng = np.random.default_rng(5)
        for n in range(2, 9):
            data = rng.uniform(-2, 2, size=(n, 3))
            eig = np.linalg.eigvalsh(gram(spec, data).entries)
            assert eig[0] >= -1e-9 * max(eig[-1], 0.0)

    def test_diag_nonnegative(self):
        rng = np.random.default_rng(9)
        data = rng.normal(size=(6, 2))
        for spec in SPECS:
            assert np.all(np.diagonal(gram(spec, data).entries) >= 0)

    def test_empty_dataset(self):
        with pytest.raises(ValueError, match="empty"):
            gram(KernelSpec.linear(), np.zeros((0, 2)))

    @pytest.mark.parametrize("d", range(1, 8))
    def test_gaussian_matches_broadcast_formula_bitwise(self, d):
        # below 8 terms numpy sums a reduction axis left to right, which is
        # the coordinate order gram accumulates in
        rng = np.random.default_rng(d)
        for n, bandwidth in ((1, 1.0), (2, 0.3), (17, 2.5), (60, 7.0)):
            x = rng.normal(scale=3.0, size=(n, d))
            ref = np.exp(-np.sum((x[:, None, :] - x[None, :, :]) ** 2, axis=-1)
                         / bandwidth)
            ref = (ref + ref.T) / 2.0
            g = gram(KernelSpec.gaussian(bandwidth), x).entries
            assert np.array_equal(g, ref)
            assert np.array_equal(g, g.T)

    @pytest.mark.parametrize("d", [8, 20, 130])
    def test_gaussian_matches_cdist(self, d):
        from scipy.spatial.distance import cdist

        x = np.random.default_rng(d).normal(size=(90, d))
        g = gram(KernelSpec.gaussian(float(d)), x).entries
        ref = np.exp(-cdist(x, x, "sqeuclidean") / d)
        assert np.abs(g - ref).max() <= 1e-13
        assert np.array_equal(g, g.T)

    def test_gaussian_memory_is_quadratic_not_cubic(self):
        # an (n, n, d) difference array would take 20 n^2 doubles here
        import tracemalloc

        n, d = 400, 20
        x = np.random.default_rng(0).normal(size=(n, d))
        tracemalloc.start()
        try:
            gram(KernelSpec.gaussian(float(d)), x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * n * n * 8


class TestSpecValidation:
    def test_bad_bandwidth(self):
        with pytest.raises(ParameterError):
            KernelSpec.gaussian(0.0)

    def test_bad_scale(self):
        with pytest.raises(ParameterError):
            KernelSpec.exponential(-1.0)

    def test_nonsquare_precomputed(self):
        with pytest.raises(ParameterError, match="square"):
            KernelSpec.precomputed(np.ones((2, 3)))

    def test_asymmetric_precomputed(self):
        m = np.array([[1.0, 2.0], [0.0, 1.0]])
        with pytest.raises(ParameterError, match="symmetric"):
            KernelSpec.precomputed(m)

    def test_tiny_asymmetry_absorbed(self, tmp_path):
        m = np.array([[1.0, 0.5 + 1e-13], [0.5, 1.0]])
        path = tmp_path / "gram.csv"
        np.savetxt(path, m, delimiter=",")
        g = load_gram_csv(path)
        assert np.array_equal(g.entries, g.entries.T)


def test_load_gram_csv_roundtrip(tmp_path):
    m = np.array([[1.0, 0.25], [0.25, 2.0]])
    path = tmp_path / "gram.csv"
    np.savetxt(path, m, delimiter=",")
    g = load_gram_csv(path)
    assert np.allclose(g.entries, m, rtol=0, atol=0)


class TestCrossBlock:
    # the (data, landmarks) block of a dual target against one kernel call
    # per pair
    @pytest.mark.parametrize("spec", SPECS, ids=lambda s: s.kind)
    def test_matches_pairwise(self, spec):
        rng = np.random.default_rng(4)
        x, z = rng.normal(size=(30, 5)), rng.normal(size=(7, 5))
        k = kernel_function(spec)
        pairwise = np.array([[k(a, b) for b in z] for a in x])
        # a dot product near zero has only an absolute error bound
        np.testing.assert_allclose(_kernel_block(spec, x, z), pairwise, rtol=1e-14,
                                   atol=1e-14 * np.abs(pairwise).max())

    @pytest.mark.parametrize("spec", SPECS, ids=lambda s: s.kind)
    def test_gram_is_block_with_itself(self, spec):
        x = np.random.default_rng(5).normal(size=(12, 9))
        g = gram(spec, x).entries
        block = _kernel_block(spec, x, x)
        assert np.array_equal(g, block if spec.kind == "gaussian"
                              else (block + block.T) / 2.0)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="mismatched dimensions 2 and 3"):
            _kernel_block(KernelSpec.gaussian(1.0), np.ones((4, 2)), np.ones((2, 3)))


class TestNonFinite:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_dataset_rejected(self, bad):
        data = np.ones((4, 2))
        data[2, 1] = bad
        with pytest.raises(ValueError, match="observation 2, coordinate 1"):
            gram(KernelSpec.linear(), data)

    def test_precomputed_nan_rejected(self):
        # nan - nan is nan and nan > tol is False, so the symmetry check alone
        # would let this matrix through
        with pytest.raises(ParameterError, match="non-finite"):
            KernelSpec.precomputed([[1.0, math.nan], [math.nan, 1.0]])

    def test_exponential_overflow_names_scale(self):
        data = np.array([[100.0, 100.0], [101.0, 99.0], [99.0, 100.0]])
        with pytest.raises(ValueError, match=r"exponential.*scale=2"):
            gram(KernelSpec.exponential(2.0), data)
        g = gram(KernelSpec.exponential(1e5), data)
        assert np.isfinite(g.entries).all()
