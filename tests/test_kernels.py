import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from ushrink import (
    GramMatrix,
    KernelSpec,
    ParameterError,
    gram,
    kernel_function,
    load_gram_csv,
)
from ushrink.kernels import (
    GAUSSIAN_PRODUCT_MAX_SPREAD,
    GAUSSIAN_PRODUCT_MIN_DIM,
    _GRAM_TILE_VALUES,
    _gaussian_gram,
    _gaussian_gram_product,
    _kernel_block,
    _symmetrize,
)

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

    @pytest.mark.parametrize("d", range(1, 8))
    def test_gaussian_tiles_match_broadcast_formula_bitwise(self, d):
        # the coordinate route squares coordinates 1 .. d-1 a block of rows
        # at a time; every tiling must give the one-pass broadcast's bits
        rng = np.random.default_rng(100 + d)
        m = 100
        rows = _GRAM_TILE_VALUES // m  # rows per tile against m columns
        shapes = [(1, 1), (rows - 1, m), (rows, m), (rows + 1, m),
                  (2 * rows + 1, m), (2, _GRAM_TILE_VALUES + 1)]
        for n, cols in shapes:
            x = rng.normal(scale=2.0, size=(n, d))
            z = rng.normal(scale=2.0, size=(cols, d))
            ref = np.exp(-np.sum((x[:, None, :] - z[None, :, :]) ** 2, axis=-1) / 1.7)
            assert np.array_equal(_gaussian_gram(x, z, 1.7), ref), (n, cols)
        # square Grams one row either side of filling whole tiles
        side = math.isqrt(_GRAM_TILE_VALUES)
        for n in (side, side + 1, side + 2):
            x = rng.normal(size=(n, d))
            ref = np.exp(-np.sum((x[:, None, :] - x[None, :, :]) ** 2, axis=-1) / 0.6)
            g = gram(KernelSpec.gaussian(0.6), x).entries
            assert np.array_equal(g, ref) and np.array_equal(g, g.T), n

    def test_gaussian_coordinate_route_holds_one_square_array(self):
        # one n x n result plus a fixed scratch tile, not two n x n arrays
        import tracemalloc

        n, d = 400, 3
        x = np.random.default_rng(1).normal(size=(n, d))
        tracemalloc.start()
        try:
            gram(KernelSpec.gaussian(1.0), x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * n * n * 8

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


class TestGaussianProductRoute:
    # from GAUSSIAN_PRODUCT_MIN_DIM coordinates on, and for data within
    # GAUSSIAN_PRODUCT_MAX_SPREAD bandwidths, the Gaussian Gram comes from one
    # matrix product of the centered data; the coordinate sums of
    # _gaussian_gram are its oracle.  Duplicate and near-duplicate rows put
    # off-diagonal entries near 1, where the product's cancellation shows.

    @staticmethod
    def _with_close_rows(x, rng, scale):
        return np.vstack([x, x, x + 1e-6 * scale * rng.normal(size=x.shape)])

    @pytest.mark.parametrize("d", [8, 20, 130])
    def test_matches_column_route(self, d):
        rng = np.random.default_rng(d)
        for shift in (0.0, 5.0, 1e3):
            for scale in (0.01, 1.0, 30.0):
                x = shift + scale * rng.normal(size=(50, d))
                x = self._with_close_rows(x, rng, scale)
                for bandwidth in (0.1, 1.0, 2.0 * d, 1e4):
                    g = gram(KernelSpec.gaussian(bandwidth), x).entries
                    ref = _gaussian_gram(x, x, bandwidth)
                    assert np.abs(g - ref).max() <= 1e-13, (shift, scale, bandwidth)
                    assert np.array_equal(g, g.T)
                    assert np.array_equal(np.diagonal(g), np.ones(len(x)))

    @pytest.mark.parametrize("d", [8, 20, 130])
    def test_spread_cap(self, d):
        # close points far from the center: just under the cap the product
        # route runs and stays within the bound, just over it the coordinate
        # sums run
        assert GAUSSIAN_PRODUCT_MAX_SPREAD == 32.0
        rng = np.random.default_rng(d + 1)
        x = self._with_close_rows(1e3 + 30.0 * rng.normal(size=(50, d)), rng, 30.0)
        xc = x - x.mean(axis=0)
        spread = 2.0 * np.einsum("ij,ij->i", xc, xc).max()
        under = spread / (0.99 * GAUSSIAN_PRODUCT_MAX_SPREAD)
        g = gram(KernelSpec.gaussian(under), x).entries
        ref = _gaussian_gram(x, x, under)
        assert not np.array_equal(g, ref)
        assert np.abs(g - ref).max() <= 1e-13
        over = spread / (1.01 * GAUSSIAN_PRODUCT_MAX_SPREAD)
        assert np.array_equal(gram(KernelSpec.gaussian(over), x).entries,
                              _gaussian_gram(x, x, over))

    def test_cross_block_matches_pairwise(self):
        rng = np.random.default_rng(6)
        x, z = 3.0 + rng.normal(size=(30, 9)), rng.normal(size=(7, 9))
        spec = KernelSpec.gaussian(4.0)
        k = kernel_function(spec)
        pairwise = np.array([[k(a, b) for b in z] for a in x])
        np.testing.assert_allclose(_kernel_block(spec, x, z), pairwise, rtol=1e-14,
                                   atol=1e-14 * np.abs(pairwise).max())

    def test_route_by_dimension(self):
        assert GAUSSIAN_PRODUCT_MIN_DIM == 8
        rng = np.random.default_rng(7)
        below = 5.0 + rng.normal(size=(60, 7))
        assert np.array_equal(_kernel_block(KernelSpec.gaussian(7.0), below, below),
                              _gaussian_gram(below, below, 7.0))
        at = 5.0 + rng.normal(size=(60, 8))
        g = _kernel_block(KernelSpec.gaussian(8.0), at, at)
        assert np.array_equal(g, _gaussian_gram_product(at, at, 8.0))
        # the two routes differ in the last bits, so the first check is not vacuous
        assert not np.array_equal(g, _gaussian_gram(at, at, 8.0))

    def test_overflowing_norms_take_column_route(self):
        # ||x||^2 overflows, and ||x||^2 + ||y||^2 - 2 <x, y> would be inf - inf;
        # the coordinate sums give exp(-inf) = 0 off the diagonal
        x = 1e200 * np.random.default_rng(8).normal(size=(5, 8))
        g = gram(KernelSpec.gaussian(1.0), x).entries
        assert np.array_equal(g, np.eye(5))

    @pytest.mark.parametrize("d", [8, 20, 64])
    def test_tiles_match_untiled_formula_bitwise(self, d):
        # everything after the product runs a block of rows at a time in a
        # scratch tile; every tiling must give the whole-array formula's bits
        rng = np.random.default_rng(200 + d)
        bandwidth = 2.0 * d  # keeps these points within the spread cap
        m = 100
        rows = _GRAM_TILE_VALUES // m  # rows per tile against m columns
        shapes = [(1, 1), (rows - 1, m), (rows, m), (rows + 1, m), (2 * rows - 1, m),
                  (2 * rows, m), (2 * rows + 1, m), (3, _GRAM_TILE_VALUES + 1)]
        for n, cols in shapes:
            x, z = 1.0 + rng.normal(size=(n, d)), rng.normal(size=(cols, d))
            ref = oracles.gaussian_gram_product(x, z, bandwidth)
            assert np.array_equal(_gaussian_gram_product(x, z, bandwidth), ref), n
        # square Grams: one point, one row either side of filling one tile
        # (90 rows of 90) and two tiles (64 rows of 128)
        for n in (1, 90, 91, 92, 127, 128, 129):
            x = rng.normal(size=(n, d))
            g = gram(KernelSpec.gaussian(bandwidth), x).entries
            assert np.array_equal(g, oracles.gaussian_gram_product(x, x, bandwidth)), n
            assert np.array_equal(g, g.T)
            assert np.array_equal(np.diagonal(g), np.ones(n))

    def test_holds_one_square_array(self):
        # the product array becomes the Gram: one n x n array and a fixed tile
        import tracemalloc

        n, d = 400, 20
        x = np.random.default_rng(0).normal(size=(n, d))
        tracemalloc.start()
        try:
            gram(KernelSpec.gaussian(float(d)), x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * n * n * 8


class TestSpecValidation:
    def test_bad_bandwidth(self):
        for bad in (0.0, math.inf, math.nan):
            with pytest.raises(ParameterError, match="finite bandwidth > 0"):
                KernelSpec.gaussian(bad)

    def test_bad_scale(self):
        for bad in (-1.0, math.inf, math.nan):
            with pytest.raises(ParameterError, match="finite scale > 0"):
                KernelSpec.exponential(bad)

    def test_precomputed_kind_unknown(self):
        # a precomputed Gram matrix is loaded by load_gram_csv, not a kernel
        with pytest.raises(ParameterError, match="unknown kernel kind 'precomputed'"):
            KernelSpec("precomputed")

    def test_nonsquare_precomputed(self, tmp_path):
        with pytest.raises(ParameterError, match="square"):
            load_gram_csv(_write_csv(tmp_path, np.ones((2, 3))))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_asymmetric_precomputed(self, tmp_path):
        # the second difference overflows float64 and must not warn
        for m in ([[1.0, 2.0], [0.0, 1.0]], [[1e308, -1e308], [1e308, 1.0]]):
            with pytest.raises(ParameterError, match="symmetric"):
                load_gram_csv(_write_csv(tmp_path, np.array(m)))

    def test_tiny_asymmetry_absorbed(self, tmp_path):
        m = np.array([[1.0, 0.5 + 1e-13], [0.5, 1.0]])
        g = load_gram_csv(_write_csv(tmp_path, m))
        assert np.array_equal(g.entries, g.entries.T)

    def test_byte_order_mark(self, tmp_path):
        # a leading UTF-8 byte-order mark must not make the first row a header
        path = tmp_path / "bom.csv"
        path.write_text("\ufeff1,0.5\n0.5,2\n", encoding="utf-8")
        assert np.array_equal(load_gram_csv(path).entries, [[1.0, 0.5], [0.5, 2.0]])


def _write_csv(tmp_path, m):
    path = tmp_path / "gram.csv"
    np.savetxt(path, m, delimiter=",")
    return path


class TestSymmetrize:
    # (m + m^T) / 2 in place, for the linear and exponential Grams and for
    # loaded matrices

    @pytest.mark.parametrize("n", [1, 2, 90, 91, 92, 128, 129, 300])
    def test_symmetrize_tiles_match_whole_array_bitwise(self, n):
        # the pass runs a tile of rows at a time over the upper triangle; every
        # tiling must give (m + m.T) / 2 and max |m - m.T| on the whole array
        m = np.random.default_rng(n).normal(scale=1e3, size=(n, n))
        ref, gap = (m + m.T) / 2.0, float(np.abs(m - m.T).max())
        assert _symmetrize(m) == gap
        assert np.array_equal(m, ref)

    def test_loading_holds_one_square_array(self, tmp_path):
        # the checks and the symmetrization add a fixed tile to the parsed array
        import tracemalloc

        n = 600
        m = np.random.default_rng(2).normal(size=(n, n))
        path = _write_csv(tmp_path, np.round(m + m.T, 3))
        tracemalloc.start()
        try:
            load_gram_csv(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * n * n * 8


class TestReadOnlyEntries:
    # the statistics a GramMatrix caches are computed from its entries once,
    # so the entries cannot be written through it

    @pytest.mark.parametrize("spec", SPECS, ids=lambda s: s.kind)
    def test_gram_entries_read_only(self, spec):
        g = gram(spec, np.random.default_rng(1).normal(size=(5, 2)))
        with pytest.raises(ValueError, match="read-only"):
            g.entries[0, 1] = 2.0

    def test_loaded_entries_read_only(self, tmp_path):
        g = load_gram_csv(_write_csv(tmp_path, np.eye(3)))
        with pytest.raises(ValueError, match="read-only"):
            g.entries[0, 0] = 2.0

    def test_caller_array_keeps_its_flags(self):
        arr = np.eye(4)
        g = GramMatrix(arr)
        assert arr.flags.writeable
        assert np.shares_memory(g.entries, arr)  # a view, not a copy
        arr[0, 0] = 3.0
        assert g.entries[0, 0] == 3.0


def test_load_gram_csv_roundtrip(tmp_path):
    m = np.array([[1.0, 0.25], [0.25, 2.0]])
    g = load_gram_csv(_write_csv(tmp_path, m))
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

    def test_precomputed_nan_rejected(self, tmp_path):
        # nan - nan is nan and nan > tol is False, so the symmetry check alone
        # would let this matrix through
        m = np.array([[1.0, math.nan], [math.nan, 1.0]])
        with pytest.raises(ParameterError, match="non-finite"):
            load_gram_csv(_write_csv(tmp_path, m))

    @pytest.mark.parametrize("d", [3, GAUSSIAN_PRODUCT_MIN_DIM])
    def test_gaussian_entries_in_unit_interval(self, d):
        # the Gaussian Gram is not checked for finite entries: a difference or
        # norm that overflows must give exp(-inf) = 0, without a warning.  At
        # d = 3 the coordinate sums run; at d = 8 the product runs on the tiny
        # points and falls back to the coordinate sums on the others.
        rng = np.random.default_rng(d)
        signs = rng.choice([-1.0, 1.0], size=(20, d))
        sets = [1e300 * signs, 1e-300 * signs,
                signs * rng.choice([1e300, 1e-300], size=(20, d))]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for x in sets:
                for bandwidth in (1e-300, 1e300):
                    spec = KernelSpec.gaussian(bandwidth)
                    for g in (gram(spec, x).entries, _kernel_block(spec, x, x[:7] / 3)):
                        assert np.all((g >= 0.0) & (g <= 1.0)), bandwidth

    def test_exponential_overflow_names_scale(self):
        data = np.array([[100.0, 100.0], [101.0, 99.0], [99.0, 100.0]])
        with pytest.raises(ValueError, match=r"exponential.*scale=2"):
            gram(KernelSpec.exponential(2.0), data)
        g = gram(KernelSpec.exponential(1e5), data)
        assert np.isfinite(g.entries).all()
