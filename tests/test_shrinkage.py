import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

import oracles
from ushrink import kernels
from ushrink import (
    DEGENERATE,
    GENERAL,
    GramMatrix,
    InsufficientSampleError,
    KernelSpec,
    ParameterError,
    TargetSpec,
    alpha_from,
    covop_inner,
    delta_degen,
    delta_general,
    dual_norm_sq,
    evaluate_mean,
    gram,
    kernel_function,
    load_gram_csv,
    mean_inner,
    shrink_cov_matrix,
    shrink_covop,
    shrink_covop_degen,
    shrink_mean,
    u_stat_perm,
)
from ushrink.kernels import _BLOCK_SIDE as S
from ushrink.shrinkage import DIST_SQ_FLOOR, _report

# finite doubles, subnormals and both zeros included
FINITE = st.floats(allow_nan=False, allow_infinity=False)

LINEAR = KernelSpec.linear()
ALL_SPECS = [LINEAR, KernelSpec.gaussian(1.0), KernelSpec.exponential(1.0)]


def random_data(rng, n, d=2):
    return rng.uniform(-2.0, 2.0, size=(n, d))


class TestAlphaFrom:
    def test_quarter(self):
        raw, alpha = alpha_from(1.0, 3.0)
        assert raw == alpha == 0.25

    def test_zero_delta(self):
        assert alpha_from(0.0, 5.0) == (0.0, 0.0)

    def test_negative_delta_clamped(self):
        raw, alpha = alpha_from(-0.1, 1.0)
        assert raw == pytest.approx(-1 / 9, rel=1e-12)
        assert alpha == 0.0

    def test_zero_over_zero(self):
        assert alpha_from(0.0, 0.0) == (0.0, 0.0)

    @settings(max_examples=300, deadline=None)
    @given(FINITE, FINITE)
    def test_alpha_is_clamped_raw(self, delta, dist_sq):
        assume(math.isfinite(delta + dist_sq))
        raw, alpha = alpha_from(delta, dist_sq)
        assert 0.0 <= alpha <= 1.0
        assert alpha == np.clip(raw, 0.0, 1.0)

    @given(FINITE)
    def test_zero_denominator_gives_zero(self, delta):
        assert alpha_from(delta, -delta) == (0.0, 0.0)
        raw, alpha = alpha_from(np.array([delta]), np.array([-delta]))
        assert raw.tolist() == alpha.tolist() == [0.0]

    def test_snap_to_zero(self):
        # only squared distances in (DIST_SQ_FLOOR, 0) count as rounding
        dist_sq = [-1e-10, -0.0, DIST_SQ_FLOOR, -1e-3, 0.5]
        block = _report(GENERAL, np.full(5, 0.25), np.array(dist_sq))
        snapped = block.dist_sq
        assert snapped.tolist() == [0.0, 0.0, DIST_SQ_FLOOR, -1e-3, 0.5]
        assert np.signbit(snapped).tolist() == [False, True, True, True, False]
        for i, value in enumerate(dist_sq):  # the one-dataset report agrees
            report = _report(GENERAL, 0.25, value)
            assert (report.dist_sq, report.alpha_raw, report.alpha) == (
                snapped[i], block.alpha_raw[i], block.alpha[i])
            assert type(report.dist_sq) is float

    def test_floats_give_floats(self):
        assert all(type(v) is float for v in alpha_from(1.0, 3.0))
        assert all(type(v) is float for v in alpha_from(np.float64(1.0), 3))

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.tuples(FINITE, FINITE), min_size=1, max_size=20))
    # numpy's fmax keeps -0.0 on its SIMD path, which needs a longer array
    @example([(-0.0, 2.0)] * 8)
    def test_arrays_match_pairs(self, pairs):
        # the array form used by batched Monte Carlo replication, bit for bit,
        # and each pair against the coefficient in Python float arithmetic
        pairs = [(d, s) for d, s in pairs if math.isfinite(d + s)]
        assume(pairs)
        delta, dist_sq = (np.array(v) for v in zip(*pairs))
        got = alpha_from(delta, dist_sq)
        want = np.array([alpha_from(d, s) for d, s in pairs]).T
        for g, w in zip(got, want):  # raw, then clamped
            assert g.tobytes() == w.tobytes()  # signed zeros included
        raws = [0.0 if d + s == 0.0 else d / (d + s) for d, s in pairs]
        clamped = [min(1.0, max(0.0, raw)) for raw in raws]
        assert want.tobytes() == np.array([raws, clamped]).tobytes()

    @pytest.mark.parametrize("delta, dist_sq", [
        (math.nan, 1.0), (1.0, math.nan), (math.inf, 1.0), (1.0, math.inf),
        (-math.inf, 1.0), (1.0, -math.inf), (1e308, 1e308),
    ])
    def test_non_finite_denominator_raises(self, delta, dist_sq):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="overflow"):
                alpha_from(delta, dist_sq)
            with pytest.raises(ValueError, match="overflow"):
                _report(GENERAL, delta, dist_sq)
            with pytest.raises(ValueError, match=r"overflow.*delta_hat=1e\+308"):
                alpha_from(np.array([0.5, 1e308, delta]),
                           np.array([1.0, 1e308, dist_sq]))
            with pytest.raises(ValueError, match="overflow"):
                alpha_from(np.array([1.0, delta]), np.array([2.0, dist_sq]))


class TestDeltaGeneral:
    def test_order_one_linear(self):
        data = np.array([[1.0, 0.0], [-1.0, 0.0]])
        inner = mean_inner(kernel_function(LINEAR))
        assert delta_general(inner, data, 1) == pytest.approx(1.0)

    def test_identical_points_vanish(self):
        data = np.tile([0.7, -0.2], (4, 1))
        inner = mean_inner(kernel_function(LINEAR))
        assert delta_general(inner, data, 1) == pytest.approx(0.0, abs=1e-14)

    def test_order_two_matches_closed_form(self):
        rng = np.random.default_rng(11)
        data = random_data(rng, 6, 3)
        val = delta_general(covop_inner(kernel_function(LINEAR)), data, 2)
        closed = shrink_cov_matrix(data, variant=GENERAL).report.delta_hat
        assert val == pytest.approx(closed, rel=1e-9)

    def test_order_three_exactly_unbiased(self):
        # h(x1, x2, x3) = x1 x2 x3 on a two-point law: the expectation of the
        # estimate over all 2^n samples equals the exact risk E(U - theta)^2
        a, b, p, n = -1.0, 2.0, 0.3, 6

        def inner(xs, ys):
            return math.prod(xs) * math.prod(ys)

        theta = (p * a + (1 - p) * b) ** 3
        risk, mean_delta = [], []
        for bits in itertools.product((0, 1), repeat=n):
            data = [a if bit else b for bit in bits]
            hits = sum(bits)
            prob = p**hits * (1 - p) ** (n - hits)
            u = u_stat_perm(lambda x, y, z: x * y * z, data, 3)
            risk.append(prob * (u - theta) ** 2)
            mean_delta.append(prob * delta_general(inner, data, 3))
        assert math.fsum(mean_delta) == pytest.approx(math.fsum(risk), rel=1e-12)

    def test_insufficient_sample(self):
        with pytest.raises(InsufficientSampleError):
            delta_general(covop_inner(kernel_function(LINEAR)), np.ones((3, 2)), 2)

    def test_order_validation(self):
        inner = mean_inner(kernel_function(LINEAR))
        for fn in (delta_general, delta_degen):
            with pytest.raises(ParameterError, match="order"):
                fn(inner, np.ones((6, 2)), 0)


class TestDeltaDegen:
    def test_order_one_equals_general(self):
        rng = np.random.default_rng(3)
        inner = mean_inner(kernel_function(LINEAR))
        for n in (2, 4, 7):
            data = random_data(rng, n)
            a = delta_general(inner, data, 1)
            b = delta_degen(inner, data, 1)
            assert b == pytest.approx(a, rel=1e-12)

    def test_identical_points_vanish(self):
        data = np.tile([1.3, 0.4], (5, 1))
        inner = covop_inner(kernel_function(LINEAR))
        assert delta_degen(inner, data, 2) == pytest.approx(0.0, abs=1e-14)

    def test_order_two_matches_closed_form(self):
        rng = np.random.default_rng(12)
        data = random_data(rng, 6, 3)
        val = delta_degen(covop_inner(kernel_function(LINEAR)), data, 2)
        closed = shrink_cov_matrix(data, variant=DEGENERATE).report.delta_hat
        assert val == pytest.approx(closed, rel=1e-9)


class TestShrinkMean:
    def test_full_shrinkage_on_centered_pair(self):
        g = gram(LINEAR, [[1, 0], [-1, 0]])
        element, report = shrink_mean(g)
        assert report.delta_hat == pytest.approx(1.0)
        assert report.dist_sq == 0.0
        assert report.alpha == 1.0
        assert np.allclose(element.data_weights, 0.0)

    def test_no_shrinkage_for_identical_points(self):
        data = np.tile([0.5, 0.5], (4, 1))
        element, report = shrink_mean(gram(LINEAR, data))
        assert report.delta_hat == pytest.approx(0.0, abs=1e-14)
        assert report.alpha == 0.0
        assert np.allclose(element.data_weights, 1 / 4)
        assert element.target_weights.size == 0

    def test_dual_target_equal_to_estimate(self):
        rng = np.random.default_rng(21)
        data = random_data(rng, 5)
        spec = KernelSpec.gaussian(1.0)
        g = gram(spec, data).entries
        n = len(data)
        target = TargetSpec.dual(data, np.full(n, 1 / n))
        element, report = shrink_mean(g, target, cross_gram=g, target_gram=g)
        assert report.dist_sq == pytest.approx(0.0, abs=1e-12)
        # landmarks coincide with the data, so the shrunk element collapses
        # to net per-point weights; they must reproduce the plain estimate
        net = element.data_weights + element.target_weights - 1 / n
        assert float(net @ g @ net) == pytest.approx(0.0, abs=1e-12)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(8)
        for spec in ALL_SPECS:
            data = random_data(rng, 6)
            g = gram(spec, data).entries
            _, report = shrink_mean(g)
            assert report.delta_hat == pytest.approx(
                oracles.mean_delta_brute(g), rel=1e-12
            )
            assert report.dist_sq == pytest.approx(
                oracles.mean_norm_sq_brute(g), rel=1e-12
            )

    def test_dual_requires_blocks(self):
        g = gram(LINEAR, [[1.0], [2.0]])
        target = TargetSpec.dual([[0.0]], [1.0])
        with pytest.raises(ValueError, match="cross_gram"):
            shrink_mean(g, target)

    @pytest.mark.parametrize("cross, tg, match", [
        # finite entries whose column sums overflow float64
        (np.full((3, 1), 1e308), [[1.0]], "overflow"),
        (np.full((3, 1), math.inf), [[1.0]], "cross_gram has non-finite"),
        (np.ones((3, 1)), [[math.nan]], "target_gram has non-finite"),
    ])
    def test_dual_target_blocks_guarded(self, cross, tg, match):
        g = gram(LINEAR, [[1.0], [2.0], [0.5]])
        target = TargetSpec.dual([[0.0]], [1.0])
        with warnings.catch_warnings():
            # the clean error alone, no numpy RuntimeWarning before it
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=match):
                shrink_mean(g, target, cross_gram=cross, target_gram=tg)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_dual_target_coefficients_finite(self, bad):
        # rejected where the target is built, naming the coefficient, not
        # later as a non-finite shrinkage risk
        with pytest.raises(ValueError, match=f"target coefficient 1 .* is {bad}"):
            TargetSpec.dual([[0.0], [1.0]], [0.5, bad])

    def test_too_small(self):
        with pytest.raises(InsufficientSampleError):
            shrink_mean(gram(LINEAR, [[1.0, 2.0]]))

    def test_overflow_raises(self):
        # finite entries whose trace and total overflow float64; the risk
        # comes out nan, which must not become alpha = 0
        g = np.array([[1e308, 1e308, 0.0], [1e308, 1e308, 0.0], [0.0, 0.0, 1.0]])
        with warnings.catch_warnings():
            # the clean error alone, no numpy RuntimeWarning before it
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(ValueError, match="overflow"):
                shrink_mean(g)


class TestShrinkCovop:
    def test_identical_points(self):
        data = np.tile([2.0, -1.0], (5, 1))
        report = shrink_covop(gram(LINEAR, data))
        assert report.delta_hat == pytest.approx(0.0, abs=1e-12)
        assert report.dist_sq == pytest.approx(0.0, abs=1e-12)
        assert report.alpha == 0.0

    def test_matches_prop_closed_form(self):
        rng = np.random.default_rng(14)
        data = random_data(rng, 6, 3)
        report = shrink_covop(gram(LINEAR, data))
        closed = shrink_cov_matrix(data, variant=GENERAL).report.delta_hat
        assert report.delta_hat == pytest.approx(closed, rel=1e-10)

    @pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.kind)
    def test_matches_brute_force(self, spec):
        rng = np.random.default_rng(15)
        for n in (4, 6):
            data = random_data(rng, n)
            g = gram(spec, data).entries
            report = shrink_covop(g)
            assert report.delta_hat == pytest.approx(
                oracles.covop_delta_general_brute(g), rel=1e-10
            )
            assert report.dist_sq == pytest.approx(
                oracles.covop_norm_sq_brute(g), rel=1e-10
            )
            degen = shrink_covop_degen(g)
            assert degen.delta_hat == pytest.approx(
                oracles.covop_delta_degen_brute(g), rel=1e-10
            )
            assert degen.variant == "degenerate"

    @pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.kind)
    def test_matches_enumeration_engine(self, spec):
        rng = np.random.default_rng(16)
        inner = covop_inner(kernel_function(spec))
        for n in range(4, 9):
            data = random_data(rng, n)
            g = gram(spec, data)
            assert shrink_covop(g).delta_hat == pytest.approx(
                delta_general(inner, data, 2), rel=1e-9
            )
            assert shrink_covop_degen(g).delta_hat == pytest.approx(
                delta_degen(inner, data, 2), rel=1e-9
            )

    def test_too_small(self):
        with pytest.raises(InsufficientSampleError):
            shrink_covop(gram(LINEAR, np.ones((3, 2))))

    @pytest.mark.parametrize("fn", [shrink_covop, shrink_covop_degen],
                             ids=lambda f: f.__name__)
    def test_overflow_raises(self, fn):
        # finite entries near 1e200 whose squares overflow float64
        g = gram(LINEAR, 1e100 * random_data(np.random.default_rng(17), 6))
        with pytest.raises(ValueError, match="overflow"):
            fn(g)
        # Gc = G with entries +-1e152: each tile's sum of squares is finite,
        # their total overflows
        signs = np.resize([1.0, -1.0], 200)
        with pytest.raises(ValueError, match="overflow"):
            fn(1e152 * np.outer(signs, signs))

    @pytest.mark.parametrize("n", sorted({4, 90, 91, 92, 182, S - 1, S, S + 1,
                                          2 * S + 1, 3 * S, 3 * S + 1, 500}))
    def test_streamed_sums_match_one_array_formula(self, n):
        # Gc is formed and squared a square block of the upper triangle at a
        # time (side S); up to one block every sum keeps the whole-array
        # formula's bits, and beyond it ||Gc||_F^2 stays within 1e-15 of the
        # exact sum of the rounded squares
        g = gram(KernelSpec.gaussian(20.0),
                 np.random.default_rng(n).normal(size=(n, 20))).entries
        sums = GramMatrix(g)._centered
        ref = oracles.centered_gram_sums(g)[1:]  # after n
        assert sums[:2] == ref[:2]
        exact = math.fsum(np.square(oracles.double_centered_gram(g)).ravel())
        assert abs(sums[2] - exact) <= 1e-15 * exact
        if n <= S:
            assert sums[2] == ref[2]

    def test_raw_asymmetric_array_refused(self):
        # the centered sums read the upper triangle alone, so a raw array must
        # be symmetric within load_gram_csv's tolerance
        g = gram(LINEAR, np.random.default_rng(21).normal(size=(6, 2))).entries.copy()
        g[4, 1] += 1e-6 * np.abs(g).max()
        for fn in (shrink_covop, shrink_covop_degen):
            with pytest.raises(ParameterError, match="not symmetric"):
                fn(g)
        shrink_mean(g)  # the mean reads the trace and the total, not a triangle

    def test_built_gram_matrix_checked_as_raw_array(self):
        # a GramMatrix built by the caller gets the raw array's check, so the
        # same entries give the same answer however they are passed
        x = np.random.default_rng(23).normal(size=(200, 3))
        g = gram(LINEAR, x)
        asym = g.entries.copy()
        asym[150, 3] += 1e-6 * np.abs(asym).max()
        assert not GramMatrix(asym).symmetric and g.symmetric
        for fn in (shrink_covop, shrink_covop_degen):
            with pytest.raises(ParameterError, match="not symmetric"):
                fn(GramMatrix(asym))
            assert repr(fn(GramMatrix(g.entries.copy()))) == repr(fn(g))

    def test_raw_symmetric_array_accepted(self):
        # within the tolerance the raw array gives the reports of its exactly
        # symmetric GramMatrix up to rounding
        x = np.random.default_rng(22).normal(size=(200, 3))
        g = gram(LINEAR, x)
        raw = g.entries.copy()
        raw[150, 3] += 1e-12 * np.abs(raw).max()
        for fn in (shrink_covop, shrink_covop_degen):
            assert fn(raw).delta_hat == pytest.approx(fn(g).delta_hat, rel=1e-9)
            assert repr(fn(g.entries.copy())) == repr(fn(g))

    @pytest.mark.parametrize("fn", [shrink_covop, shrink_covop_degen],
                             ids=lambda f: f.__name__)
    def test_memory_holds_no_square_array(self, fn):
        # the centered Gram is formed and squared a tile at a time
        import tracemalloc

        n = 400
        g = gram(KernelSpec.gaussian(20.0),
                 np.random.default_rng(0).normal(size=(n, 20)))
        tracemalloc.start()
        try:
            fn(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.25 * n * n * 8


def _reports(g, order):
    run = {"mean": lambda: shrink_mean(g)[1], "general": lambda: shrink_covop(g),
           "degenerate": lambda: shrink_covop_degen(g)}
    return {name: repr(run[name]()) for name in order}  # repr keeps every bit


class TestGramStatistics:
    # a GramMatrix computes its trace, total and centered sums once and every
    # report reads them from there

    ORDERS = [("mean", "general", "degenerate"), ("degenerate", "general", "mean")]

    @pytest.mark.parametrize("n", [4, 90, 91, 500])
    @pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.kind)
    def test_shared_statistics_match_raw_array(self, spec, n):
        data = np.random.default_rng(n).normal(size=(n, 3))
        raw = _reports(gram(spec, data).entries.copy(), self.ORDERS[0])
        for order in self.ORDERS:
            assert _reports(gram(spec, data), order) == raw

    def test_loaded_gram_matches_raw_array(self, tmp_path):
        x = np.random.default_rng(5).normal(size=(91, 3))
        path = tmp_path / "gram.csv"
        np.savetxt(path, np.exp(-np.square(x[:, None] - x[None]).sum(-1) / 3.0),
                   delimiter=",")
        raw = _reports(load_gram_csv(path).entries.copy(), self.ORDERS[0])
        for order in self.ORDERS:
            assert _reports(load_gram_csv(path), order) == raw

    @pytest.fixture
    def counts(self, monkeypatch):
        calls = {"_row_sums": 0, "_centered_sums": 0}
        for name in calls:
            original = getattr(kernels, name)

            def counted(*args, _name=name, _original=original):
                calls[_name] += 1
                return _original(*args)

            monkeypatch.setattr(kernels, name, counted)
        return calls

    def test_each_statistic_computed_once(self, counts):
        g = gram(KernelSpec.gaussian(2.0), np.random.default_rng(3).normal(size=(50, 2)))
        first = _reports(g, self.ORDERS[1])
        assert counts == {"_row_sums": 1, "_centered_sums": 1}
        assert _reports(g, self.ORDERS[0]) == first
        assert counts == {"_row_sums": 1, "_centered_sums": 1}

    @pytest.mark.parametrize("n", [50, 2 * S + 1])
    def test_product_route_hands_over_row_sums(self, counts, n):
        # the product route forms the row sums with the entries, so no pass
        # re-reads the Gram for them
        g = gram(KernelSpec.gaussian(16.0), np.random.default_rng(3).normal(size=(n, 8)))
        first = _reports(g, self.ORDERS[1])
        assert counts == {"_row_sums": 0, "_centered_sums": 1}
        assert _reports(g, self.ORDERS[0]) == first
        assert counts == {"_row_sums": 0, "_centered_sums": 1}

    def test_raw_array_computed_per_call(self, counts):
        g = gram(LINEAR, np.random.default_rng(3).normal(size=(50, 2))).entries
        _reports(g, self.ORDERS[0])
        assert counts == {"_row_sums": 3, "_centered_sums": 2}


class TestExactReference:
    # delta_hat and dist_sq of every Gram report against their exact rational
    # values for the same float Gram, on the linear Gram, the Gaussian Gram's
    # coordinate route (d < 8) and its product route (d >= 8)

    @pytest.mark.parametrize("n", [4, 13, 50])
    @pytest.mark.parametrize("spec, d", [
        (LINEAR, 3), (KernelSpec.gaussian(6.0), 3), (KernelSpec.gaussian(16.0), 8),
        (KernelSpec.gaussian(40.0), 20)],
        ids=["linear", "gaussian-coordinate", "gaussian-product-8",
             "gaussian-product-20"])
    def test_reports_within_1e13_of_exact(self, spec, d, n):
        x = 1.0 + np.random.default_rng(n + d).normal(size=(n, d))
        g = gram(spec, x)
        exact = oracles.gram_reports_exact(g.entries)
        reports = {"mean": shrink_mean(g)[1], "general": shrink_covop(g),
                   "degenerate": shrink_covop_degen(g)}
        for name, report in reports.items():
            delta, dist_sq = exact[name]
            assert oracles.rel_err(report.delta_hat, float(delta)) <= 1e-13, name
            assert oracles.rel_err(report.dist_sq, float(dist_sq)) <= 1e-13, name


class TestEvaluateMean:
    def test_centered_pair(self):
        data = np.array([[1.0, 0.0], [-1.0, 0.0]])
        element, _ = shrink_mean(gram(LINEAR, data))
        # alpha = 1 here, so weights vanish; rebuild the unshrunk element
        unshrunk = element.__class__(
            data_weights=np.full(2, 0.5), target_weights=np.zeros(0)
        )
        assert evaluate_mean(unshrunk, LINEAR, data, np.array([1.0, 0.0])) == 0.0

    def test_zero_element(self):
        data = np.array([[1.0], [2.0]])
        element, _ = shrink_mean(gram(KernelSpec.gaussian(1.0), data))
        zero = element.__class__(
            data_weights=np.zeros(2), target_weights=np.zeros(0)
        )
        assert evaluate_mean(zero, KernelSpec.gaussian(1.0), data, [0.3]) == 0.0

    def test_single_point_gaussian(self):
        data = np.array([[0.7, 0.7]])
        element = shrink_mean(
            gram(KernelSpec.gaussian(1.0), np.vstack([data, data]))
        )[0]
        one = element.__class__(
            data_weights=np.array([1.0]), target_weights=np.zeros(0)
        )
        assert evaluate_mean(one, KernelSpec.gaussian(1.0), data, data[0]) == 1.0


class TestInvariants:
    def test_alpha_in_unit_interval_and_contraction(self):
        rng = np.random.default_rng(30)
        for spec in ALL_SPECS:
            data = random_data(rng, 6)
            g = gram(spec, data).entries
            element, report = shrink_mean(g)
            assert 0.0 <= report.alpha <= 1.0
            # ||shrunk - target||^2 = (1-alpha)^2 ||plain - target||^2
            shrunk_sq = dual_norm_sq(element, g)
            assert shrunk_sq <= report.dist_sq + 1e-9
            assert shrunk_sq >= -1e-9

    def test_regularization_weights(self):
        # dual weights equal (1/(1+lam)) / n with lam = alpha / (1 - alpha)
        rng = np.random.default_rng(31)
        for _ in range(5):
            data = random_data(rng, 5)
            element, report = shrink_mean(gram(KernelSpec.gaussian(1.0), data))
            if report.alpha == 1.0:
                continue
            lam = report.alpha / (1.0 - report.alpha)
            expected = (1.0 / (1.0 + lam)) / 5
            assert np.allclose(element.data_weights, expected, rtol=0, atol=1e-12)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(32)
        data = random_data(rng, 6)
        perm = rng.permutation(6)
        for spec in ALL_SPECS:
            a = shrink_covop(gram(spec, data))
            b = shrink_covop(gram(spec, data[perm]))
            assert b.delta_hat == pytest.approx(a.delta_hat, rel=1e-12)
            assert b.dist_sq == pytest.approx(a.dist_sq, rel=1e-12)
            _, ra = shrink_mean(gram(spec, data))
            _, rb = shrink_mean(gram(spec, data[perm]))
            assert rb.delta_hat == pytest.approx(ra.delta_hat, rel=1e-12)

    def test_delta_general_unbiased(self):
        # k=1, linear kernel, N(mu, I_3), n=10: the risk being estimated is
        # trace(I_3)/10 = 0.3; the Monte Carlo mean over 1e5 draws must sit
        # within 4 standard errors of it.
        rng = np.random.default_rng(555)
        reps = 10**5
        mu = np.array([0.4, -0.1, 0.9])
        vals = np.empty(reps)
        for r in range(reps):
            data = mu + rng.standard_normal((10, 3))
            _, report = shrink_mean(gram(LINEAR, data))
            vals[r] = report.delta_hat
        se = vals.std(ddof=1) / math.sqrt(reps)
        assert abs(vals.mean() - 0.3) < 4 * se

    def test_report_serialization(self):
        _, report = shrink_mean(gram(LINEAR, [[1.0], [2.0]]))
        d = report.to_dict()
        assert set(d) == {"delta_hat", "dist_sq", "alpha_raw", "alpha", "variant"}
        assert d["variant"] == "general"

    def test_declared_symmetry_holds(self):
        # an inner product is symmetric in its two blocks
        rng = np.random.default_rng(33)
        points = rng.normal(size=(4, 3))
        for spec in ALL_SPECS:
            fn = kernel_function(spec)
            for inner, k in ((mean_inner(fn), 1), (covop_inner(fn), 2)):
                xs, ys = tuple(points[:k]), tuple(points[k:2 * k])
                assert inner(xs, ys) == pytest.approx(inner(ys, xs), rel=1e-12)
