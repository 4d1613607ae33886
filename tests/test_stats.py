"""Correlation, regression, and distance-covariance oracles."""

import datetime as dt
import math
import sys
import tracemalloc
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from moodcycles import stats
from moodcycles.countries import compare_search_terms
from moodcycles.errors import DataError, DegenerateSeriesError, NumericalError
from moodcycles.stats import (
    distance_correlation,
    distance_covariance,
    ols,
    pearson,
    permutation_test,
)
from moodcycles.timeseries import WeeklySeries


class TestPearson:
    def test_identical_series_give_exactly_one(self):
        x = np.array([3.1, 4.1, 5.9, 2.6, 5.3])
        assert pearson(x, x) == 1.0

    def test_affine_relations_are_exact(self):
        x = np.array([1.0, 2.0, 3.0, 4.0])
        assert pearson(x, 2.5 * x + 1.0) == pytest.approx(1.0, abs=1e-15)
        assert pearson(x, -0.5 * x + 7.0) == pytest.approx(-1.0, abs=1e-15)

    def test_hand_computed_value(self):
        # x=[1,2,3], y=[1,2,4]: r = 3/sqrt(2*14/3) ... worked out as sqrt(27/28)
        r = pearson([1.0, 2.0, 3.0], [1.0, 2.0, 4.0])
        assert r == pytest.approx(math.sqrt(27.0 / 28.0), abs=1e-14)

    def test_invariance_under_shift_and_positive_scale(self):
        rng = np.random.default_rng(0)
        x, y = rng.standard_normal(20), rng.standard_normal(20)
        r = pearson(x, y)
        assert pearson(3.0 * x + 5.0, y) == pytest.approx(r, abs=1e-12)
        assert pearson(x, -2.0 * y) == pytest.approx(-r, abs=1e-12)

    def test_constant_input_is_degenerate(self):
        with pytest.raises(DegenerateSeriesError):
            pearson([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])

    def test_validation(self):
        with pytest.raises(DataError):
            pearson([1.0], [2.0])
        with pytest.raises(DataError):
            pearson([1.0, 2.0], [1.0, 2.0, 3.0])
        with pytest.raises(DataError):
            pearson([1.0, np.nan], [1.0, 2.0])


class TestOLS:
    def test_exact_fit_recovers_coefficients(self):
        # symmetric integer design: the residual comes out exactly zero
        x = np.array([-3.0, -1.0, 1.0, 3.0])
        y = 2.0 * x + 1.0
        fit = ols(x, y)
        assert fit.coef[0] == pytest.approx(2.0, abs=1e-12)
        assert fit.intercept == pytest.approx(1.0, abs=1e-12)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)
        assert fit.f_stat == math.inf and fit.f_pvalue == 0.0
        assert fit.t_pvalues[0] == 0.0

    def test_r_squared_is_squared_pearson_for_one_regressor(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal(30)
        y = 1.5 * x + rng.standard_normal(30)
        fit = ols(x, y)
        assert fit.r_squared == pytest.approx(pearson(x, y) ** 2, abs=1e-12)

    def test_residuals_are_orthogonal_to_the_design(self):
        rng = np.random.default_rng(2)
        X = rng.standard_normal((40, 3))
        y = rng.standard_normal(40)
        fit = ols(X, y)
        resid = y - fit.intercept - X @ fit.coef
        assert abs(resid.sum()) < 1e-10
        assert np.abs(X.T @ resid).max() < 1e-9

    def test_three_regressor_signs_and_significance(self):
        rng = np.random.default_rng(3)
        X = rng.standard_normal((200, 3))
        y = 3.0 * X[:, 0] - 2.0 * X[:, 1] + 0.1 * rng.standard_normal(200)
        fit = ols(X, y)
        assert fit.coef[0] == pytest.approx(3.0, abs=0.05)
        assert fit.coef[1] == pytest.approx(-2.0, abs=0.05)
        assert fit.coef[2] == pytest.approx(0.0, abs=0.05)
        assert fit.t_pvalues[0] < 1e-10 and fit.t_pvalues[1] < 1e-10
        assert fit.t_pvalues[2] > 0.01
        assert fit.f_pvalue < 1e-10
        assert fit.n == 200

    def test_f_matches_the_r_squared_identity(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal(25)
        y = x + rng.standard_normal(25)
        fit = ols(x, y)
        k, df = 1, 25 - 2
        expected = fit.r_squared / k / ((1.0 - fit.r_squared) / df)
        assert fit.f_stat == pytest.approx(expected, rel=1e-12)

    def test_bonferroni_caps_at_one(self):
        rng = np.random.default_rng(5)
        X = rng.standard_normal((30, 2))
        y = rng.standard_normal(30)
        fit = ols(X, y)
        adjusted = fit.bonferroni(12)
        assert (adjusted <= 1.0).all()
        assert (adjusted >= fit.t_pvalues).all()

    def test_collinear_design_is_degenerate(self):
        x = np.arange(10.0)
        X = np.column_stack([x, 2.0 * x])
        with pytest.raises(DegenerateSeriesError):
            ols(X, x + 1.0)

    def test_constant_response_is_degenerate(self):
        with pytest.raises(DegenerateSeriesError):
            ols(np.arange(5.0), np.full(5, 2.0))

    def test_sample_size_floor(self):
        with pytest.raises(DataError):
            ols(np.arange(2.0), np.arange(2.0))

    @settings(max_examples=80, deadline=None)
    @given(k=st.integers(-100, 100), seed=st.integers(0, 2**32 - 1))
    @example(k=14, seed=0)
    @example(k=-100, seed=0)
    def test_a_regressor_in_other_units_gives_the_same_fit(self, k, seed):
        # fitted unscaled, lstsq's rank test read the units: x * 1e14 beside
        # the intercept was "rank-deficient"
        rng = np.random.default_rng(seed)
        X = rng.standard_normal((60, 2))
        y = 0.5 * X[:, 0] + rng.standard_normal(60)
        units = np.array([10.0 ** k, 1.0])
        fit, scaled = ols(X, y), ols(X * units, y)
        pairs = [(scaled.r_squared, fit.r_squared), (scaled.f_pvalue, fit.f_pvalue),
                 *zip(scaled.t_pvalues, fit.t_pvalues), *zip(scaled.coef * units, fit.coef)]
        for got, want in pairs:
            assert math.isclose(got, want, rel_tol=1e-9)

    @settings(max_examples=100, deadline=None)
    @given(n=st.integers(3, 12), seed=st.integers(0, 2**32 - 1))
    @example(n=6, seed=34)
    def test_regressors_orthogonal_to_the_response_explain_nothing(self, n, seed):
        # rounding can put ss_res a few ulps above ss_tot: R^2 and F came out
        # about -5e-16, and the F tail of a negative F was NaN
        rng = np.random.default_rng(seed)
        y, x = rng.standard_normal(n), rng.standard_normal(n)
        y, x = y - y.mean(), x - x.mean()
        fit = ols(x - (x @ y) / (y @ y) * y, y)
        assert fit.r_squared >= 0.0 and fit.f_stat >= 0.0
        assert 0.0 <= fit.f_pvalue <= 1.0
        assert ((fit.t_pvalues >= 0.0) & (fit.t_pvalues <= 1.0)).all()

    @settings(max_examples=200, deadline=None)
    @given(k=st.integers(1, 3), extra=st.integers(1, 60), seed=st.integers(0, 2**32 - 1),
           signal=st.floats(0.0, 5.0))
    def test_p_values_match_the_exact_distributions(self, k, extra, seed, signal):
        rng = np.random.default_rng(seed)
        n = k + 1 + extra
        X = rng.standard_normal((n, k))
        y = signal * X[:, 0] + rng.standard_normal(n)
        fit = ols(X, y)
        df = n - k - 1
        assert_tail(fit.f_pvalue, df, k, fit.f_stat, rel=1e-12)
        for t, p in zip(fit.t_stats, fit.t_pvalues):
            assert_tail(p, df, 1, t * t, rel=1e-12)

    @pytest.mark.parametrize("eps", [1e-4, 1e-6, 1e-7, 1e-8, 1e-9])
    def test_nearly_collinear_regressors_keep_their_t_statistics(self, eps):
        # standard errors from inv(A.T @ A) lost half the digits: t was 6.6e-2
        # off at eps = 1e-7, and below that a negative variance or a singular
        # matrix ended the fit
        for seed in range(0, 100, 5):
            rng = np.random.default_rng(seed)
            x1 = rng.normal(size=50)
            x2 = x1 + eps * rng.normal(size=50)
            y = x1 + 0.5 * x2 + rng.normal(size=50)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                fit = ols(np.column_stack([x1, x2]), y)
            for got, want in zip(fit.t_stats, exact_t_stats([x1, x2], y)):
                assert abs(got - want) <= 1e-5 * abs(want), (seed, got, want)


def exact_t_stats(columns, y) -> list[float]:
    """The OLS t statistics of regressors ``columns`` (with an intercept),
    solved by mpmath at 50 digits."""
    with mpmath.workdps(50):
        X = mpmath.matrix([[1, *row] for row in zip(*map(list, columns))])
        Y = mpmath.matrix(list(y))
        inverse = (X.T * X) ** -1
        beta = inverse * (X.T * Y)
        resid = Y - X * beta
        sigma2 = (resid.T * resid)[0] / (X.rows - X.cols)
        return [float(beta[i] / mpmath.sqrt(sigma2 * inverse[i, i])) for i in range(1, X.cols)]


def assert_tail(got, df, k, u, rel):
    """``got`` is P(F(k, df) > u) (with k = 1 and u = t^2, the two-sided t
    tail) to ``rel``, from mpmath's incomplete beta at 40 digits; a tail
    below 1e-290 need only be as small."""
    with mpmath.workdps(40):
        u = mpmath.mpf(float(u))
        want = mpmath.betainc(mpmath.mpf(df) / 2, mpmath.mpf(k) / 2, 0, df / (df + k * u),
                              regularized=True)
    if want < 1e-290:
        assert 0.0 <= got <= 1e-290
    else:
        assert abs(got - float(want)) <= rel * float(want), (got, float(want))


class TestTails:
    """The F and t tails ``ols`` takes from ``stats._tail``."""

    @pytest.mark.parametrize("df", [1, 2, 3, 10, 100, 500, 1000, 10_000])
    def test_match_the_exact_distributions_on_a_grid(self, df):
        rel = 1e-12 if df <= 1000 else 1e-10
        for t in [1e-6, 0.01, 0.3, 0.9, 1.0, 1.7, 2.0, 2.6, 4.0, 7.5, 12.0, 25.0, 40.0]:
            assert_tail(stats._tail(df / 2, 0.5, t * t), df, 1, t * t, rel)
        for k in [1, 2, 3, 7]:
            for f in [1e-9, 1e-3, 0.2, 0.7, 1.0, 1.3, 2.5, 4.0, 9.0, 30.0, 100.0]:
                assert_tail(stats._tail(df / 2, k / 2, f), df, k, f, rel)

    @pytest.mark.parametrize("df", [1, 2, 7, 500, 10_000])
    def test_edges(self, df):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert stats._tail(df / 2, 0.5, 0.0) == 1.0  # t = 0
            assert stats._tail(df / 2, 1.5, 0.0) == 1.0  # F = 0
            for t in [1e-8, 0.5, 3.0, 1e3]:
                assert stats._tail(df / 2, 0.5, t * t) == stats._tail(df / 2, 0.5, (-t) * (-t))
            t = 1e200  # t^2 overflows
            assert stats._tail(df / 2, 0.5, t * t) == 0.0
            for k in [1, 2, 7]:
                p = stats._tail(df / 2, k / 2, 1e300)
                assert p == 0.0 if df > 2 else 0.0 <= p < 1e-149
                assert_tail(p, df, k, 1e300, rel=1e-12)

    def test_one_degree_of_freedom_near_zero(self):
        # scipy's stdtr is 3.1e-9 off here, which is why the oracle is mpmath
        p = stats._tail(0.5, 0.5, 1e-8 * 1e-8)
        assert p == pytest.approx(1.0 - 2.0 * math.atan(1e-8) / math.pi, rel=1e-15, abs=0)

    def test_every_p_value_is_finite_in_range_and_normal_or_zero(self):
        for df in [1, 3, 40, 5000]:
            for b in [0.5, 1.0, 3.5]:
                for u in np.logspace(-300, 300, 61):
                    p = stats._tail(df / 2, b, float(u))
                    assert p == 0.0 or sys.float_info.min <= p <= 1.0


def dcov_bruteforce(x, y):
    """O(n^2) textbook double-centering, kept independent of the library."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    n = len(x)
    a = np.zeros((n, n))
    b = np.zeros((n, n))
    for j in range(n):
        for k in range(n):
            a[j, k] = abs(x[j] - x[k])
            b[j, k] = abs(y[j] - y[k])
    A = np.zeros((n, n))
    B = np.zeros((n, n))
    for j in range(n):
        for k in range(n):
            A[j, k] = a[j, k] - a[j].mean() - a[:, k].mean() + a.mean()
            B[j, k] = b[j, k] - b[j].mean() - b[:, k].mean() + b.mean()
    total = 0.0
    for j in range(n):
        for k in range(n):
            total += A[j, k] * B[j, k]
    return math.sqrt(max(total / (n * n), 0.0))


class TestDistanceCovariance:
    def test_matches_the_brute_force_definition(self):
        rng = np.random.default_rng(6)
        for _ in range(25):
            n = rng.integers(2, 9)
            x = rng.standard_normal(n)
            y = rng.standard_normal(n)
            assert distance_covariance(x, y) == pytest.approx(dcov_bruteforce(x, y), abs=1e-12)

    def test_self_correlation_is_one(self):
        rng = np.random.default_rng(7)
        x = rng.standard_normal(15)
        assert distance_correlation(x, x) == pytest.approx(1.0, abs=1e-12)

    def test_detects_nonlinear_dependence(self):
        rng = np.random.default_rng(8)
        x = rng.uniform(-1.0, 1.0, 60)
        y = x * x
        # symmetric parabola: Pearson sees nothing, distance correlation does
        assert abs(pearson(x, y)) < 0.2
        assert distance_correlation(x, y) > 0.4

    def test_correlation_is_shift_and_scale_invariant(self):
        rng = np.random.default_rng(9)
        x, y = rng.standard_normal(20), rng.standard_normal(20)
        r = distance_correlation(x, y)
        assert distance_correlation(3.0 * x + 1.0, y) == pytest.approx(r, abs=1e-12)
        assert distance_correlation(x, -0.5 * y + 4.0) == pytest.approx(r, abs=1e-12)

    def test_covariance_scales_with_the_root_of_each_factor(self):
        # dCov^2 is linear in each argument's scale, so dCov picks up sqrt(2)
        rng = np.random.default_rng(10)
        x, y = rng.standard_normal(20), rng.standard_normal(20)
        v = distance_covariance(x, y)
        assert distance_covariance(2.0 * x, y) == pytest.approx(math.sqrt(2.0) * v, rel=1e-12)
        assert distance_covariance(2.0 * x, 2.0 * y) == pytest.approx(2.0 * v, rel=1e-12)

    def test_constant_sample_has_no_correlation(self):
        with pytest.raises(DegenerateSeriesError):
            distance_correlation(np.ones(5), np.arange(5.0))
        # covariance itself is defined (and zero) there
        assert distance_covariance(np.ones(5), np.arange(5.0)) == 0.0


def permutation_reference(x, y, statistic=distance_covariance, n_permutations=999, seed=None):
    """The plain loop: the statistic recomputed on every permuted copy of y.

    Returns (observed, p, near), where ``near`` counts the permuted
    statistics within relative 1e-12 of the observed one: rounding may put
    such a statistic on either side of it.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    observed = float(statistic(x, y))
    rng = np.random.default_rng(seed)
    hits = near = 0
    for _ in range(n_permutations):
        value = float(statistic(x, rng.permutation(y)))
        hits += value >= observed
        near += math.isclose(value, observed, rel_tol=1e-12)
    return observed, (1 + hits) / (n_permutations + 1), near


class TestPermutationTest:
    @settings(max_examples=150, deadline=None)
    @given(n=st.integers(2, 80), n_permutations=st.integers(1, 199),
           data_seed=st.integers(0, 2**32 - 1), seed=st.integers(0, 2**32 - 1),
           coupling=st.floats(-2.0, 2.0))
    @example(n=4, n_permutations=3, data_seed=441, seed=143, coupling=0.0)
    def test_matches_the_reference_loop(self, n, n_permutations, data_seed, seed, coupling):
        # At small n a permuted y can tie the observed dCov in exact
        # arithmetic, and the two loops may round the tie to opposite sides
        # (the example: p 0.75 against 0.5). So each permuted statistic near
        # the observed one may move p by 1/(P+1); with none, p is equal.
        rng = np.random.default_rng(data_seed)
        x = rng.standard_normal(n)
        y = coupling * x + rng.standard_normal(n)
        observed, p = permutation_test(x, y, n_permutations=n_permutations, seed=seed)
        expected, expected_p, near = permutation_reference(x, y, n_permutations=n_permutations,
                                                           seed=seed)
        assert observed == expected
        assert abs(round((p - expected_p) * (n_permutations + 1))) <= near
        if not near:
            assert p == expected_p

    @settings(max_examples=150, deadline=None)
    @given(n=st.integers(2, 80), data_seed=st.integers(0, 2**32 - 1),
           perm_seed=st.integers(0, 2**32 - 1))
    def test_kernel_is_n_squared_dcov_squared(self, n, data_seed, perm_seed):
        rng = np.random.default_rng(data_seed)
        x, y = rng.standard_normal(n), rng.standard_normal(n)
        kernel = stats._dcov_kernel(x)
        for y_perm in (y, y[np.random.default_rng(perm_seed).permutation(n)]):
            expected = n * n * distance_covariance(x, y_perm) ** 2
            assert kernel(y_perm) == pytest.approx(expected, rel=1e-9)

    def test_kernel_allocates_no_matrix_per_call(self):
        # the two n x n arrays are built once; a call only fills the buffer
        n = 300
        rng = np.random.default_rng(14)
        x, y = rng.standard_normal(n), rng.standard_normal(n)
        kernel = stats._dcov_kernel(x)
        kernel(y)
        tracemalloc.start()
        try:
            kernel(y[::-1])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < n * n * 8 // 4

    def test_perfect_dependence_reaches_the_floor(self):
        x = np.arange(30.0)
        observed, p = permutation_test(x, x, n_permutations=999, seed=11)
        assert observed == pytest.approx(distance_covariance(x, x), abs=1e-15)
        assert p == pytest.approx(1.0 / 1000.0, abs=1e-15)

    def test_same_seed_reproduces_the_p_value(self):
        rng = np.random.default_rng(12)
        x, y = rng.standard_normal(25), rng.standard_normal(25)
        p1 = permutation_test(x, y, n_permutations=199, seed=5)[1]
        p2 = permutation_test(x, y, n_permutations=199, seed=5)[1]
        assert p1 == p2

    def test_independent_samples_get_a_large_p(self):
        rng = np.random.default_rng(13)
        x, y = rng.standard_normal(40), rng.standard_normal(40)
        _, p = permutation_test(x, y, n_permutations=199, seed=7)
        assert p > 0.05

    def test_other_statistics_plug_in(self):
        x = np.arange(20.0)
        y = -x
        observed, p = permutation_test(x, y, statistic=lambda a, b: abs(pearson(a, b)),
                                       n_permutations=99, seed=3)
        assert observed == pytest.approx(1.0, abs=1e-12)
        assert p == 0.01

    def test_permutation_count_floor(self):
        with pytest.raises(DataError):
            permutation_test([1.0, 2.0], [1.0, 2.0], n_permutations=0)


@pytest.mark.filterwarnings("ignore:overflow encountered", "ignore:invalid value encountered")
class TestOverflow:
    """A statistic of inputs scaled by 10**k either equals the unscaled one
    (to 1e-12 relative, times the scale for dCov) or raises NumericalError.
    Unguarded, products and sums overflowed into wrong values (dCor 0.0 from
    k = 78 and NaN from k = 155, Pearson r 0.0 at k = 80), and a denominator
    that underflowed gave dCor 1.0 or a ZeroDivisionError at k = -100."""

    @staticmethod
    def same_or_raises(compute, expected, k):
        try:
            got = compute()
        except NumericalError:
            assert abs(k) > 50  # nothing overflows or underflows nearer 1
            return
        assert math.isclose(got, expected, rel_tol=1e-12)

    @settings(max_examples=80, deadline=None)
    @given(k=st.integers(-307, 307), seed=st.integers(0, 2**32 - 1))
    @example(k=78, seed=0)
    @example(k=80, seed=0)
    @example(k=155, seed=0)
    @example(k=307, seed=0)
    @example(k=-80, seed=0)
    @example(k=-100, seed=0)
    def test_a_scaled_statistic_is_the_same_or_raises(self, k, seed):
        rng = np.random.default_rng(seed)
        x, y = rng.standard_normal(40), rng.standard_normal(40)
        a, b = rng.uniform(0.0, 1.0, 60), rng.uniform(0.5, 1.0, 60)
        scale = 10.0 ** k
        sx, sy = x * scale, y * scale
        start = dt.date(2010, 1, 3)
        ratio, r = compare_search_terms(WeeklySeries(start, a), WeeklySeries(start, b))

        def scaled():
            return compare_search_terms(WeeklySeries(start, a * scale), WeeklySeries(start, b * scale))

        pairs = [
            (lambda: pearson(sx, sy), pearson(x, y)),
            (lambda: distance_correlation(sx, sy), distance_correlation(x, y)),
            (lambda: distance_covariance(sx, sy) / scale, distance_covariance(x, y)),
            (lambda: permutation_test(sx, sy, n_permutations=19, seed=seed)[1],
             permutation_test(x, y, n_permutations=19, seed=seed)[1]),
            (lambda: scaled()[0], ratio),
            (lambda: scaled()[1], r),
        ]
        for compute, expected in pairs:
            self.same_or_raises(compute, expected, k)

    def test_overflowing_or_underflowing_statistics_raise(self):
        rng = np.random.default_rng(1)
        x, y = rng.standard_normal(40), rng.standard_normal(40)
        for scale in (1e80, 1e-100, 1e-200):
            with pytest.raises(NumericalError, match="overflows" if scale > 1 else "underflows"):
                pearson(x * scale, y * scale)
        for scale in (1e78, 1e-100, 1e-200):
            with pytest.raises(NumericalError, match="overflows" if scale > 1 else "underflows"):
                distance_correlation(x * scale, y * scale)
        with pytest.raises(NumericalError, match="overflows"):
            distance_covariance(x * 1e200, y * 1e200)
        with pytest.raises(NumericalError, match="overflows"):
            permutation_test(x * 1e200, y * 1e200, n_permutations=9, seed=1)
        with pytest.raises(NumericalError, match="spread overflows"):
            ols(np.abs(x) * 1e307 + 1e308, y)  # the regressor's mean overflows
        with pytest.raises(NumericalError, match="intercept overflows"):
            ols(x * 1e-300, y * 1e10)  # a slope near 1e310
        # unguarded, dCov of these pairs read 4.4455e-162 at scale 1e-160,
        # where the scaled value is 4.3630e-162, and 0.0 at 1e-200
        a, b = rng.uniform(0.0, 1.0, 60), rng.uniform(0.0, 1.0, 60)
        dcov = distance_covariance(a, b)
        p = permutation_test(a, b, n_permutations=9, seed=1)[1]
        raised = []
        for k in range(-307, 308):
            scale = 10.0 ** k
            try:
                got = distance_covariance(a * scale, b * scale)
            except NumericalError:
                raised.append(k)
                with pytest.raises(NumericalError):
                    permutation_test(a * scale, b * scale, n_permutations=9, seed=1)
                continue
            assert math.isclose(got / scale, dcov, rel_tol=1e-12)
            assert permutation_test(a * scale, b * scale, n_permutations=9, seed=1)[1] == p
        # it raises on the two tails of the sweep, 1e-160 and 1e-200 among them
        low, high = [k for k in raised if k < 0], [k for k in raised if k > 0]
        assert raised == low + high and -160 in low
        assert low == list(range(-307, low[-1] + 1)) and high == list(range(high[0], 308))
        # a constant sample's dCov is 0.0 at any scale
        for scale in (1.0, 1e-200, 1e200):
            assert distance_covariance(np.full(60, scale), b * scale) == 0.0
        start = dt.date(2010, 1, 3)
        big = WeeklySeries(start, np.full(60, 1e307))
        with pytest.raises(NumericalError):
            compare_search_terms(big, big)
