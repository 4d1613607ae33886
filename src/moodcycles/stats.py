"""Statistical helpers: correlation, least squares, distance covariance.

Distance covariance detects arbitrary (not just linear) dependence between
paired samples; its significance is assessed by a permutation test. The
estimator here is the biased double-centered form, whose square can be
written as a mean over all index pairs of products of centered distance
matrices.
"""

from __future__ import annotations

import math
import sys
from contextlib import suppress
from dataclasses import dataclass

import numpy as np

from .errors import DataError, DegenerateSeriesError, NumericalError


def _paired(x, y) -> tuple[np.ndarray, np.ndarray]:
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.ndim != 1 or y.ndim != 1:
        raise DataError("expected 1-D samples")
    if x.shape != y.shape:
        raise DataError(f"length mismatch: {x.shape[0]} vs {y.shape[0]}")
    if x.size < 2:
        raise DataError("need at least 2 paired observations")
    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        raise DataError("samples contain non-finite values")
    return x, y


def _finite(value: float, what: str) -> float:
    """``value``, or a NumericalError when it overflowed float64 (or is NaN
    after an overflow), so that no statistic is written from it."""
    if not math.isfinite(value):
        raise NumericalError(f"{what} overflows float64: the input values are too large")
    return value


def _normal(value: float, what: str) -> float:
    """``_finite(value)`` of a positive denominator, or a NumericalError when
    it underflowed below the least normal float64 and lost its precision."""
    if value < sys.float_info.min:
        raise NumericalError(f"{what} underflows float64: the input values are too small")
    return _finite(value, what)


def pearson(x, y) -> float:
    """Pearson correlation, clamped to [-1, 1].

    The denominator is computed as sqrt(ss_x * ss_y) so that a series paired
    with itself yields exactly 1.0.
    """
    x, y = _paired(x, y)
    if np.ptp(x) == 0.0 or np.ptp(y) == 0.0:
        raise DegenerateSeriesError("constant sample has no correlation")
    dx = x - x.mean()
    dy = y - y.mean()
    ssx = float(dx @ dx)
    ssy = float(dy @ dy)
    sxy = _finite(float(dx @ dy), "the correlation's cross product")
    r = sxy / float(np.sqrt(_normal(ssx * ssy, "the correlation's product of squares")))
    return min(1.0, max(-1.0, r))


@dataclass(frozen=True)
class OLSResult:
    """Least-squares fit y ~ intercept + X @ coef."""

    coef: np.ndarray            # per-regressor slopes
    intercept: float
    r_squared: float
    f_stat: float
    f_pvalue: float
    t_stats: np.ndarray
    t_pvalues: np.ndarray       # two-sided, per regressor
    n: int

    def bonferroni(self, m: int) -> np.ndarray:
        """p-values adjusted for m comparisons (annotation only)."""
        return np.minimum(np.asarray(self.t_pvalues) * m, 1.0)


def _stirling(z: float) -> float:
    """lgamma(z) - (z - 1/2) log z + z, by Stirling's series from z = 10."""
    if z < 10.0:
        return math.lgamma(z) - (z - 0.5) * math.log(z) + z
    w = 1.0 / (z * z)
    series = 1/12 - w * (1/360 - w * (1/1260 - w * (1/1680 - w * (1/1188 - w * 691/360360))))
    return math.log(2.0 * math.pi) / 2 + series / z


def _betainc(a: float, b: float, x: float, y: float) -> float:
    """Regularized incomplete beta I_x(a, b), y = 1 - x given apart so that a
    tail near x = 1 keeps its digits: Numerical Recipes' continued fraction
    (3rd ed., section 6.4) by modified Lentz, or 1 - I_y(b, a) above
    (a+1)/(a+b+2). Its prefactor x^a y^b / B(a, b) is Stirling's 1/B times
    log1p terms of x's and y's deviations from a/(a+b) and b/(a+b), both
    taken from the smaller side (DiDonato & Morris, ACM TOMS 18(3), 1992)."""
    swap = x >= (a + 1.0) / (a + b + 2.0)
    if swap:
        a, b, x, y = b, a, y, x
    if x == 0.0:
        return float(swap)
    s = a + b
    lam = a - s * x if a <= b else s * y - b
    with suppress(OverflowError, ValueError, ZeroDivisionError):
        log_front = 0.5 * math.log(a * b / s) + _stirling(s) - _stirling(a) - _stirling(b)
        for w, e, ratio in ((a, -lam / a, x * s / a), (b, lam / b, y * s / b)):
            log_front += w * (math.log1p(e) if abs(e) < 0.5 else math.log(ratio))
        c, d, g = 1.0, 0.0, 1.0  # g = 1 + d_1 / (1 + d_2 / (1 + ...)) = x^a y^b / (a B I)
        for j in range(1, 10_000):
            m = j // 2
            num = (-(a + m) * (s + m) if j % 2 else m * (b - m)) * x / ((a + j - 1) * (a + j))
            d = 1.0 / (1.0 + num * d or 1e-300)  # Lentz: a zero denominator becomes tiny
            c = 1.0 + num / c or 1e-300
            g *= c * d
            if abs(c * d - 1.0) < 1e-15:
                p = math.exp(log_front) / (a * g)
                if 0.0 <= p <= 1.0:  # a tail below the least normal float64 has lost its digits
                    return 1.0 - p if swap else (p if p >= sys.float_info.min else 0.0)
                break
    raise NumericalError(f"the incomplete beta function I_x({a}, {b}) at x = {x} fails in float64")


def _tail(a: float, b: float, u: float) -> float:
    """I_x(a, b) at x = a / (a + b u): P(F(2b, 2a) > u), or P(|T(2a)| > t) at b = 1/2, u = t^2."""
    bu = b * u
    if bu <= 0.0 or bu == math.inf:
        return float(bu <= 0.0)
    return _betainc(a, b, a / (a + bu), bu / (a + bu))


def ols(X, y) -> OLSResult:
    """Ordinary least squares with intercept, R^2, F-test, and t-tests.

    Both p-values are incomplete beta tails (``_tail``): the F test's at
    x = df / (df + k F), each two-sided t test's at x = df / (df + t^2).
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if X.ndim == 1:
        X = X[:, None]
    if X.ndim != 2 or y.ndim != 1 or X.shape[0] != y.shape[0]:
        raise DataError("X must be (n, k) and y (n,) with matching n")
    if not (np.isfinite(X).all() and np.isfinite(y).all()):
        raise DataError("regression inputs contain non-finite values")
    n, k = X.shape
    if n < k + 2:
        raise DataError(f"need at least {k + 2} observations for {k} regressors")
    # Fit on regressors centered and scaled to unit spread, so that the rank
    # test does not depend on their units; the slopes and intercept are mapped
    # back. A constant column stays all zero, and the rank test rejects it.
    center = X.mean(axis=0)
    spread = np.abs(X - center).max(axis=0)
    _finite(float(spread.max()), "a regressor's spread")
    spread[spread == 0.0] = 1.0
    A = np.column_stack([np.ones(n), (X - center) / spread])
    beta, _, rank, _ = np.linalg.lstsq(A, y, rcond=None)
    if rank < k + 1:
        raise DegenerateSeriesError("design matrix is rank-deficient")
    resid = y - A @ beta
    dy = y - y.mean()
    ss_tot = float(dy @ dy)
    if ss_tot == 0.0:
        raise DegenerateSeriesError("response is constant")
    # at most ss_tot with an intercept; rounding can put it a few ulps above
    ss_res = min(float(resid @ resid), ss_tot)
    r2 = 1.0 - ss_res / ss_tot
    df_res = n - k - 1
    if ss_res == 0.0:
        f_stat, f_p = float("inf"), 0.0
        t_stats = np.full(k, np.inf)
        t_p = np.zeros(k)
    else:
        f_stat = (ss_tot - ss_res) / k / (ss_res / df_res)
        f_p = _tail(df_res / 2, k / 2, f_stat)
        # sigma times the row norms of pinv(A) = V / s; inv(A.T @ A) squares A's condition
        _, s, vt = np.linalg.svd(A, full_matrices=False)
        se = math.sqrt(ss_res / df_res) * np.linalg.norm(vt.T / s, axis=1)[1:]
        t_stats = beta[1:] / se
        t_p = [_tail(df_res / 2, 0.5, t * t) for t in map(float, t_stats)]
    coef = beta[1:] / spread
    return OLSResult(
        coef=coef,
        intercept=_finite(float(beta[0] - center @ coef), "the intercept"),
        r_squared=r2,
        f_stat=float(f_stat),
        f_pvalue=float(f_p),
        t_stats=np.asarray(t_stats, dtype=float),
        t_pvalues=np.asarray(t_p, dtype=float),
        n=n,
    )


def _centered_distances(x: np.ndarray) -> np.ndarray:
    d = np.abs(x[:, None] - x[None, :])
    return d - d.mean(axis=0, keepdims=True) - d.mean(axis=1, keepdims=True) + d.mean()


def _moments(A: np.ndarray, B: np.ndarray) -> tuple[float, float, float] | None:
    """(dCov^2, dVar^2 of x, dVar^2 of y), the means of A * B, A * A and
    B * B for x's and y's double-centered distance matrices A and B.

    None when a sample is constant: its matrix is exactly zero. Otherwise a
    NumericalError when a mean overflowed or a distance variance fell below
    the least normal float64. With both variances normal, what products
    below it lose adds about one rounding error of the sum to dCov^2.
    """
    if not (A.any() and B.any()):
        return None
    v2 = _finite(float((A * B).mean()), "the distance covariance")
    vx, vy = (_normal(float((M * M).mean()), "a distance variance") for M in (A, B))
    return v2, vx, vy


def _dcov(moments: tuple[float, float, float] | None) -> float:
    return 0.0 if moments is None else float(np.sqrt(max(moments[0], 0.0)))


def _dcor(moments: tuple[float, float, float] | None) -> float:
    if moments is None:
        raise DegenerateSeriesError("constant sample has no distance correlation")
    v2, vx, vy = moments
    r2 = max(v2, 0.0) / np.sqrt(_normal(vx * vy, "the product of the distance variances"))
    return float(np.sqrt(min(max(r2, 0.0), 1.0)))


def distance_covariance(x, y) -> float:
    """Sample distance covariance (biased estimator, scalar samples).

    dCov^2 = mean_jk(A_jk * B_jk) with A, B the double-centered absolute
    distance matrices. Zero iff (in the population) x and y are independent;
    exactly 0.0 when a sample is constant.
    """
    x, y = _paired(x, y)
    return _dcov(_moments(_centered_distances(x), _centered_distances(y)))


def distance_correlation(x, y) -> float:
    """Distance covariance normalized by the geometric mean of the variances."""
    x, y = _paired(x, y)
    return _dcor(_moments(_centered_distances(x), _centered_distances(y)))


def _dcov_kernel(x: np.ndarray, A: np.ndarray | None = None):
    """n^2 * dCov^2(x, y) as a function of y, with x's matrix built once
    (or given as ``A``, ``_centered_distances(x)``).

    A is double-centered, so its rows and columns sum to zero and
    sum(A * B) = sum(A * b) for the raw distance matrix b of y: each call
    is one outer difference into a reused n x n buffer and one dot product,
    with no centering.
    """
    a = (_centered_distances(x) if A is None else A).ravel()
    buf = np.empty((x.size, x.size))

    def kernel(y: np.ndarray) -> float:
        np.subtract.outer(y, y, out=buf)
        np.abs(buf, out=buf)
        return float(a @ buf.ravel())

    return kernel


def _permutation_p(score, y: np.ndarray, n_permutations: int, seed: int | None) -> float:
    """(1 + #{score(permuted y) >= score(y)}) / (n_permutations + 1)."""
    observed = _finite(score(y), "the permutation test's observed score")
    rng = np.random.default_rng(seed)
    hits = 0
    for _ in range(n_permutations):
        if score(y[rng.permutation(y.size)]) >= observed:
            hits += 1
    return (1 + hits) / (n_permutations + 1)


def permutation_test(
    x,
    y,
    statistic=distance_covariance,
    n_permutations: int = 999,
    seed: int | None = None,
) -> tuple[float, float]:
    """(observed statistic, p-value) under permutations of y.

    p = (1 + #{permuted >= observed}) / (n_permutations + 1), so the smallest
    attainable p is 1/(n_permutations + 1). For ``distance_covariance`` the
    permutations are ranked by n^2 * dCov^2, which orders them as dCov does;
    the unpermuted y is scored the same way, so exact ties compare alike.
    The observed statistic is computed first, so that one beyond float64
    raises before any permutation runs.
    """
    x, y = _paired(x, y)
    if n_permutations < 1:
        raise DataError("need at least one permutation")
    if statistic is distance_covariance:
        A = _centered_distances(x)
        observed = _dcov(_moments(A, _centered_distances(y)))
        score = _dcov_kernel(x, A)
    else:
        observed = float(statistic(x, y))

        def score(y_perm: np.ndarray) -> float:
            return float(statistic(x, y_perm))
    return observed, _permutation_p(score, y, n_permutations, seed)


def distance_statistics(x, y, n_permutations: int = 0,
                        seed: int | None = None) -> tuple[float, float, float | None]:
    """(dCov, dCor, p) of ``distance_covariance``, ``distance_correlation``
    and ``permutation_test``'s p-value (None with no permutations), from
    x's and y's double-centered distance matrices built once each."""
    x, y = _paired(x, y)
    A = _centered_distances(x)
    moments = _moments(A, _centered_distances(y))
    dcov, dcor = _dcov(moments), _dcor(moments)
    if n_permutations < 1:
        return dcov, dcor, None
    return dcov, dcor, _permutation_p(_dcov_kernel(x, A), y, n_permutations, seed)
