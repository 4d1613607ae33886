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
    dx = x - x.mean()
    dy = y - y.mean()
    ssx = float(dx @ dx)
    ssy = float(dy @ dy)
    if ssx == 0.0 or ssy == 0.0:
        raise DegenerateSeriesError("constant sample has no correlation")
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


def ols(X, y) -> OLSResult:
    """Ordinary least squares with intercept, R^2, F-test, and t-tests.

    scipy is imported here, not at module level, so that only a caller that
    fits a model pays for loading it.
    """
    from scipy.special import fdtrc, stdtr

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
    A = np.column_stack([np.ones(n), X])
    beta, _, rank, _ = np.linalg.lstsq(A, y, rcond=None)
    if rank < k + 1:
        raise DegenerateSeriesError("design matrix is rank-deficient")
    resid = y - A @ beta
    ss_res = float(resid @ resid)
    dy = y - y.mean()
    ss_tot = float(dy @ dy)
    if ss_tot == 0.0:
        raise DegenerateSeriesError("response is constant")
    r2 = 1.0 - ss_res / ss_tot
    df_res = n - k - 1
    if ss_res == 0.0:
        f_stat, f_p = float("inf"), 0.0
        t_stats = np.full(k, np.inf)
        t_p = np.zeros(k)
    else:
        f_stat = (ss_tot - ss_res) / k / (ss_res / df_res)
        f_p = float(fdtrc(k, df_res, f_stat))
        sigma2 = ss_res / df_res
        cov = sigma2 * np.linalg.inv(A.T @ A)
        se = np.sqrt(np.diag(cov))[1:]
        t_stats = beta[1:] / se
        t_p = 2.0 * stdtr(df_res, -np.abs(t_stats))
    return OLSResult(
        coef=beta[1:].copy(),
        intercept=float(beta[0]),
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


def _dcov(A: np.ndarray, B: np.ndarray) -> float:
    v2 = _finite(float((A * B).mean()), "the distance covariance")
    return float(np.sqrt(max(v2, 0.0)))


def _dcor(A: np.ndarray, B: np.ndarray) -> float:
    vx = float((A * A).mean())
    vy = float((B * B).mean())
    if vx == 0.0 or vy == 0.0:
        raise DegenerateSeriesError("constant sample has no distance correlation")
    v2 = _finite(float((A * B).mean()), "the distance covariance")
    r2 = max(v2, 0.0) / np.sqrt(_normal(vx * vy, "the product of the distance variances"))
    return float(np.sqrt(min(max(r2, 0.0), 1.0)))


def distance_covariance(x, y) -> float:
    """Sample distance covariance (biased estimator, scalar samples).

    dCov^2 = mean_jk(A_jk * B_jk) with A, B the double-centered absolute
    distance matrices. Zero iff (in the population) x and y are independent.
    """
    x, y = _paired(x, y)
    return _dcov(_centered_distances(x), _centered_distances(y))


def distance_correlation(x, y) -> float:
    """Distance covariance normalized by the geometric mean of the variances."""
    x, y = _paired(x, y)
    return _dcor(_centered_distances(x), _centered_distances(y))


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
    """
    x, y = _paired(x, y)
    if n_permutations < 1:
        raise DataError("need at least one permutation")
    if statistic is distance_covariance:
        score = _dcov_kernel(x)
    else:
        def score(y_perm: np.ndarray) -> float:
            return float(statistic(x, y_perm))
    p = _permutation_p(score, y, n_permutations, seed)
    return float(statistic(x, y)), p


def distance_statistics(x, y, n_permutations: int = 0,
                        seed: int | None = None) -> tuple[float, float, float | None]:
    """(dCov, dCor, p) of ``distance_covariance``, ``distance_correlation``
    and ``permutation_test``'s p-value (None with no permutations), from
    x's and y's double-centered distance matrices built once each."""
    x, y = _paired(x, y)
    A, B = _centered_distances(x), _centered_distances(y)
    dcov, dcor = _dcov(A, B), _dcor(A, B)
    if n_permutations < 1:
        return dcov, dcor, None
    return dcov, dcor, _permutation_p(_dcov_kernel(x, A), y, n_permutations, seed)
