"""Eigen-decomposition of weekly sentiment distributions.

Stacking one week per row and one score bin per column gives a
row-stochastic matrix whose SVD separates the stable base distribution of
the language (the first component) from recurring deviations. Dropping the
first component and keeping just enough of the rest to explain 95% of the
remaining variance yields a denoised deviation matrix. A holiday's
"eigenmood" is the pair of components, drawn from any of the three sentiment
dimensions, on which the holiday's weeks project most consistently; weeks
are compared in that two-dimensional space by dot product.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError, DegenerateSeriesError, NumericalError
from .io import first_bad_row
from .sentiment import DIMENSIONS, N_BINS
from .timeseries import _ordered_sum, _readonly


@dataclass(frozen=True)
class BinnedMoodMatrix:
    """Weeks-by-bins probability matrix for one sentiment dimension.

    ``week_starts`` maps each row back to its calendar (or centered-year)
    position; gap weeks are simply absent, never zero-filled.
    """

    dimension: str
    week_starts: tuple
    matrix: np.ndarray

    def __post_init__(self):
        m = _readonly(self.matrix)
        object.__setattr__(self, "matrix", m)
        if m.ndim != 2 or m.shape[0] != len(self.week_starts):
            raise DataError("matrix shape does not match week list")
        bad = first_bad_row(m)
        if bad is not None:
            raise DataError(bad[1])

    @property
    def n_bins(self) -> int:
        return self.matrix.shape[1]


@dataclass(frozen=True)
class EigenDecomposition:
    """M = U diag(S) Vᵀ with deterministic signs.

    Columns of V are eigenbins (bin-space directions), columns of U are
    eigenweeks. Components are numbered from 1. rel_var[k] is the share of
    total squared singular value carried by component k+1.
    """

    U: np.ndarray
    S: np.ndarray
    V: np.ndarray
    rel_var: np.ndarray

    @property
    def rank(self) -> int:
        return len(self.S)

    def coord(self, row: int, component: int) -> float:
        """Projection of week ``row`` on component (1-based): u·s."""
        return float(self.U[row, component - 1] * self.S[component - 1])

    def reconstruct(self, components) -> np.ndarray:
        """Weeks-by-bins sum of the given components (1-based): U_k S_k V_kᵀ."""
        idx = [k - 1 for k in components]
        return (self.U[:, idx] * self.S[idx]) @ self.V[:, idx].T


def decompose(M) -> EigenDecomposition:
    """Full SVD with the largest-|entry| of every eigenbin made positive."""
    matrix = M.matrix if isinstance(M, BinnedMoodMatrix) else np.asarray(M, dtype=float)
    if matrix.ndim != 2 or matrix.shape[0] < 2:
        raise DataError("need a 2-D matrix with at least 2 rows")
    if not np.isfinite(matrix).all():
        raise DataError("matrix contains non-finite entries")
    U, S, Vt = np.linalg.svd(matrix, full_matrices=False)
    V = Vt.T.copy()
    for k in range(V.shape[1]):
        if V[np.argmax(np.abs(V[:, k])), k] < 0:
            V[:, k] = -V[:, k]
            U[:, k] = -U[:, k]
    total = float(S @ S)
    if total == 0.0:
        raise NumericalError("zero matrix has no variance to decompose")
    return EigenDecomposition(U=_readonly(U), S=_readonly(S), V=_readonly(V),
                              rel_var=_readonly(S * S / total))


def retained_components(
    dec: EigenDecomposition,
    var_threshold: float = 0.95,
) -> tuple[int, ...]:
    """Minimal prefix of candidate components reaching the variance share.

    Candidates are components 2..r, where r is the numerical rank; singular
    values below eps-scale of the largest are rounding artifacts, not
    variance. Singular values are non-increasing, so the minimal subset by
    variance is a prefix. Empty when the candidates carry no variance at all
    (a rank-1 matrix, for example).
    """
    if not 0.0 < var_threshold <= 1.0:
        raise DataError("variance threshold must be in (0, 1]")
    tol = float(dec.S[0]) * max(dec.U.shape[0], dec.V.shape[0]) * np.finfo(float).eps
    tail = dec.S[1:]
    tail = tail[tail > tol]
    remaining = float(tail @ tail)
    if remaining == 0.0:
        return ()
    target = var_threshold * remaining
    acc = 0.0
    for i, s in enumerate(tail):
        acc += float(s) * float(s)
        if acc >= target:
            return tuple(range(2, i + 3))
    return tuple(range(2, len(tail) + 2))


@dataclass(frozen=True)
class Component:
    """One selected component: an eigenbin direction within one dimension."""

    dimension: str
    index: int                 # 1-based within its dimension's decomposition
    eigenbin: np.ndarray       # unit vector over bins
    singular_value: float

    @property
    def label(self) -> str:
        return f"{self.dimension[0]}{self.index}"


@dataclass(frozen=True)
class CandidateScore:
    dimension: str
    index: int
    mean: float                # mean holiday projection across years
    std: float                 # population std of those projections
    score: float


@dataclass(frozen=True)
class Eigenmood:
    """Two components characterizing a holiday's collective mood."""

    holiday: str
    components: tuple[Component, Component]
    selection: tuple[CandidateScore, ...]   # every candidate, ranked

    @property
    def labels(self) -> tuple[str, str]:
        return (self.components[0].label, self.components[1].label)


def _rank_key(c: CandidateScore):
    return (-c.score, DIMENSIONS.index(c.dimension), c.index)


def select_eigenmood(
    decs: dict[str, EigenDecomposition],
    holiday_rows: list[int],
    holiday: str,
    var_threshold: float = 0.95,
    alt_score: bool = False,
) -> Eigenmood:
    """Pick the two components the holiday projects on most consistently.

    Candidates are every dimension's components 2..cutoff (the 95% set). A
    candidate's score is |mean projection of the holiday weeks| minus the
    spread (population std) of those projections across the holiday weeks
    (at least 2), so it is high when they all project strongly and alike.
    ``alt_score`` switches to |mean - std|, an alternative reading kept for
    comparison. Ties rank by dimension order then lower component index.
    """
    if len(holiday_rows) < 2:
        raise DataError("need at least 2 holiday weeks")
    candidates = []
    for dim in DIMENSIONS:
        dec = decs.get(dim)
        if dec is None:
            continue
        for k in retained_components(dec, var_threshold):
            proj = np.array([dec.coord(r, k) for r in holiday_rows])
            mean = float(proj.mean())
            std = float(proj.std())
            score = abs(mean - std) if alt_score else abs(mean) - std
            candidates.append(CandidateScore(dim, k, mean, std, score))
    if len(candidates) < 2:
        raise DegenerateSeriesError(
            f"only {len(candidates)} candidate components; eigenmood needs 2"
        )
    candidates.sort(key=_rank_key)
    components = tuple(
        Component(
            dimension=c.dimension,
            index=c.index,
            eigenbin=decs[c.dimension].V[:, c.index - 1].copy(),
            singular_value=float(decs[c.dimension].S[c.index - 1]),
        )
        for c in candidates[:2]
    )
    return Eigenmood(holiday=holiday, components=components, selection=tuple(candidates))


@dataclass(frozen=True)
class WeekProjection:
    coords: tuple[float, float]


def project(eigenmood: Eigenmood, rows: dict[str, np.ndarray]) -> WeekProjection:
    """Project one week, given its bin distribution per dimension."""
    coords = []
    for comp in eigenmood.components:
        row = rows.get(comp.dimension)
        if row is None:
            raise DataError(f"no {comp.dimension} distribution for this week")
        row = np.asarray(row, dtype=float)
        if row.shape != comp.eigenbin.shape:
            raise DataError(
                f"{comp.dimension} row has {row.shape[0]} bins, eigenbin has {comp.eigenbin.shape[0]}"
            )
        coords.append(float(row @ comp.eigenbin))
    return WeekProjection(coords=(coords[0], coords[1]))


def project_weeks(
    eigenmood: Eigenmood,
    matrices: dict[str, BinnedMoodMatrix],
) -> list[WeekProjection]:
    """Projection of every week; all matrices must share the same week list."""
    needed = {c.dimension for c in eigenmood.components}
    weeks = None
    for dim in needed:
        if dim not in matrices:
            raise DataError(f"missing {dim} matrix")
        if weeks is None:
            weeks = matrices[dim].week_starts
        elif matrices[dim].week_starts != weeks:
            raise DataError("matrices disagree on week lists")
    return [
        project(eigenmood, {dim: matrices[dim].matrix[i] for dim in needed})
        for i in range(len(weeks))
    ]


def mean_projection(projections: list[WeekProjection]) -> WeekProjection:
    """Element-wise mean of yearly coordinates (averaged-year mode)."""
    if not projections:
        raise DataError("no projections to average")
    n = len(projections)
    return WeekProjection(tuple(_ordered_sum(p.coords[i] for p in projections) / n for i in (0, 1)))


def similarity(a: WeekProjection, b: WeekProjection) -> float:
    """Dot product of the two weeks' eigenmood coordinates."""
    return a.coords[0] * b.coords[0] + a.coords[1] * b.coords[1]


MEMBERSHIP_NAMES = ("low", "medium-low", "medium", "medium-high", "high")


def membership_matrix() -> np.ndarray:
    """Five fuzzy membership functions over the 25 bins, rows summing to 5.

    "low" is flat at 1 on bins 1..3 and falls linearly to 0 at bin 8;
    "high" mirrors it; the middle three are triangles of support width 10
    peaking at bins 8, 13, and 18. Every bin's memberships sum to 1.
    """
    m = np.zeros((5, N_BINS))
    bins = np.arange(1, N_BINS + 1, dtype=float)
    m[0] = np.clip((8.0 - bins) / 5.0, 0.0, 1.0)          # low: flat 1..3, 0 from 8
    for j, center in enumerate((8.0, 13.0, 18.0), start=1):
        m[j] = np.clip(1.0 - np.abs(bins - center) / 5.0, 0.0, 1.0)
    m[4] = np.clip((bins - 18.0) / 5.0, 0.0, 1.0)         # high: 0 to 18, flat 23..25
    return _readonly(m)


def linguistic_response(reconstruction_row) -> dict[str, float]:
    """Change from baseline summarized at five interpretable levels.

    Each bin's reconstructed deviation is spread over the membership
    functions; the zero row maps to all-zero responses.
    """
    row = np.asarray(reconstruction_row, dtype=float)
    if row.shape != (N_BINS,):
        raise DataError(f"expected a {N_BINS}-bin row")
    values = membership_matrix() @ row
    return dict(zip(MEMBERSHIP_NAMES, (float(v) for v in values)))


def heatmap(reconstruction: np.ndarray) -> tuple[np.ndarray, list[list[str]]]:
    """(bins-by-weeks deviations, sign map) for heatmap export.

    The reconstruction arrives weeks-by-bins; the export convention puts
    bins on rows. Negative deviations map to "green", positive to "red",
    exact zero to "neutral".
    """
    recon = np.asarray(reconstruction, dtype=float)
    if recon.ndim != 2:
        raise DataError("reconstruction must be 2-D")
    dev = recon.T
    signs = [
        ["green" if v < 0 else "red" if v > 0 else "neutral" for v in row]
        for row in dev
    ]
    return dev, signs
