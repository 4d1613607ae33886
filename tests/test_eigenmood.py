"""Decomposition, denoising, component selection, and fuzzy summaries."""

import datetime as dt

import numpy as np
import pytest

from moodcycles.eigenmood import (
    MEMBERSHIP_NAMES,
    BinnedMoodMatrix,
    Component,
    Eigenmood,
    WeekProjection,
    decompose,
    heatmap,
    linguistic_response,
    mean_projection,
    membership_matrix,
    project_weeks,
    retained_components,
    select_eigenmood,
    similarity,
)
from moodcycles.errors import DataError, DegenerateSeriesError, NumericalError
from moodcycles.sentiment import bin_weeks


def random_matrix(rng, n_weeks=12, n_bins=8):
    return rng.uniform(0.1, 2.0, size=(n_weeks, n_bins))


def orthonormal(rng, n, k):
    q, _ = np.linalg.qr(rng.standard_normal((n, k)))
    return q[:, :k]


class TestDecompose:
    def test_rank_one_matrix_puts_all_variance_first(self):
        u = np.array([1.0, 2.0, 3.0])
        v = np.array([4.0, 0.0, 3.0, 0.0])
        dec = decompose(np.outer(u, v))
        assert dec.rel_var[0] == pytest.approx(1.0, abs=1e-12)
        assert dec.rel_var[1:] == pytest.approx(np.zeros(2), abs=1e-12)
        assert dec.S[0] == pytest.approx(np.linalg.norm(u) * np.linalg.norm(v), abs=1e-10)

    def test_factors_are_orthonormal(self):
        dec = decompose(random_matrix(np.random.default_rng(0)))
        np.testing.assert_allclose(dec.U.T @ dec.U, np.eye(dec.rank), atol=1e-12)
        np.testing.assert_allclose(dec.V.T @ dec.V, np.eye(dec.rank), atol=1e-12)

    def test_reconstruction_is_exact(self):
        M = random_matrix(np.random.default_rng(1))
        dec = decompose(M)
        np.testing.assert_allclose((dec.U * dec.S) @ dec.V.T, M, atol=1e-10)

    def test_eigenbin_signs_follow_the_largest_entry(self):
        dec = decompose(random_matrix(np.random.default_rng(2)))
        for k in range(dec.rank):
            col = dec.V[:, k]
            assert col[np.argmax(np.abs(col))] > 0

    def test_decomposition_is_deterministic(self):
        M = random_matrix(np.random.default_rng(3))
        a, b = decompose(M), decompose(M.copy())
        assert np.array_equal(a.U, b.U)
        assert np.array_equal(a.S, b.S)
        assert np.array_equal(a.V, b.V)

    def test_week_coordinates_match_both_routes(self):
        # u_k s_k equals the data row projected on the eigenbin
        M = random_matrix(np.random.default_rng(4))
        dec = decompose(M)
        for k in (1, 2, 3):
            coords = [dec.coord(row, k) for row in range(M.shape[0])]
            np.testing.assert_allclose(coords, M @ dec.V[:, k - 1], atol=1e-10)
        assert dec.coord(5, 2) == pytest.approx(dec.U[5, 1] * dec.S[1], abs=1e-15)

    def test_relative_variance_sums_to_one(self):
        dec = decompose(random_matrix(np.random.default_rng(5)))
        assert dec.rel_var.sum() == pytest.approx(1.0, abs=1e-12)
        assert (np.diff(dec.rel_var) <= 1e-15).all()

    def test_invalid_inputs(self):
        with pytest.raises(DataError):
            decompose(np.ones((1, 4)))
        with pytest.raises(DataError):
            decompose(np.array([[1.0, np.nan], [0.0, 1.0]]))
        with pytest.raises(NumericalError):
            decompose(np.zeros((3, 4)))

    def test_accepts_a_binned_mood_matrix(self):
        weeks = bin_weeks({
            dt.date(2010, 1, 3) + dt.timedelta(weeks=w): [[v, 5.0, 5.0] for v in (1.0 + w, 5.0, 9.0 - w)]
            for w in range(4)
        })
        valence = [b for b in weeks if b.dimension == "valence"]
        matrix = BinnedMoodMatrix("valence", tuple(b.week_start for b in valence),
                                  np.vstack([b.probs for b in valence]))
        dec = decompose(matrix)
        assert dec.U.shape == (4, 4)

    def test_freezes_a_copy_and_leaves_the_callers_array_writeable(self):
        m = np.full((2, 4), 0.25)
        matrix = BinnedMoodMatrix("valence", (1, 2), m)
        assert m.flags.writeable and not matrix.matrix.flags.writeable
        m[0, 0] = 1.0
        assert matrix.matrix[0, 0] == 0.25
        dec = decompose(matrix)
        assert not any(a.flags.writeable for a in (dec.U, dec.S, dec.V, dec.rel_var))


def spectral_matrix(rng, s, n_weeks=9, n_bins=7, U=None):
    """Matrix with chosen singular values and random orthonormal factors."""
    s = np.asarray(s, dtype=float)
    if U is None:
        U = orthonormal(rng, n_weeks, len(s))
    V = orthonormal(rng, n_bins, len(s))
    return (U * s) @ V.T, U, V


class TestRetainedAndDenoise:
    def test_prefix_covers_the_post_baseline_variance(self):
        M, _, _ = spectral_matrix(np.random.default_rng(10), [10.0, 3.0, 1.0, 0.1])
        dec = decompose(M)
        # tail variance 9 + 1 + 0.01 = 10.01; 95% needs the first two
        assert retained_components(dec) == (2, 3)
        assert retained_components(dec, var_threshold=1.0) == (2, 3, 4)

    def test_full_threshold_removes_exactly_the_leading_component(self):
        M = random_matrix(np.random.default_rng(11), 10, 6)
        dec = decompose(M)
        # independent leading rank-1: top eigenvector of the Gram matrix
        vals, vecs = np.linalg.eigh(M @ M.T)
        w = vecs[:, -1]
        rank1 = np.outer(w, w @ M)
        kept = retained_components(dec, var_threshold=1.0)
        np.testing.assert_allclose(dec.reconstruct(kept), M - rank1, atol=1e-8)
        assert kept == tuple(range(2, dec.rank + 1))

    def test_truncation_beats_random_projections(self):
        rng = np.random.default_rng(12)
        M = random_matrix(rng, 12, 8)
        dec = decompose(M)
        k = 3
        best = (dec.U[:, :k] * dec.S[:k]) @ dec.V[:, :k].T
        base_err = np.linalg.norm(M - best)
        for _ in range(100):
            Q = orthonormal(rng, 8, k)
            assert np.linalg.norm(M - M @ Q @ Q.T) >= base_err - 1e-9

    def test_rank_one_input_is_degenerate(self):
        dec = decompose(np.outer([1.0, 2.0, 3.0], [1.0, 1.0, 2.0]))
        assert retained_components(dec) == ()

    def test_threshold_bounds(self):
        dec = decompose(random_matrix(np.random.default_rng(13)))
        with pytest.raises(DataError):
            retained_components(dec, var_threshold=0.0)
        with pytest.raises(DataError):
            retained_components(dec, var_threshold=1.1)


# orthonormal columns with known values at the first two rows
HADAMARD_U = np.array(
    [
        [0.5, 0.5, 0.5],
        [0.5, -0.5, 0.5],
        [0.5, 0.5, -0.5],
        [0.5, -0.5, -0.5],
    ]
)


class TestSelect:
    def make_dec(self, rng, s=(5.0, 2.0, 1.0)):
        M, _, _ = spectral_matrix(rng, s, n_weeks=4, n_bins=5, U=HADAMARD_U)
        return decompose(M)

    def test_scores_match_the_spectral_construction(self):
        dec = self.make_dec(np.random.default_rng(20))
        em = select_eigenmood({"valence": dec}, holiday_rows=[0, 1], holiday="h")
        by_index = {c.index: c for c in em.selection}
        assert set(by_index) == {2, 3}
        # u2 at rows (0,1) is (+1/2, -1/2): mean 0, std 1/2, score -s2/2
        assert by_index[2].score == pytest.approx(-2.0 * 0.5, abs=1e-10)
        assert by_index[2].std == pytest.approx(2.0 * 0.5, abs=1e-10)
        # u3 at rows (0,1) is (1/2, 1/2): |mean| s3/2, std 0
        assert by_index[3].score == pytest.approx(1.0 * 0.5, abs=1e-10)
        assert by_index[3].std == pytest.approx(0.0, abs=1e-10)
        assert em.labels == ("v3", "v2")
        assert [c.score for c in em.selection] == sorted(
            (c.score for c in em.selection), reverse=True
        )

    def test_alt_score_rewards_consistent_spread(self):
        dec = self.make_dec(np.random.default_rng(21))
        em = select_eigenmood({"valence": dec}, [0, 1], "h", alt_score=True)
        # |mean - std|: component 2 scores |0 - 1.0| = 1.0, component 3 scores 0.5
        assert em.labels == ("v2", "v3")

    def test_selected_components_carry_the_decomposition_factors(self):
        dec = self.make_dec(np.random.default_rng(22))
        em = select_eigenmood({"valence": dec}, [0, 1], "h")
        top = em.components[0]
        np.testing.assert_array_equal(top.eigenbin, dec.V[:, top.index - 1])
        assert top.singular_value == dec.S[top.index - 1]

    def test_ties_rank_valence_before_arousal(self):
        dec = self.make_dec(np.random.default_rng(23))
        em = select_eigenmood({"valence": dec, "arousal": dec}, [0, 1], "h")
        assert em.components[0].dimension == "valence"
        assert em.components[1].dimension == "arousal"
        assert em.components[0].index == em.components[1].index

    def test_needs_two_holiday_years(self):
        dec = self.make_dec(np.random.default_rng(24))
        with pytest.raises(DataError, match="need at least 2 holiday weeks"):
            select_eigenmood({"valence": dec}, [0], "h")

    def test_needs_two_candidates(self):
        M, _, _ = spectral_matrix(np.random.default_rng(25), [5.0, 2.0], n_weeks=4, n_bins=5)
        dec = decompose(M)
        with pytest.raises(DegenerateSeriesError):
            select_eigenmood({"valence": dec}, [0, 1], "h")


def make_eigenmood(dec, indices=(2, 3), dims=("valence", "valence")):
    components = tuple(
        Component(
            dimension=dim,
            index=k,
            eigenbin=dec.V[:, k - 1].copy(),
            singular_value=float(dec.S[k - 1]),
        )
        for dim, k in zip(dims, indices)
    )
    return Eigenmood(holiday="h", components=components, selection=())


class TestProjection:
    WEEKS = tuple(dt.date(2010, 1, 3) + dt.timedelta(weeks=w) for w in range(9))

    def matrices(self, rng, weeks, n_bins=6, dim="valence"):
        M = rng.dirichlet(np.ones(n_bins), size=len(weeks))
        return BinnedMoodMatrix(dim, tuple(weeks), M)

    def test_project_weeks_walks_the_rows(self):
        matrix = self.matrices(np.random.default_rng(33), self.WEEKS)
        dec = decompose(matrix)
        projections = project_weeks(make_eigenmood(dec), {"valence": matrix})
        assert len(projections) == len(self.WEEKS)
        for i, p in enumerate(projections):
            assert p.coords[0] == pytest.approx(dec.coord(i, 2), abs=1e-10)
            assert p.coords[1] == pytest.approx(dec.coord(i, 3), abs=1e-10)

    def test_orthogonal_rows_project_to_zero(self):
        matrix = self.matrices(np.random.default_rng(31), self.WEEKS[:-1])
        dec = decompose(matrix)
        base = dec.V[:, 0] / dec.V[:, 0].sum()  # a distribution along eigenbin 1 only
        extended = BinnedMoodMatrix("valence", self.WEEKS, np.vstack([matrix.matrix, base]))
        *_, last = project_weeks(make_eigenmood(dec), {"valence": extended})
        assert last.coords == pytest.approx((0.0, 0.0), abs=1e-12)

    def test_project_weeks_needs_each_component_matrix(self):
        matrix = self.matrices(np.random.default_rng(32), self.WEEKS)
        em = make_eigenmood(decompose(matrix), dims=("valence", "arousal"))
        with pytest.raises(DataError, match="missing arousal matrix"):
            project_weeks(em, {"valence": matrix})

    def test_project_weeks_rejects_a_bin_count_unlike_the_eigenbin(self):
        rng = np.random.default_rng(35)
        em = make_eigenmood(decompose(self.matrices(rng, self.WEEKS)))
        with pytest.raises(DataError, match="has 5 bins, eigenbin has 6"):
            project_weeks(em, {"valence": self.matrices(rng, self.WEEKS, n_bins=5)})

    def test_project_weeks_rejects_disagreeing_grids(self):
        rng = np.random.default_rng(34)
        a = self.matrices(rng, self.WEEKS)
        b = self.matrices(rng, [w + dt.timedelta(weeks=9) for w in self.WEEKS], dim="arousal")
        em = make_eigenmood(decompose(a), dims=("valence", "arousal"))
        with pytest.raises(DataError, match="disagree on week lists"):
            project_weeks(em, {"valence": a, "arousal": b})

    def test_mean_projection_averages_elementwise(self):
        mean = mean_projection([WeekProjection((1.0, -2.0)), WeekProjection((3.0, 4.0))])
        assert mean.coords == (2.0, 1.0)
        with pytest.raises(DataError):
            mean_projection([])

    def test_mean_projection_adds_left_to_right(self):
        # left to right, 1e16 absorbs the 1.0 and the sum is 0.0; the
        # compensated sum() of Python 3.12 would give 1.0, and a mean of 1/3
        coords = [1e16, 1.0, -1e16]
        mean = mean_projection([WeekProjection((c, -c)) for c in coords])
        assert mean.coords == (0.0, 0.0)

    def test_similarity_is_a_dot_product(self):
        a, b = WeekProjection((1.0, 2.0)), WeekProjection((3.0, -1.0))
        assert similarity(a, b) == 1.0
        assert similarity(a, b) == similarity(b, a)
        assert similarity(a, a) == 5.0
        assert similarity(a, WeekProjection((-1.0, -2.0))) == -5.0


class TestMembership:
    def test_partition_of_unity(self):
        m = membership_matrix()
        assert m.shape == (5, 25)
        np.testing.assert_allclose(m.sum(axis=0), np.ones(25), atol=1e-12)
        np.testing.assert_allclose(m.sum(axis=1), np.full(5, 5.0), atol=1e-12)

    def test_anchor_points(self):
        m = membership_matrix()
        assert m[0, 0] == 1.0        # low is flat at the bottom bins
        assert m[0, 2] == 1.0
        assert m[0, 7] == 0.0        # and gone by bin 8
        assert m[1, 7] == 1.0        # medium-low peaks at bin 8
        assert m[2, 12] == 1.0       # medium peaks at bin 13
        assert m[3, 17] == 1.0       # medium-high peaks at bin 18
        assert m[4, 17] == 0.0
        assert m[4, 24] == 1.0       # high is flat at the top bins

    def test_zero_deviation_maps_to_zero_response(self):
        response = linguistic_response(np.zeros(25))
        assert set(response) == set(MEMBERSHIP_NAMES)
        assert all(v == 0.0 for v in response.values())

    def test_top_bin_deviation_is_purely_high(self):
        row = np.zeros(25)
        row[24] = 1.0
        response = linguistic_response(row)
        assert response["high"] == 1.0
        assert all(response[name] == 0.0 for name in MEMBERSHIP_NAMES[:-1])

    def test_uniform_deviation_loads_all_levels_equally(self):
        response = linguistic_response(np.full(25, 0.2))
        assert all(v == pytest.approx(1.0, abs=1e-12) for v in response.values())

    def test_row_length_is_validated(self):
        with pytest.raises(DataError):
            linguistic_response(np.zeros(24))


class TestHeatmap:
    def test_transposes_and_signs(self):
        recon = np.array([[-1.0, 0.0], [2.0, -3.0], [0.5, 0.0]])  # 3 weeks, 2 bins
        dev, signs = heatmap(recon)
        assert dev.shape == (2, 3)
        np.testing.assert_array_equal(dev, recon.T)
        assert signs == [
            ["green", "red", "red"],
            ["neutral", "green", "neutral"],
        ]

    def test_requires_a_matrix(self):
        with pytest.raises(DataError):
            heatmap(np.zeros(4))
