import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scipy.special import ndtr, ndtri

from conftest import assert_brackets, brute_force_ks

from cltbounds.core import CHUNK_ROWS, CHUNK_VALUES, InsufficientDataError
from cltbounds.empirical import (
    _ks_edge_cdf,
    KS_BINS,
    KS_COUNTS,
    KS_REACH,
    add_ks_counts,
    bin_totals,
    conditional_second_moment,
    dkw_slack,
    kolmogorov_from_counts,
    kolmogorov_vs_normal,
    project,
    streaming_pair_square_covariance,
    tv_from_counts,
    tv_vs_normal_histogram,
)
from cltbounds.certify import certify_grid
from cltbounds.exact import DistributionSpec, Kind
from cltbounds.samplers import BLOCK_ROWS, SampleBatch, sample, sample_projections
from cltbounds.subspaces import estimate_Ank, reflection_pair_diagnostics


def normal_cdf(t):
    """Reference standard normal distribution function on an array: scipy's
    ``ndtr``.  It was ``core.normal_cdf``."""
    return ndtr(t)


def gaussian_ps(n_samples, seed):
    rng = np.random.default_rng(seed)
    return rng.standard_normal(n_samples)


def _normal(n):
    return lambda rng: 0.9 * rng.standard_normal(n)


def _with_infinities(rng):
    values = rng.standard_normal(5000)
    values[[3, 70, 900, 4000, 4999]] = [np.inf, -np.inf, np.inf, 1e200, -1e300]
    return values


# the Kolmogorov statistic's inputs beside plain normal samples: tied (some
# on the grid's edges), constant, heavy-tailed past the grid's reach and past
# |x| = 38 where Phi leaves (0, 1), and infinite
KS_INPUTS = {
    **{f"normal-{n}": _normal(n) for n in (100, 8191, 8192, 8193)},
    "ties": lambda rng: np.round(rng.standard_normal(20_000), 1),
    "all-equal": lambda rng: np.full(4103, -0.3),
    "all-zero": lambda rng: np.zeros(500),
    "cauchy": lambda rng: rng.standard_cauchy(20_000),
    "infinities": _with_infinities,
}


class TestProject:
    def test_e1_is_first_column(self):
        batch = sample(DistributionSpec(Kind.SPHERE_SHELL, 4), 500, 1)
        theta = np.array([1.0, 0.0, 0.0, 0.0])
        np.testing.assert_array_equal(project(batch, theta), batch.data[:, 0])

    def test_unit_variance_for_isotropic_source(self):
        batch = sample(DistributionSpec(Kind.SPHERE_SHELL, 10), 10**5, 2)
        rng = np.random.default_rng(3)
        theta = rng.standard_normal(10)
        theta /= np.linalg.norm(theta)
        w = project(batch, theta)
        se = math.sqrt(np.mean((w**2 - 1) ** 2) / len(w))
        assert abs(w.var() - 1.0) <= 3 * se + 1e-9

    def test_linearity(self):
        batch = sample(DistributionSpec(Kind.SPHERE_SHELL, 5), 300, 4)
        e1 = np.eye(5)[0]
        e2 = np.eye(5)[1]
        combo = (e1 + e2) / math.sqrt(2)
        lhs = project(batch, combo)
        rhs = (project(batch, e1) + project(batch, e2)) / math.sqrt(2)
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)

    def test_rejects_non_unit(self):
        batch = sample(DistributionSpec(Kind.SPHERE_SHELL, 4), 200, 5)
        with pytest.raises(ValueError):
            project(batch, np.array([1.0, 1.0, 0.0, 0.0]))

    def test_rejects_dimension_mismatch(self):
        batch = sample(DistributionSpec(Kind.SPHERE_SHELL, 4), 200, 6)
        with pytest.raises(ValueError):
            project(batch, np.array([1.0, 0.0, 0.0]))

    def test_refuses_weighted_batch(self):
        # the estimators treat every row alike; the DKW slack holds unweighted only
        batch = sample(DistributionSpec(Kind.LP_SURFACE, 4, p=3.0), 500, 7)
        with pytest.raises(ValueError, match="weights"):
            project(batch, np.eye(4)[0])


class TestDkwSlack:
    def test_reference_value(self):
        # sqrt(ln(200)/1e5), 30-digit arithmetic
        assert dkw_slack(50000, 0.01) == pytest.approx(0.00727895416014418700, rel=1e-12)

    def test_estimate_carries_formula(self):
        ps = gaussian_ps(5000, 8)
        est = kolmogorov_vs_normal(ps, delta=0.05)
        assert est.dkw_slack == pytest.approx(math.sqrt(math.log(2 / 0.05) / (2 * 5000)))

    def test_rejects_bad_delta(self):
        with pytest.raises(ValueError):
            dkw_slack(100, 0.0)
        with pytest.raises(ValueError):
            dkw_slack(100, 1.5)


class TestKolmogorov:
    def test_degenerate_sample_is_half(self):
        ps = np.zeros(500)
        est = kolmogorov_vs_normal(ps)
        assert est.point_estimate == pytest.approx(0.5, abs=1e-12)

    def test_normal_samples_within_dkw(self):
        # DKW at delta = 0.01: expect >= 97 of 100 trials inside the band
        hits = 0
        for trial in range(100):
            ps = gaussian_ps(2000, 1000 + trial)
            est = kolmogorov_vs_normal(ps, delta=0.01)
            hits += est.point_estimate <= est.dkw_slack
        assert hits >= 97

    def test_needs_100_samples(self):
        with pytest.raises(InsufficientDataError):
            kolmogorov_vs_normal(np.zeros(99))

    @pytest.mark.parametrize("ties", [False, True])
    def test_sign_invariant(self, ties):
        # the grid is symmetric about 0: with no value on an edge the counts
        # of -W are those of W mirrored, and K_lo is the same.  Tied values
        # on edges (0.5, 1.0, ...) count in the cell above them, which moves
        # K_lo, but the bracket of -W still holds the statistic of W
        values = np.random.default_rng(13).standard_normal(3001) * 1.1 + 0.05
        if ties:
            values = np.round(values, 1)  # about 60 distinct values
        plus, minus = kolmogorov_vs_normal(values), kolmogorov_vs_normal(-values)
        if not ties:
            assert minus.point_estimate == pytest.approx(
                plus.point_estimate, rel=0.0, abs=1e-15
            )
        for estimate in (plus, minus):
            assert_brackets(estimate, values)

    @pytest.mark.parametrize("inputs", sorted(KS_INPUTS))
    def test_equals_the_gap_with_exact_phi(self, inputs):
        # the bracket holds the exact gap, taken with scipy's Phi at every
        # order statistic
        values = KS_INPUTS[inputs](np.random.default_rng(17))
        if inputs == "cauchy":
            assert np.abs(values).max() > 38.0
        estimate = kolmogorov_vs_normal(values)
        assert estimate.n_samples == len(values)
        assert_brackets(estimate, values)

    def test_quantile_grid_refines_every_point(self):
        # Phi(x_i) = (i - 1/2) / N: every gap is 1/(2N), each order statistic
        # attains the supremum, and the bracket holds it
        n_samples = 200_000
        values = ndtri((np.arange(1, n_samples + 1) - 0.5) / n_samples)
        exact = brute_force_ks(values, ndtr)
        assert exact == pytest.approx(0.5 / n_samples, rel=0.0, abs=4.4e-16)
        assert_brackets(kolmogorov_vs_normal(values), values)

    @pytest.mark.parametrize("at", [0, 57, 8191, 8192, 19_999])
    def test_nan_gives_nan(self, at):
        values = np.random.default_rng(at).standard_normal(20_000)
        values[at] = np.nan
        estimate = kolmogorov_vs_normal(values)
        assert math.isnan(estimate.point_estimate) and math.isnan(estimate.upper_estimate)

    def test_exact_supremum_against_brute_force(self):
        rng = np.random.default_rng(11)
        values = rng.standard_normal(500)
        est = kolmogorov_vs_normal(values)
        # brute force on a fine grid plus both sides of every jump point
        grid = np.concatenate([np.linspace(-5, 5, 200001), values, values - 1e-9])
        ecdf = np.searchsorted(np.sort(values), grid, side="right") / len(values)
        brute = np.abs(ecdf - normal_cdf(grid)).max()
        assert brute == pytest.approx(brute_force_ks(values, ndtr), abs=1e-8)
        assert_brackets(est, values)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_permutation_invariance(self, seed):
        rng = np.random.default_rng(seed)
        values = rng.standard_normal(300)
        a = kolmogorov_vs_normal(values).point_estimate
        b = kolmogorov_vs_normal(rng.permutation(values)).point_estimate
        assert a == b

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_far_point_moves_estimate_at_most_one_over_n(self, seed):
        rng = np.random.default_rng(seed)
        values = rng.standard_normal(400)
        base = kolmogorov_vs_normal(values).point_estimate
        bumped = kolmogorov_vs_normal(np.append(values, 1e9)).point_estimate
        assert abs(bumped - base) <= 1.0 / 400 + 1.0 / 401 + 1e-12


def counts_of(columns):
    """The Kolmogorov counts of each column of the (N, R) array ``columns``."""
    counts = np.zeros((columns.shape[1], KS_COUNTS), dtype=np.int64)
    add_ks_counts(counts, columns)
    return counts


def reference_counts(values):
    """The counts by the grid's definition: each value's position is the
    number of edges t_j = -KS_REACH + j 2^-10 at or below it, NaN last."""
    edges = np.arange(KS_BINS + 1) / 1024.0 - KS_REACH
    finite = values[~np.isnan(values)]
    counts = np.bincount(np.searchsorted(edges, finite, side="right"), minlength=KS_COUNTS)
    counts[-1] = len(values) - len(finite)
    return counts


def _projected(spec):
    """One row of spec's projections onto random(7)."""
    theta = np.random.default_rng(7).standard_normal(spec.n)
    theta /= np.linalg.norm(theta)
    return lambda n_samples, seed: sample_projections(spec, theta[:, None], n_samples, seed)[0]


# rows whose counted statistics must bracket the exact one: the cube, the
# p = 4 ball, the simplex, and Cauchy values far beyond the grid's reach
COUNT_ROWS = {
    "cube": _projected(DistributionSpec(Kind.LP_BALL, 20, p=math.inf)),
    "lp4": _projected(DistributionSpec(Kind.LP_BALL, 20, p=4.0)),
    "simplex": _projected(DistributionSpec(Kind.SIMPLEX, 20)),
    "cauchy": lambda n_samples, seed: np.random.default_rng(seed).standard_cauchy(n_samples),
    # every value exactly on an edge, some beyond the reach on either side
    "edges": lambda n_samples, seed: np.random.default_rng(seed).integers(
        -KS_BINS // 2 - 300, KS_BINS // 2 + 300, n_samples) / 1024.0,
}


class TestKolmogorovCounts:
    @pytest.mark.parametrize("n_samples", [100, 200_000])
    @pytest.mark.parametrize("row", sorted(COUNT_ROWS))
    def test_brackets_the_exact_statistic(self, row, n_samples):
        values = COUNT_ROWS[row](n_samples, 40 + n_samples)
        if row == "cauchy":
            assert np.abs(values).max() > KS_REACH
        counts = counts_of(values[:, None])
        np.testing.assert_array_equal(counts[0], reference_counts(values))
        estimate = kolmogorov_from_counts(counts[0], delta=0.01)
        assert_brackets(estimate, values)
        assert estimate.n_samples == n_samples
        assert estimate.dkw_slack == dkw_slack(n_samples, 0.01)
        assert (estimate.grid_bins, estimate.grid_reach) == (KS_BINS, KS_REACH)

    def test_edge_cdf_holds_no_list_of_floats(self):
        # Phi at the 16385 edges is filled without a Python list of the edges
        # or of their values (two such lists took 1.2 MB): beside the 131 kB
        # result the build holds the edges and one more array of their length
        tracemalloc.start()
        try:
            cdf = _ks_edge_cdf.__wrapped__()  # uncached
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert cdf.shape == (KS_COUNTS,)
        assert peak <= 4 * cdf.nbytes, f"peak {peak / 1e3:.0f} kB"

    def test_edge_values_count_in_the_cell_they_open(self):
        # t_j counts in position j + 1, its cell [t_j, t_(j+1)); beyond the
        # reach, and the infinities, in the tails; NaN last
        values = np.array([-KS_REACH, -KS_REACH + 2.0**-10, 0.0, KS_REACH - 2.0**-10, KS_REACH,
                           -np.inf, np.inf, -1e300, 1e308, np.nan, -KS_REACH - 1e-12])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            counts = counts_of(values[:, None])[0]
        expected = {1: 1, 2: 1, KS_BINS // 2 + 1: 1, KS_BINS: 1, KS_BINS + 1: 3, 0: 3,
                    KS_BINS + 2: 1}
        assert {int(i): int(counts[i]) for i in np.flatnonzero(counts)} == expected

    def test_blocks_and_columns_add_up(self):
        # counted in blocks, in any order, column by column: the same counts
        columns = np.random.default_rng(41).standard_normal((70_001, 3)) * 3.0
        whole = counts_of(columns)
        parts = np.zeros_like(whole)
        for rows in (slice(40_000, 65_536), slice(0, 40_000), slice(65_536, None)):
            add_ks_counts(parts, columns[rows])
        np.testing.assert_array_equal(parts, whole)
        for row, column in zip(whole, columns.T):
            np.testing.assert_array_equal(row, reference_counts(column))

    @pytest.mark.parametrize("at", [0, 57, 8191, 40_000])
    def test_nan_gives_nan(self, at):
        columns = np.random.default_rng(at).standard_normal((50_000, 2))
        columns[at, 1] = np.nan
        clean, dirty = (kolmogorov_from_counts(row) for row in counts_of(columns))
        assert math.isnan(dirty.point_estimate) and math.isnan(dirty.upper_estimate)
        assert dirty.n_samples == 50_000
        assert_brackets(clean, columns[:, 0])

    def test_needs_100_samples(self):
        with pytest.raises(InsufficientDataError):
            kolmogorov_from_counts(counts_of(np.zeros((99, 1)))[0])

    def test_refuses_a_strided_table(self):
        # a strided table's flat view is a copy: the counts would be lost
        counts = np.zeros((KS_COUNTS, 2), dtype=np.int64).T
        with pytest.raises(ValueError, match="C-contiguous"):
            add_ks_counts(counts, np.zeros((10, 2)))


def snapped(edges):
    """The grid edge nearest each of ``edges``."""
    return np.rint(np.asarray(edges) * 1024.0) / 1024.0


# the histogram's inputs: normal, heavy-tailed past the support and the
# grid's reach, every value on a grid edge, and infinities
TV_INPUTS = {
    "normal": lambda rng: rng.standard_normal(30_000),
    "cauchy": lambda rng: rng.standard_cauchy(30_000),
    "edges": lambda rng: rng.integers(-7000, 7000, 30_000) / 1024.0,
    "infinities": lambda rng: np.concatenate([_with_infinities(rng), rng.standard_normal(10_000)]),
}


class TestTvHistogram:
    @pytest.mark.parametrize("bins", [None, 7, 100])
    @pytest.mark.parametrize("name", sorted(TV_INPUTS))
    def test_equals_the_digitize_reference(self, name, bins):
        # B bins whose inner edges are the grid edges nearest -6 + 12 j / B,
        # the outer two taking the tails, against scipy's Phi at those edges
        values = TV_INPUTS[name](np.random.default_rng(29))
        n_samples = len(values)
        b = math.ceil(n_samples ** (1 / 3)) if bins is None else bins
        edges = snapped(np.linspace(-6.0, 6.0, b + 1)[1:-1])
        mass = np.bincount(np.digitize(values, edges), minlength=b) / n_samples
        expected = np.abs(mass - np.diff(ndtr(np.concatenate(([-np.inf], edges, [np.inf]))))).sum()
        counts = np.zeros((1, KS_COUNTS), dtype=np.int64)
        add_ks_counts(counts, values[:, None])
        estimate = tv_from_counts(counts[0], bins)
        assert estimate.point_estimate == pytest.approx(expected, rel=0.0, abs=1e-14)
        assert estimate == tv_vs_normal_histogram(values, bins)
        assert estimate.n_samples == n_samples
        assert (estimate.grid_bins, estimate.grid_reach) == (KS_BINS, KS_REACH)

    def test_normal_samples_small(self):
        ps = gaussian_ps(10**6, 12)
        est = tv_vs_normal_histogram(ps, bins=100)
        assert est.point_estimate <= 0.02
        assert est.qualifiers  # labeled as a lower-bound-flavored estimate

    def test_point_mass(self):
        ps = np.zeros(10**4)
        est = tv_vs_normal_histogram(ps)
        bins = math.ceil((10**4) ** (1 / 3))
        bin_width = 12.0 / bins
        assert est.point_estimate >= 2.0 - 2 * bin_width

    def test_never_exceeds_two(self):
        ps = np.full(10**4, 100.0)  # clipped to the edge
        assert tv_vs_normal_histogram(ps).point_estimate <= 2.0

    def test_sphere_projection_within_bound(self):
        n = 100
        batch = sample(DistributionSpec(Kind.SPHERE_SHELL, n), 10**6, 13)
        ps = project(batch, np.eye(n)[0])
        est = tv_vs_normal_histogram(ps)
        assert est.point_estimate <= 8.0 / (n - 1) + 0.02

    def test_refining_bins_never_loses_mass(self):
        ps = gaussian_ps(10**5, 14)
        for bins in (20, 40, 80):
            coarse = tv_vs_normal_histogram(ps, bins=bins).point_estimate
            fine = tv_vs_normal_histogram(ps, bins=2 * bins).point_estimate
            assert fine >= coarse - 3 * math.sqrt(bins / 10**5)

    def test_needs_1e4_samples(self):
        with pytest.raises(InsufficientDataError):
            tv_vs_normal_histogram(np.zeros(9999))

    @pytest.mark.parametrize("nans", [1, 50_000])
    def test_nan_gives_nan(self, nans):
        # a NaN is counted in the grid's NaN bin, and the estimate is NaN,
        # as the Kolmogorov statistic's is
        values = gaussian_ps(10**5, 16)
        values[:nans] = np.nan
        assert math.isnan(tv_vs_normal_histogram(values).point_estimate)
        assert math.isnan(kolmogorov_vs_normal(values).point_estimate)


class TestConditionalSecondMoment:
    def test_sphere_matches_closed_form(self):
        # on the shell, E[X_2^2 | X_1] = (n - X_1^2)/(n-1) exactly, so the
        # statistic equals E|X_1^2 - 1|/(n-1)
        n = 10
        batch = sample(DistributionSpec(Kind.SPHERE_SHELL, n), 2 * 10**5, 15)
        est = conditional_second_moment(batch)
        x1 = batch.data[:, 0]
        direct = np.abs(x1**2 - 1.0).mean() / (n - 1)
        se = np.abs(x1**2 - 1.0).std() / math.sqrt(batch.N) / (n - 1)
        assert abs(est - direct) <= 2 * se + 0.05 * direct

    def test_ball_chain_inequality(self):
        # 4 * conditional statistic <= abs-deviation bound within noise
        n = 20
        batch = sample(DistributionSpec(Kind.BALL_UNIFORM, n), 2 * 10**5, 17)
        est = conditional_second_moment(batch)
        rowsq = np.einsum("ij,ij->i", batch.data, batch.data)
        abs_dev = np.abs(rowsq - n).mean()
        rhs = 4.0 * abs_dev / (n - 1) + 8.0 / (n - 1)
        assert 4.0 * est <= rhs + 0.01

    def test_refuses_non_spherical(self):
        batch = SampleBatch(
            data=np.random.default_rng(18).standard_normal((10**5, 4)),
            seed=18,
            spec=DistributionSpec(Kind.LP_BALL, 4, p=1.0),
        )
        with pytest.raises(ValueError):
            conditional_second_moment(batch)

    def test_needs_1e5_samples(self):
        batch = sample(DistributionSpec(Kind.SPHERE_SHELL, 4), 10**4, 19)
        with pytest.raises(InsufficientDataError):
            conditional_second_moment(batch)

    def test_nan_gives_nan(self):
        # a NaN X_1 falls in no bin: the bins hold fewer than N values
        batch = sample(DistributionSpec(Kind.SPHERE_SHELL, 4), 10**5, 19)
        batch.data[7, 0] = np.nan
        assert math.isnan(conditional_second_moment(batch))


class TestBinTotals:
    def test_equals_the_normal_quantile_reference(self):
        # ceil(N^(1/3)) bins [c_(j-1), c_j), c_j the grid edge nearest the
        # normal's j/B quantile
        x, y = gaussian_ps(10**5, 20), gaussian_ps(10**5, 21)
        bins = 47  # ceil(1e5^(1/3))
        at = np.digitize(x, snapped(ndtri(np.arange(1, bins) / bins)))
        totals = bin_totals(x, y, len(x))
        np.testing.assert_array_equal(totals[0], np.bincount(at, minlength=bins))
        np.testing.assert_allclose(totals[1], [y[at == j].sum() for j in range(bins)],
                                   rtol=1e-12, atol=1e-12)

    def test_each_edge_is_a_normal_quantile(self):
        # each edge is the grid edge nearest the j/B quantile, within half a
        # cell of it: a value on it counts in bin j, 1e-9 below it in j - 1
        for bins in (10, 47, 100):  # ceil(N^(1/3)) at N = bins^3
            quantiles = ndtri(np.arange(1, bins) / bins)
            edges = snapped(quantiles)
            assert np.abs(edges - quantiles).max() <= 2.0**-11
            on = bin_totals(edges, np.ones(bins - 1), bins**3)[0]
            below = bin_totals(edges - 1e-9, np.ones(bins - 1), bins**3)[0]
            np.testing.assert_array_equal(on, [0] + [1] * (bins - 1))
            np.testing.assert_array_equal(below, [1] * (bins - 1) + [0])

    def test_nan_is_in_no_bin(self):
        # a NaN x is dropped with its y: the other values' totals are unchanged
        x, y = gaussian_ps(10**4, 30), np.ones(10**4)
        x[[3, 9000]] = np.nan
        totals = bin_totals(x, y, len(x))
        assert totals[0].sum() == totals[1].sum() == len(x) - 2
        np.testing.assert_array_equal(totals, bin_totals(np.delete(x, [3, 9000]), y[2:], len(x)))

    def test_block_totals_sum_to_the_whole(self):
        x, y = gaussian_ps(70_001, 22), gaussian_ps(70_001, 23) ** 2
        whole = bin_totals(x, y, len(x))
        parts = sum(bin_totals(x[lo : lo + 4096], y[lo : lo + 4096], len(x))
                    for lo in range(0, len(x), 4096))
        np.testing.assert_array_equal(parts[0], whole[0])
        np.testing.assert_allclose(parts[1], whole[1], rtol=1e-12)


class TestNothingSortsAProjection:
    @pytest.fixture(autouse=True)
    def no_sort(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("sorted or searched a projection")

        for name in ("argsort", "sort", "partition", "searchsorted", "digitize", "histogram"):
            monkeypatch.setattr(np, name, refuse)

    @pytest.mark.parametrize("spec", [DistributionSpec(Kind.LP_BALL, 6, p=math.inf),
                                      DistributionSpec(Kind.SIMPLEX, 6)], ids=["cube", "simplex"])
    def test_reflection_pair(self, spec):
        thetas = [np.eye(6)[0], np.full(6, 6**-0.5)]
        reflection_pair_diagnostics(spec, thetas, 20_000, 24)

    def test_conditional_second_moment(self):
        conditional_second_moment(sample(DistributionSpec(Kind.SPHERE_SHELL, 6), 10**5, 26))

    def test_certify_grid(self):
        specs = [DistributionSpec(Kind.LP_BALL, 6, p=4.0), DistributionSpec(Kind.SPHERE_SHELL, 6)]
        certify_grid(specs, ["e1", "diagonal"], N=20_000, seed=27)

    @pytest.mark.parametrize("k", [1, 2])
    def test_estimate_ank(self, k):
        spec = DistributionSpec(Kind.LP_BALL, 6, p=4.0)
        estimate_Ank(spec, k=k, eps=0.1, n_subspaces=2, N=5000, seed=28, n_dirs=4)


class TestStreamingPairSquareCovariance:
    def test_holds_one_block_at_a_time(self):
        # a rows block would be 52 MB here; the pass holds a chunk of at
        # most CHUNK_VALUES values of rows, its projections onto e_1 and e_2
        # and a few chunk-long temporaries, never a block (a block of
        # projections beside a (CHUNK_ROWS, n) chunk took 4.5 MB here)
        spec = DistributionSpec(Kind.LINF_EXPONENTIAL, 100)
        n_samples = 200_000
        tracemalloc.start()
        try:
            streaming_pair_square_covariance(spec, n_samples, 44)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * (CHUNK_VALUES + 8 * CHUNK_ROWS), f"peak {peak / 1e6:.2f} MB"

