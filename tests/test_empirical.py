import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scipy.special import ndtr, ndtri

from cltbounds.core import CHUNK_ROWS, InsufficientDataError, normal_cdf_points
from cltbounds.empirical import (
    _GAP_ROWS,
    _approximate_gaps,
    _ks_statistic,
    conditional_second_moment,
    dkw_slack,
    kolmogorov_vs_normal,
    project,
    streaming_pair_square_covariance,
    tv_vs_normal_histogram,
)
from cltbounds.exact import DistributionSpec, Kind
from cltbounds.samplers import BLOCK_ROWS, SampleBatch, sample


def normal_cdf(t):
    """Reference standard normal distribution function on an array: scipy's
    ``ndtr``.  It was ``core.normal_cdf``."""
    return ndtr(t)


def gaussian_ps(n_samples, seed):
    rng = np.random.default_rng(seed)
    return rng.standard_normal(n_samples)


def _sup_gap(cdf, cum, jump):
    """sup_t |F_N(t) - Phi(t)| from Phi at the order statistics, F_N just
    after each of them and its jumps there: both one-sided gaps."""
    return float(np.maximum(cum - cdf, cdf - (cum - jump)).max())


def brute_force_ks(values, cdf):
    """Both one-sided gaps at every order statistic, with ``cdf`` for Phi at
    every point."""
    x = np.sort(values)
    return _sup_gap(cdf(x), np.arange(1, len(x) + 1) / len(x), 1.0 / len(x))


def hastings_cdf(x):
    """The kernel's approximate Phi at the sorted points ``x``, read back from
    its gaps: F_N just after each point minus its gap."""
    n, zero = len(x), int(np.searchsorted(x, 0.0))
    bufs = tuple(np.empty(_GAP_ROWS) for _ in range(2))
    cdf = []
    for lo in range(0, n, _GAP_ROWS):
        gaps = _approximate_gaps(x[lo : lo + _GAP_ROWS], lo, n, zero, bufs)
        cdf.append(np.arange(lo + 1, lo + 1 + len(gaps)) / n - gaps)
    return np.concatenate(cdf)


def _normal(n):
    return lambda rng: 0.9 * rng.standard_normal(n)


def _with_infinities(rng):
    values = rng.standard_normal(5000)
    values[[3, 70, 900, 4000, 4999]] = [np.inf, -np.inf, np.inf, 1e200, -1e300]
    return values


# the Kolmogorov kernel's inputs beside plain normal samples: across a step
# boundary, tied, constant, heavy-tailed past |x| = 38 where Phi leaves
# (0, 1), and infinite
KS_INPUTS = {
    **{f"normal-{n}": _normal(n) for n in (100, 8191, 8192, 8193)},
    "ties": lambda rng: np.round(rng.standard_normal(20_000), 1),
    "all-equal": lambda rng: np.full(_GAP_ROWS + 7, -0.3),
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
        # the gaps of -W at order statistic n + 1 - i are those of W at i
        values = np.random.default_rng(13).standard_normal(3001) * 1.1 + 0.05
        if ties:
            values = np.round(values, 1)  # about 60 distinct values
        assert _ks_statistic(-values) == pytest.approx(
            _ks_statistic(values), rel=0.0, abs=1e-15
        )

    @pytest.mark.parametrize("n_samples", [100, 3001, 70_000])
    def test_fused_equals_two_sided_gap(self, n_samples):
        # the refined maximum is the gap with the program's Phi at every point
        values = np.random.default_rng(n_samples).standard_normal(n_samples) * 0.9
        reference = brute_force_ks(values, normal_cdf_points)
        kept = values.copy()
        assert _ks_statistic(values) == reference
        np.testing.assert_array_equal(values, kept)  # a copy was sorted
        assert _ks_statistic(values, overwrite=True) == reference

    @pytest.mark.parametrize("inputs", sorted(KS_INPUTS))
    def test_equals_the_gap_with_exact_phi(self, inputs):
        values = KS_INPUTS[inputs](np.random.default_rng(17))
        if inputs == "cauchy":
            assert np.abs(values).max() > 38.0
        statistic = _ks_statistic(values)
        assert statistic == brute_force_ks(values, normal_cdf_points)
        assert statistic == pytest.approx(brute_force_ks(values, ndtr), rel=0.0, abs=4.4e-16)

    def test_quantile_grid_refines_every_point(self):
        # Phi(x_i) = (i - 1/2) / N: every gap is 1/(2N), so every point lies
        # within the Hastings slack of the maximum and is refined, in one
        # normal_cdf_points call (about 0.05 s at N = 2e5 on a 2-vCPU VM)
        n_samples = 200_000
        values = ndtri((np.arange(1, n_samples + 1) - 0.5) / n_samples)
        statistic = _ks_statistic(values)
        assert statistic == brute_force_ks(values, normal_cdf_points)
        assert statistic == pytest.approx(0.5 / n_samples, rel=0.0, abs=4.4e-16)

    @pytest.mark.parametrize("at", [0, 57, 8191, 8192, 19_999])
    def test_nan_gives_nan(self, at):
        values = np.random.default_rng(at).standard_normal(20_000)
        values[at] = np.nan
        assert math.isnan(_ks_statistic(values))
        assert math.isnan(kolmogorov_vs_normal(values).point_estimate)

    def test_hastings_phi_within_its_bound(self):
        # Abramowitz and Stegun 7.1.26: |erf error| <= 1.5e-7, so Phi within 7.5e-8
        grid = np.linspace(-40.0, 40.0, 800_001)
        error = np.abs(hastings_cdf(grid) - normal_cdf_points(grid)).max()
        assert error <= 7.5e-8

    def test_holds_its_gap_buffers_only(self):
        # two _GAP_ROWS buffers beside the sorted array: no N-length temporary
        values = np.random.default_rng(18).standard_normal(200_000)
        _ks_statistic(values[:1000])  # first-call setup
        tracemalloc.start()
        try:
            _ks_statistic(values, overwrite=True)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 3 * 8 * _GAP_ROWS, f"peak {peak / 1e3:.0f} kB"

    def test_exact_supremum_against_brute_force(self):
        rng = np.random.default_rng(11)
        values = rng.standard_normal(500)
        est = kolmogorov_vs_normal(values)
        # brute force on a fine grid plus both sides of every jump point
        grid = np.concatenate([np.linspace(-5, 5, 200001), values, values - 1e-9])
        ecdf = np.searchsorted(np.sort(values), grid, side="right") / len(values)
        brute = np.abs(ecdf - normal_cdf(grid)).max()
        assert est.point_estimate == pytest.approx(brute, abs=1e-8)

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


class TestTvHistogram:
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


class TestStreamingPairSquareCovariance:
    def test_holds_one_block_at_a_time(self):
        # a rows block would be 52 MB here; the pass holds a block of the
        # projections onto e_1 and e_2 and the (CHUNK_ROWS, n) chunk they are
        # drawn from, freed before the next block is filled
        spec = DistributionSpec(Kind.LINF_EXPONENTIAL, 100)
        n_samples = 200_000
        tracemalloc.start()
        try:
            streaming_pair_square_covariance(spec, n_samples, 44)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * (2 * CHUNK_ROWS * spec.n + 4 * BLOCK_ROWS), f"peak {peak / 1e6:.1f} MB"

