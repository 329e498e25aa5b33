import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cltbounds.core import CHUNK_ROWS, InsufficientDataError, _ndtr
from cltbounds.empirical import (
    _ks_statistic,
    conditional_second_moment,
    dkw_slack,
    kolmogorov_vs_normal,
    project,
    streaming_pair_square_covariance,
    tv_vs_normal_histogram,
)
from cltbounds.samplers import (
    BLOCK_ROWS,
    DistributionSpec,
    Kind,
    SampleBatch,
    sample,
)


def normal_cdf(t):
    """Reference standard normal distribution function on an array: scipy's
    ``ndtr`` (``core._ndtr``).  It was ``core.normal_cdf``."""
    return _ndtr()(t)


def gaussian_ps(n_samples, seed):
    rng = np.random.default_rng(seed)
    return rng.standard_normal(n_samples)


def _sup_gap(cdf, cum, jump):
    """sup_t |F_N(t) - Phi(t)| from Phi at the order statistics, F_N just
    after each of them and its jumps there: both one-sided gaps."""
    return float(np.maximum(cum - cdf, cdf - (cum - jump)).max())


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
        values = np.random.default_rng(n_samples).standard_normal(n_samples) * 0.9
        steps = np.arange(1, n_samples + 1) / n_samples
        reference = _sup_gap(normal_cdf(np.sort(values)), steps, 1.0 / n_samples)
        kept = values.copy()
        assert _ks_statistic(values) == reference
        np.testing.assert_array_equal(values, kept)  # a copy was sorted
        assert _ks_statistic(values, overwrite=True) == reference

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

