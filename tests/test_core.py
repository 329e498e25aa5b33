import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ndtr

from cltbounds.core import (
    BLOCK_ROWS,
    InsufficientDataError,
    as_unit_vector,
    lp_norm,
    merge_summaries,
    normal_cdf_points,
    summarize,
)
from cltbounds.samplers import SampleBatch


def normal_cdf(t):
    """Reference standard normal distribution function: scipy's ``ndtr``, on
    a scalar or an array.  It was ``core.normal_cdf``."""
    out = ndtr(t)
    return float(out) if np.ndim(t) == 0 else out


# high-precision reference values (30-digit erf evaluation)
PHI_ORACLE = {
    1.0: 0.841344746068542948585232545632,
    2.5: 0.993790334674223864833021895426,
    -0.7: 0.241963652223073028616210682314,
}


class TestLpNorm:
    def test_pythagorean(self):
        assert lp_norm([3.0, 4.0], 2.0) == pytest.approx(5.0, abs=1e-14)

    def test_sup_norm(self):
        assert lp_norm([1.0, 1.0, 1.0, 1.0], math.inf) == 1.0

    def test_cube_root(self):
        # (1^3 + 1^3 + 1^3)^(1/3), direct arithmetic
        assert lp_norm([1.0, 1.0, 1.0], 3.0) == pytest.approx(
            1.44224957030740838, rel=1e-14
        )

    def test_rejects_p_below_one(self):
        with pytest.raises(ValueError):
            lp_norm([1.0, 2.0], 0.5)
        with pytest.raises(ValueError):
            lp_norm([1.0, 2.0], math.nan)

    def test_overflow_safe(self):
        x = np.array([1e300, 1e300])
        assert math.isfinite(lp_norm(x, 4.0))
        assert lp_norm(x, 4.0) == pytest.approx(1e300 * 2 ** 0.25, rel=1e-12)

    def test_zero_vector(self):
        assert lp_norm([0.0, 0.0], 3.0) == 0.0

    @given(
        st.lists(st.floats(-1e6, 1e6), min_size=2, max_size=20),
        st.sampled_from([1.0, 2.0, 3.0, 4.0, math.inf]),
    )
    @settings(max_examples=200, deadline=None)
    def test_monotone_nonincreasing_in_p(self, coords, p):
        smaller_p = {2.0: 1.0, 3.0: 2.0, 4.0: 3.0, math.inf: 4.0}.get(p)
        if smaller_p is None:
            return
        assert lp_norm(coords, p) <= lp_norm(coords, smaller_p) * (1 + 1e-12) + 1e-12

    @given(st.integers(2, 40), st.integers(0, 2**32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_unit_vector_norm_inequalities(self, n, seed):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal(n)
        x /= np.linalg.norm(x)
        assert lp_norm(x, math.inf) >= n**-0.5 * (1 - 1e-12)
        assert lp_norm(x, 3.0) >= n ** (-1.0 / 6.0) * (1 - 1e-12)


class TestNormalCdf:
    def test_symmetry_point(self):
        assert normal_cdf(0.0) == pytest.approx(0.5, abs=1e-15)

    def test_tail(self):
        assert normal_cdf(8.0) > 1 - 1e-14

    def test_against_high_precision_erf(self):
        for t, expected in PHI_ORACLE.items():
            assert normal_cdf(t) == pytest.approx(expected, abs=1e-12)

    @given(st.floats(-8.0, 8.0))
    @settings(max_examples=300, deadline=None)
    def test_reflection_identity(self, t):
        assert normal_cdf(t) + normal_cdf(-t) == pytest.approx(1.0, abs=1e-14)


class TestNormalCdfPoints:
    def test_matches_ndtr(self):
        t = np.linspace(-40.0, 40.0, 80_001)
        np.testing.assert_allclose(normal_cdf_points(t), normal_cdf(t), rtol=0.0, atol=5e-16)

    @pytest.mark.parametrize("n_samples", [10**4, 2 * 10**5, 10**6])
    def test_matches_ndtr_on_histogram_edges(self, n_samples):
        # the edges tv_from_counts reads at its default bins: the count grid's
        # edges (multiples of 2^-10) nearest -6 + 12 j / B
        bins = math.ceil(n_samples ** (1.0 / 3.0))
        edges = np.rint(np.linspace(-6.0, 6.0, bins + 1) * 1024.0) / 1024.0
        np.testing.assert_allclose(
            normal_cdf_points(edges), normal_cdf(edges), rtol=0.0, atol=5e-16
        )

    def test_shapes(self):
        assert isinstance(normal_cdf_points(1.0), float)
        assert normal_cdf_points(1.0) == pytest.approx(PHI_ORACLE[1.0], abs=1e-15)
        assert normal_cdf_points(np.zeros((2, 3))).shape == (2, 3)


class TestVectors:
    def test_rejects_dimension_one(self):
        with pytest.raises(ValueError):
            as_unit_vector([1.0])

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            as_unit_vector([math.inf, 0.0])

    def test_rejects_non_unit(self):
        with pytest.raises(ValueError):
            as_unit_vector([1.0, 1.0])


class TestSummarize:
    def test_zero_batch(self):
        data = np.zeros((10, 3))
        s = summarize(data)
        assert s.max_fourth == 0.0
        assert s.norm_sq_var == 0.0
        assert s.abs_norm_dev_mean == pytest.approx(3.0)  # | 0 - n |

    def test_two_point_hand_computation(self):
        data = np.array([[1.0, 0.0], [-1.0, 0.0]])
        s = summarize(data)
        assert s.second[0] == pytest.approx(1.0)
        assert s.fourth[0] == pytest.approx(1.0)
        assert s.norm_sq_var == pytest.approx(0.0)
        assert s.abs_norm_dev_mean == pytest.approx(1.0)  # ||X||^2 = 1, n = 2

    def test_insufficient_data(self):
        with pytest.raises(InsufficientDataError):
            summarize(np.ones((1, 3)))

    def test_uniform_fourth_moment(self):
        # E X^4 = 9/5 for a coordinate uniform on [-sqrt(3), sqrt(3)]
        rng = np.random.default_rng(7)
        n_samples = 10**6
        data = rng.uniform(-math.sqrt(3), math.sqrt(3), (n_samples, 2))
        s = summarize(data)
        se = math.sqrt((data[:, 0] ** 4).var() / n_samples)
        assert abs(s.fourth[0] - 1.8) < 5 * se

    def test_jensen_per_coordinate(self):
        rng = np.random.default_rng(3)
        s = summarize(rng.standard_normal((5000, 6)))
        assert np.all(s.fourth >= s.second**2 - 1e-12)

    def test_max_sq_cov_matches_direct(self):
        rng = np.random.default_rng(11)
        data = rng.standard_normal((4000, 5))
        data[:, 3] = data[:, 2] + 0.5 * rng.standard_normal(4000)  # correlated pair
        s = summarize(data)
        sq = data**2
        covs = np.cov(sq.T, bias=True)
        np.fill_diagonal(covs, -np.inf)
        i, j = np.unravel_index(np.argmax(covs), covs.shape)
        assert s.max_sq_cov == pytest.approx(covs[i, j], rel=1e-9)
        assert set(s.max_sq_cov_pair) == {i, j}

    def test_weighted_batch_matches_np_average(self):
        # a batch that carries weights (lp surface measure) gives weighted means
        rng = np.random.default_rng(13)
        data = rng.standard_normal((3 * BLOCK_ROWS + 11, 3))
        weights = rng.uniform(0.5, 2.0, len(data))
        weights /= weights.sum()
        s = summarize(SampleBatch(data=data, seed=0, weights=weights))
        sq = data**2
        rowsq = sq.sum(axis=1)

        def average(x):
            return np.average(x, axis=0, weights=weights)

        np.testing.assert_allclose(s.second, average(sq), rtol=1e-12)
        np.testing.assert_allclose(s.third_abs, average(sq * np.abs(data)), rtol=1e-12)
        np.testing.assert_allclose(s.fourth, average(sq * sq), rtol=1e-12)
        np.testing.assert_allclose(
            s.sq_pair, average(sq[:, :, None] * sq[:, None, :]), rtol=1e-12
        )
        assert s.norm_sq_mean == pytest.approx(average(rowsq), rel=1e-12)
        assert s.norm_sq_sq_mean == pytest.approx(average(rowsq**2), rel=1e-12)
        assert s.abs_norm_dev_mean == pytest.approx(average(np.abs(rowsq - 3)), rel=1e-12)
        assert s.count == len(data)

    def test_merge_equals_concatenation(self):
        rng = np.random.default_rng(5)
        a = rng.standard_normal((3001, 4))
        b = rng.standard_normal((997, 4))
        merged = merge_summaries(summarize(a), summarize(b))
        direct = summarize(np.vstack([a, b]))
        assert merged.count == direct.count
        np.testing.assert_allclose(merged.second, direct.second, rtol=1e-9)
        np.testing.assert_allclose(merged.fourth, direct.fourth, rtol=1e-9)
        np.testing.assert_allclose(merged.sq_pair, direct.sq_pair, rtol=1e-9)
        assert merged.norm_sq_var == pytest.approx(direct.norm_sq_var, rel=1e-9)
        assert merged.abs_norm_dev_mean == pytest.approx(direct.abs_norm_dev_mean, rel=1e-9)

    @given(st.integers(0, 2**32 - 1), st.integers(2, 6), st.integers(2, 50), st.integers(2, 50), st.integers(2, 50))
    @settings(max_examples=25, deadline=None)
    def test_merge_associativity(self, seed, n, na, nb, nc):
        rng = np.random.default_rng(seed)
        parts = [rng.standard_normal((count, n)) for count in (na, nb, nc)]
        sa, sb, sc = (summarize(p) for p in parts)
        left = merge_summaries(merge_summaries(sa, sb), sc)
        right = merge_summaries(sa, merge_summaries(sb, sc))
        np.testing.assert_allclose(left.fourth, right.fourth, rtol=1e-9)
        np.testing.assert_allclose(left.sq_pair, right.sq_pair, rtol=1e-9)
        assert left.norm_sq_mean == pytest.approx(right.norm_sq_mean, rel=1e-12)
