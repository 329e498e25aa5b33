import dataclasses
import functools
import math
from collections import Counter

import numpy as np
import pytest
from scipy import integrate, optimize
from scipy.special import ndtr
from scipy.stats import binom

from conftest import brute_force_ks

from cltbounds import exact as exact_module
from cltbounds.bounds import (
    BoundInputs,
    DensePairMoments,
    FLAG_RADICAND_CLAMPED,
    KOLMOGOROV,
    SimplexPairMoments,
    TOTAL_VARIATION,
    VARIANT_ABS_DEVIATION,
    VARIANT_CONDITIONAL_L1,
    VARIANT_STD_DEV,
    bound_frame_bounded,
    bound_frame_general,
    bound_poincare,
    bound_simplex,
    bound_sncp_bounded,
    bound_sph_symm,
    bound_unconditional,
    bound_unconditional_bounded,
)
from cltbounds.certify import _gating_bound, applicable_route, resolve_theta
from cltbounds.empirical import dkw_slack
from cltbounds.exact import (
    D_K,
    EXACT_LAWS,
    EXACT_MARGINAL_MAX_N,
    DistributionSpec,
    Kind,
    exact_kolmogorov,
    exact_projection_density,
    exact_tv_vs_normal,
    simplex_Y_moment,
    simplex_pair_moment,
)
from cltbounds.frames import simplex_geometry
from cltbounds.samplers import _ziggurat, sample_projections
from cltbounds.subspaces import random_subspace

CUBE_FOURTH = 1.8
CUBE_THIRD_ABS = 1.29903810567665797  # 9/(4 sqrt 3)


def iid_pair_table(n, fourth, cross=1.0):
    table = np.full((n, n), cross)
    np.fill_diagonal(table, fourth)
    return table


def e1(n):
    out = np.zeros(n)
    out[0] = 1.0
    return out


class TestFrameGeneral:
    def test_cube_e1(self):
        n = 10
        inputs = BoundInputs(
            n=n,
            m=n,
            theta_coeffs=e1(n),
            pair_moments=iid_pair_table(n, CUBE_FOURTH),
            third_abs_max=CUBE_THIRD_ABS,
        )
        # 2 sqrt(0.8) + (8/pi)^(1/4) sqrt(9/(4 sqrt 3)), 30-digit arithmetic
        assert bound_frame_general(inputs).value == pytest.approx(
            3.22863384317713751, rel=1e-12
        )

    def test_cube_diagonal_n100(self):
        n = 100
        inputs = BoundInputs(
            n=n,
            m=n,
            theta_coeffs=np.full(n, n**-0.5),
            pair_moments=iid_pair_table(n, CUBE_FOURTH),
            third_abs_max=CUBE_THIRD_ABS,
        )
        assert bound_frame_general(inputs).value == pytest.approx(
            0.634183680765009213, rel=1e-12
        )

    def test_unit_pair_moments_kill_first_term(self):
        # E[X_(i)^2 X_(j)^2] = 1 for all pairs: Parseval cancels the prefactor
        n = 7
        rng = np.random.default_rng(0)
        theta = rng.standard_normal(n)
        theta /= np.linalg.norm(theta)
        inputs = BoundInputs(
            n=n, m=n, theta_coeffs=theta,
            pair_moments=np.ones((n, n)), third_abs_max=0.0,
        )
        assert bound_frame_general(inputs).value == pytest.approx(0.0, abs=1e-7)

    def test_negative_radicand_clamps_with_flag(self):
        n = 4
        inputs = BoundInputs(
            n=n, m=n, theta_coeffs=e1(n),
            pair_moments=iid_pair_table(n, 0.9),  # sub-Gaussian noise artifact
            third_abs_max=1.0,
        )
        bv = bound_frame_general(inputs)
        assert FLAG_RADICAND_CLAMPED in bv.flags
        assert bv.value == pytest.approx((8 / math.pi) ** 0.25, rel=1e-12)

    def test_parseval_precondition_enforced(self):
        with pytest.raises(ValueError):
            BoundInputs(n=4, m=4, theta_coeffs=np.full(4, 0.9),
                        pair_moments=np.ones((4, 4)))

    def test_requires_third_moment(self):
        inputs = BoundInputs(n=2, m=2, theta_coeffs=e1(2), pair_moments=np.ones((2, 2)))
        with pytest.raises(ValueError):
            bound_frame_general(inputs)

    @pytest.mark.parametrize(
        "table, message",
        [
            (np.array([[1.8, 1.0, 1.0], [0.5, 1.8, 1.0], [1.0, 1.0, 1.8]]), "symmetric"),
            (iid_pair_table(3, 1.8, cross=-0.1), "nonnegative"),
            (np.ones((3, 2)), "square"),
            (iid_pair_table(3, math.nan), "finite"),
            (np.ones((4, 4)), "cover 4 frame vectors, expected 3"),
        ],
        ids=["asymmetric", "negative", "not-square", "nan", "wrong-size"],
    )
    def test_pair_table_checked_at_construction(self, table, message):
        # a raw table is checked and wrapped once, when the inputs are built
        with pytest.raises(ValueError, match=message):
            BoundInputs(n=3, m=3, theta_coeffs=e1(3), pair_moments=table,
                        third_abs_max=CUBE_THIRD_ABS)

    def test_raw_table_wrapped_once(self):
        inputs = BoundInputs(n=3, m=3, theta_coeffs=e1(3), pair_moments=iid_pair_table(3, 1.8))
        assert isinstance(inputs.pair_moments, DensePairMoments)


class TestFrameBounded:
    def test_cube_diagonal_second_term(self):
        # n = 64 keeps n^(-1/2) exact in binary, so the radicand is exactly 0
        # and only 172 n a^3 max|theta|^3 remains: 21.5 * 3 sqrt(3)
        n = 64
        inputs = BoundInputs(
            n=n, m=n, theta_coeffs=np.full(n, n**-0.5),
            pair_moments=np.ones((n, n)), sup_bound=math.sqrt(3),
        )
        assert bound_frame_bounded(inputs).value == pytest.approx(
            111.717277088192585, rel=1e-12
        )

    def test_second_term_magnitude_n100(self):
        n = 100
        inputs = BoundInputs(
            n=n, m=n, theta_coeffs=np.full(n, n**-0.5),
            pair_moments=np.ones((n, n)), sup_bound=math.sqrt(3),
        )
        # roundoff in sum theta^2 leaks ~1e-7 through the radicand square root
        assert bound_frame_bounded(inputs).value == pytest.approx(
            89.3738216705540683, abs=1e-5
        )

    def test_monotone_in_sup_bound(self):
        n = 5
        values = []
        for a in (1.0, 1.5, 2.0):
            inputs = BoundInputs(
                n=n, m=n, theta_coeffs=e1(n),
                pair_moments=iid_pair_table(n, 2.0), sup_bound=a,
            )
            values.append(bound_frame_bounded(inputs).value)
        assert values[0] < values[1] < values[2]


class TestUnconditional:
    def test_cube_e1(self):
        theta = e1(6)
        bv = bound_unconditional(theta, CUBE_FOURTH, 0.0, CUBE_THIRD_ABS)
        assert bv.value == pytest.approx(4.12306103417705339, rel=1e-12)
        assert bv.kind == KOLMOGOROV

    def test_diagonal_norms(self):
        # ||theta||_4^4 = 1/n and ||theta||_3^(3/2) = n^(-1/4)
        n = 100
        theta = np.full(n, n**-0.5)
        bv = bound_unconditional(theta, CUBE_FOURTH, 0.0, CUBE_THIRD_ABS)
        assert bv.value == pytest.approx(0.723626399865000801, rel=1e-12)

    def test_negative_cov_clamps(self):
        theta = np.full(4, 0.5)
        bv = bound_unconditional(theta, 0.5 / theta.size * 16, -1.0, 1.0)
        # maxEX4 * ||theta||_4^4 = 0.5, cov = -1 -> clamp to 0; only second term
        assert FLAG_RADICAND_CLAMPED in bv.flags
        assert bv.value == pytest.approx(
            (8 / math.pi) ** 0.25 * (4 * 0.5**3) ** 0.5, rel=1e-12
        )

    def test_vanishes_for_diagonal_large_n(self):
        values = [
            bound_unconditional(np.full(n, n**-0.5), CUBE_FOURTH, 0.0, CUBE_THIRD_ABS).value
            for n in (10, 100, 1000, 10000)
        ]
        assert values == sorted(values, reverse=True)
        assert values[-1] < 0.25

    def test_rejects_non_unit_theta(self):
        with pytest.raises(ValueError):
            bound_unconditional(np.array([1.0, 1.0]), 1.0, 0.0, 1.0)

    def test_bounded_variant(self):
        n = 100
        theta = np.full(n, n**-0.5)
        bv = bound_unconditional_bounded(theta, CUBE_FOURTH, 0.0, math.sqrt(3))
        expected = 24 * math.sqrt(1.8 / 100) + 89.3738216705540683
        assert bv.value == pytest.approx(expected, rel=1e-12)

    def test_dominates_frame_general_with_exact_moments(self):
        # the coordinatewise form upper-bounds the frame form on the same moments
        rng = np.random.default_rng(4)
        n = 12
        table = iid_pair_table(n, CUBE_FOURTH)
        for _ in range(25):
            theta = rng.standard_normal(n)
            theta /= np.linalg.norm(theta)
            frame_value = bound_frame_general(
                BoundInputs(n=n, m=n, theta_coeffs=theta, pair_moments=table,
                            third_abs_max=CUBE_THIRD_ABS)
            ).value
            uncon_value = bound_unconditional(theta, CUBE_FOURTH, 0.0, CUBE_THIRD_ABS).value
            assert uncon_value >= frame_value - 1e-12


class TestSncpBounded:
    def test_diagonal_n100(self):
        theta = np.full(100, 0.1)
        assert bound_sncp_bounded(theta, math.sqrt(3)).value == pytest.approx(
            101.844587485049985, rel=1e-12
        )

    def test_e1_vacuous(self):
        n = 8
        assert bound_sncp_bounded(e1(n), 1.0).value == pytest.approx(196.0 * n)

    def test_best_case_scaling(self):
        # minimum of ||theta||_inf over the sphere is n^(-1/2)
        for n in (16, 64, 256):
            theta = np.full(n, n**-0.5)
            assert bound_sncp_bounded(theta, 1.0).value == pytest.approx(
                196.0 / math.sqrt(n), rel=1e-12
            )

    def test_rejects_a_below_one(self):
        with pytest.raises(ValueError):
            bound_sncp_bounded(e1(4), 0.9)

    def test_cubic_scale_covariance(self):
        theta = np.full(16, 0.25)
        base = bound_sncp_bounded(theta, 1.0).value
        for a in (1.5, 2.0, 3.0):
            assert bound_sncp_bounded(theta, a).value == pytest.approx(
                a**3 * base, rel=1e-12
            )


class TestSimplexMoments:
    def test_second_moment_n2(self):
        assert simplex_Y_moment(2, [2]) == pytest.approx(2.0, rel=1e-13)

    def test_first_moment_n2(self):
        assert simplex_Y_moment(2, [1]) == pytest.approx(1.15470053837925153, rel=1e-13)

    def test_zeroth_moment(self):
        assert simplex_Y_moment(5, []) == 1.0
        assert simplex_Y_moment(5, [0, 0, 0]) == 1.0

    def test_large_n_log_gamma(self):
        # 30-digit reference for n=500, r=(4,2,1,1)
        assert simplex_Y_moment(500, [4, 2, 1, 1]) == pytest.approx(
            45.7671088310159084, rel=1e-12
        )

    def test_very_large_n_against_mpmath(self):
        # a difference of log-Gammas near n loses 2.4e-10 relative at n = 1e5
        mpmath = pytest.importorskip("mpmath")
        mpmath.mp.dps = 40
        for n, r in [(10**5, [4, 2, 1, 1]), (10**6, [2, 2]), (10**7, [3, 1, 0, 5])]:
            t = sum(r)
            exact = mpmath.exp(
                t * mpmath.log((n + 1) * (n + 2)) / 2 + mpmath.loggamma(n + 1)
                - mpmath.loggamma(n + t + 1) + sum(mpmath.loggamma(k + 1) for k in r)
            )
            assert simplex_Y_moment(n, r) == pytest.approx(float(exact), rel=1e-13)

    def test_rejects_bad_exponents(self):
        with pytest.raises(ValueError):
            simplex_Y_moment(2, [1, 1, 1, 1])
        with pytest.raises(ValueError):
            simplex_Y_moment(2, [-1, 0])

    def test_pair_moment_values(self):
        assert simplex_pair_moment(2, (0, 1), (1, 0)) == pytest.approx(2.4, rel=1e-13)
        assert simplex_pair_moment(10, (0, 1), (2, 3)) == pytest.approx(
            0.725274725274725275, rel=1e-13
        )

    def test_overlap_one_is_three_times_overlap_zero(self):
        for n in (3, 10, 57):
            ov0 = simplex_pair_moment(n, (0, 1), (2, 3))
            ov1 = simplex_pair_moment(n, (0, 1), (1, 2))
            assert ov1 == pytest.approx(3.0 * ov0, rel=1e-13)

    def test_overlap_two_normalized_increases_to_one(self):
        values = [simplex_pair_moment(n, (0, 1), (0, 1)) / 6.0 for n in range(2, 200)]
        assert all(b > a for a, b in zip(values, values[1:]))
        assert values[-1] < 1.0

    def test_rejects_degenerate_pairs(self):
        with pytest.raises(ValueError):
            simplex_pair_moment(4, (1, 1), (0, 2))
        with pytest.raises(ValueError):
            simplex_pair_moment(4, (0, 1), (0, 9))

    @pytest.mark.parametrize("n,pair_b", [(5, (2, 3)), (5, (1, 2)), (5, (0, 1)), (5, (1, 0)), (2, (1, 2)), (2, (0, 1))])
    def test_pair_moment_consistent_with_joint_moments(self, n, pair_b):
        # expand E[(Y_i - Y_j)^2 (Y_k - Y_l)^2] / 4 through the joint-moment formula
        i, j = 0, 1
        k, l = pair_b
        total = 0.0
        for a, sa in (((i,), 1.0), ((j,), -1.0)):
            for b, sb in (((i,), 1.0), ((j,), -1.0)):
                for c, sc in (((k,), 1.0), ((l,), -1.0)):
                    for d, sd in (((k,), 1.0), ((l,), -1.0)):
                        exponents = Counter(a + b + c + d)
                        r = [0] * (n + 1)
                        for idx, count in exponents.items():
                            r[idx] = count
                        total += sa * sb * sc * sd * simplex_Y_moment(n, r)
        expected = total / 4.0
        assert simplex_pair_moment(n, (i, j), (k, l)) == pytest.approx(expected, rel=1e-12)


class TestSimplexPairMomentsReduction:
    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_matches_dense_table(self, n):
        geom = simplex_geometry(n)
        pairs = geom.edge_pairs
        m = len(pairs)
        table = np.array(
            [
                [simplex_pair_moment(n, tuple(pairs[a]), tuple(pairs[b])) for b in range(m)]
                for a in range(m)
            ]
        )
        rng = np.random.default_rng(n)
        for _ in range(5):
            theta = rng.standard_normal(n)
            theta /= np.linalg.norm(theta)
            q = (theta @ geom.edge_frame.vectors.T) ** 2
            fast = SimplexPairMoments(n, pairs).quadratic_form(q)
            dense = DensePairMoments(table).quadratic_form(q)
            assert fast == pytest.approx(dense, rel=1e-12)


class TestBoundSimplex:
    def test_vertex_parseval_self_check(self):
        for n in (2, 7, 31):
            geom = simplex_geometry(n)
            rng = np.random.default_rng(n)
            theta = rng.standard_normal(n)
            theta /= np.linalg.norm(theta)
            t = geom.vertices @ theta
            assert float(t @ t) == pytest.approx((n + 1) / n, rel=1e-12)

    @pytest.mark.parametrize("n", [2, 3, 5, 10, 50])
    def test_assembled_dominates_exact_frame_evaluation(self, n):
        # the assembled corollary-form constant must upper-bound the exact
        # frame-bound evaluation it was folded from
        geom = simplex_geometry(n)
        third_bound = 3 * math.sqrt(2) * math.sqrt((n + 1) * (n + 2)) / (n + 3)
        rng = np.random.default_rng(n + 1)
        for _ in range(10):
            theta = rng.standard_normal(n)
            theta /= np.linalg.norm(theta)
            coeffs = theta @ geom.edge_frame.vectors.T
            exact = bound_frame_general(
                BoundInputs(
                    n=n,
                    m=geom.m,
                    theta_coeffs=coeffs,
                    pair_moments=SimplexPairMoments(n, geom.edge_pairs),
                    third_abs_max=third_bound,
                )
            ).value
            assembled = bound_simplex(theta).value
            assert assembled >= exact - 1e-12

    def test_random_theta_quarter_power_decay(self):
        # median assembled value over random directions decays like n^(-1/4)
        rng = np.random.default_rng(123)
        ns = [16, 64, 256]
        medians = []
        for n in ns:
            vals = []
            for _ in range(40):
                theta = rng.standard_normal(n)
                theta /= np.linalg.norm(theta)
                vals.append(bound_simplex(theta).value)
            medians.append(np.median(vals))
        slope = np.polyfit(np.log(ns), np.log(medians), 1)[0]
        assert slope == pytest.approx(-0.25, abs=0.08)


class TestSphSymm:
    def test_sphere_zero_variance(self):
        bv = bound_sph_symm(100, VARIANT_STD_DEV, 0.0)
        assert bv.value == pytest.approx(8.0 / 99.0, rel=1e-14)
        assert bv.kind == TOTAL_VARIATION

    def test_ball_exact_variance(self):
        stat = math.sqrt(4 * 100 / 104)
        assert bound_sph_symm(100, VARIANT_STD_DEV, stat).value == pytest.approx(
            0.160046923288155164, rel=1e-12
        )

    def test_exponential_exact_variance(self):
        stat = math.sqrt(100 * 406 / 101)
        assert stat == pytest.approx(20.0494438331790635, rel=1e-12)
        assert bound_sph_symm(100, VARIANT_STD_DEV, stat).value == pytest.approx(
            0.890886619522386405, rel=1e-12
        )

    def test_conditional_variant(self):
        assert bound_sph_symm(10, VARIANT_CONDITIONAL_L1, 0.05).value == pytest.approx(0.2)

    def test_abs_deviation_variant(self):
        assert bound_sph_symm(11, VARIANT_ABS_DEVIATION, 2.5).value == pytest.approx(
            (4 * 2.5 + 8) / 10
        )

    def test_rejects_negative_statistic(self):
        with pytest.raises(ValueError):
            bound_sph_symm(10, VARIANT_STD_DEV, -0.1)

    def test_rejects_unknown_variant(self):
        with pytest.raises(ValueError):
            bound_sph_symm(10, "nope", 0.1)


class TestPoincare:
    def test_unit_gap_n100(self):
        assert bound_poincare(100, 1.0).value == pytest.approx(1.0, rel=1e-14)

    def test_gap_one_thirteenth(self):
        assert bound_poincare(2600, 1.0 / 13.0).value == pytest.approx(
            0.707106781186547524, rel=1e-12
        )
        # same formula as 10 sqrt(13)/sqrt(n)
        for n in (26, 100, 400):
            assert bound_poincare(n, 1.0 / 13.0).value == pytest.approx(
                10 * math.sqrt(13) / math.sqrt(n), rel=1e-12
            )

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            bound_poincare(25, 1.0)
        with pytest.raises(ValueError):
            bound_poincare(100, 1.3)
        with pytest.raises(ValueError):
            bound_poincare(100, 0.0)


class TestExactDensity:
    @pytest.mark.parametrize("kind", ["sphere_shell", "ball_uniform"])
    @pytest.mark.parametrize("n", [3, 10, 100])
    def test_normalization(self, kind, n):
        radius = math.sqrt(n if kind == "sphere_shell" else n + 2)
        val, _ = integrate.quad(
            lambda t: exact_projection_density(kind, n, t),
            -radius, radius, points=[0.0], limit=400, epsabs=1e-13,
        )
        assert val == pytest.approx(1.0, abs=1e-10)

    def test_sphere_n3_uniform(self):
        # exponent (n-3)/2 vanishes: flat density 1/(2 sqrt 3) on |t| <= sqrt 3
        for t in (0.0, 0.5, -1.2, 1.7):
            assert exact_projection_density("sphere_shell", 3, t) == pytest.approx(
                0.288675134594812882, rel=1e-12
            )

    def test_outside_support_is_zero(self):
        assert exact_projection_density("sphere_shell", 9, 4.0) == 0.0
        assert exact_projection_density("ball_uniform", 9, -4.0) == 0.0

    def test_sphere_requires_n3(self):
        with pytest.raises(ValueError):
            exact_projection_density("sphere_shell", 2, 0.0)

    @pytest.mark.parametrize("kind", ["sphere_shell", "ball_uniform"])
    @pytest.mark.parametrize("n", [10**2, 10**3, 10**4, 10**5, 10**6])
    def test_mass_is_one_at_large_n(self, kind, n):
        # a log normalizer taken as the difference of two log-Gammas near
        # n/2 was off by 5e-10 at n = 1e6, and the mass with it
        reach = min(math.sqrt(exact_module._marginal_params(kind, n)[0]), 40.0)
        t, half, w = exact_module._panel_rule(np.array([-reach, 0.0, reach]), 400)
        mass = float((half * (exact_projection_density(kind, n, t) @ w)).sum())
        assert mass == pytest.approx(1.0, abs=1e-13)

    def test_log_gamma_ratio_against_mpmath(self):
        mpmath = pytest.importorskip("mpmath")
        mpmath.mp.dps = 50
        for m in [*range(3, 120), 10**3, 10**4 + 1, 10**5, 10**6 + 1, 10**6 + 2]:
            exact = mpmath.loggamma(mpmath.mpf(m) / 2) - mpmath.loggamma(mpmath.mpf(m - 1) / 2)
            assert exact_module._log_gamma_ratio(m) == pytest.approx(float(exact), abs=1e-14)


def scalar_crossing_tv(kind, n):
    """Reference total variation by scipy's adaptive quadrature: crossings
    bracketed one grid point at a time and refined by brentq, each one-signed
    piece integrated by quad in t."""
    radius = math.sqrt(n if kind == "sphere_shell" else n + 2)

    def diff(t):
        f = exact_projection_density(kind, n, t)
        return float(f) - math.exp(-0.5 * t * t) / math.sqrt(2.0 * math.pi)

    grid = np.linspace(0.0, radius, 4097)
    vals = np.array([diff(t) for t in grid])
    roots = []
    for a, b, va, vb in zip(grid[:-1], grid[1:], vals[:-1], vals[1:]):
        if va == 0.0:
            roots.append(float(a))
        elif va * vb < 0.0:
            roots.append(float(optimize.brentq(diff, a, b, xtol=1e-14)))
    pieces = [0.0, *roots, radius]
    half_l1 = 0.0
    for a, b in zip(pieces[:-1], pieces[1:]):
        piece, _ = integrate.quad(diff, a, b, epsabs=1e-12, limit=200)
        half_l1 += abs(piece)
    return 2.0 * (half_l1 + float(ndtr(-radius)))


class TestExactTv:
    @pytest.mark.parametrize(
        "kind, n",
        [("sphere_shell", n) for n in (3, 4, 5, 6, 10, 25, 100, 1000)]
        + [("ball_uniform", n) for n in (2, 3, 4, 10, 100, 1000)],
    )
    def test_equals_scalar_crossing_loop(self, kind, n):
        # Gauss-Legendre in arcsin(t/r) against adaptive quadrature in t; the
        # exponent is 1/2 at sphere n=4 and ball n=2, 3/2 at sphere 6, ball 4
        assert exact_tv_vs_normal(kind, n) == pytest.approx(scalar_crossing_tv(kind, n), abs=1e-12)

    def test_riemann_oracle(self):
        # independent oracle: trapezoidal integration of |f - phi| on a dense grid
        n = 100
        radius = math.sqrt(n)
        ts = np.linspace(-radius, radius, 2**21 + 1)
        f = exact_projection_density("sphere_shell", n, ts)
        phi = np.exp(-0.5 * ts**2) / math.sqrt(2 * math.pi)
        tail = math.erfc(radius / math.sqrt(2))  # normal mass outside the support
        riemann = np.trapezoid(np.abs(f - phi), ts) + tail
        assert exact_tv_vs_normal("sphere_shell", n) == pytest.approx(riemann, abs=1e-8)

    def test_dominated_by_theoretical_bound(self):
        for n in (10, 50, 100, 500):
            assert exact_tv_vs_normal("sphere_shell", n) <= 8.0 / (n - 1)

    def test_one_over_n_decay(self):
        for n in (50, 100, 200):
            ratio = exact_tv_vs_normal("sphere_shell", n) / exact_tv_vs_normal(
                "sphere_shell", 2 * n
            )
            assert 1.8 <= ratio <= 2.2

    @pytest.mark.parametrize("kind", ["sphere_shell", "ball_uniform"])
    @pytest.mark.parametrize("n", [2000, 10**4, 10**6])
    def test_two_crossings_and_many_more_panels_agree(self, monkeypatch, kind, n):
        # TV = 4 int_t1^t2 (f - phi): the one piece between the two crossings,
        # and a 64-panel, 128-node rule on it agrees (measured: within 5e-18)
        pieces = []
        rule = exact_module._panel_rule

        def counted(ends, panels):
            pieces.append(len(ends) - 1)
            return rule(ends, panels)

        monkeypatch.setattr(exact_module, "_panel_rule", counted)
        value = exact_tv_vs_normal(kind, n)
        assert pieces == [1]
        monkeypatch.setattr(exact_module, "_PANELS", 64)
        monkeypatch.setattr(exact_module, "_NODES", 128)
        assert abs(exact_tv_vs_normal(kind, n) - value) <= 1e-16

    @pytest.mark.parametrize("kind", ["sphere_shell", "ball_uniform"])
    def test_validated_up_to_max_n(self, kind):
        # n * TV settles at 0.7001 by n = 1e4 and holds through the cap, the
        # largest n any test checks; beyond it the formula is refused
        for n in (10**4, 10**5, EXACT_MARGINAL_MAX_N):
            assert n * exact_tv_vs_normal(kind, n) == pytest.approx(0.7001, abs=1e-3)
        with pytest.raises(ValueError, match="validated"):
            exact_tv_vs_normal(kind, EXACT_MARGINAL_MAX_N + 1)

    @pytest.mark.parametrize(
        "kind, n",
        [("sphere_shell", n) for n in (3, 4, 5, 10, 100, 10**4, 10**6)]
        + [("ball_uniform", n) for n in (2, 3, 10, 10**6)],
    )
    def test_crossings_are_the_roots(self, monkeypatch, kind, n):
        # the one piece's ends are the roots of f - phi, one in [0, sqrt 3] and
        # one in [sqrt 3, r] (r itself at sphere n=3), and f - phi is positive
        # between them and not positive beyond.  A root moves by about n 1e-16:
        # a rounding of 1e-16 in log(f/phi), whose slope in t^2 is about 1.2/n
        ends = []
        rule = exact_module._panel_rule

        def recorded(phi_ends, panels):
            ends.append(phi_ends)
            return rule(phi_ends, panels)

        monkeypatch.setattr(exact_module, "_panel_rule", recorded)
        exact_tv_vs_normal(kind, n)
        r_sq = exact_module._marginal_params(kind, n)[0]
        radius = math.sqrt(r_sq)
        t1, t2 = radius * np.sin(ends[0])

        def diff(t):
            return exact_projection_density(kind, n, t) - np.exp(-0.5 * t * t) / math.sqrt(2.0 * math.pi)

        roots = [optimize.brentq(diff, 0.0, math.sqrt(3.0), xtol=1e-15)]
        roots.append(radius if r_sq == 3.0
                     else optimize.brentq(diff, math.sqrt(3.0), min(radius, 10.0), xtol=1e-15))
        assert np.abs(np.array([t1, t2]) - roots).max() <= 1e-12 + 1e-16 * n
        t = np.linspace(0.0, radius, 10**5, endpoint=False)  # the support is open
        gap = diff(t)
        between = (t1 < t) & (t < t2)
        assert (gap[between] > 0.0).all() and (gap[~between] <= 0.0).all()

    @pytest.mark.parametrize("kind", ["sphere_shell", "ball_uniform"])
    def test_limit_beyond_the_cap(self, monkeypatch, kind):
        # the crossings and the one piece keep n * TV at its limit past the
        # validated range (measured: 0.7001502 at n = 1e7, 0.7001501 at 1e8)
        laws = tuple(dataclasses.replace(law, max_n=10**8) for law in EXACT_LAWS)
        monkeypatch.setattr(exact_module, "EXACT_LAWS", laws)
        for n in (10**7, 10**8):
            assert n * exact_tv_vs_normal(kind, n) == pytest.approx(0.700150, abs=1e-6)

    def test_ziggurat_edge_unchanged(self):
        # the ziggurat's r takes the same adjacent-float bisection: its value,
        # and so every table and every lp stream, is the one pinned here
        pinned = {1.5: 3.6683809125233577, 3.0: 1.8483774010644276, 4.0: 1.5734337188351608,
                  8.0: 1.2468811930657968}
        assert {p: float(_ziggurat(p)[0][1]) for p in pinned} == pinned


def cube_spec(n):
    return DistributionSpec(Kind.LP_BALL, n, p=math.inf)


class TestExactKolmogorov:
    def test_triangular_law(self):
        # n = 2, theta = (1, 1)/sqrt 2: W = c (U_1 + U_2) with c = sqrt(3/2) is
        # triangular on [-2c, 2c]; on [0, 2c], D = F - Phi is
        # 1 - (2c - t)^2 / (8 c^2) - Phi(t), and past 2c, 1 - Phi(t) falls
        c = math.sqrt(1.5)

        def diff(t):
            return 1.0 - (2.0 * c - t) ** 2 / (8.0 * c * c) - ndtr(t)

        def slope(t):
            return (2.0 * c - t) / (4.0 * c * c) - math.exp(-0.5 * t * t) / math.sqrt(2.0 * math.pi)

        grid = np.linspace(0.0, 2.0 * c, 4001)
        signs = np.sign([slope(t) for t in grid])
        roots = [optimize.brentq(slope, grid[i], grid[i + 1], xtol=1e-15)
                 for i in np.flatnonzero(signs[:-1] * signs[1:] < 0)]
        reference = max(abs(diff(t)) for t in [*roots, 2.0 * c])
        value = exact_kolmogorov(cube_spec(2), np.full(2, 0.5**0.5))
        assert reference <= value <= reference + 1e-12

    @pytest.mark.parametrize("n", [5, 25, 100])
    def test_agrees_with_four_times_the_panels(self, monkeypatch, n):
        theta = random_subspace(n, 1, 700 + n)[0]
        value = exact_kolmogorov(cube_spec(n), theta)
        monkeypatch.setattr(exact_module, "_CF_PANEL_WIDTH", exact_module._CF_PANEL_WIDTH / 4)
        assert abs(exact_kolmogorov(cube_spec(n), theta) - value) <= 1e-12

    def test_closed_form_and_inversion_agree(self, monkeypatch):
        # five coordinates: inversion by default, the closed form when allowed;
        # the closed form adds its rounding bound, the inversion its truncation
        theta = random_subspace(5, 1, 705)[0]
        inverted = exact_kolmogorov(cube_spec(5), theta)
        monkeypatch.setattr(exact_module, "_SPLINE_TERMS", 5)
        _, rounding = exact_module._uniform_sum_spline(np.abs(math.sqrt(3.0) * theta))
        assert abs(exact_kolmogorov(cube_spec(5), theta) - inverted) <= rounding + 1e-13

    @pytest.mark.parametrize("n", [5, 25, 100])
    def test_within_dkw_band_of_sampled_ks(self, n):
        spec, n_samples, seed = cube_spec(n), 200_000, 710 + n
        theta = random_subspace(n, 1, seed)[0]
        w = sample_projections(spec, theta[:, None], n_samples, seed)[0]
        gap = brute_force_ks(w, ndtr) - exact_kolmogorov(spec, theta)
        assert abs(gap) <= dkw_slack(n_samples, 1e-6)

    @pytest.mark.parametrize("n, theta_spec", [(20, "diagonal"), (100, "random(101)")])
    def test_sampler_check_size(self, n, theta_spec):
        # a right sampler gives |KS_N - d_K| > dkw_slack(N, delta) with probability
        # at most delta, so over R seeds the count of such runs stays within the
        # Binomial(R, delta) upper quantile at level 1e-3
        spec, n_samples, runs = cube_spec(n), 2000, 400
        theta, _ = resolve_theta(theta_spec, n)
        d_k = exact_kolmogorov(spec, theta)
        gaps = np.array([
            abs(brute_force_ks(sample_projections(spec, theta[:, None], n_samples, 20_000 + r)[0],
                               ndtr) - d_k)
            for r in range(runs)
        ])
        for delta in (0.1, 0.01):
            exceedances = int((gaps > dkw_slack(n_samples, delta)).sum())
            assert exceedances <= binom.isf(1e-3, runs, delta), (delta, exceedances)

    def test_refuses_other_laws_and_axis_lines(self):
        with pytest.raises(ValueError, match="no exact Kolmogorov"):
            exact_kolmogorov(DistributionSpec(Kind.LP_BALL, 4, p=4.0), np.full(4, 0.5))
        with pytest.raises(ValueError, match="two coordinates"):
            exact_kolmogorov(cube_spec(4), e1(4))


# the lines of a law with an exact Kolmogorov distance, at each of NS from
# its least n on; a law with an exact total variation is checked at every n
# from its least to 100
NS = (2, 3, 4, 5, 8, 20, 100)
LINES = ("diagonal", "e1 + 0.3 e2", "random(1)", "random(2)", "random(3)")


def line_of(name, n):
    if name == "e1 + 0.3 e2":
        theta = np.eye(n)[0] + 0.3 * np.eye(n)[1]
        return theta / np.linalg.norm(theta)
    return resolve_theta(name, n)[0]


@functools.cache
def bound_over_exact() -> dict[str, list[float]]:
    """Each law of EXACT_LAWS: the bound that gates its certify cells
    (certify's own choice, on exact moments) over its exact distance, case
    by case."""
    ratios = {law.name: [] for law in EXACT_LAWS}
    for law in EXACT_LAWS:
        for distance in law.distances:
            if distance == D_K:
                cases = [(n, name) for n in NS if n >= law.min_n for name in LINES]
            else:  # the total variation of a rotation-invariant law: one line will do
                cases = [(n, "diagonal") for n in range(law.min_n, 101)]
            for n, name in cases:
                spec, theta = DistributionSpec(law.kind, n, p=law.p), line_of(name, n)
                _, bound = _gating_bound(spec, applicable_route(spec), theta)
                exact = (exact_kolmogorov(spec, theta) if distance == D_K
                         else exact_tv_vs_normal(law.kind, n))
                ratios[law.name].append(bound.value / exact)
    return ratios


class TestBoundDominatesExact:
    """The gating bound, with its route's exact moments, is at least the true
    distance wherever the law has an exact one; the simplex has none yet."""

    @pytest.mark.parametrize("family", [law.name for law in EXACT_LAWS])
    def test_bound_dominates_exact(self, family):
        assert min(bound_over_exact()[family]) >= 1.0

    @pytest.mark.parametrize("family", [law.name for law in EXACT_LAWS])
    def test_bound_over_100_fails_somewhere(self, family):
        # the check has power: a hundredfold smaller bound falls below the truth
        assert min(bound_over_exact()[family]) < 100.0
