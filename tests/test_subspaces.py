import json
import math
import sys
import tracemalloc

import numpy as np
import pytest
from scipy import stats

from cltbounds import subspaces
from cltbounds.cli import EXIT_CONFIG_ERROR, main
from cltbounds.core import InsufficientDataError
from cltbounds.empirical import (
    _GAP_ROWS,
    KS_MIN_SAMPLES,
    _equal_count_bin_means,
    _ks_statistic,
    dkw_slack,
)
from cltbounds.exact import DistributionSpec, Kind, exact_kolmogorov
from cltbounds.frames import simplex_geometry
from cltbounds.samplers import BLOCK_ROWS, derive_seed, sample
from cltbounds.subspaces import (
    DIRECTION_CHUNK,
    LABEL_DIRECTIONS,
    LABEL_EXACT,
    LABEL_LINE,
    SymmetryError,
    ank_to_csv,
    estimate_Ank,
    haar_orthogonal,
    haar_orthogonal_sample,
    random_subspace,
    reflection_frame,
    reflection_pair_diagnostics,
    rotation_pair_diagnostics,
    _rotation_frames,
    _rotation_rows,
    uniform_directions,
)

CUBE_THIRD_ABS = 1.29903810567665797


def cube(n):
    return DistributionSpec(Kind.LP_BALL, n, p=math.inf)


def no_sampling(*args, **kwargs):
    raise AssertionError("sampled before the law was checked")


def pair_diagnostics_of(w, diff):
    """Reference: the PairDiagnostics fields of the sampled pair (W, W - W')."""
    n_samples = len(w)
    w_mean, d_mean, w_var = w.mean(), diff.mean(), w.var()
    slope = np.mean((diff - d_mean) * (w - w_mean)) / w_var
    intercept = d_mean - slope * w_mean
    resid = diff - slope * w - intercept
    means, sizes = _equal_count_bin_means(w, diff * diff)
    weights = sizes / n_samples
    return {
        "slope": slope,
        "intercept": intercept,
        "slope_se": resid.std() / (math.sqrt(n_samples) * math.sqrt(w_var)),
        "var_conditional": weights @ (means - weights @ means) ** 2,
        "third_abs": np.mean(np.abs(diff) ** 3),
        "sup_abs": np.abs(diff).max(),
    }


class TestHaarOrthogonal:
    def test_invariants(self):
        q = haar_orthogonal(12, 0)
        assert np.linalg.norm(q.T @ q - np.eye(12), ord="fro") <= 1e-10
        assert abs(abs(np.linalg.det(q)) - 1.0) <= 1e-8

    def test_r_diagonal_sign_convention_zero_mean(self):
        # without the sign fix the first column would be biased toward +e1
        mats = haar_orthogonal_sample(4, 4000, 1)
        assert abs(mats[:, 0, 0].mean()) <= 4 * mats[:, 0, 0].std() / math.sqrt(4000)

    def test_column_on_sphere_second_moment(self):
        # E u_11^2 = 1/n
        n, draws = 5, 10**5
        mats = haar_orthogonal_sample(n, draws, 2)
        u11_sq = mats[:, 0, 0] ** 2
        se = u11_sq.std() / math.sqrt(draws)
        assert abs(u11_sq.mean() - 1.0 / n) <= 3 * se

    def test_cross_entry_uncorrelated(self):
        # E u_11 u_22 = 0
        draws = 10**5
        mats = haar_orthogonal_sample(5, draws, 3)
        prod = mats[:, 0, 0] * mats[:, 1, 1]
        se = prod.std() / math.sqrt(draws)
        assert abs(prod.mean()) <= 3 * se

    def test_fourth_moment(self):
        # E u_11^4 = 3/(n(n+2)); Monte Carlo oracle at n=5
        n, draws = 5, 10**5
        mats = haar_orthogonal_sample(n, draws, 4)
        fourth = mats[:, 0, 0] ** 4
        se = fourth.std() / math.sqrt(draws)
        assert abs(fourth.mean() - 3.0 / (n * (n + 2))) <= 3 * se


class TestRandomSubspace:
    def test_gram_identity(self):
        basis = random_subspace(10, 4, 5)
        assert basis.shape == (4, 10)
        assert np.linalg.norm(basis @ basis.T - np.eye(4), ord="fro") <= 1e-10

    def test_full_space(self):
        basis = random_subspace(6, 6, 6)
        # any unit vector is representable: solve for coefficients
        theta = np.full(6, 6**-0.5)
        coeffs = basis @ theta
        np.testing.assert_allclose(coeffs @ basis, theta, atol=1e-10)

    def test_rejects_bad_k(self):
        with pytest.raises(ValueError):
            random_subspace(5, 6, 0)
        with pytest.raises(ValueError):
            random_subspace(5, 0, 0)

    def test_uniform_directions_unit(self):
        dirs = uniform_directions(3, 50, np.random.default_rng(8))
        assert dirs.shape == (50, 3)
        np.testing.assert_allclose(np.linalg.norm(dirs, axis=1), 1.0, rtol=1e-12)


class TestReflectionPair:
    def test_cube_slope(self):
        n, n_samples = 10, 10**6
        theta = np.full(n, n**-0.5)
        [diag] = reflection_pair_diagnostics(
            cube(n), [theta], n_samples, 10, pair_seed=11
        )
        ratio = diag.slope * n / 2.0
        ratio_se = diag.slope_se * n / 2.0
        assert abs(ratio - 1.0) <= 3 * ratio_se

    def test_intercept_zero(self):
        n, n_samples = 8, 4 * 10**5
        theta = np.zeros(n)
        theta[0] = 1.0
        [diag] = reflection_pair_diagnostics(
            cube(n), [theta], n_samples, 12, pair_seed=13
        )
        d_se = math.sqrt(4.0 / n / n_samples)  # sd(W - W') ~ 2/sqrt(n)
        assert abs(diag.intercept) <= 4 * d_se

    def test_third_moment_matches_exact_for_cube(self):
        n, n_samples = 10, 10**6
        theta = np.full(n, n**-0.5)
        [diag] = reflection_pair_diagnostics(
            cube(n), [theta], n_samples, 14, pair_seed=15
        )
        # E|W-W'|^3 = (8/m) sum |theta_i|^3 E|X_i|^3 with equality for
        # exchangeable symmetric coordinates: 8 E|X|^3 n^(-1/2) / n here
        exact = 8.0 * CUBE_THIRD_ABS * n**-1.5
        se = 3 * diag.third_abs / math.sqrt(n_samples)  # loose
        assert abs(diag.third_abs - exact) <= 10 * se

    def test_simplex_edge_frame_slope(self):
        n, n_samples = 5, 4 * 10**5
        geom = simplex_geometry(n)
        theta = geom.vertices[0]
        [diag] = reflection_pair_diagnostics(
            DistributionSpec(Kind.SIMPLEX, n), [theta], n_samples, 16, pair_seed=17
        )
        ratio = diag.slope * n / 2.0
        assert abs(ratio - 1.0) <= 3 * diag.slope_se * n / 2.0

    def test_exact_variance_proxy(self):
        n = 6
        theta = np.full(n, n**-0.5)
        [diag] = reflection_pair_diagnostics(
            cube(n), [theta], 10**5, 18, pair_seed=19
        )
        # condition-on-X proxy (16/m^2) S - 16/n^2 with S = sum qq E[X^2 X^2]
        # = 1 + (EX^4 - 1) sum theta^4, so radicand = 0.8/n
        expected = (16.0 / n**2) * (0.8 / n)
        # the binned estimate must not exceed the condition-on-X proxy by much
        assert diag.var_conditional <= expected + 5e-4

    def test_thetas_share_one_pass(self):
        # one sample and one index stream serve every theta: the diagnostics
        # of a list equal those of each theta alone
        n = 7
        spec = DistributionSpec(Kind.LP_CONE, n, p=3.0)
        ramp = np.arange(1.0, n + 1)
        thetas = [np.eye(n)[0], np.full(n, n**-0.5), ramp / np.linalg.norm(ramp)]
        together = reflection_pair_diagnostics(
            spec, thetas, 70_000, 38, pair_seed=39
        )
        alone = [
            reflection_pair_diagnostics(spec, [t], 70_000, 38, pair_seed=39)[0]
            for t in thetas
        ]
        assert together == alone

    @pytest.mark.parametrize("n", [5, 20])
    def test_simplex_equals_the_edge_frame_reference(self, n):
        # the vertex path against the drawn rows of the built edge frame,
        # on the same rows and the same index stream
        geom = simplex_geometry(n)
        spec = DistributionSpec(Kind.SIMPLEX, n)
        thetas = [geom.vertices[0], np.full(n, n**-0.5), haar_orthogonal(n, 60)[0]]
        n_samples, seed, pair_seed = BLOCK_ROWS + 4321, 61, 62  # a partial last block
        diags = reflection_pair_diagnostics(spec, thetas, n_samples, seed, pair_seed)
        rng = np.random.default_rng(pair_seed)
        index = np.concatenate([rng.integers(0, geom.m, min(BLOCK_ROWS, n_samples - lo))
                                for lo in range(0, n_samples, BLOCK_ROWS)])
        rows = sample(spec, n_samples, seed).data
        frame_rows = geom.edge_frame.vectors[index]
        coeff = np.einsum("ij,ij->i", rows, frame_rows)
        for theta, diag in zip(thetas, diags):
            expected = pair_diagnostics_of(rows @ theta, 2.0 * coeff * (frame_rows @ theta))
            for field, value in expected.items():
                assert getattr(diag, field) == pytest.approx(value, rel=1e-12, abs=0.0), field

    @pytest.mark.parametrize(
        "kind, p, frame",
        [
            (Kind.SIMPLEX, None, "standard"),
            (Kind.LP_BALL, 1.0, "simplex-edges"),
            (Kind.LINF_EXPONENTIAL, None, "simplex-edges"),
            (Kind.LP_SURFACE, 3.0, "standard"),
            (Kind.LP_CONE, 2.0, "rotated"),
        ],
    )
    def test_frame_must_preserve_the_law(self, monkeypatch, tmp_path, kind, p, frame):
        # the frame follows from the law: a diagnose config that names any
        # other, or any frame for lp_surface, exits 2 before any draw
        monkeypatch.setattr("cltbounds.subspaces.map_frame_blocks", no_sampling)
        distribution = {"kind": kind.value, "n": 4, **({} if p is None else {"p": p})}
        cfg = tmp_path / "diag.json"
        cfg.write_text(json.dumps({"experiment": "reflection", "distribution": distribution,
                                   "frame": frame, "N": 1000}))
        out = tmp_path / "out"
        assert main(["diagnose", "--config", str(cfg), "--out", str(out)]) == EXIT_CONFIG_ERROR
        assert not out.exists()

    def test_surface_law_has_no_pair(self, monkeypatch):
        # no diagnostic applies the lp surface weights
        monkeypatch.setattr("cltbounds.subspaces.map_frame_blocks", no_sampling)
        with pytest.raises(SymmetryError):
            reflection_pair_diagnostics(
                DistributionSpec(Kind.LP_SURFACE, 4, p=3.0), [np.eye(4)[0]], 1000, 20,
                pair_seed=21,
            )

    @pytest.mark.parametrize(
        "kind, p, frame",
        [
            (Kind.LP_BALL, 1.0, "standard"),
            (Kind.LP_CONE, math.inf, "standard"),
            (Kind.LINF_EXPONENTIAL, None, "standard"),
            (Kind.SIMPLEX, None, "simplex-edges"),
            (Kind.SPHERE_SHELL, None, "standard"),
            (Kind.BALL_UNIFORM, None, "standard"),
            (Kind.SPHERICAL_EXPONENTIAL, None, "standard"),
        ],
    )
    def test_frame_that_preserves_the_law_is_accepted(self, kind, p, frame):
        # every law but lp_surface has a pair, in its own frame
        n = 4
        assert reflection_frame(kind) == frame
        [diag] = reflection_pair_diagnostics(
            DistributionSpec(kind, n, p=p), [np.eye(n)[0]], 1000, 20, pair_seed=21
        )
        assert math.isfinite(diag.slope)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            reflection_pair_diagnostics(cube(4), [np.eye(5)[0]], 1000, 22, pair_seed=23)

    def test_never_holds_the_batch(self):
        n, n_samples = 100, 200_000
        thetas = [np.eye(n)[0], np.full(n, n**-0.5), np.eye(n)[1]]
        tracemalloc.start()
        try:
            reflection_pair_diagnostics(
                cube(n), thetas, n_samples, 40, pair_seed=41
            )
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * n_samples * n, f"peak {peak / 1e6:.1f} MB"

    def test_keeps_only_w_the_coefficient_and_the_index(self):
        # the pass draws its rows CHUNK_ROWS at a time: beside the kept W per
        # theta, coefficient and uint8 index, one worker holds a (CHUNK_ROWS,
        # n) chunk and a (BLOCK_ROWS, T + 1) block, far less than one
        # (BLOCK_ROWS, n) block, 105 MB at n = 200
        n, n_samples = 200, BLOCK_ROWS + 4321
        thetas = [np.eye(n)[0], np.full(n, n**-0.5), haar_orthogonal(n, 42)[0]]
        kept = (8 * len(thetas) + 8 + 1) * n_samples
        tracemalloc.start()
        try:
            reflection_pair_diagnostics(cube(n), thetas, n_samples, 40, pair_seed=41)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < kept + 16e6, f"peak {peak / 1e6:.1f} MB, kept {kept / 1e6:.1f} MB"


SHELL = DistributionSpec(Kind.SPHERE_SHELL, 50)


@pytest.fixture(scope="module")
def shell_result():
    spec = DistributionSpec(Kind.SPHERE_SHELL, 30)
    return estimate_Ank(spec, k=2, eps=0.1, n_subspaces=6, N=20000, seed=30, n_dirs=8)


class TestRotationPair:
    def test_ratios_near_one(self):
        diags = rotation_pair_diagnostics(SHELL, [0.2, 0.05], 4 * 10**5, 24, pair_seed=25)
        for d in diags:
            assert abs(d.r1 - 1.0) <= max(3 * d.r1_se, 0.05)
            assert abs(d.r2 - 1.0) <= max(3 * d.r2_se, 0.1)

    def test_r3_bounded_across_eps(self):
        diags = rotation_pair_diagnostics(SHELL, [0.1, 0.05], 4 * 10**5, 24, pair_seed=26)
        assert 0.5 <= diags[0].r3 / diags[1].r3 <= 2.0

    def test_rejects_bad_eps(self, monkeypatch):
        def no_sampling(*args, **kwargs):
            raise AssertionError("sampled before eps was checked")

        monkeypatch.setattr("cltbounds.subspaces._reduced_spherical_block", no_sampling)
        with pytest.raises(ValueError):
            rotation_pair_diagnostics(SHELL, [0.6], 4 * 10**5, 24, pair_seed=27)

    def test_rejects_non_spherical(self, monkeypatch):
        def no_sampling(*args, **kwargs):
            raise AssertionError("sampled before the law was checked")

        monkeypatch.setattr("cltbounds.subspaces._reduced_spherical_block", no_sampling)
        for spec in (cube(5), DistributionSpec(Kind.LP_SURFACE, 5, p=2.0),
                     DistributionSpec(Kind.SIMPLEX, 5)):
            with pytest.raises(SymmetryError):
                rotation_pair_diagnostics(spec, [0.1], 10**4, 28, pair_seed=29)

    def test_never_holds_the_batch(self):
        n, n_samples = 100, 200_000
        tracemalloc.start()
        try:
            rotation_pair_diagnostics(
                DistributionSpec(Kind.SPHERE_SHELL, n), [0.2, 0.05], n_samples, 42, pair_seed=43
            )
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * n_samples * n, f"peak {peak / 1e6:.1f} MB"

    def test_memory_does_not_grow_with_N(self):
        spec = DistributionSpec(Kind.SPHERE_SHELL, 100)
        rotation_pair_diagnostics(spec, [0.1], 1000, 46, pair_seed=47)  # first-call setup
        peaks = []
        for blocks in (2, 8):
            tracemalloc.start()
            try:
                rotation_pair_diagnostics(spec, [0.2, 0.05], blocks * BLOCK_ROWS, 46,
                                          pair_seed=47)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        # six more blocks add six rows of sums, far below one block-sized vector
        assert peaks[1] < peaks[0] + 8 * BLOCK_ROWS, f"peaks {[p / 1e6 for p in peaks]} MB"


class TestRotationRows:
    """``_rotation_rows`` against the rows of ``sample``: X_0, X_1 and
    |X - X_0 e_1| by a two-sample KS test within the sum of the two DKW bands."""

    @pytest.mark.parametrize("n", [2, 3, 50])
    @pytest.mark.parametrize(
        "kind", [Kind.SPHERE_SHELL, Kind.BALL_UNIFORM, Kind.SPHERICAL_EXPONENTIAL]
    )
    def test_law_matches_sample_rows(self, kind, n):
        spec, n_samples, delta = DistributionSpec(kind, n), 100_000, 1e-6
        x0, x1, r_perp = _rotation_rows(np.random.default_rng(70 + n), spec, n_samples)
        rows = sample(spec, n_samples, 71 + n).data
        expected = (rows[:, 0], rows[:, 1], np.linalg.norm(rows[:, 1:], axis=1))
        band = 2.0 * dkw_slack(n_samples, delta / 2.0)
        for reduced, full in zip((x0, x1, r_perp), expected):
            assert stats.ks_2samp(reduced, full).statistic <= band

    @pytest.mark.parametrize(
        "kind", [Kind.SPHERE_SHELL, Kind.BALL_UNIFORM, Kind.SPHERICAL_EXPONENTIAL]
    )
    def test_plane_rest_is_the_second_coordinate(self, kind):
        # at n = 2 the chi-square has no degrees of freedom: r_perp = |X_1|
        _, x1, r_perp = _rotation_rows(np.random.default_rng(72), DistributionSpec(kind, 2),
                                       10_000)
        np.testing.assert_allclose(r_perp, np.abs(x1), rtol=1e-15, atol=0.0)


@pytest.mark.parametrize("n_samples", [0, -1])
def test_pair_diagnostics_reject_nonpositive_count(n_samples):
    with pytest.raises(ValueError):
        reflection_pair_diagnostics(
            cube(4), [np.eye(4)[0]], n_samples, 44, pair_seed=45
        )
    with pytest.raises(ValueError):
        rotation_pair_diagnostics(SHELL, [0.1], n_samples, 44, pair_seed=45)


def explicit_rotation_frames(rng, x, draws):
    """(q1_0, <q1, x>, q2_0, <q2, x>) by Gram-Schmidt on two Gaussian vectors of R^n."""
    g1 = rng.standard_normal((draws, len(x)))
    g2 = rng.standard_normal((draws, len(x)))
    q1 = g1 / np.linalg.norm(g1, axis=1, keepdims=True)
    g2 -= np.einsum("ij,ij->i", q1, g2)[:, None] * q1
    q2 = g2 / np.linalg.norm(g2, axis=1, keepdims=True)
    return q1[:, 0], q1 @ x, q2[:, 0], q2 @ x


class TestRotationFrames:
    @pytest.mark.parametrize("n", [2, 3, 7])
    def test_reduced_law_matches_gram_schmidt(self, n):
        draws = 2 * 10**5
        rows = [
            2.0 * np.eye(n)[0],  # X along e1: u is arbitrary
            np.random.default_rng(n).standard_normal(n),
            np.r_[0.0, np.full(n - 1, 1.5)],
        ]
        for x in rows:
            explicit = explicit_rotation_frames(np.random.default_rng(40 + n), x, draws)
            reduced = _rotation_frames(
                np.random.default_rng(50 + n),
                np.full(draws, x[0]),
                np.full(draws, np.linalg.norm(x[1:])),
                n,
            )
            for a, b in zip(explicit, reduced):
                assert np.isfinite(b).all()
                for f in (lambda v: v, lambda v: (v - v.mean()) ** 2):
                    fa, fb = f(a), f(b)
                    se = math.sqrt((fa.var() + fb.var()) / draws)
                    assert abs(fa.mean() - fb.mean()) <= 4.0 * se + 1e-12

    @pytest.mark.parametrize("n", [2, 3])
    def test_low_dimensions_give_finite_ratios(self, n):
        spec = DistributionSpec(Kind.SPHERE_SHELL, n)
        for d in rotation_pair_diagnostics(spec, [0.2, 0.05], 10**4, 60 + n, pair_seed=61):
            values = [d.r1, d.r1_se, d.r2, d.r2_se, d.r3, d.r3_se]
            assert all(math.isfinite(v) for v in values)

    def test_same_seed_same_diagnostics(self):
        spec = DistributionSpec(Kind.SPHERE_SHELL, 20)
        a = rotation_pair_diagnostics(spec, [0.2, 0.1], 10**5, 62, pair_seed=63)
        b = rotation_pair_diagnostics(spec, [0.2, 0.1], 10**5, 62, pair_seed=63)
        assert a == b


class TestEstimateAnk:
    def test_sphere_every_subspace_good(self, shell_result):
        # rotation invariance: every direction has the same law, far below eps
        assert shell_result.fraction == 1.0
        assert shell_result.sup_distances.max() < 0.1

    def test_monotone_in_eps(self):
        spec = DistributionSpec(Kind.LP_BALL, 12, p=math.inf)
        fracs = [
            estimate_Ank(spec, k=1, eps=eps, n_subspaces=8, N=20000, seed=31, n_dirs=4).fraction
            for eps in (0.005, 0.02, 0.1, 2.0)
        ]
        assert fracs == sorted(fracs)
        assert fracs[-1] == 1.0  # distance never exceeds 1

    def test_monotone_in_eps_sampled_line(self):
        # the sampled k = 1 path; the cube above takes the exact one
        spec = DistributionSpec(Kind.LP_BALL, 12, p=4.0)
        ests = [estimate_Ank(spec, k=1, eps=eps, n_subspaces=8, N=20000, seed=31, n_dirs=4)
                for eps in (0.005, 0.02, 0.1, 2.0)]
        fracs = [est.fraction for est in ests]
        assert fracs == sorted(fracs)
        assert fracs[-1] == 1.0
        assert {est.label for est in ests} == {LABEL_LINE}

    def test_cube_lines_take_the_exact_distance(self, monkeypatch):
        def no_sampling(*args, **kwargs):
            raise AssertionError("sampled a cube line")

        monkeypatch.setattr("cltbounds.subspaces.sample_projections", no_sampling)
        spec, seed = cube(12), 38
        runs = [estimate_Ank(spec, k=1, eps=0.01, n_subspaces=5, N=n_samples, seed=seed,
                             workers=workers)
                for n_samples, workers in ((100, 1), (10**6, 2))]
        expected = [exact_kolmogorov(spec, random_subspace(12, 1, derive_seed(seed, s))[0])
                    for s in range(5)]
        for est in runs:
            np.testing.assert_array_equal(est.sup_distances, expected)
            assert est.label == LABEL_EXACT
            assert (est.N, est.n_dirs) == (0, 0)  # no row sampled, no direction drawn
        assert runs[0].fraction == runs[1].fraction

    @pytest.mark.parametrize("k, spec", [(1, DistributionSpec(Kind.SIMPLEX, 5)), (2, cube(5))],
                             ids=["simplex", "cube-k2"])
    def test_too_few_samples_raise_before_any_draw(self, monkeypatch, k, spec):
        def no_draw(*args, **kwargs):
            raise AssertionError("drew for too few samples")

        for name in ("random_subspace", "sample_projections"):
            monkeypatch.setattr(f"cltbounds.subspaces.{name}", no_draw)
        with pytest.raises(InsufficientDataError, match=f"at least {KS_MIN_SAMPLES}"):
            estimate_Ank(spec, k=k, eps=0.1, n_subspaces=2, N=KS_MIN_SAMPLES - 1, seed=39)

    def test_label_at_k2(self, shell_result):
        assert shell_result.label == LABEL_DIRECTIONS

    def test_default_dirs_is_50k(self, shell_result):
        spec = DistributionSpec(Kind.SPHERE_SHELL, 10)
        est = estimate_Ank(spec, k=2, eps=2.0, n_subspaces=1, N=200, seed=32)
        assert est.n_dirs == 100

    @pytest.mark.parametrize("n_dirs", [0, -1])
    def test_rejects_no_directions(self, n_dirs):
        # with no direction every sup would read 0 and every subspace pass
        spec = DistributionSpec(Kind.LP_BALL, 6, p=math.inf)
        with pytest.raises(ValueError, match="n_dirs"):
            estimate_Ank(spec, k=2, eps=1e-6, n_subspaces=2, N=2000, seed=34, n_dirs=n_dirs)

    def test_deterministic(self):
        spec = DistributionSpec(Kind.SPHERE_SHELL, 10)
        a = estimate_Ank(spec, k=1, eps=0.05, n_subspaces=4, N=5000, seed=33, n_dirs=3)
        b = estimate_Ank(spec, k=1, eps=0.05, n_subspaces=4, N=5000, seed=33, n_dirs=3)
        np.testing.assert_array_equal(a.sup_distances, b.sup_distances)

    @pytest.mark.parametrize("k", [1, 2])
    def test_streamed_equals_given_batch(self, k):
        # 70000 rows cross the first block boundary; the reference projects
        # the materialized batch onto each subspace and its sampled directions
        spec = DistributionSpec(Kind.LP_BALL, 9, p=4.0)
        n_samples, seed, n_subspaces, n_dirs = 70_000, 35, 3, 20
        streamed = estimate_Ank(
            spec, k=k, eps=0.05, n_subspaces=n_subspaces, N=n_samples, seed=seed, n_dirs=n_dirs
        )
        data = sample(spec, n_samples, seed).data
        given = []
        for s in range(n_subspaces):
            basis = random_subspace(spec.n, k, derive_seed(seed, s))
            if k == 1:
                coeffs = np.array([[1.0], [-1.0]])
            else:
                coeffs = uniform_directions(k, n_dirs, np.random.default_rng(derive_seed(seed, s, 1)))
            given.append(max(_ks_statistic(data @ (c @ basis)) for c in coeffs))
        np.testing.assert_allclose(streamed.sup_distances, given, rtol=0, atol=1e-12)
        assert streamed.N == n_samples
        assert streamed.n_dirs == (0 if k == 1 else n_dirs)  # a line draws no direction

    def test_never_holds_the_batch(self):
        spec = DistributionSpec(Kind.LP_BALL, 100, p=math.inf)
        n_samples = 200_000
        tracemalloc.start()
        try:
            estimate_Ank(spec, k=1, eps=0.1, n_subspaces=4, N=n_samples, seed=36)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * n_samples * spec.n, f"peak {peak / 1e6:.1f} MB"

    def test_never_holds_the_batch_sampled_line(self):
        # the sampled k = 1 path; the cube above takes the exact one
        spec = DistributionSpec(Kind.LP_BALL, 100, p=4.0)
        n_samples = 200_000
        tracemalloc.start()
        try:
            estimate_Ank(spec, k=1, eps=0.1, n_subspaces=4, N=n_samples, seed=36)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * n_samples * spec.n, f"peak {peak / 1e6:.1f} MB"

    def test_cube_lines_hold_no_sample(self):
        n_samples = 10**6
        estimate_Ank(cube(25), k=1, eps=0.1, n_subspaces=1, N=10, seed=39)  # first-call imports
        tracemalloc.start()
        try:
            estimate_Ank(cube(25), k=1, eps=0.1, n_subspaces=4, N=n_samples, seed=39)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * n_samples / 8, f"peak {peak / 1e6:.2f} MB"

    def test_rejects_k_above_n_before_sampling(self, monkeypatch):
        def no_sampling(*args, **kwargs):
            raise AssertionError("sampled before k was checked")

        monkeypatch.setattr("cltbounds.subspaces.sample_projections", no_sampling)
        spec = DistributionSpec(Kind.SPHERE_SHELL, 4)
        with pytest.raises(ValueError, match="k <= n"):
            estimate_Ank(spec, k=5, eps=0.1, n_subspaces=2, N=1000, seed=37)

    def test_csv_export(self, shell_result, tmp_path):
        path = tmp_path / "ank.csv"
        ank_to_csv([shell_result], path)
        text = path.read_text().splitlines()
        assert text[0] == "n,k,eps,fraction,n_subspaces,n_dirs,N,seed,max_sup"
        assert len(text) == 2
        assert float(text[1].split(",")[-1]) == shell_result.sup_distances.max()


class TestWorkerCount:
    """1 and 2 workers give bit-identical results; 70000 rows cross the first
    block boundary."""

    @pytest.mark.parametrize("k", [1, 2])
    def test_estimate_Ank(self, k):
        spec = DistributionSpec(Kind.LP_BALL, 9, p=4.0)
        serial, threaded = (
            estimate_Ank(spec, k=k, eps=0.05, n_subspaces=3, N=70_000, seed=35, n_dirs=20,
                         workers=workers)
            for workers in (1, 2)
        )
        np.testing.assert_array_equal(serial.sup_distances, threaded.sup_distances)
        assert serial.fraction == threaded.fraction

    def test_estimate_Ank_memory_level(self, monkeypatch):
        # k >= 2: beside the projections, each worker of the statistics holds
        # one (DIRECTION_CHUNK, N) direction product and the statistic's two
        # _GAP_ROWS buffers, plus a step's masks and indices (two buffers'
        # worth); the peak is taken over the statistics alone, not the fill
        spec = DistributionSpec(Kind.LP_BALL, 30, p=4.0)
        n_samples = 200_000
        run_statistics = subspaces.thread_map
        extras = []

        def traced_statistics(fn, items, workers):
            start = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            result = run_statistics(fn, items, workers)
            extras.append(tracemalloc.get_traced_memory()[1] - start)
            return result

        monkeypatch.setattr(subspaces, "thread_map", traced_statistics)
        for workers in (1, 2):
            tracemalloc.start()
            try:
                estimate_Ank(spec, k=2, eps=0.1, n_subspaces=4, N=n_samples, seed=51,
                             n_dirs=2 * DIRECTION_CHUNK, workers=workers)
            finally:
                tracemalloc.stop()
        per_worker = 8 * (DIRECTION_CHUNK * n_samples + 4 * _GAP_ROWS)
        assert extras[0] <= per_worker, f"{extras[0] / 1e6} MB"
        assert extras[1] <= 2 * per_worker, f"{extras[1] / 1e6} MB"

    def test_reflection(self):
        n = 9
        thetas = [np.eye(n)[0], np.full(n, n**-0.5), haar_orthogonal(n, 46)[0]]
        serial, threaded = (
            reflection_pair_diagnostics(
                cube(n), thetas, 70_000, 47, pair_seed=48, workers=workers,
            )
            for workers in (1, 2)
        )
        assert serial == threaded

    def test_rotation(self):
        serial, threaded = (
            rotation_pair_diagnostics(SHELL, [0.2, 0.1, 0.05], 70_000, 49, pair_seed=50,
                                      workers=workers)
            for workers in (1, 2)
        )
        assert serial == threaded

    @pytest.mark.parametrize(
        "kind", [Kind.SPHERE_SHELL, Kind.BALL_UNIFORM, Kind.SPHERICAL_EXPONENTIAL]
    )
    def test_rotation_partial_last_block(self, kind):
        # N is not a multiple of BLOCK_ROWS: the last block is short
        spec = DistributionSpec(kind, 7)
        one, two, three = (
            rotation_pair_diagnostics(spec, [0.2, 0.05], 3 * BLOCK_ROWS + 17, 56, pair_seed=57,
                                      workers=workers)
            for workers in (1, 2, 3)
        )
        assert one == two == three

    def test_more_workers_than_cores_with_fast_switching(self):
        # tasks write disjoint slices of shared arrays; a lost or misplaced
        # write would change the statistics
        spec = DistributionSpec(Kind.LP_BALL, 9, p=4.0)
        n = 9
        thetas = [np.eye(n)[0], np.full(n, n**-0.5)]

        def run(workers):
            return (
                estimate_Ank(spec, k=1, eps=0.05, n_subspaces=6, N=70_000, seed=51,
                             workers=workers).sup_distances.tolist(),
                reflection_pair_diagnostics(cube(n), thetas, 70_000, 52,
                                            pair_seed=53, workers=workers),
                rotation_pair_diagnostics(SHELL, [0.2, 0.1, 0.05], 70_000, 54, pair_seed=55,
                                          workers=workers),
            )

        serial = run(1)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threaded = run(5)
        finally:
            sys.setswitchinterval(interval)
        assert serial == threaded
