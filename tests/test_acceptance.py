"""Acceptance suite: one test per certification criterion.

Every test records a single `[acceptance NN] PASS/FAIL ...` line, echoed in
the terminal summary (where it survives pytest's capture), and then
asserts, so a plain pytest run shows the roll-up while still failing loudly
on any miss.  Seeds are fixed; all statistical tolerances are the stated
multiples of measured standard errors, so the suite is deterministic.
"""

import math

import numpy as np
import pytest

from conftest import record_acceptance_line

from cltbounds.bounds import (
    bound_poincare,
    bound_sph_symm,
    VARIANT_STD_DEV,
)
from cltbounds.certify import certify_grid
from cltbounds.empirical import (
    conditional_second_moment,
    project,
    streaming_pair_square_covariance,
    tv_vs_normal_histogram,
)
from cltbounds.exact import (
    DistributionSpec,
    Kind,
    exact_tv_vs_normal,
    simplex_Y_moment,
    simplex_pair_moment,
)
from cltbounds.frames import check_tight, simplex_geometry, standard_frame
from cltbounds.samplers import SampleBatch, map_sample_blocks, sample
from cltbounds.subspaces import (
    estimate_Ank,
    haar_orthogonal_sample,
    reflection_pair_diagnostics,
    rotation_pair_diagnostics,
)

pytestmark = pytest.mark.acceptance


def _verdict(num: int, name: str, ok: bool, detail: str = "") -> None:
    line = f"[acceptance {num:02d}] {'PASS' if ok else 'FAIL'} {name}"
    if detail:
        line += f" | {detail}"
    print(line, flush=True)
    record_acceptance_line(line)
    assert ok, line


def test_criterion_01_sphere_quadrature_tv():
    ns = [10, 25, 50, 100, 200, 500]
    tv = {}
    for n in ns:
        tv[n] = exact_tv_vs_normal("sphere_shell", n)
    dominated = all(tv[n] <= 8.0 / (n - 1) for n in ns)
    ratios = {}
    for n in ns:
        if 2 * n not in tv:
            tv[2 * n] = exact_tv_vs_normal("sphere_shell", 2 * n)
        ratios[n] = tv[n] / tv[2 * n]
    correct_order = all(1.8 <= r <= 2.2 for r in ratios.values())
    _verdict(
        1,
        "sphere marginal TV <= 8/(n-1) with 1/n decay",
        dominated and correct_order,
        f"TV(100)={tv[100]:.3g}, ratios "
        + ", ".join(f"{n}:{r:.3f}" for n, r in ratios.items()),
    )


def test_criterion_02_ball_variance_and_tv():
    ok = True
    details = []
    for n in (10, 100):
        batch = sample(DistributionSpec(Kind.BALL_UNIFORM, n), 10**6, 20_002)
        rowsq = np.einsum("ij,ij->i", batch.data, batch.data)
        var_mc = float(rowsq.var())
        var_exact = 4.0 * n / (n + 4)
        rel_err = abs(var_mc - var_exact) / var_exact
        ok &= rel_err <= 0.02
        bound = 4.0 / (n - 1) * math.sqrt(var_mc) + 8.0 / (n - 1)
        ok &= bound <= 16.0 / (n - 1)
        theta = np.zeros(n)
        theta[0] = 1.0
        tv = tv_vs_normal_histogram(project(batch, theta)).point_estimate
        ok &= tv <= bound + 0.02
        details.append(f"n={n}: var rel err {rel_err:.4f}, TV {tv:.4f} vs bound {bound:.4f}")
    _verdict(2, "ball norm-square variance and histogram TV", ok, "; ".join(details))


def _multi_indices(n_coords: int, max_total: int):
    out = []

    def rec(prefix, budget):
        if len(prefix) == n_coords:
            if sum(prefix) > 0:
                out.append(tuple(prefix))
            return
        for v in range(budget + 1):
            rec(prefix + [v], budget - v)

    rec([], max_total)
    return out


def _simplex_moment_scan(n: int, n_samples: int, seed: int):
    """Blockwise sample means (and standard errors) of every embedded-coordinate
    moment with total degree <= 4, plus the three edge pair-moment classes."""
    geom = simplex_geometry(n)
    back = math.sqrt(n / (n + 1))
    shift = math.sqrt((n + 2) / (n + 1))
    indices = _multi_indices(n + 1, 4)
    sparse = [tuple(zip(*[(c, p) for c, p in enumerate(r) if p > 0])) for r in indices]
    sums = np.zeros(len(indices))
    sumsq = np.zeros(len(indices))
    pair_defs = {"ov2": ((0, 1), (0, 1)), "ov1": ((0, 1), (1, 2))}
    if n >= 3:
        pair_defs["ov0"] = ((0, 1), (2, 3))
    pair_sums = {k: 0.0 for k in pair_defs}
    pair_sumsq = {k: 0.0 for k in pair_defs}

    spec = DistributionSpec(Kind.SIMPLEX, n)

    def take(rows, block):
        y = back * (block @ geom.vertices.T) + shift
        cols = np.ascontiguousarray(y.T)
        powers = [cols]
        for _ in range(3):
            powers.append(powers[-1] * cols)
        for pos, (coords, pows) in enumerate(sparse):
            prod = powers[pows[0] - 1][coords[0]]
            for c, p in zip(coords[1:], pows[1:]):
                prod = prod * powers[p - 1][c]
            sums[pos] += prod.sum()
            sumsq[pos] += float(prod @ prod)
        for key, ((i, j), (k, l)) in pair_defs.items():
            prod = 0.25 * (cols[i] - cols[j]) ** 2 * (cols[k] - cols[l]) ** 2
            pair_sums[key] += prod.sum()
            pair_sumsq[key] += float(prod @ prod)

    map_sample_blocks(spec, n_samples, seed, take)

    means = sums / n_samples
    ses = np.sqrt(np.maximum(sumsq / n_samples - means**2, 0.0) / n_samples)
    pair_stats = {}
    for key, ((i, j), (k, l)) in pair_defs.items():
        m = pair_sums[key] / n_samples
        se = math.sqrt(max(pair_sumsq[key] / n_samples - m * m, 0.0) / n_samples)
        pair_stats[key] = (m, se, simplex_pair_moment(n, (i, j), (k, l)))
    return indices, means, ses, pair_stats


def test_criterion_03_simplex_exact_moments():
    n_samples = 10**7
    ok = True
    worst_z = 0.0
    checked = 0
    pair_msgs = []
    for n, seed in ((2, 30_002), (5, 30_005), (10, 30_010)):
        indices, means, ses, pair_stats = _simplex_moment_scan(n, n_samples, seed)
        exact = np.array([simplex_Y_moment(n, r) for r in indices])
        z = np.abs(means - exact) / ses
        worst_z = max(worst_z, float(z.max()))
        ok &= bool((z <= 4.0).all())
        checked += len(indices)
        for key, (m, se, target) in pair_stats.items():
            z_pair = abs(m - target) / se
            worst_z = max(worst_z, z_pair)
            ok &= z_pair <= 4.0
            pair_msgs.append(f"n={n} {key} z={z_pair:.2f}")
    _verdict(
        3,
        "simplex sampler matches exact joint and pair moments",
        ok,
        f"{checked} moments at 4 s.e., worst z={worst_z:.2f}",
    )


def test_criterion_04_tight_frames_all_n():
    ok = True
    worst = 0.0
    for n in range(2, 201):
        assert check_tight(standard_frame(n)) <= 1e-10
        geom = simplex_geometry(n)
        resid = check_tight(geom.edge_frame)
        worst = max(worst, resid)
        ok &= resid <= 1e-10
        ok &= float(np.abs(geom.vertices.sum(axis=0)).max()) <= 1e-12
        gram = geom.vertices @ geom.vertices.T
        off = gram[~np.eye(n + 1, dtype=bool)]
        ok &= float(np.abs(off + 1.0 / n).max()) <= 1e-12
    _verdict(4, "frame residuals and simplex vertex identities, n=2..200",
             ok, f"worst edge-frame residual {worst:.2e}")


def test_criterion_05_reflection_pair_linearity():
    n_samples = 10**6
    ok = True
    worst = 0.0
    seed = 50_000
    for n in (10, 50):
        cases = [
            (DistributionSpec(Kind.LP_BALL, n, p=math.inf), seed + n, None),
            (DistributionSpec(Kind.LP_BALL, n, p=1.0), seed + n + 1, None),
            (DistributionSpec(Kind.SIMPLEX, n), seed + n + 2, simplex_geometry(n)),
        ]
        rng = np.random.default_rng(seed + n + 3)
        for spec, sample_seed, geom in cases:
            e1_analog = np.zeros(n)
            e1_analog[0] = 1.0
            if geom is not None:
                e1_analog = geom.vertices[0]
            random_theta = rng.standard_normal(n)
            random_theta /= np.linalg.norm(random_theta)
            diags = reflection_pair_diagnostics(
                spec, (e1_analog, np.full(n, n**-0.5), random_theta), n_samples, sample_seed
            )
            for diag in diags:
                ratio = diag.slope * n / 2.0
                ratio_se = diag.slope_se * n / 2.0
                z = abs(ratio - 1.0) / ratio_se
                worst = max(worst, z)
                ok &= z <= 3.0
    _verdict(5, "reflection-pair regression slope is 2/n (18 cells)",
             ok, f"worst |slope ratio - 1| = {worst:.2f} s.e.")


def test_criterion_06_certification_grid():
    specs = []
    for n in (20, 50, 100):
        specs.append(DistributionSpec(Kind.LP_BALL, n, p=math.inf))
        for p in (1.0, 2.0, 4.0):
            specs.append(DistributionSpec(Kind.LP_BALL, n, p=p))
        for p in (1.0, 2.0, 4.0):
            specs.append(DistributionSpec(Kind.LP_CONE, n, p=p))
        specs.append(DistributionSpec(Kind.SIMPLEX, n))
    thetas = ["diagonal", "random(101)", "random(102)", "random(103)"]
    reports = certify_grid(specs, thetas, N=10**6, seed=60_000, delta=1e-3)
    n_pass = sum(r.passed for r in reports)
    min_margin = min(r.margin for r in reports)
    gate = {Kind.SIMPLEX: "simplex-assembled"}  # every lp cell: "unconditional[exact]"
    gated = all(
        r.bound_name == gate.get(r.spec.kind, "unconditional[exact]")
        and "informational" not in r.to_dict()
        for r in reports
    )
    _verdict(
        6,
        "empirical Kolmogorov - DKW <= theoretical bound on the full grid",
        n_pass == len(reports) and gated,
        f"{n_pass}/{len(reports)} cells, min margin {min_margin:.4f}, "
        f"gates {', '.join(sorted({r.bound_name for r in reports}))}",
    )


def test_criterion_07_spherically_symmetric_family():
    n_samples = 10**6
    ok = True
    details = []
    for n in (50, 100):
        batch = sample(DistributionSpec(Kind.SPHERICAL_EXPONENTIAL, n), n_samples, 70_000 + n)
        theta = np.zeros(n)
        theta[0] = 1.0
        bound_exact = bound_sph_symm(
            n, VARIANT_STD_DEV, math.sqrt(n * (4.0 * n + 6.0) / (n + 1))
        ).value
        tv = tv_vs_normal_histogram(project(batch, theta)).point_estimate
        ok &= tv <= bound_exact + 0.02

        cond = conditional_second_moment(batch)
        folds = [
            conditional_second_moment(
                SampleBatch(data=batch.data[i::8], seed=0, spec=batch.spec)
            )
            for i in range(8)
        ]
        cond_se = float(np.std(folds, ddof=1) / math.sqrt(8))
        rowsq = np.einsum("ij,ij->i", batch.data, batch.data)
        std_route = bound_sph_symm(n, VARIANT_STD_DEV, float(rowsq.std())).value
        ok &= 4.0 * cond <= std_route + 2.0 * 4.0 * cond_se

        poincare = bound_poincare(n, 1.0 / 13.0).value
        assert poincare == pytest.approx(10.0 * math.sqrt(13.0) / math.sqrt(n), rel=1e-12)
        ok &= poincare > bound_exact
        details.append(
            f"n={n}: TV {tv:.3f} <= {bound_exact + 0.02:.3f}, "
            f"4*cond {4 * cond:.3f} <= std route {std_route:.3f}, "
            f"poincare {poincare:.3f}"
        )
    _verdict(7, "spherically symmetric TV chain and spectral-gap route", ok,
             "; ".join(details))


def test_criterion_08_infinitesimal_rotation_limits():
    eps_list = [0.2, 0.1, 0.05]
    diags = rotation_pair_diagnostics(
        DistributionSpec(Kind.SPHERE_SHELL, 50), eps_list, 10**6, 80_000
    )
    ok = True
    for d in diags:
        ok &= abs(d.r1 - 1.0) <= max(3.0 * d.r1_se, 0.05)
        ok &= abs(d.r2 - 1.0) <= max(3.0 * d.r2_se, 0.10)
    for larger, smaller in zip(diags, diags[1:]):
        allowance = 3.0 * (larger.r1_se + smaller.r1_se)
        ok &= abs(smaller.r1 - 1.0) <= abs(larger.r1 - 1.0) + allowance
        allowance = 3.0 * (larger.r2_se + smaller.r2_se)
        ok &= abs(smaller.r2 - 1.0) <= abs(larger.r2 - 1.0) + allowance
    r3s = [d.r3 for d in diags]
    ok &= max(r3s) / min(r3s) <= 2.0
    _verdict(
        8,
        "rotation-pair ratios converge to 1 with bounded third moment",
        ok,
        "; ".join(f"eps={d.eps}: r1={d.r1:.3f} r2={d.r2:.3f} r3={d.r3:.4f}" for d in diags),
    )


def test_criterion_09_haar_entry_moments():
    n, draws = 5, 10**5
    mats = haar_orthogonal_sample(n, draws, 90_000)
    flat = mats.reshape(draws, n * n)
    second = flat.T @ flat / draws
    second_sq = (flat**2).T @ (flat**2) / draws
    se = np.sqrt(np.maximum(second_sq - second**2, 0.0) / draws)
    target = np.eye(n * n) / n
    z = np.abs(second - target) / np.maximum(se, 1e-15)
    ok = bool((z <= 4.0).all())
    fourth = flat[:, 0] ** 4
    z4 = abs(fourth.mean() - 3.0 / (n * (n + 2))) / (fourth.std() / math.sqrt(draws))
    ok &= z4 <= 4.0
    _verdict(
        9,
        "Haar entry second moments delta/5 and E u11^4 = 3/35",
        ok,
        f"{n**4} identities, worst z={float(z.max()):.2f}, fourth-moment z={z4:.2f}",
    )


def test_criterion_10_sup_norm_exponential_counterexample():
    n_samples = 10**7
    cov20, se20 = streaming_pair_square_covariance(
        DistributionSpec(Kind.LINF_EXPONENTIAL, 20), n_samples, 100_020
    )
    significantly_positive = cov20 > 4.0 * se20
    ns = np.array([10, 20, 40, 80])
    covs = []
    for n in ns:
        if n == 20:
            covs.append(cov20)
            continue
        cov, _ = streaming_pair_square_covariance(
            DistributionSpec(Kind.LINF_EXPONENTIAL, int(n)), n_samples, 100_000 + n
        )
        covs.append(cov)
    log_n, log_cov = np.log(ns), np.log(covs)
    slope, intercept = np.polyfit(log_n, log_cov, 1)
    fitted = slope * log_n + intercept
    r_squared = 1.0 - np.sum((log_cov - fitted) ** 2) / np.sum(
        (log_cov - log_cov.mean()) ** 2
    )
    decays_like_1_over_n = (
        -1.3 <= slope <= -0.7
        and r_squared >= 0.9
        and all(b < a for a, b in zip(covs, covs[1:]))
    )
    _verdict(
        10,
        "square-correlation counterexample: positive but O(1/n)",
        significantly_positive and decays_like_1_over_n,
        f"Cov(n=20)={cov20:.4f} ({cov20 / se20:.0f} s.e.), "
        f"log-log slope {slope:.3f}, R^2={r_squared:.4f}",
    )


def test_criterion_11_randomized_subspace_trend():
    spec_template = lambda n: DistributionSpec(Kind.LP_BALL, n, p=math.inf)
    fractions = []
    for n in (25, 50, 100):
        est = estimate_Ank(
            spec_template(n), k=1, eps=0.1, n_subspaces=32, N=10**6, seed=110_000 + n
        )
        fractions.append(est.fraction)
    nondecreasing = all(b >= a for a, b in zip(fractions, fractions[1:]))
    ok = nondecreasing and fractions[-1] >= 0.95
    _verdict(
        11,
        "good-subspace fraction nondecreasing in n and >= 0.95 at n=100",
        ok,
        f"fractions {fractions}",
    )
