import json
import math
import subprocess
import tracemalloc

import numpy as np
import pytest

import cltbounds.contract as contract_module
from cltbounds import __version__
from cltbounds.bounds import (
    KOLMOGOROV,
    VARIANT_STD_DEV,
    BoundValue,
    bound_poincare,
    bound_sph_symm,
    bound_unconditional,
)
from cltbounds.certify import (
    REPORT_SCHEMA,
    TV_ESTIMATOR_ALLOWANCE,
    InapplicableBoundError,
    applicable_route,
    certify_cell,
    certify_grid,
    reports_to_csv,
    reports_to_json,
    resolve_theta,
    version_string,
)
from cltbounds.cli import (
    EXIT_CERTIFICATION_FAILED,
    EXIT_CONFIG_ERROR,
    EXIT_INAPPLICABLE,
    EXIT_INTERNAL_ERROR,
    EXIT_OK,
    _number,
    _spec_from_config,
    main,
)
from cltbounds.core import CHUNK_ROWS, InsufficientDataError
from cltbounds.empirical import (
    HISTOGRAM_MIN_SAMPLES,
    KS_MIN_SAMPLES,
    histogram_counts,
    histogram_edges,
    kolmogorov_vs_normal,
    tv_from_counts,
    tv_vs_normal_histogram,
)
from cltbounds.exact import (
    SPHERICAL_KINDS,
    UNCONDITIONAL_KINDS,
    DistributionSpec,
    Kind,
    exact_moments,
)
from cltbounds.samplers import (
    BLOCK_ROWS,
    block_seed,
    derive_seed,
    map_projection_blocks,
    sample,
    sample_projections,
)
from cltbounds.subspaces import SymmetryError, reflection_pair_diagnostics


def zero_bound(*args, **kwargs):
    """A zero Kolmogorov bound, which any sampled distance fails."""
    return BoundValue(value=0.0, kind=KOLMOGOROV)


# the simplex command paths on two thetas, run(spec, N)
SIMPLEX_RUNS = [
    lambda spec, N: certify_grid([spec], ["diagonal", "random(1)"], N=N, seed=3),
    lambda spec, N: reflection_pair_diagnostics(
        spec, [resolve_theta(t, spec.n)[0] for t in ("diagonal", "random(1)")], N, 3, 4,
    ),
]
SIMPLEX_RUN_IDS = ["certify_grid", "reflection_pair_diagnostics"]


def write_config(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def reduced_law_projections(spec, thetas, n_samples, seed):
    """(T, N) projections of a spherically symmetric spec onto the (n, T)
    thetas, rebuilt block by block from the documented reduced-law draws:
    r = min(n, T) normals, 2 standard_gamma((n - r)/2), then the radius."""
    n = spec.n
    _, r_factor = np.linalg.qr(thetas)
    r = r_factor.shape[0]
    blocks = []
    for block, lo in enumerate(range(0, n_samples, BLOCK_ROWS)):
        count = min(BLOCK_ROWS, n_samples - lo)
        rng = np.random.default_rng(block_seed(seed, block))
        g = rng.standard_normal((count, r))
        chi2 = 2.0 * rng.standard_gamma((n - r) / 2.0, count)
        radius = np.ones(count)
        if spec.kind is Kind.BALL_UNIFORM:
            radius = rng.random(count) ** (1.0 / n)
        elif spec.kind is Kind.SPHERICAL_EXPONENTIAL:
            radius = rng.standard_gamma(float(n), count) / math.sqrt(n + 1)
        u = g / np.sqrt(np.sum(g * g, axis=1) + chi2)[:, None]
        blocks.append((spec.scale * radius[:, None] * u) @ r_factor)
    return np.vstack(blocks).T


class TestRouting:
    def test_routes(self):
        assert applicable_route(DistributionSpec(Kind.SIMPLEX, 4)) == "simplex"
        assert applicable_route(DistributionSpec(Kind.SPHERE_SHELL, 4)) == "spherical"
        assert applicable_route(DistributionSpec(Kind.BALL_UNIFORM, 4)) == "spherical"
        assert applicable_route(DistributionSpec(Kind.SPHERICAL_EXPONENTIAL, 4)) == "spherical"
        for kind, p in ((Kind.LP_BALL, 2.0), (Kind.LP_CONE, 1.0), (Kind.LINF_EXPONENTIAL, None)):
            spec = DistributionSpec(kind, 4, p=p)
            assert applicable_route(spec) == "unconditional"

    def test_surface_is_inapplicable(self):
        with pytest.raises(InapplicableBoundError):
            applicable_route(DistributionSpec(Kind.LP_SURFACE, 4, p=2.0))

    @pytest.mark.parametrize("kind", list(Kind), ids=lambda kind: kind.value)
    def test_kind_table_agrees(self, kind):
        # one kind set decides the unconditional route and the closed-form
        # moments; every law but lp_surface has a reflection pair, in the
        # frame that follows from its kind
        lp = kind in (Kind.LP_BALL, Kind.LP_CONE, Kind.LP_SURFACE)
        spec = DistributionSpec(kind, 4, p=3.0 if lp else None)
        try:
            unconditional = applicable_route(spec) == "unconditional"
        except InapplicableBoundError:
            unconditional = False
        try:
            exact_moments(spec)
            moments = True
        except ValueError:
            moments = False
        try:
            reflection_pair_diagnostics(spec, [np.eye(4)[0]], 200, 1, 2)
            reflected = True
        except SymmetryError:
            reflected = False
        assert unconditional == moments == (kind in UNCONDITIONAL_KINDS)
        assert reflected == (kind is not Kind.LP_SURFACE)
        if kind is Kind.LP_SURFACE:
            assert not (unconditional or moments or reflected)


class TestResolveTheta:
    def test_named(self):
        theta, label = resolve_theta("e1", 5)
        assert label == "e1" and theta[0] == 1.0 and abs(theta[1:]).max() == 0.0
        theta, label = resolve_theta("diagonal", 4)
        np.testing.assert_allclose(theta, 0.5)

    def test_random_seeded(self):
        a, _ = resolve_theta("random(7)", 6)
        b, _ = resolve_theta("random(7)", 6)
        c, _ = resolve_theta("random(8)", 6)
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, c)
        assert np.linalg.norm(a) == pytest.approx(1.0)

    def test_explicit_normalized(self):
        theta, label = resolve_theta([3.0, 4.0], 2)
        np.testing.assert_allclose(theta, [0.6, 0.8])
        assert label == "explicit"

    def test_rejects_unknown(self):
        with pytest.raises(ValueError):
            resolve_theta("sideways", 4)
        with pytest.raises(ValueError):
            resolve_theta([1.0, 2.0], 3)


class TestCertifyCell:
    def test_cube_exact_moments_pass(self):
        spec = DistributionSpec(Kind.LP_BALL, 16, p=math.inf)
        report = certify_cell(spec, "diagonal", N=50_000, seed=1)
        assert report.passed
        assert report.bound_name == "unconditional[exact]"
        theta, _ = resolve_theta("diagonal", 16)
        assert report.bound == bound_unconditional(theta, *exact_moments(spec))
        assert report.empirical.dkw_slack is not None
        assert "informational" not in report.to_dict()

    def test_cube_small_n_vacuous(self):
        spec = DistributionSpec(Kind.LP_BALL, 4, p=math.inf)
        report = certify_cell(spec, "e1", N=10_000, seed=2)
        assert report.vacuous and report.passed
        assert any("vacuous" in note for note in report.notes)

    def test_sphere_tv_route(self):
        spec = DistributionSpec(Kind.SPHERE_SHELL, 100)
        report = certify_cell(spec, "e1", N=20_000, seed=3)
        assert report.bound.kind == "total-variation"
        assert report.bound.value == pytest.approx(8.0 / 99.0)
        assert report.passed
        assert report.bound_name == "spherical-std-dev[exact]"
        assert "informational" not in report.to_dict()

    def test_exponential_includes_poincare_info(self):
        # the cell carries its gate alone: the Poincare bound, 10 sqrt(13/50) = 5.10
        # at n = 50, lies above the total-variation ceiling of 2 and is not attached
        spec = DistributionSpec(Kind.SPHERICAL_EXPONENTIAL, 50)
        report = certify_cell(spec, "e1", N=20_000, seed=4)
        assert report.bound_name == "spherical-std-dev[exact]"
        assert report.bound.value == pytest.approx(
            bound_sph_symm(50, VARIANT_STD_DEV, math.sqrt(50 * 206 / 51)).value, rel=1e-12
        )
        assert "informational" not in report.to_dict()
        assert bound_poincare(50, 1.0 / 13.0).value > 2.0

    def test_simplex_assembled_route(self):
        spec = DistributionSpec(Kind.SIMPLEX, 10)
        report = certify_cell(spec, "random(5)", N=50_000, seed=5)
        assert report.bound_name == "simplex-assembled"
        assert report.bound.constants_used["mode"] == "assembled"
        assert report.passed

    def test_exact_moment_route(self):
        theta, _ = resolve_theta("diagonal", 10)
        for kind, p in (
            (Kind.LP_BALL, 1.0),
            (Kind.LP_BALL, math.inf),
            (Kind.LP_CONE, 1.0),
            (Kind.LP_CONE, math.inf),
            (Kind.LINF_EXPONENTIAL, None),
        ):
            spec = DistributionSpec(kind, 10, p=p)
            report = certify_cell(spec, "diagonal", N=50_000, seed=6)
            assert report.bound_name == "unconditional[exact]"
            assert report.bound.value == bound_unconditional(theta, *exact_moments(spec)).value
            assert report.passed

    def test_forced_failure_with_zero_constant(self, monkeypatch):
        monkeypatch.setattr("cltbounds.certify.bound_simplex", zero_bound)
        spec = DistributionSpec(Kind.SIMPLEX, 2)
        report = certify_cell(spec, "e1", N=20_000, seed=7, delta=0.5)
        assert report.bound.value == 0.0
        assert not report.passed
        assert report.margin < 0


class TestCertifyGrid:
    def test_grid_shape_and_reuse(self):
        specs = [
            DistributionSpec(Kind.LP_BALL, 8, p=math.inf),
            DistributionSpec(Kind.SPHERE_SHELL, 8),
        ]
        reports = certify_grid(specs, ["e1", "diagonal"], N=20_000, seed=8)
        assert len(reports) == 4
        # the cells of one spec share its stream's seed; the cube and the
        # sphere draw separate streams, so their seeds differ
        assert reports[0].seed == reports[1].seed
        assert reports[0].seed != reports[2].seed
        assert all(r.passed for r in reports)

    def test_shifted_seed_does_not_replay_next_spec(self):
        # spec 1 at seed s once sampled exactly as spec 0 at seed s + 1_000_003
        first = DistributionSpec(Kind.LP_BALL, 6, p=1.0)
        second = DistributionSpec(Kind.LP_CONE, 6, p=3.0)
        grid = certify_grid([first, second], ["diagonal"], N=5_000, seed=21)
        shifted = certify_grid([second], ["diagonal"], N=5_000, seed=21 + 1_000_003)
        assert grid[1].seed != shifted[0].seed
        assert grid[1].empirical.point_estimate != shifted[0].empirical.point_estimate

    def test_workers_do_not_change_reports(self):
        specs = [
            DistributionSpec(Kind.LP_BALL, 6, p=1.0),
            DistributionSpec(Kind.LP_BALL, 6, p=2.0),
            DistributionSpec(Kind.LP_CONE, 6, p=4.0),
            DistributionSpec(Kind.LP_CONE, 6, p=math.inf),
            DistributionSpec(Kind.SPHERE_SHELL, 6),
            DistributionSpec(Kind.SIMPLEX, 6),
            DistributionSpec(Kind.LP_BALL, 6, p=4.0),  # shares the p=4 cone's stream
            DistributionSpec(Kind.LP_CONE, 9, p=1.0),  # the largest n, evaluated first
        ]
        # the second N ends in a partial block of one full chunk and a partial one
        for n_samples in (10_000, BLOCK_ROWS + CHUNK_ROWS + 17):
            serial = certify_grid(specs, ["e1", "diagonal"], N=n_samples, seed=12)
            pooled = certify_grid(specs, ["e1", "diagonal"], N=n_samples, seed=12, workers=2)
            assert [r.to_dict() for r in serial] == [r.to_dict() for r in pooled]
            assert serial[13].seed == serial[5].seed == derive_seed(12, 2)

    def test_cone_before_ball_gives_both_the_cone_seed(self):
        specs = [
            DistributionSpec(Kind.SPHERE_SHELL, 6),
            DistributionSpec(Kind.LP_CONE, 6, p=4.0),
            DistributionSpec(Kind.LP_BALL, 6, p=4.0),
            DistributionSpec(Kind.LP_BALL, 8, p=4.0),  # another n: its own stream
        ]
        reports = certify_grid(specs, ["diagonal"], N=10_000, seed=31)
        assert [r.spec for r in reports] == specs
        assert [r.seed for r in reports] == [derive_seed(31, pos) for pos in (0, 1, 1, 3)]

    @pytest.mark.parametrize("kind", [Kind.LP_CONE, Kind.LP_BALL], ids=lambda kind: kind.value)
    def test_paired_report_seed_reproduces_its_projections(self, kind):
        # each body of the shared stream is the one its own seed draws
        specs = [DistributionSpec(Kind.LP_BALL, 7, p=3.0), DistributionSpec(Kind.LP_CONE, 7, p=3.0)]
        thetas = ["diagonal", "random(5)"]
        n_samples = BLOCK_ROWS + 500
        reports = certify_grid(specs, thetas, N=n_samples, seed=32)
        spec = DistributionSpec(kind, 7, p=3.0)
        cells = [r for r in reports if r.spec == spec]
        directions = np.column_stack([resolve_theta(theta, 7)[0] for theta in thetas])
        values = sample_projections(spec, directions, n_samples, cells[0].seed)
        for report, row in zip(cells, values):
            assert report.empirical == kolmogorov_vs_normal(row, delta=report.delta)

    def test_largest_n_first(self, monkeypatch):
        # a stable sort on n: the jobs in this order, the reports in config order
        jobs = []

        def recording_map(fn, items, workers=1):
            items = list(items)
            jobs.extend(items)
            return [fn(item) for item in items]

        monkeypatch.setattr("cltbounds.certify.thread_map", recording_map)
        specs = [
            DistributionSpec(Kind.LP_BALL, 5, p=math.inf),
            DistributionSpec(Kind.LP_CONE, 9, p=4.0),
            DistributionSpec(Kind.SIMPLEX, 5),
            DistributionSpec(Kind.LP_BALL, 9, p=4.0),
            DistributionSpec(Kind.SPHERE_SHELL, 7),
        ]
        reports = certify_grid(specs, ["e1"], N=10_000, seed=33)
        assert jobs == [(1, 3), (4,), (0,), (2,)]
        assert [r.spec for r in reports] == specs

    def test_checks_every_spec_before_any_draw(self, monkeypatch):
        # each route and the sample minimum of its estimator are checked
        # before the first group (the largest n) draws
        def no_sampling(*args, **kwargs):
            raise AssertionError("sampled before checking every spec")

        monkeypatch.setattr("cltbounds.certify.sample_projections", no_sampling)
        monkeypatch.setattr("cltbounds.certify.map_projection_blocks", no_sampling)
        cube = DistributionSpec(Kind.LP_BALL, 9, p=math.inf)
        with pytest.raises(InsufficientDataError):
            certify_grid([cube], ["e1"], N=50, seed=1)
        with pytest.raises(InsufficientDataError, match=str(HISTOGRAM_MIN_SAMPLES)):
            certify_grid([DistributionSpec(Kind.SPHERE_SHELL, 5), cube], ["e1"], N=5_000, seed=1)
        with pytest.raises(InapplicableBoundError):
            certify_grid([cube, DistributionSpec(Kind.LP_SURFACE, 5, p=3.0)], ["e1"], N=5_000,
                         seed=1)

    def test_resolves_every_theta_before_any_draw(self, monkeypatch):
        # an explicit theta that fits the first group's n but not a later
        # group's raises before the first group (the largest n) draws
        def no_sampling(*args, **kwargs):
            raise AssertionError("sampled before resolving every theta")

        monkeypatch.setattr("cltbounds.certify.sample_projections", no_sampling)
        monkeypatch.setattr("cltbounds.certify.map_projection_blocks", no_sampling)
        specs = [DistributionSpec(Kind.LP_BALL, n, p=math.inf) for n in (9, 5)]
        with pytest.raises(ValueError, match="length 5"):
            certify_grid(specs, [[1.0] * 9], N=200, seed=1)

    def test_serialization(self, tmp_path):
        specs = [DistributionSpec(Kind.LP_BALL, 6, p=math.inf)]
        reports = certify_grid(specs, ["e1"], N=10_000, seed=9)
        json_path = tmp_path / "r.json"
        csv_path = tmp_path / "r.csv"
        reports_to_json(reports, json_path, config={"note": "test"})
        reports_to_csv(reports, csv_path)
        payload = json.loads(json_path.read_text())
        assert payload["all_passed"] is True
        assert payload["config"] == {"note": "test"}
        assert payload["reports"][0]["bound"]["value"] > 0
        assert "cltbounds" in payload["version"]
        lines = csv_path.read_text().splitlines()
        assert lines[0].startswith("kind,")
        assert len(lines) == 2

    def test_version_string(self):
        assert "cltbounds" in version_string()

    def test_version_names_the_package_checkout_not_the_callers(self, tmp_path, monkeypatch):
        # run from another git repository, the probe describes the checkout
        # that holds the package (or none), never the caller's repository
        def git(*args):
            return subprocess.run(["git", "-C", str(tmp_path), *args], check=True,
                                  capture_output=True, text=True).stdout.strip()

        try:
            git("init", "-q")
            git("-c", "user.name=t", "-c", "user.email=t@t", "commit", "-q", "--allow-empty",
                "-m", "scratch")
        except (OSError, subprocess.CalledProcessError):
            pytest.skip("git is not available")
        commit = git("rev-parse", "--short", "HEAD")
        monkeypatch.chdir(tmp_path)
        version_string.cache_clear()
        try:
            assert commit not in version_string()
        finally:
            version_string.cache_clear()

    def test_version_of_a_copy_inside_another_work_tree_names_no_commit(self, tmp_path,
                                                                        monkeypatch):
        # a non-editable install under a project's .venv: git describe run
        # from the package would walk up to the project's repository
        def git(*args):
            return subprocess.run(["git", "-C", str(tmp_path), *args], check=True,
                                  capture_output=True, text=True).stdout.strip()

        try:
            git("init", "-q")
            git("-c", "user.name=t", "-c", "user.email=t@t", "commit", "-q", "--allow-empty",
                "-m", "scratch")
        except (OSError, subprocess.CalledProcessError):
            pytest.skip("git is not available")
        package = tmp_path / ".venv" / "lib" / "site-packages" / "cltbounds"
        package.mkdir(parents=True)
        monkeypatch.setattr(contract_module, "__file__", str(package / "contract.py"))
        version_string.cache_clear()
        try:
            assert version_string() == f"cltbounds {__version__}"
        finally:
            version_string.cache_clear()


class TestStreaming:
    @pytest.mark.parametrize(
        "spec",
        [
            DistributionSpec(Kind.LP_BALL, 12, p=4.0),
            DistributionSpec(Kind.SIMPLEX, 12),
            DistributionSpec(Kind.BALL_UNIFORM, 12),
            DistributionSpec(Kind.SPHERE_SHELL, 12),
            DistributionSpec(Kind.SPHERICAL_EXPONENTIAL, 12),
        ],
        ids=lambda spec: spec.kind.value,
    )
    def test_streamed_equals_materialized(self, spec):
        # spherically symmetric specs stream their reduced law, which the
        # per-block reconstruction materializes; other specs project sample()
        thetas = ["diagonal", "e1", "random(3)"]
        n_samples, seed = BLOCK_ROWS + 4321, 17  # crosses a block boundary
        reports = certify_grid([spec], thetas, N=n_samples, seed=seed)
        resolved = [resolve_theta(theta_spec, spec.n) for theta_spec in thetas]
        directions = np.column_stack([theta for theta, _ in resolved])
        if spec.kind in SPHERICAL_KINDS:
            values = reduced_law_projections(spec, directions, n_samples, reports[0].seed)
        else:
            values = (sample(spec, n_samples, reports[0].seed).data @ directions).T
        for report, theta_spec, (_, label), row in zip(reports, thetas, resolved, values):
            if report.bound.kind == KOLMOGOROV:
                expected = kolmogorov_vs_normal(row, delta=report.delta)
                adjusted = expected.point_estimate - expected.dkw_slack
            else:
                expected = tv_vs_normal_histogram(row)
                adjusted = expected.point_estimate - TV_ESTIMATOR_ALLOWANCE
            assert report.theta_label == label and report.N == n_samples
            assert report.empirical.point_estimate == pytest.approx(
                expected.point_estimate, rel=0.0, abs=1e-12
            )
            assert report.empirical.dkw_slack == expected.dkw_slack
            assert report.bound == certify_cell(spec, theta_spec, N=10_000, seed=0).bound
            assert report.passed == (adjusted <= report.bound.value)
            assert report.margin == pytest.approx(report.bound.value - adjusted, abs=1e-12)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_histogram_cells_equal_their_materialized_rows(self, workers):
        # a spherical spec holds only its bin counts, summed block by block:
        # each cell's estimate is exactly that of its whole projection row
        specs = [DistributionSpec(Kind.SPHERE_SHELL, 12), DistributionSpec(Kind.BALL_UNIFORM, 9),
                 DistributionSpec(Kind.SPHERICAL_EXPONENTIAL, 30)]
        thetas = ["diagonal", "e1", "random(3)"]
        n_samples, seed = BLOCK_ROWS + 4321, 18  # crosses a block boundary
        reports = certify_grid(specs, thetas, N=n_samples, seed=seed, workers=workers)
        for pos, spec in enumerate(specs):
            directions = np.column_stack([resolve_theta(t, spec.n)[0] for t in thetas])
            rows = sample_projections(spec, directions, n_samples, derive_seed(seed, pos))
            cells = reports[pos * len(thetas) : (pos + 1) * len(thetas)]
            assert [r.empirical for r in cells] == [tv_vs_normal_histogram(row) for row in rows]

    @pytest.mark.parametrize(
        "spec",
        [DistributionSpec(Kind.SPHERE_SHELL, 12), DistributionSpec(Kind.BALL_UNIFORM, 9),
         DistributionSpec(Kind.SPHERICAL_EXPONENTIAL, 30),
         DistributionSpec(Kind.LP_BALL, 9, p=2.0), DistributionSpec(Kind.LP_CONE, 9, p=2.0)],
        ids=lambda spec: f"{spec.kind.value}-{spec.p}",
    )
    def test_block_counts_sum_to_the_materialized_rows(self, spec):
        # the summed counts of the blocks give the estimate of each whole row
        directions = np.column_stack([resolve_theta(t, spec.n)[0] for t in ("diagonal", "e1")])
        n_samples, seed = BLOCK_ROWS + 4321, 19
        edges = histogram_edges(n_samples)
        per_block = {}

        def take(rows, block):
            per_block[rows.start] = [histogram_counts(column, edges) for column in block.T]

        map_projection_blocks(spec, directions, n_samples, seed, take)
        counts = np.sum(list(per_block.values()), axis=0)
        for row_counts, row in zip(counts, sample_projections(spec, directions, n_samples, seed)):
            assert tv_from_counts(row_counts, edges, n_samples) == tv_vs_normal_histogram(row)

    def test_spherical_grid_holds_counts_not_projections(self):
        # its (2, N) projections alone would take 16 MB
        spec = DistributionSpec(Kind.SPHERE_SHELL, 100)
        tracemalloc.start()
        try:
            certify_grid([spec], ["e1", "diagonal"], N=1_000_000, seed=3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 6e6, f"peak {peak / 1e6:.1f} MB"

    @pytest.mark.parametrize(
        "spec",
        [
            DistributionSpec(Kind.LP_BALL, 100, p=4.0),
            DistributionSpec(Kind.LP_CONE, 100, p=2.0),
            DistributionSpec(Kind.SIMPLEX, 100),
            DistributionSpec(Kind.BALL_UNIFORM, 100),
        ],
        ids=lambda spec: f"{spec.kind.value}-{spec.p}",
    )
    def test_grid_never_holds_the_batch(self, spec):
        n_samples = 200_000
        thetas = ["diagonal", "random(1)", "random(2)", "random(3)"]
        tracemalloc.start()
        try:
            certify_grid([spec], thetas, N=n_samples, seed=3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * n_samples * spec.n, f"peak {peak / 1e6:.1f} MB"

    @pytest.mark.parametrize("run", SIMPLEX_RUNS, ids=SIMPLEX_RUN_IDS)
    def test_simplex_never_builds_the_edge_frame(self, run):
        # the edge frame takes 8 n^2 (n + 1) bytes, 217 MB at n = 300; the
        # simplex fill, bound and reflection pair take the vertex projections
        # from frames.simplex_projections and each edge from frames.simplex_edges
        n = 300
        tracemalloc.start()
        try:
            run(DistributionSpec(Kind.SIMPLEX, n), 5_000)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * n * n * (n + 1) / 4, f"peak {peak / 1e6:.1f} MB"

    @pytest.mark.parametrize("run", SIMPLEX_RUNS, ids=SIMPLEX_RUN_IDS)
    def test_simplex_never_builds_the_vertex_matrix(self, run):
        # the (n + 1, n) vertex matrix takes 8 (n + 1) n bytes, 32 MB at
        # n = 2000, and the (n (n + 1), 2) edge table twice as much
        n = 2000
        tracemalloc.start()
        try:
            run(DistributionSpec(Kind.SIMPLEX, n), 1_000)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * (n + 1) * n, f"peak {peak / 1e6:.1f} MB"


class TestCliSample:
    def test_writes_batch_and_summary(self, tmp_path):
        cfg = write_config(
            tmp_path,
            "sample.json",
            {
                "command": "sample",
                "distribution": {"kind": "sphere_shell", "n": 10},
                "N": 1000,
                "seed": 3,
            },
        )
        assert main(["sample", "--config", cfg, "--out", str(tmp_path / "out")]) == EXIT_OK
        bin_path = tmp_path / "out" / "sphere_shell_n10_N1000_seed3.bin"
        json_path = tmp_path / "out" / "sphere_shell_n10_N1000_seed3.json"
        assert bin_path.exists() and json_path.exists()
        from cltbounds.samplers import SampleBatch

        batch = SampleBatch.load(bin_path)
        np.testing.assert_allclose(np.linalg.norm(batch.data, axis=1), math.sqrt(10), rtol=1e-12)
        summary = json.loads(json_path.read_text())["summary"]
        assert summary["count"] == 1000

    def test_identical_bytes_across_runs(self, tmp_path):
        cfg = write_config(
            tmp_path,
            "sample.json",
            {
                "command": "sample",
                "distribution": {"kind": "simplex", "n": 3},
                "N": 500,
                "seed": 11,
            },
        )
        main(["sample", "--config", cfg, "--out", str(tmp_path / "a")])
        main(["sample", "--config", cfg, "--out", str(tmp_path / "b")])
        name = "simplex_n3_N500_seed11.bin"
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_invalid_n_exits_2(self, tmp_path):
        cfg = write_config(
            tmp_path,
            "bad.json",
            {"command": "sample", "distribution": {"kind": "sphere_shell", "n": 10}, "N": 0},
        )
        assert main(["sample", "--config", cfg]) == EXIT_CONFIG_ERROR

    def test_one_sample_exits_2_before_writing(self, tmp_path):
        # the summary needs two rows: N = 1 is refused before any draw, file
        # or output directory
        cfg = write_config(
            tmp_path,
            "one.json",
            {"command": "sample", "distribution": {"kind": "lp_ball", "p": 3.0, "n": 3}, "N": 1},
        )
        out = tmp_path / "out"
        assert main(["sample", "--config", cfg, "--out", str(out)]) == EXIT_CONFIG_ERROR
        assert not out.exists()

    def test_missing_config_exits_2(self, tmp_path):
        assert main(["sample", "--config", str(tmp_path / "nope.json")]) == EXIT_CONFIG_ERROR

    def test_command_mismatch_exits_2(self, tmp_path):
        cfg = write_config(tmp_path, "c.json", {"command": "certify"})
        assert main(["sample", "--config", cfg]) == EXIT_CONFIG_ERROR


class TestCliCertify:
    def test_small_grid_passes(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            "certify.json",
            {
                "command": "certify",
                "distributions": [{"kind": "lp_ball", "p": "inf", "n": [6, 8]}],
                "theta": ["diagonal", "random(1)"],
                "N": 20000,
                "seed": 5,
            },
        )
        code = main(["certify", "--config", cfg, "--out", str(tmp_path / "out")])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert out.count("PASS") == 4
        payload = json.loads((tmp_path / "out" / "certify.json").read_text())
        assert len(payload["reports"]) == 4
        assert (tmp_path / "out" / "certify.csv").exists()

    def test_failure_exits_1(self, tmp_path, monkeypatch):
        monkeypatch.setattr("cltbounds.certify.bound_simplex", zero_bound)
        cfg = write_config(
            tmp_path,
            "fail.json",
            {
                "command": "certify",
                "distributions": [{"kind": "simplex", "n": 2}],
                "theta": ["e1"],
                "N": 20000,
                "seed": 7,
                "delta": 0.5,
            },
        )
        assert main(["certify", "--config", cfg, "--out", str(tmp_path / "out")]) == (
            EXIT_CERTIFICATION_FAILED
        )

    def test_surface_exits_3(self, tmp_path):
        cfg = write_config(
            tmp_path,
            "surface.json",
            {
                "command": "certify",
                "distributions": [{"kind": "lp_surface", "p": 2.0, "n": 6}],
                "theta": ["e1"],
                "N": 20000,
                "seed": 1,
            },
        )
        assert main(["certify", "--config", cfg]) == EXIT_INAPPLICABLE

    @pytest.mark.parametrize(
        "scale, code",
        [
            (1.0, EXIT_CONFIG_ERROR),  # the unit cube: coordinate variance 1/3
            (DistributionSpec(Kind.LP_BALL, 6, p=math.inf).scale, EXIT_OK),
        ],
        ids=["unit-cube", "isotropic"],
    )
    def test_scale_must_be_isotropic(self, tmp_path, scale, code):
        cube = {"kind": "lp_ball", "p": "inf", "n": 6, "scale": scale}
        cfg = write_config(
            tmp_path, "scale.json", {"command": "certify", **_CUBE_GRID, "distributions": [cube]}
        )
        assert main(["certify", "--config", cfg, "--out", str(tmp_path / "out")]) == code
        # refused before the output directory, and so before any sampling
        assert (tmp_path / "out").exists() == (code == EXIT_OK)

    def test_constants_exits_2_naming_the_removal(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path, "constants.json", {"command": "certify", **_CUBE_GRID, "constants": {}}
        )
        code = main(["certify", "--config", cfg, "--out", str(tmp_path / "out")])
        assert code == EXIT_CONFIG_ERROR
        assert "'constants' was removed" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_bad_theta_exits_2_before_sampling(self, tmp_path, monkeypatch):
        def no_sampling(*args, **kwargs):
            raise AssertionError("sampled before the thetas were validated")

        monkeypatch.setattr("cltbounds.certify.sample_projections", no_sampling)
        monkeypatch.setattr("cltbounds.certify.map_projection_blocks", no_sampling)
        monkeypatch.setattr("cltbounds.samplers.sample", no_sampling)
        for theta in ("diagonl", [1.0, 2.0], [math.nan, 1.0, 0.0, 0.0, 0.0, 0.0]):
            cfg = write_config(
                tmp_path,
                "bad_theta.json",
                {
                    "command": "certify",
                    "distributions": [{"kind": "lp_ball", "p": 2.0, "n": [6, 8]}],
                    "theta": ["e1", theta],
                    "N": 1000,
                    "seed": 1,
                },
            )
            assert main(["certify", "--config", cfg, "--out", str(tmp_path / "out")]) == (
                EXIT_CONFIG_ERROR
            )
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "distribution, n_samples",
        [
            ({"kind": "sphere_shell", "n": 6}, HISTOGRAM_MIN_SAMPLES - 1),
            ({"kind": "lp_ball", "p": 2.0, "n": 6}, KS_MIN_SAMPLES - 1),
        ],
        ids=["histogram", "kolmogorov"],
    )
    def test_too_small_N_exits_2_before_sampling(
        self, tmp_path, monkeypatch, distribution, n_samples
    ):
        def no_sampling(*args, **kwargs):
            raise AssertionError("sampled before N was checked")

        monkeypatch.setattr("cltbounds.certify.sample_projections", no_sampling)
        monkeypatch.setattr("cltbounds.certify.map_projection_blocks", no_sampling)
        cfg = write_config(
            tmp_path,
            "small.json",
            {
                "command": "certify",
                "distributions": [{"kind": "lp_ball", "p": "inf", "n": 6}, distribution],
                "theta": ["e1"],
                "N": n_samples,
                "seed": 1,
            },
        )
        assert main(["certify", "--config", cfg, "--out", str(tmp_path / "out")]) == (
            EXIT_CONFIG_ERROR
        )
        assert not (tmp_path / "out").exists()

    def test_thread_count_does_not_change_results(self, tmp_path, monkeypatch):
        payload = {
            "command": "certify",
            "distributions": [
                {"kind": "lp_ball", "p": "inf", "n": 6},
                {"kind": "sphere_shell", "n": 6},
                {"kind": "simplex", "n": 6},
            ],
            "theta": ["e1", "diagonal"],
            "N": 20000,
            "seed": 13,
        }
        cfg = write_config(tmp_path, "c.json", payload)
        main(["certify", "--config", cfg, "--out", str(tmp_path / "serial")])
        monkeypatch.setenv("CLTBOUNDS_THREADS", "3")
        main(["certify", "--config", cfg, "--out", str(tmp_path / "threaded")])
        serial = json.loads((tmp_path / "serial" / "certify.json").read_text())["reports"]
        threaded = json.loads((tmp_path / "threaded" / "certify.json").read_text())["reports"]
        assert serial == threaded

    def test_seed_flag_overrides(self, tmp_path):
        payload = {
            "command": "certify",
            "distributions": [{"kind": "lp_ball", "p": "inf", "n": 6}],
            "theta": ["e1"],
            "N": 20000,
            "seed": 5,
        }
        cfg = write_config(tmp_path, "c.json", payload)
        main(["certify", "--config", cfg, "--out", str(tmp_path / "a"), "--seed", "99"])
        report = json.loads((tmp_path / "a" / "certify.json").read_text())["reports"][0]
        assert report["seed"] == derive_seed(99, 0)


_CUBE_GRID = {
    "distributions": [{"kind": "lp_ball", "p": "inf", "n": 6}],
    "theta": ["e1"],
    "N": 2000,
    "seed": 1,
}


_SMALL_SCAN = {
    "distribution": {"kind": "lp_ball", "p": "inf"},
    "n_list": [6],
    "k": 1,
    "eps": 0.1,
    "n_subspaces": 2,
    "N": 2000,
}
_SMALL_REFLECTION = {
    "experiment": "reflection",
    "distribution": {"kind": "lp_ball", "p": "inf", "n": 6},
    "theta": ["e1", "diagonal"],
    "N": 2000,
}
_SMALL_ROTATION = {
    "experiment": "rotation",
    "distribution": {"kind": "sphere_shell", "n": 6},
    "eps_list": [0.2, 0.1],
    "N": 2000,
}


class TestExitCodes:
    def test_scan_ank_error_leaves_no_directory(self, tmp_path, monkeypatch):
        # the output directory is made only after the estimates
        def broken(*args, **kwargs):
            raise InsufficientDataError("too few samples")

        monkeypatch.setattr("cltbounds.subspaces.estimate_Ank", broken)
        cfg = write_config(tmp_path, "c.json", {"command": "scan-ank", **_SMALL_SCAN})
        out = tmp_path / "out"
        assert main(["scan-ank", "--config", cfg, "--out", str(out)]) == EXIT_CONFIG_ERROR
        assert not out.exists()

    def test_internal_error_exits_4(self, tmp_path, monkeypatch, capsys):
        def broken(*args, **kwargs):
            raise ValueError("bound value must be finite and nonnegative, got nan")

        monkeypatch.setattr("cltbounds.certify.certify_grid", broken)
        cfg = write_config(tmp_path, "c.json", {"command": "certify", **_CUBE_GRID})
        code = main(["certify", "--config", cfg, "--out", str(tmp_path / "out")])
        assert code == EXIT_INTERNAL_ERROR
        err = capsys.readouterr().err
        assert "internal error" in err and "config error" not in err

    @pytest.mark.parametrize(
        "command, payload",
        [
            ("certify", {**_CUBE_GRID, "delta": 2.0}),
            ("certify", {**_CUBE_GRID, "seed": "abc"}),
            ("certify", {**_CUBE_GRID, "N": 50}),  # below the Kolmogorov estimator's minimum
            ("certify", {**_CUBE_GRID, "constants": {"c1": -1.0}}),
            ("scan-ank", {"distribution": {"kind": "sphere_shell"}, "n_list": [4], "k": 5,
                          "eps": 0.2, "n_subspaces": 1, "N": 1000}),
            ("scan-ank", {"distribution": {"kind": "sphere_shell"}, "n_list": [4], "k": 1,
                          "eps": -0.1, "n_subspaces": 1, "N": 1000}),
            ("diagnose", {"experiment": "rotation", "N": 1000,
                          "distribution": {"kind": "lp_ball", "p": "inf", "n": 6}}),
            ("diagnose", {"experiment": "rotation", "N": 1000, "eps_list": [0.7],
                          "distribution": {"kind": "sphere_shell", "n": 6}}),
            ("diagnose", {"experiment": "reflection", "N": 1000, "theta": ["sideways"],
                          "distribution": {"kind": "lp_ball", "p": "inf", "n": 6}}),
            ("tv-exact", {"kind": "cube", "n_list": [5]}),
            ("tv-exact", {"n_list": [2]}),
            ("certify", {**_CUBE_GRID, "theta": [[float("nan")] + [1.0] * 5]}),
            ("tv-exact", {"kind": "spherical_exponential", "n_list": [5]}),
            ("tv-exact", {"kind": 5, "n_list": [5]}),
            # config integers: an int that is not a bool, with each least value
            ("scan-ank", {**_SMALL_SCAN, "n_list": [20.9]}),
            ("scan-ank", {**_SMALL_SCAN, "k": True}),
            ("scan-ank", {**_SMALL_SCAN, "n_subspaces": True}),
            ("diagnose", {"experiment": "square-correlation", "n_list": ["30"], "N": 1000}),
            ("diagnose", {"experiment": "square-correlation", "n_list": [5], "N": True}),
            ("diagnose", {"experiment": "square-correlation", "n_list": [5], "N": 1}),
            ("certify", {**_CUBE_GRID, "seed": 2.9}),
            ("sample", {"distribution": {"kind": "sphere_shell", "n": 20.9}, "N": 100}),
            # beyond the range tv-exact's quadrature is validated at
            ("tv-exact", {"n_list": [10000001]}),
            # config numbers: not a bool, and p and scale a number (p also a string)
            ("scan-ank", {**_SMALL_SCAN, "eps": True}),
            ("certify", {**_CUBE_GRID, "constants": {"c1": True}}),
            ("certify", {**_CUBE_GRID, "distributions": [{"kind": "lp_ball", "p": True, "n": 6}]}),
            ("certify", {**_CUBE_GRID, "distributions": [
                {"kind": "lp_ball", "p": "inf", "scale": True, "n": 6}]}),
            ("certify", {**_CUBE_GRID, "distributions": [{"kind": "lp_ball", "p": [1], "n": 6}]}),
            ("certify", {**_CUBE_GRID, "distributions": [
                {"kind": "lp_ball", "p": {"a": 1}, "n": 6}]}),
            ("sample", {"distribution": {"kind": "sphere_shell", "n": 4, "scale": "x"}, "N": 100}),
            ("sample", {"distribution": {"kind": "sphere_shell", "n": 4, "scale": [2]}, "N": 100}),
            ("sample", {"distribution": {"kind": "sphere_shell", "n": 4, "scale": math.nan}, "N": 100}),
            ("certify", {**_CUBE_GRID, "distributions": [
                {"kind": "lp_ball", "p": "inf", "scale": math.nan, "n": 6}]}),
            ("sample", {"distribution": {"kind": "sphere_shell", "n": 4, "scale": math.inf}, "N": 100}),
            # a removed field is refused, not ignored
            ("certify", {**_CUBE_GRID, "constants": {"c1": 2.0}}),
            # a scale away from the isotropic one, which sample and diagnose once ran
            ("sample", {"distribution": {"kind": "sphere_shell", "n": 4, "scale": 1.0}, "N": 100}),
            ("diagnose", {**_SMALL_REFLECTION,
                          "distribution": {"kind": "lp_ball", "p": "inf", "n": 6, "scale": 1.0}}),
            ("diagnose", {**_SMALL_ROTATION,
                          "distribution": {"kind": "sphere_shell", "n": 6, "scale": 2.0}}),
            # a distribution that is not a JSON object
            ("certify", {**_CUBE_GRID, "distributions": ["lp_ball"]}),
            ("sample", {"distribution": 5, "N": 100}),
            ("sample", {"distribution": "lp_ball", "N": 100}),
            ("scan-ank", {**_SMALL_SCAN, "distribution": 5}),
            ("scan-ank", {**_SMALL_SCAN, "distribution": "lp_ball"}),
            ("diagnose", {**_SMALL_REFLECTION, "distribution": 5}),
            ("diagnose", {**_SMALL_REFLECTION, "distribution": "lp_ball"}),
            ("diagnose", {**_SMALL_ROTATION, "distribution": 5}),
            ("diagnose", {**_SMALL_ROTATION, "distribution": "lp_ball"}),
            ("diagnose", {"experiment": "square-correlation", "n_list": [5], "N": 100,
                          "distribution": 5}),
            ("diagnose", {"experiment": "square-correlation", "n_list": [5], "N": 100,
                          "distribution": "lp_ball"}),
            # an output path or report input that is not a string
            ("sample", {"distribution": {"kind": "sphere_shell", "n": 4}, "N": 100, "out": 5}),
            ("certify", {**_CUBE_GRID, "out": 5}),
            ("scan-ank", {**_SMALL_SCAN, "out": ["a"]}),
            ("diagnose", {**_SMALL_REFLECTION, "out": 5}),
            ("diagnose", {**_SMALL_ROTATION, "out": None}),
            ("tv-exact", {"n_list": [5], "out": True}),
            ("report", {"input": 5}),
            ("report", {"input": None}),
        ],
    )
    def test_invalid_config_exits_2(self, tmp_path, command, payload):
        cfg = write_config(tmp_path, "bad.json", {"command": command, **payload})
        out = [] if "out" in payload else ["--out", str(tmp_path / "out")]  # --out would replace it
        assert main([command, "--config", cfg, *out]) == EXIT_CONFIG_ERROR

    def test_number_forms_still_accepted(self):
        # "inf", "Infinity", numeric strings, numbers and JSON Infinity
        for p in ("inf", "Infinity", math.inf, json.loads("Infinity")):
            assert _spec_from_config({"kind": "lp_ball", "p": p, "n": 4}).p == math.inf
        for p in ("2.5", 2.5):
            assert _spec_from_config({"kind": "lp_cone", "p": p, "n": 4}).p == 2.5
        # a scale is accepted at its isotropic value, so a report's spec round-trips
        ball = DistributionSpec(Kind.LP_BALL, 4, p=3.0)
        assert _spec_from_config({"kind": "lp_ball", "p": 3, "scale": ball.scale, "n": 4}) == ball
        assert _spec_from_config({"kind": "simplex", "scale": 1, "n": 4}).scale == 1.0
        assert _number("0.5", "'eps'", 0.0, math.inf) == 0.5
        assert _number(1, "'eps'", 0.0, math.inf) == 1.0
        assert _number("1e-3", "'delta'", 0.0, 1.0) == 1e-3

    @pytest.mark.parametrize("payload", [[1, 2], "report", None])
    def test_report_not_an_object_exits_2(self, tmp_path, capsys, payload):
        path = tmp_path / "report.json"
        path.write_text(json.dumps(payload))
        assert main(["report", "--input", str(path)]) == EXIT_CONFIG_ERROR
        err = capsys.readouterr().err
        assert "config error" in err and "internal error" not in err

    @pytest.mark.parametrize(
        "command, payload, key",
        [
            ("certify", {**_CUBE_GRID, "distributions": []}, "distributions"),
            ("certify", {**_CUBE_GRID, "theta": "e1"}, "theta"),
            ("scan-ank", {**_SMALL_SCAN, "n_list": []}, "n_list"),
            ("diagnose", {**_SMALL_REFLECTION, "theta": []}, "theta"),
            ("diagnose", {**_SMALL_ROTATION, "eps_list": 0.1}, "eps_list"),
            ("diagnose", {"experiment": "square-correlation", "n_list": {}, "N": 1000}, "n_list"),
        ],
    )
    def test_empty_list_message(self, tmp_path, capsys, command, payload, key):
        cfg = write_config(tmp_path, "c.json", {"command": command, **payload})
        assert main([command, "--config", cfg, "--out", str(tmp_path / "out")]) == (
            EXIT_CONFIG_ERROR
        )
        assert f"config error: '{key}' must be a non-empty list" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "threads, command, payload",
        [
            pytest.param("abc", "certify", _CUBE_GRID, id="abc"),
            pytest.param("0", "certify", _CUBE_GRID, id="0"),
            pytest.param("-3", "certify", _CUBE_GRID, id="-3"),
            pytest.param("0", "scan-ank", _SMALL_SCAN, id="scan-ank-0"),
            pytest.param("abc", "diagnose", _SMALL_REFLECTION, id="reflection-abc"),
            pytest.param("-3", "diagnose", _SMALL_ROTATION, id="rotation--3"),
        ],
    )
    def test_bad_thread_count_exits_2(
        self, tmp_path, monkeypatch, capsys, threads, command, payload
    ):
        def no_sampling(*args, **kwargs):
            raise AssertionError("sampled before the thread count was read")

        monkeypatch.setattr("cltbounds.samplers._block_rngs", no_sampling)
        monkeypatch.setenv("CLTBOUNDS_THREADS", threads)
        cfg = write_config(tmp_path, "c.json", {"command": command, **payload})
        assert main([command, "--config", cfg, "--out", str(tmp_path / "out")]) == (
            EXIT_CONFIG_ERROR
        )
        assert "CLTBOUNDS_THREADS" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "command, payload",
        [
            ("sample", {"distribution": {"kind": "sphere_shell", "n": 4}, "N": 100}),
            ("certify", _CUBE_GRID),
            ("scan-ank", _SMALL_SCAN),
            ("diagnose", _SMALL_REFLECTION),
            ("diagnose", _SMALL_ROTATION),
            ("diagnose", {"experiment": "square-correlation", "n_list": [5], "N": 1000}),
            ("tv-exact", {"n_list": [5]}),
        ],
    )
    def test_unusable_out_path_exits_2_before_sampling(
        self, tmp_path, monkeypatch, capsys, command, payload
    ):
        def no_sampling(*args, **kwargs):
            raise AssertionError("sampled before the output path was checked")

        monkeypatch.setattr("cltbounds.samplers._block_rngs", no_sampling)
        blocker = tmp_path / "file"
        blocker.write_text("")
        out = blocker / "sub"
        cfg = write_config(tmp_path, "c.json", {"command": command, **payload})
        assert main([command, "--config", cfg, "--out", str(out)]) == EXIT_CONFIG_ERROR
        err = capsys.readouterr().err
        assert "config error" in err and str(out) in err
        assert "Traceback" not in err


class TestCliWorkerCount:
    # 70000 rows cross the first block boundary
    @pytest.mark.parametrize(
        "command, payload, name",
        [
            ("scan-ank", {**_SMALL_SCAN, "n_list": [6, 9], "eps": 0.02, "n_subspaces": 4},
             "ank_scan.csv"),
            ("diagnose", {**_SMALL_REFLECTION, "theta": ["e1", "diagonal", "random(42)"]},
             "reflection_diagnostics.csv"),
            ("diagnose", {**_SMALL_ROTATION, "eps_list": [0.2, 0.1, 0.05]},
             "rotation_diagnostics.csv"),
        ],
    )
    def test_outputs_do_not_depend_on_thread_count(
        self, tmp_path, monkeypatch, command, payload, name
    ):
        cfg = write_config(tmp_path, "c.json",
                           {"command": command, **payload, "N": 70_000, "seed": 17})
        written = []
        for threads in ("1", "2"):
            monkeypatch.setenv("CLTBOUNDS_THREADS", threads)
            out = tmp_path / f"threads{threads}"
            assert main([command, "--config", cfg, "--out", str(out)]) == EXIT_OK
            written.append((out / name).read_bytes())
        assert written[0] == written[1]


class TestCliReport:
    def test_report_renders(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            "certify.json",
            {
                "command": "certify",
                "distributions": [{"kind": "sphere_shell", "n": 50}],
                "theta": ["e1"],
                "N": 20000,
                "seed": 2,
            },
        )
        main(["certify", "--config", cfg, "--out", str(tmp_path / "out")])
        capsys.readouterr()
        code = main(["report", "--input", str(tmp_path / "out" / "certify.json")])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "sphere_shell" in out and "all passed" in out

    def test_report_prints_the_cell_lines_of_certify(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            "certify.json",
            {
                "command": "certify",
                "distributions": [{"kind": "lp_ball", "p": p, "n": 8} for p in ("inf", 4.0)],
                "theta": ["e1", "diagonal"],
                "N": 5000,
                "seed": 3,
            },
        )

        def cell_lines():
            return [line for line in capsys.readouterr().out.splitlines()
                    if line.startswith(("PASS", "FAIL"))]

        main(["certify", "--config", cfg, "--out", str(tmp_path / "out")])
        certified = cell_lines()
        assert main(["report", "--input", str(tmp_path / "out" / "certify.json")]) == EXIT_OK
        assert cell_lines() == certified
        assert [line[line.index("lp_ball"):line.index(" n=")] for line in certified] == [
            "lp_ball(p=inf)", "lp_ball(p=inf)", "lp_ball(p=4.0)", "lp_ball(p=4.0)"
        ]

    @pytest.mark.parametrize("schema", [None, 2], ids=["missing", "unknown"])
    def test_report_refuses_other_schemas(self, tmp_path, capsys, schema):
        payload = {"reports": [], "all_passed": True}
        if schema is not None:
            payload["schema"] = schema
        path = write_config(tmp_path, "certify.json", payload)
        assert main(["report", "--input", path]) == EXIT_CONFIG_ERROR
        assert f"report schema {schema!r}" in capsys.readouterr().err

    @staticmethod
    def _payload(*passed, all_passed):
        cells = [{
            "spec": {"kind": "lp_ball", "p": 4.0},
            "n": 6,
            "theta": "e1",
            "passed": p,
            "empirical": {"point_estimate": 0.01},
            "bound": {"value": 0.5},
            "bound_name": "unconditional[exact]",
        } for p in passed]
        return {"schema": REPORT_SCHEMA, "reports": cells, "all_passed": all_passed}

    @pytest.mark.parametrize("passed, all_passed", [
        ((True, False), True), ((True, True), False), ((True,), 1), ((True,), None),
    ])
    def test_report_refuses_all_passed_against_its_cells(self, tmp_path, capsys, passed,
                                                         all_passed):
        path = write_config(tmp_path, "certify.json", self._payload(*passed, all_passed=all_passed))
        assert main(["report", "--input", path]) == EXIT_CONFIG_ERROR
        out, err = capsys.readouterr()
        assert out == ""  # neither a FAIL line nor "all passed"
        assert "malformed report: all_passed" in err

    @pytest.mark.parametrize("all_passed", [True, False])
    def test_report_prints_agreeing_verdicts(self, tmp_path, capsys, all_passed):
        path = write_config(tmp_path, "certify.json",
                            self._payload(True, all_passed, all_passed=all_passed))
        assert main(["report", "--input", path]) == EXIT_OK
        out = capsys.readouterr().out.splitlines()
        assert [line[:4] for line in out[1:3]] == ["PASS", "PASS" if all_passed else "FAIL"]
        assert out[3] == ("all passed" if all_passed else "FAILURES PRESENT")

    @pytest.mark.parametrize("edit, field", [
        (lambda c: c.pop("spec"), "spec.kind"),
        (lambda c: c["spec"].update(kind=3), "spec.kind"),
        (lambda c: c.update(spec="lp_ball"), "spec.kind"),
        (lambda c: c.update(n=6.0), "n"),
        (lambda c: c.update(n=True), "n"),
        (lambda c: c.pop("theta"), "theta"),
        (lambda c: c.update(passed="yes"), "passed"),
        (lambda c: c.update(passed=1), "passed"),
        (lambda c: c["empirical"].update(point_estimate="0.01"), "empirical.point_estimate"),
        (lambda c: c["empirical"].update(point_estimate=None), "empirical.point_estimate"),
        (lambda c: c.update(bound=[0.5]), "bound.value"),
        (lambda c: c["bound"].update(value=False), "bound.value"),
        (lambda c: c.pop("bound_name"), "bound_name"),
    ], ids=["no-spec", "int-kind", "str-spec", "float-n", "bool-n", "no-theta", "str-passed",
            "int-passed", "str-estimate", "null-estimate", "list-bound", "bool-bound",
            "no-bound-name"])
    def test_report_checks_every_cell_before_printing(self, tmp_path, capsys, edit, field):
        payload = self._payload(True, True, all_passed=True)
        edit(payload["reports"][1])
        path = write_config(tmp_path, "certify.json", payload)
        assert main(["report", "--input", path]) == EXIT_CONFIG_ERROR
        out, err = capsys.readouterr()
        assert out == ""  # not even the first, well-formed cell
        assert "malformed report: cell 1" in err and field in err

    @pytest.mark.parametrize("cells", [{}, "cells", [1]])
    def test_report_refuses_cells_that_are_not_records(self, tmp_path, capsys, cells):
        path = write_config(tmp_path, "certify.json",
                            {"schema": REPORT_SCHEMA, "reports": cells, "all_passed": True})
        assert main(["report", "--input", path]) == EXIT_CONFIG_ERROR
        assert "malformed report" in capsys.readouterr().err

    @pytest.mark.parametrize("cells", [None, []], ids=["missing", "empty"])
    def test_report_refuses_a_report_without_cells(self, tmp_path, capsys, cells):
        # certify never writes one: it would print "all passed" for no cell
        payload = {"schema": REPORT_SCHEMA, "all_passed": True}
        if cells is not None:
            payload["reports"] = cells
        path = write_config(tmp_path, "certify.json", payload)
        assert main(["report", "--input", path]) == EXIT_CONFIG_ERROR
        out, err = capsys.readouterr()
        assert out == "" and "malformed report: 'reports' must be a non-empty list" in err


class TestCliScanAnk:
    def test_scan_writes_csv(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            "ank.json",
            {
                "command": "scan-ank",
                "distribution": {"kind": "sphere_shell"},
                "n_list": [8, 12],
                "k": 1,
                "eps": 0.2,
                "n_subspaces": 3,
                "n_dirs": 2,
                "N": 5000,
                "seed": 3,
            },
        )
        assert main(["scan-ank", "--config", cfg, "--out", str(tmp_path / "out")]) == EXIT_OK
        rows = (tmp_path / "out" / "ank_scan.csv").read_text().splitlines()
        assert len(rows) == 3

    def test_csv_ends_with_max_sup(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "ank.json", {"command": "scan-ank", **_SMALL_SCAN})
        assert main(["scan-ank", "--config", cfg, "--out", str(tmp_path / "out")]) == EXIT_OK
        header, row = (tmp_path / "out" / "ank_scan.csv").read_text().splitlines()
        assert header.split(",")[-1] == "max_sup"
        sup = float(row.split(",")[-1])
        assert f"max sup={sup:.4f}" in capsys.readouterr().out
        # the cube's lines are exact: no direction drawn, no row sampled
        fields = dict(zip(header.split(","), row.split(",")))
        assert (fields["n_dirs"], fields["N"]) == ("0", "0")

    @pytest.mark.parametrize("kind, p", [("lp_ball", "inf"), ("lp_ball", 4.0), ("sphere_shell", None)])
    def test_scale_must_be_isotropic(self, tmp_path, monkeypatch, kind, p):
        # the unit-parameterized body (scale 1) is not isotropic for any of these
        def no_estimate(*args, **kwargs):
            raise AssertionError("estimated a non-isotropic law")

        monkeypatch.setattr("cltbounds.subspaces.estimate_Ank", no_estimate)
        distribution = {"kind": kind, "scale": 1.0, **({} if p is None else {"p": p})}
        cfg = write_config(tmp_path, "ank.json",
                           {"command": "scan-ank", **_SMALL_SCAN, "distribution": distribution})
        assert main(["scan-ank", "--config", cfg, "--out", str(tmp_path / "out")]) == (
            EXIT_CONFIG_ERROR
        )
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "distribution, k, n_samples",
        [({"kind": "simplex"}, 1, 1), ({"kind": "sphere_shell"}, 1, KS_MIN_SAMPLES - 1),
         ({"kind": "lp_ball", "p": "inf"}, 2, 1)],
        ids=["simplex", "sphere_shell", "cube-k2"],
    )
    def test_too_few_samples_exits_2_before_any_estimate(self, tmp_path, monkeypatch,
                                                         distribution, k, n_samples):
        # a sampled law needs the Kolmogorov estimator's minimum, as in certify
        def no_estimate(*args, **kwargs):
            raise AssertionError("estimated from too few samples")

        monkeypatch.setattr("cltbounds.subspaces.estimate_Ank", no_estimate)
        cfg = write_config(tmp_path, "ank.json", {
            "command": "scan-ank", **_SMALL_SCAN, "distribution": distribution,
            "n_list": [5], "k": k, "N": n_samples,
        })
        assert main(["scan-ank", "--config", cfg, "--out", str(tmp_path / "out")]) == (
            EXIT_CONFIG_ERROR
        )
        assert not (tmp_path / "out").exists()

    def test_cube_lines_need_no_samples(self, tmp_path):
        # at k = 1 the cube's lines are evaluated exactly, so N is not read
        cfg = write_config(tmp_path, "ank.json", {"command": "scan-ank", **_SMALL_SCAN, "N": 1})
        assert main(["scan-ank", "--config", cfg, "--out", str(tmp_path / "out")]) == EXIT_OK

    def test_empty_n_list_exits_2(self, tmp_path):
        cfg = write_config(
            tmp_path,
            "ank.json",
            {
                "command": "scan-ank",
                "distribution": {"kind": "sphere_shell"},
                "n_list": [],
                "k": 1,
                "eps": 0.2,
                "n_subspaces": 2,
                "N": 5000,
            },
        )
        assert main(["scan-ank", "--config", cfg]) == EXIT_CONFIG_ERROR

    @pytest.mark.parametrize(
        "k, n_list",
        [(1, [10, 20, 1]), (3, [10, 20, 2]), (1, [10, 20, "ten"])],
    )
    def test_bad_late_entry_exits_2_before_any_estimate(self, tmp_path, monkeypatch, k, n_list):
        def no_estimate(*args, **kwargs):
            raise AssertionError("estimated before every n was validated")

        monkeypatch.setattr("cltbounds.subspaces.estimate_Ank", no_estimate)
        cfg = write_config(
            tmp_path,
            "ank.json",
            {
                "command": "scan-ank",
                "distribution": {"kind": "sphere_shell"},
                "n_list": n_list,
                "k": k,
                "eps": 0.2,
                "n_subspaces": 2,
                "N": 5000,
            },
        )
        assert main(["scan-ank", "--config", cfg, "--out", str(tmp_path / "out")]) == (
            EXIT_CONFIG_ERROR
        )
        assert not (tmp_path / "out").exists()


class TestShippedConfigs:
    def test_all_configs_parse_and_route(self):
        import pathlib

        config_dir = pathlib.Path(__file__).resolve().parents[1] / "configs"
        paths = sorted(config_dir.glob("*.json"))
        assert len(paths) == 8  # one per long-running acceptance criterion
        known = {"sample", "certify", "scan-ank", "diagnose", "report", "tv-exact"}
        for path in paths:
            cfg = json.loads(path.read_text())
            assert cfg["command"] in known, path.name
            if cfg["command"] == "certify":
                for entry in cfg["distributions"]:
                    ns = entry["n"] if isinstance(entry["n"], list) else [entry["n"]]
                    for n in ns:
                        spec = DistributionSpec.from_dict({**entry, "n": n})
                        applicable_route(spec)  # must not raise
                assert cfg["N"] >= 10**6
                assert cfg["delta"] == pytest.approx(1e-3)
            if cfg["command"] in ("scan-ank", "diagnose") and "n_list" in cfg:
                assert cfg["n_list"]


class TestCliDiagnose:
    def test_reflection_table(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            "diag.json",
            {
                "command": "diagnose",
                "experiment": "reflection",
                "distribution": {"kind": "lp_ball", "p": "inf", "n": 6},
                "frame": "standard",
                "theta": ["e1", "diagonal"],
                "N": 100000,
                "seed": 4,
            },
        )
        assert main(["diagnose", "--config", cfg, "--out", str(tmp_path / "out")]) == EXIT_OK
        rows = (tmp_path / "out" / "reflection_diagnostics.csv").read_text().splitlines()
        assert rows[0].startswith("theta,slope,expected_slope")
        assert len(rows) == 3
        out = capsys.readouterr().out
        assert "ratio=" in out

    def test_rotation_table(self, tmp_path):
        cfg = write_config(
            tmp_path,
            "rot.json",
            {
                "command": "diagnose",
                "experiment": "rotation",
                "distribution": {"kind": "sphere_shell", "n": 10},
                "eps_list": [0.2],
                "N": 50000,
                "seed": 5,
            },
        )
        assert main(["diagnose", "--config", cfg, "--out", str(tmp_path / "out")]) == EXIT_OK
        rows = (tmp_path / "out" / "rotation_diagnostics.csv").read_text().splitlines()
        assert rows[0] == "eps,r1,r1_se,r2,r2_se,r3,r3_se"
        assert len(rows) == 2

    def test_square_correlation_table(self, tmp_path):
        cfg = write_config(
            tmp_path,
            "sq.json",
            {
                "command": "diagnose",
                "experiment": "square-correlation",
                "n_list": [5, 10],
                "N": 100000,
                "seed": 6,
            },
        )
        assert main(["diagnose", "--config", cfg, "--out", str(tmp_path / "out")]) == EXIT_OK
        rows = (tmp_path / "out" / "square_correlation.csv").read_text().splitlines()
        assert len(rows) == 3
        # covariance positive for this law even at modest N
        cov = float(rows[1].split(",")[1])
        assert cov > 0

    @pytest.mark.parametrize(
        "change",
        [
            {"theta": ["e1", "sideways"]},
            {"frame": "hexagonal"},
            {"theta": []},
            {"theta": "e1"},
            # frames whose reflections do not map the law onto itself
            {"distribution": {"kind": "simplex", "n": 6}},
            {"distribution": {"kind": "lp_ball", "p": 1.0, "n": 6}, "frame": "simplex-edges"},
            {"distribution": {"kind": "lp_surface", "p": 3.0, "n": 6}},
            {"N": 1},  # no regression of W - W' on W from one row
            {"distribution": {"kind": "sphere_shell", "n": 6}, "frame": "simplex-edges"},
        ],
    )
    def test_bad_reflection_config_exits_2_before_sampling(self, tmp_path, monkeypatch, change):
        def no_sampling(*args, **kwargs):
            raise AssertionError("sampled before the frame and thetas were validated")

        monkeypatch.setattr("cltbounds.subspaces.map_frame_blocks", no_sampling)
        payload = {
            "command": "diagnose",
            "experiment": "reflection",
            "distribution": {"kind": "lp_ball", "p": "inf", "n": 6},
            "frame": "standard",
            "theta": ["e1"],
            "N": 1000,
            **change,
        }
        cfg = write_config(tmp_path, "diag.json", payload)
        assert main(["diagnose", "--config", cfg, "--out", str(tmp_path / "out")]) == (
            EXIT_CONFIG_ERROR
        )
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("frame", [None, "simplex-edges"])
    def test_simplex_reflection_takes_the_frame_of_its_law(self, tmp_path, frame):
        # the frame may be left out or name the law's frame: the same run
        payload = {
            "command": "diagnose",
            "experiment": "reflection",
            "distribution": {"kind": "simplex", "n": 6},
            "theta": ["e1", "diagonal"],
            "N": 20000,
            "seed": 7,
        }
        if frame is not None:
            payload["frame"] = frame
        cfg = write_config(tmp_path, "diag.json", payload)
        assert main(["diagnose", "--config", cfg, "--out", str(tmp_path / "out")]) == EXIT_OK
        rows = (tmp_path / "out" / "reflection_diagnostics.csv").read_text().splitlines()
        assert len(rows) == 3
        ratio = float(rows[1].split(",")[3])  # slope_over_expected
        assert abs(ratio - 1.0) < 0.2

    @pytest.mark.parametrize("eps_list", [[0.7], [], [0.2, "wide"]])
    def test_bad_rotation_config_exits_2_before_sampling(self, tmp_path, monkeypatch, eps_list):
        def no_sampling(*args, **kwargs):
            raise AssertionError("sampled before eps_list was validated")

        monkeypatch.setattr("cltbounds.subspaces._reduced_spherical_block", no_sampling)
        payload = {
            "command": "diagnose",
            "experiment": "rotation",
            "distribution": {"kind": "sphere_shell", "n": 10},
            "eps_list": eps_list,
            "N": 1000,
        }
        cfg = write_config(tmp_path, "rot.json", payload)
        assert main(["diagnose", "--config", cfg, "--out", str(tmp_path / "out")]) == (
            EXIT_CONFIG_ERROR
        )
        assert not (tmp_path / "out").exists()

    def test_rotation_with_one_sample_exits_2_before_sampling(self, tmp_path, monkeypatch):
        def no_sampling(*args, **kwargs):
            raise AssertionError("sampled before N was validated")

        monkeypatch.setattr("cltbounds.subspaces._reduced_spherical_block", no_sampling)
        payload = {
            "command": "diagnose",
            "experiment": "rotation",
            "distribution": {"kind": "sphere_shell", "n": 10},
            "N": 1,
        }
        cfg = write_config(tmp_path, "rot.json", payload)
        assert main(["diagnose", "--config", cfg, "--out", str(tmp_path / "out")]) == (
            EXIT_CONFIG_ERROR
        )
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "experiment, distribution",
        [
            ("rotation", {"kind": "lp_ball", "p": "inf", "n": 50}),
            ("rotation", {"kind": "lp_surface", "p": 3.0, "n": 10}),
            ("square-correlation", {"kind": "lp_surface", "p": 3.0}),
        ],
    )
    def test_law_the_experiment_cannot_use_exits_2_before_sampling(
        self, tmp_path, monkeypatch, capsys, experiment, distribution
    ):
        def no_sampling(*args, **kwargs):
            raise AssertionError("sampled before the law was validated")

        monkeypatch.setattr("cltbounds.subspaces._reduced_spherical_block", no_sampling)
        monkeypatch.setattr("cltbounds.empirical.streaming_pair_square_covariance", no_sampling)
        payload = {
            "command": "diagnose",
            "experiment": experiment,
            "distribution": distribution,
            "n_list": [10, 20],
            "N": 10**6,
        }
        cfg = write_config(tmp_path, "diag.json", payload)
        assert main(["diagnose", "--config", cfg, "--out", str(tmp_path / "out")]) == (
            EXIT_CONFIG_ERROR
        )
        assert not (tmp_path / "out").exists()
        assert "config error" in capsys.readouterr().err

    def test_unknown_experiment_exits_2(self, tmp_path):
        cfg = write_config(
            tmp_path, "bad.json", {"command": "diagnose", "experiment": "astrology"}
        )
        assert main(["diagnose", "--config", cfg]) == EXIT_CONFIG_ERROR
