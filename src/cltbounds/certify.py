"""The certification predicate: pair each distribution with its applicable
theoretical bound, measure the empirical distance, and record a verdict.

Each spec's projections onto the grid's thetas are drawn once, block by
block, through ``samplers.map_projection_blocks``; neither the (N, n) batch
nor the (D, N) projections are held.  Each block's projections are added
to the (D, ``empirical.KS_COUNTS``) counts of the one count grid
(``empirical.add_ks_counts``) as they are drawn, so what a group holds
does not grow with N, and each estimate is read from a row of counts: the
Kolmogorov statistic, or on a spherical spec the histogram total
variation.  Spherically symmetric specs, and the lp ball and cone at p = 2,
draw the projections from their exact reduced law (r = min(n, T) normals,
a chi-square and a radius per row) and never fill an n-dimensional row;
the simplex projects its exponentials before forming the point; the other
lp specs at finite p project their generalized-Gaussian rows before
scaling them; every other spec projects its sample rows.  Each of these
fills goes through the samplers' one chunk driver, which draws and projects
``CHUNK_ROWS`` rows at a time, so beside its counts and one block of
projections a worker holds two (CHUNK_ROWS, n) chunks at most, not a block
of rows.

An lp ball and an lp cone at the same n and the same finite p != 2 are
one stream (``samplers.stream_groups``): their generalized-Gaussian block
is filled and projected once, and both sample with ``derive_seed(seed,
pos)`` at the position of whichever of the two the grid lists first.
Every other spec samples with the seed of its own position.  The streams are evaluated
largest n first, and the reports keep the order of the specs.

Kolmogorov routes pass when (point estimate - DKW slack) <= bound, the
point estimate being the grid statistic K_lo of
``empirical.kolmogorov_from_counts``, at most the exact Kolmogorov
distance of the sample, so a cell fails only where the exact statistic
fails too; its ``upper_estimate`` K_hi is at least that distance.  Total
variation routes compare the histogram estimate against bound + a fixed
estimator allowance.  The bounds hold for isotropic vectors, which every
spec is, and carry the source's explicit constants, so no setting changes a
gating bound.  A cell reports the one bound that gates it, chosen in one
place (``_gating_bound``) on exact inputs: ``exact.exact_moments`` and
``exact.exact_norm_sq_std``.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass

import numpy as np

from .bounds import (
    BoundValue,
    VARIANT_STD_DEV,
    bound_simplex,
    bound_sph_symm,
    bound_unconditional,
)
from .contract import REPORT_SCHEMA, InapplicableBoundError, version_string
from .core import InsufficientDataError, thread_map
from .empirical import (
    DEFAULT_DELTA,
    HISTOGRAM_MIN_SAMPLES,
    KS_COUNTS,
    KS_MIN_SAMPLES,
    DistanceEstimate,
    add_ks_counts,
    kolmogorov_from_counts,
    tv_from_counts,
)
from .exact import (
    SPHERICAL_KINDS,
    UNCONDITIONAL_KINDS,
    DistributionSpec,
    Kind,
    exact_moments,
    exact_norm_sq_std,
)
from .samplers import derive_seed, map_projection_blocks, stream_groups

__all__ = [
    "BoundReport",
    "InapplicableBoundError",
    "REPORT_SCHEMA",
    "TV_ESTIMATOR_ALLOWANCE",
    "applicable_route",
    "certify_cell",
    "certify_grid",
    "reports_to_csv",
    "reports_to_json",
    "resolve_theta",
    "version_string",
]

TV_ESTIMATOR_ALLOWANCE = 0.02

ROUTE_UNCONDITIONAL = "unconditional"
ROUTE_SIMPLEX = "simplex"
ROUTE_SPHERICAL = "spherical"


def applicable_route(spec: DistributionSpec) -> str:
    """The certification route of spec."""
    if spec.kind is Kind.SIMPLEX:
        return ROUTE_SIMPLEX
    if spec.kind in SPHERICAL_KINDS:
        return ROUTE_SPHERICAL
    if spec.kind in UNCONDITIONAL_KINDS:
        return ROUTE_UNCONDITIONAL
    raise InapplicableBoundError(
        f"no explicit-constant bound applies to kind {spec.kind.value!r} "
        "(surface-measure batches are weighted, and the source gives their "
        "bounds no explicit constants)"
    )


def resolve_theta(theta_spec, n: int) -> tuple[np.ndarray, str]:
    """Turn a config theta description into a unit vector plus a label.

    Accepted: "e1", "diagonal", "random(<seed>)", or an explicit vector
    (normalized if needed).
    """
    if isinstance(theta_spec, str):
        name = theta_spec.strip()
        if name == "e1":
            theta = np.zeros(n)
            theta[0] = 1.0
            return theta, "e1"
        if name == "diagonal":
            return np.full(n, n**-0.5), "diagonal"
        if name.startswith("random(") and name.endswith(")"):
            seed = int(name[len("random(") : -1])
            rng = np.random.default_rng(seed)
            theta = rng.standard_normal(n)
            theta /= np.linalg.norm(theta)
            return theta, name
        raise ValueError(f"unknown theta specification {theta_spec!r}")
    theta = np.asarray(theta_spec, dtype=float)
    if theta.shape != (n,):
        raise ValueError(f"explicit theta must have length {n}, got shape {theta.shape}")
    if not np.all(np.isfinite(theta)):
        raise ValueError("explicit theta entries must be finite")
    nrm = float(np.linalg.norm(theta))
    if nrm <= 0.0:
        raise ValueError("explicit theta must be nonzero")
    return theta / nrm, "explicit"


@dataclass(frozen=True)
class BoundReport:
    """One certification cell: a (distribution, theta, n) triple."""

    spec: DistributionSpec
    theta_label: str
    n: int
    N: int
    seed: int
    delta: float
    bound_name: str
    bound: BoundValue
    empirical: DistanceEstimate
    passed: bool
    vacuous: bool
    margin: float  # bound - adjusted empirical; nonnegative iff passed
    notes: tuple[str, ...] = ()

    def to_dict(self) -> dict:
        return {
            "spec": self.spec.to_dict(),
            "theta": self.theta_label,
            "n": self.n,
            "N": self.N,
            "seed": self.seed,
            "delta": self.delta,
            "bound_name": self.bound_name,
            "bound": self.bound.to_dict(),
            "empirical": self.empirical.to_dict(),
            "passed": self.passed,
            "vacuous": self.vacuous,
            "margin": self.margin,
            "notes": list(self.notes),
        }


def _gating_bound(spec: DistributionSpec, route: str, theta) -> tuple[str, BoundValue]:
    """The name and value of the bound that gates spec's cell on theta, on
    ``route``.  Every bound input is exact."""
    if route == ROUTE_SPHERICAL:
        statistic = exact_norm_sq_std(spec)
        return "spherical-std-dev[exact]", bound_sph_symm(spec.n, VARIANT_STD_DEV, statistic)
    if route == ROUTE_SIMPLEX:
        return "simplex-assembled", bound_simplex(theta)
    return "unconditional[exact]", bound_unconditional(theta, *exact_moments(spec))


def _evaluate_cell(
    spec: DistributionSpec,
    route: str,
    theta: np.ndarray,
    theta_label: str,
    empirical: DistanceEstimate,
    seed: int,
    delta: float,
) -> BoundReport:
    """The certification predicate for one cell, given the empirical
    distance of its projections."""
    bound_name, bound = _gating_bound(spec, route, theta)
    if route == ROUTE_SPHERICAL:
        adjusted = empirical.point_estimate - TV_ESTIMATOR_ALLOWANCE
        vacuous = bound.value >= 2.0
        notes = [f"tv-allowance={TV_ESTIMATOR_ALLOWANCE}"]
    else:
        adjusted = empirical.point_estimate - empirical.dkw_slack
        vacuous = bound.value >= 1.0
        notes = ["vacuous bound, trivially passes"] if vacuous else []

    passed = adjusted <= bound.value
    return BoundReport(
        spec=spec,
        theta_label=theta_label,
        n=spec.n,
        N=empirical.n_samples,
        seed=seed,
        delta=delta,
        bound_name=bound_name,
        bound=bound,
        empirical=empirical,
        passed=bool(passed),
        vacuous=bool(vacuous),
        margin=float(bound.value - adjusted),
        notes=tuple(notes),
    )


def certify_cell(
    spec: DistributionSpec,
    theta_spec,
    N: int,
    seed: int,
    delta: float = DEFAULT_DELTA,
) -> BoundReport:
    """Evaluate the certification predicate for one (spec, theta) cell: the
    one-cell grid."""
    return certify_grid([spec], [theta_spec], N, seed, delta)[0]


def certify_grid(
    specs,
    theta_specs,
    N: int,
    seed: int,
    delta: float = DEFAULT_DELTA,
    workers: int = 1,
) -> list[BoundReport]:
    """Certify every (spec, theta) cell from one streamed pass over each
    stream of samples.

    The specs draw in the groups of ``samplers.stream_groups``: the lp ball
    and the lp cone at the same n and the same finite p != 2 share one
    generalized-Gaussian stream, every other spec draws its own.  The cells
    of a group sample with ``derive_seed(seed, pos)``, pos the position of
    the group's first spec, the ``seed`` their reports carry; each spec's
    projections are those of ``sample_projections(spec, thetas, N, seed)``
    at that seed, so the grid is reproducible regardless of evaluation
    order.  Only their counts on the grid of ``empirical.add_ks_counts``
    are kept, one (k T, ``KS_COUNTS``) table per group summed block by
    block, and each row is read by its route's reader: ``tv_from_counts``
    on a spherical spec, else ``kolmogorov_from_counts``.  The groups are
    evaluated largest n first (a stable sort), on a thread pool when
    ``workers > 1``; the reports come back in the order of specs, bit for
    bit those of the serial run.  Before any draw, each spec in turn
    checks its route and N against the minimum of the route's
    estimator (``InsufficientDataError``), and then every theta is resolved
    at every n of the grid (``resolve_theta``'s ValueError).
    """
    specs = list(specs)
    routes = []
    for spec in specs:
        routes.append(applicable_route(spec))
        least = HISTOGRAM_MIN_SAMPLES if routes[-1] == ROUTE_SPHERICAL else KS_MIN_SAMPLES
        if N < least:
            raise InsufficientDataError(
                f"{spec.kind.value} cells need at least {least} samples, got N={N}"
            )
    thetas_of = {}  # n -> the resolved thetas, every one before the first draw
    for spec in specs:
        if spec.n not in thetas_of:
            thetas_of[spec.n] = [resolve_theta(theta_spec, spec.n) for theta_spec in theta_specs]

    def certify_group(group: tuple[int, ...]) -> list[list[BoundReport]]:
        cell_seed = derive_seed(seed, group[0])
        members = [specs[pos] for pos in group]
        resolved = thetas_of[members[0].n]
        thetas = np.column_stack([theta for theta, _ in resolved])
        counts = np.zeros((len(members) * len(resolved), KS_COUNTS), dtype=np.int64)
        map_projection_blocks(members, thetas, N, cell_seed,
                              lambda rows, block: add_ks_counts(counts, block))
        spherical = routes[group[0]] == ROUTE_SPHERICAL  # a group of one spec
        estimates = [[tv_from_counts(row) if spherical else kolmogorov_from_counts(row, delta)
                      for row in rows]
                     for rows in counts.reshape(len(members), len(resolved), -1)]
        return [
            [
                _evaluate_cell(specs[pos], routes[pos], theta, label, empirical, cell_seed, delta)
                for (theta, label), empirical in zip(resolved, spec_estimates)
            ]
            for pos, spec_estimates in zip(group, estimates)
        ]

    groups = sorted(stream_groups(specs), key=lambda group: -specs[group[0]].n)
    per_spec = {
        pos: reports
        for group, per_member in zip(groups, thread_map(certify_group, groups, workers))
        for pos, reports in zip(group, per_member)
    }
    return [report for pos in range(len(specs)) for report in per_spec[pos]]


def reports_to_json(reports, path, config: dict | None = None) -> None:
    payload = {
        "schema": REPORT_SCHEMA,
        "version": version_string(),
        "config": config or {},
        "reports": [r.to_dict() for r in reports],
        "all_passed": all(r.passed for r in reports),
    }
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2)


def reports_to_csv(reports, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            [
                "kind", "p", "n", "theta", "N", "seed", "delta", "bound_name",
                "bound_kind", "bound", "empirical", "slack", "margin",
                "passed", "vacuous", "flags",
            ]
        )
        for r in reports:
            writer.writerow(
                [
                    r.spec.kind.value,
                    r.spec.p if r.spec.p is not None else "",
                    r.n,
                    r.theta_label,
                    r.N,
                    r.seed,
                    r.delta,
                    r.bound_name,
                    r.bound.kind,
                    f"{r.bound.value:.6g}",
                    f"{r.empirical.point_estimate:.6g}",
                    f"{r.empirical.dkw_slack:.6g}" if r.empirical.dkw_slack is not None else "",
                    f"{r.margin:.6g}",
                    int(r.passed),
                    int(r.vacuous),
                    ";".join(r.bound.flags),
                ]
            )
