"""The certification predicate: pair each distribution with its applicable
theoretical bound, measure the empirical distance, and record a verdict.

Each spec's projections onto the grid's thetas are drawn once, block by
block, through ``samplers.sample_projections``; the (N, n) batch is never
held.  Spherically symmetric specs, and the lp ball and cone at p = 2,
draw the projections from their exact reduced law (r = min(n, T) normals,
a chi-square and a radius per row) and never fill an n-dimensional row;
the simplex projects its exponentials before forming the point; every
other spec projects its sample blocks.

Kolmogorov routes pass when (point estimate - DKW slack) <= bound; total
variation routes compare the histogram estimate against bound + a fixed
estimator allowance.  The bounds hold for isotropic vectors, which every
spec is, and carry the source's explicit constants, so no setting changes a
gating bound.  Bounds whose leading constants the source analysis leaves
non-explicit never gate a verdict; they are attached informationally.
"""

from __future__ import annotations

import csv
import functools
import json
import subprocess
from dataclasses import dataclass

import numpy as np

from . import __version__
from .bounds import (
    BoundValue,
    TOTAL_VARIATION,
    VARIANT_STD_DEV,
    bound_lp,
    bound_poincare,
    bound_simplex,
    bound_sncp_bounded,
    bound_sph_symm,
    bound_unconditional,
    bound_unconditional_bounded,
)
from .core import thread_map
from .empirical import (
    DEFAULT_DELTA,
    DistanceEstimate,
    kolmogorov_vs_normal,
    tv_vs_normal_histogram,
)
from .frames import simplex_geometry
from .samplers import (
    DistributionSpec,
    Kind,
    SPHERICAL_KINDS,
    UNCONDITIONAL_KINDS,
    _exact_norm_sq_std,
    derive_seed,
    exact_moments,
    sample_projections,
)

__all__ = [
    "BoundReport",
    "InapplicableBoundError",
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


class InapplicableBoundError(ValueError):
    """No theoretical bound with explicit constants applies to this spec."""


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
        "(surface-measure batches are weighted; their bounds carry "
        "non-explicit constants and are reported informationally only)"
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
    informational: tuple = ()
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
            "informational": [
                {"name": name, **bv.to_dict()} for name, bv in self.informational
            ],
            "notes": list(self.notes),
        }


def _evaluate_cell(
    spec: DistributionSpec,
    route: str,
    theta: np.ndarray,
    theta_label: str,
    values: np.ndarray,
    seed: int,
    delta: float,
) -> BoundReport:
    """The certification predicate for one cell, given its projections.
    Every bound input is exact."""
    n = spec.n
    notes: list[str] = []
    informational: list[tuple[str, BoundValue]] = []

    if route == ROUTE_SPHERICAL:
        bound = bound_sph_symm(n, VARIANT_STD_DEV, _exact_norm_sq_std(spec))
        bound_name = "spherical-std-dev[exact]"
        paper_a = 8.0 if spec.kind is Kind.SPHERE_SHELL else 16.0
        informational.append(
            (
                "spherical-fixed-constant",
                BoundValue(value=paper_a / (n - 1), kind=TOTAL_VARIATION,
                           constants_used={"a": paper_a}),
            )
        )
        if spec.kind is Kind.SPHERICAL_EXPONENTIAL and n > 25:
            informational.append(("poincare-spectral-gap", bound_poincare(n, 1.0 / 13.0)))
        empirical = tv_vs_normal_histogram(values)
        adjusted = empirical.point_estimate - TV_ESTIMATOR_ALLOWANCE
        vacuous = bound.value >= 2.0
        notes.append(f"tv-allowance={TV_ESTIMATOR_ALLOWANCE}")
    else:
        if route == ROUTE_SIMPLEX:
            geometry = simplex_geometry(n)
            bound = bound_simplex(theta, geometry)
            bound_name = "simplex-assembled"
        else:
            fourth, sq_cov, third_abs = exact_moments(spec)
            bound = bound_unconditional(theta, fourth, sq_cov, third_abs)
            bound_name = "unconditional[exact]"
            if spec.p is not None:  # the lp ball or cone: |x_i| <= ||x||_p <= scale
                a = spec.scale
                informational.append(
                    ("unconditional-bounded", bound_unconditional_bounded(theta, fourth, sq_cov, a))
                )
                informational.append(("sncp-bounded", bound_sncp_bounded(theta, a)))
                informational.append(("lp-two-branch", bound_lp(theta, n, spec.p)))
        empirical = kolmogorov_vs_normal(values, delta=delta)
        adjusted = empirical.point_estimate - empirical.dkw_slack
        vacuous = bound.value >= 1.0
        if vacuous:
            notes.append("vacuous bound, trivially passes")

    passed = adjusted <= bound.value
    return BoundReport(
        spec=spec,
        theta_label=theta_label,
        n=n,
        N=len(values),
        seed=seed,
        delta=delta,
        bound_name=bound_name,
        bound=bound,
        empirical=empirical,
        passed=bool(passed),
        vacuous=bool(vacuous),
        margin=float(bound.value - adjusted),
        informational=tuple(informational),
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
    spec's samples.

    The cells of the spec at position ``pos`` sample with
    ``derive_seed(seed, pos)``, the ``seed`` their reports carry, so the grid
    is reproducible regardless of evaluation order; with ``workers > 1``
    specs are certified on a thread pool and the reports are bit for bit
    those of the serial run.
    """

    def certify_spec(pos: int, spec: DistributionSpec) -> list[BoundReport]:
        cell_seed = derive_seed(seed, pos)
        route = applicable_route(spec)
        resolved = [resolve_theta(theta_spec, spec.n) for theta_spec in theta_specs]
        thetas = np.column_stack([theta for theta, _ in resolved])
        projections = sample_projections(spec, thetas, N, cell_seed)
        return [
            _evaluate_cell(spec, route, theta, label, values, cell_seed, delta)
            for (theta, label), values in zip(resolved, projections)
        ]

    per_spec = thread_map(lambda job: certify_spec(*job), enumerate(specs), workers)
    return [report for group in per_spec for report in group]


@functools.cache
def version_string() -> str:
    """git-describe when available, else the package version; the ``git``
    child runs once per process, at the first call."""
    try:
        out = subprocess.run(
            ["git", "describe", "--always", "--dirty"],
            capture_output=True,
            text=True,
            timeout=5,
        )
        if out.returncode == 0 and out.stdout.strip():
            return f"cltbounds {__version__} ({out.stdout.strip()})"
    except (OSError, subprocess.SubprocessError):
        pass
    return f"cltbounds {__version__}"


def reports_to_json(reports, path, config: dict | None = None) -> None:
    payload = {
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
