"""Closed-form evaluation of the paper's normal-approximation error bounds.
The closed forms of the laws they read (moments, scales) and the exact laws
of the projections, which check these bounds, are in ``exact``.

Kolmogorov-type bounds control sup_t |P[W <= t] - Phi(t)| for W = <X, theta>;
total-variation bounds use the L1-of-densities convention (twice the sup
over measurable sets).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from .core import as_unit_vector, lp_norm
# exact_tv_vs_normal stays importable here: perfbench/tracer.py looks it up in bounds by name
from .exact import exact_tv_vs_normal, simplex_kappa
from .frames import simplex_projections

__all__ = [
    "BoundInputs",
    "BoundValue",
    "DensePairMoments",
    "KOLMOGOROV",
    "SimplexPairMoments",
    "TOTAL_VARIATION",
    "bound_frame_bounded",
    "bound_frame_general",
    "bound_poincare",
    "bound_simplex",
    "bound_sncp_bounded",
    "bound_sph_symm",
    "bound_unconditional",
    "bound_unconditional_bounded",
]

KOLMOGOROV = "kolmogorov"
TOTAL_VARIATION = "total-variation"

# constants of the frame-reflection bound
FRAME_SQRT_COEFF = 2.0
FRAME_THIRD_COEFF = (8.0 / math.pi) ** 0.25
FRAME_BOUNDED_SQRT_COEFF = 24.0
FRAME_BOUNDED_SUP_COEFF = 172.0
SNCP_BOUNDED_COEFF = 196.0

FLAG_RADICAND_CLAMPED = "radicand-clamped-at-zero"


@dataclass(frozen=True)
class BoundValue:
    """A bound evaluation: the number, which metric it bounds, and provenance."""

    value: float
    kind: str
    constants_used: Mapping[str, object] = field(default_factory=dict)
    flags: tuple[str, ...] = ()

    def __post_init__(self):
        if self.value < 0.0 or not math.isfinite(self.value):
            raise ValueError(f"bound value must be finite and nonnegative, got {self.value}")

    def to_dict(self) -> dict:
        return {
            "value": self.value,
            "kind": self.kind,
            "constants_used": dict(self.constants_used),
            "flags": list(self.flags),
        }


class DensePairMoments:
    """Pairwise square moments E[X_(i)^2 X_(j)^2] as a dense (m, m) table."""

    def __init__(self, table):
        table = np.asarray(table, dtype=float)
        if table.ndim != 2 or table.shape[0] != table.shape[1]:
            raise ValueError(f"expected a square table, got shape {table.shape}")
        if not np.isfinite(table).all():  # NaN would pass both checks below
            raise ValueError("pair moments must be finite")
        if np.abs(table - table.T).max() > 1e-9 * max(1.0, np.abs(table).max()):
            raise ValueError("pair-moment table must be symmetric")
        if table.min() < 0.0:
            raise ValueError("pair moments must be nonnegative")
        self.table = table
        self.m = table.shape[0]

    def quadratic_form(self, theta_sq: np.ndarray) -> float:
        """sum_{ij} theta_(i)^2 theta_(j)^2 E[X_(i)^2 X_(j)^2]."""
        return float(theta_sq @ self.table @ theta_sq)


class SimplexPairMoments:
    """Pairwise square moments of the simplex edge frame, in O(m) space.

    The m^2 = n^2(n+1)^2 table entries take only three values, keyed by the
    vertex overlap of the two ordered pairs, so the quadratic form collapses
    to per-vertex accumulations:

        sum = kappa * (T^2 + 2 * sum_a s_a^2 + 2 * sum_P q_P^2),

    with q_P = theta_(P)^2, T = sum q, s_a = sum over pairs containing a,
    and kappa = ``exact.simplex_kappa(n)``.
    """

    def __init__(self, n: int, edge_pairs: np.ndarray):
        self.n = n
        self.pairs = np.asarray(edge_pairs, dtype=np.intp)
        self.m = len(self.pairs)
        if self.m != n * (n + 1):
            raise ValueError(f"expected {n * (n + 1)} ordered pairs, got {self.m}")

    def quadratic_form(self, theta_sq: np.ndarray) -> float:
        q = np.asarray(theta_sq, dtype=float)
        if q.shape != (self.m,):
            raise ValueError(f"expected {self.m} squared coefficients, got shape {q.shape}")
        total = q.sum()
        s = np.zeros(self.n + 1)
        np.add.at(s, self.pairs[:, 0], q)
        np.add.at(s, self.pairs[:, 1], q)
        return float(simplex_kappa(self.n) * (total * total + 2.0 * (s @ s) + 2.0 * (q @ q)))


@dataclass(frozen=True)
class BoundInputs:
    """Everything the frame-reflection bound consumes.

    ``pair_moments`` is a DensePairMoments or a SimplexPairMoments; a dense
    (m, m) array is checked and wrapped in a DensePairMoments at construction.
    ``third_abs_max`` is max_i E|X_(i)|^3; ``sup_bound`` is an almost-sure
    bound on max_i |X_(i)| for the bounded variant.
    """

    n: int
    m: int
    theta_coeffs: np.ndarray
    pair_moments: DensePairMoments | SimplexPairMoments
    third_abs_max: float | None = None
    sup_bound: float | None = None

    def __post_init__(self):
        coeffs = np.asarray(self.theta_coeffs, dtype=float)
        if coeffs.shape != (self.m,):
            raise ValueError(f"expected {self.m} coefficients, got shape {coeffs.shape}")
        parseval = float(coeffs @ coeffs)
        target = self.m / self.n
        if abs(parseval - target) > 1e-9 * max(1.0, target):
            raise ValueError(
                f"coefficients violate the tight-frame identity: "
                f"sum of squares {parseval!r}, expected {target!r}"
            )
        object.__setattr__(self, "theta_coeffs", coeffs)
        if not isinstance(self.pair_moments, (DensePairMoments, SimplexPairMoments)):
            object.__setattr__(self, "pair_moments", DensePairMoments(self.pair_moments))
        if self.pair_moments.m != self.m:
            raise ValueError(
                f"pair moments cover {self.pair_moments.m} frame vectors, expected {self.m}"
            )


def _radicand(inputs: BoundInputs) -> tuple[float, tuple[str, ...]]:
    q = inputs.theta_coeffs**2
    s = inputs.pair_moments.quadratic_form(q)
    radicand = (inputs.n / inputs.m) ** 2 * s - 1.0
    if radicand < 0.0:
        return 0.0, (FLAG_RADICAND_CLAMPED,)
    return radicand, ()


def bound_frame_general(inputs: BoundInputs) -> BoundValue:
    """Kolmogorov bound from frame pair moments and third absolute moments.

    Slightly negative radicands (Monte Carlo noise in estimated moments)
    clamp to zero and are flagged rather than raising.
    """
    if inputs.third_abs_max is None:
        raise ValueError("third_abs_max is required for the general bound")
    radicand, flags = _radicand(inputs)
    third_sum = float(np.sum(np.abs(inputs.theta_coeffs) ** 3))
    second = FRAME_THIRD_COEFF * math.sqrt(
        (inputs.n / inputs.m) * inputs.third_abs_max * third_sum
    )
    return BoundValue(
        value=FRAME_SQRT_COEFF * math.sqrt(radicand) + second,
        kind=KOLMOGOROV,
        flags=flags,
    )


def bound_frame_bounded(inputs: BoundInputs) -> BoundValue:
    """Variant for frames with almost-surely bounded coefficients."""
    if inputs.sup_bound is None:
        raise ValueError("sup_bound is required for the bounded bound")
    radicand, flags = _radicand(inputs)
    a = inputs.sup_bound
    sup_term = (
        FRAME_BOUNDED_SUP_COEFF
        * inputs.n
        * a**3
        * float(np.max(np.abs(inputs.theta_coeffs))) ** 3
    )
    return BoundValue(
        value=FRAME_BOUNDED_SQRT_COEFF * math.sqrt(radicand) + sup_term,
        kind=KOLMOGOROV,
        flags=flags,
    )


def _uncon_radicand(theta: np.ndarray, max_fourth: float, max_sq_cov: float):
    radicand = max_fourth * lp_norm(theta, 4.0) ** 4 + max_sq_cov
    if radicand < 0.0:
        return 0.0, (FLAG_RADICAND_CLAMPED,)
    return radicand, ()


def bound_unconditional(
    theta, max_fourth: float, max_sq_cov: float, max_third_abs: float
) -> BoundValue:
    """Kolmogorov bound for coordinatewise-symmetric isotropic vectors."""
    theta = as_unit_vector(theta)
    radicand, flags = _uncon_radicand(theta, max_fourth, max_sq_cov)
    value = FRAME_SQRT_COEFF * math.sqrt(radicand) + FRAME_THIRD_COEFF * math.sqrt(
        max_third_abs
    ) * lp_norm(theta, 3.0) ** 1.5
    return BoundValue(value=value, kind=KOLMOGOROV, flags=flags)


def bound_unconditional_bounded(
    theta, max_fourth: float, max_sq_cov: float, a: float
) -> BoundValue:
    """Bounded-support variant: coordinates confined to [-a, a]."""
    theta = as_unit_vector(theta)
    n = theta.size
    radicand, flags = _uncon_radicand(theta, max_fourth, max_sq_cov)
    value = FRAME_BOUNDED_SQRT_COEFF * math.sqrt(radicand) + (
        FRAME_BOUNDED_SUP_COEFF * n * a**3 * lp_norm(theta, math.inf) ** 3
    )
    return BoundValue(value=value, kind=KOLMOGOROV, flags=flags)


def bound_sncp_bounded(theta, a: float) -> BoundValue:
    """Square-negative-correlation + bounded support: 196 n a^3 ||theta||_inf^3."""
    theta = as_unit_vector(theta)
    if a < 1.0:
        raise ValueError(f"isotropy forces the coordinate bound a >= 1, got {a}")
    n = theta.size
    value = SNCP_BOUNDED_COEFF * n * a**3 * lp_norm(theta, math.inf) ** 3
    return BoundValue(value=value, kind=KOLMOGOROV, constants_used={"a": a})


def _simplex_assembled_pieces(n: int) -> tuple[float, float, float]:
    """Explicit coefficients (alpha, beta, gamma) of the assembled simplex bound.

    Derived by chaining the exact edge-coefficient identities through the
    frame bound: the first error term is 2 sqrt(alpha * sum t_i^4 + beta)
    and the second is gamma * sqrt(sum |t_i|^3), where t_i = <theta, v_i>.
    """
    alpha = simplex_kappa(n) * (8 * n + 10) * n**2 / (2.0 * (n + 1) ** 3)
    beta = (16.0 * n**2 + 50.0 * n + 40.0) / (2.0 * (n + 1) * (n + 3) * (n + 4))
    third_moment_bound = 3.0 * math.sqrt(2.0) * math.sqrt((n + 1) * (n + 2)) / (n + 3)
    # ell_3 triangle inequality over ordered pairs:
    #   sum |theta_(ij)|^3 <= 2^(3/2) n^(3/2) (n+1)^(-1/2) sum |t_i|^3
    fold = 2.0**1.5 * n**1.5 / math.sqrt(n + 1)
    gamma = FRAME_THIRD_COEFF * math.sqrt(third_moment_bound * fold / (n + 1))
    return alpha, beta, gamma


def bound_simplex(theta) -> BoundValue:
    """Kolmogorov bound c * sqrt(sum_i |<theta, v_i>|^3) for the simplex law.

    The constant is assembled from the explicit moment identities of the
    edge frame (valid for every n and theta); ``c1_effective`` records it.
    """
    theta = as_unit_vector(theta)
    t = simplex_projections(theta)
    third = float(np.sum(np.abs(t) ** 3))
    alpha, beta, gamma = _simplex_assembled_pieces(theta.size)
    fourth = float(np.sum(t**4))
    value = 2.0 * math.sqrt(alpha * fourth + beta) + gamma * math.sqrt(third)
    c1_eff = value / math.sqrt(third) if third > 0.0 else math.inf
    return BoundValue(
        value=value,
        kind=KOLMOGOROV,
        constants_used={"c1_effective": c1_eff, "mode": "assembled"},
    )


VARIANT_CONDITIONAL_L1 = "conditional-l1"
VARIANT_ABS_DEVIATION = "abs-deviation"
VARIANT_STD_DEV = "std-dev"

_SPH_SYMM_VARIANTS = (VARIANT_CONDITIONAL_L1, VARIANT_ABS_DEVIATION, VARIANT_STD_DEV)


def bound_sph_symm(n: int, variant: str, statistic: float) -> BoundValue:
    """Total-variation bound for spherically symmetric isotropic vectors.

    variant selects which concentration statistic is supplied:
      conditional-l1:  E|1 - E[X_2^2 | X_1]|        -> 4 * statistic
      abs-deviation:   E| ||X||^2 - n |             -> 4s/(n-1) + 8/(n-1)
      std-dev:         sqrt(Var ||X||^2)            -> 4s/(n-1) + 8/(n-1)
    """
    if variant not in _SPH_SYMM_VARIANTS:
        raise ValueError(f"unknown variant {variant!r}; expected one of {_SPH_SYMM_VARIANTS}")
    if statistic < 0.0:
        raise ValueError(f"statistic must be nonnegative, got {statistic}")
    if n < 2:
        raise ValueError(f"dimension must be at least 2, got {n}")
    if variant == VARIANT_CONDITIONAL_L1:
        value = 4.0 * statistic
    else:
        value = 4.0 * statistic / (n - 1) + 8.0 / (n - 1)
    return BoundValue(
        value=value,
        kind=TOTAL_VARIATION,
        constants_used={"variant": variant, "statistic": statistic},
    )


def bound_poincare(n: int, lambda1: float) -> BoundValue:
    """Total-variation bound 10/sqrt(n * lambda1) from a spectral gap.

    Only informative for n > 25 (below that the derivation yields nothing
    beyond the trivial bound), and lambda1 <= 1 for isotropic vectors.
    """
    if n <= 25:
        raise ValueError(f"the spectral-gap route requires n > 25, got n={n}")
    if not (0.0 < lambda1 <= 1.0):
        raise ValueError(f"lambda1 must lie in (0, 1] for isotropic vectors, got {lambda1}")
    return BoundValue(
        value=10.0 / math.sqrt(n * lambda1),
        kind=TOTAL_VARIATION,
        constants_used={"lambda1": lambda1},
    )
