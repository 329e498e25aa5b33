"""Closed-form evaluation of the normal-approximation error bounds, the
exact simplex moment formulas, and the exact projection densities and total
variation of the kinds with closed-form marginals (``EXACT_MARGINALS``),
by Gauss-Legendre quadrature in numpy.

Kolmogorov-type bounds control sup_t |P[W <= t] - Phi(t)| for W = <X, theta>;
total-variation bounds use the L1-of-densities convention (twice the sup
over measurable sets).
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .core import as_unit_vector, lp_norm, normal_cdf_points, normal_pdf
from .frames import simplex_projections
from .samplers import Kind

__all__ = [
    "BoundInputs",
    "BoundValue",
    "DensePairMoments",
    "EXACT_MARGINALS",
    "EXACT_MARGINAL_MAX_N",
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
    "exact_kolmogorov",
    "exact_projection_density",
    "exact_tv_vs_normal",
    "has_exact_kolmogorov",
    "simplex_Y_moment",
    "simplex_pair_moment",
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
    and kappa = (n+1)(n+2)/((n+3)(n+4)).
    """

    def __init__(self, n: int, edge_pairs: np.ndarray):
        self.n = n
        self.pairs = np.asarray(edge_pairs, dtype=np.intp)
        self.m = len(self.pairs)
        if self.m != n * (n + 1):
            raise ValueError(f"expected {n * (n + 1)} ordered pairs, got {self.m}")

    @property
    def kappa(self) -> float:
        n = self.n
        return (n + 1) * (n + 2) / ((n + 3) * (n + 4))

    def quadratic_form(self, theta_sq: np.ndarray) -> float:
        q = np.asarray(theta_sq, dtype=float)
        if q.shape != (self.m,):
            raise ValueError(f"expected {self.m} squared coefficients, got shape {q.shape}")
        total = q.sum()
        s = np.zeros(self.n + 1)
        np.add.at(s, self.pairs[:, 0], q)
        np.add.at(s, self.pairs[:, 1], q)
        return float(self.kappa * (total * total + 2.0 * (s @ s) + 2.0 * (q @ q)))


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


def simplex_Y_moment(n: int, r: Sequence[int]) -> float:
    """Exact joint moment E[prod Y_i^{r_i}] of the embedded simplex vector.

    Y lives on the scaled coordinate simplex in R^{n+1}; r may list up to
    n+1 nonnegative integer exponents (trailing zeros omitted).  Evaluated
    in log space so large n and r do not overflow; within 5e-15 relative of
    40-digit mpmath for n up to 1e7 and exponents up to 5.
    """
    r = np.asarray(r, dtype=int)
    if r.ndim != 1 or len(r) > n + 1:
        raise ValueError(f"need at most {n + 1} exponents, got shape {r.shape}")
    if (r < 0).any():
        raise ValueError("exponents must be nonnegative")
    total = int(r.sum())
    if total == 0:
        return 1.0
    # ((n+1)(n+2))^(total/2) n! / (n + total)! as a product of factors
    # sqrt((n+1)(n+2)) / (n+j), each a log1p of an exact integer ratio: the
    # difference of log-Gammas near n loses digits (2.4e-10 at n = 1e5)
    base = (n + 1) * (n + 2)
    log_val = math.fsum(
        -0.5 * math.log1p(((2 * j - 3) * n + j * j - 2) / base) for j in range(1, total + 1)
    )
    return math.exp(log_val + sum(math.lgamma(k + 1) for k in r.tolist()))


def simplex_pair_moment(n: int, pair_a: tuple[int, int], pair_b: tuple[int, int]) -> float:
    """Exact E[X_(ij)^2 X_(kl)^2] for two ordered edge pairs (0-based indices)."""
    i, j = pair_a
    k, l = pair_b
    for a, b in ((i, j), (k, l)):
        if a == b:
            raise ValueError(f"edge pairs need distinct vertices, got ({a}, {b})")
        if not (0 <= a <= n and 0 <= b <= n):
            raise ValueError(f"vertex indices must lie in 0..{n}")
    overlap = len({i, j} & {k, l})
    multiplier = {0: 1.0, 1: 3.0, 2: 6.0}[overlap]
    return multiplier * (n + 1) * (n + 2) / ((n + 3) * (n + 4))


def _simplex_assembled_pieces(n: int) -> tuple[float, float, float]:
    """Explicit coefficients (alpha, beta, gamma) of the assembled simplex bound.

    Derived by chaining the exact edge-coefficient identities through the
    frame bound: the first error term is 2 sqrt(alpha * sum t_i^4 + beta)
    and the second is gamma * sqrt(sum |t_i|^3), where t_i = <theta, v_i>.
    """
    kappa = (n + 1) * (n + 2) / ((n + 3) * (n + 4))
    alpha = kappa * (8 * n + 10) * n**2 / (2.0 * (n + 1) ** 3)
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


# kinds whose projection <X, theta> has one closed-form law for every unit
# theta: kind -> (m - n, minimum n).  The law is that of the first coordinate
# of the uniform sphere of radius sqrt(m) in R^m, density
# c_m (1 - t^2/m)^((m-3)/2) on |t| < sqrt(m); the uniform ball in R^n projects
# like the sphere in R^(n+2).
EXACT_MARGINALS = {Kind.SPHERE_SHELL: (0, 3), Kind.BALL_UNIFORM: (2, 2)}

# largest n any test checks: n * TV stays within 1e-3 of its limit 0.7001 up
# to n = 1e6, where a 64-panel, 128-node rule agrees within 1e-17.  The log
# normalizer (``_log_gamma_ratio``) keeps its digits beyond, and with the cap
# lifted n * TV reads 0.700150 from n = 1e7 to 1e9, but no test covers that
EXACT_MARGINAL_MAX_N = 10**6

# crossings of the two densities are bracketed on this many grid points over
# [0, min(r, _CROSSING_REACH)], then bisected this many times; each one-signed
# piece is integrated with this many Gauss-Legendre panels and nodes per
# panel.  Past the reach both densities are below 1e-300 (the normal's
# underflows to 0 from t = 38.6), so the rest of the support is one piece
_CROSSING_GRID = 4097
_CROSSING_REACH = 40.0
_BISECTIONS = 60
_PANELS, _NODES = 8, 64


@functools.cache
def _legendre_nodes(count: int) -> tuple[np.ndarray, np.ndarray]:
    return np.polynomial.legendre.leggauss(count)


def _panel_rule(ends: np.ndarray, panels: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gauss-Legendre rule on ``panels`` equal panels of each piece
    [ends[i], ends[i+1]]: the (pieces, panels, _NODES) nodes, the
    (pieces, 1) panel half-widths and the _NODES weights, so the
    integral of f over piece i is ``(half * (f(nodes) @ w)).sum(axis=1)[i]``."""
    x, w = _legendre_nodes(_NODES)
    width = np.diff(ends)[:, None] / panels
    left = ends[:-1, None] + width * np.arange(panels)
    return left[:, :, None] + 0.5 * width[:, :, None] * (x + 1.0), 0.5 * width, w


def _log_gamma_ratio(m: int) -> float:
    """log Gamma(m/2) - log Gamma((m-1)/2).

    With x = (m-1)/2: for x < 25 the difference of ``math.lgamma`` values,
    within 7.2e-15 of 50-digit mpmath for m <= 50.  From x = 25 on, where
    that difference of two large numbers loses digits (5e-10 at m = 1e6),
    the asymptotic series of log Gamma(x + 1/2) - log Gamma(x) through
    x^-7: its truncation error is 4.4e-16 at x = 25 and falls as x^-9, and
    it is within 6e-16 of mpmath for m > 50.
    """
    x = (m - 1) / 2.0
    if x < 25.0:
        return math.lgamma(m / 2.0) - math.lgamma(x)
    y = 1.0 / (x * x)
    return 0.5 * math.log(x) + (-1 / 8 + y * (1 / 192 + y * (-1 / 640 + y * 17 / 14336))) / x


def _marginal_params(kind, n: int) -> tuple[float, float, float]:
    """(support radius^2, exponent, log normalizer) of the projection density;
    ``kind`` is a Kind or its string value."""
    if kind not in EXACT_MARGINALS:
        raise ValueError(f"no closed-form marginal for kind {kind!r}")
    shift, min_n = EXACT_MARGINALS[kind]
    if not min_n <= n <= EXACT_MARGINAL_MAX_N:
        raise ValueError(
            f"the {Kind(kind).value} marginal density formula is validated for "
            f"{min_n} <= n <= {EXACT_MARGINAL_MAX_N}, got n={n}"
        )
    m = n + shift
    log_c = _log_gamma_ratio(m) - 0.5 * math.log(m * math.pi)
    return float(m), (m - 3) / 2.0, log_c


def exact_projection_density(kind, n: int, t) -> np.ndarray | float:
    """Exact density of W = <X, theta> for the sphere-shell or ball law.

    Zero outside the support (not an error); vectorized over t.
    """
    r_sq, exponent, log_c = _marginal_params(kind, n)
    t_arr = np.asarray(t, dtype=float)
    out = np.zeros_like(t_arr, dtype=float)
    inside = t_arr * t_arr < r_sq
    out[inside] = np.exp(log_c + exponent * np.log1p(-t_arr[inside] ** 2 / r_sq))
    return float(out) if out.ndim == 0 else out


def exact_tv_vs_normal(kind, n: int) -> float:
    """Total variation (L1 of densities) between the projection law and the
    standard normal, by sign-resolved Gauss-Legendre quadrature.

    Crossings of the two densities are bracketed on a grid over
    [0, min(r, 40)] and bisected, so each piece has one sign; [40, r], where
    both densities are below 1e-300, is the last piece.  Each piece is
    integrated in phi = arcsin(t/r): the density's factor (1 - t^2/r^2)^e
    has a square-root edge at e = 1/2 (sphere n=4, ball n=2), which
    dt = r cos(phi) dphi turns into a smooth cos^(2e+1) phi.  Absolute error is below 1e-14 for both
    kinds at every validated n: the log normalizer is within 7.2e-15 of its
    exact value (``_log_gamma_ratio``), which moves the L1 distance by at
    most as much, and a 64-panel, 128-node rule agrees with this one within
    6e-17 from n = 2 to 1e6.
    """
    r_sq, _, _ = _marginal_params(kind, n)
    radius = math.sqrt(r_sq)

    def diff(t):
        return exact_projection_density(kind, n, t) - normal_pdf(t)

    reach = min(radius, _CROSSING_REACH)
    grid = np.linspace(0.0, reach, _CROSSING_GRID)
    vals = diff(grid)
    # a sign change brackets a crossing (where both densities underflow, the
    # zeros are no crossing); bisection keeps the half where f(lo) f(mid) <= 0
    at = np.flatnonzero(vals[:-1] * vals[1:] < 0.0)
    lo, hi, f_lo = grid[at], grid[at + 1], vals[at]
    for _ in range(_BISECTIONS):
        mid = 0.5 * (lo + hi)
        right = diff(mid) * f_lo > 0.0
        lo, hi = np.where(right, mid, lo), np.where(right, hi, mid)
    ends = np.concatenate([[0.0], lo, [reach], [radius] if reach < radius else []])
    ends = np.arcsin(ends / radius)
    phi, half, w = _panel_rule(ends, _PANELS)
    pieces = half * (diff(radius * np.sin(phi)) * radius * np.cos(phi) @ w)
    tail = normal_cdf_points(-radius)  # all normal mass outside the support
    return 2.0 * (float(np.abs(pieces.sum(axis=1)).sum()) + tail)


# exact_kolmogorov: the Gil-Pelaez integral runs over u in [0, U] on
# Gauss-Legendre panels of width _CF_PANEL_WIDTH; U starts at _CF_SPAN and
# doubles, at most _CF_DOUBLINGS times, until the truncation bound falls below
# _KOLMOGOROV_TOL.  Lines through at most _SPLINE_TERMS coordinates use the
# closed-form law instead: there the characteristic function decays too
# slowly for any such U
_CF_SPAN, _CF_PANEL_WIDTH, _CF_DOUBLINGS = 10.0, 5.0, 6
_SPLINE_TERMS = 4
# the distance is sought on a grid of this many points over [0, T], and cells
# are halved until no cell can exceed the grid maximum by more than the tolerance
_KOLMOGOROV_GRID = 241
_KOLMOGOROV_TOL = 1e-14
# T is this many standard deviations (at least one) of the projection
_KOLMOGOROV_REACH = 9.0
# values computed in chunks of this many t, bounding the (t, u) array
_T_CHUNK = 64


def has_exact_kolmogorov(spec) -> bool:
    """Whether ``exact_kolmogorov`` evaluates the lines of spec's law."""
    return spec.kind is Kind.LP_BALL and math.isinf(spec.p)


def _uniform_sum_spline(c: np.ndarray):
    """F - Phi for W = sum_i c_i U_i (U_i uniform on [-1, 1], c_i > 0) in
    closed form, and a bound on its rounding error.

    F(t) = sum over sign vectors e of prod(e) (t + e.c)_+^m / (m! 2^m prod c),
    the integral of the box spline; its terms cancel, so this is for small m.
    """
    m = len(c)
    signs = np.array(list(itertools.product((1.0, -1.0), repeat=m)))
    knots, parity = signs @ c, signs.prod(axis=1)
    norm = math.factorial(m) * 2**m * float(np.prod(c))
    reach = float(c.sum())  # F = 1 from here on

    def diff(t: np.ndarray) -> np.ndarray:
        powers = np.maximum(np.minimum(t, reach)[:, None] + knots, 0.0) ** m
        return (powers @ parity) / norm - normal_cdf_points(t)

    # 2^m terms, each at most (2 reach)^m / norm and carrying m + 2 roundings
    rounding = 2**m * (2.0 * reach) ** m / norm * (m + 2) * np.finfo(float).eps
    return diff, rounding


def _uniform_sum_gil_pelaez(c: np.ndarray):
    """F - Phi for W = sum_i c_i U_i by Gil-Pelaez inversion of the
    characteristic function prod_i sin(c_i u)/(c_i u), and a bound on the
    truncation of its integral at u = U.

    W and N(0, 1) are symmetric, so F(t) - Phi(t) is
    (1/pi) int_0^inf sin(tu) (phi(u) - e^(-u^2/2)) / u du.  Past U,
    |phi(u)| <= prod_{i in K} 1/(c_i u) with K the i where c_i U >= 1, whose
    integral against du/u is prod_K 1/(c_i U) / |K|, and the Gaussian term
    integrates to at most e^(-U^2/2)/U^2.
    """

    def truncation(span: float) -> float:
        decaying = c[c * span >= 1.0]
        if not len(decaying):
            return math.inf
        power = math.exp(-float(np.log(decaying * span).sum())) / len(decaying)
        return (power + math.exp(-0.5 * span * span) / span**2) / math.pi

    span = _CF_SPAN
    for _ in range(_CF_DOUBLINGS):
        if truncation(span) <= _KOLMOGOROV_TOL:
            break
        span *= 2.0
    nodes, half, w = _panel_rule(np.array([0.0, span]), round(span / _CF_PANEL_WIDTH))
    u = nodes.ravel()
    cu = np.multiply.outer(u, c)  # u > 0 and c > 0
    cf = (np.sin(cu) / cu).prod(axis=1)
    weights = np.broadcast_to(half[..., None] * w, nodes.shape).ravel()
    weights = weights * (cf - np.exp(-0.5 * u * u)) / (math.pi * u)

    def diff(t: np.ndarray) -> np.ndarray:
        return np.concatenate([
            np.sin(np.multiply.outer(t[lo : lo + _T_CHUNK], u)) @ weights
            for lo in range(0, len(t), _T_CHUNK)
        ])

    return diff, truncation(span)


def _certified_sup(diff, reach: float, curvature: float) -> float:
    """Upper bound on sup |diff| over [0, reach], given |diff''| <= curvature.

    On a cell of width h, |diff| exceeds the larger of its end values by at
    most curvature h^2 / 8.  From a grid, every cell whose bound exceeds the
    largest value seen is halved, until none exceeds it by more than
    _KOLMOGOROV_TOL; the largest remaining bound is returned.
    """
    t = np.linspace(0.0, reach, _KOLMOGOROV_GRID)
    g = np.abs(diff(t))
    best, h = float(g.max()), reach / (_KOLMOGOROV_GRID - 1)
    left, g_left, g_right = t[:-1], g[:-1], g[1:]
    while True:
        upper = np.maximum(g_left, g_right) + curvature * h * h / 8.0
        if upper.max() <= best + _KOLMOGOROV_TOL:
            return max(best, float(upper.max()))
        live = upper > best
        left, g_left, g_right = left[live], g_left[live], g_right[live]
        h /= 2.0
        mid = left + h
        g_mid = np.abs(diff(mid))
        best = max(best, float(g_mid.max()))
        left = np.concatenate([left, mid])
        g_left, g_right = np.concatenate([g_left, g_mid]), np.concatenate([g_mid, g_right])


def exact_kolmogorov(spec, theta) -> float:
    """Certified upper bound on sup_t |P[<X, theta> <= t] - Phi(t)| for a
    law with ``has_exact_kolmogorov(spec)``: the cube, where
    <X, theta> = sum_i c_i U_i with c = scale * theta and U_i i.i.d. uniform
    on [-1, 1].

    F - Phi is odd, so it is evaluated on [0, T] with T = 9 max(sd, 1):
    beyond T both tails are below e^(-40.5) (W is sub-Gaussian with variance
    proxy sum c_i^2 / 3).  Lines through at most four coordinates take the
    closed-form law, the rest Gil-Pelaez inversion on Gauss-Legendre panels.
    The grid maximum is refined under a curvature bound on F - Phi: the
    density's derivative is at most 1/(4 c_(1) c_(2)) for the two largest
    |c_i| (convolving the two uniforms), and the normal density's at most
    phi(1).  The result adds the truncation (or rounding) bound.  The
    quadrature error is not bounded, but small: four times the panels moved
    the value by less than 1e-16 on 112 random lines with n from 5 to 100.
    """
    if not has_exact_kolmogorov(spec):
        raise ValueError(f"no exact Kolmogorov distance for {spec.kind.value} p={spec.p}")
    c = np.sort(np.abs(spec.scale * as_unit_vector(theta, spec.n)))[::-1]
    c = c[c > 0.0]
    if len(c) < 2:
        raise ValueError("the line must meet at least two coordinates: along one "
                         "the projection's density jumps and no curvature bound holds")
    sd = max(math.sqrt(float(c @ c) / 3.0), 1.0)
    evaluate = _uniform_sum_spline if len(c) <= _SPLINE_TERMS else _uniform_sum_gil_pelaez
    diff, error = evaluate(c)
    curvature = 1.0 / (4.0 * c[0] * c[1]) + float(normal_pdf(1.0))
    beyond = math.exp(-0.5 * _KOLMOGOROV_REACH**2)
    return float(max(_certified_sup(diff, _KOLMOGOROV_REACH * sd, curvature) + error, beyond))
