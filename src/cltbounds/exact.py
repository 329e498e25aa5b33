"""Every closed form of a law under study: the catalogue (``Kind``, and
``DistributionSpec`` with its isotropic scale), the moments the bounds read
(the lp ones of Barthe, Guedon, Mendelson and Naor behind ``exact_moments``,
the simplex's, sqrt(Var ||X||^2) of the spherical laws), and the exact laws
of W = <X, theta> that check the bounds.  One table, ``EXACT_LAWS``, says
which law has which exact distance from N(0, 1) over which n, and every
guard reads it: the sphere shell's and the ball's total variation come by
quadrature of their closed-form densities, the cube's Kolmogorov distance by
Gil-Pelaez inversion, certified.  numpy and the standard library only.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

import numpy as np

from .core import as_unit_vector, normal_cdf_points, normal_pdf

__all__ = ["D_K", "EXACT_LAWS", "EXACT_MARGINAL_MAX_N", "DistributionSpec", "ExactLaw", "Kind",
           "SPHERICAL_KINDS", "TV", "UNCONDITIONAL_KINDS", "exact_kolmogorov", "exact_law",
           "exact_moments", "exact_norm_sq_std", "exact_projection_density", "exact_tv_vs_normal",
           "simplex_Y_moment", "simplex_kappa", "simplex_pair_moment"]


class Kind(str, Enum):
    SPHERE_SHELL = "sphere_shell"
    BALL_UNIFORM = "ball_uniform"
    LP_BALL = "lp_ball"
    LP_CONE = "lp_cone"
    LP_SURFACE = "lp_surface"
    SIMPLEX = "simplex"
    SPHERICAL_EXPONENTIAL = "spherical_exponential"
    LINF_EXPONENTIAL = "linf_exponential"


_LP_KINDS = {Kind.LP_BALL, Kind.LP_CONE, Kind.LP_SURFACE}

# invariant under sign flips of individual coordinates: the kinds of the
# unconditional route, exact_moments and the standard-frame reflection pair
# (lp_surface is too, but none of them applies its weights)
UNCONDITIONAL_KINDS = {Kind.LP_BALL, Kind.LP_CONE, Kind.LINF_EXPONENTIAL}
# invariant under every rotation
SPHERICAL_KINDS = {Kind.SPHERE_SHELL, Kind.BALL_UNIFORM, Kind.SPHERICAL_EXPONENTIAL}


def _linf_rate(n: int) -> float:
    """b_n = sqrt((n+1)(n+2)/3): the rate that gives the sup-norm exponential
    unit-variance coordinates."""
    return math.sqrt((n + 1) * (n + 2) / 3.0)


def _body_moment(kind: Kind, n: int, p: float | None, powers: tuple[int, ...]) -> float:
    """E prod_i |X_i|^(a_i) over distinct coordinates of the unit-scale body.

    lp ball and cone (Barthe, Guedon, Mendelson, Naor 2005): X = G / S^(1/p)
    with G_i i.i.d. of density ~ exp(-|t|^p) and X independent of
    S ~ Gamma(b), b = n/p + 1 (ball) or n/p (cone), so the moment is
    prod G((a_i+1)/p)/G(1/p) * G(b)/G(b + sum a_i/p).  Its p -> inf limit is
    the cube (uniform coordinates) and the cube boundary (one coordinate
    pinned to +-1).  The sup-norm exponential is R U with R ~ Gamma(n)/b_n
    independent of U on the cube boundary.
    """
    total = sum(powers)
    if kind is Kind.LINF_EXPONENTIAL:
        radial = math.exp(math.lgamma(n + total) - math.lgamma(n)) / _linf_rate(n) ** total
        return radial * _body_moment(Kind.LP_CONE, n, math.inf, powers)
    cone = kind is not Kind.LP_BALL
    if math.isinf(p):
        return math.prod(1.0 / (a + 1) for a in powers) * ((n + total) / n if cone else 1.0)
    b = n / p + (0.0 if cone else 1.0)
    log = sum(math.lgamma((a + 1) / p) - math.lgamma(1 / p) for a in powers)
    return math.exp(log + math.lgamma(b) - math.lgamma(b + total / p))


@dataclass(frozen=True)
class DistributionSpec:
    """Which isotropic symmetric law to sample: the kind, the dimension n
    and, for the lp kinds, the exponent p.  ``scale``, the factor on the
    unit-parameterized body, follows from them in closed form."""

    kind: Kind
    n: int
    p: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "n", operator.index(self.n))  # a float n raises TypeError
        if self.n < 2:
            raise ValueError(f"dimension must be at least 2, got {self.n}")
        if self.kind in _LP_KINDS:
            if self.p is None:
                raise ValueError(f"{self.kind.value} requires the exponent p")
            if math.isnan(self.p) or self.p < 1.0:
                raise ValueError(f"p must satisfy p >= 1 or p = inf, got {self.p}")
        elif self.p is not None:
            raise ValueError(f"{self.kind.value} does not take an exponent p")

    @property
    def scale(self) -> float:
        """The closed-form isotropic scale; surface measure takes the cone's."""
        kind, n = self.kind, self.n
        if kind is Kind.SPHERE_SHELL:
            return math.sqrt(n)
        if kind is Kind.BALL_UNIFORM:
            return math.sqrt(n + 2)
        if kind in (Kind.SIMPLEX, Kind.SPHERICAL_EXPONENTIAL, Kind.LINF_EXPONENTIAL):
            return 1.0  # isotropic by construction
        return math.sqrt(1.0 / _body_moment(kind, n, self.p, (2,)))

    def to_dict(self) -> dict:
        out = {"kind": self.kind.value, "n": self.n}
        if self.p is not None:
            out["p"] = self.p if math.isfinite(self.p) else "inf"
        out["scale"] = self.scale
        return out

    @staticmethod
    def from_dict(d: dict) -> "DistributionSpec":
        """The spec of a ``to_dict`` document; a non-isotropic ``scale`` raises ValueError."""
        p = d.get("p")
        if isinstance(p, str):
            p = math.inf if p in ("inf", "Infinity") else float(p)
        spec = DistributionSpec(kind=Kind(d["kind"]), n=d["n"], p=p)
        scale = d.get("scale")
        if scale is not None and (isinstance(scale, bool) or scale != spec.scale):
            raise ValueError(f"{spec.kind.value} n={spec.n} has scale {scale!r}, but the "
                             f"bounds assume its isotropic scale {spec.scale!r}")
        return spec


def exact_moments(spec: DistributionSpec) -> tuple[float, float, float]:
    """(E X_i^4, Cov(X_i^2, X_j^2), E|X_i|^3) of an isotropic lp ball or cone
    (any p, including the cube and its boundary) or sup-norm exponential.

    Coordinates are exchangeable, so these are also the maxima over i and
    over pairs i != j that the unconditional bound takes.
    """
    if spec.kind not in UNCONDITIONAL_KINDS:
        raise ValueError(f"no closed-form moments for kind {spec.kind.value!r}")
    m2 = _body_moment(spec.kind, spec.n, spec.p, (2,))

    def normalized(*powers) -> float:
        return _body_moment(spec.kind, spec.n, spec.p, powers) / m2 ** (sum(powers) / 2)

    return normalized(4), normalized(2, 2) - 1.0, normalized(3)


def exact_norm_sq_std(spec: DistributionSpec) -> float:
    """Closed-form sqrt(Var ||X||^2) of the spherically symmetric spec at its
    isotropic scale: ||X||^2 is scale^2 R^2 with the radius R drawn by
    ``samplers._reduced_spherical_block``."""
    n = spec.n
    if spec.kind is Kind.SPHERE_SHELL:
        return 0.0
    if spec.kind is Kind.BALL_UNIFORM:
        return math.sqrt(4.0 * n / (n + 4))
    return math.sqrt(n * (4.0 * n + 6.0) / (n + 1))  # spherical exponential


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


def simplex_kappa(n: int) -> float:
    """E[X_(ij)^2 X_(kl)^2] of two simplex edge pairs that share no vertex."""
    return (n + 1) * (n + 2) / ((n + 3) * (n + 4))


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
    return multiplier * simplex_kappa(n)


# the distances from N(0, 1) that are exact here, by the names errors give them
TV = "total variation"
D_K = "Kolmogorov distance"

# largest n any test checks: n * TV stays within 1e-3 of its limit 0.7001 up
# to n = 1e6, where a 64-panel, 128-node rule agrees within 1e-17.  The log
# normalizer (``_log_gamma_ratio``) keeps its digits beyond, and with the cap
# lifted n * TV reads 0.700150 from n = 1e7 to 1e9, but no test covers that
EXACT_MARGINAL_MAX_N = 10**6


@dataclass(frozen=True)
class ExactLaw:
    """A law of <X, theta>, kind and (lp kinds) p, whose ``distances`` from
    N(0, 1) are exact for min_n <= n <= max_n.  With an exact TV it is the law
    of the first coordinate of the uniform sphere of radius sqrt(m) in R^m,
    m = n + ``shift``: density c_m (1 - t^2/m)^((m-3)/2) on |t| < sqrt(m)."""

    kind: Kind
    p: float | None
    name: str
    distances: tuple[str, ...]
    min_n: int
    max_n: float
    shift: int = 0


# every law with an exact distance; the uniform ball in R^n projects like the
# sphere in R^(n+2), and the cube's lines are certified at every n
EXACT_LAWS = (
    ExactLaw(Kind.SPHERE_SHELL, None, "sphere_shell", (TV,), 3, EXACT_MARGINAL_MAX_N),
    ExactLaw(Kind.BALL_UNIFORM, None, "ball_uniform", (TV,), 2, EXACT_MARGINAL_MAX_N, shift=2),
    ExactLaw(Kind.LP_BALL, math.inf, "cube", (D_K,), 2, math.inf),
)


def exact_law(distance: str, kind, n: int, p: float | None = None) -> ExactLaw:
    """The law of ``EXACT_LAWS`` with kind (a Kind or its value) and p, which
    has ``distance`` exactly in R^n; ValueError if there is none, or if n
    lies outside the range it is validated for."""
    law = next((law for law in EXACT_LAWS if (law.kind, law.p) == (kind, p)), None)
    if law is None or distance not in law.distances:
        having = [law.name for law in EXACT_LAWS if distance in law.distances]
        raise ValueError(f"no exact {distance} for kind {getattr(kind, 'value', kind)!r}"
                         f"{'' if p is None else f' p={p}'}; the laws with one: {having}")
    if not law.min_n <= n <= law.max_n:
        raise ValueError(f"the exact {distance} of {law.name} is validated for "
                         f"{law.min_n} <= n <= {law.max_n}, got n={n}")
    return law


# exact_tv_vs_normal's crossing grid over [0, min(r, _CROSSING_REACH)] and
# bisections, and its Gauss-Legendre panels and nodes per panel of each piece
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
    """(support radius^2, exponent, log normalizer) of kind's projection density."""
    m = n + exact_law(TV, kind, n).shift
    log_c = _log_gamma_ratio(m) - 0.5 * math.log(m * math.pi)
    return float(m), (m - 3) / 2.0, log_c


def exact_projection_density(kind, n: int, t) -> np.ndarray | float:
    """Exact density of W = <X, theta> for a law with an exact TV, vectorized
    over t: zero outside the support (not an error)."""
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
    both densities are below 1e-300 (the normal's underflows to 0 from
    t = 38.6), is the last piece.  Each piece is
    integrated in phi = arcsin(t/r): the density's factor (1 - t^2/r^2)^e
    has a square-root edge at e = 1/2 (sphere n=4, ball n=2), which
    dt = r cos(phi) dphi turns into a smooth cos^(2e+1) phi.  Absolute
    error is below 1e-14 for both kinds at every validated n: the log
    normalizer is within 7.2e-15 of its exact value (``_log_gamma_ratio``),
    which moves the L1 distance by at most as much, and a 64-panel, 128-node
    rule agrees with this one within 6e-17 from n = 2 to 1e6.
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


# exact_kolmogorov: the Gil-Pelaez integral runs over u in [0, U] on panels of
# width _CF_PANEL_WIDTH, U from _CF_SPAN doubled at most _CF_DOUBLINGS times
# until the truncation bound is below _KOLMOGOROV_TOL; on lines through at
# most _SPLINE_TERMS coordinates, where the characteristic function decays
# too slowly for any such U, the closed-form law
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
    law with an exact ``D_K`` in ``EXACT_LAWS``: the cube, where
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
    exact_law(D_K, spec.kind, spec.n, spec.p)
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
