"""Seeded samplers for every distribution under study, each scaled to its
exact isotropic position, plus the closed-form moments of the coordinatewise
symmetric laws.

Sampling is a pure function of (spec, N, seed).  Rows are generated in
fixed blocks of ``BLOCK_ROWS``; block b draws from an independent substream
seeded with ``seed XOR mix64(b)``, so splitting blocks across workers in
contiguous ranges reproduces the serial output bit for bit.  One per-law
block fill, ``_filler``, draws every stream, rows or projections, in a
fixed documented order.
"""

from __future__ import annotations

import math
import os
import struct
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Iterator

import numpy as np

from .core import BLOCK_ROWS, thread_map
from .frames import simplex_geometry

__all__ = [
    "BLOCK_ROWS",
    "DistributionSpec",
    "Kind",
    "SPHERICAL_KINDS",
    "UNCONDITIONAL_KINDS",
    "SampleBatch",
    "block_seed",
    "calibrate_isotropic",
    "derive_seed",
    "exact_moments",
    "map_sample_blocks",
    "sample",
    "sample_generalized_gaussian",
    "sample_projections",
]


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
# lp kinds whose law at p = 2 is a spherically symmetric kind's, up to scale
_P2_SPHERICAL = {Kind.LP_BALL: Kind.BALL_UNIFORM, Kind.LP_CONE: Kind.SPHERE_SHELL}


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
        spec = DistributionSpec(kind=Kind(d["kind"]), n=int(d["n"]), p=p)
        scale = d.get("scale")
        if scale is not None and (isinstance(scale, bool) or scale != spec.scale):
            raise ValueError(f"{spec.kind.value} n={spec.n} has scale {scale!r}, but the "
                             f"bounds assume its isotropic scale {spec.scale!r}")
        return spec


@dataclass(frozen=True)
class SampleBatch:
    """An (N, n) block of samples plus the seed that reproduces it.

    ``weights`` (normalized to sum 1) are attached by the surface-measure
    sampler; ``summarize`` applies them, and ``empirical.project`` refuses
    a batch that carries them.
    """

    data: np.ndarray
    seed: int
    spec: DistributionSpec | None = None
    weights: np.ndarray | None = None

    @property
    def N(self) -> int:
        return self.data.shape[0]

    @property
    def n(self) -> int:
        return self.data.shape[1]

    def save(self, path) -> None:
        """32-byte header (magic, n, N, seed) + row-major little-endian f64."""
        with open(path, "wb") as fh:
            fh.write(_MAGIC)
            fh.write(struct.pack("<QQQ", self.n, self.N, self.seed & 0xFFFFFFFFFFFFFFFF))
            # written from the array's own buffer: no bytes copy of the batch
            fh.write(np.ascontiguousarray(self.data, dtype="<f8").reshape(-1).view(np.uint8))

    @staticmethod
    def load(path) -> "SampleBatch":
        with open(path, "rb") as fh:
            magic = fh.read(8)
            if magic != _MAGIC:
                raise ValueError(f"not a sample-batch file (magic {magic!r})")
            header = fh.read(24)
            if len(header) != 24:
                raise ValueError(f"sample-batch header truncated: {8 + len(header)} of 32 bytes")
            n, count, seed = struct.unpack("<QQQ", header)
            # the length is checked before the array is allocated, then read into it
            payload = os.fstat(fh.fileno()).st_size - fh.tell()
            if payload == 8 * n * count:
                data = np.empty((count, n), dtype="<f8")
                payload = fh.readinto(data.reshape(-1).view(np.uint8))
        if payload != 8 * n * count:
            raise ValueError(
                f"sample-batch payload holds {payload} bytes; its header "
                f"(n={n}, N={count}) requires {8 * n * count}"
            )
        return SampleBatch(data=data.astype(float, copy=False), seed=seed)


_MAGIC = b"ISOSAMP1"


def _mix64(z: int) -> int:
    """splitmix64 finalizer (Steele, Lea and Flood 2014): the hash behind
    every derived seed."""
    z = (z + 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
    return z ^ (z >> 31)


def block_seed(seed: int, block_index: int) -> int:
    """Substream seed of block k: master seed XOR mix64(k)."""
    return (int(seed) & 0xFFFFFFFFFFFFFFFF) ^ _mix64(int(block_index))


def derive_seed(seed: int, *path: int) -> int:
    """Seed of the substream at ``path`` below ``seed``: z = mix64(z XOR mix64(k))
    for each index k in turn.  Unlike seed + c*k, a shifted master seed does
    not replay another path's stream."""
    z = int(seed) & 0xFFFFFFFFFFFFFFFF
    for k in path:
        z = _mix64(z ^ _mix64(int(k)))
    return z


def _block_rngs(N: int, seed: int) -> Iterator[tuple[int, int, np.random.Generator]]:
    """(first row, row count, substream) of every block of an N-row draw."""
    if N < 1:
        raise ValueError(f"sample count must be positive, got {N}")
    return (
        (lo, min(BLOCK_ROWS, N - lo), np.random.default_rng(block_seed(seed, block)))
        for block, lo in enumerate(range(0, N, BLOCK_ROWS))
    )


def _map_blocks(fill, blocks, fn: Callable[[slice, np.ndarray], None], workers: int = 1) -> None:
    """fn(slice(lo, lo + count), fill(rng, count)) for every (lo, count, rng)
    of ``_block_rngs``: the one loop over the blocks of every sampled stream.
    Each block is filled on the thread that hands it to fn and freed when fn
    returns; at one worker the blocks arrive in order."""

    def run(job: tuple[int, int, np.random.Generator]) -> None:
        lo, count, rng = job
        fn(slice(lo, lo + count), fill(rng, count))

    thread_map(run, blocks, workers)


def _exact_norm_sq_std(spec: DistributionSpec) -> float:
    """Closed-form sqrt(Var ||X||^2) of the spherically symmetric spec at its
    isotropic scale: ||X||^2 is scale^2 R^2 with the radius R drawn by
    ``_reduced_spherical_block``."""
    n = spec.n
    if spec.kind is Kind.SPHERE_SHELL:
        return 0.0
    if spec.kind is Kind.BALL_UNIFORM:
        return math.sqrt(4.0 * n / (n + 4))
    return math.sqrt(n * (4.0 * n + 6.0) / (n + 1))  # spherical exponential


def _generalized_gaussian_block(rng, p: float, shape) -> tuple[np.ndarray, np.ndarray]:
    """i.i.d. draws g with density proportional to exp(-|t|^p), and the sums
    of |g|^p along the last axis.

    p = 2 is the law N(0, 1/2): sqrt(1/2) times standard normals.  p = 1 is
    sign * E with E standard exponential; draw order: exponentials then
    signs, a sign draw of 0 negating.  Any other p is g = V^(1/p) U with
    V ~ Gamma(1 + 1/p, 1) and U uniform on (-1, 1), which carries the sign:
    given V, |g| is uniform on (0, V^(1/p)), so |g| has density
    int_{t^p}^inf v^(-1/p) v^(1/p) e^(-v) dv / Gamma(1 + 1/p)
    = e^(-t^p) / Gamma(1 + 1/p) at t, and |g|^p ~ Gamma(1/p, 1).  The shape
    above one keeps ``standard_gamma`` on its fast path.  Draw order: the
    gammas, then the uniforms; the sums are taken in the uniforms' buffer,
    so a block holds at most two block-sized arrays.
    """
    if p == 2.0:
        g = rng.standard_normal(shape)
        g *= math.sqrt(0.5)
        return g, np.einsum("...i,...i->...", g, g)
    if p == 1.0:
        g = rng.standard_exponential(shape)
        sums = g.sum(axis=-1)
        # negate by flipping the IEEE sign bit in place: no float temporary
        flips = rng.integers(0, 2, size=shape).view(np.uint64)
        flips ^= 1
        flips <<= 63
        bits = g.view(np.uint64)
        bits ^= flips
        return g, sums
    g = rng.standard_gamma(1.0 + 1.0 / p, shape)
    g **= 1.0 / p
    u = rng.uniform(-1.0, 1.0, shape)
    g *= u
    np.abs(g, out=u)
    u **= p
    return g, u.sum(axis=-1)


def _cube_boundary_block(rng, count: int, n: int) -> np.ndarray:
    """Cone (= surface) measure on the boundary of the cube [-1, 1]^n.

    Draw order: interior uniforms, facet index, facet sign.
    """
    x = rng.uniform(-1.0, 1.0, (count, n))
    face = rng.integers(0, n, count)
    sign = rng.integers(0, 2, count) * 2.0 - 1.0
    x[np.arange(count), face] = sign
    return x


def _reduced_spherical_block(
    rng: np.random.Generator, kind: Kind, n: int, r: int, scale: float, count: int
) -> tuple[np.ndarray, np.ndarray]:
    """(Y, C) for ``count`` draws of the spherical law X = scale R U of kind
    in R^n, U uniform on the unit sphere and independent of the radius R: the
    (count, r) coordinates Y = Q^T X along any r <= n orthonormal columns Q
    (at r = n, Q = I gives the rows), and the squared norm C = |X - Q Y|^2
    of the rest.

    Q^T U has the law of g / sqrt(|g|^2 + chi^2(n - r)), g ~ N(0, I_r)
    independent of the chi-square (Diaconis and Freedman, "A dozen de
    Finetti-style results in search of a theory", Ann. IHP 1987), and the
    rest of U has squared norm chi^2(n - r) / (|g|^2 + chi^2(n - r)).  Draw
    order: the (count, r) standard normals, then 2 standard_gamma((n - r)/2)
    (0 at r = n, which draws nothing), then the radius: none (R = 1) for the
    sphere shell, random()^(1/n) for the ball, standard_gamma(n)/sqrt(n + 1)
    for the spherical exponential.
    """
    g = rng.standard_normal((count, r))
    norm_sq = np.einsum("ij,ij->i", g, g)
    rest_sq = 2.0 * rng.standard_gamma((n - r) / 2.0, count)
    norm_sq += rest_sq
    radial = scale / np.sqrt(norm_sq)
    if kind is Kind.BALL_UNIFORM:
        radial *= rng.random(count) ** (1.0 / n)
    elif kind is Kind.SPHERICAL_EXPONENTIAL:
        radial *= rng.standard_gamma(float(n), count) / math.sqrt(n + 1)
    g *= radial[:, None]
    radial *= radial
    rest_sq *= radial
    return g, rest_sq


def _filler(
    spec: DistributionSpec, directions: np.ndarray | None = None
) -> Callable[[np.random.Generator, int], np.ndarray]:
    """Per-law block generator of the (count, D) projections X @ directions,
    or of the (count, n) rows X when directions is None: the one place that
    picks how each law is drawn.

    * A spherically symmetric law draws from ``_reduced_spherical_block``:
      its rows at r = n, and for the reduced QR directions = Q Rq, with
      r = min(n, D) orthonormal columns in Q, the Q^T X of the block times
      Rq.  The lp ball and cone at p = 2 are the Euclidean ball and sphere
      (Barthe, Guedon, Mendelson and Naor, Ann. Probab. 2005) and take
      this fill at their own scale.
    * The simplex point is c (E / sum E) @ vertices with c = sqrt(n (n + 2))
      and E standard exponentials: the block is (E @ M) / sum E with
      M = c vertices, or M = c (vertices @ directions), an (n+1, D) product
      per row instead of an (n+1, n) one.
    * Every other law fills its rows in place, so a fill holds at most about
      two block-sized arrays at once, and multiplies them by directions.
    """
    n, p, scale = spec.n, spec.p, spec.scale
    kind = _P2_SPHERICAL.get(spec.kind, spec.kind) if p == 2.0 else spec.kind

    if kind in SPHERICAL_KINDS:
        factor = None if directions is None else np.linalg.qr(directions)[1]
        r = n if factor is None else factor.shape[0]

        def fill(rng, count):
            y = _reduced_spherical_block(rng, kind, n, r, scale, count)[0]
            return y if factor is None else y @ factor

        return fill

    if kind is Kind.SIMPLEX:
        vertices = simplex_geometry(n).vertices
        c = math.sqrt(n * (n + 2))
        m = c * vertices if directions is None else c * (vertices @ directions)

        def fill(rng, count):
            e = rng.standard_exponential((count, n + 1))
            sums = e.sum(axis=1)
            w = e @ m
            w /= sums[:, None]
            return w

        return fill

    if kind is Kind.LP_BALL:
        if math.isinf(p):

            def fill(rng, count):
                return rng.uniform(-scale, scale, (count, n))

        else:

            def fill(rng, count):
                g, sums = _generalized_gaussian_block(rng, p, (count, n))
                sums += rng.standard_exponential(count)
                g *= (scale * sums ** (-1.0 / p))[:, None]
                return g

    elif kind in (Kind.LP_CONE, Kind.LP_SURFACE):
        if math.isinf(p):

            def fill(rng, count):
                x = _cube_boundary_block(rng, count, n)
                x *= scale
                return x

        else:

            def fill(rng, count):
                g, sums = _generalized_gaussian_block(rng, p, (count, n))
                g *= (scale * sums ** (-1.0 / p))[:, None]
                return g

    elif kind is Kind.LINF_EXPONENTIAL:
        b_n = _linf_rate(n)

        def fill(rng, count):
            radii = rng.standard_gamma(float(n), count) / b_n
            x = _cube_boundary_block(rng, count, n)
            x *= radii[:, None]
            x *= scale
            return x

    else:  # pragma: no cover
        raise ValueError(f"unknown kind {kind!r}")

    if directions is None:
        return fill
    return lambda rng, count: fill(rng, count) @ directions


def map_sample_blocks(
    spec: DistributionSpec, N: int, seed: int, fn: Callable[[slice, np.ndarray], None],
    workers: int = 1,
) -> None:
    """Call fn(rows, block) for every block of the N-row draw of spec, rows
    being the block's slice of the draw; each block is freed when fn returns,
    and at one worker the blocks arrive in order."""
    _map_blocks(_filler(spec), _block_rngs(N, seed), fn, workers)


def sample_projections(
    spec: DistributionSpec, directions: np.ndarray, N: int, seed: int
) -> np.ndarray:
    """The (D, N) projections X @ directions of N draws of spec onto the
    columns of the (n, D) direction matrix, block by block from
    ``_filler(spec, directions)``; each row is contiguous for the
    Kolmogorov sort, and the (N, n) batch is never held.

    A law whose rows ``_filler`` fills gives exactly
    ``sample(spec, N, seed).data @ directions``, and the simplex gives it up
    to rounding.  A spherical law (and the lp ball and cone at p = 2) draws
    its reduced law at r = min(n, D): for D < n a stream other than that of
    ``sample``, with the same law.
    """
    directions = np.asarray(directions, dtype=float)
    if directions.ndim != 2 or directions.shape[0] != spec.n:
        raise ValueError(f"directions must be an (n={spec.n}, D) matrix, got {directions.shape}")
    blocks = _block_rngs(N, seed)  # checks N before the projections are allocated
    out = np.empty((directions.shape[1], N))

    def put(rows: slice, block: np.ndarray) -> None:
        out[:, rows] = block.T

    _map_blocks(_filler(spec, directions), blocks, put)
    return out


def _surface_weights(spec: DistributionSpec, block: np.ndarray) -> np.ndarray:
    """Unnormalized importance weights retargeting cone draws to surface
    measure: (sum_i |x_i/scale|^(2(p-1)))^(1/2) per row.

    For p in {1, inf} the two boundary measures coincide facet by facet and
    the weights are uniform.
    """
    p = spec.p
    if p == 1.0 or math.isinf(p):
        return np.full(block.shape[0], 1.0)
    z = np.abs(block)
    z /= spec.scale
    z **= 2.0 * (p - 1.0)
    return np.sqrt(np.sum(z, axis=1))


def sample(spec: DistributionSpec, N: int, seed: int) -> SampleBatch:
    """Materialize N samples of the law described by spec; lp surface
    batches carry self-normalized weights, computed block by block."""
    blocks = _block_rngs(N, seed)  # checks N before the batch is allocated
    out = np.empty((N, spec.n), dtype=float)
    weights = np.empty(N) if spec.kind is Kind.LP_SURFACE else None

    def put(rows: slice, block: np.ndarray) -> None:
        out[rows] = block
        if weights is not None:
            weights[rows] = _surface_weights(spec, block)

    _map_blocks(_filler(spec), blocks, put)
    if weights is not None:
        weights /= weights.sum()
    return SampleBatch(data=out, seed=seed, spec=spec, weights=weights)


def calibrate_isotropic(spec: DistributionSpec) -> DistributionSpec:
    """spec itself, as every spec is isotropic; kept only because the
    benchmark's tracer looks this name up."""
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


def sample_generalized_gaussian(p: float, N: int, seed: int) -> np.ndarray:
    """i.i.d. scalars with density proportional to exp(-|t|^p), 1 <= p < inf,
    drawn as ``_generalized_gaussian_block`` documents: sqrt(1/2) times
    standard normals at p = 2, signed exponentials at p = 1, and
    V^(1/p) U (V ~ Gamma(1 + 1/p), U uniform on (-1, 1)) at any other p."""
    if math.isinf(p):
        raise ValueError("p = inf is unsupported here; draw uniforms directly")
    if math.isnan(p) or p < 1.0:
        raise ValueError(f"p must satisfy 1 <= p < inf, got {p}")
    blocks = _block_rngs(N, seed)
    out = np.empty(N, dtype=float)

    def put(rows: slice, g: np.ndarray) -> None:
        out[rows] = g

    _map_blocks(lambda rng, count: _generalized_gaussian_block(rng, p, count)[0], blocks, put)
    return out


def simplex_embedded_coordinates(batch: SampleBatch) -> np.ndarray:
    """Recover the (N, n+1) scaled-coordinate-simplex representation Y from a
    simplex batch: Y_i = sqrt(n/(n+1)) <X, v_i> + sqrt((n+2)/(n+1))."""
    if batch.spec is None or batch.spec.kind is not Kind.SIMPLEX:
        raise ValueError("expected a simplex batch")
    n = batch.n
    vertices = simplex_geometry(n).vertices
    return math.sqrt(n / (n + 1)) * (batch.data @ vertices.T) + math.sqrt((n + 2) / (n + 1))
