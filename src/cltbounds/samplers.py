"""Seeded samplers for every distribution under study, each scaled to its
exact isotropic position (``exact.DistributionSpec.scale``).

Sampling is a pure function of (spec, N, seed).  Rows are generated in
fixed blocks of ``BLOCK_ROWS``; block b draws from an independent substream
seeded with ``seed XOR mix64(b)``, so splitting blocks across workers in
contiguous ranges reproduces the serial output bit for bit.  One per-law
block fill, ``_filler``, draws every stream, rows or projections, in a
fixed documented order; ``stream_groups`` says which specs of a grid share
one stream (the lp ball and cone of one n and finite p != 2).  Every fill
of n-wide rows goes through one chunk driver, ``_chunked``, which draws a
block ``CHUNK_ROWS`` rows at a time: rows straight into the block, and rows
to be projected into one chunk buffer, so beside its (count, k D)
projections a fill holds a chunk, not a block.  ``map_projection_blocks``
hands over each block of projections, and ``map_frame_blocks`` adds to each
row's projections its reflection-frame coefficient, read from the same chunk,
at a frame index drawn from the block's Generator jumped ahead.
"""

from __future__ import annotations

import functools
import math
import os
import struct
from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

from .core import BLOCK_ROWS, CHUNK_ROWS, SLICE_VALUES, thread_map
from .exact import (_LP_KINDS, _PANELS, SPHERICAL_KINDS, DistributionSpec, Kind, _adjacent_floats,
                    _linf_rate, _panel_rule)
from .frames import simplex_edges, simplex_projections, simplex_vertices

__all__ = [
    "BLOCK_ROWS",
    "SampleBatch",
    "block_seed",
    "calibrate_isotropic",
    "derive_seed",
    "map_frame_blocks",
    "map_projection_blocks",
    "map_sample_blocks",
    "sample",
    "sample_projections",
    "stream_groups",
]


# lp kinds whose law at p = 2 is a spherically symmetric kind's, up to scale
_P2_SPHERICAL = {Kind.LP_BALL: Kind.BALL_UNIFORM, Kind.LP_CONE: Kind.SPHERE_SHELL,
                 Kind.LP_SURFACE: Kind.SPHERE_SHELL}
# the two bodies of one generalized-Gaussian stream at finite p != 2 (``_lp_fill``)
_PAIRED = {Kind.LP_BALL: Kind.LP_CONE, Kind.LP_CONE: Kind.LP_BALL}


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


def _block_seeds(N: int, seed: int) -> Iterator[tuple[int, int, int]]:
    """(first row, row count, substream seed) of every block of an N-row draw."""
    if N < 1:
        raise ValueError(f"sample count must be positive, got {N}")
    return (
        (lo, min(BLOCK_ROWS, N - lo), block_seed(seed, block))
        for block, lo in enumerate(range(0, N, BLOCK_ROWS))
    )


def _map_blocks(fill, blocks, fn: Callable[[slice, object], object], workers: int = 1) -> list:
    """[fn(rows, fill(rng, count))], rows = slice(lo, lo + count) and rng the
    block's Generator, for every (lo, count, seed) of ``_block_seeds``: the
    one loop over the blocks of every sampled stream.  Each block's Generator
    is built, and the block filled, on the thread that hands it to fn (the
    pool takes every job up front on the calling thread, where neighbouring
    blocks' generator states would share cache lines); the block is freed
    when fn returns, and at one worker the blocks arrive in order.  fn's
    values come back in block order at any worker count."""

    def run(job: tuple[int, int, int]):
        lo, count, seed = job
        return fn(slice(lo, lo + count), fill(np.random.default_rng(seed), count))

    return thread_map(run, blocks, workers)


# the ziggurat's layers under exp(-t^p)
_LAYERS = 256


def _generalized_gaussian_block(rng: np.random.Generator, p: float, g: np.ndarray) -> np.ndarray:
    """Fill the C-contiguous (count, n) array g with i.i.d. draws of density
    proportional to exp(-|t|^p), and return the sums of |g|^p along each
    row: one chunk of an lp fill.

    p = 1 is sign * E with E standard exponential.  Draw order: the
    exponentials of g, row-major, then ceil(g.size / 64)
    ``bit_generator.random_raw`` words; bit k (least significant first) of
    word j, when set, negates value 64 j + k of g.  Beside g it allocates
    one byte per value and a slice of words.

    Any other p draws |g| by the ziggurat of ``_ziggurat(p)`` (Marsaglia and
    Tsang, J. Stat. Softw. 5(8), 2000) in whole-row slices of
    max(1, ``SLICE_VALUES`` // n) rows.  Draw order, per slice:

    * one ``bit_generator.random_raw`` word per value, row-major.  Bits 0-7
      pick the layer i, bit 8 the sign (set: negative), and bits 11-63 the
      uniform u = (bits 11-63) 2^-53.  The value is u x_i, accepted at once
      when u < x_(i+1) / x_i.
    * Each other value finishes its own attempt, in rounds:
      - those of layer 0 take the tail t > r = x_1: s = r^p + E with E
        standard exponential, accepted when a uniform V < (s / r^p)^(1/p - 1),
        give t = s^(1/p) (beyond r^p, t^p has density proportional to
        s^(1/p - 1) e^-s).  All their E, then all their V, again for the
        rejected ones until none is left;
      - then the others take one uniform U each, and are accepted when
        y_i + U (y_(i+1) - y_i) < exp(-(u x_i)^p);
      - each rejected one draws one fresh word, read as above, and the
        round repeats for the fresh values that are not accepted at once.

    The row sums are taken slice by slice from the values' magnitudes, |g|^4
    as two squarings; then each value takes the sign of the last word it
    drew.  Beside g it allocates about three slices of 8-byte values.
    """
    if p == 1.0:
        rng.standard_exponential(out=g)
        sums = g.sum(axis=1)
        # negate by flipping the IEEE sign bit in place, a slice at a time
        words = rng.bit_generator.random_raw(-(-g.size // 64)).astype("<u8", copy=False)
        signs = np.unpackbits(words.view(np.uint8), count=g.size, bitorder="little")
        bits = g.reshape(-1).view(np.uint64)
        for at in (slice(lo, lo + SLICE_VALUES) for lo in range(0, g.size, SLICE_VALUES)):
            bits[at] ^= np.left_shift(signs[at], 63, dtype=np.uint64)
        return sums
    table = _ziggurat(p)
    count, n = g.shape
    rows = max(1, SLICE_VALUES // n)
    size = min(rows, count) * n
    layer, work = np.empty(size, dtype=np.int64), np.empty(size)
    sums = np.empty(count)
    for lo in range(0, count, rows):
        value = g[lo : lo + rows].reshape(-1)
        m = len(value)
        words = rng.bit_generator.random_raw(m)
        missed = _layer_values(words, table, layer[:m], value, work[:m])
        _finish(rng, p, table, words, layer, value, missed)
        power = work[:m]
        if p == 4.0:
            np.square(value, out=power)
            np.square(power, out=power)
        else:
            np.power(value, p, out=power)
        sums[lo : lo + rows] = power.reshape(-1, n).sum(axis=1)
        words <<= np.uint64(55)  # bit 8 to the IEEE sign bit
        words &= np.uint64(1 << 63)
        bits = value.view(np.uint64)
        bits |= words
    return sums


@functools.cache
def _ziggurat(p: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(x, y, x[1:] / x[:-1]): the edges x_0 > x_1 = r > ... > x_255 > x_256 = 0
    and heights 0 = y_0 < y_1 = f(r) < ... < y_256 of the 256 equal-area
    layers of the ziggurat under f(t) = exp(-t^p), t >= 0, p > 1.

    Layer i >= 1 is the box [0, x_i] x [y_i, y_(i+1)] of area
    v = x_i (y_(i+1) - y_i); layer 0, the box [0, r] x [0, f(r)] with the
    tail t > r under f, has area v = r f(r) + int_r^inf f, held as the box
    [0, x_0] x [0, f(r)].  Given r, y_(i+1) = y_i + v / x_i and
    x_(i+1) = f^-1(y_(i+1)).  r is bisected (``exact._adjacent_floats``) to
    the two adjacent floats between which the layers stop rising above 1, and
    the larger is taken: its top layer closes, y_256 <= 1 by about 1e-14.  The
    tail integral is Gauss-Legendre (``exact._panel_rule``) up to
    t^p = r^p + 40, where f has fallen by e^-40.
    """

    def layers(r: float):
        top = (r**p + 40.0) ** (1.0 / p)
        t, half, w = _panel_rule(np.array([r, top]), _PANELS)
        v = r * math.exp(-(r**p)) + float((half * (np.exp(-(t**p)) @ w)).sum())
        x, y = [v * math.exp(r**p), r], [0.0, math.exp(-(r**p))]
        while len(y) <= _LAYERS:
            y.append(y[-1] + v / x[-1])
            if y[-1] > 1.0:
                return None
            x.append((-math.log(y[-1])) ** (1.0 / p) if len(x) < _LAYERS else 0.0)
        return np.array(x), np.array(y)

    # r^p = 1 overflows the layers, r^p = 50 leaves them short
    _, r = _adjacent_floats(1.0, 50.0 ** (1.0 / p), lambda r: layers(r) is None)
    x, y = layers(r)
    tables = x, y, x[1:] / x[:-1]
    for table in tables:  # shared by every caller
        table.setflags(write=False)
    return tables


def _layer_values(words: np.ndarray, table, layer: np.ndarray, value: np.ndarray,
                  work: np.ndarray) -> np.ndarray:
    """Read each word as one ziggurat attempt (``_generalized_gaussian_block``):
    its layer i into layer and its value u x_i into value; return the
    positions of the values not accepted at once.  work is a scratch float
    array of the words' length."""
    x, _, ratio = table
    bits = layer.view(np.uint64)
    np.right_shift(words, np.uint64(11), out=bits)
    np.multiply(layer, 2.0**-53, out=value)
    np.bitwise_and(words, np.uint64(0xFF), out=bits)
    # layer holds 0..255, in range: mode="wrap" only skips take's bounds check
    missed = value >= np.take(ratio, layer, out=work, mode="wrap")
    value *= np.take(x, layer, out=work, mode="wrap")
    return np.flatnonzero(missed)


def _finish(rng: np.random.Generator, p: float, table, words: np.ndarray, layer: np.ndarray,
            value: np.ndarray, missed: np.ndarray) -> None:
    """Settle the values at the positions missed, in the rounds of the tail,
    the wedge test and the redraws of ``_generalized_gaussian_block``,
    writing each redrawn word over its position's word."""
    x, y, _ = table
    rp = x[1] ** p
    while missed.size:
        i = layer[missed]
        tail = missed[i == 0]
        while tail.size:
            s = rng.standard_exponential(tail.size) + rp
            kept = rng.random(tail.size) < (s / rp) ** (1.0 / p - 1.0)
            value[tail[kept]] = s[kept] ** (1.0 / p)
            tail = tail[~kept]
        wedge, i = missed[i > 0], i[i > 0]
        height = y[i] + rng.random(wedge.size) * (y[i + 1] - y[i])
        missed = wedge[height >= np.exp(-(value[wedge] ** p))]
        words[missed] = fresh = rng.bit_generator.random_raw(missed.size)
        i, v = np.empty(missed.size, dtype=np.int64), np.empty(missed.size)
        again = _layer_values(fresh, table, i, v, np.empty(missed.size))
        layer[missed], value[missed] = i, v
        missed = missed[again]


def _reduced_spherical_block(
    rng: np.random.Generator, kind: Kind, n: int, r: int, scale: float, count: int,
    out: np.ndarray | None = None,
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
    for the spherical exponential.  Y is written into ``out`` when given.
    """
    g = np.empty((count, r)) if out is None else out
    norm_sq = _normals(rng, g)
    rest_sq = 2.0 * rng.standard_gamma((n - r) / 2.0, count)
    norm_sq += rest_sq
    radial = _radial(rng, kind, n, scale, norm_sq)
    g *= radial[:, None]
    radial *= radial
    rest_sq *= radial
    return g, rest_sq


def _normals(rng: np.random.Generator, g: np.ndarray) -> np.ndarray:
    """Fill g with standard normals; return the squared norm of each row."""
    rng.standard_normal(out=g)
    return np.einsum("ij,ij->i", g, g)


def _radial(rng: np.random.Generator, kind: Kind, n: int, scale: float,
            norm_sq: np.ndarray) -> np.ndarray:
    """scale R / sqrt(norm_sq): the factor that takes Gaussian rows of
    squared norm norm_sq to the spherical law of kind, with the radius R of
    ``_reduced_spherical_block`` drawn after them."""
    radial = scale / np.sqrt(norm_sq)
    if kind is Kind.BALL_UNIFORM:
        radial *= rng.random(len(radial)) ** (1.0 / n)
    elif kind is Kind.SPHERICAL_EXPONENTIAL:
        radial *= rng.standard_gamma(float(n), len(radial)) / math.sqrt(n + 1)
    return radial


def _coordinates(x: np.ndarray, index: np.ndarray) -> np.ndarray:
    """Each row's coordinate at its index: the standard frame's coefficients."""
    return x[np.arange(len(x)), index]


def _chunked(put: Callable[[np.random.Generator, np.ndarray], np.ndarray | None], n: int,
             directions: np.ndarray | None = None, pick=_coordinates):
    """Block generator of (count, n) rows, or of their (count, D) projections
    onto the columns of directions: the one chunk loop of every n-wide fill.
    put(rng, x) draws each ``CHUNK_ROWS``-row chunk x of rows in place, in
    turn, into the block or into one chunk buffer projected into the block;
    a per-row array it returns divides the chunk's columns (the simplex's sums).

    fill(rng, count, index=None, out=None) writes the first columns of out,
    by default a new array of just those columns.  Given index, the frame
    indices of the block's rows, the block is (count, D + 1): each
    projection its own matrix-vector product, so that no direction's column
    depends on another, then each row's frame coefficient pick(x, index),
    read from its chunk x.
    """
    width = n if directions is None else directions.shape[1]
    vectors = None if directions is None else np.ascontiguousarray(directions.T)

    def fill(rng, count, index=None, out=None):
        columns = width + (index is not None)
        out = np.empty((count, columns)) if out is None else out
        chunk = None if directions is None else np.empty((min(CHUNK_ROWS, count), n))
        for lo in range(0, count, CHUNK_ROWS):
            rows = out[lo : lo + CHUNK_ROWS, :columns]
            x = rows if chunk is None else chunk[: len(rows)]
            divisor = put(rng, x)
            if index is not None:
                for t, vector in enumerate(vectors):
                    np.matmul(x, vector, out=rows[:, t])
                rows[:, width] = pick(x, index[lo : lo + len(x)])
            elif chunk is not None:
                np.matmul(x, directions, out=rows)
            if divisor is not None:
                rows /= divisor[:, None]
        return out

    return fill


def _scaled(put: Callable[[np.random.Generator, np.ndarray], np.ndarray], n: int,
            directions: np.ndarray | None, factors, bodies: int = 1):
    """Block generator of a law whose rows are unscaled draws G times a
    per-row factor: put(rng, g) draws each chunk of G and returns a per-row
    statistic of it, and after the last chunk factors(rng, stats) returns
    each body's (count,) row factors, in order.  ``_chunked`` draws G, or
    its projections and frame coefficients, into the first body's columns
    of the block, and each body's columns are scaled once, side by side."""
    width = n if directions is None else directions.shape[1]

    def fill(rng, count, index=None):
        stats = []
        columns = width + (index is not None)
        out = np.empty((count, bodies * columns))
        _chunked(lambda rng, g: stats.append(put(rng, g)), n, directions)(rng, count, index, out)
        unscaled = out[:, :columns]
        for i, factor in reversed(list(enumerate(factors(rng, np.concatenate(stats))))):
            np.multiply(unscaled, factor[:, None], out=out[:, i * columns : (i + 1) * columns])
        return out

    return fill


def _lp_fill(
    p: float, specs: tuple[DistributionSpec, ...], directions: np.ndarray | None
) -> Callable[[np.random.Generator, int], np.ndarray]:
    """Block generator of the lp cone (and surface measure) and ball of
    specs at one finite p, from generalized-Gaussian rows G with
    S = sum_i |G_i|^p: the cone's rows scale G / S^(1/p), the ball's
    scale G / (S + E)^(1/p) with E standard exponential (Barthe, Guedon,
    Mendelson and Naor, Ann. Probab. 2005).  Block order: the
    ``_generalized_gaussian_block`` draws of each ``CHUNK_ROWS``-row chunk
    in turn (at p = 1 its exponentials, then its sign words; at any other
    p != 2 the ziggurat's raw words and the draws that settle its misses,
    slice by slice), then, for a ball, its ``count`` exponentials; so the
    cone's stream is a prefix of the ball's, and one group's pair shares it.
    ``_scaled`` draws G or G @ directions into the first spec's columns
    and scales each body once: (count, k D) in the order of specs.
    """

    def factors(rng, sums):
        scaled = {}
        for spec in sorted(specs, key=lambda spec: spec.kind is Kind.LP_BALL):  # the cone first
            if spec.kind is Kind.LP_BALL:
                sums += rng.standard_exponential(len(sums))
            scaled[spec] = spec.scale * sums ** (-1.0 / p)
        return [scaled[spec] for spec in specs]

    return _scaled(lambda rng, g: _generalized_gaussian_block(rng, p, g), specs[0].n,
                   directions, factors, len(specs))


def stream_groups(specs) -> list[tuple[int, ...]]:
    """The positions of specs, grouped by the block stream each group draws
    from, groups in order of their first position: the lp ball and the lp
    cone at the same n and the same finite p != 2 share one (the cone's
    stream is a prefix of the ball's, see ``_lp_fill``), a ball with the
    first cone after it that has no ball yet and vice versa; every other
    spec draws its own."""
    groups: list[list[int]] = []
    waiting: dict = {}  # (kind wanted, n, p) -> the group that wants it
    for pos, spec in enumerate(specs):
        pairs = spec.kind in _PAIRED and spec.p != 2.0 and not math.isinf(spec.p)
        group = waiting.pop((spec.kind, spec.n, spec.p), None) if pairs else None
        if group is not None:
            group.append(pos)
            continue
        groups.append([pos])
        if pairs:
            waiting.setdefault((_PAIRED[spec.kind], spec.n, spec.p), groups[-1])
    return [tuple(group) for group in groups]


def _filler(
    specs: DistributionSpec | tuple[DistributionSpec, ...], directions: np.ndarray | None = None
) -> Callable[[np.random.Generator, int], np.ndarray]:
    """Per-law block generator of the (count, D) projections X @ directions,
    or of the (count, n) rows X when directions is None: the one place that
    picks how each law is drawn.  ``specs`` is one spec or one group of
    ``stream_groups``; a group's block stacks its specs' projections
    side by side, (count, k D) in the order of specs.  fill(rng, count,
    index) of one spec's projections adds the column of each row's
    coefficient in the law's reflection frame at its index (see
    ``map_frame_blocks``).

    * A spherically symmetric law scale R G / |G|, G standard normal,
      draws its rows, and its projections with frame coefficients (which
      read every coordinate), through ``_scaled``: G chunk by chunk, then
      each row's radius R after the last chunk, the stream of
      ``_reduced_spherical_block`` at r = n.  Its plain projections draw
      that block's reduced law: for the reduced QR directions = Q Rq, with
      r = min(n, D) orthonormal columns in Q, the Q^T X of the block times
      Rq.  At p = 2 the lp ball is the Euclidean ball and the cone and
      surface measures the sphere (Barthe, Guedon, Mendelson and Naor, Ann.
      Probab. 2005): they take this fill at their own scale.
    * Every other law draws through ``_chunked``, ``CHUNK_ROWS`` rows at a
      time, with one chunk fill (put) that serves its rows and its
      projections alike.  The simplex point is c (E / sum E) @ V, V its
      vertices, c = sqrt(n (n + 2)) and E standard exponentials: each chunk
      of E is projected onto M = c V (``frames.simplex_vertices``) or, given
      directions x, M = c V x (``frames.simplex_projections``, O(n D)), and
      divided by sum E; the coefficient s <X, v_h - v_t> of edge (h, t) =
      ``frames.simplex_edges`` is sqrt((n + 1)(n + 2) / 2) (E_h - E_t) / sum E,
      as <v_i, v_j> = -1/n.
    * The lp ball, cone and surface measure at finite p != 2 draw from
      ``_lp_fill``, which takes the unscaled chunks and their row sums from
      ``_scaled`` and scales the block once; the ball and the cone of one
      group share its stream.
    * The cube, its boundary and the sup-norm exponential (its radius, then
      the boundary's draws) draw each chunk of rows in place, in the block
      or in the chunk buffer that ``_chunked`` projects.
    """
    group = (specs,) if isinstance(specs, DistributionSpec) else tuple(specs)
    spec = group[0]
    n, p, scale = spec.n, spec.p, spec.scale
    kind = _P2_SPHERICAL.get(spec.kind, spec.kind) if p == 2.0 else spec.kind

    if kind in SPHERICAL_KINDS:
        factor = None if directions is None else np.linalg.qr(directions)[1]
        rows = _scaled(_normals, n, directions,
                       lambda rng, norm_sq: [_radial(rng, kind, n, scale, norm_sq)])

        # the reduced draw reuses its normals and block (one thread draws them,
        # in map_projection_blocks): the allocator would map and unmap fresh
        # 1 MB arrays on every block unless a larger one came first
        y = block = None

        def fill(rng, count, index=None):
            nonlocal y, block
            if factor is None or index is not None:
                return rows(rng, count, index)
            if y is None:
                y, block = (np.empty((BLOCK_ROWS, k)) for k in factor.shape)
            _reduced_spherical_block(rng, kind, n, len(factor), scale, count, y[:count])
            return np.matmul(y[:count], factor, out=block[:count])

        return fill

    if kind in _LP_KINDS and not math.isinf(p):
        return _lp_fill(p, group, directions)

    if kind is Kind.SIMPLEX:
        c = math.sqrt(n * (n + 2))
        m = simplex_vertices(n, c) if directions is None else c * simplex_projections(directions)
        edge_scale = math.sqrt((n + 1) * (n + 2) / 2.0)

        def put(rng, e):
            rng.standard_exponential(out=e)
            return e.sum(axis=1)

        def edges(e, index):  # s <X, v_h - v_t> times sum E, for edge (h, t)
            heads, tails = simplex_edges(index, n)
            rows = np.arange(len(e))
            return edge_scale * (e[rows, heads] - e[rows, tails])

        return _chunked(put, n + 1, m, edges)

    if kind is Kind.LP_BALL:  # the cube: uniform(-scale, scale)'s bits, 2 scale U - scale

        def put(rng, x):
            rng.random(out=x)
            x *= 2.0 * scale
            x -= scale

    elif kind in (Kind.LP_CONE, Kind.LP_SURFACE, Kind.LINF_EXPONENTIAL):
        b_n = _linf_rate(n) if kind is Kind.LINF_EXPONENTIAL else None

        def put(rng, x):
            # the sup-norm exponential's radii Gamma(n) / b_n (its scale is 1),
            # then the cone (= surface) measure on the boundary of the cube [-1, 1]^n:
            # interior uniforms 2 U - 1 (uniform(-1, 1)'s bits), facet index, facet sign
            count = len(x)
            radii = None if b_n is None else rng.standard_gamma(float(n), count) / b_n
            rng.random(out=x)
            x *= 2.0
            x -= 1.0
            face = rng.integers(0, n, count)
            x[np.arange(count), face] = rng.integers(0, 2, count) * 2.0 - 1.0
            x *= scale if radii is None else radii[:, None]

    else:  # pragma: no cover
        raise ValueError(f"unknown kind {kind!r}")

    return _chunked(put, n, directions)


def map_sample_blocks(
    spec: DistributionSpec, N: int, seed: int, fn: Callable[[slice, np.ndarray], object],
    workers: int = 1,
) -> list:
    """The list of fn(rows, block), in block order, over every block of the
    N-row draw of spec, rows being the block's slice of the draw; each block
    is freed when fn returns, and at one worker the blocks arrive in order."""
    return _map_blocks(_filler(spec), _block_seeds(N, seed), fn, workers)


def map_frame_blocks(
    spec: DistributionSpec, directions: np.ndarray, N: int, seed: int,
    fn: Callable[[slice, np.ndarray, np.ndarray], object], workers: int = 1,
) -> list:
    """The list of fn(rows, index, block), in block order, over every block
    of the N-row draw of spec with seed: index holds each row's frame index
    k, uniform over the law's m reflection-frame vectors, and block the
    (count, D + 1) array of each row's projections X @ directions and its
    coefficient X_(k) in that frame: the coordinate X_k in the standard
    frame (m = n), and on the simplex (m = n (n + 1)) s <X, v_h - v_t> with
    (h, t) = ``frames.simplex_edges(k, n)`` and s = sqrt(n / (2 (n + 1))).

    Block b draws its indices from its Generator jumped ahead
    (``bit_generator.jumped()``), so its own stream is untouched: the rows
    are those of ``sample(spec, N, seed)``, up to rounding, drawn
    ``CHUNK_ROWS`` at a time, and no (count, n) block is held.  Each
    projection is its own matrix-vector product, so a direction's column
    does not depend on the others."""
    m = spec.n * (spec.n + 1) if spec.kind is Kind.SIMPLEX else spec.n  # edges or coordinates
    fill = _filler(spec, np.asarray(directions, dtype=float))

    def frame_fill(rng: np.random.Generator, count: int) -> tuple[np.ndarray, np.ndarray]:
        index = np.random.Generator(rng.bit_generator.jumped()).integers(0, m, count)
        return index, fill(rng, count, index)

    return _map_blocks(frame_fill, _block_seeds(N, seed), lambda rows, drawn: fn(rows, *drawn),
                       workers)


def map_projection_blocks(
    specs: DistributionSpec | tuple[DistributionSpec, ...], directions: np.ndarray,
    N: int, seed: int, fn: Callable[[slice, np.ndarray], object],
) -> list:
    """The list of fn(rows, block) over every block of the N-row draw of
    spec with seed, called in block order, block being the (count, D) projections X @ directions
    of its rows onto the columns of the (n, D) direction matrix, from
    ``_filler(spec, directions)``, once every input is checked: the (N, n)
    batch is never held, and a block is valid until fn returns.

    The cube, its boundary and the sup-norm exponential project each
    ``CHUNK_ROWS``-row chunk of the rows of ``sample(spec, N, seed)`` as
    ``_chunked`` draws it: exactly ``data[chunk] @ directions`` per chunk,
    and ``data @ directions`` up to rounding; the simplex, and the lp laws
    that ``_lp_fill`` draws (finite p != 2), which project before they
    scale, give it up to rounding.  A spherical law (and the lp ball, cone
    and surface measure at p = 2) draws its reduced law at
    r = min(n, D): for D < n a stream other than that of ``sample``, with
    the same law.

    Given the k specs of one group of ``stream_groups``, the (count, k D)
    projections of all of them from their one stream: columns i D to
    (i + 1) D - 1 are exactly those of specs[i] alone.
    """
    group = (specs,) if isinstance(specs, DistributionSpec) else tuple(specs)
    if stream_groups(group) != [tuple(range(len(group)))]:
        raise ValueError(f"specs {[s.to_dict() for s in group]} do not share one stream")
    n = group[0].n
    directions = np.asarray(directions, dtype=float)
    if directions.ndim != 2 or directions.shape[0] != n:
        raise ValueError(f"directions must be an (n={n}, D) matrix, got {directions.shape}")
    return _map_blocks(_filler(group, directions), _block_seeds(N, seed), fn)


def sample_projections(
    specs: DistributionSpec | tuple[DistributionSpec, ...], directions: np.ndarray,
    N: int, seed: int,
) -> np.ndarray:
    """The (k D, N) projections of ``map_projection_blocks``, each row
    contiguous: consecutive rows, such as a subspace's k basis lines in
    ``subspaces.estimate_Ank``, form one (rows, N) block."""
    out = None

    def put(rows: slice, block: np.ndarray) -> None:
        nonlocal out
        if out is None:  # the first block: the inputs are checked
            out = np.empty((block.shape[1], N))
        out[:, rows] = block.T

    map_projection_blocks(specs, directions, N, seed, put)
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
    blocks = _block_seeds(N, seed)  # checks N before the batch is allocated
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


def simplex_embedded_coordinates(batch: SampleBatch) -> np.ndarray:
    """Recover the (N, n+1) scaled-coordinate-simplex representation Y from a
    simplex batch: Y_i = sqrt(n/(n+1)) <X, v_i> + sqrt((n+2)/(n+1))."""
    if batch.spec is None or batch.spec.kind is not Kind.SIMPLEX:
        raise ValueError("expected a simplex batch")
    n = batch.n
    t = simplex_projections(batch.data.T).T  # <X, v_i> per row
    return math.sqrt(n / (n + 1)) * t + math.sqrt((n + 2) / (n + 1))
