"""Haar-random orthogonal matrices and subspace bases as plain arrays,
randomized subspace experiments, and exchangeable-pair diagnostics for the
reflection and infinitesimal-rotation constructions behind the bounds."""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .contract import InsufficientDataError, SymmetryError
from .core import BLOCK_ROWS, as_unit_vector, thread_map
from .empirical import KS_MIN_SAMPLES, _equal_count_bins, _ks_statistic
from .exact import D_K, SPHERICAL_KINDS, UNCONDITIONAL_KINDS, Kind, exact_kolmogorov, exact_law
from .frames import LABEL_SIMPLEX_EDGES, LABEL_STANDARD, simplex_edges, simplex_projections
from .samplers import (
    _block_rngs,
    _map_blocks,
    _reduced_spherical_block,
    block_seed,
    derive_seed,
    map_frame_blocks,
    sample_projections,
)

__all__ = [
    "AnkEstimate",
    "LABEL_DIRECTIONS",
    "LABEL_EXACT",
    "LABEL_LINE",
    "PairDiagnostics",
    "RotationDiagnostics",
    "SymmetryError",
    "ank_to_csv",
    "check_ank_samples",
    "estimate_Ank",
    "haar_orthogonal",
    "haar_orthogonal_sample",
    "random_subspace",
    "reflection_frame",
    "reflection_pair_diagnostics",
    "rotation_pair_diagnostics",
]

# directions per product in estimate_Ank at k >= 2: each worker holds one
# (DIRECTION_CHUNK, N) product.  Four rows give the same bits as sixteen,
# one row (a matrix-vector product) does not
DIRECTION_CHUNK = 4


def reflection_frame(kind: Kind) -> str:
    """Label of the tight frame the reflection pair of a kind's law reflects
    in: reflecting in each of its vectors maps the law onto itself, as the
    pair needs.

    The lp balls and cones, the sup-norm exponential and the spherical laws,
    which admit every orthogonal map, take the coordinate sign flips (the
    standard frame); the simplex takes the reflections in its edges, which
    permute its vertices.  No diagnostic applies the lp surface weights, so
    that law raises SymmetryError.
    """
    if kind is Kind.SIMPLEX:
        return LABEL_SIMPLEX_EDGES
    if kind in UNCONDITIONAL_KINDS or kind in SPHERICAL_KINDS:
        return LABEL_STANDARD
    raise SymmetryError(f"no reflection pair applies the {kind.value} weights")


def _require_two_samples(N: int) -> None:
    """The pair's regression of W - W' on W needs two rows."""
    if N < 2:
        raise InsufficientDataError(f"the pair diagnostics need at least 2 samples, got N={N}")


def _sign_fixed_qr(g: np.ndarray) -> np.ndarray:
    """QR with the R-diagonal forced positive (unbiased Haar; plain QR is not).

    Accepts a stack (..., n, n) and fixes signs column by column.
    """
    q, r = np.linalg.qr(g)
    d = np.sign(np.diagonal(r, axis1=-2, axis2=-1))
    d[d == 0.0] = 1.0
    return q * d[..., None, :]


def haar_orthogonal(n: int, seed: int) -> np.ndarray:
    """One Haar-distributed n x n orthogonal matrix."""
    if n < 2:
        raise ValueError(f"dimension must be at least 2, got {n}")
    rng = np.random.default_rng(seed)
    return _sign_fixed_qr(rng.standard_normal((n, n)))


def haar_orthogonal_sample(n: int, count: int, seed: int) -> np.ndarray:
    """A (count, n, n) stack of independent Haar orthogonal matrices."""
    rng = np.random.default_rng(seed)
    return _sign_fixed_qr(rng.standard_normal((count, n, n)))


def random_subspace(n: int, k: int, seed: int) -> np.ndarray:
    """(k, n) orthonormal basis rows of a subspace drawn from the rotation-invariant law."""
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
    return haar_orthogonal(n, seed)[:k]


def uniform_directions(k: int, count: int, rng: np.random.Generator) -> np.ndarray:
    """Unit vectors uniform on the sphere of a k-dimensional subspace, as (count, k)
    rows of coefficients in its basis (the directions are ``coeffs @ basis``)."""
    coeffs = rng.standard_normal((count, k))
    coeffs /= np.linalg.norm(coeffs, axis=1, keepdims=True)
    return coeffs


# what AnkEstimate.sup_distances hold on each path of estimate_Ank
LABEL_EXACT = "certified upper bound on each line's Kolmogorov distance"
LABEL_LINE = "sampled Kolmogorov distance of each line"
LABEL_DIRECTIONS = "direction-sampled lower approximation of the sup"


@dataclass(frozen=True)
class AnkEstimate:
    """Fraction of random subspaces whose sup over unit directions of the
    Kolmogorov distance from normal is at most eps; ``label`` says what
    ``sup_distances`` hold.

    At k = 1 the sup is one line's distance: a certified upper bound where
    the law has an exact one (``LABEL_EXACT``), else the line's sampled KS
    statistic, which sampling noise biases upward (``LABEL_LINE``).  At
    k >= 2 it is a max over sampled directions, a lower approximation of the
    sup over the sphere (``LABEL_DIRECTIONS``).  ``n_dirs`` and ``N`` count
    what was used: no direction is drawn at k = 1 (``n_dirs`` 0), and the
    exact path samples no row (``N`` 0).
    """

    fraction: float
    sup_distances: np.ndarray
    n: int
    k: int
    eps: float
    n_subspaces: int
    n_dirs: int
    N: int
    seed: int
    label: str


def check_ank_samples(spec, k: int, N: int) -> bool:
    """Whether ``estimate_Ank`` takes the exact line distances (k = 1) of a
    law that has them in ``exact.EXACT_LAWS`` instead of sampling; a sampled
    spec with N < ``KS_MIN_SAMPLES`` raises."""
    try:
        exact = k == 1 and bool(exact_law(D_K, spec.kind, spec.n, spec.p))
    except ValueError:
        exact = False
    if not exact and N < KS_MIN_SAMPLES:
        raise InsufficientDataError(f"need at least {KS_MIN_SAMPLES} samples, got N={N}")
    return exact


def estimate_Ank(
    spec,
    k: int,
    eps: float,
    n_subspaces: int,
    N: int,
    seed: int,
    n_dirs: int | None = None,
    workers: int = 1,
) -> AnkEstimate:
    """Randomized-subspace experiment for the projection law of spec.

    Each of ``n_subspaces`` random subspaces (subspace s from
    ``derive_seed(seed, s)``) counts as good when its sup distance is at
    most eps.  For k = 1 the unit sphere of the subspace is the two signs of
    its line, and the Kolmogorov distance of -W equals that of W, so one
    distance per line is the sup and no direction is sampled.  Where
    ``check_ank_samples`` says so (the cube) that distance is
    ``exact.exact_kolmogorov``: nothing is sampled, so the result does not
    depend on N.  Otherwise N samples are projected onto ``n_dirs`` uniform
    directions (default 50 k) in each subspace (at k = 1, onto the line);
    ``check_ank_samples`` raises before any draw when N is too small.

    One ``sample_projections`` pass writes the projections Y = X L
    onto the stacked (n, n_subspaces k) basis matrix L; a direction with
    coefficients c in subspace s is then Y_s c.  Memory: Y takes
    N n_subspaces k 8 bytes, plus one (DIRECTION_CHUNK, N) product per worker
    at k >= 2, and the (N, n) batch is never held (spherically
    symmetric specs draw Y from its exact reduced law).  The exact path holds
    no sample: per worker, one line's quadrature tables, a few hundred kB at
    n = 100.  The fill is serial; the subspaces' statistics run on
    ``workers`` threads, each subspace with its own direction stream, so the
    result does not depend on ``workers``.
    """
    if eps <= 0.0:
        raise ValueError(f"eps must be positive, got {eps}")
    if n_subspaces < 1:
        raise ValueError("need at least one subspace")
    if n_dirs is None:
        n_dirs = 50 * k
    if n_dirs < 1:
        raise ValueError(f"need at least one direction per subspace, got n_dirs={n_dirs}")
    exact = check_ank_samples(spec, k, N)
    n = spec.n
    bases = [random_subspace(n, k, derive_seed(seed, s)) for s in range(n_subspaces)]
    proj = None if exact else sample_projections(spec, np.concatenate(bases).T, N, seed)

    def sup_distance(s: int) -> float:
        if exact:
            return exact_kolmogorov(spec, bases[s][0])
        if k == 1:
            return _ks_statistic(proj[s], overwrite=True)  # proj[s] is not read again
        rng = np.random.default_rng(derive_seed(seed, s, 1))
        coeffs = uniform_directions(k, n_dirs, rng)
        y_s = proj[s * k : (s + 1) * k]
        # the inner generator drops each product before the next is formed
        return max(
            max(_ks_statistic(values, overwrite=True)
                for values in coeffs[lo : lo + DIRECTION_CHUNK] @ y_s)
            for lo in range(0, n_dirs, DIRECTION_CHUNK)
        )

    sups = np.array(thread_map(sup_distance, range(n_subspaces), workers))
    return AnkEstimate(
        fraction=float(np.mean(sups <= eps)),
        sup_distances=sups,
        n=n,
        k=k,
        eps=eps,
        n_subspaces=n_subspaces,
        n_dirs=n_dirs if k > 1 else 0,
        N=0 if exact else N,
        seed=seed,
        label=LABEL_EXACT if exact else LABEL_LINE if k == 1 else LABEL_DIRECTIONS,
    )


def ank_to_csv(estimates, path) -> None:
    """One row per estimate; ``max_sup`` is the largest of its subspaces' sups."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["n", "k", "eps", "fraction", "n_subspaces", "n_dirs", "N", "seed", "max_sup"]
        )
        for est in estimates:
            writer.writerow([
                est.n, est.k, est.eps, est.fraction, est.n_subspaces, est.n_dirs, est.N,
                est.seed, float(est.sup_distances.max()),
            ])


@dataclass(frozen=True)
class PairDiagnostics:
    """Sampled ingredients of the exchangeable-pair bound for one batch.

    ``slope`` regresses W - W' on W (the linearity condition predicts
    exactly 2/n); ``var_conditional`` is the equal-count-binned estimate of
    Var E[(W-W')^2 | W]; ``third_abs`` and ``sup_abs`` are the
    sample mean of |W-W'|^3 and the sample max of |W-W'|.  The same bound on
    exact moments is ``bounds.bound_frame_general``.
    """

    slope: float
    intercept: float
    slope_se: float
    var_conditional: float
    third_abs: float
    sup_abs: float


def reflection_pair_diagnostics(
    spec,
    thetas,
    N: int,
    seed: int,
    pair_seed: int,
    workers: int = 1,
) -> list[PairDiagnostics]:
    """Diagnostics for the random-reflection exchangeable pair, one per theta.

    The pair reflects in the law's frame (``reflection_frame``).  For each
    of N samples of spec (drawn with ``seed``) an index I is drawn uniformly
    over the frame's m vectors (from ``pair_seed``) and
    W' = W - 2 X_(I) theta_(I) is formed; all thetas share the rows and I.
    In the standard frame (m = n) the coefficients are the coordinates.  On
    the simplex (m = n(n+1)) index k is the edge (i, j) =
    ``frames.simplex_edges(k, n)``, X_(k) = s <X, v_i - v_j> with
    s = sqrt(n/(2(n+1))), theta_(k) = s (t_i - t_j), t = V theta, and no
    frame or vertex matrix is built.  Every field is a sampled estimate.

    Checks run before any draw.  The indices are drawn first, in block
    order, from one stream.  One pass of ``samplers.map_frame_blocks``, on
    ``workers`` threads, draws each row's W per theta and its coefficient
    X_(I), ``CHUNK_ROWS`` rows at a time, and keeps per block the sums of
    W, W^2, D, D W, D^2 and |D|^3 and the max of |D|, D = W - W' =
    2 X_(I) theta_(I), added in block order, so the results do not depend
    on ``workers``.  Memory: the kept W per theta, coefficient and index,
    (8 T + 8 + k) N bytes with k the itemsize of the smallest unsigned type
    that holds m - 1 (1, 2 or 4: the simplex's m = n (n + 1) needs 2 from
    n = 16 and 4 from n = 256), and per worker a chunk and a
    (BLOCK_ROWS, T + 1) block while drawing; then the equal-count binning
    of ``var_conditional`` argsorts W, 8 N bytes per worker, and rebuilds D
    bin by bin, never as an N-long array.
    """
    simplex = reflection_frame(spec.kind) == LABEL_SIMPLEX_EDGES
    _require_two_samples(N)
    n = spec.n
    thetas = [as_unit_vector(theta, n) for theta in thetas]
    m = n * (n + 1) if simplex else n
    if simplex:
        edge_scale = math.sqrt(n / (2.0 * (n + 1)))
        vertex_t = [simplex_projections(theta) for theta in thetas]

    # one pair_seed stream feeds every block's frame indices: draw them in order
    rng = np.random.default_rng(pair_seed)
    index = np.empty(N, dtype=np.min_scalar_type(m - 1))
    for lo in range(0, N, BLOCK_ROWS):
        index[lo : lo + BLOCK_ROWS] = rng.integers(0, m, min(BLOCK_ROWS, N - lo))
    w, coeff = np.empty((len(thetas), N)), np.empty(N)
    # per block and theta: W, W^2, D, D W, D^2, |D|^3, then max |D|
    sums = np.empty((-(-N // BLOCK_ROWS), len(thetas), 7))

    def diff(t: int, rows) -> np.ndarray:
        """D = W - W' of theta t on rows (a slice or indices)."""
        if not simplex:
            return 2.0 * coeff[rows] * thetas[t][index[rows]]
        heads, tails = simplex_edges(index[rows], n)
        return 2.0 * coeff[rows] * (edge_scale * (vertex_t[t][heads] - vertex_t[t][tails]))

    def take(rows: slice, block: np.ndarray) -> None:
        coeff[rows] = block[:, -1]
        for t in range(len(thetas)):
            w_t = w[t, rows]
            w_t[:] = block[:, t]
            d = diff(t, rows)
            d_abs = np.abs(d)
            sums[rows.start // BLOCK_ROWS, t] = [
                w_t.sum(), (w_t * w_t).sum(), d.sum(), (d * w_t).sum(), (d * d).sum(),
                (d_abs**3).sum(), d_abs.max(),
            ]

    map_frame_blocks(spec, np.column_stack(thetas), index, seed, take, workers)
    means = sums[..., :6].sum(axis=0) / N

    def diagnose(t: int) -> PairDiagnostics:
        w_mean, w_sq_mean, d_mean, dw_mean, dsq_mean, a3_mean = means[t].tolist()
        w_var = w_sq_mean - w_mean * w_mean
        slope = (dw_mean - d_mean * w_mean) / w_var
        resid_var = max((dsq_mean - d_mean * d_mean) - slope * slope * w_var, 0.0)

        bins = _equal_count_bins(w[t])
        means_t = np.array([float(np.square(diff(t, idx)).mean()) for idx in bins])
        weights = np.array([len(idx) for idx in bins]) / N
        var_conditional = float(weights @ (means_t - float(weights @ means_t)) ** 2)

        return PairDiagnostics(
            slope=slope,
            intercept=d_mean - slope * w_mean,
            slope_se=math.sqrt(resid_var) / (math.sqrt(N) * math.sqrt(w_var)),
            var_conditional=var_conditional,
            third_abs=a3_mean,
            sup_abs=float(sums[:, t, 6].max()),
        )

    return thread_map(diagnose, range(len(thetas)), workers)


@dataclass(frozen=True)
class RotationDiagnostics:
    """Small-angle rotation-pair ratios at one angle parameter eps.

    r1 -> 1 (linearity), r2 -> 1 (conditional second moment), r3 bounded
    (third moment scales like eps^3)."""

    eps: float
    r1: float
    r1_se: float
    r2: float
    r2_se: float
    r3: float
    r3_se: float


def _rotation_frames(
    rng: np.random.Generator, x0: np.ndarray, r_perp: np.ndarray, n: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(q1_0, s1, q2_0, s2) for a fresh Haar two-frame (q1, q2) per row, with
    s_i = <q_i, X>, from the first coordinate x0 of each row X and the norm
    r_perp of the rest.

    Gram-Schmidt on two Gaussian vectors g1, g2 of R^n, written in the basis
    (e1, u, complement) with u the unit part of X orthogonal to e1:
    g1 = a1 e1 + b1 u + r1 and g2 = a2 e1 + b2 u + r2, where |r1|^2 = c1 is
    chi^2(n-2), <r1, r2> = sqrt(c1) z and |r2|^2 = z^2 + c2 with c2 chi^2(n-3),
    and a1, b1, a2, b2, z are iid N(0, 1).  Five normals and two chi-squares
    per row give the same law as the n-dimensional construction, for every X.
    """
    a1, b1, a2, b2, z = rng.standard_normal((5, len(x0)))
    c1 = 2.0 * rng.standard_gamma((n - 2) / 2.0, len(x0))  # chi^2(0) is 0
    c2 = 2.0 * rng.standard_gamma(max(n - 3, 0) / 2.0, len(x0))
    if n == 2:  # no complement: r1 = r2 = 0
        z[:] = 0.0
    norm1 = np.sqrt(a1 * a1 + b1 * b1 + c1)
    q1_0 = a1 / norm1
    s1 = (a1 * x0 + b1 * r_perp) / norm1
    t = (a1 * a2 + b1 * b2 + np.sqrt(c1) * z) / norm1  # <q1, g2>
    norm2 = np.sqrt(a2 * a2 + b2 * b2 + z * z + c2 - t * t)
    q2_0 = (a2 - t * q1_0) / norm2
    s2 = (a2 * x0 + b2 * r_perp - t * s1) / norm2
    return q1_0, s1, q2_0, s2


def _rotation_rows(rng: np.random.Generator, spec, count: int) -> np.ndarray:
    """The (3, count) rows X_0, X_1 and |X - X_0 e_1| of ``count`` draws X of
    the spherical spec, from its reduced law at r = 2: with g ~ N(0, I_2)
    and C ~ chi^2(n - 2), (X_0, X_1, |X - X_0 e_1|) has the law of
    scale R (g_0, g_1, sqrt(g_1^2 + C)) / sqrt(|g|^2 + C)."""
    y, rest_sq = _reduced_spherical_block(rng, spec.kind, spec.n, 2, spec.scale, count)
    x0, x1 = y.T
    rest_sq += x1 * x1
    return np.stack([x0, x1, np.sqrt(rest_sq, out=rest_sq)])


def rotation_pair_diagnostics(
    spec, eps_list, N: int, seed: int, pair_seed: int, workers: int = 1
) -> list[RotationDiagnostics]:
    """Diagnostics for the random two-plane rotation pair.

    Each of N draws X of spec gets a fresh Haar two-frame (q1, q2), shared
    by every eps, and W_eps = <R X, e_1> for the rotation R by angle
    arcsin(eps) in that plane.  Only X_0 = W, X_1 and |X - X_0 e_1| enter,
    so no n-dimensional row is formed: each block of the N-row draw with
    ``seed`` takes them from the reduced spherical law (``_rotation_rows``),
    and the two-frame's first coordinates and projections of X from their
    exact law under Gram-Schmidt on two Gaussian vectors, five normals and
    two chi-squares per row (``_rotation_frames``); block b draws its
    frames from ``block_seed(derive_seed(pair_seed, 0), b)``.  Sharing the
    frames correlates the angles' estimates; each angle's standard errors
    hold for that angle alone.

    Checks run before any draw.  One pass over the blocks, on ``workers``
    threads, keeps per block the sums of D = W_eps - W, D W, D^2, |D|^3, D^4
    and |D|^6 for every angle, and of W, W^2 and X_1^2; each block's sums
    depend only on its seeds and are added in block order, so the results
    do not depend on ``workers``.  Memory: a few block-sized arrays per
    worker, whatever N.
    """
    if spec.kind not in SPHERICAL_KINDS:
        raise SymmetryError(f"the rotation pair needs a spherical law, got {spec.kind.value}")
    _require_two_samples(N)
    eps_list = list(eps_list)
    for eps in eps_list:
        if not (0.0 < eps < 0.5):
            raise ValueError(f"eps must lie in (0, 1/2), got {eps}")

    n = spec.n
    blocks = _block_rngs(N, seed)  # checks N before the sums are allocated
    frame_seed = derive_seed(pair_seed, 0)
    shrinks = [1.0 - math.sqrt(1.0 - eps * eps) for eps in eps_list]
    # per block: D, DW, D^2, |D|^3, D^4, |D|^6 for each angle, then W, W^2, X_1^2
    sums = np.empty((-(-N // BLOCK_ROWS), 6 * len(eps_list) + 3))

    def take(rows: slice, block: np.ndarray) -> None:
        b = rows.start // BLOCK_ROWS
        x0, x1, r_perp = block
        out = sums[b]
        rng = np.random.default_rng(block_seed(frame_seed, b))
        q1_0, s1, q2_0, s2 = _rotation_frames(rng, x0, r_perp, n)
        rotational = q1_0 * s2 - q2_0 * s1
        radial = q1_0 * s1 + q2_0 * s2
        for i, (eps, shrink) in enumerate(zip(eps_list, shrinks)):
            d = -eps * rotational + shrink * radial
            d_sq = d * d
            a_cube = np.abs(d) * d_sq
            out[6 * i : 6 * i + 6] = [
                d.sum(), (d * x0).sum(), d_sq.sum(), a_cube.sum(), (d_sq * d_sq).sum(),
                (a_cube * a_cube).sum(),
            ]
        out[-3:] = [x0.sum(), (x0 * x0).sum(), (x1 * x1).sum()]

    _map_blocks(lambda rng, count: _rotation_rows(rng, spec, count), blocks, take, workers)
    means = (sums.sum(axis=0) / N).tolist()
    w_mean, w_sq_mean, x2_sq_mean = means[-3:]
    w_var = w_sq_mean - w_mean * w_mean

    def diagnose(i: int) -> RotationDiagnostics:
        eps = eps_list[i]
        d_mean, dw_mean, dsq_mean, a3_mean, d4_mean, a6_mean = means[6 * i : 6 * i + 6]
        slope = (dw_mean - d_mean * w_mean) / w_var
        resid_var = max((dsq_mean - d_mean**2) - slope**2 * w_var, 0.0)
        slope_se = math.sqrt(resid_var / (N * w_var))
        unit = eps * eps / n
        r1, r1_se = slope / unit, slope_se / unit
        r2_denom = 2.0 * unit * x2_sq_mean
        r2 = dsq_mean / r2_denom
        r2_se = math.sqrt(max(d4_mean - dsq_mean**2, 0.0) / N) / r2_denom
        r3 = a3_mean / eps**3
        r3_se = math.sqrt(max(a6_mean - a3_mean**2, 0.0) / N) / eps**3
        return RotationDiagnostics(
            eps=eps, r1=r1, r1_se=r1_se, r2=r2, r2_se=r2_se, r3=r3, r3_se=r3_se
        )

    return [diagnose(i) for i in range(len(eps_list))]
