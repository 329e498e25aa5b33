"""Haar-random orthogonal matrices and subspace bases as plain arrays,
randomized subspace experiments, and exchangeable-pair diagnostics for the
reflection and infinitesimal-rotation constructions behind the bounds."""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .contract import InsufficientDataError, SymmetryError
from .core import BLOCK_ROWS, CHUNK_ROWS, as_unit_vector, thread_map
from .empirical import (KS_COUNTS, KS_MIN_SAMPLES, add_ks_counts, bin_totals,
                        kolmogorov_from_counts)
from .exact import D_K, SPHERICAL_KINDS, UNCONDITIONAL_KINDS, Kind, exact_kolmogorov, exact_law
from .frames import LABEL_SIMPLEX_EDGES, LABEL_STANDARD, simplex_edges, simplex_projections
from .samplers import (
    _block_seeds,
    _map_blocks,
    _reduced_spherical_block,
    derive_seed,
    map_frame_blocks,
    map_projection_blocks,
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
# (N, DIRECTION_CHUNK) product and its (DIRECTION_CHUNK, KS_COUNTS) count
# table.  Four rows give the same bits as sixteen, one row (a matrix-vector
# product) does not
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

    Accepts a stack (..., n, k), k <= n, and fixes signs column by column.
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
    """(k, n) orthonormal basis rows of a subspace drawn from the rotation-invariant law:
    the sign-fixed QR of an (n, k) Gaussian, k columns of a Haar matrix (Mezzadri 2007)."""
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
    return _sign_fixed_qr(np.random.default_rng(seed).standard_normal((n, k))).T


def uniform_directions(k: int, count: int, rng: np.random.Generator) -> np.ndarray:
    """Unit vectors uniform on the sphere of a k-dimensional subspace, as (count, k)
    rows of coefficients in its basis (the directions are ``coeffs @ basis``)."""
    coeffs = rng.standard_normal((count, k))
    coeffs /= np.linalg.norm(coeffs, axis=1, keepdims=True)
    return coeffs


# what AnkEstimate.sup_distances hold on each path of estimate_Ank
LABEL_EXACT = "certified upper bound on each line's Kolmogorov distance"
LABEL_LINE = "sampled Kolmogorov distance of each line, read from its counts (K_lo)"
LABEL_DIRECTIONS = "direction-sampled lower approximation of the sup"


@dataclass(frozen=True)
class AnkEstimate:
    """Fraction of random subspaces whose sup over unit directions of the
    Kolmogorov distance from normal is at most eps; ``label`` says what
    ``sup_distances`` hold.

    At k = 1 the sup is one line's distance: a certified upper bound where
    the law has an exact one (``LABEL_EXACT``), else the line's sampled KS
    statistic read from its counts on the Kolmogorov grid, K_lo of
    ``empirical.kolmogorov_from_counts``, which sampling noise biases
    upward and the grid by at most a few 1e-5 downward (``LABEL_LINE``).  At
    k >= 2 it is the max of the same K_lo over sampled directions, a lower
    approximation of the sup over the sphere (``LABEL_DIRECTIONS``).
    ``n_dirs`` and ``N`` count what was used: no direction is drawn at k = 1
    (``n_dirs`` 0), and the exact path samples no row (``N`` 0).
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
    spec with N < ``KS_MIN_SAMPLES`` raises, and so does the lp surface
    measure, whose weights no projection applies (SymmetryError)."""
    if spec.kind is Kind.LP_SURFACE:
        raise SymmetryError("no subspace scan applies the lp_surface weights")
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
    ``check_ank_samples`` raises before any draw when N is too small or the
    law is the lp surface measure.

    One pass of ``samplers.map_projection_blocks`` projects the samples,
    Y = X L, onto the stacked (n, n_subspaces k) basis matrix L, and the
    (N, n) batch is never held (spherically symmetric specs draw Y from its
    exact reduced law).  At k = 1 each piece of Y is added to the lines'
    counts on the Kolmogorov grid (``empirical.add_ks_counts``) as it is
    drawn, and each line's distance is read from its counts: they take
    n_subspaces ``KS_COUNTS`` 8 bytes (4 MB at 32 lines), whatever N.  At
    k >= 2 Y is kept (``sample_projections``, N n_subspaces k 8 bytes), a
    direction with coefficients c in subspace s is Y_s c, and each worker
    holds one (N, DIRECTION_CHUNK) product (32 MB at N = 1e6) and its
    (DIRECTION_CHUNK, ``KS_COUNTS``) counts (0.5 MB); each direction's
    distance is read from its counts as at k = 1.  The exact path holds no
    sample: per worker, one line's quadrature tables, a few hundred kB at
    n = 100.  The fill is serial; the subspaces' statistics run on
    ``workers`` threads, each subspace with its own direction stream, so the
    result does not depend on ``workers``.
    """
    if not eps > 0.0:  # NaN too
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
    if not exact and k == 1:
        counts = np.zeros((n_subspaces, KS_COUNTS), dtype=np.int64)
        map_projection_blocks(spec, np.concatenate(bases).T, N, seed,
                              lambda rows, block: add_ks_counts(counts, block))
    elif not exact:
        proj = sample_projections(spec, np.concatenate(bases).T, N, seed)

    def sup_distance(s: int) -> float:
        if exact:
            return exact_kolmogorov(spec, bases[s][0])
        if k == 1:
            return kolmogorov_from_counts(counts[s]).point_estimate
        rng = np.random.default_rng(derive_seed(seed, s, 1))
        coeffs = uniform_directions(k, n_dirs, rng)
        y_s = proj[s * k : (s + 1) * k]
        distances = []
        for lo in range(0, n_dirs, DIRECTION_CHUNK):
            # (N, c) and C-contiguous, as add_ks_counts reads it fastest
            products = y_s.T @ coeffs[lo : lo + DIRECTION_CHUNK].T
            table = np.zeros((products.shape[1], KS_COUNTS), dtype=np.int64)
            add_ks_counts(table, products)
            del products  # dropped before the next is formed: one per worker
            distances += [kolmogorov_from_counts(row).point_estimate for row in table]
        return max(distances)

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


def _pair_regression(w_mean: float, w_sq_mean: float, d_mean: float, dw_mean: float,
                     dsq_mean: float, N: int) -> tuple[float, float, float]:
    """(slope, intercept, slope standard error) of the least-squares line of
    D = W - W' on W over N pairs, from the sample means of W, W^2, D, D W and
    D^2: the linearity condition E[D | W] = lambda W of either pair (the
    rotation pair passes D's radial part, the whole of E[D | X]).  The
    standard error takes the residual variance as constant in W, as the
    rotation pair's does; the reflection pair's is not (``_robust_slope_se``)."""
    w_var = w_sq_mean - w_mean * w_mean
    slope = (dw_mean - d_mean * w_mean) / w_var
    resid_var = max((dsq_mean - d_mean * d_mean) - slope * slope * w_var, 0.0)
    return slope, d_mean - slope * w_mean, math.sqrt(resid_var) / (math.sqrt(N) * math.sqrt(w_var))


def _robust_slope_se(m: np.ndarray, slope: float, intercept: float, N: int) -> float:
    """The heteroskedasticity-consistent standard error (White, Econometrica
    1980) of the slope of the least-squares line D = intercept + slope W over
    N pairs: sqrt(mean((W - mean W)^2 R^2) / N) / Var W, R = D - intercept -
    slope W, from m[k, j], the sample mean of W^k D^j for k + j <= 4.  The
    reflection pair needs it: D vanishes unless the drawn frame vector meets
    theta, so the residual's spread grows with |W|, and the constant-variance
    error of ``_pair_regression`` read half the slopes' spread for the lp
    ball at p = 1 along e_1."""
    w_mean = m[1, 0]
    # R^2 as a polynomial in W for each power j of D, times (W - mean W)^2
    residual_sq = {2: [1.0], 1: [-2.0 * intercept, -2.0 * slope],
                   0: [intercept * intercept, 2.0 * intercept * slope, slope * slope]}
    spread = sum(coef * m[k, j] for j, poly in residual_sq.items()
                 for k, coef in enumerate(np.convolve([w_mean * w_mean, -2.0 * w_mean, 1.0], poly)))
    return float(math.sqrt(max(spread, 0.0) / N) / (m[2, 0] - w_mean * w_mean))


@dataclass(frozen=True)
class PairDiagnostics:
    """Sampled ingredients of the exchangeable-pair bound for one batch.

    ``slope`` regresses W - W' on W (the linearity condition predicts
    exactly 2/n), with the heteroskedasticity-consistent standard error
    ``slope_se``; ``var_conditional`` estimates Var E[(W-W')^2 | W] over
    the bins of ``empirical.bin_totals``, NaN if a W is NaN; ``third_abs``
    and ``sup_abs`` are the sample mean of |W-W'|^3 and the sample max of
    |W-W'|.  The same bound on exact moments is ``bounds.bound_frame_general``.
    """

    slope: float
    intercept: float
    slope_se: float
    var_conditional: float
    third_abs: float
    sup_abs: float


def reflection_pair_diagnostics(
    spec, thetas, N: int, seed: int, workers: int = 1
) -> list[PairDiagnostics]:
    """Diagnostics for the random-reflection exchangeable pair, one per theta.

    The pair reflects in the law's frame (``reflection_frame``).  For each
    of N samples of spec (drawn with ``seed``) an index I is drawn uniformly
    over the frame's m vectors (from its block's Generator jumped ahead, see
    ``samplers.map_frame_blocks``) and W' = W - 2 X_(I) theta_(I) is formed;
    all thetas share the rows and I.
    In the standard frame (m = n) the coefficients are the coordinates.  On
    the simplex (m = n(n+1)) index k is the edge (i, j) =
    ``frames.simplex_edges(k, n)``, X_(k) = s <X, v_i - v_j> with
    s = sqrt(n/(2(n+1))), theta_(k) = s (t_i - t_j), t = V theta, and no
    frame or vertex matrix is built.  Every field is a sampled estimate.

    Checks run before any draw.  One pass of ``samplers.map_frame_blocks``,
    on ``workers`` threads, draws each row's I, W per theta and coefficient
    X_(I) and hands them over a chunk at a time; each chunk adds to its
    block's sums of W, W^2, D, D W, D^2 and |D|^3, max of |D|,
    D = W - W' = 2 X_(I) theta_(I), and ``empirical.bin_totals`` of D^2
    over W, and the blocks' are added in block order, so the results do not
    depend on ``workers``; the slope's standard error is
    ``_robust_slope_se``.  Memory: per block a few kB of sums and totals,
    and per worker a chunk of rows with its frame indices and projections
    (a spherical law's block of them) and chunk-long temporaries: nothing
    N-long, no sort.
    """
    simplex = reflection_frame(spec.kind) == LABEL_SIMPLEX_EDGES
    _require_two_samples(N)
    n = spec.n
    thetas = [as_unit_vector(theta, n) for theta in thetas]
    if simplex:
        edge_scale = math.sqrt(n / (2.0 * (n + 1)))
        vertex_t = [simplex_projections(theta) for theta in thetas]
    blocks = -(-N // BLOCK_ROWS)
    # per block and theta: the sums of W^k D^j at [k, j], k + j <= 4; of |D|^3,
    # then the max of |D|; D^2's bin totals
    moments = np.zeros((blocks, len(thetas), 5, 3))
    absolute = np.zeros((blocks, len(thetas), 2))
    binned = [[0.0] * len(thetas) for _ in range(blocks)]

    def take(rows: slice, at: np.ndarray, chunk: np.ndarray) -> None:
        """Per theta, add to the chunk's block its sums of W^k D^j and |D|^3
        and D^2's bin totals, and keep the largest |D|."""
        block = rows.start // BLOCK_ROWS
        if simplex:
            heads, tails = simplex_edges(at, n)
        twice = 2.0 * chunk[:, -1]
        for t in range(len(thetas)):
            w_t = chunk[:, t]
            theta_at = (edge_scale * (vertex_t[t][heads] - vertex_t[t][tails]) if simplex
                        else thetas[t][at])  # theta_(I) of each row
            d = twice * theta_at
            d_sq, d_abs, w_sq, dw = d * d, np.abs(d), w_t * w_t, d * w_t
            moments[block, t] += [[len(d), d.sum(), d_sq.sum()],
                                  [w_t.sum(), d @ w_t, d_sq @ w_t],
                                  [w_t @ w_t, dw @ w_t, dw @ dw],
                                  [w_sq @ w_t, dw @ w_sq, 0.0],
                                  [w_sq @ w_sq, 0.0, 0.0]]
            absolute[block, t, 0] += d_sq @ d_abs
            absolute[block, t, 1] = np.maximum(absolute[block, t, 1], d_abs.max())  # NaN if a D is
            binned[block][t] += bin_totals(w_t, d_sq, N)

    map_frame_blocks(spec, np.column_stack(thetas), N, seed, take, workers)
    means = moments.sum(axis=0) / N  # m[k, j] of each theta
    third_abs = absolute[..., 0].sum(axis=0) / N
    totals = np.sum(binned, axis=0)

    def diagnose(t: int) -> PairDiagnostics:
        m = means[t]
        slope, intercept, _ = _pair_regression(m[1, 0], m[2, 0], m[0, 1], m[1, 1], m[0, 2], N)
        sizes, bin_sums = totals[t][:, totals[t][0] > 0]  # the nonempty bins
        weights, bin_means = sizes / N, bin_sums / sizes
        spread = float(weights @ (bin_means - float(weights @ bin_means)) ** 2)
        return PairDiagnostics(
            slope=float(slope),
            intercept=float(intercept),
            slope_se=_robust_slope_se(m, slope, intercept, N),
            var_conditional=spread if sizes.sum() == N else math.nan,  # a NaN W is in no bin
            third_abs=float(third_abs[t]),
            sup_abs=float(absolute[:, t, 1].max()),
        )

    return [diagnose(t) for t in range(len(thetas))]


@dataclass(frozen=True)
class RotationDiagnostics:
    """Small-angle rotation-pair ratios at one angle parameter eps.

    r1 -> 1 (linearity, read from the radial part of D), r2 -> 1
    (conditional second moment), r3 bounded (third moment scales like
    eps^3)."""

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
    y, rest_sq, radial = _reduced_spherical_block(rng, spec.kind, spec.n, 2, spec.scale, count)
    radial *= radial
    rest_sq *= radial
    x0, x1 = y.T
    rest_sq += x1 * x1
    return np.stack([x0, x1, np.sqrt(rest_sq, out=rest_sq)])


def rotation_pair_diagnostics(
    spec, eps_list, N: int, seed: int, workers: int = 1
) -> list[RotationDiagnostics]:
    """Diagnostics for the random two-plane rotation pair.

    Each of N draws X of spec gets a fresh Haar two-frame (q1, q2), shared
    by every eps, and W_eps = <R X, e_1> for the rotation R by angle
    arcsin(eps) in that plane, so D = W - W_eps = -eps rot + (1 - sqrt(1 -
    eps^2)) rad, with rot = q1_0 s2 - q2_0 s1 and rad = q1_0 s1 + q2_0 s2,
    s_i = <q_i, X>.  Swapping q1 and q2 leaves the two-frame's law unchanged,
    negates rot and keeps rad, so E[rot | X] = 0 and E[D | X] is the
    radial part's: r1 and r1_se regress (1 - sqrt(1 - eps^2)) rad alone on
    W, which leaves out the rotational noise (its standard error would grow
    like 1/eps), and the exact limit of r1 is 2 (1 - sqrt(1 - eps^2)) / eps^2.
    r2 and r3 read the full D.

    Only X_0 = W, X_1 and |X - X_0 e_1| enter, so no n-dimensional row is
    formed: each ``CHUNK_ROWS``-row chunk of a block of the N-row draw with
    ``seed`` takes them from the reduced spherical law (``_rotation_rows``),
    then the two-frame's first coordinates and projections of X from their
    exact law under Gram-Schmidt on two Gaussian vectors, five normals and
    two chi-squares per row (``_rotation_frames``), from the block's
    Generator, chunk after chunk.  Sharing the frames correlates the angles'
    estimates; each angle's standard errors hold for that angle alone.

    Checks run before any draw.  One pass over the blocks, on ``workers``
    threads, in which each block returns the sums of D^2, |D|^3, D^4 and
    |D|^6 for every angle, and of W, W^2, X_1^2, rad, rad W and rad^2, its
    chunks' sums added in turn; each block's sums depend only on its seed
    and are added in block order, so the results do not depend on
    ``workers``.  Memory: per block a few hundred bytes of sums, and per
    worker a few dozen chunk-long arrays.
    """
    if spec.kind not in SPHERICAL_KINDS:
        raise SymmetryError(f"the rotation pair needs a spherical law, got {spec.kind.value}")
    _require_two_samples(N)
    eps_list = list(eps_list)
    for eps in eps_list:
        if not (0.0 < eps < 0.5):
            raise ValueError(f"eps must lie in (0, 1/2), got {eps}")

    n = spec.n
    shrinks = [1.0 - math.sqrt(1.0 - eps * eps) for eps in eps_list]

    def chunk_sums(rng: np.random.Generator, count: int) -> np.ndarray:
        """A chunk's rows X_0, X_1, |X - X_0 e_1|, then its two-frames; D^2,
        |D|^3, D^4, |D|^6 summed for each angle, then W, W^2, X_1^2, rad,
        rad W and rad^2."""
        x0, x1, r_perp = _rotation_rows(rng, spec, count)
        q1_0, s1, q2_0, s2 = _rotation_frames(rng, x0, r_perp, n)
        rotational = q1_0 * s2 - q2_0 * s1
        radial = q1_0 * s1 + q2_0 * s2
        sums = []
        for eps, shrink in zip(eps_list, shrinks):
            d = -eps * rotational + shrink * radial
            d_sq = d * d
            a_cube = np.abs(d) * d_sq
            sums += [d_sq.sum(), a_cube.sum(), (d_sq * d_sq).sum(), (a_cube * a_cube).sum()]
        return np.array([*sums, x0.sum(), (x0 * x0).sum(), (x1 * x1).sum(), radial.sum(),
                         (radial * x0).sum(), (radial * radial).sum()])

    def block_sums(rng: np.random.Generator, count: int):
        yield slice(0, count), sum(chunk_sums(rng, min(CHUNK_ROWS, count - lo))
                                   for lo in range(0, count, CHUNK_ROWS))

    sums = np.sum(_map_blocks(block_sums, _block_seeds(N, seed), lambda rows, sums: sums,
                              workers), axis=0)
    means = (sums / N).tolist()
    w_mean, w_sq_mean, x2_sq_mean, rad_mean, rad_w_mean, rad_sq_mean = means[-6:]

    def diagnose(i: int) -> RotationDiagnostics:
        eps, shrink = eps_list[i], shrinks[i]
        dsq_mean, a3_mean, d4_mean, a6_mean = means[4 * i : 4 * i + 4]
        # shrink rad, not D: the rotational part adds noise and no mean
        slope, _, slope_se = _pair_regression(w_mean, w_sq_mean, shrink * rad_mean,
                                              shrink * rad_w_mean, shrink**2 * rad_sq_mean, N)
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
