"""Empirical distance estimation: projection of an unweighted batch, and
every sampled statistic read from counts on one fixed grid: the Kolmogorov
statistic, bracketed from both sides, with DKW confidence slack, histogram
total-variation lower bounds, and conditional means over quantile bins."""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .bounds import KOLMOGOROV, TOTAL_VARIATION
from .core import SLICE_VALUES, InsufficientDataError, as_unit_vector, normal_cdf_points
from .exact import SPHERICAL_KINDS
from .samplers import SampleBatch, map_projection_blocks

__all__ = [
    "DEFAULT_DELTA",
    "DistanceEstimate",
    "HISTOGRAM_MIN_SAMPLES",
    "KS_BINS",
    "KS_COUNTS",
    "KS_MIN_SAMPLES",
    "KS_REACH",
    "add_ks_counts",
    "bin_totals",
    "conditional_second_moment",
    "dkw_slack",
    "kolmogorov_from_counts",
    "kolmogorov_vs_normal",
    "project",
    "streaming_pair_square_covariance",
    "tv_from_counts",
    "tv_vs_normal_histogram",
]

# small per-test failure probability: certification suites run 100+ cells
DEFAULT_DELTA = 1e-3

# fewest samples each estimator accepts
KS_MIN_SAMPLES = 100
HISTOGRAM_MIN_SAMPLES = 10_000

QUALIFIER_HISTOGRAM = "histogram-lower-bound"
HISTOGRAM_SUPPORT = 6.0

# the Kolmogorov count grid: KS_BINS cells of width 2^-10 on [-KS_REACH, KS_REACH]
KS_REACH = 8.0
KS_BINS = 1 << 14
_KS_PER_UNIT = KS_BINS / (2.0 * KS_REACH)  # 1024, a power of two
# a row of counts: the lower tail, the KS_BINS cells, the upper tail, then the NaNs
KS_COUNTS = KS_BINS + 3


@dataclass(frozen=True)
class DistanceEstimate:
    """A distance point estimate plus the confidence slack that applies to it.

    An estimate from Kolmogorov counts (``kolmogorov_from_counts``) also
    carries ``upper_estimate``, a statistic at least the exact one, and the
    count grid it was read from: ``grid_bins`` cells on
    [-``grid_reach``, ``grid_reach``]."""

    kind: str
    point_estimate: float
    n_samples: int
    dkw_slack: float | None = None
    delta: float | None = None
    qualifiers: tuple[str, ...] = ()
    upper_estimate: float | None = None
    grid_bins: int | None = None
    grid_reach: float | None = None

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "point_estimate": self.point_estimate,
            "n_samples": self.n_samples,
            "dkw_slack": self.dkw_slack,
            "delta": self.delta,
            "qualifiers": list(self.qualifiers),
            "upper_estimate": self.upper_estimate,
            "grid_bins": self.grid_bins,
            "grid_reach": self.grid_reach,
        }


def dkw_slack(n_samples: int, delta: float) -> float:
    """DKW band half-width: sup|F_N - F| <= slack with probability >= 1 - delta.

    sqrt(ln(2/delta) / (2N)) carries the tight constant 2 of Massart, "The
    tight constant in the Dvoretzky-Kiefer-Wolfowitz inequality", Ann.
    Probab. 1990.
    """
    if n_samples < 1:
        raise ValueError("need at least one sample")
    if not (0.0 < delta < 1.0):
        raise ValueError(f"delta must lie in (0, 1), got {delta}")
    return math.sqrt(math.log(2.0 / delta) / (2.0 * n_samples))


def project(batch: SampleBatch, theta) -> np.ndarray:
    """The 1-D array of W = <X, theta> over the rows of an unweighted batch:
    the estimators treat rows alike, and the DKW slack needs no weights."""
    if batch.weights is not None:
        raise ValueError("batch carries weights; the estimators take unweighted samples only")
    return batch.data @ as_unit_vector(theta, batch.n)


def add_ks_counts(counts: np.ndarray, block: np.ndarray) -> None:
    """Add each column of the (m, R) float ``block`` to the matching row of
    the C-contiguous (R, ``KS_COUNTS``) int64 table ``counts``: the
    Kolmogorov count grid of ``kolmogorov_from_counts``.

    A row counts the values below -``KS_REACH``, then those in each of the
    ``KS_BINS`` cells [t_j, t_(j+1)), t_j = -``KS_REACH`` + j 2^-10, then
    those at or above ``KS_REACH`` (infinities in the tails), then the
    NaNs.  A value x is counted in position trunc(clip(1024 x + 8193, 0,
    KS_BINS + 1)): 1024 x is exact and a value on an edge counts in the
    cell it opens; only the rounding of the sum can move a value across an
    edge, by at most 2^-49 (1.8e-15), over which Phi moves by less than
    8e-16.  Each value is counted on its own and integer sums do not depend
    on their order, so the counts of a stream are the sums of its blocks'
    counts, bit for bit in any block order.  The block is taken
    ``core.SLICE_VALUES`` values at a time.
    """
    if not counts.flags.c_contiguous:  # its flat view would be a copy, and stay empty
        raise ValueError("the count table must be C-contiguous")
    rows, width = block.shape
    step = max(1, SLICE_VALUES // width)
    flat = counts.reshape(-1)
    # each column's offset in flat, for a whole slice (a broadcast add is slower)
    offsets = np.broadcast_to(np.arange(width) * KS_COUNTS, (min(step, rows), width)).copy()
    for lo in range(0, rows, step):
        at = _ks_positions(block[lo : lo + step])
        at += offsets[: len(at)]
        np.add.at(flat, at.reshape(-1), 1)


def _ks_positions(values: np.ndarray) -> np.ndarray:
    """The position of each of ``values`` in a row of ``add_ks_counts``."""
    with np.errstate(over="ignore"):  # 1024 x past 1.7e308: inf, the upper tail
        t = np.multiply(values, _KS_PER_UNIT)
    t += KS_REACH * _KS_PER_UNIT + 1.0
    np.clip(t, 0.0, KS_BINS + 1.0, out=t)
    np.copyto(t, KS_BINS + 2.0, where=np.isnan(t))  # a bare cast would not keep them
    return t.astype(np.intp)


def _edge_positions(edges) -> np.ndarray:
    """The position of the cell opened by the grid edge nearest each of
    ``edges`` in [-KS_REACH, KS_REACH]: the first position at or above it."""
    return np.rint(np.multiply(edges, _KS_PER_UNIT)).astype(np.intp) + (KS_BINS // 2 + 1)


@functools.cache
def _ks_edge_cdf() -> np.ndarray:
    """Phi at -inf, at the KS_BINS + 1 edges of the count grid and at inf."""
    edges = np.arange(KS_BINS + 1) / _KS_PER_UNIT - KS_REACH  # exact
    cdf = np.concatenate(([0.0], normal_cdf_points(edges), [1.0]))
    cdf.flags.writeable = False
    return cdf


def _ks_below(counts: np.ndarray) -> np.ndarray:
    """F_N(t-), the fraction of a NaN-free row ``counts`` counted before each
    position: at -inf, at the KS_BINS + 1 edges and at inf, as ``_ks_edge_cdf``."""
    return np.concatenate(([0], np.cumsum(counts[:-1]))) / counts.sum()


def kolmogorov_from_counts(counts: np.ndarray, delta: float = DEFAULT_DELTA) -> DistanceEstimate:
    """The Kolmogorov distance from the standard normal of the N values
    whose counts on the grid of ``add_ks_counts`` are the row ``counts``,
    bracketed from both sides, with DKW slack.

    With F_N(t-) the fraction of values below t, read off the counts at
    each edge t_j, and with t_(-1) = -inf and t_(KS_BINS + 1) = inf:

    * the point estimate K_lo = max_j |F_N(t_j-) - Phi(t_j)| is at most the
      exact statistic sup_t |F_N(t) - Phi(t)|, as Phi is continuous;
    * ``upper_estimate`` K_hi = max over the cells [t_j, t_(j+1)) and the
      two tails of max(F_N(t_(j+1)-) - Phi(t_j), Phi(t_(j+1)) - F_N(t_j-))
      is at least it, as F_N and Phi are both nondecreasing.

    Both hold up to the binning's rounding (``add_ks_counts``), below 1e-15.
    The gate K_lo - slack <= bound therefore fails only where the exact
    statistic fails too.  A NaN among the values gives NaN for both.
    """
    N = int(counts.sum())
    if N < KS_MIN_SAMPLES:
        raise InsufficientDataError(f"need at least {KS_MIN_SAMPLES} samples, got {N}")
    if counts[-1]:
        lower = upper = math.nan
    else:
        below, cdf = _ks_below(counts), _ks_edge_cdf()
        lower = float(np.abs(below[1:-1] - cdf[1:-1]).max())
        upper = float(max((below[1:] - cdf[:-1]).max(), (cdf[1:] - below[:-1]).max()))
    return DistanceEstimate(
        kind=KOLMOGOROV,
        point_estimate=lower,
        n_samples=N,
        dkw_slack=dkw_slack(N, delta),
        delta=delta,
        upper_estimate=upper,
        grid_bins=KS_BINS,
        grid_reach=KS_REACH,
    )


def kolmogorov_vs_normal(values: np.ndarray, delta: float = DEFAULT_DELTA) -> DistanceEstimate:
    """The Kolmogorov distance of the empirical law of ``values`` from the
    standard normal: ``kolmogorov_from_counts`` of their counts on the grid
    of ``add_ks_counts``.  K_lo is below the exact statistic by at most the
    largest rise of Phi over one cell, 2^-10 phi(0) (3.9e-4)."""
    counts = np.zeros((1, KS_COUNTS), dtype=np.int64)
    add_ks_counts(counts, np.asarray(values, dtype=float).reshape(-1, 1))
    return kolmogorov_from_counts(counts[0], delta)


def tv_from_counts(counts: np.ndarray, bins: int | None = None) -> DistanceEstimate:
    """The histogram total-variation estimate against the standard normal
    of the N values counted in the row ``counts`` of ``add_ks_counts``: the
    L1 distance between the increments of F_N and Phi over the grid edges
    nearest -6 + 12 j / B, 0 < j < B (``HISTOGRAM_SUPPORT`` = 6), B =
    ``bins``, by default ceil(N^(1/3)), the outer two bins taking the tails.
    It is a lower bound of the true total variation, as coarsening never
    increases L1, hence the qualifier.  Refuses N below
    ``HISTOGRAM_MIN_SAMPLES``; NaN if a value is NaN."""
    N = int(counts.sum())
    if N < HISTOGRAM_MIN_SAMPLES:
        raise InsufficientDataError(f"need at least {HISTOGRAM_MIN_SAMPLES} samples, got {N}")
    if bins is None:
        bins = math.ceil(N ** (1.0 / 3.0))
    inner = -HISTOGRAM_SUPPORT + 2.0 * HISTOGRAM_SUPPORT * np.arange(1, bins) / bins
    at = np.concatenate(([0], _edge_positions(inner), [KS_COUNTS - 1]))
    tv = float(np.abs(np.diff(_ks_below(counts)[at]) - np.diff(_ks_edge_cdf()[at])).sum())
    return DistanceEstimate(
        kind=TOTAL_VARIATION,
        point_estimate=math.nan if counts[-1] else tv,
        n_samples=N,
        qualifiers=(QUALIFIER_HISTOGRAM,),
        grid_bins=KS_BINS,
        grid_reach=KS_REACH,
    )


def tv_vs_normal_histogram(values: np.ndarray, bins: int | None = None) -> DistanceEstimate:
    """Histogram total-variation estimate of ``values`` against the standard
    normal: ``tv_from_counts`` of their counts on the grid of
    ``add_ks_counts``."""
    counts = np.zeros((1, KS_COUNTS), dtype=np.int64)
    add_ks_counts(counts, np.asarray(values, dtype=float).reshape(-1, 1))
    return tv_from_counts(counts[0], bins)


def conditional_second_moment(batch: SampleBatch) -> float:
    """Estimate E|1 - E[X_2^2 | X_1]| for a spherically symmetric batch.

    Uses the identity E[X_2^2 | X_1] = (E[||X||^2 | X_1] - X_1^2)/(n-1) of
    spherically symmetric laws, estimating the conditional mean over the
    ``bin_totals`` of X_1 (ceil(N^(1/3)) bins, bias O(N^(-1/3))); NaN if
    an X_1 is NaN.  Refuses a batch whose spec is missing or not
    spherically symmetric.
    """
    if batch.spec is None or batch.spec.kind not in SPHERICAL_KINDS:
        raise ValueError(
            "batch spec is not spherically symmetric; the conditional identity does not apply"
        )
    if batch.N < 100_000:
        raise InsufficientDataError(f"need at least 1e5 samples, got {batch.N}")
    x1 = batch.data[:, 0]
    rowsq = np.einsum("ij,ij->i", batch.data, batch.data)
    sizes, sums = bin_totals(x1, (rowsq - x1 * x1) / (batch.n - 1), batch.N)
    # the sum over bins of size |1 - mean|; a NaN X_1 is in no bin
    return float(np.abs(sizes - sums).sum()) / batch.N if sizes.sum() == batch.N else math.nan


def bin_totals(x: np.ndarray, y: np.ndarray, N: int) -> np.ndarray:
    """The (2, B) count and sum of y over the x in each of the B = ceil(N^(1/3))
    bins [c_(j-1), c_j) of a stream of N values, c_j the grid edge nearest the
    standard normal's j/B quantile: x is an isotropic projection, close to
    N(0, 1), so these are near the equal-count bins of its limit law.  Each x
    is binned by its ``add_ks_counts`` position, with no search; a NaN x is
    dropped.  A stream's totals are its blocks'."""
    bins = math.ceil(N ** (1.0 / 3.0))
    at = _quantile_bin_of(bins)[_ks_positions(x)]
    return np.stack([np.bincount(at, minlength=bins + 1),
                     np.bincount(at, y, minlength=bins + 1)])[:, :bins]


@functools.cache
def _quantile_bin_of(bins: int) -> np.ndarray:
    """The bin of ``bin_totals`` that each grid position falls in, and
    ``bins``, dropped, for the NaN position."""
    from statistics import NormalDist  # 0.5 MB that certification does not load

    cuts = _edge_positions([NormalDist().inv_cdf(j / bins) for j in range(1, bins)])
    table = np.repeat(np.arange(bins + 1), np.diff([0, *cuts, KS_COUNTS - 1, KS_COUNTS]))
    table.flags.writeable = False
    return table


def streaming_pair_square_covariance(spec, n_samples: int, seed: int) -> tuple[float, float]:
    """Sample Cov(X_1^2, X_2^2) from the blocks of projections onto e_1 and e_2.

    Returns (covariance, standard error); the standard error comes from the
    spread of per-block covariance estimates.
    """

    def take(rows: slice, block: np.ndarray) -> tuple:
        """(sum a, sum b, sum ab, covariance) of the block."""
        a = block[:, 0] ** 2
        b = block[:, 1] ** 2
        ab = a * b
        return a.sum(), b.sum(), ab.sum(), float(ab.mean() - a.mean() * b.mean())

    s1, s2, s12, block_covs = zip(*map_projection_blocks(spec, np.eye(spec.n, 2), n_samples,
                                                         seed, take))
    cov = sum(s12) / n_samples - (sum(s1) / n_samples) * (sum(s2) / n_samples)
    if len(block_covs) > 1:
        spread = np.asarray(block_covs)
        se = float(spread.std(ddof=1) / math.sqrt(len(spread)))
    else:
        se = 0.0
    return float(cov), se

