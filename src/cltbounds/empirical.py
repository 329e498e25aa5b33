"""Empirical distance estimation: projection of an unweighted batch, exact
Kolmogorov statistics of the projections with DKW confidence slack, histogram
total-variation lower bounds, and conditional second-moment estimation."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bounds import KOLMOGOROV, TOTAL_VARIATION
from .core import InsufficientDataError, as_unit_vector, normal_cdf_points
from .exact import SPHERICAL_KINDS
from .samplers import SampleBatch, map_projection_blocks

__all__ = [
    "DEFAULT_DELTA",
    "DistanceEstimate",
    "HISTOGRAM_MIN_SAMPLES",
    "KS_MIN_SAMPLES",
    "conditional_second_moment",
    "dkw_slack",
    "histogram_counts",
    "histogram_edges",
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


@dataclass(frozen=True)
class DistanceEstimate:
    """A distance point estimate plus the confidence slack that applies to it."""

    kind: str
    point_estimate: float
    n_samples: int
    dkw_slack: float | None = None
    delta: float | None = None
    qualifiers: tuple[str, ...] = ()

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "point_estimate": self.point_estimate,
            "n_samples": self.n_samples,
            "dkw_slack": self.dkw_slack,
            "delta": self.delta,
            "qualifiers": list(self.qualifiers),
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


# rows per step of the Kolmogorov gap pass: its two 32 KB buffers come from
# the allocator's heap, where full-length temporaries (8 MB each at N = 1e6)
# are mapped afresh on every call; on scan-ank's two threads those raised
# the peak RSS by 30-45 MB
_GAP_ROWS = 1 << 12
_RANKS = np.arange(1.0, _GAP_ROWS + 1.0)  # 1, ..., _GAP_ROWS: the ranks of a step

# Abramowitz and Stegun 7.1.26 (Hastings): for z >= 0,
# erfc(z) = t (a1 + t (a2 + ... + t a5)) exp(-z^2) + e(z), t = 1 / (1 + p z),
# |e(z)| <= 1.5e-7.  Halved, and with z = |x| / sqrt 2, it gives Phi within
# 7.5e-8; _PHI_SLACK adds the rounding and the 2.2e-16 of normal_cdf_points.
_AS_P = 0.3275911 / math.sqrt(2.0)
_AS_A = tuple(0.5 * a for a in (  # a5, ..., a1, halved
    1.061405429, -1.453152027, 1.421413741, -0.284496736, 0.254829592))
_PHI_SLACK = 1e-7


def _approximate_gaps(x: np.ndarray, lo: int, n: int, zero: int,
                      bufs: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """F_N just after each point of the sorted chunk ``x`` (global ranks
    lo + 1, ...) minus the Hastings Phi there, in one of ``bufs``: the
    points before ``zero`` are negative.  Each gap is within _PHI_SLACK of
    the gap with the exact Phi; F_N just before is 1/n below F_N just after,
    so the other side's gap is 1/n minus this one."""
    m = len(x)
    t, q = (b[:m] for b in bufs)
    np.abs(x, out=t)
    t *= _AS_P
    t += 1.0
    np.reciprocal(t, out=t)
    np.multiply(t, _AS_A[0], out=q)
    for a in _AS_A[1:]:  # Horner
        q += a
        q *= t
    e = np.multiply(x, x, out=t)  # t is spent
    e *= -0.5
    np.exp(e, out=e)
    q *= e  # Phi at the negative points, 1 - Phi at the others
    split = min(max(zero - lo, 0), m)
    np.subtract(1.0, q[split:], out=q[split:])
    np.add(_RANKS[:m], lo, out=t)
    t /= n
    return np.subtract(t, q, out=t)


def _ks_statistic(values: np.ndarray, overwrite: bool = False) -> float:
    """Exact sup_t |F_N(t) - Phi(t)| over the sorted sample: both one-sided
    gaps at every order statistic, the largest of them with Phi from
    ``normal_cdf_points``.

    One pass takes every gap with the Hastings Phi (within _PHI_SLACK),
    ``_GAP_ROWS`` points at a time in two reused buffers, and keeps each
    step's largest gap on either side.  Only a point whose approximate gap
    lies within 2 _PHI_SLACK of the largest can hold the supremum; those few
    points get the exact Phi, in one call, so the result equals the
    statistic with the exact Phi at every point.  A NaN among the values
    gives NaN.

    The statistic of -W equals that of W: the gaps of -W at its order
    statistic n + 1 - i are those of W at i, sides swapped, so one sign
    suffices.  With ``overwrite`` the sort runs in the float array ``values``
    itself instead of a copy.
    """
    x = values if overwrite else np.array(values, dtype=float)
    x.sort()
    n = x.shape[0]
    if np.isnan(x[-1]):  # the sort puts NaN last
        return math.nan
    zero = int(np.searchsorted(x, 0.0))
    bufs = tuple(np.empty(min(n, _GAP_ROWS)) for _ in range(2))
    starts = range(0, n, _GAP_ROWS)
    with np.errstate(over="ignore"):  # x * x past 1e154: exp(-inf) = 0, as it should
        largest = []  # each step's largest approximate gap, either side
        for lo in starts:
            gaps = _approximate_gaps(x[lo : lo + _GAP_ROWS], lo, n, zero, bufs)
            largest.append(max(gaps.max(), 1.0 / n - gaps.min()))
        floor = max(largest) - 2.0 * _PHI_SLACK
        near = []  # the points whose approximate gap reaches the floor
        for lo, step_largest in zip(starts, largest):
            if step_largest >= floor:
                gaps = _approximate_gaps(x[lo : lo + _GAP_ROWS], lo, n, zero, bufs)
                near.append(lo + np.flatnonzero((gaps >= floor) | (gaps <= 1.0 / n - floor)))
    at = np.concatenate(near)
    cdf = normal_cdf_points(x[at])
    after = (at + 1.0) / n  # F_N just after each, as (rank + lo) / n in the pass
    return float(max((after - cdf).max(), (cdf - (after - 1.0 / n)).max()))


def kolmogorov_vs_normal(values: np.ndarray, delta: float = DEFAULT_DELTA,
                         overwrite: bool = False) -> DistanceEstimate:
    """Exact Kolmogorov distance of the empirical law of ``values`` from the standard normal.

    The supremum is evaluated at every order statistic (both one-sided gaps),
    so there is no grid error.  ``overwrite`` sorts the float array ``values`` in place.
    """
    N = len(values)
    if N < KS_MIN_SAMPLES:
        raise InsufficientDataError(f"need at least {KS_MIN_SAMPLES} samples, got {N}")
    return DistanceEstimate(
        kind=KOLMOGOROV,
        point_estimate=_ks_statistic(values, overwrite),
        n_samples=N,
        dkw_slack=dkw_slack(N, delta),
        delta=delta,
    )


def histogram_edges(N: int, bins: int | None = None) -> np.ndarray:
    """The bin edges of the histogram of N values: ``bins``, by default
    ceil(N^(1/3)), equal bins over [-HISTOGRAM_SUPPORT, HISTOGRAM_SUPPORT].
    Refuses N below ``HISTOGRAM_MIN_SAMPLES``."""
    if N < HISTOGRAM_MIN_SAMPLES:
        raise InsufficientDataError(f"need at least {HISTOGRAM_MIN_SAMPLES} samples, got {N}")
    if bins is None:
        bins = math.ceil(N ** (1.0 / 3.0))
    return np.linspace(-HISTOGRAM_SUPPORT, HISTOGRAM_SUPPORT, bins + 1)


def histogram_counts(values: np.ndarray, edges: np.ndarray) -> np.ndarray:
    """The int64 counts of ``values`` over ``edges``, clipped so that the edge
    bins absorb the tails.  Each value is binned on its own, so the counts of
    a stream are the sums of its blocks' counts."""
    return np.histogram(np.clip(values, -HISTOGRAM_SUPPORT, HISTOGRAM_SUPPORT), bins=edges)[0]


def tv_from_counts(counts: np.ndarray, edges: np.ndarray, N: int) -> DistanceEstimate:
    """The histogram total-variation estimate of N values with bin counts
    ``counts`` over ``edges`` against the standard normal, whose edge bins
    absorb its tails too: both measures live on the same finite partition,
    so the estimate is a genuine lower bound of the true total variation
    (coarsening never increases L1), hence the qualifier."""
    cdf = normal_cdf_points(edges)
    cdf[0], cdf[-1] = 0.0, 1.0  # edge bins absorb the tails
    gaussian = np.diff(cdf)
    return DistanceEstimate(
        kind=TOTAL_VARIATION,
        point_estimate=float(np.abs(counts / N - gaussian).sum()),
        n_samples=N,
        qualifiers=(QUALIFIER_HISTOGRAM,),
    )


def tv_vs_normal_histogram(values: np.ndarray, bins: int | None = None) -> DistanceEstimate:
    """Histogram total-variation estimate of ``values`` against the standard
    normal: their ``histogram_counts``, then ``tv_from_counts``."""
    edges = histogram_edges(len(values), bins)
    return tv_from_counts(histogram_counts(values, edges), edges, len(values))


def conditional_second_moment(batch: SampleBatch) -> float:
    """Estimate E|1 - E[X_2^2 | X_1]| for a spherically symmetric batch.

    Uses the identity E[X_2^2 | X_1] = (E[||X||^2 | X_1] - X_1^2)/(n-1) of
    spherically symmetric laws, estimating the conditional mean by
    equal-count binning on X_1 (about N^(1/3) bins, bias O(N^(-1/3))).
    Refuses a batch whose spec is missing or not spherically symmetric.
    """
    if batch.spec is None or batch.spec.kind not in SPHERICAL_KINDS:
        raise ValueError(
            "batch spec is not spherically symmetric; the conditional identity does not apply"
        )
    if batch.N < 100_000:
        raise InsufficientDataError(f"need at least 1e5 samples, got {batch.N}")
    n = batch.n
    x1 = batch.data[:, 0]
    rowsq = np.einsum("ij,ij->i", batch.data, batch.data)
    y = (rowsq - x1 * x1) / (n - 1)
    means, sizes = _equal_count_bin_means(x1, y)
    return float(sizes @ np.abs(1.0 - means)) / batch.N


def _equal_count_bins(x: np.ndarray) -> list[np.ndarray]:
    """The row indices of ceil(N^(1/3)) equal-count bins of x, in order of x."""
    return np.array_split(np.argsort(x), math.ceil(len(x) ** (1.0 / 3.0)))


def _equal_count_bin_means(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Means of y over the equal-count bins of x, and the bin sizes: the
    binned estimate of E[y | x]."""
    bins = _equal_count_bins(x)
    means = np.array([float(y[idx].mean()) for idx in bins])
    return means, np.array([len(idx) for idx in bins], dtype=float)


def streaming_pair_square_covariance(spec, n_samples: int, seed: int) -> tuple[float, float]:
    """Sample Cov(X_1^2, X_2^2) from the blocks of projections onto e_1 and e_2.

    Returns (covariance, standard error); the standard error comes from the
    spread of per-block covariance estimates.
    """
    per_block = []  # (sum a, sum b, sum ab, covariance) of each block, in order

    def take(rows: slice, block: np.ndarray) -> None:
        a = block[:, 0] ** 2
        b = block[:, 1] ** 2
        ab = a * b
        per_block.append((a.sum(), b.sum(), ab.sum(), float(ab.mean() - a.mean() * b.mean())))

    map_projection_blocks(spec, np.eye(spec.n, 2), n_samples, seed, take)
    s1, s2, s12, block_covs = zip(*per_block)
    cov = sum(s12) / n_samples - (sum(s1) / n_samples) * (sum(s2) / n_samples)
    if len(block_covs) > 1:
        spread = np.asarray(block_covs)
        se = float(spread.std(ddof=1) / math.sqrt(len(spread)))
    else:
        se = 0.0
    return float(cov), se

