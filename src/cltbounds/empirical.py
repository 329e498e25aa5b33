"""Empirical distance estimation: projection of an unweighted batch, exact
Kolmogorov statistics of the projections with DKW confidence slack, histogram
total-variation lower bounds, and conditional second-moment estimation."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bounds import KOLMOGOROV, TOTAL_VARIATION
from .core import InsufficientDataError, _ndtr, as_unit_vector, normal_cdf_points
from .samplers import SPHERICAL_KINDS, SampleBatch, map_sample_blocks

__all__ = [
    "DEFAULT_DELTA",
    "DistanceEstimate",
    "HISTOGRAM_MIN_SAMPLES",
    "KS_MIN_SAMPLES",
    "conditional_second_moment",
    "dkw_slack",
    "kolmogorov_vs_normal",
    "project",
    "streaming_pair_square_covariance",
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


# rows per step of the Kolmogorov gap pass: its 64 KB temporaries come from
# the allocator's heap, where full-length ones (8 MB each at N = 1e6) are
# mapped afresh on every call; on scan-ank's two threads those raised the
# peak RSS by 30-45 MB
_GAP_ROWS = 1 << 13


def _ks_statistic(values: np.ndarray, overwrite: bool = False) -> float:
    """Exact sup_t |F_N(t) - Phi(t)| over the sorted sample, in one pass:
    sort, Phi in place, then both one-sided gaps, ``_GAP_ROWS`` at a time.

    The statistic of -W equals that of W: the gaps of -W at its order
    statistic n + 1 - i are those of W at i, sides swapped, so one sign
    suffices.  With ``overwrite`` the sort and Phi run in the float array
    ``values`` itself instead of a copy.
    """
    x = values if overwrite else np.array(values, dtype=float)
    x.sort()
    _ndtr()(x, out=x)
    n, maxima = x.shape[0], []
    for lo in range(0, n, _GAP_ROWS):
        cdf = x[lo : lo + _GAP_ROWS]
        after = np.arange(lo + 1, lo + 1 + len(cdf)) / n  # F_N just after each
        maxima += [(after - cdf).max(), (cdf - (after - 1.0 / n)).max()]
    return float(np.max(maxima))


def kolmogorov_vs_normal(values: np.ndarray, delta: float = DEFAULT_DELTA) -> DistanceEstimate:
    """Exact Kolmogorov distance of the empirical law of ``values`` from the standard normal.

    The supremum is evaluated at every order statistic (both one-sided gaps),
    so there is no grid error.
    """
    N = len(values)
    if N < KS_MIN_SAMPLES:
        raise InsufficientDataError(f"need at least {KS_MIN_SAMPLES} samples, got {N}")
    return DistanceEstimate(
        kind=KOLMOGOROV,
        point_estimate=_ks_statistic(values),
        n_samples=N,
        dkw_slack=dkw_slack(N, delta),
        delta=delta,
    )


def tv_vs_normal_histogram(values: np.ndarray, bins: int | None = None) -> DistanceEstimate:
    """Histogram total-variation estimate of ``values`` against the standard normal.

    Values are clipped into [-HISTOGRAM_SUPPORT, HISTOGRAM_SUPPORT]; the edge
    bins absorb the normal tail mass beyond that, so both measures live on the
    same finite partition and the estimate is a genuine lower bound of the
    true total variation (coarsening never increases L1), hence the qualifier.
    """
    N = len(values)
    if N < HISTOGRAM_MIN_SAMPLES:
        raise InsufficientDataError(f"need at least {HISTOGRAM_MIN_SAMPLES} samples, got {N}")
    if bins is None:
        bins = math.ceil(N ** (1.0 / 3.0))
    edges = np.linspace(-HISTOGRAM_SUPPORT, HISTOGRAM_SUPPORT, bins + 1)
    clipped = np.clip(values, -HISTOGRAM_SUPPORT, HISTOGRAM_SUPPORT)
    empirical = np.histogram(clipped, bins=edges)[0] / N
    cdf = normal_cdf_points(edges)
    cdf[0], cdf[-1] = 0.0, 1.0  # edge bins absorb the tails
    gaussian = np.diff(cdf)
    return DistanceEstimate(
        kind=TOTAL_VARIATION,
        point_estimate=float(np.abs(empirical - gaussian).sum()),
        n_samples=N,
        qualifiers=(QUALIFIER_HISTOGRAM,),
    )


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


def _equal_count_bin_means(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Means of y over ceil(N^(1/3)) equal-count bins of x, and the bin sizes:
    the binned estimate of E[y | x]."""
    bins = np.array_split(np.argsort(x), math.ceil(len(x) ** (1.0 / 3.0)))
    means = np.array([float(y[idx].mean()) for idx in bins])
    return means, np.array([len(idx) for idx in bins], dtype=float)


def streaming_pair_square_covariance(spec, n_samples: int, seed: int) -> tuple[float, float]:
    """Sample Cov(X_1^2, X_2^2) without materializing the batch.

    Returns (covariance, standard error); the standard error comes from the
    spread of per-block covariance estimates.
    """
    per_block = []  # (sum a, sum b, sum ab, covariance) of each block, in order

    def take(rows: slice, block: np.ndarray) -> None:
        a = block[:, 0] ** 2
        b = block[:, 1] ** 2
        ab = a * b
        per_block.append((a.sum(), b.sum(), ab.sum(), float(ab.mean() - a.mean() * b.mean())))

    map_sample_blocks(spec, n_samples, seed, take)  # one worker: blocks in order
    s1, s2, s12, block_covs = zip(*per_block)
    cov = sum(s12) / n_samples - (sum(s1) / n_samples) * (sum(s2) / n_samples)
    if len(block_covs) > 1:
        spread = np.asarray(block_covs)
        se = float(spread.std(ddof=1) / math.sqrt(len(spread)))
    else:
        se = 0.0
    return float(cov), se

