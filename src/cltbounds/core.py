"""Shared numeric primitives: p-norms, the standard normal CDF/PDF, the
block, chunk and slice sizes, the thread map, and the mergeable moment summaries
that ``cltbounds sample`` prints (no bound reads them: every gating bound
takes closed-form moments).

All moment accumulation is done with numpy's pairwise-summed reductions on
fixed-size row blocks, so fourth moments of 1e7 samples keep their digits.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterable
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .contract import InsufficientDataError

__all__ = [
    "InsufficientDataError",
    "MomentSummary",
    "as_unit_vector",
    "as_vector",
    "lp_norm",
    "merge_summaries",
    "normal_cdf_points",
    "normal_pdf",
    "summarize",
    "thread_map",
]

# rows per block: the sampler substream unit and every blockwise accumulation
BLOCK_ROWS = 1 << 16
# rows per chunk of an n-wide fill or gather within a block, a divisor of BLOCK_ROWS
CHUNK_ROWS = 1 << 12
# values per slice of the ziggurat and of the count grid's binning: 256 KB temporaries
# (slices of 2^16 left a 2-worker grid's peak RSS about 1 MB higher, at the same speed)
SLICE_VALUES = 1 << 15

_SQRT2 = math.sqrt(2.0)


def thread_map(fn: Callable, items: Iterable, workers: int = 1) -> list:
    """[fn(item) for item in items], on ``workers`` threads when workers > 1.

    The results keep the order of items, so a task that writes only its own
    output and draws only its own substream gives the same result at every
    worker count; numpy's sorts, fills and reductions release the GIL.
    """
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(fn, items))
    return [fn(item) for item in items]


def as_vector(x, n: int | None = None) -> np.ndarray:
    """Validate x as a finite 1-D float vector of dimension >= 2."""
    v = np.asarray(x, dtype=float)
    if v.ndim != 1:
        raise ValueError(f"expected a 1-D vector, got shape {v.shape}")
    if v.size < 2:
        raise ValueError(f"dimension must be at least 2, got {v.size}")
    if n is not None and v.size != n:
        raise ValueError(f"dimension mismatch: expected {n}, got {v.size}")
    if not np.all(np.isfinite(v)):
        raise ValueError("vector entries must be finite")
    return v


def as_unit_vector(x, n: int | None = None, tol: float = 1e-9) -> np.ndarray:
    """Validate x as a unit vector (Euclidean norm within tol of 1)."""
    v = as_vector(x, n)
    nrm = math.sqrt(float(v @ v))
    if abs(nrm - 1.0) > tol:
        raise ValueError(f"expected a unit vector, got norm {nrm!r}")
    return v


def lp_norm(x, p: float) -> float:
    """(sum_i |x_i|^p)^(1/p), or max_i |x_i| for p = inf.

    Rescales by max|x_i| before exponentiating so that large p and large
    entries cannot overflow.
    """
    v = np.abs(np.asarray(x, dtype=float))
    if not np.all(np.isfinite(v)):
        raise ValueError("vector entries must be finite")
    if math.isnan(p) or p < 1.0:
        raise ValueError(f"p must satisfy p >= 1 or p = inf, got {p}")
    m = float(v.max(initial=0.0))
    if math.isinf(p) or m == 0.0:
        return m
    return m * float(np.sum((v / m) ** p)) ** (1.0 / p)


def normal_cdf_points(t):
    """Standard normal distribution function at a few points, by the
    standard library: 0.5 erfc(-t / sqrt 2), point by point.  Within 2.2e-16
    of scipy's ``ndtr`` on [-40, 40]; accepts scalars or arrays.
    """
    t_arr = np.asarray(t, dtype=float)
    values = (0.5 * math.erfc(-x / _SQRT2) for x in map(float, t_arr.flat))  # no list
    out = np.fromiter(values, dtype=float, count=t_arr.size)
    return float(out[0]) if t_arr.ndim == 0 else out.reshape(t_arr.shape)


def normal_pdf(t):
    """Standard normal density."""
    t = np.asarray(t, dtype=float)
    out = np.exp(-0.5 * t * t) / math.sqrt(2.0 * math.pi)
    return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class MomentSummary:
    """Mergeable sample moments of an (N, n) batch.

    Per-coordinate moments are raw sample means; ``sq_pair`` holds the
    (n, n) table of sample means E[X_i^2 X_j^2].  Keeping the table (rather
    than just its off-diagonal max) is what makes ``merge_summaries`` exact;
    consumers should read ``max_sq_cov`` / ``max_sq_cov_pair``, which is all
    the bound formulas use.
    """

    n: int
    count: int
    second: np.ndarray
    third_abs: np.ndarray
    fourth: np.ndarray
    sq_pair: np.ndarray
    norm_sq_mean: float
    norm_sq_sq_mean: float
    abs_norm_dev_mean: float

    @property
    def norm_sq_var(self) -> float:
        """Sample variance of ||X||_2^2."""
        return max(self.norm_sq_sq_mean - self.norm_sq_mean**2, 0.0)

    @property
    def max_fourth(self) -> float:
        return float(self.fourth.max())

    @property
    def max_third_abs(self) -> float:
        return float(self.third_abs.max())

    def _pair_covs(self) -> np.ndarray:
        cov = self.sq_pair - np.outer(self.second, self.second)
        np.fill_diagonal(cov, -np.inf)
        return cov

    @property
    def max_sq_cov(self) -> float:
        """max over i != j of sample Cov(X_i^2, X_j^2)."""
        return float(self._pair_covs().max())

    @property
    def max_sq_cov_pair(self) -> tuple[int, int]:
        cov = self._pair_covs()
        i, j = np.unravel_index(int(np.argmax(cov)), cov.shape)
        return int(i), int(j)

    def to_dict(self) -> dict:
        i, j = self.max_sq_cov_pair
        return {
            "n": self.n,
            "count": self.count,
            "second_moment_mean": float(self.second.mean()),
            "max_fourth": self.max_fourth,
            "max_third_abs": self.max_third_abs,
            "max_sq_cov": self.max_sq_cov,
            "max_sq_cov_pair": [i, j],
            "norm_sq_mean": self.norm_sq_mean,
            "norm_sq_var": self.norm_sq_var,
            "abs_norm_dev_mean": self.abs_norm_dev_mean,
        }


def _batch_data(batch) -> np.ndarray:
    data = getattr(batch, "data", batch)
    data = np.asarray(data, dtype=float)
    if data.ndim != 2:
        raise ValueError(f"expected an (N, n) batch, got shape {data.shape}")
    return data


def summarize(batch) -> MomentSummary:
    """Exact sample moments of a batch, with the full O(n^2 N) pairwise
    square-moment table; a batch that carries ``weights`` (lp surface
    measure) gives its weighted means."""
    data = _batch_data(batch)
    weights = getattr(batch, "weights", None)
    count, n = data.shape
    if count < 2:
        raise InsufficientDataError("need at least 2 samples for covariance fields")

    def total(x: np.ndarray, w: np.ndarray | None) -> np.ndarray:
        return x.sum(axis=0) if w is None else w @ x

    s2 = np.zeros(n)
    s3 = np.zeros(n)
    s4 = np.zeros(n)
    cross = np.zeros((n, n))
    norm_sq_sum = 0.0
    norm_sq_sq_sum = 0.0
    abs_dev_sum = 0.0
    for lo in range(0, count, BLOCK_ROWS):
        blk = data[lo : lo + BLOCK_ROWS]
        w = None if weights is None else weights[lo : lo + BLOCK_ROWS]
        sq = blk * blk
        s2 += total(sq, w)
        s3 += total(sq * np.abs(blk), w)
        s4 += total(sq * sq, w)
        cross += sq.T @ (sq if w is None else sq * w[:, None])
        rowsq = sq.sum(axis=1)
        norm_sq_sum += total(rowsq, w)
        norm_sq_sq_sum += total(rowsq * rowsq, w)
        abs_dev_sum += total(np.abs(rowsq - n), w)

    mass = count if weights is None else float(np.sum(weights))
    return MomentSummary(
        n=n,
        count=count,
        second=s2 / mass,
        third_abs=s3 / mass,
        fourth=s4 / mass,
        sq_pair=cross / mass,
        norm_sq_mean=norm_sq_sum / mass,
        norm_sq_sq_mean=norm_sq_sq_sum / mass,
        abs_norm_dev_mean=abs_dev_sum / mass,
    )


def merge_summaries(a: MomentSummary, b: MomentSummary) -> MomentSummary:
    """Combine two summaries into the summary of the concatenated batches."""
    if a.n != b.n:
        raise ValueError(f"dimension mismatch: {a.n} vs {b.n}")
    ca, cb = a.count, b.count
    tot = ca + cb

    def avg(x, y):
        return (ca * x + cb * y) / tot

    return MomentSummary(
        n=a.n,
        count=tot,
        second=avg(a.second, b.second),
        third_abs=avg(a.third_abs, b.third_abs),
        fourth=avg(a.fourth, b.fourth),
        sq_pair=avg(a.sq_pair, b.sq_pair),
        norm_sq_mean=avg(a.norm_sq_mean, b.norm_sq_mean),
        norm_sq_sq_mean=avg(a.norm_sq_sq_mean, b.norm_sq_sq_mean),
        abs_norm_dev_mean=avg(a.abs_norm_dev_mean, b.abs_norm_dev_mean),
    )
