"""Normalized tight frames and the regular-simplex vertex/edge geometry."""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "SimplexGeometry",
    "TightFrame",
    "check_tight",
    "simplex_edges",
    "simplex_geometry",
    "simplex_projections",
    "standard_frame",
]

LABEL_STANDARD = "standard"
LABEL_SIMPLEX_EDGES = "simplex-edges"
LABEL_CUSTOM = "custom"


@dataclass(frozen=True)
class TightFrame:
    """m unit vectors in R^n with sum_i u_i (x) u_i = (m/n) I."""

    vectors: np.ndarray  # (m, n), rows unit norm
    label: str = LABEL_CUSTOM

    @property
    def m(self) -> int:
        return self.vectors.shape[0]

    @property
    def n(self) -> int:
        return self.vectors.shape[1]

    @property
    def tight_constant(self) -> float:
        return self.m / self.n


def standard_frame(n: int) -> TightFrame:
    """The standard basis of R^n as a tight frame (m = n, constant 1)."""
    if n < 2:
        raise ValueError(f"dimension must be at least 2, got {n}")
    return TightFrame(vectors=np.eye(n), label=LABEL_STANDARD)


def check_tight(frame: TightFrame) -> float:
    """Frobenius norm of sum_i u_i (x) u_i - (m/n) I."""
    U = frame.vectors
    m, n = U.shape
    return float(np.linalg.norm(U.T @ U - (m / n) * np.eye(n), ord="fro"))


def simplex_projections(x) -> np.ndarray:
    """t = V x, V = ``simplex_geometry(n).vertices``, for x (n,) or (n, D) in
    O(n D): column k of V, from 1, is sqrt((n+1)/n) (1, ..., 1, -k, 0, ...)
    / sqrt(k(k+1)), so t_i = sqrt((n+1)/n) (sum_{k>i} a_k - i a_i) with
    a_k = x_k / sqrt(k(k+1)).  Of the identity it is V, bit and layout."""
    x = np.asarray(x, dtype=float).T  # each vector along the last axis
    n = x.shape[-1]
    k = np.arange(1.0, n + 1.0)
    root = np.sqrt(k * (k + 1.0))
    t = np.zeros(x.shape[:-1] + (n + 1,))
    np.cumsum(x[..., ::-1] / root[::-1], axis=-1, out=t[..., -2::-1])  # t_i = sum_{k>i} a_k
    t[..., 1:] -= x * (k / root)
    t *= math.sqrt((n + 1) / n)
    return t.T


def simplex_edges(index, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The vertex pairs (i, j) at edge-frame positions index: ``pair_position`` inverted."""
    i, j = np.divmod(np.asarray(index, dtype=np.intp), n)
    return i, j + (j >= i)


@dataclass(frozen=True)
class SimplexGeometry:
    """Vertices of a centered regular simplex and its edge-difference frame.

    ``vertices`` are n+1 unit vectors with sum v_i = 0 and <v_i, v_j> = -1/n;
    ``edge_frame`` holds the m = n(n+1) ordered-pair vectors
    sqrt(n/(2(n+1))) (v_i - v_j), which again form a tight frame, with
    ``edge_pairs[k]`` recording the (i, j) behind frame position k.  Both
    are built on first use: the frame takes 8 n^2 (n+1) bytes (217 MB at
    n = 300).  No command builds a SimplexGeometry: each takes t = V x from
    ``simplex_projections`` and the vertex pairs from ``simplex_edges``.
    """

    n: int
    vertices: np.ndarray = field(repr=False)  # (n+1, n)

    @functools.cached_property
    def edge_pairs(self) -> np.ndarray:
        return np.column_stack(simplex_edges(np.arange(self.m), self.n))

    @functools.cached_property
    def edge_frame(self) -> TightFrame:
        n, v = self.n, self.vertices
        scale = math.sqrt(n / (2.0 * (n + 1)))
        edges = np.empty((self.m, n))  # filled a vertex at a time: one frame held, not two
        for i in range(n + 1):
            edges[i * n : (i + 1) * n] = scale * (v[i] - np.delete(v, i, axis=0))
        return TightFrame(vectors=edges, label=LABEL_SIMPLEX_EDGES)

    @property
    def m(self) -> int:
        return self.n * (self.n + 1)

    def pair_position(self, i: int, j: int) -> int:
        """Frame position of the ordered pair (i, j), 0-based vertex indices."""
        n = self.n
        if i == j or not (0 <= i <= n and 0 <= j <= n):
            raise ValueError(f"need distinct vertex indices in 0..{n}, got ({i}, {j})")
        return i * n + (j if j < i else j - 1)


def simplex_geometry(n: int) -> SimplexGeometry:
    """Construct the regular-simplex vertex and edge frames in R^n."""
    if n < 2:
        raise ValueError(f"dimension must be at least 2, got {n}")
    return SimplexGeometry(n=n, vertices=simplex_projections(np.eye(n)))
