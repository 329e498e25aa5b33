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
    "simplex_geometry",
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


def _helmert_complement(n: int) -> np.ndarray:
    """(n, n+1) matrix with orthonormal rows spanning the hyperplane 1^perp.

    Row k is (1, ..., 1, -k, 0, ..., 0)/sqrt(k(k+1)); the k leading ones sum
    to exactly k in floating point, so each row is exactly orthogonal to 1.
    """
    B = np.zeros((n, n + 1))
    for k in range(1, n + 1):
        B[k - 1, :k] = 1.0
        B[k - 1, k] = -float(k)
        B[k - 1] /= math.sqrt(k * (k + 1))
    return B


@dataclass(frozen=True)
class SimplexGeometry:
    """Vertices of a centered regular simplex and its edge-difference frame.

    ``vertices`` are n+1 unit vectors with sum v_i = 0 and <v_i, v_j> = -1/n;
    ``edge_frame`` holds the m = n(n+1) ordered-pair vectors
    sqrt(n/(2(n+1))) (v_i - v_j), which again form a tight frame, with
    ``edge_pairs[k]`` recording the (i, j) behind frame position k.  Both
    are built on first use: the frame takes 8 n^2 (n+1) bytes (217 MB at
    n = 300), and the samplers, the simplex bound and the reflection pair
    read only the vertices (the pair also reads ``edge_pairs``).
    """

    n: int
    vertices: np.ndarray = field(repr=False)  # (n+1, n)

    @functools.cached_property
    def edge_pairs(self) -> np.ndarray:
        n = self.n
        i = np.repeat(np.arange(n + 1), n)
        j = np.tile(np.arange(n), n + 1)
        j += j >= i  # vertex i's n partners, in order, skipping i
        return np.column_stack((i, j))

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
    B = _helmert_complement(n)
    vertices = math.sqrt((n + 1) / n) * B.T  # row i = image of e_i, centered + normalized
    return SimplexGeometry(n=n, vertices=vertices)
