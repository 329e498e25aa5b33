"""Normalized tight frames, regular-simplex vertex/edge geometry,
frame-coefficient computation, and hyperplane reflections."""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .core import as_vector

__all__ = [
    "SimplexGeometry",
    "TightFrame",
    "check_tight",
    "custom_frame",
    "frame_coeffs",
    "reflect",
    "simplex_geometry",
    "standard_frame",
]

# residual above which a user-supplied frame is rejected outright
CUSTOM_RESIDUAL_TOL = 1e-8

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


def custom_frame(vectors, label: str = LABEL_CUSTOM) -> TightFrame:
    """Validate and wrap user-supplied frame vectors.

    Rejects frames whose rows are not unit vectors or whose tightness
    residual exceeds CUSTOM_RESIDUAL_TOL: the projection bounds are only
    valid for genuine tight frames.
    """
    U = np.asarray(vectors, dtype=float)
    if U.ndim != 2 or U.shape[1] < 2:
        raise ValueError(f"expected an (m, n) array with n >= 2, got shape {U.shape}")
    if not np.all(np.isfinite(U)):
        raise ValueError("frame entries must be finite")
    norms = np.linalg.norm(U, axis=1)
    if np.abs(norms - 1.0).max() > CUSTOM_RESIDUAL_TOL:
        raise ValueError("frame vectors must be unit vectors")
    frame = TightFrame(vectors=U, label=label)
    resid = check_tight(frame)
    if resid > CUSTOM_RESIDUAL_TOL:
        raise ValueError(f"not a tight frame: residual {resid:.3g} > {CUSTOM_RESIDUAL_TOL:g}")
    return frame


def frame_coeffs(frame: TightFrame, x: np.ndarray) -> np.ndarray:
    """Coefficients <x, u_i>; accepts a single vector (n,) or a batch (N, n)."""
    x = np.asarray(x, dtype=float)
    if x.shape[-1] != frame.n:
        raise ValueError(f"dimension mismatch: frame has n={frame.n}, x has {x.shape[-1]}")
    return x @ frame.vectors.T


def reflect(x: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Reflect x (vector or batch of row vectors) in the hyperplane u^perp."""
    u = as_vector(u)
    nrm = math.sqrt(float(u @ u))
    if abs(nrm - 1.0) > 1e-9:
        raise ValueError(f"reflection axis must be a unit vector, got norm {nrm!r}")
    x = np.asarray(x, dtype=float)
    if x.shape[-1] != u.size:
        raise ValueError("dimension mismatch between x and u")
    coeff = x @ u
    return x - 2.0 * np.multiply.outer(coeff, u)


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
    n = 300), and the samplers and the simplex bound read only the vertices.
    """

    n: int
    vertices: np.ndarray = field(repr=False)  # (n+1, n)

    @functools.cached_property
    def edge_pairs(self) -> np.ndarray:
        idx = np.arange(self.n + 1)
        return np.array([(i, j) for i in idx for j in idx if i != j], dtype=np.intp)

    @functools.cached_property
    def edge_frame(self) -> TightFrame:
        n = self.n
        edges = np.empty((self.m, n))  # filled a vertex at a time: one frame held, not two
        for i in range(n + 1):
            edges[i * n : (i + 1) * n] = self._edges_from(i)
        return TightFrame(vectors=edges, label=LABEL_SIMPLEX_EDGES)

    def _edges_from(self, i: int) -> np.ndarray:
        """Edge-frame rows i n to (i + 1) n - 1: the pairs (i, j), j != i."""
        v = self.vertices
        return math.sqrt(self.n / (2.0 * (self.n + 1))) * (v[i] - np.delete(v, i, axis=0))

    def is_edge_frame(self, vectors: np.ndarray) -> bool:
        """vectors == ``edge_frame.vectors``, checked a vertex at a time, not built."""
        n = self.n
        return vectors.shape == (self.m, n) and all(
            np.array_equal(vectors[i * n : (i + 1) * n], self._edges_from(i)) for i in range(n + 1)
        )

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
