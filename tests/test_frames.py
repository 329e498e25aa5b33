import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cltbounds.core import as_vector
from cltbounds.frames import (
    TightFrame,
    check_tight,
    simplex_edges,
    simplex_geometry,
    simplex_projections,
    standard_frame,
)

# residual above which custom_frame rejects a frame
CUSTOM_RESIDUAL_TOL = 1e-8


def custom_frame(vectors) -> TightFrame:
    """Reference: wrap user-supplied frame vectors after checking that they
    are finite unit vectors with tightness residual at most
    CUSTOM_RESIDUAL_TOL, since the projection bounds hold only for tight
    frames."""
    U = np.asarray(vectors, dtype=float)
    if U.ndim != 2 or U.shape[1] < 2:
        raise ValueError(f"expected an (m, n) array with n >= 2, got shape {U.shape}")
    if not np.all(np.isfinite(U)):
        raise ValueError("frame entries must be finite")
    if np.abs(np.linalg.norm(U, axis=1) - 1.0).max() > CUSTOM_RESIDUAL_TOL:
        raise ValueError("frame vectors must be unit vectors")
    frame = TightFrame(vectors=U)
    resid = check_tight(frame)
    if resid > CUSTOM_RESIDUAL_TOL:
        raise ValueError(f"not a tight frame: residual {resid:.3g} > {CUSTOM_RESIDUAL_TOL:g}")
    return frame


def reflect(x, u) -> np.ndarray:
    """Reference: reflect x (a vector or a batch of row vectors) in the
    hyperplane orthogonal to the unit vector u."""
    u = as_vector(u)
    nrm = math.sqrt(float(u @ u))
    if abs(nrm - 1.0) > 1e-9:
        raise ValueError(f"reflection axis must be a unit vector, got norm {nrm!r}")
    x = np.asarray(x, dtype=float)
    if x.shape[-1] != u.size:
        raise ValueError("dimension mismatch between x and u")
    return x - 2.0 * np.multiply.outer(x @ u, u)


class TestStandardFrame:
    def test_residual_zero(self):
        assert check_tight(standard_frame(3)) == 0.0

    def test_coeffs_are_coordinates(self):
        frame = standard_frame(4)
        x = np.array([1.0, -2.0, 3.0, 0.5])
        np.testing.assert_array_equal(x @ frame.vectors.T, x)

    def test_tight_constant_one(self):
        assert standard_frame(7).tight_constant == 1.0


class TestCheckTight:
    def test_single_vector_residual(self):
        # {e1} in R^2: ||e1 (x) e1 - I/2||_F = 1/sqrt(2)
        frame = standard_frame(2)
        single = type(frame)(vectors=frame.vectors[:1], label="custom")
        assert check_tight(single) == pytest.approx(1 / math.sqrt(2), rel=1e-14)

    def test_custom_frame_rejects_loose(self):
        vecs = np.array([[1.0, 0.0], [0.8, 0.6], [0.0, 1.0]])
        with pytest.raises(ValueError):
            custom_frame(vecs)

    def test_custom_frame_accepts_orthonormal_pair_of_bases(self):
        rot = np.array([[math.cos(0.3), math.sin(0.3)], [-math.sin(0.3), math.cos(0.3)]])
        vecs = np.vstack([np.eye(2), rot])
        frame = custom_frame(vecs)
        assert check_tight(frame) < 1e-12
        assert frame.tight_constant == 2.0


def helmert_vertices(n: int) -> np.ndarray:
    """Reference: the simplex vertices as sqrt((n+1)/n) B^T, B the (n, n+1)
    Helmert complement of 1 with row k = (1, ..., 1, -k, 0, ..., 0)/sqrt(k(k+1))."""
    B = np.zeros((n, n + 1))
    for k in range(1, n + 1):
        B[k - 1, :k] = 1.0
        B[k - 1, k] = -float(k)
        B[k - 1] /= math.sqrt(k * (k + 1))
    return math.sqrt((n + 1) / n) * B.T


def repeat_tile_edge_pairs(n: int) -> np.ndarray:
    """Reference: vertex i's n partners, in order, skipping i."""
    i = np.repeat(np.arange(n + 1), n)
    j = np.tile(np.arange(n), n + 1)
    j += j >= i
    return np.column_stack((i, j))


class TestSimplexProjections:
    @pytest.mark.parametrize("n", [2, 5, 100, 1000])
    def test_vertices_equal_the_helmert_loop_bit_for_bit(self, n):
        vertices = simplex_geometry(n).vertices
        reference = helmert_vertices(n)
        assert vertices.shape == reference.shape
        assert vertices.tobytes(order="A") == reference.tobytes(order="A")
        assert vertices.flags.f_contiguous == reference.flags.f_contiguous

    @pytest.mark.parametrize("n", [2, 5, 100, 1000])
    def test_equal_the_vertex_product(self, n):
        vertices = helmert_vertices(n)
        rng = np.random.default_rng(n)
        theta = rng.standard_normal(n)
        theta /= np.linalg.norm(theta)
        directions = rng.standard_normal((n, 3))
        directions /= np.linalg.norm(directions, axis=0)
        t = simplex_projections(theta)
        assert t.shape == (n + 1,)
        np.testing.assert_allclose(t, vertices @ theta, rtol=0, atol=1e-14)
        t = simplex_projections(directions)
        assert t.shape == (n + 1, 3)
        np.testing.assert_allclose(t, vertices @ directions, rtol=0, atol=1e-14)


class TestSimplexEdges:
    @pytest.mark.parametrize("n", [2, 3, 7, 40])
    def test_reproduces_the_repeat_tile_table(self, n):
        expected = repeat_tile_edge_pairs(n)
        heads, tails = simplex_edges(np.arange(n * (n + 1)), n)
        np.testing.assert_array_equal(np.column_stack((heads, tails)), expected)
        np.testing.assert_array_equal(simplex_geometry(n).edge_pairs, expected)

    @pytest.mark.parametrize("n", [2, 5, 17, 300])
    def test_inverts_pair_position(self, n):
        geom = simplex_geometry(n)
        # the reflection pair's compact index types
        index = np.arange(geom.m).astype(np.min_scalar_type(geom.m - 1))
        heads, tails = simplex_edges(index, n)
        positions = [geom.pair_position(int(i), int(j)) for i, j in zip(heads, tails)]
        np.testing.assert_array_equal(positions, np.arange(geom.m))


class TestSimplexGeometry:
    def test_planar_equilateral(self):
        geom = simplex_geometry(2)
        gram = geom.vertices @ geom.vertices.T
        for i in range(3):
            for j in range(3):
                expected = 1.0 if i == j else -0.5
                assert gram[i, j] == pytest.approx(expected, abs=1e-12)

    def test_edge_frame_n2(self):
        geom = simplex_geometry(2)
        assert geom.edge_frame.m == 6
        assert geom.edge_frame.tight_constant == pytest.approx(3.0)
        assert check_tight(geom.edge_frame) <= 1e-12

    @pytest.mark.parametrize("n", [2, 3, 5, 10, 50])
    def test_invariants(self, n):
        geom = simplex_geometry(n)
        assert np.abs(geom.vertices.sum(axis=0)).max() <= 1e-12
        gram = geom.vertices @ geom.vertices.T
        off = gram[~np.eye(n + 1, dtype=bool)]
        assert np.abs(off + 1.0 / n).max() <= 1e-12
        assert np.abs(np.diag(gram) - 1.0).max() <= 1e-12
        # vertex tight frame: sum v v^T = ((n+1)/n) I
        resid = np.linalg.norm(
            geom.vertices.T @ geom.vertices - (n + 1) / n * np.eye(n), "fro"
        )
        assert resid <= 1e-10
        # edge vectors unit: ||v_i - v_j||^2 = 2 + 2/n
        norms = np.linalg.norm(geom.edge_frame.vectors, axis=1)
        assert np.abs(norms - 1.0).max() <= 1e-12
        assert check_tight(geom.edge_frame) <= 1e-10

    def test_edge_frame_residual_n50(self):
        assert check_tight(simplex_geometry(50).edge_frame) <= 1e-10

    def test_edge_frame_holds_one_copy(self):
        # filled a vertex at a time into one (m, n) array; the rows are
        # sqrt(n/(2(n+1))) (v_i - v_j) over edge_pairs, bit for bit
        n = 100
        geom = simplex_geometry(n)
        tracemalloc.start()
        try:
            vectors = geom.edge_frame.vectors
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.1 * vectors.nbytes, f"peak {peak / vectors.nbytes:.2f} frames"
        v, pairs = geom.vertices, geom.edge_pairs
        expected = math.sqrt(n / (2.0 * (n + 1))) * (v[pairs[:, 0]] - v[pairs[:, 1]])
        np.testing.assert_array_equal(vectors, expected)

    def test_pair_position_roundtrip(self):
        geom = simplex_geometry(4)
        for pos, (i, j) in enumerate(geom.edge_pairs):
            assert geom.pair_position(int(i), int(j)) == pos
        with pytest.raises(ValueError):
            geom.pair_position(1, 1)

    def test_vertex_coefficient(self):
        # x = v1 at n=2: coefficient on u_(12) is sqrt(1/3) * (1 + 1/2) = sqrt(3)/2
        geom = simplex_geometry(2)
        coeffs = geom.vertices[0] @ geom.edge_frame.vectors.T
        pos = geom.pair_position(0, 1)
        assert coeffs[pos] == pytest.approx(math.sqrt(3) / 2, abs=1e-12)
        pos13 = geom.pair_position(0, 2)
        assert coeffs[pos13] == pytest.approx(math.sqrt(3) / 2, abs=1e-12)

    def test_edge_reflection_permutes_vertices(self):
        for n in (2, 5, 9):
            geom = simplex_geometry(n)
            i, j = 0, 2
            u = geom.edge_frame.vectors[geom.pair_position(i, j)]
            reflected = reflect(geom.vertices, u)
            np.testing.assert_allclose(reflected[i], geom.vertices[j], atol=1e-12)
            np.testing.assert_allclose(reflected[j], geom.vertices[i], atol=1e-12)
            for k in range(n + 1):
                if k not in (i, j):
                    np.testing.assert_allclose(reflected[k], geom.vertices[k], atol=1e-12)


class TestParseval:
    @pytest.mark.parametrize("n", [2, 5, 17])
    def test_parseval_identity(self, n):
        rng = np.random.default_rng(n)
        frames = [standard_frame(n), simplex_geometry(n).edge_frame]
        for frame in frames:
            xs = rng.standard_normal((100, n))
            coeffs = xs @ frame.vectors.T
            lhs = (coeffs**2).sum(axis=1)
            rhs = frame.tight_constant * (xs**2).sum(axis=1)
            np.testing.assert_allclose(lhs, rhs, rtol=1e-9)


class TestReflect:
    def test_basis_reflection(self):
        e1 = np.array([1.0, 0.0, 0.0])
        np.testing.assert_allclose(reflect(e1, e1), -e1, atol=1e-15)

    def test_rejects_non_unit_axis(self):
        with pytest.raises(ValueError):
            reflect(np.array([1.0, 0.0]), np.array([1.0, 1.0]))

    @given(st.integers(0, 2**32 - 1), st.integers(2, 30))
    @settings(max_examples=100, deadline=None)
    def test_involution_and_isometry(self, seed, n):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal(n)
        u = rng.standard_normal(n)
        u /= np.linalg.norm(u)
        y = reflect(x, u)
        np.testing.assert_allclose(reflect(y, u), x, atol=1e-12)
        assert np.linalg.norm(y) == pytest.approx(np.linalg.norm(x), abs=1e-12)
