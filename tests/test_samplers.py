import math
import threading
import time
import tracemalloc

import numpy as np
import pytest
from scipy import special, stats

from cltbounds.core import CHUNK_ROWS, summarize
from cltbounds.frames import simplex_geometry
from cltbounds.exact import DistributionSpec, Kind, exact_moments
from cltbounds.samplers import (
    BLOCK_ROWS,
    SampleBatch,
    block_seed,
    derive_seed,
    calibrate_isotropic,
    map_frame_blocks,
    map_sample_blocks,
    sample,
    sample_projections,
    simplex_embedded_coordinates,
    stream_groups,
    _filler,
    _generalized_gaussian_block,
    _reduced_spherical_block,
    _ziggurat,
)
from cltbounds.subspaces import haar_orthogonal


def mean_and_se(values):
    values = np.asarray(values)
    return float(values.mean()), float(values.std() / math.sqrt(len(values)))


def assert_within_se(observed, expected, se, k=3.0, floor=1e-12):
    assert abs(observed - expected) <= k * se + floor, (
        f"{observed} vs {expected} (allowed {k} * {se})"
    )


def generalized_gaussian_draws(rng, p, shape):
    """The generalized Gaussian of density ~ exp(-|t|^p) as documented, a
    (count, n) array of draws (count of them for an integer shape, n = 1):
    at p = 1 exponentials, then ceil(size / 64) raw words, bit k of word j
    negating value 64 j + k when set; at any other p (2 included) the
    ziggurat draws of ``ziggurat_draws``, whole-row slice by slice of
    2^15 // n rows (at least one)."""
    if p == 1.0:
        g = rng.standard_exponential(shape)
        words = rng.bit_generator.random_raw(-(-g.size // 64))
        bits = (words[:, None] >> np.arange(64, dtype=np.uint64)) & np.uint64(1)
        g[bits.reshape(-1)[: g.size].reshape(g.shape) == 1] *= -1.0
        return g
    count, n = (shape, 1) if np.ndim(shape) == 0 else shape
    rows = max(1, 2**15 // n)
    slices = [ziggurat_draws(rng, p, min(rows, count - lo) * n) for lo in range(0, count, rows)]
    return np.concatenate(slices).reshape(shape)


def ziggurat_draws(rng, p, m):
    """m draws of one slice, as documented in ``_generalized_gaussian_block``:
    m raw words, one attempt each on the layers x, y of ``_ziggurat(p)``; the
    misses' tail draws (exponentials, then uniforms, until all are kept),
    then their wedge uniforms, then a fresh word for each one rejected, read
    again; each draw signed by bit 8 of its last word."""
    x, y, _ = _ziggurat(p)
    rp = x[1] ** p
    words = rng.bit_generator.random_raw(m)
    value = np.empty(m)
    todo = np.arange(m)  # the positions whose word is read next
    while todo.size:
        w = words[todo]
        i = (w & np.uint64(255)).astype(np.intp)
        u = (w >> np.uint64(11)).astype(np.int64) * 2.0**-53
        value[todo] = u * x[i]
        missed = u >= x[i + 1] / x[i]
        todo, i = todo[missed], i[missed]
        tail = todo[i == 0]
        while tail.size:
            s = rng.standard_exponential(tail.size) + rp
            kept = rng.random(tail.size) < (s / rp) ** (1.0 / p - 1.0)
            value[tail[kept]] = s[kept] ** (1.0 / p)
            tail = tail[~kept]
        todo, i = todo[i > 0], i[i > 0]
        kept = y[i] + rng.random(todo.size) * (y[i + 1] - y[i]) < np.exp(-(value[todo] ** p))
        todo = todo[~kept]
        words[todo] = rng.bit_generator.random_raw(todo.size)
    return np.where(words & np.uint64(256), -value, value)


def power_sums(g, p):
    """Each row's sum of |g|^p as an lp fill takes it: |g|^4 as two squarings."""
    return np.sum(np.square(np.square(g)) if p == 4.0 else np.abs(g) ** p, axis=1)


def generalized_gaussian_block(rng, p, count, n):
    """(g, sums): a (count, n) array filled by the program's
    ``_generalized_gaussian_block`` and the row sums it returns."""
    g = np.empty((count, n))
    return g, _generalized_gaussian_block(rng, p, g)


def lp_chunk_draws(rng, p, count, n):
    """The generalized-Gaussian rows of one count-row block of an lp fill, as
    a list of chunks: CHUNK_ROWS rows at a time, each chunk's draws in turn."""
    return [generalized_gaussian_draws(rng, p, (min(CHUNK_ROWS, count - lo), n))
            for lo in range(0, count, CHUNK_ROWS)]


def sample_generalized_gaussian(p, N, seed, n=1):
    """Reference: N rows of n i.i.d. scalars of density ~ exp(-|t|^p),
    1 <= p < inf, the rows of block b drawn by ``generalized_gaussian_draws``
    from the substream of ``block_seed(seed, b)``.  It was
    ``samplers.sample_generalized_gaussian``; the program draws the same law
    only inside ``_generalized_gaussian_block``."""
    if not 1.0 <= p < math.inf:
        raise ValueError(f"p must satisfy 1 <= p < inf, got {p}")
    return np.concatenate([
        generalized_gaussian_draws(np.random.default_rng(block_seed(seed, block)), p,
                                   (min(BLOCK_ROWS, N - lo), n))
        for block, lo in enumerate(range(0, N, BLOCK_ROWS))
    ])


def two_sample_ks(a, b):
    """sup_t |F_a - F_b| over the pooled points."""
    a, b = np.sort(a), np.sort(b)
    pooled = np.concatenate([a, b])
    fa = np.searchsorted(a, pooled, side="right") / len(a)
    fb = np.searchsorted(b, pooled, side="right") / len(b)
    return float(np.abs(fa - fb).max())


class TestDistributionSpec:
    def test_exact_scales(self):
        assert DistributionSpec(Kind.SPHERE_SHELL, 9).scale == pytest.approx(3.0)
        assert DistributionSpec(Kind.BALL_UNIFORM, 7).scale == pytest.approx(3.0)
        assert DistributionSpec(Kind.LP_BALL, 5, p=math.inf).scale == pytest.approx(math.sqrt(3))

    def test_lp_requires_p(self):
        with pytest.raises(ValueError):
            DistributionSpec(Kind.LP_BALL, 5)
        with pytest.raises(ValueError):
            DistributionSpec(Kind.LP_CONE, 5, p=0.5)
        with pytest.raises(ValueError):
            DistributionSpec(Kind.SPHERE_SHELL, 5, p=2.0)

    def test_rejects_small_dimension(self):
        with pytest.raises(ValueError):
            DistributionSpec(Kind.SPHERE_SHELL, 1)

    def test_refuses_non_integer_dimension(self):
        # a float n is refused, not truncated; a numpy integer is taken as an int
        with pytest.raises(TypeError):
            DistributionSpec(Kind.SIMPLEX, 2.5)
        with pytest.raises(TypeError):
            DistributionSpec.from_dict({"kind": "simplex", "n": 2.5})
        spec = DistributionSpec(Kind.SIMPLEX, np.int64(5))
        assert type(spec.n) is int and spec == DistributionSpec(Kind.SIMPLEX, 5)

    def test_dict_roundtrip(self):
        spec = DistributionSpec(Kind.LP_CONE, 8, p=math.inf)
        again = DistributionSpec.from_dict(spec.to_dict())
        assert again == spec

    def test_from_dict_refuses_non_isotropic_scale(self):
        # the bounds assume isotropy: a scale in a document is accepted only
        # at the isotropic value, whichever route the kind would take
        for kind, p in ((Kind.SPHERE_SHELL, None), (Kind.LP_CONE, 3.0), (Kind.SIMPLEX, None)):
            document = DistributionSpec(kind, 20, p=p).to_dict()
            for scale in (2.0 * document["scale"], 2.0, math.nan, True, "x"):
                with pytest.raises(ValueError, match="isotropic"):
                    DistributionSpec.from_dict({**document, "scale": scale})


class TestDeterminism:
    @pytest.mark.parametrize(
        "spec",
        [
            DistributionSpec(Kind.SPHERE_SHELL, 4),
            DistributionSpec(Kind.BALL_UNIFORM, 4),
            DistributionSpec(Kind.LP_BALL, 4, p=1.5),
            DistributionSpec(Kind.LP_CONE, 4, p=3.0),
            DistributionSpec(Kind.LP_SURFACE, 4, p=4.0),
            DistributionSpec(Kind.SIMPLEX, 4),
            DistributionSpec(Kind.SPHERICAL_EXPONENTIAL, 4),
            DistributionSpec(Kind.LINF_EXPONENTIAL, 4),
        ],
    )
    def test_same_seed_same_bytes(self, spec):
        a = sample(spec, 3000, 99)
        b = sample(spec, 3000, 99)
        assert a.data.tobytes() == b.data.tobytes()
        if a.weights is not None:
            assert a.weights.tobytes() == b.weights.tobytes()

    def test_blocks_agree_with_serial(self):
        # contiguous-block substreams: the blocks handed over in order at one
        # worker reproduce sample() exactly across a block boundary
        spec = DistributionSpec(Kind.SPHERE_SHELL, 3)
        total = BLOCK_ROWS + 1234
        serial = sample(spec, total, 5).data
        blocks = []
        map_sample_blocks(spec, total, 5, lambda rows, block: blocks.append(block))
        assert serial.tobytes() == np.vstack(blocks).tobytes()

    @pytest.mark.parametrize("workers", [1, 2])
    def test_mapped_blocks_agree_with_serial(self, workers):
        spec = DistributionSpec(Kind.LP_BALL, 4, p=4.0)
        total = 2 * BLOCK_ROWS + 1234
        out = np.full((total, spec.n), np.nan)

        def take(rows, block):
            out[rows] = block

        map_sample_blocks(spec, total, 5, take, workers)
        assert out.tobytes() == sample(spec, total, 5).data.tobytes()

    def test_blocks_return_in_block_order(self):
        # the driver returns each block's value in block order, whichever
        # block finishes first: block b sleeps longer the smaller b is
        blocks = 4
        finished = []

        def take(rows, block):
            b = rows.start // BLOCK_ROWS
            time.sleep(0.1 * (blocks - 1 - b))
            finished.append(b)
            return b, len(block)

        spec = DistributionSpec(Kind.SPHERE_SHELL, 2)
        got = map_sample_blocks(spec, blocks * BLOCK_ROWS, 5, take, workers=2)
        assert got == [(b, BLOCK_ROWS) for b in range(blocks)]
        assert finished != sorted(finished)

    def test_generator_built_on_the_filling_thread(self, monkeypatch):
        # each block's Generator is built on the thread that fills the block
        # and hands it over, not on the thread that queues the blocks
        built = {}  # seed -> the thread that built its Generator
        real = np.random.default_rng

        def recording(seed):
            built[seed] = threading.get_ident()
            return real(seed)

        monkeypatch.setattr(np.random, "default_rng", recording)
        filled = {}  # block -> the thread that handed it over

        def take(rows, block):
            filled[rows.start // BLOCK_ROWS] = threading.get_ident()

        spec = DistributionSpec(Kind.LP_BALL, 4, p=4.0)
        map_sample_blocks(spec, 6 * BLOCK_ROWS, 5, take, workers=2)
        assert sorted(filled) == list(range(6))
        assert all(built[block_seed(5, b)] == thread for b, thread in filled.items())
        assert threading.get_ident() not in filled.values()

    def test_block_seeds_differ(self):
        seeds = {block_seed(12345, k) for k in range(100)}
        assert len(seeds) == 100

    def test_derived_seeds_differ(self):
        # a linear rule seed + c*k would repeat along every diagonal
        seeds = {derive_seed(s, k) for s in range(100) for k in range(100)}
        assert len(seeds) == 100 * 100
        assert len({derive_seed(7), derive_seed(7, 1), derive_seed(7, 1, 0)}) == 3


class TestSerialization:
    def test_roundtrip(self, tmp_path):
        batch = sample(DistributionSpec(Kind.SPHERE_SHELL, 5), 137, 3)
        path = tmp_path / "batch.bin"
        batch.save(path)
        loaded = SampleBatch.load(path)
        assert loaded.n == 5 and loaded.N == 137 and loaded.seed == 3
        np.testing.assert_array_equal(loaded.data, batch.data)
        assert path.stat().st_size == 32 + 8 * 5 * 137

    def test_rejects_wrong_payload_length(self, tmp_path):
        batch = sample(DistributionSpec(Kind.SPHERE_SHELL, 5), 137, 3)
        path = tmp_path / "batch.bin"
        batch.save(path)
        raw = path.read_bytes()
        path.write_bytes(raw[: -8 * 5])  # one row short
        with pytest.raises(ValueError, match=f"holds {8 * 5 * 136} bytes.*requires {8 * 5 * 137}"):
            SampleBatch.load(path)
        path.write_bytes(raw + bytes(8))
        with pytest.raises(ValueError, match=f"holds {8 * 5 * 137 + 8} bytes"):
            SampleBatch.load(path)

    def test_save_and_load_hold_no_second_copy(self, tmp_path):
        # save writes from the array's buffer and load reads into the one
        # array it returns: neither holds a bytes copy of the batch
        batch = sample(DistributionSpec(Kind.LP_BALL, 10, p=3.0), 2 * 10**5, 3)
        path = tmp_path / "batch.bin"
        peaks = []
        for step in (lambda: batch.save(path), lambda: SampleBatch.load(path)):
            tracemalloc.start()
            try:
                step()
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        nbytes = batch.data.nbytes
        assert peaks[0] < nbytes / 8, f"save peak {peaks[0] / 1e6:.1f} MB"
        assert peaks[1] < 1.125 * nbytes, f"load peak {peaks[1] / 1e6:.1f} MB"
        np.testing.assert_array_equal(SampleBatch.load(path).data, batch.data)

    def test_rejects_foreign_file(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"not a batch file at all")
        with pytest.raises(ValueError):
            SampleBatch.load(path)


class TestDrawOrder:
    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 4.0, math.inf])
    @pytest.mark.parametrize("kind", [Kind.LP_BALL, Kind.LP_CONE])
    def test_lp_blocks_follow_documented_draws(self, kind, p):
        # per block substream, CHUNK_ROWS rows at a time: each chunk's
        # generalized-Gaussian draws g (at p = 1 exponential magnitudes then
        # sign bits packed 64 to a raw word; at any other p the ziggurat's
        # raw words and the draws that settle its misses, slice by slice);
        # after the last chunk the ball's exponential y; rows are g times
        # scale (sum |g|^p [+ y])^(-1/p), |g|^4 as two squarings, bit for
        # bit.  At p = 2 the l2 ball is the Euclidean ball: at its own
        # scale, the ball's reduced-law rows bit for bit, and the l2 cone's
        # rows are the normalized sqrt(1/2) standard normals.  At p = inf
        # the cube's block is uniform(-scale, scale, (count, n)), and each
        # chunk of the cube boundary is uniform(-1, 1) rows, then a facet index and a facet
        # sign (integers(0, 2), 0 negating) per row, times scale
        n, n_samples, seed = 7, BLOCK_ROWS + CHUNK_ROWS + 300, 61
        spec = DistributionSpec(kind, n, p=p)
        blocks = []
        for block, lo in enumerate(range(0, n_samples, BLOCK_ROWS)):
            count = min(BLOCK_ROWS, n_samples - lo)
            rng = np.random.default_rng(block_seed(seed, block))
            if kind is Kind.LP_BALL and p == math.inf:
                blocks.append(rng.uniform(-spec.scale, spec.scale, (count, n)))
                continue
            if p == math.inf:
                for rows in range(0, count, CHUNK_ROWS):
                    m = min(CHUNK_ROWS, count - rows)
                    x = rng.uniform(-1.0, 1.0, (m, n))
                    face = rng.integers(0, n, m)
                    x[np.arange(m), face] = rng.integers(0, 2, m) * 2.0 - 1.0
                    blocks.append(spec.scale * x)
                continue
            if kind is Kind.LP_BALL and p == 2.0:
                blocks.append(_reduced_spherical_block(rng, Kind.BALL_UNIFORM, n, n, spec.scale,
                                                       count)[0])
                continue
            if p == 2.0:
                g = math.sqrt(0.5) * rng.standard_normal((count, n))
                blocks.append(spec.scale * g / np.sum(g**2, axis=1)[:, None] ** 0.5)
                continue
            g = np.vstack(lp_chunk_draws(rng, p, count, n))
            denom = power_sums(g, p)
            if kind is Kind.LP_BALL:
                denom += rng.standard_exponential(count)
            blocks.append(g * (spec.scale * denom ** (-1.0 / p))[:, None])
        data = sample(spec, n_samples, seed).data
        if kind is Kind.LP_CONE and p == 2.0:
            np.testing.assert_allclose(data, np.vstack(blocks), rtol=1e-14, atol=0.0)
        else:
            np.testing.assert_array_equal(data, np.vstack(blocks))

    @pytest.mark.parametrize(
        "kind", [Kind.SPHERE_SHELL, Kind.BALL_UNIFORM, Kind.SPHERICAL_EXPONENTIAL],
        ids=lambda kind: kind.value,
    )
    def test_spherical_rows_are_the_reduced_law_at_r_n(self, kind):
        # per block substream: n standard normals per row, a chi-square of
        # zero degrees of freedom that draws nothing, then the radius (none
        # for the shell, random()^(1/n) for the ball, standard_gamma(n) /
        # sqrt(n + 1) for the exponential): rows scale R g / |g|
        n, n_samples, seed = 7, BLOCK_ROWS + 300, 62
        spec = DistributionSpec(kind, n)
        reduced, documented = [], []
        for block, lo in enumerate(range(0, n_samples, BLOCK_ROWS)):
            count = min(BLOCK_ROWS, n_samples - lo)
            rng = np.random.default_rng(block_seed(seed, block))
            reduced.append(_reduced_spherical_block(rng, kind, n, n, spec.scale, count)[0])
            rng = np.random.default_rng(block_seed(seed, block))
            g = rng.standard_normal((count, n))
            rows = spec.scale * g / np.linalg.norm(g, axis=1, keepdims=True)
            if kind is Kind.BALL_UNIFORM:
                rows *= (rng.random(count) ** (1.0 / n))[:, None]
            elif kind is Kind.SPHERICAL_EXPONENTIAL:
                rows *= (rng.standard_gamma(n, count) / math.sqrt(n + 1))[:, None]
            documented.append(rows)
        data = sample(spec, n_samples, seed).data
        np.testing.assert_array_equal(data, np.vstack(reduced))
        np.testing.assert_allclose(data, np.vstack(documented), rtol=1e-14, atol=0.0)

    def test_simplex_rows_are_the_normalized_exponentials_times_the_vertices(self):
        # per block substream: n + 1 standard exponentials E per row; rows
        # (E @ c vertices) / sum E with c = sqrt(n (n + 2))
        n, n_samples, seed = 7, BLOCK_ROWS + 300, 63
        spec = DistributionSpec(Kind.SIMPLEX, n)
        m = math.sqrt(n * (n + 2)) * simplex_geometry(n).vertices
        blocks = []
        for block, lo in enumerate(range(0, n_samples, BLOCK_ROWS)):
            count = min(BLOCK_ROWS, n_samples - lo)
            e = np.random.default_rng(block_seed(seed, block)).standard_exponential((count, n + 1))
            blocks.append((e @ m) / e.sum(axis=1)[:, None])
        np.testing.assert_array_equal(sample(spec, n_samples, seed).data, np.vstack(blocks))


# E W^4 of a projection onto a unit direction, by spherically symmetric kind
SPHERICAL_FOURTH = {
    Kind.SPHERE_SHELL: lambda n: 3.0 * n / (n + 2),
    Kind.BALL_UNIFORM: lambda n: 3.0 * (n + 2) / (n + 4),
    Kind.SPHERICAL_EXPONENTIAL: lambda n: 3.0 * (n + 3) / (n + 1),
}


class TestProjectionBlocks:
    @pytest.mark.parametrize("T", ["1", "2", "n+1"])
    @pytest.mark.parametrize("kind", list(SPHERICAL_FOURTH), ids=lambda kind: kind.value)
    @pytest.mark.parametrize("n", [2, 3, 7])
    def test_reduced_law_matches_exact_moments(self, n, kind, T):
        # projections W = X theta_i of an isotropic spherically symmetric law:
        # E W_i = 0, E W_i W_j = theta_i . theta_j, E W_i^4 = fourth |theta_i|^4;
        # n+1 directions in R^n, one of them a duplicate, make r = n and the
        # direction matrix rank-deficient
        count = {"1": 1, "2": 2, "n+1": n + 1}[T]
        rng = np.random.default_rng(100 * n + count)
        thetas = rng.standard_normal((n, count))
        thetas /= np.linalg.norm(thetas, axis=0)
        if count > 2:
            thetas[:, 1] = thetas[:, 0]
        spec = DistributionSpec(kind, n)
        w = sample_projections(spec, thetas, 200_000, 71 + n).T
        moments = [(w[:, i], 0.0) for i in range(count)]
        moments += [(w[:, i] ** 4, SPHERICAL_FOURTH[kind](n)) for i in range(count)]
        moments += [
            (w[:, i] * w[:, j], thetas[:, i] @ thetas[:, j])
            for i in range(count)
            for j in range(i, count)
        ]
        for values, expected in moments:
            mean, se = mean_and_se(values)
            assert_within_se(mean, expected, se, k=4.0)

    @pytest.mark.parametrize("kind", [Kind.SPHERE_SHELL, Kind.LP_BALL])
    def test_rejects_directions_of_another_dimension(self, kind):
        spec = DistributionSpec(kind, 5, p=2.0 if kind is Kind.LP_BALL else None)
        for directions in (np.ones((4, 2)), np.ones(5)):
            with pytest.raises(ValueError, match="directions"):
                sample_projections(spec, directions, 1000, 1)

    @pytest.mark.parametrize(
        "spec",
        [DistributionSpec(Kind.LP_CONE, 7, p=math.inf), DistributionSpec(Kind.LINF_EXPONENTIAL, 7),
         DistributionSpec(Kind.LP_BALL, 7, p=math.inf)],
        ids=lambda spec: spec.kind.value,
    )
    def test_other_kinds_project_their_sample_blocks(self, spec):
        # the rows of sample(), projected CHUNK_ROWS rows at a time (chunks
        # start at multiples of CHUNK_ROWS, which divides BLOCK_ROWS)
        n_samples, seed = BLOCK_ROWS + CHUNK_ROWS + 300, 72
        directions = np.random.default_rng(0).standard_normal((spec.n, 3))
        data = sample(spec, n_samples, seed).data
        projections = sample_projections(spec, directions, n_samples, seed)
        assert projections.shape == (3, n_samples)
        assert BLOCK_ROWS % CHUNK_ROWS == 0
        for lo in range(0, n_samples, CHUNK_ROWS):
            rows = slice(lo, lo + CHUNK_ROWS)
            np.testing.assert_array_equal(projections[:, rows].T, data[rows] @ directions)

    @pytest.mark.parametrize(
        "spec",
        [
            DistributionSpec(Kind.LP_BALL, 7, p=3.0),
            DistributionSpec(Kind.LP_SURFACE, 7, p=1.5),
            DistributionSpec(Kind.LP_CONE, 7, p=4.0),
            DistributionSpec(Kind.LP_BALL, 7, p=1.0),
        ],
        ids=lambda spec: f"{spec.kind.value}-{spec.p}",
    )
    def test_lp_projects_before_scaling(self, spec):
        # per block substream: the generalized-Gaussian draws g of each
        # CHUNK_ROWS-row chunk in turn (the ziggurat's draws; at p = 1
        # exponentials, then packed signs), then the ball's exponential E; the
        # projections are each chunk's g @ directions times the per-row
        # factor scale (sum |g|^p [+ E])^(-1/p), bit for bit, and sample()
        # rows times the directions up to rounding
        n_samples, seed, p = BLOCK_ROWS + CHUNK_ROWS + 300, 72, spec.p
        directions = np.random.default_rng(0).standard_normal((spec.n, 3))
        blocks = []
        for block, lo in enumerate(range(0, n_samples, BLOCK_ROWS)):
            count = min(BLOCK_ROWS, n_samples - lo)
            rng = np.random.default_rng(block_seed(seed, block))
            chunks = lp_chunk_draws(rng, p, count, spec.n)
            sums = np.concatenate([power_sums(g, p) for g in chunks])
            if spec.kind is Kind.LP_BALL:
                sums += rng.standard_exponential(count)
            unscaled = np.vstack([g @ directions for g in chunks])
            blocks.append(unscaled * (spec.scale * sums ** (-1.0 / p))[:, None])
        projections = sample_projections(spec, directions, n_samples, seed)
        np.testing.assert_array_equal(projections.T, np.vstack(blocks))
        expected = sample(spec, n_samples, seed).data @ directions
        np.testing.assert_allclose(projections.T, expected, rtol=1e-12, atol=1e-12)

    def test_simplex_projects_before_forming_the_point(self):
        # the same exponentials as sample(), projected through c vertices @
        # directions before the division: equal up to rounding
        spec = DistributionSpec(Kind.SIMPLEX, 7)
        n_samples, seed = BLOCK_ROWS + 300, 72
        directions = np.random.default_rng(0).standard_normal((spec.n, 3))
        projections = sample_projections(spec, directions, n_samples, seed)
        expected = sample(spec, n_samples, seed).data @ directions
        np.testing.assert_allclose(projections.T, expected, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("p", [1.0, 3.0, 4.0])
    def test_ball_and_cone_rows_are_their_own_projections(self, p):
        # one generalized-Gaussian stream: each body's rows of the stacked
        # projections are bit for bit its own, in the order the specs come
        ball, cone = DistributionSpec(Kind.LP_BALL, 5, p=p), DistributionSpec(Kind.LP_CONE, 5, p=p)
        n_samples, seed = 2 * BLOCK_ROWS + 300, 75  # two full blocks and a partial one
        directions = np.random.default_rng(2).standard_normal((5, 3))
        for specs in ((ball, cone), (cone, ball)):
            shared = sample_projections(specs, directions, n_samples, seed)
            assert shared.shape == (6, n_samples)
            for i, spec in enumerate(specs):
                np.testing.assert_array_equal(
                    shared[3 * i : 3 * (i + 1)], sample_projections(spec, directions, n_samples, seed)
                )

    def test_stream_groups(self):
        def spec(kind, n, p):
            return DistributionSpec(kind, n, p=p)

        specs = [
            spec(Kind.LP_CONE, 5, 4.0),  # 0: pairs with the ball at 1
            spec(Kind.LP_BALL, 5, 4.0),
            spec(Kind.LP_BALL, 5, 2.0),  # 2, 3: p = 2 draws the spherical fills
            spec(Kind.LP_CONE, 5, 2.0),
            spec(Kind.LP_BALL, 5, math.inf),  # 4, 5: the cube and its boundary
            spec(Kind.LP_CONE, 5, math.inf),
            spec(Kind.LP_BALL, 6, 1.0),  # 6: no cone at n = 6
            spec(Kind.LP_BALL, 5, 1.0),  # 7: pairs with the cone at 9
            spec(Kind.LP_BALL, 5, 1.0),  # 8: a second ball, alone
            spec(Kind.LP_CONE, 5, 1.0),
            spec(Kind.LP_SURFACE, 5, 1.0),  # 10: surface measure never pairs
        ]
        assert stream_groups(specs) == [
            (0, 1), (2,), (3,), (4,), (5,), (6,), (7, 9), (8,), (10,)
        ]

    def test_refuses_specs_of_separate_streams(self):
        directions = np.ones((5, 1))
        for specs in (
            (DistributionSpec(Kind.LP_BALL, 5, p=2.0), DistributionSpec(Kind.LP_CONE, 5, p=2.0)),
            (DistributionSpec(Kind.LP_BALL, 5, p=3.0), DistributionSpec(Kind.LP_CONE, 5, p=4.0)),
            (DistributionSpec(Kind.LP_BALL, 5, p=3.0), DistributionSpec(Kind.LP_BALL, 5, p=3.0)),
        ):
            with pytest.raises(ValueError, match="one stream"):
                sample_projections(specs, directions, 1000, 1)

    @pytest.mark.parametrize(
        "kind, spherical",
        [(Kind.LP_BALL, Kind.BALL_UNIFORM), (Kind.LP_CONE, Kind.SPHERE_SHELL)],
        ids=lambda kind: kind.value,
    )
    def test_p2_lp_laws_take_the_spherical_fill(self, kind, spherical):
        # the l2 ball and cone are the Euclidean ball and sphere: the
        # spherical law's reduced-law fill at the lp scale gives the same bits
        lp = DistributionSpec(kind, 9, p=2.0)
        directions = np.random.default_rng(1).standard_normal((9, 4))
        _, r_factor = np.linalg.qr(directions)
        for n_samples, seed in ((BLOCK_ROWS + 300, 73), (5_000, 74)):
            blocks = []
            for block, lo in enumerate(range(0, n_samples, BLOCK_ROWS)):
                rng = np.random.default_rng(block_seed(seed, block))
                count = min(BLOCK_ROWS, n_samples - lo)
                y = _reduced_spherical_block(rng, spherical, 9, 4, lp.scale, count)[0]
                blocks.append(y @ r_factor)
            np.testing.assert_array_equal(sample_projections(lp, directions, n_samples, seed),
                                          np.vstack(blocks).T)


FRAME_LAWS = [
    (Kind.LP_BALL, math.inf), (Kind.LP_CONE, math.inf), (Kind.LINF_EXPONENTIAL, None),
    (Kind.LP_BALL, 1.0), (Kind.LP_CONE, 1.0), (Kind.LP_BALL, 3.0), (Kind.LP_CONE, 3.0),
    (Kind.LP_BALL, 2.0), (Kind.LP_CONE, 2.0), (Kind.SPHERE_SHELL, None),
    (Kind.BALL_UNIFORM, None), (Kind.SPHERICAL_EXPONENTIAL, None), (Kind.SIMPLEX, None),
]


class TestFrameBlocks:
    @pytest.mark.parametrize("kind, p", FRAME_LAWS,
                             ids=[f"{kind.value}-{p}" for kind, p in FRAME_LAWS])
    def test_rows_are_those_of_sample(self, kind, p):
        # each row's projections and reflection-frame coefficient are those
        # of the row of sample() at 1e-12 of its norm (theta and every frame
        # vector are unit vectors), across a partial last block
        n, n_samples, seed = 7, BLOCK_ROWS + 4321, 81
        spec = DistributionSpec(kind, n, p=p)
        directions = haar_orthogonal(n, 82)[:, :3]
        if kind is Kind.SIMPLEX:
            geometry = simplex_geometry(n)
            heads, tails = geometry.edge_pairs.T
            frame = math.sqrt(n / (2.0 * (n + 1))) * (
                geometry.vertices[heads] - geometry.vertices[tails])
        else:
            frame = np.eye(n)
        index = np.empty(n_samples, dtype=np.int64)
        got = np.empty((n_samples, 4))

        def take(rows, drawn, block):
            index[rows] = drawn
            got[rows] = block

        map_frame_blocks(spec, directions, n_samples, seed, take, workers=2)
        assert set(np.unique(index)) == set(range(len(frame)))  # every frame vector is drawn
        rows = sample(spec, n_samples, seed).data
        expected = np.column_stack([rows @ directions, np.einsum("ij,ij->i", rows, frame[index])])
        error = np.abs(got - expected).max(axis=1) / np.linalg.norm(rows, axis=1)
        assert error.max() <= 1e-12


class TestSphereShell:
    def test_norms_exact(self):
        batch = sample(DistributionSpec(Kind.SPHERE_SHELL, 6), 5000, 11)
        norms = np.linalg.norm(batch.data, axis=1)
        np.testing.assert_allclose(norms, math.sqrt(6), rtol=1e-12)
        # plug straight into the variance statistic: Var ||X||^2 = 0
        assert summarize(batch).norm_sq_var == pytest.approx(0.0, abs=1e-20)

    def test_isotropy_n3(self):
        batch = sample(DistributionSpec(Kind.SPHERE_SHELL, 3), 10**6, 12)
        x1sq = batch.data[:, 0] ** 2
        mean, se = mean_and_se(x1sq)
        assert_within_se(mean, 1.0, se)

    def test_marginal_ks_against_exact_density(self):
        # KS test of X_1 against the (1 - t^2/n)^((n-3)/2) marginal at n=100
        n = 100
        batch = sample(DistributionSpec(Kind.SPHERE_SHELL, n), 10**5, 13)
        from cltbounds.exact import exact_projection_density

        grid = np.linspace(-math.sqrt(n), math.sqrt(n), 20001)
        pdf = exact_projection_density("sphere_shell", n, grid)
        cdf_grid = np.concatenate([[0.0], np.cumsum((pdf[1:] + pdf[:-1]) / 2 * np.diff(grid))])
        cdf_grid /= cdf_grid[-1]
        sample_cdf_vals = np.interp(batch.data[:, 0], grid, cdf_grid)
        d = stats.kstest(sample_cdf_vals, "uniform").pvalue
        assert d > 0.01

    def test_rotation_invariance(self):
        n, n_samples = 8, 10**5
        batch = sample(DistributionSpec(Kind.SPHERE_SHELL, n), n_samples, 14)
        rotation = haar_orthogonal(n, 7)
        theta = np.zeros(n)
        theta[0] = 1.0
        w_before = batch.data @ theta
        w_after = (batch.data @ rotation.T) @ theta
        slack = math.sqrt(math.log(2 / 0.01) / (2 * n_samples))
        assert two_sample_ks(w_before, w_after) <= 2 * slack


class TestBallUniform:
    def test_inside_ball(self):
        batch = sample(DistributionSpec(Kind.BALL_UNIFORM, 5), 20000, 15)
        assert np.all(np.linalg.norm(batch.data, axis=1) <= math.sqrt(7) + 1e-12)

    def test_norm_sq_variance(self):
        # Var ||X||^2 = 4n/(n+4) for the radius sqrt(n+2) ball
        n = 10
        batch = sample(DistributionSpec(Kind.BALL_UNIFORM, n), 10**6, 16)
        rowsq = np.einsum("ij,ij->i", batch.data, batch.data)
        expected = 4.0 * n / (n + 4)
        observed = rowsq.var()
        # delta-method standard error of a sample variance
        centered = (rowsq - rowsq.mean()) ** 2
        se = centered.std() / math.sqrt(len(rowsq))
        assert_within_se(observed, expected, se, k=4.0)

    def test_isotropy_n2(self):
        batch = sample(DistributionSpec(Kind.BALL_UNIFORM, 2), 10**6, 17)
        mean, se = mean_and_se(batch.data[:, 0] ** 2)
        assert_within_se(mean, 1.0, se)


class TestGeneralizedGaussian:
    # the law through the program's draw, _generalized_gaussian_block

    def test_gaussian_case_variance_half(self):
        draws, _ = generalized_gaussian_block(np.random.default_rng(18), 2.0, 10**5, 10)
        mean, se = mean_and_se(draws.ravel() ** 2)
        assert_within_se(mean, 0.5, se)

    def test_laplace_case_abs_mean_one(self):
        draws, _ = generalized_gaussian_block(np.random.default_rng(19), 1.0, 10**5, 10)
        mean, se = mean_and_se(np.abs(draws.ravel()))
        assert_within_se(mean, 1.0, se)

    @pytest.mark.parametrize("p", [1.0, 2.0, 3.5])
    def test_symmetry(self, p):
        draws, _ = generalized_gaussian_block(np.random.default_rng(20), p, 2 * 10**4, 10)
        mean, se = mean_and_se(draws.ravel())
        assert_within_se(mean, 0.0, se)

    def test_rejects_inf(self):
        # p = inf has no generalized Gaussian: the reference refuses it, and
        # the lp cone there fills the cube boundary, each row's sup norm its scale
        with pytest.raises(ValueError):
            sample_generalized_gaussian(math.inf, 10, 0)
        spec = DistributionSpec(Kind.LP_CONE, 5, p=math.inf)
        rows = sample(spec, 1000, 0).data
        np.testing.assert_array_equal(np.abs(rows).max(axis=1), spec.scale)

    @pytest.mark.parametrize("p", [1.5, 3.0, 4.0, 8.0])
    def test_power_is_gamma_of_one_over_p(self, p):
        # |g| of density exp(-t^p) / Gamma(1 + 1/p) has |g|^p ~ Gamma(1/p, 1);
        # at 2e6 draws the ziggurat's layers hold 7800 each
        draws, _ = generalized_gaussian_block(np.random.default_rng(21), p, 2 * 10**5, 10)
        assert stats.kstest(np.abs(draws.ravel()) ** p, stats.gamma(1.0 / p).cdf).pvalue > 0.01

    @pytest.mark.parametrize("p", [1.5, 3.0, 4.0, 8.0])
    def test_tail_beyond_the_base_layer_has_its_mass(self, p):
        # P(|g| > r) = Q(1/p, r^p), 1.4e-4 at p = 4, for r = x_1 the edge of
        # the base layer, over 2e7 draws: a miss of the base layer that drew
        # afresh instead of taking the tail would put none there, and a tail
        # attempt that, rejected, drew afresh from the whole ziggurat would
        # lose 11% of that mass at p = 4 (5.8 standard errors)
        rng, g = np.random.default_rng(26), np.empty((2 * 10**5, 10))
        r = _ziggurat(p)[0][1]
        count = 0
        for _ in range(10):
            _generalized_gaussian_block(rng, p, g)
            count += np.count_nonzero(np.abs(g) > r)
        tail = special.gammaincc(1.0 / p, r**p)
        expected, se = 10 * g.size * tail, math.sqrt(10 * g.size * tail * (1.0 - tail))
        assert abs(count - expected) <= 4.0 * se

    @pytest.mark.parametrize("p", [1.5, 3.0, 4.0, 8.0])
    def test_ziggurat_layers_have_equal_areas(self, p):
        # layer i >= 1 is the box [0, x_i] x [y_i, y_(i+1)], the base layer
        # the box [0, r] x [0, f(r)] and the tail int_r^inf f = Gamma(1/p, r^p) / p;
        # the corners (x_i, y_i) lie on f(t) = exp(-t^p), and the top closes
        x, y, ratio = _ziggurat(p)
        assert x.shape == y.shape == (257,) and x[-1] == 0.0
        np.testing.assert_array_equal(ratio, x[1:] / x[:-1])
        r = x[1]
        v = x[0] * y[1]
        areas = np.append(x[1:-1] * np.diff(y[1:]),
                          r * y[1] + special.gammaincc(1.0 / p, r**p) * special.gamma(1.0 / p) / p)
        np.testing.assert_allclose(areas, v, rtol=1e-13, atol=0.0)
        np.testing.assert_allclose(y[1:-1], np.exp(-(x[1:-1] ** p)), rtol=1e-13, atol=0.0)
        assert abs(math.exp(-(x[255] ** p)) + v / x[255] - 1.0) <= 1e-13

    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0, 4.0])
    def test_block_sums_are_those_of_the_draws(self, p):
        g, sums = generalized_gaussian_block(np.random.default_rng(22), p, 2 * 10**4, 10)
        np.testing.assert_allclose(sums, np.sum(np.abs(g) ** p, axis=1), rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("n", [1, 7, 40])
    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 4.0])
    def test_chunked_block_is_the_reference_stream(self, p, n):
        # one call, of any row count, draws the reference stream of its rows:
        # all its exponentials and then all its sign words at p = 1, and at
        # p = 1.5 and 4 the ziggurat slice by slice (n = 40: eleven slices)
        count, seed = 2 * CHUNK_ROWS + 100, 24
        g, _ = generalized_gaussian_block(np.random.default_rng(block_seed(seed, 0)), p, count, n)
        np.testing.assert_array_equal(g, sample_generalized_gaussian(p, count, seed, n))

    @pytest.mark.parametrize(
        "kinds, p, projected",
        [((Kind.LP_BALL,), 4.0, True), ((Kind.LP_CONE,), 4.0, True),
         ((Kind.LP_BALL, Kind.LP_CONE), 4.0, True), ((Kind.LP_CONE,), 4.0, False),
         ((Kind.LP_BALL,), math.inf, True), ((Kind.SIMPLEX,), None, True),
         ((Kind.LP_CONE,), math.inf, True), ((Kind.LP_BALL, Kind.LP_CONE), 1.0, True),
         ((Kind.SIMPLEX,), None, False), ((Kind.LP_BALL,), math.inf, False)],
        ids=["lp_ball", "lp_cone", "lp_ball+lp_cone", "lp_cone-rows", "cube", "simplex",
             "cube-boundary", "lp_ball+lp_cone-p1", "simplex-rows", "cube-rows"],
    )
    def test_fill_holds_at_most_two_blocks(self, kinds, p, projected):
        # beside the block it returns, a projection fill holds at most 2.2
        # (CHUNK_ROWS, n) chunks: it draws and projects CHUNK_ROWS rows at a
        # time (an lp chunk's gammas and uniforms, or exponentials and signs,
        # are two chunks) and returns (count, k 4) projections; a rows fill
        # draws each chunk in place into the block, beside at most one chunk
        # (an lp body's uniforms, the simplex's exponentials; none for the
        # cube), so it holds at most 1.2 chunks more
        n, count = 300, 8 * CHUNK_ROWS
        specs = tuple(DistributionSpec(kind, n, p=p) for kind in kinds)
        fill = _filler(specs, np.ones((n, 4)) if projected else None)
        rng = np.random.default_rng(23)
        tracemalloc.start()
        try:
            block = fill(rng, count)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        chunk = 8 * CHUNK_ROWS * n
        assert block.shape == (count, len(specs) * 4 if projected else n)
        extra = (peak - block.nbytes) / chunk
        assert extra <= (2.2 if projected else 1.2), f"{extra:.2f} chunks beside the block"

    @pytest.mark.parametrize("kind, p", [(Kind.LP_CONE, math.inf), (Kind.LINF_EXPONENTIAL, None)],
                             ids=["cube-boundary", "linf_exponential"])
    def test_boundary_rows_are_drawn_in_place(self, kind, p):
        # each chunk's rows are drawn into the block itself: beside it the
        # fill holds a chunk's facet indices, signs and radii, not a chunk
        n, count = 300, 8 * CHUNK_ROWS
        fill = _filler(DistributionSpec(kind, n, p=p))
        rng = np.random.default_rng(25)
        tracemalloc.start()
        try:
            block = fill(rng, count)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        extra = (peak - block.nbytes) / (8 * CHUNK_ROWS * n)
        assert extra <= 0.2, f"{extra:.2f} chunks beside the block"


class TestLpCone:
    def test_constant_p_norm(self):
        batch = sample(DistributionSpec(Kind.LP_CONE, 6, p=3.0), 5000, 21)
        norms = np.linalg.norm(batch.data, ord=3.0, axis=1)
        assert np.abs(norms / batch.spec.scale - 1.0).max() <= 1e-10

    def test_p2_matches_sphere_up_to_scale(self):
        n, n_samples = 16, 2 * 10**5
        cone = sample(DistributionSpec(Kind.LP_CONE, n, p=2.0), n_samples, 22)
        shell = sample(DistributionSpec(Kind.SPHERE_SHELL, n), n_samples, 23)
        theta = np.zeros(n)
        theta[0] = 1.0
        slack = math.sqrt(math.log(2 / 0.01) / (2 * n_samples))
        d = two_sample_ks(cone.data @ theta, shell.data @ theta)
        assert d <= 2 * slack

    def test_p1_normalized_abs_is_flat_dirichlet(self):
        # |X|/||X||_1 has the flat Dirichlet law; its first coordinate is
        # Beta(1, n-1) with cdf 1 - (1-x)^(n-1)
        n, n_samples = 6, 2 * 10**5
        batch = sample(DistributionSpec(Kind.LP_CONE, n, p=1.0), n_samples, 24)
        z = np.abs(batch.data) / np.linalg.norm(batch.data, ord=1.0, axis=1)[:, None]
        u = 1.0 - (1.0 - z[:, 0]) ** (n - 1)
        assert stats.kstest(u, "uniform").pvalue > 0.01

    def test_cube_cone_p_inf(self):
        batch = sample(DistributionSpec(Kind.LP_CONE, 5, p=math.inf), 20000, 25)
        norms = np.linalg.norm(batch.data, ord=math.inf, axis=1)
        np.testing.assert_allclose(norms, batch.spec.scale, rtol=1e-12)


class TestLpBall:
    def test_p2_matches_ball_uniform(self):
        n, n_samples = 8, 2 * 10**5
        lp = sample(DistributionSpec(Kind.LP_BALL, n, p=2.0), n_samples, 26)
        ball = sample(DistributionSpec(Kind.BALL_UNIFORM, n), n_samples, 27)
        theta = np.full(n, n**-0.5)
        slack = math.sqrt(math.log(2 / 0.01) / (2 * n_samples))
        d = two_sample_ks(lp.data @ theta, ball.data @ theta)
        assert d <= 2 * slack

    def test_cube_fourth_moment(self):
        batch = sample(DistributionSpec(Kind.LP_BALL, 2, p=math.inf), 10**6, 28)
        mean, se = mean_and_se(batch.data[:, 0] ** 4)
        assert_within_se(mean, 1.8, se)

    def test_rows_inside_scaled_ball(self):
        batch = sample(DistributionSpec(Kind.LP_BALL, 5, p=1.5), 20000, 29)
        norms = np.linalg.norm(batch.data, ord=1.5, axis=1)
        assert np.all(norms <= batch.spec.scale * (1 + 1e-12))


class TestLpSurface:
    def test_p2_weights_flat(self):
        batch = sample(DistributionSpec(Kind.LP_SURFACE, 5, p=2.0), 20000, 30)
        w = batch.weights
        assert (w.max() - w.min()) / w.mean() <= 1e-10

    def test_p2_draws_the_sphere(self):
        # at p = 2 the cone measure is the normalized surface measure, uniform
        # on the sphere: the surface measure draws the l2 cone's rows bit for bit
        surface, cone = (sample(DistributionSpec(kind, 5, p=2.0), 20000, 30)
                         for kind in (Kind.LP_SURFACE, Kind.LP_CONE))
        assert surface.data.tobytes() == cone.data.tobytes()

    def test_weights_positive_finite_normalized(self):
        batch = sample(DistributionSpec(Kind.LP_SURFACE, 6, p=4.0), 20000, 31)
        assert np.all(batch.weights > 0)
        assert np.all(np.isfinite(batch.weights))
        assert batch.weights.sum() == pytest.approx(1.0, abs=1e-12)

    def test_weighted_vs_unweighted_gap_order_sqrt_n(self):
        # cone-vs-surface discrepancy is O(n^(-1/2)): the reweighted second
        # moment moves away from the cone value by a bounded multiple of it
        n, n_samples = 10, 10**6
        batch = sample(DistributionSpec(Kind.LP_SURFACE, n, p=4.0), n_samples, 32)
        sq = batch.data[:, 0] ** 2
        unweighted = sq.mean()
        weighted = float(batch.weights @ sq)
        assert abs(weighted - unweighted) <= 3.0 / math.sqrt(n)

    def test_blockwise_weights_equal_whole_batch_formula(self):
        # per-block unnormalized weights, normalized once, give the bits of
        # the formula applied to the whole batch
        spec = DistributionSpec(Kind.LP_SURFACE, 7, p=3.0)
        batch = sample(spec, 2 * BLOCK_ROWS + 17, 34)
        w = np.sqrt(np.sum((np.abs(batch.data) / spec.scale) ** 4.0, axis=1))
        assert batch.weights.tobytes() == (w / w.sum()).tobytes()

    def test_weights_add_no_batch_sized_temporary(self):
        # a surface draw peaks near the cone draw of the same size: its
        # weights take one block-sized temporary, not two batch-sized ones
        n, n_samples = 20, 3 * BLOCK_ROWS
        peaks = {}
        for kind in (Kind.LP_CONE, Kind.LP_SURFACE):
            spec = DistributionSpec(kind, n, p=3.0)
            tracemalloc.start()
            try:
                sample(spec, n_samples, 35)
                peaks[kind] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        extra = peaks[Kind.LP_SURFACE] - peaks[Kind.LP_CONE]
        assert extra < 8 * n_samples + 2 * 8 * BLOCK_ROWS * n, f"extra {extra / 1e6:.1f} MB"

    def test_p1_and_inf_degenerate_to_cone(self):
        for p in (1.0, math.inf):
            batch = sample(DistributionSpec(Kind.LP_SURFACE, 4, p=p), 500, 33)
            np.testing.assert_allclose(batch.weights, 1.0 / 500, rtol=1e-12)


class TestSimplex:
    def test_embedded_second_moment_n2(self):
        batch = sample(DistributionSpec(Kind.SIMPLEX, 2), 10**6, 34)
        y = simplex_embedded_coordinates(batch)
        mean, se = mean_and_se(y[:, 0] ** 2)
        assert_within_se(mean, 2.0, se)  # [(n+1)(n+2)]^1 2! 2! / 4! = 2 at n=2

    def test_embedded_first_moment_n2(self):
        batch = sample(DistributionSpec(Kind.SIMPLEX, 2), 10**6, 35)
        y = simplex_embedded_coordinates(batch)
        mean, se = mean_and_se(y[:, 0])
        assert_within_se(mean, 2.0 / math.sqrt(3.0), se)

    def test_edge_coefficients_unit_variance(self):
        n = 5
        batch = sample(DistributionSpec(Kind.SIMPLEX, n), 10**6, 36)
        geom = simplex_geometry(n)
        coeffs = batch.data @ geom.edge_frame.vectors[geom.pair_position(0, 1)]
        mean, se = mean_and_se(coeffs**2)
        assert_within_se(mean, 1.0, se)

    def test_exactly_isotropic(self):
        batch = sample(DistributionSpec(Kind.SIMPLEX, 3), 4 * 10**5, 37)
        s = summarize(batch)
        for i in range(3):
            se = math.sqrt((batch.data[:, i] ** 4).mean() / batch.N)
            assert_within_se(s.second[i], 1.0, se)

    def test_embedded_coordinates_simplex_constraint(self):
        batch = sample(DistributionSpec(Kind.SIMPLEX, 4), 1000, 38)
        y = simplex_embedded_coordinates(batch)
        assert np.all(y >= -1e-9)
        np.testing.assert_allclose(y.sum(axis=1), math.sqrt(5 * 6), rtol=1e-12)


class TestSphericalExponential:
    def test_norm_sq_mean(self):
        n = 20
        batch = sample(DistributionSpec(Kind.SPHERICAL_EXPONENTIAL, n), 10**6, 39)
        rowsq = np.einsum("ij,ij->i", batch.data, batch.data)
        mean, se = mean_and_se(rowsq)
        assert_within_se(mean, float(n), se)

    def test_norm_sq_variance(self):
        n = 20
        batch = sample(DistributionSpec(Kind.SPHERICAL_EXPONENTIAL, n), 10**6, 40)
        rowsq = np.einsum("ij,ij->i", batch.data, batch.data)
        expected = n * (4.0 * n + 6.0) / (n + 1)
        centered = (rowsq - rowsq.mean()) ** 2
        se = centered.std() / math.sqrt(len(rowsq))
        assert_within_se(rowsq.var(), expected, se, k=4.0)

    def test_central_symmetry(self):
        batch = sample(DistributionSpec(Kind.SPHERICAL_EXPONENTIAL, 5), 4 * 10**5, 41)
        mean, se = mean_and_se(batch.data[:, 0])
        assert_within_se(mean, 0.0, se)


class TestLinfExponential:
    def test_unit_coordinate_variance(self):
        batch = sample(DistributionSpec(Kind.LINF_EXPONENTIAL, 10), 10**6, 42)
        mean, se = mean_and_se(batch.data[:, 0] ** 2)
        assert_within_se(mean, 1.0, se)

    def test_positive_square_correlation(self):
        # this law violates square negative correlation:
        # Cov(X_1^2, X_2^2) = (4n+10)/((n+1)(n+2)) > 0
        n, n_samples = 20, 10**6
        batch = sample(DistributionSpec(Kind.LINF_EXPONENTIAL, n), n_samples, 43)
        a = batch.data[:, 0] ** 2
        b = batch.data[:, 1] ** 2
        cov = float(np.mean(a * b) - a.mean() * b.mean())
        prod_se = float((a * b).std() / math.sqrt(n_samples))
        expected = (4.0 * n + 10.0) / ((n + 1) * (n + 2))
        assert cov > 4 * prod_se  # significantly positive
        assert_within_se(cov, expected, prod_se, k=5.0)

    def test_radius_is_sup_norm_gamma(self):
        n = 6
        batch = sample(DistributionSpec(Kind.LINF_EXPONENTIAL, n), 2 * 10**5, 44)
        radii = np.linalg.norm(batch.data, ord=math.inf, axis=1)
        b_n = math.sqrt((n + 1) * (n + 2) / 3.0)
        p = stats.kstest(radii * b_n, "gamma", args=(n,)).pvalue
        assert p > 0.01


class TestCalibration:
    def test_sphere_unchanged(self):
        spec = DistributionSpec(Kind.SPHERE_SHELL, 10)
        assert calibrate_isotropic(spec) == spec

    def test_lp2_ball_recovers_exact_scale(self):
        # exact isotropic scale of the unit l2 ball is sqrt(n+2)
        for n in (6, 100):
            spec = DistributionSpec(Kind.LP_BALL, n, p=2.0)
            assert spec.scale == pytest.approx(math.sqrt(n + 2), rel=1e-12)

    def test_lp2_cone_exact_scale(self):
        # the cone measure of the l2 sphere is uniform on it: scale sqrt(n)
        for n in (6, 100):
            spec = DistributionSpec(Kind.LP_CONE, n, p=2.0)
            assert spec.scale == pytest.approx(math.sqrt(n), rel=1e-12)

    def test_cube_cone_recovers_exact_scale(self):
        # exact cube-boundary scale: E X_i^2 = (n+2)/(3n) on the unit cube shell
        for n in (8, 20):
            spec = DistributionSpec(Kind.LP_CONE, n, p=math.inf)
            assert spec.scale == pytest.approx(math.sqrt(3.0 * n / (n + 2)), rel=1e-12)

    def test_surface_takes_cone_scale(self):
        for p in (1.5, 4.0, math.inf):
            surface = DistributionSpec(Kind.LP_SURFACE, 7, p=p)
            assert surface.scale == DistributionSpec(Kind.LP_CONE, 7, p=p).scale

    def test_calibrated_samplers_isotropic(self):
        n_samples = 10**6
        for spec in (
            DistributionSpec(Kind.LP_BALL, 4, p=1.0),
            DistributionSpec(Kind.LP_CONE, 4, p=4.0),
        ):
            batch = sample(spec, n_samples, 47)
            for i in range(4):
                col = batch.data[:, i]
                mean, se = mean_and_se(col)
                assert_within_se(mean, 0.0, se)
                msq, se_sq = mean_and_se(col**2)
                assert_within_se(msq, 1.0, se_sq, k=4.0)


def _mc_moments(spec, n_samples, seed):
    """Monte Carlo (fourth, sq_cov, third_abs) from coordinates 1 and 2, each
    with its standard error."""
    x = np.empty((n_samples, 2))

    def take(rows, block):
        x[rows] = block[:, :2]

    map_sample_blocks(spec, n_samples, seed, take)
    a, b = x[:, 0] ** 2, x[:, 1] ** 2
    centered = (a - a.mean()) * (b - b.mean())
    return [
        mean_and_se(a * a),
        (float(centered.mean()), float(centered.std() / math.sqrt(n_samples))),
        mean_and_se(np.abs(x[:, 0]) ** 3),
    ]


class TestExactMoments:
    def test_l2_ball_fourth_moment(self):
        for n in (5, 20):
            fourth, _, _ = exact_moments(DistributionSpec(Kind.LP_BALL, n, p=2.0))
            assert fourth == pytest.approx(3.0 * (n + 2) / (n + 4), rel=1e-12)

    def test_cube(self):
        fourth, sq_cov, third = exact_moments(DistributionSpec(Kind.LP_BALL, 9, p=math.inf))
        assert fourth == pytest.approx(9.0 / 5.0, rel=1e-15)
        assert sq_cov == 0.0
        assert third == pytest.approx(3.0 * math.sqrt(3.0) / 4.0, rel=1e-15)

    def test_cube_boundary(self):
        n = 20
        e2 = (n + 2) / (3.0 * n)
        fourth, sq_cov, third = exact_moments(DistributionSpec(Kind.LP_CONE, n, p=math.inf))
        assert fourth == pytest.approx((n + 4) / (5.0 * n) / e2**2, rel=1e-12)
        assert sq_cov == pytest.approx(-4.0 / (n + 2) ** 2, rel=1e-12)
        assert third == pytest.approx((n + 3) / (4.0 * n) / e2**1.5, rel=1e-12)

    def test_linf_exponential(self):
        n = 20
        b_n = math.sqrt((n + 1) * (n + 2) / 3.0)
        fourth, sq_cov, third = exact_moments(DistributionSpec(Kind.LINF_EXPONENTIAL, n))
        expected_fourth = 9.0 * (n + 3) * (n + 4) / (5.0 * (n + 1) * (n + 2))
        assert fourth == pytest.approx(expected_fourth, rel=1e-12)
        assert sq_cov == pytest.approx((4.0 * n + 10.0) / ((n + 1) * (n + 2)), rel=1e-12)
        assert third == pytest.approx((n + 1) * (n + 2) * (n + 3) / (4.0 * b_n**3), rel=1e-12)

    @pytest.mark.parametrize(
        "spec",
        [DistributionSpec(kind, 20, p=p)
         for kind in (Kind.LP_BALL, Kind.LP_CONE)
         for p in (1.0, 1.5, 3.0, 4.0, math.inf)]
        + [DistributionSpec(Kind.LINF_EXPONENTIAL, 20)],
        ids=lambda spec: f"{spec.kind.value}-{spec.p}",
    )
    def test_matches_monte_carlo(self, spec):
        for exact, (estimate, se) in zip(exact_moments(spec), _mc_moments(spec, 10**6, 52)):
            assert_within_se(estimate, exact, se, k=4.0)

    def test_square_covariance_negative_for_lp(self):
        for kind in (Kind.LP_BALL, Kind.LP_CONE):
            for p in (1.0, 1.5, 2.0, 3.0, 4.0, 8.0, math.inf):
                for n in (2, 20, 100):
                    _, sq_cov, _ = exact_moments(DistributionSpec(kind, n, p=p))
                    if kind is Kind.LP_BALL and math.isinf(p):
                        assert sq_cov == 0.0  # independent cube coordinates
                    else:
                        assert sq_cov < 0.0, (kind, p, n)

    def test_rejects_kinds_without_closed_form(self):
        for spec in (
            DistributionSpec(Kind.SIMPLEX, 5),
            DistributionSpec(Kind.LP_SURFACE, 5, p=2.0),
        ):
            with pytest.raises(ValueError):
                exact_moments(spec)


class TestSymmetries:
    @pytest.mark.parametrize(
        "spec",
        [
            DistributionSpec(Kind.LP_BALL, 4, p=1.0),
            DistributionSpec(Kind.LP_CONE, 4, p=2.5),
            DistributionSpec(Kind.LINF_EXPONENTIAL, 4),
        ],
    )
    def test_sign_flip_invariance(self, spec):
        batch = sample(spec, 2 * 10**5, 48)
        flipped = batch.data.copy()
        flipped[:, 2] *= -1.0
        orig, flip = summarize(batch), summarize(flipped)
        np.testing.assert_allclose(orig.second, flip.second, rtol=1e-12)
        np.testing.assert_allclose(orig.fourth, flip.fourth, rtol=1e-12)
        # distributional check on the flipped coordinate itself
        d = two_sample_ks(batch.data[:, 2], flipped[:, 2])
        slack = math.sqrt(math.log(2 / 0.01) / (2 * batch.N))
        assert d <= 2 * slack

    @pytest.mark.parametrize(
        "spec",
        [
            DistributionSpec(Kind.BALL_UNIFORM, 6),
            DistributionSpec(Kind.SPHERICAL_EXPONENTIAL, 6),
        ],
    )
    def test_rotation_invariance(self, spec):
        n_samples = 10**5
        batch = sample(spec, n_samples, 49)
        rotation = haar_orthogonal(spec.n, 50)
        theta = np.zeros(spec.n)
        theta[0] = 1.0
        d = two_sample_ks(batch.data @ theta, (batch.data @ rotation.T) @ theta)
        slack = math.sqrt(math.log(2 / 0.01) / (2 * n_samples))
        assert d <= 2 * slack

    @pytest.mark.parametrize(
        "spec",
        [
            DistributionSpec(Kind.SIMPLEX, 5),
            DistributionSpec(Kind.LP_BALL, 5, p=3.0),
            DistributionSpec(Kind.SPHERE_SHELL, 5),
        ],
    )
    def test_coordinate_exchangeability(self, spec):
        batch = sample(spec, 4 * 10**5, 51)
        s = summarize(batch)
        se = 3.0 * math.sqrt(float(np.mean(batch.data**4)) / batch.N)
        assert s.second.max() - s.second.min() <= 2 * 3 * se


class TestErrors:
    def test_zero_samples(self):
        with pytest.raises(ValueError):
            sample(DistributionSpec(Kind.SPHERE_SHELL, 3), 0, 1)

    @pytest.mark.parametrize("n_samples", [0, -1])
    def test_sample_checks_count_before_allocating(self, n_samples):
        spec = DistributionSpec(Kind.SPHERE_SHELL, 3)
        with pytest.raises(ValueError, match="sample count must be positive"):
            sample(spec, n_samples, 1)

    def test_auto_calibration_is_deterministic(self):
        # a spec's scale is the closed-form isotropic scale of its cone:
        # E X_i^2 = G(3/p) G(n/p) / (G(1/p) G((n + 2)/p)) on the unit body
        n, p = 4, 2.5
        spec = DistributionSpec(Kind.LP_CONE, n, p=p)
        g = math.gamma
        assert spec.scale == pytest.approx(
            math.sqrt(g(1 / p) * g((n + 2) / p) / (g(3 / p) * g(n / p))), rel=1e-12
        )
        assert calibrate_isotropic(spec) is spec
        a = sample(spec, 500, 7)
        b = sample(spec, 500, 7)
        assert a.spec.scale == b.spec.scale
        assert a.data.tobytes() == b.data.tobytes()
