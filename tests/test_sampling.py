"""Path sampling: grids, determinism, flat exactness, small-time statistics."""

import numpy as np
import pytest

import pathgap as pg
from pathgap.sampling import (
    BLOCK,
    SLAB,
    TimeGrid,
    batch_increments,
    sample_path,
    simulate_increments,
)

from conftest import constant_ricci
from reference import (
    frame_orthonormality_defect,
    index_of,
    surface_defect,
    whole_increments,
    zonal_moment,
)


class TestTimeGrid:
    def test_uniform(self):
        g = TimeGrid.with_times(2.0, 4, ())
        np.testing.assert_allclose(g.times, [0.0, 0.5, 1.0, 1.5, 2.0])
        assert g.n_steps == 4

    def test_forced_insertion(self):
        g = TimeGrid.with_times(1.0, 4, [0.3, 0.5])
        assert 0.3 in g.times and 0.5 in g.times
        assert g.times[0] == 0.0 and g.times[-1] == 1.0
        assert np.all(np.diff(g.times) > 0)
        assert index_of(g, 0.3) == int(np.searchsorted(g.times, 0.3))

    def test_forced_times_deduplicated_exactly(self):
        """A forced time on a grid node, a repeated one and both ends each appear once."""
        forced = [0.25, 0.3, 0.3, 0.0, 1.0, 0.25]
        g = TimeGrid.with_times(1.0, 4, forced)
        np.testing.assert_array_equal(g.times, [0.0, 0.25, 0.3, 0.5, 0.75, 1.0])
        base = np.linspace(0.0, 1.0, 5)
        np.testing.assert_array_equal(g.times, np.unique(np.concatenate([base, forced])))

    def test_index_of_missing(self):
        g = TimeGrid.with_times(1.0, 4, ())
        with pytest.raises(ValueError):
            index_of(g, 0.3)

    def test_invalid(self):
        with pytest.raises(ValueError):
            TimeGrid.with_times(0.0, 4, ())
        with pytest.raises(ValueError):
            TimeGrid.with_times(1.0, 0, ())
        with pytest.raises(ValueError):
            TimeGrid(1.0, np.array([0.0, 0.5, 0.4, 1.0]))

    def test_repeated_node_refused(self):
        """linspace repeats nodes below a subnormal horizon; the uniform grid
        is refused before forced times are merged, so deduplicating the merge
        cannot shrink it to fewer steps than asked for."""
        for forced in [(), (5e-324,)]:
            with pytest.raises(ValueError, match="strictly increasing"):
                TimeGrid.with_times(5e-324, 8, forced)

    @pytest.mark.parametrize("forced", [[float("nan")], [0.5, float("nan")]])
    def test_nan_forced_time_refused_by_name(self, forced):
        """Every comparison with NaN is false, so the range check is written to
        pass only times inside [0, T]; the message names the time refused."""
        with pytest.raises(ValueError, match=r"must lie in \[0, 1\.0\], got \[nan\]"):
            TimeGrid.with_times(1.0, 4, forced)

    def test_step_count_checked_before_forced_times(self):
        with pytest.raises(ValueError, match="n_steps must be >= 1"):
            TimeGrid.with_times(1.0, 0, [0.5])


class TestIncrements:
    def test_deterministic(self):
        g = TimeGrid.with_times(1.0, 16, ())
        a = whole_increments(g, 3, 9, range(2, 3))[0]
        b = whole_increments(g, 3, 9, range(2, 3))[0]
        np.testing.assert_array_equal(a, b)
        c = whole_increments(g, 3, 9, range(3, 4))[0]
        assert not np.array_equal(a, c)

    def test_scaling(self):
        """Increment variance tracks the step size."""
        g = TimeGrid.with_times(2.0, 8, ())
        inc = whole_increments(g, 2, seed=4, indices=range(4000))
        var = inc.var(axis=(0, 2))
        np.testing.assert_allclose(var, g.dts, rtol=0.1)


class TestBlockStream:
    def test_rows_straddling_a_block_boundary(self):
        g = TimeGrid.with_times(0.7, 12, ())
        whole = whole_increments(g, 2, 5, range(2 * BLOCK))
        part = whole_increments(g, 2, 5, range(BLOCK - 3, BLOCK + 5))
        np.testing.assert_array_equal(part, whole[BLOCK - 3 : BLOCK + 5])

    @pytest.mark.parametrize(
        "indices", [[4, 5], (4, 5), range(0, 10, 2), range(9, 3, -1), np.arange(4, 6)]
    )
    def test_refuses_anything_but_one_range_of_consecutive_paths(self, indices):
        g = TimeGrid.with_times(0.7, 12, ())
        with pytest.raises(ValueError, match="range of consecutive paths"):
            batch_increments(g, 2, 5, indices)

    def test_refuses_a_negative_path_index_by_name(self):
        g = TimeGrid.with_times(0.7, 12, ())
        with pytest.raises(ValueError, match=r"consecutive paths >= 0, got range\(-1, 2\)"):
            batch_increments(g, 2, 5, range(-1, 2))

    def test_a_stream_is_read_once(self):
        """Its block generators move on as it is read: a second read would
        draw other normals, so it raises instead."""
        stream = batch_increments(TimeGrid.with_times(0.7, 12, ()), 2, 5, range(3))
        assert len(list(stream)) == 1
        with pytest.raises(ValueError, match="read once"):
            iter(stream)

    def test_empty_range(self):
        g = TimeGrid.with_times(0.7, 12, ())
        assert batch_increments(g, 2, 5, range(BLOCK + 3, BLOCK + 3)).shape == (0, 12, 2)

    def test_short_grid_draws_a_prefix(self):
        n = 20
        g = TimeGrid.with_times(0.3, n, ())
        unit = TimeGrid.with_times(2.0 * n, 2 * n, ())
        k = range(BLOCK + 7, BLOCK + 8)
        short = whole_increments(g, 3, 11, k)
        long = whole_increments(unit, 3, 11, k)
        np.testing.assert_array_equal(short, long[:, :n] * g.sqrt_dts[:, None])

    @pytest.mark.parametrize("n", [2 * SLAB + 5, SLAB - 3])
    def test_slabs_read_the_block_stream(self, n):
        """Row k is row k mod BLOCK of one (n, BLOCK, d) draw of its block's
        generator, however many slabs the draw is taken in."""
        g = TimeGrid.with_times(0.7, n, ())
        k = range(BLOCK - 2, BLOCK + 7)
        got = whole_increments(g, 3, 11, k)
        for r, i in enumerate(k):
            key = np.random.SeedSequence(entropy=11, spawn_key=(i // BLOCK,))
            z = np.random.default_rng(key).standard_normal((n, BLOCK, 3))[:, i % BLOCK]
            np.testing.assert_array_equal(got[r], z * g.sqrt_dts[:, None])


def draws_last(n_paths, n_steps, dim):
    """A NaN-filled (P, n_steps, dim) transpose of an (n_steps, dim, P) buffer."""
    return np.full((n_steps, dim, n_paths), np.nan).transpose(2, 0, 1)


class TestIncrementsIntoBuffer:
    """``out=`` fills a caller's draws-last buffer with the bits of the stream
    that the allocating call (no ``out``) returns, slab after slab."""

    @pytest.mark.parametrize("n", [1, SLAB - 3, SLAB, 2 * SLAB + 5])
    @pytest.mark.parametrize(
        "picks",
        [
            range(BLOCK - 3, BLOCK + 5),
            range(2 * BLOCK),
        ],
        ids=["straddling", "two_blocks"],
    )
    def test_equals_the_allocating_call(self, n, picks):
        g = TimeGrid.with_times(0.7, n, ())
        buf = draws_last(len(picks), n, 2)
        assert batch_increments(g, 2, 5, picks, out=buf) is buf
        slabs = [slab.copy() for slab in batch_increments(g, 2, 5, picks)]
        assert [len(slab) for slab in slabs] == [min(SLAB, n - t) for t in range(0, n, SLAB)]
        np.testing.assert_array_equal(buf.transpose(1, 2, 0), np.concatenate(slabs))

    @pytest.mark.parametrize(
        "bad",
        [
            draws_last(4, 12, 2),  # one path short
            draws_last(5, 12, 3),  # one dimension too many
            np.empty((12, 2, 5), dtype=np.float32).transpose(2, 0, 1),
            np.empty((5, 12, 2)),  # path-major
            np.empty((12, 2, 10))[:, :, ::2].transpose(2, 0, 1),  # strided draws
        ],
        ids=["paths", "dim", "float32", "path_major", "strided"],
    )
    def test_refuses_a_wrong_buffer(self, bad):
        g = TimeGrid.with_times(0.7, 12, ())
        with pytest.raises(ValueError, match="out must be"):
            batch_increments(g, 2, 5, range(5), out=bad)


class TestSamplePath:
    def test_bitwise_determinism(self):
        m = pg.sphere(3, 1.0)
        g = TimeGrid.with_times(0.5, 32, ())
        s1 = sample_path(m, g, 42)
        s2 = sample_path(m, g, 42)
        np.testing.assert_array_equal(s1.positions, s2.positions)
        np.testing.assert_array_equal(s1.frames, s2.frames)
        np.testing.assert_array_equal(s1.increments, s2.increments)

    def test_euclidean_partial_sums(self):
        m = pg.euclidean(3)
        g = TimeGrid.with_times(1.0, 64, ())
        s = sample_path(m, g, 7)
        want = np.concatenate([np.zeros((1, 3)), np.cumsum(s.increments, axis=0)])
        np.testing.assert_allclose(s.positions, want, atol=1e-12)
        np.testing.assert_array_equal(s.frames[-1], np.eye(3))

    def test_matches_geodesic_step(self):
        """The kernel walk reproduces repeated single geodesic steps."""
        for m in (pg.sphere(2, 1.0), pg.hyperbolic(2, -1.0)):
            g = TimeGrid.with_times(0.4, 16, ())
            s = sample_path(m, g, 11)
            fp = m.basepoint()
            for i in range(g.n_steps):
                fp = pg.geodesic_step(m, fp, s.increments[i], 1.0)
                np.testing.assert_allclose(s.positions[i + 1], fp.position, atol=1e-12)
                np.testing.assert_allclose(s.frames[i + 1], fp.frame, atol=1e-12)

    def test_frame_validity(self):
        for m in (pg.sphere(3, 1.0), pg.hyperbolic(2, -1.0)):
            g = TimeGrid.with_times(1.0, 256, ())
            s = sample_path(m, g, 3)
            for i in (0, 64, 256):
                fp = pg.FramePoint(s.positions[i], s.frames[i])
                assert frame_orthonormality_defect(m, fp) < 1e-10
                assert surface_defect(m, fp) < 1e-10


def chunked_batch(m, g, n_paths, seed, chunk):
    """Positions and increments of paths 0..n_paths-1, drawn and walked chunk by chunk."""
    positions, increments = [], []
    for lo in range(0, n_paths, chunk):
        inc = whole_increments(g, m.dim, seed, range(lo, min(lo + chunk, n_paths)))
        positions.append(simulate_increments(m, g, inc)[0])
        increments.append(inc)
    return np.concatenate(positions), np.concatenate(increments)


class TestBatchSample:
    def test_chunk_invariance(self):
        m = pg.sphere(2, 1.0)
        g = TimeGrid.with_times(0.3, 16, ())
        pos_a, inc_a = chunked_batch(m, g, 13, seed=5, chunk=3)
        pos_b, inc_b = chunked_batch(m, g, 13, seed=5, chunk=64)
        np.testing.assert_array_equal(pos_a, pos_b)
        np.testing.assert_array_equal(inc_a, inc_b)

    def test_matches_single_path(self):
        m = pg.hyperbolic(2, -1.0)
        g = TimeGrid.with_times(0.3, 16, ())
        positions, _ = chunked_batch(m, g, 5, seed=21, chunk=5)
        for k, pos in enumerate(positions):
            single = sample_path(m, g, 21, path_index=k)
            np.testing.assert_array_equal(pos, single.positions)

    def test_sample_path_replays_a_row_of_a_multi_block_batch(self):
        m = pg.sphere(2, 1.0)
        g = TimeGrid.with_times(0.3, 16, ())
        n = 3 * BLOCK
        inc = whole_increments(g, m.dim, 21, range(n))
        pos, frames = simulate_increments(m, g, inc)
        for k in (0, BLOCK - 1, BLOCK, 2 * BLOCK + 5, n - 1):
            single = sample_path(m, g, 21, path_index=k)
            np.testing.assert_array_equal(single.increments, inc[k])
            np.testing.assert_array_equal(single.positions, pos[k])
            np.testing.assert_array_equal(single.frames, frames[k])

    def test_flat_mean_displacement(self):
        m = pg.euclidean(2)
        g = TimeGrid.with_times(1.0, 8, ())
        inc = whole_increments(g, 2, seed=3, indices=range(20_000))
        finals = inc.sum(axis=1)
        mean = finals.mean(axis=0)
        stderr = finals.std(axis=0, ddof=1) / np.sqrt(finals.shape[0])
        assert np.all(np.abs(mean) <= 4.0 * stderr)


SEAM_MANIFOLDS = {
    "S2": pg.sphere(2, 1.0),
    "S3": pg.sphere(3, 2.5),
    "H2": pg.hyperbolic(2, -1.0),
    "H3": pg.hyperbolic(3, -0.7),
    "R3": pg.euclidean(3),
    "synthetic": pg.synthetic_ricci_path(2, constant_ricci(np.eye(2))),
}


class TestSlabSeams:
    """A walk read from the stream, slab by slab, equals the walk of the whole
    increment array bit for bit: position, frames, step number and record
    pointer carry across the slab seams."""

    @pytest.mark.parametrize("name", sorted(SEAM_MANIFOLDS))
    @pytest.mark.parametrize(
        "n, forced",
        [(1, ()), (SLAB - 1, ()), (SLAB, ()), (SLAB + 1, ()), (147, ()), (130, (0.1234, 0.4321))],
    )
    def test_stream_walk_equals_whole_walk(self, name, n, forced):
        m = SEAM_MANIFOLDS[name]
        g = TimeGrid.with_times(0.5, n, forced)
        n = g.n_steps
        edges = {k for t in range(0, n + 1, SLAB) for k in (t - 1, t, t + 1) if 0 <= k <= n}
        edges = sorted(edges | {n})
        paths = range(37, 301)  # not aligned to blocks
        for record in (None, np.array(edges, dtype=np.int64)):
            whole = simulate_increments(m, g, whole_increments(g, m.dim, 5, paths), record)
            streamed = simulate_increments(m, g, batch_increments(g, m.dim, 5, paths), record)
            for a, b in zip(whole, streamed):
                np.testing.assert_array_equal(a, b)

    def test_one_path_replay(self):
        """The theorem1 witness replay walks one path from a stream; sample_path
        walks the same path from a whole array."""
        m = pg.hyperbolic(2, -1.0)
        g = TimeGrid.with_times(1.0, 2 * SLAB + 3, (0.37,))
        for k in (0, 100, 300):
            single = sample_path(m, g, 7, path_index=k)
            pos, frames = simulate_increments(m, g, batch_increments(g, m.dim, 7, range(k, k + 1)))
            np.testing.assert_array_equal(pos[0], single.positions)
            np.testing.assert_array_equal(frames[0], single.frames)


class TestSimulateArguments:
    """Bad increments or record indices are refused before the walk runs; the
    kernel would leave the slots they miss as uninitialised memory."""

    @pytest.mark.parametrize(
        "record", [[5, 2], [2, 2, 9], [-1, 3], [0, 9], [[0, 1], [2, 3]]]
    )
    def test_record_must_be_increasing_slots(self, record):
        m = pg.sphere(2, 1.0)
        g = TimeGrid.with_times(0.5, 8, ())
        inc = batch_increments(g, m.dim, 3, range(3))
        with pytest.raises(ValueError, match="record"):
            simulate_increments(m, g, inc, record=np.array(record))

    def test_increments_must_span_the_grid(self):
        m = pg.sphere(2, 1.0)
        g = TimeGrid.with_times(0.5, 8, ())
        short = batch_increments(TimeGrid.with_times(0.5, 4, ()), m.dim, 3, range(3))
        with pytest.raises(ValueError, match="increments"):
            simulate_increments(m, g, short)
        inc = whole_increments(g, m.dim, 3, range(3))
        for bad in (inc[0], inc[:, :, :1], np.zeros((3, 8, 3))):
            with pytest.raises(ValueError, match="increments"):
                simulate_increments(m, g, bad)

    def test_valid_subsets_still_run(self):
        m = pg.hyperbolic(2, -1.0)
        g = TimeGrid.with_times(0.5, 8, ())
        inc = whole_increments(g, m.dim, 3, range(3))
        full, _ = simulate_increments(m, g, inc)
        for record in ([0], [8], [0, 2, 5, 8], []):
            pos, _ = simulate_increments(m, g, inc, record=np.array(record, dtype=np.int64))
            np.testing.assert_array_equal(pos, full[:, record])


class TestSmallTimeStatistics:
    def test_sphere_mean_square_distance(self):
        """E rho^2 <= d T and -> d T at small horizons (unit sphere)."""
        m = pg.sphere(2, 1.0)
        T, n_paths = 0.01, 100_000
        g = TimeGrid.with_times(T, 64, ())
        inc = batch_increments(g, m.dim, seed=17, indices=range(n_paths))
        pos, _ = simulate_increments(m, g, inc, record=np.array([g.n_steps]))
        start = m.basepoint().position
        cosang = np.clip(pos[:, 0, :] @ start, -1.0, 1.0)
        rho2 = np.arccos(cosang) ** 2
        mean = float(rho2.mean())
        stderr = float(rho2.std(ddof=1) / np.sqrt(n_paths))
        dT = m.dim * T
        assert mean <= dT + 4.0 * stderr
        # first-order agreement: curvature correction is O(T^2)
        assert abs(mean - dT) <= 2.0 * T * T + 4.0 * stderr

    def test_sphere_weak_convergence_five_percent(self):
        m = pg.sphere(2, 1.0)
        T, n_paths = 0.05, 100_000
        g = TimeGrid.with_times(T, 128, ())
        inc = batch_increments(g, m.dim, seed=29, indices=range(n_paths))
        pos, _ = simulate_increments(m, g, inc, record=np.array([g.n_steps]))
        start = m.basepoint().position
        cosang = np.clip(pos[:, 0, :] @ start, -1.0, 1.0)
        rho2 = np.arccos(cosang) ** 2
        assert abs(float(rho2.mean()) - m.dim * T) <= 0.05 * m.dim * T
        # the same sample's l = 1 zonal moment, against the exact heat kernel
        assert abs(_zonal_z(m, T, pos[:, 0, :])) <= 4.0


def _zonal_z(m, T, positions):
    """(walk mean - exact mean) / stderr of the l = 1 zonal moment at T."""
    values, exact = zonal_moment(m, positions, T)
    return (float(values.mean()) - exact) / float(values.std(ddof=1) / np.sqrt(values.size))


def _walk_endpoints(m, T, n_steps, n_paths, seed):
    g = TimeGrid.with_times(T, n_steps, ())
    inc = batch_increments(g, m.dim, seed=seed, indices=range(n_paths))
    return simulate_increments(m, g, inc, record=np.array([g.n_steps]))[0][:, 0, :]


# curved spaces and horizons of the heat-kernel checks; S^2 is checked on the
# weak-convergence test's sample
ZONAL_CASES = {
    "S3": (pg.sphere(3, 2.5), 0.2),
    "H2": (pg.hyperbolic(2, -1.0), 0.5),
    "H3": (pg.hyperbolic(3, -1.0), 0.5),
}


class TestHeatKernelLaw:
    """The walk's law at T: the mean of the l = 1 zonal eigenfunction,
    cos(sqrt(kappa) rho_T) on S^d and cosh(sqrt(-kappa) rho_T) on H^d, is
    exp(-d kappa T / 2).  The walk's weak error is first order in the step."""

    @pytest.mark.parametrize("name", sorted(ZONAL_CASES))
    def test_128_steps_match_the_exact_moment(self, name):
        m, T = ZONAL_CASES[name]
        assert abs(_zonal_z(m, T, _walk_endpoints(m, T, 128, 30_000, 29))) <= 4.0

    @pytest.mark.parametrize("name", ["S3", "H3"])
    def test_8_steps_bias_is_detected(self, name):
        m, T = ZONAL_CASES[name]
        assert _zonal_z(m, T, _walk_endpoints(m, T, 8, 100_000, 29)) < -4.0

