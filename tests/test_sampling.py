"""Path sampling: grids, determinism, flat exactness, small-time statistics."""

import numpy as np
import pytest

import pathgap as pg
from pathgap.geometry import frame_orthonormality_defect, surface_defect
from pathgap.sampling import (
    TimeGrid,
    batch_increments,
    path_increments,
    sample_path,
    simulate_increments,
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
        assert g.index_of(0.3) == int(np.searchsorted(g.times, 0.3))

    def test_index_of_missing(self):
        g = TimeGrid.with_times(1.0, 4, ())
        with pytest.raises(ValueError):
            g.index_of(0.3)

    def test_invalid(self):
        with pytest.raises(ValueError):
            TimeGrid.with_times(0.0, 4, ())
        with pytest.raises(ValueError):
            TimeGrid.with_times(1.0, 0, ())
        with pytest.raises(ValueError):
            TimeGrid(1.0, np.array([0.0, 0.5, 0.4, 1.0]))

    def test_step_count_checked_before_forced_times(self):
        with pytest.raises(ValueError, match="n_steps must be >= 1"):
            TimeGrid.with_times(1.0, 0, [0.5])


class TestIncrements:
    def test_deterministic(self):
        g = TimeGrid.with_times(1.0, 16, ())
        a = path_increments(g, 3, seed=9, path_index=2)
        b = path_increments(g, 3, seed=9, path_index=2)
        np.testing.assert_array_equal(a, b)
        c = path_increments(g, 3, seed=9, path_index=3)
        assert not np.array_equal(a, c)

    def test_scaling(self):
        """Increment variance tracks the step size."""
        g = TimeGrid.with_times(2.0, 8, ())
        inc = batch_increments(g, 2, seed=4, indices=range(4000))
        var = inc.var(axis=(0, 2))
        np.testing.assert_allclose(var, g.dts, rtol=0.1)


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
                fp = s.frame_point(i)
                assert frame_orthonormality_defect(m, fp) < 1e-10
                assert surface_defect(m, fp) < 1e-10


def chunked_batch(m, g, n_paths, seed, chunk):
    """Positions and increments of paths 0..n_paths-1, drawn and walked chunk by chunk."""
    positions, increments = [], []
    for lo in range(0, n_paths, chunk):
        inc = batch_increments(g, m.dim, seed, range(lo, min(lo + chunk, n_paths)))
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

    def test_flat_mean_displacement(self):
        m = pg.euclidean(2)
        g = TimeGrid.with_times(1.0, 8, ())
        inc = batch_increments(g, 2, seed=3, indices=range(20_000))
        finals = inc.sum(axis=1)
        mean = finals.mean(axis=0)
        stderr = finals.std(axis=0, ddof=1) / np.sqrt(finals.shape[0])
        assert np.all(np.abs(mean) <= 4.0 * stderr)


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

