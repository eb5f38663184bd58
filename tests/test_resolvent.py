"""Damping propagator: exactness, cocycle, norm bound, convergence order."""

import numpy as np
import pytest

import pathgap as pg
from pathgap.gradients import DataError, resolvent_on_grid, resolvent_propagator
from pathgap.sampling import TimeGrid, sample_path

from conftest import smooth_ricci, spectral_norms, stiff_ricci


class TestScalarMode:
    @pytest.mark.parametrize("m,c", [(pg.sphere(2, 1.0), 1.0), (pg.hyperbolic(2, -1.0), -1.0)])
    def test_exact_exponential(self, m, c):
        g = TimeGrid.with_times(1.0, 64, ())
        path = sample_path(m, g, 3)
        R = resolvent_on_grid(path.grid, m, m.curvature_window)
        for i, j in [(0, 0), (10, 3), (64, 0), (40, 40)]:
            want = np.exp(-0.5 * c * (g.times[i] - g.times[j])) * np.eye(2)
            np.testing.assert_allclose(R.entry(i, j), want, rtol=1e-12, atol=1e-15)

    def test_declared_window_check(self):
        m = pg.sphere(2, 1.0)  # ricci scalar c = 1
        g = TimeGrid.with_times(1.0, 8, ())
        path = sample_path(m, g, 3)
        with pytest.raises(DataError):
            resolvent_on_grid(path.grid, m, pg.CurvatureBounds(0.5, 0.0))  # k1 < c
        with pytest.raises(DataError):
            resolvent_propagator(path.grid, m, pg.CurvatureBounds(0.5, 0.0))

    def test_row_and_column_layout(self):
        m = pg.hyperbolic(2, -0.5)
        g = TimeGrid.with_times(1.0, 16, ())
        R = resolvent_on_grid(g, m, m.curvature_window)
        row = R.row(10)
        col = R.column(4)
        np.testing.assert_allclose(row[4], R.entry(10, 4), atol=1e-15)
        np.testing.assert_allclose(col[6], R.entry(10, 4), atol=1e-15)


class TestSyntheticMode:
    def test_identity_on_diagonal(self):
        m, cb = smooth_ricci(2, seed=5)
        g = TimeGrid.with_times(1.0, 32, ())
        R = resolvent_on_grid(g, m, cb)
        for i in (0, 7, 32):
            np.testing.assert_array_equal(R.entry(i, i), np.eye(2))

    def test_constant_diagonal_product(self):
        """Constant diagonal data: RK4 matches the exact exponential closely."""
        rates = np.array([0.6, -0.2])
        m = pg.synthetic_ricci_path(2, lambda t: np.diag(rates))
        g = TimeGrid.with_times(1.0, 512, ())
        R = resolvent_on_grid(g, m, pg.CurvatureBounds(0.6, -0.2))
        want = np.diag(np.exp(-0.5 * rates * 1.0))
        np.testing.assert_allclose(R.entry(512, 0), want, atol=1e-10)

    def test_piecewise_diagonal_product(self):
        """Breaks at grid nodes: first-order stage error stays below 1e-3."""
        def ric(t):
            a = 0.6 if t < 0.5 else -0.2
            b = 0.3 if t < 0.25 else 0.8
            return np.diag([a, b])

        m = pg.synthetic_ricci_path(2, ric)
        g = TimeGrid.with_times(1.0, 512, ())
        R = resolvent_on_grid(g, m, pg.CurvatureBounds(1.0, -0.5))
        int_a = 0.6 * 0.5 - 0.2 * 0.5
        int_b = 0.3 * 0.25 + 0.8 * 0.75
        want = np.diag(np.exp(-0.5 * np.array([int_a, int_b])))
        np.testing.assert_allclose(R.entry(512, 0), want, atol=1e-3)

    def test_cocycle(self, rng):
        m, cb = smooth_ricci(2, seed=11)
        g = TimeGrid.with_times(1.0, 512, ())
        R = resolvent_on_grid(g, m, cb)
        n = g.n_steps
        for _ in range(500):
            j = int(rng.integers(0, n))
            k = int(rng.integers(j, n + 1))
            i = int(rng.integers(k, n + 1))
            err = np.abs(R.entry(i, j) - R.entry(i, k) @ R.entry(k, j)).max()
            assert err <= 1e-9

    def test_norm_bound_all_pairs(self):
        m, cb = smooth_ricci(2, seed=13)
        g = TimeGrid.with_times(1.0, 256, ())
        R = resolvent_on_grid(g, m, cb)
        idx_i, idx_j = np.tril_indices(g.n_steps + 1)
        mats = R.packed
        norms = spectral_norms(mats)
        bound = np.exp(-0.5 * cb.k2 * (g.times[idx_i] - g.times[idx_j]))
        assert np.all(norms <= bound + 1e-8)

    def test_declared_violation_raises(self):
        m, _ = smooth_ricci(2, seed=7)
        g = TimeGrid.with_times(1.0, 16, ())
        path = sample_path(m, g, 1)
        with pytest.raises(DataError):
            resolvent_on_grid(path.grid, m, pg.CurvatureBounds(0.01, 0.0))

    def test_propagator_matches_triangle(self):
        m, cb = smooth_ricci(3, seed=19)
        g = TimeGrid.with_times(1.0, 64, ())
        path = sample_path(m, g, 1)
        R = resolvent_on_grid(path.grid, m, cb)
        col = resolvent_propagator(path.grid, m, cb, j0=5)
        np.testing.assert_array_equal(col, R.column(5))


class TestConvergence:
    def test_rk4_order(self):
        """Refine-and-compare on oscillatory data: observed order about four."""
        m, cb = stiff_ricci()

        def q_final(n):
            g = TimeGrid.with_times(1.0, n, ())
            return resolvent_propagator(g, m, cb, j0=0)[-1]

        ref = q_final(16384)
        e_256 = np.abs(q_final(256) - ref).max()
        e_2048 = np.abs(q_final(2048) - ref).max()
        order = np.log(e_256 / e_2048) / np.log(2048 / 256)
        assert order >= 3.5

    def test_refinement_tightens_cocycle(self):
        m, cb = smooth_ricci(2, seed=29)

        def cocycle_err(n):
            g = TimeGrid.with_times(1.0, n, ())
            R = resolvent_on_grid(g, m, cb)
            mid, end = n // 2, n
            return np.abs(R.entry(end, 0) - R.entry(end, mid) @ R.entry(mid, 0)).max()

        assert cocycle_err(512) <= max(cocycle_err(128) / 2.0, 5e-15)
