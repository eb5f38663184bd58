"""Damping propagator: exactness, cocycle, norm bound, convergence order.

The grid holds only the per-cell steps; the tests form the propagators from
them with the reference products ``kernels.resolvent_triangle`` (all pairs,
pair (i, j) at ``pair(i, j)``) and ``kernels.resolvent_column``.
"""

import tracemalloc

import numpy as np
import pytest

import pathgap as pg
from pathgap import estimators as est
from pathgap._backend import kernels
from pathgap.geometry import ricci_matrix
from pathgap.gradients import CylindricalFunctional, DataError, resolvent_on_grid
from pathgap.sampling import TimeGrid, sample_path

from conftest import constant_ricci, smooth_ricci, spectral_norms, stiff_ricci
from reference import ricci_at_nodes


def pair(i, j):
    """Index of Q_{t_i, t_j} in the packed triangle."""
    return i * (i + 1) // 2 + j


class TestScalarMode:
    @pytest.mark.parametrize("m,c", [(pg.sphere(2, 1.0), 1.0), (pg.hyperbolic(2, -1.0), -1.0)])
    def test_exact_exponential(self, m, c):
        g = TimeGrid.with_times(1.0, 64, ())
        path = sample_path(m, g, 3)
        steps = resolvent_on_grid(path.grid, m, m.curvature_window)
        tri = kernels.resolvent_triangle(steps)
        for i, j in [(0, 0), (10, 3), (64, 0), (40, 40)]:
            want = np.exp(-0.5 * c * (g.times[i] - g.times[j])) * np.eye(2)
            np.testing.assert_allclose(tri[pair(i, j)], want, rtol=1e-12, atol=1e-15)

    def test_declared_window_check(self):
        m = pg.sphere(2, 1.0)  # ricci scalar c = 1
        g = TimeGrid.with_times(1.0, 8, ())
        path = sample_path(m, g, 3)
        with pytest.raises(DataError):
            resolvent_on_grid(path.grid, m, pg.CurvatureBounds(0.5, 0.0))  # k1 < c

    def test_steps_compose_to_the_exponential(self):
        m = pg.sphere(2, 1.0)
        g = TimeGrid.with_times(1.0, 64, ())
        steps = resolvent_on_grid(g, m, m.curvature_window)
        assert steps.shape == (64, 2, 2)
        np.testing.assert_allclose(
            np.linalg.multi_dot(steps[::-1]), np.exp(-0.5) * np.eye(2), rtol=1e-13, atol=0
        )

    def test_row_and_column_layout(self):
        m = pg.hyperbolic(2, -0.5)
        g = TimeGrid.with_times(1.0, 16, ())
        steps = resolvent_on_grid(g, m, m.curvature_window)
        row = kernels.resolvent_triangle(steps)[pair(10, 0) : pair(11, 0)]
        col = kernels.resolvent_column(steps, 4)
        want = np.exp(-0.5 * m.ricci_scalar * (g.times[10] - g.times[4])) * np.eye(2)
        np.testing.assert_allclose(row[4], want, atol=1e-15)
        np.testing.assert_allclose(col[6], want, atol=1e-15)


class TestSyntheticMode:
    def test_identity_on_diagonal(self):
        m, cb = smooth_ricci(2, seed=5)
        g = TimeGrid.with_times(1.0, 32, ())
        tri = kernels.resolvent_triangle(resolvent_on_grid(g, m, cb))
        for i in (0, 7, 32):
            np.testing.assert_array_equal(tri[pair(i, i)], np.eye(2))

    def test_constant_diagonal_product(self):
        """Constant diagonal data: RK4 matches the exact exponential closely."""
        rates = np.array([0.6, -0.2])
        m = pg.synthetic_ricci_path(2, constant_ricci(np.diag(rates)))
        g = TimeGrid.with_times(1.0, 512, ())
        steps = resolvent_on_grid(g, m, pg.CurvatureBounds(0.6, -0.2))
        want = np.diag(np.exp(-0.5 * rates * 1.0))
        np.testing.assert_allclose(kernels.resolvent_column(steps, 0)[512], want, atol=1e-10)

    def test_piecewise_diagonal_product(self):
        """Breaks at grid nodes: first-order stage error stays below 1e-3."""
        def ric(ts):
            a = np.where(ts < 0.5, 0.6, -0.2)
            b = np.where(ts < 0.25, 0.3, 0.8)
            return np.array([[a, np.zeros_like(ts)], [np.zeros_like(ts), b]])

        m = pg.synthetic_ricci_path(2, ric)
        g = TimeGrid.with_times(1.0, 512, ())
        steps = resolvent_on_grid(g, m, pg.CurvatureBounds(1.0, -0.5))
        int_a = 0.6 * 0.5 - 0.2 * 0.5
        int_b = 0.3 * 0.25 + 0.8 * 0.75
        want = np.diag(np.exp(-0.5 * np.array([int_a, int_b])))
        np.testing.assert_allclose(kernels.resolvent_column(steps, 0)[512], want, atol=1e-3)

    def test_cocycle(self, rng):
        m, cb = smooth_ricci(2, seed=11)
        g = TimeGrid.with_times(1.0, 512, ())
        tri = kernels.resolvent_triangle(resolvent_on_grid(g, m, cb))
        n = g.n_steps
        for _ in range(500):
            j = int(rng.integers(0, n))
            k = int(rng.integers(j, n + 1))
            i = int(rng.integers(k, n + 1))
            err = np.abs(tri[pair(i, j)] - tri[pair(i, k)] @ tri[pair(k, j)]).max()
            assert err <= 1e-9

    def test_norm_bound_all_pairs(self):
        m, cb = smooth_ricci(2, seed=13)
        g = TimeGrid.with_times(1.0, 256, ())
        steps = resolvent_on_grid(g, m, cb)
        idx_i, idx_j = np.tril_indices(g.n_steps + 1)
        norms = spectral_norms(kernels.resolvent_triangle(steps))
        bound = np.exp(-0.5 * cb.k2 * (g.times[idx_i] - g.times[idx_j]))
        assert np.all(norms <= bound + 1e-8)

    def test_declared_violation_raises(self):
        m, _ = smooth_ricci(2, seed=7)
        g = TimeGrid.with_times(1.0, 16, ())
        path = sample_path(m, g, 1)
        with pytest.raises(DataError):
            resolvent_on_grid(path.grid, m, pg.CurvatureBounds(0.01, 0.0))

    def test_traced_peak_is_linear_in_steps(self):
        """2,048 steps at d = 2: the grid holds the steps, not the 67 MB of all pairs."""
        m, cb = smooth_ricci(2, seed=5)
        g = TimeGrid.with_times(1.0, 2048, ())
        tracemalloc.start()
        try:
            steps = resolvent_on_grid(g, m, cb)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert steps.shape == (2048, 2, 2)
        assert peak <= 2e6

    def test_each_ricci_node_evaluated_once(self):
        """One callback call reads the 2n + 1 times, the nodes and then the
        midpoints, each once; its matrices give the steps bit for bit."""
        m, cb = smooth_ricci(2, seed=5)
        calls = []

        def counted(ts):
            calls.append(ts.copy())
            return m.ricci_path(ts)

        g = TimeGrid.with_times(1.0, 32, ())
        steps = resolvent_on_grid(g, pg.synthetic_ricci_path(2, counted), cb)
        mid_times = 0.5 * (g.times[:-1] + g.times[1:])
        assert len(calls) == 1 and np.unique(calls[0]).size == 2 * 32 + 1
        np.testing.assert_array_equal(calls[0], np.concatenate([g.times, mid_times]))
        nodes, mids = ricci_at_nodes(m, g), ricci_matrix(m, mid_times)
        np.testing.assert_array_equal(steps, kernels.resolvent_steps(nodes, mids, g.dts))

    def test_steps_are_the_rk4_steps(self):
        """Cell k's step is one classic RK4 step of dQ/dt = -1/2 A Q from Q = I,
        with A read at t_k, twice at the midpoint, and at t_{k+1}."""
        m, cb = smooth_ricci(2, seed=5)
        g = TimeGrid.with_times(1.0, 32, ())
        steps = resolvent_on_grid(g, m, cb)
        for step, t0, t1 in zip(steps, g.times, g.times[1:]):
            a0, a1, a2 = (-0.5 * ricci_matrix(m, t) for t in (t0, 0.5 * (t0 + t1), t1))
            h, q = t1 - t0, np.eye(2)
            k1 = a0 @ q
            k2 = a1 @ (q + 0.5 * h * k1)
            k3 = a1 @ (q + 0.5 * h * k2)
            k4 = a2 @ (q + h * k3)
            want = q + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            np.testing.assert_allclose(step, want, rtol=0, atol=1e-15)


class TestNonFiniteRicci:
    """A Ricci matrix that is not finite is refused by the first time it is
    read at, before eigvalsh and before any path is drawn: on 8 steps of
    [0, 1], NaN or inf after t = 0.5 first shows at the midpoint 0.5625."""

    @staticmethod
    def _poisoned(bad):
        def ric(ts):
            out = constant_ricci(0.3 * np.eye(2))(ts)
            out[0, 1, ts > 0.5] = bad
            return out

        return pg.synthetic_ricci_path(2, ric)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_resolvent_on_grid(self, bad):
        m = self._poisoned(bad)
        with pytest.raises(ValueError, match=r"^ricci_path is not finite at t = 0\.5625$"):
            resolvent_on_grid(TimeGrid.with_times(1.0, 8, ()), m, pg.CurvatureBounds(1.0, 0.0))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_verify_theorem1(self, monkeypatch, bad):
        def refuse_draws(*args, **kwargs):
            raise AssertionError("a path was drawn")

        monkeypatch.setattr(est, "batch_increments", refuse_draws)
        F = CylindricalFunctional(
            (0.25,), lambda x: x[:, 0, 0], lambda x: np.broadcast_to([1.0, 0.0], x.shape)
        )
        m = self._poisoned(bad)
        with pytest.raises(ValueError, match=r"^ricci_path is not finite at t = 0\.5625$"):
            est.verify_theorem1(m, pg.CurvatureBounds(1.0, 0.0), [F], 1.0, 8, 4, 1)


class TestConvergence:
    def test_rk4_order(self):
        """Refine-and-compare on oscillatory data: observed order about four."""
        m, cb = stiff_ricci()

        def q_final(n):
            g = TimeGrid.with_times(1.0, n, ())
            return kernels.resolvent_column(resolvent_on_grid(g, m, cb), 0)[-1]

        ref = q_final(16384)
        e_256 = np.abs(q_final(256) - ref).max()
        e_2048 = np.abs(q_final(2048) - ref).max()
        order = np.log(e_256 / e_2048) / np.log(2048 / 256)
        assert order >= 3.5

    def test_refinement_tightens_cocycle(self):
        m, cb = smooth_ricci(2, seed=29)

        def cocycle_err(n):
            g = TimeGrid.with_times(1.0, n, ())
            steps = resolvent_on_grid(g, m, cb)
            mid, end = n // 2, n
            from_0 = kernels.resolvent_column(steps, 0)
            from_mid = kernels.resolvent_column(steps, mid)
            return np.abs(from_0[end] - from_mid[end - mid] @ from_0[mid]).max()

        assert cocycle_err(512) <= max(cocycle_err(128) / 2.0, 5e-15)
