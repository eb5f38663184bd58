"""Monte-Carlo estimators: chi, inequality verifiers, entropy check, slope fit."""

import math
import sys
import tracemalloc
from contextlib import contextmanager

import numpy as np
import pytest

import pathgap as pg
from pathgap import estimators as est
from pathgap._backend import kernels
from pathgap.gradients import CylindricalFunctional, _pullback, resolvent_on_grid
from pathgap.cli import main
from pathgap.sampling import BLOCK, TimeGrid, batch_increments, sample_path, simulate_increments

from conftest import smooth_ricci
from reference import _damped_limits, frame_pullback_slots


def refuse_draws(*args, **kwargs):
    raise AssertionError("a path was drawn")


class TestEstimateChi:
    def test_flat_exact(self):
        rep = est.estimate_chi(pg.euclidean(3), np.array([1.0, 0, 0]), 0.5, 64, 500, 7)
        assert abs(rep.chi.mean - 1.0) <= 1e-12
        assert rep.chi.stderr == 0.0
        assert abs(rep.dirichlet.mean - 0.5) <= 1e-12
        assert rep.dirichlet.stderr == 0.0

    def test_sphere_first_order(self):
        """chi on the unit 3-sphere tracks 1 + (d-1) T / 2 at small T."""
        m = pg.sphere(3, 1.0)
        T = 0.02
        rep = est.estimate_chi(m, np.array([1.0, 0, 0]), T, 200, 20_000, 11)
        assert rep.predicted_first_order == pytest.approx(1.02)
        slack = 4.0 * rep.chi.stderr + 4.0 * T * T
        assert abs(rep.chi.mean - rep.predicted_first_order) <= slack

    def test_variance_tracks_horizon(self):
        m = pg.sphere(2, 1.0)
        T = 0.1
        rep = est.estimate_chi(m, np.array([1.0, 0.0]), T, 64, 20_000, 13)
        assert abs(rep.var_F.mean - T) <= 4.0 * rep.var_F.stderr

    def test_i_term_decomposition(self):
        """integral |field|^2 = integral |det|^2 + 2 integral <det, mart>
        + integral |mart|^2 per draw, the cross term has mean zero, and the
        numerator is the other two terms."""
        m = pg.sphere(3, 1.0)
        T, n_steps, seed = 0.05, 64, 17
        a = np.array([0.0, 1.0, 0.0])
        rep = est.estimate_chi(m, a, T, n_steps, 8000, seed)
        grid = TimeGrid.with_times(T, n_steps, ())
        inc = batch_increments(grid, m.dim, seed, range(4000))
        field = _linear_field_by_suffix_sums(inc, grid.times, a, m.kappa, m.ricci_scalar)
        det = a * (1.0 + 0.5 * m.ricci_scalar * (T - grid.times[:-1]))[:, None]
        mart = field - det

        def energy(u, v):
            return np.einsum("...kd,...kd,k->...", u, v, grid.dts)

        cross = 2.0 * energy(det, mart)
        np.testing.assert_allclose(
            energy(field, field), energy(det, det) + cross + energy(mart, mart), rtol=1e-12
        )
        assert np.std(cross) > 10.0 * np.std(energy(mart, mart))  # the noise it removes
        assert abs(np.mean(cross)) <= 4.0 * np.std(cross, ddof=1) / math.sqrt(cross.size)
        assert rep.dirichlet.mean == pytest.approx(
            energy(det, det) + np.mean(energy(mart, mart)), rel=1e-12
        )

    def test_seed_determinism(self):
        m = pg.sphere(2, 1.0)
        r1 = est.estimate_chi(m, np.array([1.0, 0.0]), 0.05, 64, 2000, 19)
        r2 = est.estimate_chi(m, np.array([1.0, 0.0]), 0.05, 64, 2000, 19)
        assert r1 == r2

    def test_threads_do_not_change_results(self, monkeypatch):
        m = pg.sphere(2, 1.0)
        monkeypatch.setattr(est, "_CHI_CHUNK", 512)
        r1 = est.estimate_chi(m, np.array([1.0, 0.0]), 0.05, 64, 4000, 19, threads=1)
        r2 = est.estimate_chi(m, np.array([1.0, 0.0]), 0.05, 64, 4000, 19, threads=4)
        assert r1 == r2

    def test_chunking_does_not_change_results(self, monkeypatch):
        m = pg.sphere(3, 1.0)
        a = np.array([0.0, 1.0, 0.0])
        args = (m, a, 0.02, 64, 5000, 29)
        monkeypatch.setattr(est, "_CHI_CHUNK", 512)
        many = est.estimate_chi(*args)
        monkeypatch.setattr(est, "_CHI_CHUNK", 1 << 20)
        one = est.estimate_chi(*args)
        assert many == one

    def test_too_few_draws_rejected(self):
        m = pg.sphere(2, 1.0)
        a = np.array([1.0, 0.0])
        with pytest.raises(ValueError, match="2 independent draws"):
            est.estimate_chi(m, a, 0.1, 8, 2, 3)
        rep = est.estimate_chi(m, a, 0.1, 8, 3, 3)  # rounded up to two mirrored pairs
        assert (rep.n_paths, rep.chi.n) == (4, 2)

    def test_unit_vector_required(self):
        with pytest.raises(ValueError):
            est.estimate_chi(pg.euclidean(2), np.array([1.0, 1.0]), 0.1, 32, 100, 3)


def _linear_field_by_suffix_sums(increments, times, a, kappa, ric_scalar):
    """Reference: the linear field, its martingale part built from suffix
    sums over the cells k >= K on (P, n, d) arrays."""
    P, n, d = increments.shape
    det = a * (1.0 + 0.5 * ric_scalar * (times[-1] - times[:-1]))[:, None]
    w = np.zeros((P, n + 1, d))
    np.cumsum(increments, axis=1, out=w[:, 1:])
    w_nodes = w[:, :n]
    wa = w_nodes @ a
    s_a = np.cumsum((wa[:, :, None] * increments)[:, ::-1], axis=1)[:, ::-1]
    s_c = np.cumsum(np.einsum("pkd,pkd->pk", w_nodes, increments)[:, ::-1], axis=1)[:, ::-1]
    ahead = w[:, -1:] - w_nodes
    scalar = s_c - np.einsum("pkd,pkd->pk", w_nodes, ahead)
    return det - kappa * (s_a - wa[:, :, None] * ahead - scalar[:, :, None] * a)


class TestChiLadder:
    """The ladder reads every rung's martingale energy from one set of prefix sums."""

    @pytest.mark.parametrize(
        "m", [pg.sphere(3, 1.0), pg.hyperbolic(2, -1.0)], ids=["sphere3", "hyperbolic2"]
    )
    def test_numerators_match_the_suffix_sum_field(self, m):
        """Per cell, det - kappa dt M from the prefix sums of the longest rung's
        normals is the reference field; per draw, the numerator is integral
        |det|^2 + integral |field - det|^2, on rungs of different dt; F is <a, w_T>."""
        a = np.zeros(m.dim)
        a[0], a[-1] = 0.8, 0.6
        rungs = [(0.005, 64), (0.01, 100)]
        seed, n_draws = 23, 150
        reports, x = est._chi_ladder(m, a, rungs, 2 * n_draws, seed, 1)
        z = batch_increments(TimeGrid.with_times(100, 100, ()), m.dim, seed, range(n_draws))
        sums = est._prefix_sums(z, a)
        for report, x_rung, (T, n) in zip(reports, x, rungs):
            grid = TimeGrid.with_times(T, n, ())
            inc = z[:, :n] * grid.sqrt_dts[:, None]
            field = _linear_field_by_suffix_sums(inc, grid.times, a, m.kappa, m.ricci_scalar)
            det = a * (1.0 + 0.5 * m.ricci_scalar * (T - grid.times[:-1]))[:, None]
            parts = np.stack(list(est._martingale(sums, a, n)), axis=-1).transpose(1, 0, 2)
            np.testing.assert_allclose(
                det - m.kappa * (T / n) * parts, field, rtol=0, atol=1e-14
            )
            mart = field - det
            want = np.einsum("kd,kd,k->", det, det, grid.dts)
            want = want + np.einsum("pkd,pkd,k->p", mart, mart, grid.dts)
            np.testing.assert_allclose(x_rung, want, rtol=1e-12)
            f = np.einsum("pkd,d->p", inc, a)
            assert report.var_F.mean == pytest.approx(np.mean(f * f), rel=1e-12)

    def test_flat_numerator_is_the_deterministic_energy(self, monkeypatch):
        """kappa = 0: no martingale sweep, and every draw's numerator is the
        deterministic energy |a|^2 T."""

        def refuse(*args):
            raise AssertionError("the flat ladder swept the martingale sums")

        monkeypatch.setattr(est, "_martingale", refuse)
        rungs = [(0.005, 64), (0.01, 100)]
        a = np.array([0.0, 0.6, 0.8])
        reports, x = est._chi_ladder(pg.euclidean(3), a, rungs, 300, 5, 1)
        for report, x_rung, (T, _) in zip(reports, x, rungs):
            assert np.all(x_rung == x_rung[0]) and x_rung[0] == pytest.approx(T, rel=1e-14)
            assert report.dirichlet.stderr == 0.0 and report.chi.stderr == 0.0

    def test_one_draw_chunks_change_nothing(self, monkeypatch):
        """A chunk of one draw sums its cells in the same order as a wide one.
        At T ~ 1 the martingale energy is a visible share of each numerator."""
        args = (pg.sphere(3, 2.0), np.array([0.0, 1.0, 0.0]), [(0.5, 64), (1.0, 100)], 42, 29, 1)
        monkeypatch.setattr(est, "_CHI_CHUNK", 1)
        one = est._chi_ladder(*args)
        monkeypatch.setattr(est, "_CHI_CHUNK", 64)
        wide = est._chi_ladder(*args)
        assert np.array_equal(one[1], wide[1]) and one[0] == wide[0]

    def test_normals_are_drawn_once_per_chunk(self, monkeypatch):
        """``perfbench/child.py`` times the first unit of work by patching
        ``estimators.batch_increments``: every chunk draws through that name,
        once for all rungs."""
        calls = []
        draw = est.batch_increments

        def counted(*args, **kwargs):
            calls.append(args)
            return draw(*args, **kwargs)

        monkeypatch.setattr(est, "batch_increments", counted)
        n_draws = 5 * est._CHI_CHUNK + 3
        est.small_time_slope(pg.sphere(2, 1.0), np.array([1.0, 0.0]), [0.01, 0.02, 0.03, 0.04],
                             2 * n_draws, 3)
        assert len(calls) == 6

    def test_every_chunk_draws_into_one_buffer(self, monkeypatch):
        """On one thread the call's workspace is allocated once: every chunk,
        the narrower last one too, draws its normals into the same memory."""
        outs = []  # kept alive, so no two allocations can share an id
        draw = est.batch_increments

        def recorded(*args, out=None, **kwargs):
            outs.append(out)
            return draw(*args, out=out, **kwargs)

        monkeypatch.setattr(est, "batch_increments", recorded)
        n_draws = 5 * est._CHI_CHUNK + 3
        est._chi_ladder(pg.sphere(2, 1.0), np.array([1.0, 0.0]), [(0.01, 16), (0.02, 32)],
                        2 * n_draws, 3, 1)
        assert len(outs) == 6
        assert len({id(out.base) for out in outs}) == 1

    def test_threads_keep_their_own_workspace(self, monkeypatch):
        """Four threads on 8-draw chunks, switching every microsecond, give the
        one-thread numerators bit for bit: no worker writes into another's buffers."""
        args = (pg.sphere(3, 2.0), np.array([0.0, 0.6, 0.8]), [(0.5, 64), (1.0, 100)], 406, 29)
        monkeypatch.setattr(est, "_CHI_CHUNK", 8)
        one = est._chi_ladder(*args, 1)
        with frequent_thread_switches():
            four = est._chi_ladder(*args, 4)
        assert np.array_equal(one[1], four[1]) and one[0] == four[0]

    def test_traced_peak_at_benchmark_size(self):
        """S^3, ladder 0.005-0.04 (400 steps at most), 8192 paths, one thread."""
        m = pg.sphere(3, 1.0)
        tracemalloc.start()
        try:
            rep = est.small_time_slope(m, np.array([1.0, 0.0, 0.0]), [0.005, 0.01, 0.02, 0.04],
                                       8192, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert abs(rep.slope.mean - rep.predicted_slope) <= 0.1
        assert peak <= 9e6


def expected_numerator(m, T, n):
    """Mean chi numerator on n uniform steps of constant curvature, |a| = 1.

    The left-point sum of h_k^2 dt, h_k = 1 + c (T - t_k)/2, plus the
    martingale energy kappa^2 (d - 1) dt^3 (n^3 - n)/3: the martingale terms
    are orthogonal, so E|M_k|^2 = (d - 1)(n - k)(n - k - 1).
    """
    dt = T / n
    h = 1.0 + 0.5 * m.ricci_scalar * (T - dt * np.arange(n))
    return float(np.sum(h * h) * dt) + m.kappa**2 * (m.dim - 1) * dt**3 * (n**3 - n) / 3.0


class TestChiOracle:
    """The chi numerator's mean is a closed form on model spaces: an oracle
    independent of the prefix sums, which catches a bias that the spread
    tests of ``TestCiCalibration`` cannot see."""

    @pytest.mark.parametrize(
        "m, rungs",
        [
            (pg.sphere(3, 1.0), [(0.02, 200), (0.04, 400)]),
            (pg.hyperbolic(2, -1.0), [(0.05, 64), (0.5, 128)]),
            (pg.sphere(2, 3.0), [(0.1, 100), (0.3, 64)]),
        ],
        ids=["sphere3", "hyperbolic2", "sphere2-kappa3"],
    )
    def test_rung_means_match_the_closed_form(self, m, rungs):
        a = np.zeros(m.dim)
        a[0] = 1.0
        _, x = est._chi_ladder(m, a, rungs, 2000, 3, 1)
        for x_rung, (T, n) in zip(x, rungs):
            stderr = np.std(x_rung, ddof=1) / math.sqrt(x_rung.size)
            assert abs(np.mean(x_rung) - expected_numerator(m, T, n)) <= 4.0 * stderr

    def test_readme_slope_matches_the_expected_fit(self):
        """The README ladder's expected slope is 1.0210118, not 1: +0.0071 from
        the T^2 term under the T^-4 weights, +0.0140 from the left-point sum."""
        m = pg.sphere(3, 1.0)
        ladder = [0.005, 0.01, 0.02, 0.04]
        rep = est.small_time_slope(m, np.array([1.0, 0.0, 0.0]), ladder, 300, 7)
        ts = np.array(ladder)
        means = np.array([expected_numerator(m, T, est.default_steps(T)) for T in ladder])
        expected = ts**-3 / np.sum(ts**-2) @ (means / ts - 1.0)
        assert expected == pytest.approx(1.0210118, abs=1e-7)
        assert abs(rep.slope.mean - expected) <= 4.0 * rep.slope.stderr


class TestVerifyTheorem1:
    def test_flat_equality(self):
        """Zero Ricci: both sides coincide and the violation is exactly zero."""
        m = pg.euclidean(2)
        family = est.random_two_point_family(m, 1.0, 3, seed=5)
        rep = est.verify_theorem1(m, pg.CurvatureBounds(0.0, 0.0), family, 1.0, 64, 50, 7)
        assert rep.satisfied_fraction == 1.0
        assert abs(rep.max_violation) <= 1e-12

    def test_flat_with_k1_far_above_k2(self):
        # a window with k1 / k2 = 5e5: the right-hand side weights must not
        # lose their digits to cancellation near k2 = 0
        m = pg.euclidean(2)
        family = est.random_two_point_family(m, 1.0, 4, seed=3)
        rep = est.verify_theorem1(m, pg.CurvatureBounds(1.0, 2e-6), family, 1.0, 32, 50, 3)
        assert rep.satisfied_fraction == 1.0
        assert rep.max_violation <= 1e-8

    def test_sphere(self):
        m = pg.sphere(2, 1.0)
        family = est.random_two_point_family(m, 1.0, 5, seed=5)
        rep = est.verify_theorem1(m, m.curvature_window, family, 1.0, 128, 200, 7)
        assert rep.satisfied_fraction == 1.0
        assert rep.max_violation <= 1e-8

    def test_hyperbolic(self):
        m = pg.hyperbolic(2, -1.0)
        family = est.random_two_point_family(m, 1.0, 5, seed=9)
        rep = est.verify_theorem1(m, m.curvature_window, family, 1.0, 128, 200, 11)
        assert rep.satisfied_fraction == 1.0
        assert rep.max_violation <= 1e-8

    def test_hyperbolic_equality_case(self):
        """Single slot at the full horizon saturates the comparison exactly."""
        m = pg.hyperbolic(2, -1.0)
        from pathgap.geometry import _project_tangent

        b = np.array([0.0, 0.7, -0.4])
        g = m.metric_diag()
        F = CylindricalFunctional(
            (1.0,),
            lambda pos: pos[:, 0] @ (b * g),
            lambda pos: _project_tangent(m, pos, b),
        )
        rep = est.verify_theorem1(m, m.curvature_window, [F], 1.0, 64, 100, 13)
        assert rep.satisfied_fraction == 1.0
        assert abs(rep.max_violation) <= 1e-12

    @pytest.mark.parametrize("k2,fails", [(-1.0, False), (-0.99, True)])
    def test_hyperbolic_negative_control(self, k2, fails):
        """A window that excludes the true Ricci -1 makes the check fail.

        Constant curvature never checks the declared window, so a k2 raised
        by 1% runs, and its bound is too tight for some path.
        """
        m = pg.hyperbolic(2, -1.0)
        family = est.random_two_point_family(m, 1.0, 10, seed=7)
        rep = est.verify_theorem1(m, pg.CurvatureBounds(1.0, k2), family, 1.0, 128, 1000, 7)
        if fails:
            assert rep.max_violation > 1e-4 and rep.satisfied_fraction < 1.0
        else:
            assert rep.max_violation < 0.0 and rep.satisfied_fraction == 1.0

    def test_synthetic_nonsymmetric(self):
        m, cb = smooth_ricci(2, seed=43)
        family = est.random_two_point_family(m, 1.0, 5, seed=3)
        rep = est.verify_theorem1(m, cb, family, 1.0, 128, 100, 17)
        assert rep.satisfied_fraction == 1.0
        assert rep.max_violation <= 1e-8

    def test_no_paths_rejected_before_any_draw(self, monkeypatch):
        monkeypatch.setattr(est, "batch_increments", refuse_draws)
        m = pg.sphere(2, 1.0)
        family = est.random_two_point_family(m, 1.0, 2, seed=3)
        with pytest.raises(ValueError, match="at least 1 path"):
            est.verify_theorem1(m, m.curvature_window, family, 1.0, 16, 0, 1)

    @pytest.mark.parametrize("threads", [0, -3])
    def test_no_threads_rejected_before_any_draw(self, monkeypatch, threads):
        monkeypatch.setattr(est, "batch_increments", refuse_draws)
        m = pg.sphere(2, 1.0)
        a = np.array([1.0, 0.0])
        family = est.random_two_point_family(m, 1.0, 2, seed=3)
        F = est.exponential_functional(m, np.array([0.0, 0.6, 0.8]), 0.5)
        runs = [
            lambda: est.estimate_chi(m, a, 0.1, 8, 10, 1, threads=threads),
            lambda: est.small_time_slope(m, a, [0.01, 0.02, 0.03, 0.04], 10, 1, threads),
            lambda: est.verify_theorem1(m, m.curvature_window, family, 1.0, 16, 5, 1, threads),
            lambda: est.verify_lsi(m, F, 0.5, 16, 5, 1, threads=threads),
        ]
        for run in runs:
            with pytest.raises(ValueError, match="at least 1 worker thread"):
                run()

    def test_no_functionals_rejected_before_any_draw(self, monkeypatch):
        monkeypatch.setattr(est, "batch_increments", refuse_draws)
        m, cb = smooth_ricci(2, seed=43)
        with pytest.raises(ValueError, match="at least 1 functional"):
            est.verify_theorem1(m, cb, [], 1.0, 16, 10, 1)

    def test_synthetic_never_builds_the_triangle(self, monkeypatch):
        def no_triangle(*args):
            raise AssertionError("verify_theorem1 built the propagator triangle")

        monkeypatch.setattr(kernels, "resolvent_triangle", no_triangle)
        m, cb = smooth_ricci(2, seed=43)
        family = est.random_two_point_family(m, 1.0, 5, seed=3)
        rep = est.verify_theorem1(m, cb, family, 1.0, 128, 20, 17)
        assert rep.n_paths == 20 and rep.satisfied_fraction == 1.0

    def test_synthetic_traced_peak_at_benchmark_size(self):
        """d = 2, 1,024 steps, 200 paths, 10 functionals: the triangle alone would be 17.5 MB."""
        m, cb = smooth_ricci(2, seed=43)
        family = est.random_two_point_family(m, 1.0, 10, seed=3)
        tracemalloc.start()
        try:
            rep = est.verify_theorem1(m, cb, family, 1.0, 1024, 200, 17)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rep.satisfied_fraction == 1.0
        assert peak <= 12e6

    @pytest.mark.parametrize("d,seed", [(2, 43), (3, 19)])
    def test_damped_energy_weights_match_per_path_trapezoid(self, d, seed):
        """The weight form of the trapezoid damped energy equals the per-path sum.

        The weights of all distinct slots come from one product, and each
        functional takes its block.  The functionals share the slot at
        t = 0.25, three reach t = T and one starts at t = 0.
        """
        m, cb = smooth_ricci(d, seed=seed)
        b = np.random.default_rng(seed).normal(size=(3, d))

        def functional(ts):
            def slot_gradients(pos):
                return np.stack(
                    [np.sin(pos[:, j] @ b[j % 3])[:, None] * b[(j + 1) % 3] + pos[:, j]
                     for j in range(len(ts))],
                    axis=1,
                )

            return CylindricalFunctional(ts, lambda pos: pos[:, 0, 0], slot_gradients)

        family = [
            functional(ts)
            for ts in [(0.25, 0.75), (0.25, 1.0), (1.0,), (0.125, 0.5, 1.0), (0.0, 0.5)]
        ]
        grid = TimeGrid.with_times(1.0, 64, ())
        R = resolvent_on_grid(grid, m, cb)
        slot_times = sorted({t for F in family for t in F.eval_times})
        slot_idx = np.array([grid.index_of(t) for t in slot_times])
        weights = est._damped_weights(grid, slot_idx, R.steps)
        pos, frames = simulate_increments(m, grid, batch_increments(grid, d, seed, range(20)))
        for F in family:
            idx = np.array([grid.index_of(t) for t in F.eval_times])
            sel = np.array([slot_times.index(t) for t in F.eval_times])
            slots = _pullback(F, pos[:, idx], frames[:, idx], m.metric_diag())
            got = est._damped_energy_trapezoid(weights[np.ix_(sel, sel)], slots)
            want = []
            for s in slots:
                left, right = _damped_limits(idx, s, R)
                want.append(0.5 * np.sum(grid.dts * (np.sum(left**2, 1) + np.sum(right**2, 1))))
            np.testing.assert_allclose(got, want, rtol=1e-13, atol=0)


class TestDampedEnergyPairwise:
    def test_weights_match_the_product_form_and_stay_bounded(self):
        ts = np.array([0.1, 0.3, 0.5])
        gram = np.ones((1, 3, 3))
        c = 3.0
        product = np.exp(-0.5 * c * np.add.outer(ts, ts)) * np.expm1(c * np.minimum.outer(ts, ts))
        np.testing.assert_allclose(
            est.damped_energy_pairwise(ts, gram, c), [np.sum(product) / c], rtol=1e-14
        )
        # e^{c t} overflows at c = 1e4; each diagonal weight is (1 - e^{-c t_j}) / c
        c = 1e4
        with np.errstate(over="raise"):
            energy = est.damped_energy_pairwise(ts, gram, c)
        assert energy[0] == pytest.approx(3.0 / c, rel=1e-14)

    @pytest.mark.parametrize("c", [0.1, 1.0, 10.0, 100.0, -0.1])
    def test_damped_weights_stay_below_the_brownian_covariance(self, c):
        """For c >= 0, min(t_j, t_k) - K^d is positive semidefinite: the damped
        energy never exceeds the usual one, whatever the slot vectors.  The
        weights K^d are read off by feeding unit Gram matrices.  At c < 0 it
        fails, which is where the pathwise check has power."""
        rng = np.random.default_rng(8)
        worst = math.inf
        for _ in range(200):
            n = int(rng.integers(1, 13))
            ts = np.sort(rng.uniform(0.0, 10.0 ** rng.uniform(-1.0, 1.0), n))
            units = np.eye(n * n).reshape(n * n, n, n)
            kd = est.damped_energy_pairwise(ts, units, c).reshape(n, n)
            ku = np.minimum.outer(ts, ts)
            worst = min(worst, np.linalg.eigvalsh(ku - kd)[0] / np.linalg.eigvalsh(ku)[-1])
        if c > 0:
            assert worst >= -1e-8
        else:
            assert worst < -1e-2


class TestVerifyLsi:
    def test_constant_functional(self):
        m = pg.sphere(2, 1.0)
        F = est.exponential_functional(m, np.zeros(3), 0.5)
        rep = est.verify_lsi(m, F, 0.5, 64, 500, 3)
        assert rep.entropy == pytest.approx(0.0, abs=1e-12)
        assert rep.dirichlet_twice == pytest.approx(0.0, abs=1e-12)
        assert not rep.violated

    def test_flat_truncated_exponential_vs_oracle(self):
        """Gaussian closed forms for the clipped-exponential functional."""
        b = np.array([0.8, -0.6])
        T, cap = 0.5, 1.5
        m = pg.euclidean(2)
        F = est.truncated_exponential_functional(b, T, cap)
        rep = est.verify_lsi(m, F, T, 64, 20_000, 31)

        # oracle: x = <b, w_T> ~ N(0, s2); closed-form tilted moments
        s2 = float(b @ b) * T
        s = math.sqrt(s2)
        Phi = lambda x: 0.5 * (1.0 + math.erf(x / math.sqrt(2)))
        phi = lambda x: math.exp(-x * x / 2) / math.sqrt(2 * math.pi)
        lo, hi = (-cap - 2 * s2) / s, (cap - 2 * s2) / s
        e_in = math.exp(2 * s2) * (Phi(hi) - Phi(lo))
        e_f2 = e_in + math.exp(2 * cap) * (1 - Phi(cap / s)) + math.exp(-2 * cap) * Phi(-cap / s)
        ex = 2 * s2 * (Phi(hi) - Phi(lo)) - s * (phi(hi) - phi(lo))
        e_f2log = (
            math.exp(2 * s2) * 2 * ex
            + 2 * cap * math.exp(2 * cap) * (1 - Phi(cap / s))
            - 2 * cap * math.exp(-2 * cap) * Phi(-cap / s)
        )
        entropy = e_f2log - e_f2 * math.log(e_f2)
        dirichlet_twice = 2 * float(b @ b) * T * e_in

        assert not rep.violated
        assert rep.gap == pytest.approx(dirichlet_twice - entropy, abs=5.0 * rep.gap_stderr)
        assert rep.dirichlet_twice == pytest.approx(dirichlet_twice, rel=0.05)
        assert rep.entropy == pytest.approx(entropy, rel=0.05)

    def test_sphere_positive_functional(self):
        m = pg.sphere(2, 1.0)
        F = est.exponential_functional(m, np.array([0.4, -0.3, 0.5]), 0.5)
        rep = est.verify_lsi(m, F, 0.5, 64, 10_000, 37)
        assert not rep.violated
        assert rep.gap > 0.0  # strict gap expected away from the equality family

    @pytest.mark.parametrize("damped", [True, False])
    def test_hyperbolic_negative_control(self, monkeypatch, damped):
        """Undamped weights (c = 0) make the check fail on H^2.

        For F = e^{eps G}, Ent(F^2) ~ 2 eps^2 Var G and the undamped side is
        2 eps^2 E integral |DG|^2, so the undamped check fails when G's
        Rayleigh quotient is below 1, as it is for <b, x_T> on H^2.
        """
        if not damped:
            pairwise = est.damped_energy_pairwise
            monkeypatch.setattr(
                est, "damped_energy_pairwise", lambda ts, gram, c: pairwise(ts, gram, 0.0)
            )
        m = pg.hyperbolic(2, -1.0)
        F = est.truncated_exponential_functional(np.array([0.0, 0.05, 0.0]), 0.5, cap=50)
        rep = est.verify_lsi(m, F, 0.5, 128, 20_000, 7)
        if damped:
            assert not rep.violated and rep.gap > 30.0 * rep.gap_stderr  # +1.32e-3 +- 3.9e-5
        else:
            assert rep.violated  # -3.32e-4 +- 5.9e-5
        assert rep.gap == pytest.approx(1.32e-3 if damped else -3.32e-4, rel=0.01)

    def test_seed_determinism(self):
        m = pg.euclidean(2)
        F = est.truncated_exponential_functional(np.array([1.0, 0.0]), 0.3, 1.0)
        r1 = est.verify_lsi(m, F, 0.3, 32, 500, 41)
        r2 = est.verify_lsi(m, F, 0.3, 32, 500, 41)
        assert r1 == r2


GEOMETRIES = {
    "euclidean": pg.euclidean(3),
    "sphere": pg.sphere(2, 1.0),
    "hyperbolic": pg.hyperbolic(2, -1.0),
}


def factory_functionals(m):
    """One functional of each factory; the cap clips part of the paths."""
    b = np.random.default_rng(5).normal(size=m.ambient_dim)
    return {
        "two_point": est.random_two_point_family(m, 1.0, 1, seed=19)[0],
        "exponential": est.exponential_functional(m, b, 0.6),
        "truncated": est.truncated_exponential_functional(b, 0.6, cap=0.4),
    }


@contextmanager
def frequent_thread_switches():
    """Switch threads every microsecond, so chunks interleave as much as they can."""
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        yield
    finally:
        sys.setswitchinterval(old)


class TestBatchedContract:
    @pytest.mark.parametrize("kind", sorted(GEOMETRIES))
    def test_batched_rows_equal_single_path_calls(self, kind):
        m = GEOMETRIES[kind]
        for name, F in factory_functionals(m).items():
            grid = TimeGrid.with_times(1.0, 16, list(F.eval_times))
            idx = [grid.index_of(t) for t in F.eval_times]
            inc = batch_increments(grid, m.dim, 23, range(32))
            pos = simulate_increments(m, grid, inc, record=np.array(idx))[0]
            values = F.value(pos)
            grads = F.slot_gradients(pos)
            assert values.shape == (32,) and grads.shape == pos.shape, name
            if name == "truncated":  # both sides of the cap are exercised
                assert 0 < np.count_nonzero(grads) < grads.size, name
            for p in range(32):
                np.testing.assert_array_equal(F.value(pos[p : p + 1]), values[p : p + 1])
                np.testing.assert_array_equal(F.slot_gradients(pos[p : p + 1]), grads[p : p + 1])

    @pytest.mark.parametrize("kind", ["sphere", "synthetic"])
    def test_theorem1_report_does_not_depend_on_chunk(self, kind, monkeypatch):
        if kind == "synthetic":
            m, cb = smooth_ricci(2, seed=43)
        else:
            m = GEOMETRIES[kind]
            cb = m.curvature_window
        family = est.random_two_point_family(m, 1.0, 3, seed=3)
        monkeypatch.setattr(est, "_THEOREM1_CHUNK", 1024)
        wide = est.verify_theorem1(m, cb, family, 1.0, 32, 30, 5)
        monkeypatch.setattr(est, "_THEOREM1_CHUNK", 7)
        narrow = est.verify_theorem1(m, cb, family, 1.0, 32, 30, 5)
        with frequent_thread_switches():
            threaded = est.verify_theorem1(m, cb, family, 1.0, 32, 30, 5, threads=4)
        assert narrow == wide == threaded

    def test_lsi_report_does_not_depend_on_chunk(self, monkeypatch):
        m = GEOMETRIES["sphere"]
        F = est.exponential_functional(m, np.array([0.4, -0.3, 0.5]), 0.5)
        monkeypatch.setattr(est, "_LSI_CHUNK", 4096)
        wide = est.verify_lsi(m, F, 0.5, 32, 40, 37)
        monkeypatch.setattr(est, "_LSI_CHUNK", 7)
        narrow = est.verify_lsi(m, F, 0.5, 32, 40, 37)
        with frequent_thread_switches():
            threaded = est.verify_lsi(m, F, 0.5, 32, 40, 37, threads=4)
        assert narrow == wide == threaded

    @pytest.mark.parametrize(
        "n, chunk",
        [(10_000, 4096), (9_000, 4096), (1_000, 1024), (1_025, 1024), (323, 64), (406, 8), (42, 1)],
    )
    def test_chunks_split_evenly_in_whole_blocks(self, n, chunk):
        """ceil(n / chunk) contiguous chunks, none wider than ``chunk``, all but
        the last of one width in whole blocks (a sub-block chunk is kept as given)."""
        ranges = est._chunk_ranges(n, chunk)
        widths = [hi - lo for lo, hi in ranges]
        assert len(ranges) == -(-n // chunk)
        assert ranges[0][0] == 0 and ranges[-1][1] == n
        assert all(a[1] == b[0] for a, b in zip(ranges, ranges[1:]))
        assert max(widths) <= chunk and len(set(widths[:-1])) <= 1
        if chunk >= BLOCK:
            assert all(w % BLOCK == 0 for w in widths[:-1])

    def test_readme_lsi_run_draws_three_even_chunks(self, monkeypatch, capsys):
        """The README lsi run's 10,000 paths draw 3,392 + 3,392 + 3,216, not
        4,096 + 4,096 + 1,808: the widest increment buffer shrinks."""
        sizes = []
        draw = est.batch_increments

        def counted(*args, **kwargs):
            sizes.append(len(args[3]))
            return draw(*args, **kwargs)

        monkeypatch.setattr(est, "batch_increments", counted)
        argv = ["simulate", "--manifold", "sphere", "--dim", "2", "--kappa", "1.0", "--T", "0.5",
                "--steps", "64", "--paths", "10000", "--seed", "7", "--mode", "lsi"]
        assert main(argv) == 0
        capsys.readouterr()
        assert sizes == [3392, 3392, 3216]

    def test_wrong_gradient_shape_rejected(self):
        m = GEOMETRIES["sphere"]
        F = est.exponential_functional(m, np.array([0.4, -0.3, 0.5]), 0.5)
        one_path = CylindricalFunctional(F.eval_times, F.value, lambda pos: F.slot_gradients(pos)[0])
        with pytest.raises(ValueError, match="slot_gradients"):
            est.verify_theorem1(m, m.curvature_window, [one_path], 1.0, 16, 5, 1)
        with pytest.raises(ValueError, match="slot_gradients"):
            est.verify_lsi(m, one_path, 0.5, 16, 5, 1)
        path = sample_path(m, TimeGrid.with_times(1.0, 16, [0.5]), 1)
        with pytest.raises(ValueError, match="slot_gradients"):
            frame_pullback_slots(one_path, path, m)

    def test_wrong_value_shape_rejected(self):
        m = GEOMETRIES["sphere"]
        F = est.exponential_functional(m, np.array([0.4, -0.3, 0.5]), 0.5)
        scalar = CylindricalFunctional(F.eval_times, lambda pos: F.value(pos)[0], F.slot_gradients)
        with pytest.raises(ValueError, match="value"):
            est.verify_lsi(m, scalar, 0.5, 16, 5, 1)


class TestSmallTimeSlope:
    def test_flat_zero_slope(self):
        rep = est.small_time_slope(
            pg.euclidean(3), np.array([1.0, 0, 0]), [0.005, 0.01, 0.02, 0.04], 500, 3
        )
        assert rep.slope.mean == 0.0
        assert rep.slope.stderr == 0.0
        assert rep.predicted_slope == 0.0

    def test_sphere_slope(self):
        rep = est.small_time_slope(
            pg.sphere(3, 1.0), np.array([0.0, 1.0, 0.0]), [0.005, 0.01, 0.02, 0.04], 20_000, 5
        )
        assert rep.predicted_slope == pytest.approx(1.0)
        assert abs(rep.slope.mean - 1.0) <= 0.1

    def test_hyperbolic_slope(self):
        rep = est.small_time_slope(
            pg.hyperbolic(2, -1.0), np.array([1.0, 0.0]), [0.005, 0.01, 0.02, 0.04], 20_000, 5
        )
        assert rep.predicted_slope == pytest.approx(-0.5)
        assert abs(rep.slope.mean + 0.5) <= 0.05

    def test_points_are_single_horizon_estimates(self):
        """Each rung reuses a prefix of the longest rung's normals; the
        points equal the stand-alone estimates exactly."""
        m = pg.sphere(2, 1.0)
        a = np.array([0.6, 0.8])
        ladder = [0.005, 0.01, 0.02, 0.04]
        rep = est.small_time_slope(m, a, ladder, 1001, 31)
        for point, T in zip(rep.points, ladder):
            assert point == est.estimate_chi(m, a, T, est.default_steps(T), 1001, 31)

    def test_ladder_length_enforced(self):
        with pytest.raises(ValueError):
            est.small_time_slope(pg.euclidean(2), np.array([1.0, 0]), [0.01, 0.02], 100, 3)


class TestCiCalibration:
    def test_flat_variance_ci_coverage(self):
        """95% CI of the sample variance covers Var(F) = T in >= 90 of 100 runs."""
        m = pg.euclidean(2)
        a = np.array([1.0, 0.0])
        T = 0.3
        covered = 0
        for rep_idx in range(100):
            rep = est.estimate_chi(m, a, T, 16, 800, seed=1000 + rep_idx)  # 400 draws
            lo, hi = rep.var_F.ci()
            covered += lo <= T <= hi
        assert covered >= 90

    @pytest.mark.parametrize(
        "m", [pg.sphere(3, 1.0), pg.hyperbolic(2, -1.0)], ids=["sphere3", "hyperbolic2"]
    )
    def test_slope_stderr_matches_the_spread_across_seeds(self, m):
        """Across 200 seeds, the SD of the fitted slope over the RMS of its
        reported stderr lies in [0.85, 1.18], and so does that of one rung's
        chi.  The ladder is shorter than the README's to keep the panel fast."""
        a = np.zeros(m.dim)
        a[0] = 1.0
        reps = [
            est.small_time_slope(m, a, [0.0025, 0.005, 0.0075, 0.01], 300, 5000 + s)
            for s in range(200)
        ]
        for estimates in ([r.slope for r in reps], [r.points[-1].chi for r in reps]):
            means = np.array([e.mean for e in estimates])
            stderrs = np.array([e.stderr for e in estimates])
            ratio = np.std(means, ddof=1) / math.sqrt(np.mean(stderrs**2))
            assert 0.85 <= ratio <= 1.18
