"""Gradient machinery: pullbacks, damping, transforms, the linear functional."""

import math

import numpy as np
import pytest

import pathgap as pg
from pathgap.geometry import _project_tangent
from pathgap.gradients import (
    CylindricalFunctional,
    GradientField,
    correlated_norm,
    damped_gradient,
    damped_gradient_integral_form,
    duality_defect,
    field_energy,
    field_l2_distance,
    linear_functional_gradient,
    linear_gradient_batch,
    resolvent_on_grid,
    transform_pair,
    usual_gradient,
)
from pathgap.sampling import TimeGrid, batch_increments, sample_path

from conftest import smooth_ricci


def linear_functional(m, ts, bs):
    """F = sum_j <b_j, x_{t_j}> with tangent-projected slot gradients (batched contract)."""
    bs = np.asarray(bs, dtype=float).reshape(len(ts), -1)
    return CylindricalFunctional(
        tuple(ts),
        lambda pos: np.einsum("pja,ja->p", pos, bs),
        lambda pos: np.broadcast_to(_project_tangent(m, pos, bs), pos.shape),
    )


def linear_flat_functional(a, t_eval):
    return linear_functional(pg.euclidean(len(a)), (t_eval,), [a])


def constant_functional(dim, t_eval):
    return CylindricalFunctional(
        (t_eval,), lambda pos: np.ones(pos.shape[0]), lambda pos: np.zeros(pos.shape)
    )


class TestUsualGradient:
    def test_single_slot_indicator(self):
        m = pg.euclidean(2)
        g = TimeGrid.with_times(1.0, 32, ())
        path = sample_path(m, g, 3)
        a = np.array([0.6, 0.8])
        F = linear_flat_functional(a, 0.5)
        field = usual_gradient(F, path, m)
        k_half = g.index_of(0.5)
        np.testing.assert_allclose(
            field.values[:k_half], np.broadcast_to(a, (k_half, 2)), atol=1e-14
        )
        np.testing.assert_array_equal(field.values[k_half:], 0.0)

    def test_constant_functional_zero_field(self):
        m = pg.sphere(2, 1.0)
        g = TimeGrid.with_times(1.0, 16, ())
        path = sample_path(m, g, 5)
        field = usual_gradient(constant_functional(3, 0.5), path, m)
        np.testing.assert_array_equal(field.values, 0.0)

    def test_frame_pullback_isometry(self):
        """|u^{-1} grad| matches the ambient-metric length of the gradient."""
        m = pg.sphere(2, 1.0)
        g = TimeGrid.with_times(1.0, 16, ())
        path = sample_path(m, g, 5)
        b = np.array([0.3, -0.2, 0.9])
        F = linear_functional(m, (0.5,), [b])
        field = usual_gradient(F, path, m)
        i = g.index_of(0.5)
        grad_amb = _project_tangent(m, path.positions[i], b)
        assert np.linalg.norm(field.values[0]) == pytest.approx(
            np.linalg.norm(grad_amb), rel=1e-10
        )


class TestCorrelatedNorm:
    def test_single_slot(self):
        m = pg.euclidean(2)
        g = TimeGrid.with_times(1.0, 16, ())
        path = sample_path(m, g, 3)
        a = np.array([1.0, 2.0])
        F = linear_flat_functional(a, 0.75)
        assert correlated_norm(F, path, m) == pytest.approx(0.75 * 5.0, rel=1e-14)

    def test_matches_field_energy(self, rng):
        m = pg.sphere(2, 1.0)
        g = TimeGrid.with_times(1.0, 64, [0.3, 0.7])
        path = sample_path(m, g, 9)
        b1, b2 = rng.normal(size=3), rng.normal(size=3)
        F = linear_functional(m, (0.3, 0.7), [b1, b2])
        field = usual_gradient(F, path, m)
        assert correlated_norm(F, path, m) == pytest.approx(field_energy(field), rel=1e-10)

    def test_constant_zero(self):
        m = pg.euclidean(3)
        g = TimeGrid.with_times(1.0, 8, ())
        path = sample_path(m, g, 3)
        assert correlated_norm(constant_functional(3, 0.5), path, m) == 0.0


class TestDampedGradient:
    def test_flat_equals_usual(self):
        m = pg.euclidean(2)
        g = TimeGrid.with_times(1.0, 32, ())
        path = sample_path(m, g, 3)
        R = resolvent_on_grid(path.grid, m, pg.CurvatureBounds(0.0, 0.0))
        F = linear_flat_functional(np.array([1.0, -1.0]), 0.5)
        du = usual_gradient(F, path, m)
        dd = damped_gradient(F, path, R, m)
        np.testing.assert_array_equal(du.values, dd.values)

    def test_scalar_damping_factor(self):
        m = pg.sphere(2, 1.0)  # ricci scalar 1
        g = TimeGrid.with_times(1.0, 32, ())
        path = sample_path(m, g, 7)
        R = resolvent_on_grid(path.grid, m, m.curvature_window)
        b = np.array([0.2, -0.4, 0.1])
        F = linear_functional(m, (0.5,), [b])
        du = usual_gradient(F, path, m)
        dd = damped_gradient(F, path, R, m)
        j = g.index_of(0.5)
        decay = np.exp(-0.5 * (g.times[j] - g.times[:j]))
        np.testing.assert_allclose(dd.values[:j], decay[:, None] * du.values[:j], rtol=1e-12)

    @pytest.mark.parametrize("n,budget", [(1024, 1e-6)])
    def test_two_formulas_agree(self, n, budget):
        m, cb = smooth_ricci(2, seed=31, amplitude=0.8)
        g = TimeGrid.with_times(1.0, n, [0.35, 0.8])
        path = sample_path(m, g, 11)
        R = resolvent_on_grid(path.grid, m, cb)
        rng = np.random.default_rng(4)
        b1, b2 = rng.normal(size=2), rng.normal(size=2)
        F = linear_functional(m, (0.35, 0.8), [b1, b2])
        d22 = damped_gradient(F, path, R, m)
        d28 = damped_gradient_integral_form(F, path, R, m)
        assert field_l2_distance(d22, d28) <= budget

    def test_two_formulas_agree_on_sphere(self):
        """Scalar damping: the two damped-gradient formulas track each other."""
        m = pg.sphere(2, 1.0)
        g = TimeGrid.with_times(1.0, 1024, [0.35, 0.8])
        path = sample_path(m, g, 11)
        R = resolvent_on_grid(path.grid, m, m.curvature_window)
        rng = np.random.default_rng(6)
        b1, b2 = rng.normal(size=3), rng.normal(size=3)
        F = linear_functional(m, (0.35, 0.8), [b1, b2])
        d22 = damped_gradient(F, path, R, m)
        d28 = damped_gradient_integral_form(F, path, R, m)
        assert field_l2_distance(d22, d28) <= 1e-6

    def test_two_formulas_refinement(self):
        m, cb = smooth_ricci(2, seed=31, amplitude=0.8)
        rng = np.random.default_rng(4)
        b1, b2 = rng.normal(size=2), rng.normal(size=2)
        F = linear_functional(m, (0.375, 0.75), [b1, b2])

        def defect(n):
            g = TimeGrid.with_times(1.0, n, ())  # eval times are multiples of 1/8
            path = sample_path(m, g, 11)
            R = resolvent_on_grid(path.grid, m, cb)
            return field_l2_distance(
                damped_gradient(F, path, R, m),
                damped_gradient_integral_form(F, path, R, m),
            )

        d512, d1024 = defect(512), defect(1024)
        assert d1024 <= d512 / 1.8


class TestTransformPair:
    def test_flat_identity(self):
        m = pg.euclidean(2)
        g = TimeGrid.with_times(1.0, 16, ())
        path = sample_path(m, g, 3)
        R = resolvent_on_grid(path.grid, m, pg.CurvatureBounds(0.0, 0.0))
        v = GradientField(g, np.random.default_rng(0).normal(size=(16, 2)))
        tld, hat = transform_pair(v, path, R, m)
        np.testing.assert_array_equal(tld.values, v.values)
        np.testing.assert_array_equal(hat.values, v.values)

    def test_roundtrip(self):
        m, cb = smooth_ricci(2, seed=37, amplitude=0.5)
        g = TimeGrid.with_times(1.0, 1024, ())
        path = sample_path(m, g, 13)
        R = resolvent_on_grid(path.grid, m, cb)
        v = GradientField(g, np.random.default_rng(1).normal(size=(1024, 2)))
        tld, hat = transform_pair(v, path, R, m)
        _, hat_of_tilde = transform_pair(tld, path, R, m)
        tilde_of_hat, _ = transform_pair(hat, path, R, m)
        assert field_l2_distance(hat_of_tilde, v) <= 1e-6
        assert field_l2_distance(tilde_of_hat, v) <= 1e-6

    def test_roundtrip_scalar_mode_refines(self):
        """Unit-rate scalar damping: defect halves per refinement level."""
        m = pg.hyperbolic(2, -1.0)
        v_base = np.random.default_rng(2).normal(size=(512, 2))

        def defect(n, reps):
            g = TimeGrid.with_times(1.0, n, ())
            path = sample_path(m, g, 13)
            R = resolvent_on_grid(path.grid, m, m.curvature_window)
            v = GradientField(g, np.repeat(v_base, reps, axis=0))
            tld, _ = transform_pair(v, path, R, m)
            _, hat_of_tilde = transform_pair(tld, path, R, m)
            return field_l2_distance(hat_of_tilde, v)

        d512, d1024 = defect(512, 1), defect(1024, 2)
        assert d1024 <= 1e-5
        assert d1024 <= d512 / 1.8

    def test_duality(self):
        m, cb = smooth_ricci(2, seed=41, amplitude=0.8)
        g = TimeGrid.with_times(1.0, 1024, [0.3, 0.65])
        path = sample_path(m, g, 17)
        R = resolvent_on_grid(path.grid, m, cb)
        rng = np.random.default_rng(3)
        b1, b2 = rng.normal(size=2), rng.normal(size=2)
        F = linear_functional(m, (0.3, 0.65), [b1, b2])
        v = GradientField(g, rng.normal(size=(g.n_steps, 2)))
        assert duality_defect(F, v, path, R, m) <= 1e-6


class TestLinearFunctionalGradient:
    def test_flat_constant_field(self):
        m = pg.euclidean(3)
        g = TimeGrid.with_times(0.5, 32, ())
        path = sample_path(m, g, 3)
        a = np.array([0.0, 0.6, 0.8])
        field = linear_functional_gradient(a, path, m)
        np.testing.assert_allclose(field.values, np.broadcast_to(a, (32, 3)), atol=1e-14)

    def test_unit_vector_required(self):
        m = pg.euclidean(2)
        g = TimeGrid.with_times(0.5, 8, ())
        path = sample_path(m, g, 3)
        with pytest.raises(ValueError):
            linear_functional_gradient(np.array([1.0, 1.0]), path, m)

    def test_deterministic_part_on_sphere(self):
        """With the driving noise zeroed, the field is a (1 + c(T-t)/2) a."""
        m = pg.sphere(3, 1.0)
        g = TimeGrid.with_times(0.5, 16, ())
        path = sample_path(m, g, 3)
        silent = pg.PathSample(
            g, path.positions, path.frames, np.zeros_like(path.increments), 3
        )
        a = np.array([1.0, 0.0, 0.0])
        field = linear_functional_gradient(a, silent, m)
        c = m.ricci_scalar
        want = a[None, :] * (1.0 + 0.5 * c * (0.5 - g.times[:16]))[:, None]
        np.testing.assert_allclose(field.values, want, atol=1e-14)

    def test_curvature_integral_linear_scaling(self):
        """E |C(w, s, tau) a|^2 grows linearly in s - tau, slope d-dependent."""
        m = pg.sphere(3, 1.0)
        T, n = 0.5, 64
        g = TimeGrid.with_times(T, n, ())
        a = np.array([1.0, 0.0, 0.0])
        inc = batch_increments(g, m.dim, seed=51, indices=range(20_000))
        w = np.cumsum(inc, axis=1)  # w at t_1..t_n, tau = 0
        kappa, d = 1.0, 3
        # C(w, s, 0) a = -kappa (<w_s, a> e_i - a_i w_s) per direction i
        wa = w @ a
        e_sq = np.zeros((n, d))
        for i in range(d):
            e = np.zeros(d)
            e[i] = 1.0
            vec = -kappa * (wa[:, :, None] * e[None, None, :] - a[i] * w)
            e_sq[:, i] = np.einsum("psd,psd->s", vec, vec) / inc.shape[0]
        ts = g.times[1:]
        for i in range(d):
            slope = float(np.sum(ts * e_sq[:, i]) / np.sum(ts * ts))
            want = kappa**2 * (1.0 + (d - 2) * a[i] ** 2)
            assert slope == pytest.approx(want, rel=0.05)
            resid = e_sq[:, i] - slope * ts
            assert np.max(np.abs(resid)) <= 0.05 * max(slope, 1.0) * ts[-1]

    @pytest.mark.parametrize(
        "m", [pg.sphere(3, 1.0), pg.hyperbolic(2, -1.0), pg.euclidean(2)], ids=lambda m: m.kind
    )
    def test_mirror_path_has_the_same_field(self, m):
        """The field is even in the increments: -inc gives it bit for bit."""
        g = TimeGrid.with_times(0.1, 48, ())
        inc = batch_increments(g, m.dim, seed=57, indices=range(64))
        a = np.zeros(m.dim)
        a[0] = 1.0
        plus = linear_gradient_batch(inc, g.times, a, m.kappa, m.ricci_scalar)
        minus = linear_gradient_batch(-inc, g.times, a, m.kappa, m.ricci_scalar)
        assert np.array_equal(plus, minus)

    def test_variance_of_linear_functional(self):
        """Var(F) = T for the driving-increment functional on any manifold."""
        m = pg.hyperbolic(2, -1.0)
        T, n_paths = 0.3, 50_000
        g = TimeGrid.with_times(T, 32, ())
        inc = batch_increments(g, m.dim, seed=53, indices=range(n_paths))
        a = np.array([0.6, 0.8])
        F = np.einsum("pkd,d->p", inc, a)
        var = F.var(ddof=1)
        stderr = var * math.sqrt(2.0 / (n_paths - 1))
        assert abs(var - T) <= 4.0 * stderr
