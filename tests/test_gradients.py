"""Gradient machinery: pullbacks, damping, transforms; the linear functional's
prefix-sum algebra and the c = 0 pairwise energy, which live in estimators."""

import math

import numpy as np
import pytest

import pathgap as pg
from pathgap import estimators as est
from pathgap._backend import kernels
from pathgap.geometry import _project_tangent
from pathgap.gradients import CylindricalFunctional, resolvent_on_grid
from pathgap.sampling import TimeGrid, sample_path

from conftest import smooth_ricci
from reference import (
    GradientField,
    _damped_limits,
    _tilde_corrections,
    damped_gradient,
    damped_gradient_integral_form,
    damped_sweep,
    duality_defect,
    field_energy,
    field_l2_distance,
    frame_pullback_slots,
    index_of,
    resolvent,
    ricci_at_nodes,
    transform_pair,
    usual_gradient,
    whole_increments,
)


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


class TestCylindricalFunctional:
    @pytest.mark.parametrize(
        "ts", [(math.nan,), (0.2, math.nan), (0.1, math.inf)], ids=["nan", "late-nan", "inf"]
    )
    def test_non_finite_evaluation_time_refused(self, ts):
        """A NaN passes the strictly-increasing check, whose comparisons are all false."""
        with pytest.raises(ValueError, match="evaluation times must be finite"):
            CylindricalFunctional(ts, lambda pos: pos[:, 0, 0], lambda pos: pos)


class TestUsualGradient:
    def test_single_slot_indicator(self):
        m = pg.euclidean(2)
        g = TimeGrid.with_times(1.0, 32, ())
        path = sample_path(m, g, 3)
        a = np.array([0.6, 0.8])
        F = linear_flat_functional(a, 0.5)
        field = usual_gradient(F, path, m)
        k_half = index_of(g, 0.5)
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
        i = index_of(g, 0.5)
        grad_amb = _project_tangent(m, path.positions[i], b)
        assert np.linalg.norm(field.values[0]) == pytest.approx(
            np.linalg.norm(grad_amb), rel=1e-10
        )


def pairwise_energy(F, path, m):
    """integral |DF|^2 by the c = 0 pairwise closed form that the verifiers run."""
    idx, slots = frame_pullback_slots(F, path, m)
    return float(np.sum(slots @ slots.T * est.damped_kernel(path.grid.times[idx], 0.0)))


class TestCorrelatedNorm:
    def test_single_slot(self):
        m = pg.euclidean(2)
        g = TimeGrid.with_times(1.0, 16, ())
        path = sample_path(m, g, 3)
        a = np.array([1.0, 2.0])
        F = linear_flat_functional(a, 0.75)
        assert pairwise_energy(F, path, m) == pytest.approx(0.75 * 5.0, rel=1e-14)

    def test_matches_field_energy(self, rng):
        m = pg.sphere(2, 1.0)
        g = TimeGrid.with_times(1.0, 64, [0.3, 0.7])
        path = sample_path(m, g, 9)
        b1, b2 = rng.normal(size=3), rng.normal(size=3)
        F = linear_functional(m, (0.3, 0.7), [b1, b2])
        field = usual_gradient(F, path, m)
        assert pairwise_energy(F, path, m) == pytest.approx(field_energy(field), rel=1e-10)

    def test_constant_zero(self):
        m = pg.euclidean(3)
        g = TimeGrid.with_times(1.0, 8, ())
        path = sample_path(m, g, 3)
        assert pairwise_energy(constant_functional(3, 0.5), path, m) == 0.0


class TestDampedGradient:
    def test_flat_equals_usual(self):
        m = pg.euclidean(2)
        g = TimeGrid.with_times(1.0, 32, ())
        path = sample_path(m, g, 3)
        R = resolvent(path.grid, m, pg.CurvatureBounds(0.0, 0.0))
        F = linear_flat_functional(np.array([1.0, -1.0]), 0.5)
        du = usual_gradient(F, path, m)
        dd = damped_gradient(F, path, R, m)
        np.testing.assert_array_equal(du.values, dd.values)

    def test_scalar_damping_factor(self):
        m = pg.sphere(2, 1.0)  # ricci scalar 1
        g = TimeGrid.with_times(1.0, 32, ())
        path = sample_path(m, g, 7)
        R = resolvent(path.grid, m, m.curvature_window)
        b = np.array([0.2, -0.4, 0.1])
        F = linear_functional(m, (0.5,), [b])
        du = usual_gradient(F, path, m)
        dd = damped_gradient(F, path, R, m)
        j = index_of(g, 0.5)
        decay = np.exp(-0.5 * (g.times[j] - g.times[:j]))
        np.testing.assert_allclose(dd.values[:j], decay[:, None] * du.values[:j], rtol=1e-12)

    @pytest.mark.parametrize("n,budget", [(1024, 1e-6)])
    def test_two_formulas_agree(self, n, budget):
        m, cb = smooth_ricci(2, seed=31, amplitude=0.8)
        g = TimeGrid.with_times(1.0, n, [0.35, 0.8])
        path = sample_path(m, g, 11)
        R = resolvent(path.grid, m, cb)
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
        R = resolvent(path.grid, m, m.curvature_window)
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
            R = resolvent(path.grid, m, cb)
            return field_l2_distance(
                damped_gradient(F, path, R, m),
                damped_gradient_integral_form(F, path, R, m),
            )

        d512, d1024 = defect(512), defect(1024)
        assert d1024 <= d512 / 1.8


class TestDampedSweepOnField:
    """The damped transform of the linear functional's deterministic part is a.

    With h(tau) = 1 + c (T - tau)/2, g = h - (c/2) int_tau^T e^{-c(s - tau)/2} h(s) ds
    solves g' = -(c/2)(g - 1) backward from g(T) = 1, so g = 1.  Sampled at
    the left node of each cell the field is off by O(dt), so the sweep
    returns a to first order: the error halves with the step.
    """

    @pytest.mark.parametrize("T", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize(
        "m",
        [pg.sphere(2, 1.0), pg.sphere(3, 1.0), pg.hyperbolic(2, -1.0)],
        ids=lambda m: f"{m.kind}{m.dim}",
    )
    def test_returns_a_to_first_order(self, m, T):
        a = np.full(m.dim, 1.0 / np.sqrt(m.dim))
        c = m.ricci_scalar

        def error(n):
            g = TimeGrid.with_times(T, n, ())
            R = resolvent(g, m, m.curvature_window)
            field = (1.0 + 0.5 * c * (T - g.times[:-1]))[:, None] * a
            return np.max(np.abs(damped_sweep(field, R) - a))

        e128, e256 = error(128), error(256)
        assert e256 <= 3e-3
        assert 1.95 <= e128 / e256 <= 2.05


class TestTransformPair:
    def test_flat_identity(self):
        m = pg.euclidean(2)
        g = TimeGrid.with_times(1.0, 16, ())
        path = sample_path(m, g, 3)
        R = resolvent(path.grid, m, pg.CurvatureBounds(0.0, 0.0))
        v = GradientField(g, np.random.default_rng(0).normal(size=(16, 2)))
        tld, hat = transform_pair(v, path, R, m)
        np.testing.assert_array_equal(tld.values, v.values)
        np.testing.assert_array_equal(hat.values, v.values)

    def test_roundtrip(self):
        m, cb = smooth_ricci(2, seed=37, amplitude=0.5)
        g = TimeGrid.with_times(1.0, 1024, ())
        path = sample_path(m, g, 13)
        R = resolvent(path.grid, m, cb)
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
            R = resolvent(path.grid, m, m.curvature_window)
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
        R = resolvent(path.grid, m, cb)
        rng = np.random.default_rng(3)
        b1, b2 = rng.normal(size=2), rng.normal(size=2)
        F = linear_functional(m, (0.3, 0.65), [b1, b2])
        v = GradientField(g, rng.normal(size=(g.n_steps, 2)))
        assert duality_defect(F, v, path, R, m) <= 1e-6


def propagator_rows(R):
    """Rows Q_{t_i, t_j}, j = 0..i, of the reference triangle, one (i+1, d, d) stack per i."""
    tri = kernels.resolvent_triangle(R.steps)
    return [tri[i * (i + 1) // 2 : (i + 1) * (i + 2) // 2] for i in range(R.grid.n_steps + 1)]


def _damped_limits_by_rows(idx, slots, R):
    """Reference: each slot twisted by its whole propagator row Q_{t_j, t_k}, k = 0..j."""
    n, d = R.grid.n_steps, slots.shape[1]
    rows = propagator_rows(R)
    left, right = np.zeros((n, d)), np.zeros((n, d))
    for j, slot in zip(idx, slots):
        contrib = np.einsum("kab,a->kb", rows[j], slot)
        left[:j] += contrib[:j]
        right[:j] += contrib[1 : j + 1]
    return left, right


def _integral_form_by_columns(F, path, R, m):
    """Reference: the correction integral over column k, a trapezoid per cell."""
    usual = usual_gradient(F, path, m).values
    dts = path.grid.dts
    ric = ricci_at_nodes(m, path.grid)
    values = usual.copy()
    for k in range(path.grid.n_steps):
        # ric(t_i) Q_{t_i, t_k}
        w = np.einsum("iab,ibc->iac", ric[k:], kernels.resolvent_column(R.steps, k))
        cell = 0.5 * dts[k:, None, None] * (w[:-1] + w[1:])
        values[k] -= 0.5 * np.einsum("lba,lb->a", cell, usual[k:])
    return values


def _tilde_corrections_by_rows(v, R, ric):
    """Reference: the composite trapezoid over row k, (Q_{t_k, t_l} + Q_{t_k, t_l+1}) dt_l / 2."""
    n, d = v.values.shape
    rows = propagator_rows(R)
    corr = np.zeros((n + 1, d))
    for k in range(1, n + 1):
        row = rows[k]
        integ = np.einsum("l,lab,lb->a", 0.5 * v.grid.dts[:k], row[:k] + row[1:], v.values[:k])
        corr[k] = 0.5 * ric[k] @ integ
    return corr


class TestSweeps:
    """The O(n) sweeps over the per-cell steps against the row and column formulas."""

    @staticmethod
    def _case(kind):
        if kind == "synthetic":
            m, cb = smooth_ricci(2, seed=41, amplitude=0.8)
        else:
            m = pg.hyperbolic(2, -1.0)
            cb = m.curvature_window
        g = TimeGrid.with_times(1.0, 96, [0.0, 0.3, 0.65, 1.0])
        path = sample_path(m, g, 17)
        R = resolvent(path.grid, m, cb)
        rng = np.random.default_rng(5)
        ts = (0.0, 0.3, 0.65, 1.0)
        F = linear_functional(m, ts, rng.normal(size=(4, m.ambient_dim)))
        v = GradientField(g, rng.normal(size=(g.n_steps, 2)))
        return m, path, R, F, v

    @pytest.mark.parametrize("kind", ["synthetic", "hyperbolic"])
    def test_damped_limits_match_rows(self, kind):
        m, path, R, F, _ = self._case(kind)
        idx, slots = frame_pullback_slots(F, path, m)
        for got, want in zip(_damped_limits(idx, slots, R), _damped_limits_by_rows(idx, slots, R)):
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-13)

    @pytest.mark.parametrize("kind", ["synthetic", "hyperbolic"])
    def test_integral_form_matches_columns(self, kind):
        m, path, R, F, _ = self._case(kind)
        got = damped_gradient_integral_form(F, path, R, m).values
        np.testing.assert_allclose(got, _integral_form_by_columns(F, path, R, m), rtol=0, atol=1e-13)

    @pytest.mark.parametrize("kind", ["synthetic", "hyperbolic"])
    def test_tilde_trapezoid_matches_rows(self, kind):
        m, path, R, _, v = self._case(kind)
        ric = ricci_at_nodes(m, path.grid)
        np.testing.assert_allclose(
            _tilde_corrections(v, R, ric), _tilde_corrections_by_rows(v, R, ric), rtol=0, atol=1e-13
        )

    def test_ricci_is_read_once_per_grid(self):
        """Building the steps calls the Ricci callback once per node and
        midpoint; the gradient algebra reads the nodes back from the bundle."""
        m, path, _, F, v = self._case("synthetic")
        calls = []

        def counted(t):
            calls.append(t)
            return m.ricci_path(t)

        mc = pg.synthetic_ricci_path(2, counted)
        resolvent_on_grid(path.grid, mc, pg.CurvatureBounds(10.0, -10.0))
        assert len(calls) == 2 * path.grid.n_steps + 1
        R = resolvent(path.grid, mc, pg.CurvatureBounds(10.0, -10.0))
        calls.clear()
        tilde, hat = transform_pair(v, path, R, mc)
        transform_pair(tilde, path, R, mc)
        transform_pair(hat, path, R, mc)
        duality_defect(F, v, path, R, mc)
        damped_gradient(F, path, R, mc)
        damped_gradient_integral_form(F, path, R, mc)
        assert calls == []


class TestLinearFunctionalGradient:
    def test_curvature_integral_linear_scaling(self):
        """E |C(w, s, tau) a|^2 grows linearly in s - tau, slope d-dependent."""
        m = pg.sphere(3, 1.0)
        T, n = 0.5, 64
        g = TimeGrid.with_times(T, n, ())
        a = np.array([1.0, 0.0, 0.0])
        inc = whole_increments(g, m.dim, seed=51, indices=range(20_000))
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
        """The martingale part is even in the increments: -inc gives it bit for bit."""
        g = TimeGrid.with_times(0.1, 48, ())
        inc = whole_increments(g, m.dim, seed=57, indices=range(64))

        def parts(increments):
            """The martingale parts, each copied out of the workspace they share."""
            work = est._ChiWork(m.dim, g.n_steps, 64).carve(64)
            sums = est._prefix_sums(increments, work)
            return [p.copy() for p in est._martingale(sums, g.n_steps, work.rows)]

        assert np.array_equal(parts(inc), parts(-inc))

    def test_variance_of_linear_functional(self):
        """Var(F) = T for the driving-increment functional on any manifold."""
        m = pg.hyperbolic(2, -1.0)
        T, n_paths = 0.3, 50_000
        g = TimeGrid.with_times(T, 32, ())
        inc = whole_increments(g, m.dim, seed=53, indices=range(n_paths))
        a = np.array([0.6, 0.8])
        F = np.einsum("pkd,d->p", inc, a)
        var = F.var(ddof=1)
        stderr = var * math.sqrt(2.0 / (n_paths - 1))
        assert abs(var - T) <= 4.0 * stderr
