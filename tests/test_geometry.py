"""Constant-curvature geometry: Ricci data, geodesic stepping, and the
reference curvature action."""

import hashlib
import re
import warnings

import numpy as np
import pytest

import pathgap as pg
from pathgap.geometry import (
    FramePoint,
    _project_tangent,
    _renormalize,
    geodesic_step,
    ricci_matrix,
)

from conftest import constant_ricci
from reference import curvature_action, frame_orthonormality_defect, surface_defect


class TestModelManifold:
    def test_kind_constraints(self):
        with pytest.raises(ValueError):
            pg.sphere(2, -1.0)
        with pytest.raises(ValueError):
            pg.hyperbolic(2, 1.0)
        with pytest.raises(ValueError):
            pg.ModelManifold("euclidean", 2, 0.5)
        with pytest.raises(ValueError):
            pg.ModelManifold("synthetic", 2)
        with pytest.raises(ValueError):
            pg.euclidean(1)

    def test_curvature_window(self):
        m = pg.sphere(3, 1.0)
        w = m.curvature_window
        assert w.k1 == 2.0 and w.k2 == 2.0
        m = pg.hyperbolic(2, -1.0)
        w = m.curvature_window
        assert w.k1 == 1.0 and w.k2 == -1.0

    def test_basepoints_on_surface(self):
        for m in (pg.euclidean(3), pg.sphere(3, 2.0), pg.hyperbolic(2, -0.5)):
            fp = m.basepoint()
            assert surface_defect(m, fp) < 1e-14
            assert frame_orthonormality_defect(m, fp) < 1e-14


class TestRicciMatrix:
    def test_euclidean_zero(self):
        m = pg.euclidean(3)
        assert np.array_equal(ricci_matrix(m, 0.3), np.zeros((3, 3)))

    def test_unit_sphere_d3(self):
        m = pg.sphere(3, 1.0)
        np.testing.assert_allclose(ricci_matrix(m, 0.0), 2.0 * np.eye(3), atol=1e-15)

    def test_synthetic_passthrough(self):
        mat = lambda ts: np.array([[np.sin(ts), np.zeros_like(ts)], [np.zeros_like(ts), 2.0 * ts]])
        m = pg.synthetic_ricci_path(2, mat)
        np.testing.assert_array_equal(ricci_matrix(m, 0.7), np.diag([np.sin(0.7), 1.4]))

    @pytest.mark.parametrize("kind", ["synthetic", "sphere"])
    def test_times_shape_leads(self, kind):
        """A scalar time gives (d, d), n times (n, d, d) and an (a, b) array
        (a, b, d, d): the same matrices, read in one callback call."""
        calls = []

        def mat(ts):
            calls.append(ts.shape)
            return np.array([[np.sin(ts), np.cos(ts)], [-np.cos(ts), 2.0 * ts]])

        m = pg.synthetic_ricci_path(2, mat) if kind == "synthetic" else pg.sphere(2, 1.5)
        ts = np.linspace(0.0, 1.0, 6).reshape(2, 3)
        one = np.array([ricci_matrix(m, t) for t in ts.ravel()])
        assert one.shape == (6, 2, 2)
        np.testing.assert_array_equal(ricci_matrix(m, ts.ravel()), one)
        np.testing.assert_array_equal(ricci_matrix(m, ts), one.reshape(2, 3, 2, 2))
        if kind == "synthetic":
            assert calls == [(1,)] * 6 + [(6,), (6,)]
        else:
            np.testing.assert_array_equal(one, np.broadcast_to(1.5 * np.eye(2), (6, 2, 2)))

    @pytest.mark.parametrize(
        "returned", [lambda ts: np.ones((ts.size, 2, 2)), lambda ts: np.eye(2), lambda ts: 1.0]
    )
    def test_other_shapes_refused(self, returned):
        """Only time last is read: (n, d, d), (d, d) and a scalar name the
        (d, d, n) the callback must return."""
        m = pg.synthetic_ricci_path(2, returned)
        with pytest.raises(ValueError, match=re.escape("must return (d, d, n) = (2, 2, 3)")):
            ricci_matrix(m, np.array([0.0, 0.5, 1.0]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_refused_by_its_first_time(self, bad):
        def mat(ts):
            out = constant_ricci(np.eye(2))(ts)
            out[1, 0, ts > 0.5] = bad
            return out

        m = pg.synthetic_ricci_path(2, mat)
        with pytest.raises(ValueError, match=r"not finite at t = 0\.75$"):
            ricci_matrix(m, np.array([1.0, 0.25, 0.75, 0.5]))

    def test_contraction_identity(self):
        """Summing the curvature action over a basis recovers -Ric."""
        for m in (pg.sphere(3, 1.5), pg.hyperbolic(2, -0.7), pg.euclidean(2)):
            d = m.dim
            a = np.random.default_rng(1).normal(size=d)
            total = np.zeros(d)
            for i in range(d):
                e = np.zeros(d)
                e[i] = 1.0
                total += curvature_action(m, e, a) @ e
            np.testing.assert_allclose(total, -ricci_matrix(m, 0.0) @ a, atol=1e-12)


class TestCurvatureAction:
    def test_parallel_vectors_vanish(self):
        m = pg.sphere(2, 1.0)
        a = np.array([0.3, -0.4])
        np.testing.assert_allclose(curvature_action(m, a, 2.0 * a), 0.0, atol=1e-15)

    def test_euclidean_zero(self):
        m = pg.euclidean(2)
        out = curvature_action(m, np.array([1.0, 0.0]), np.array([0.0, 1.0]))
        np.testing.assert_array_equal(out, np.zeros((2, 2)))

    def test_antisymmetry(self, rng):
        m = pg.hyperbolic(3, -2.0)
        a, b = rng.normal(size=3), rng.normal(size=3)
        np.testing.assert_array_equal(
            curvature_action(m, a, b), -curvature_action(m, b, a)
        )

    def test_synthetic_unsupported(self):
        m = pg.synthetic_ricci_path(2, constant_ricci(np.eye(2)))
        with pytest.raises(ValueError):
            curvature_action(m, np.ones(2), np.ones(2))


class TestGeodesicStep:
    def test_zero_velocity_fixed_point(self):
        for m in (pg.euclidean(2), pg.sphere(2, 1.0), pg.hyperbolic(2, -1.0)):
            fp = m.basepoint()
            out = geodesic_step(m, fp, np.zeros(m.dim), 1.0)
            np.testing.assert_array_equal(out.position, fp.position)
            np.testing.assert_array_equal(out.frame, fp.frame)

    def test_euclidean_translation(self):
        m = pg.euclidean(3)
        fp = m.basepoint()
        v = np.array([0.5, -1.0, 2.0])
        out = geodesic_step(m, fp, v, 0.25)
        np.testing.assert_allclose(out.position, 0.25 * v, atol=1e-15)
        np.testing.assert_array_equal(out.frame, fp.frame)

    @pytest.mark.parametrize(
        "m", [pg.sphere(2, 1.0), pg.sphere(3, 2.0), pg.hyperbolic(2, -1.0), pg.hyperbolic(3, -0.5)]
    )
    def test_reversibility(self, m, rng):
        """Step by v, then by -v in the transported frame: back to start."""
        fp = m.basepoint()
        v = rng.normal(size=m.dim) * 0.7
        mid = geodesic_step(m, fp, v, 1.0)
        back = geodesic_step(m, mid, -v, 1.0)
        np.testing.assert_allclose(back.position, fp.position, atol=1e-12)
        np.testing.assert_allclose(back.frame, fp.frame, atol=1e-12)

    @pytest.mark.parametrize("m", [pg.sphere(2, 1.0), pg.hyperbolic(2, -1.0)])
    def test_isometry_drift_long_walk(self, m, rng):
        """1e4 renormalized steps keep frames orthonormal and on-surface."""
        fp = m.basepoint()
        for _ in range(10_000):
            fp = geodesic_step(m, fp, rng.normal(size=m.dim) * 0.01, 1.0)
            # spot checks are cheap enough to run every step
        assert frame_orthonormality_defect(m, fp) < 1e-10
        assert surface_defect(m, fp) < 1e-10

    @pytest.mark.parametrize("kappa,last_step", [(-2.5, 96), (-7.3, 48)])
    def test_refuses_to_leave_the_hyperboloid(self, kappa, last_step):
        """200 steps of 0.21 N(0, I) would run out to |x| near 3e7, where <x, x>
        and the frame's squares are roundoff: the first step that may pass
        2**17 radii raises, and none returns a NaN."""
        m = pg.hyperbolic(2, kappa)
        rng = np.random.default_rng(20)
        fp = m.basepoint()
        for _ in range(last_step):
            fp = geodesic_step(m, fp, 0.21 * rng.normal(size=2), 1.0)
        assert np.all(np.isfinite(fp.position))
        named = re.escape("boosts the hyperboloid past 2**17 radii") + f".*: kappa = {kappa}"
        with pytest.raises(ValueError, match=named):
            geodesic_step(m, fp, 0.21 * rng.normal(size=2), 1.0)

    def test_refuses_a_boost_past_the_float_range_without_warning(self):
        """A step of 800 from the basepoint at kappa = -1 would overflow cosh and
        sinh; it raises before computing them."""
        m = pg.hyperbolic(2, -1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="boosts.*kappa = -1.0, step length 800.0;"):
                geodesic_step(m, m.basepoint(), np.array([800.0, 0.0]))

    @pytest.mark.parametrize(
        "m, v, named",
        [
            # the squared length overflows: inf is refused like a square that is roundoff
            (pg.hyperbolic(2, -1.0), [1e200, 0.0],
             "leaves the hyperboloid: kappa = -1.0, step length inf;"),
            # the angle rounds by theta * 2**-52, so its sine and cosine are roundoff
            (pg.sphere(2, 1.0), [1e17, 0.0],
             "turns the sphere past 2**26 radians, where sine and cosine are roundoff: "
             "kappa = 1.0, step length 1e+17;"),
        ],
        ids=["H2-overflow", "S2-turn"],
    )
    def test_refuses_what_the_walk_refuses_without_warning(self, m, v, named):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=re.escape(named)):
                geodesic_step(m, m.basepoint(), np.array(v))

    def test_sphere_quarter_turn(self):
        """A quarter great circle from the pole lands on the equator with the
        frame rotated into the radial direction."""
        m = pg.sphere(2, 1.0)
        fp = m.basepoint()  # north pole (0, 0, 1), frame rows e_x, e_y
        v = np.array([np.pi / 2, 0.0])
        out = geodesic_step(m, fp, v, 1.0)
        np.testing.assert_allclose(out.position, [1.0, 0.0, 0.0], atol=1e-12)
        # transported e_x points along -z, e_y unchanged
        np.testing.assert_allclose(out.frame[0], [0.0, 0.0, -1.0], atol=1e-12)
        np.testing.assert_allclose(out.frame[1], [0.0, 1.0, 0.0], atol=1e-12)


class TestFrameIndependence:
    def test_ricci_and_action_spectrum_invariant(self, rng):
        """Rotating the frame leaves ricci and the action spectrum unchanged."""
        m = pg.sphere(3, 1.3)
        theta = 0.77
        rot = np.array(
            [
                [np.cos(theta), -np.sin(theta), 0.0],
                [np.sin(theta), np.cos(theta), 0.0],
                [0.0, 0.0, 1.0],
            ]
        )
        a, b = rng.normal(size=3), rng.normal(size=3)
        base = curvature_action(m, a, b)
        rotated = curvature_action(m, rot @ a, rot @ b)
        np.testing.assert_allclose(
            np.sort(np.abs(np.linalg.eigvals(rotated))),
            np.sort(np.abs(np.linalg.eigvals(base))),
            atol=1e-12,
        )
        np.testing.assert_allclose(ricci_matrix(m, 0.0), rot @ ricci_matrix(m, 0.0) @ rot.T, atol=1e-12)


# sha256 of geometry_values() over pin_manifolds(), recorded before the sphere
# and the hyperboloid shared one signed-curvature code path
GEOMETRY_DIGEST = "6e90f4eea9ff85a429c3f223ace1d3aa45b9fb1029c7d93a788b0d72c9ea8175"


def pin_manifolds():
    """S^2 and S^3 at four curvatures, H^2 and H^3 at four, R^3 and a synthetic path."""
    ms = [pg.sphere(d, k) for d in (2, 3) for k in (0.5, 1.0, 3.0, 7.3)]
    ms += [pg.hyperbolic(d, k) for d in (2, 3) for k in (-0.5, -1.0, -2.5, -7.3)]
    return ms + [pg.euclidean(3), pg.synthetic_ricci_path(2, _diag_one_t)]


def _diag_one_t(ts):
    """diag(1, t) at each time, (2, 2, n)."""
    return np.array([[np.ones_like(ts), np.zeros_like(ts)], [np.zeros_like(ts), ts]])


def geometry_values(m, rng):
    """Every array the five surface functions return along a 200-step walk.

    The step scale shrinks with |kappa|: at a fixed 0.21 the hyperboloid
    walks at kappa = -2.5 and -7.3 run out to positions near 5e7, where
    <x, x> cancels and the step raises ValueError.
    """
    fp = m.basepoint()
    out = [fp.position, fp.frame, [surface_defect(m, fp)]]
    scale = 0.21 / np.sqrt(max(abs(m.kappa), 1.0))
    positions = []
    for _ in range(200):
        fp = geodesic_step(m, fp, scale * rng.normal(size=m.dim), 1.0)
        vec = rng.normal(size=m.ambient_dim)
        out += [fp.position, fp.frame, [surface_defect(m, fp)], _project_tangent(m, fp.position, vec)]
        positions.append(fp.position)
    stack = np.array(positions)
    out.append(_project_tangent(m, stack, rng.normal(size=stack.shape)))
    out.append(_project_tangent(m, stack, rng.normal(size=m.ambient_dim)))
    off = FramePoint(fp.position * 1.001, fp.frame + 1e-3 * rng.normal(size=fp.frame.shape))
    out.append([surface_defect(m, off)])
    if m.kappa:
        out += list(_renormalize(m, off.position, off.frame))
    return out


class TestPinnedBits:
    def test_digest(self):
        h = hashlib.sha256()
        for seed, m in enumerate(pin_manifolds(), start=20):
            for a in geometry_values(m, np.random.default_rng(seed)):
                h.update(np.ascontiguousarray(a, dtype="<f8").tobytes())
        assert h.hexdigest() == GEOMETRY_DIGEST
