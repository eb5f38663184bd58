"""The numpy kernels are deterministic and record consistently."""

import hashlib
import importlib.util
import inspect
import re
from pathlib import Path

import numpy as np
import pytest

import pathgap as pg
from pathgap import _kernels_py as kern
from pathgap import estimators as est
from pathgap._backend import kernels
from pathgap.sampling import TimeGrid, batch_increments, sample_path, simulate_increments

from conftest import smooth_ricci


def _simulate(m, inc, record):
    base = m.basepoint()
    return kern.simulate_paths(m.kind, m.kappa, m.dim, base.position, base.frame, inc, record)


# sha256 of the walk outputs of walk_cases(), recorded from the einsum form of
# the walk before it became component-major
WALK_DIGEST = "4a4d3fb0d5331792976dc345049cef26e130d5c34e5a4642d4e911135bf2efed"


def walk_cases():
    """(manifold, increments, record) for the bit pin: S^2, S^3, H^2, H^3 and R^3,
    each with every slot recorded and with a subset."""
    g = TimeGrid.with_times(0.5, 48, ())
    full = np.arange(g.n_steps + 1, dtype=np.int64)
    sub = np.array([0, 5, 17, 48], dtype=np.int64)
    manifolds = [pg.sphere(2, 1.0), pg.sphere(3, 2.5), pg.hyperbolic(2, -1.0),
                 pg.hyperbolic(3, -0.7), pg.euclidean(3)]
    for seed, m in enumerate(manifolds, start=61):
        inc = batch_increments(g, m.dim, seed, range(37))
        for record in (full, sub):
            yield m, inc, record


class TestSimulateKernels:
    def test_digest(self):
        h = hashlib.sha256()
        for m, inc, record in walk_cases():
            base = m.basepoint()
            for out in kernels.simulate_paths(
                m.kind, m.kappa, m.dim, base.position, base.frame, inc, record
            ):
                h.update(np.ascontiguousarray(out, dtype="<f8").tobytes())
        assert h.hexdigest() == WALK_DIGEST

    @pytest.mark.parametrize("m", [pg.sphere(2, 1.0), pg.hyperbolic(3, -1.0)])
    def test_zero_steps_rest(self, m):
        """A path whose increment is zero at a step keeps its position and frame
        bit for bit there; the other paths of the batch are those paths run alone."""
        g = TimeGrid.with_times(0.5, 16, ())
        inc = batch_increments(g, m.dim, seed=13, indices=range(6)).copy()
        resting, zero_steps = [1, 4], [0, 3, 4, 9]
        moving = [0, 2, 3, 5]
        inc[np.ix_(resting, zero_steps)] = 0.0
        record = np.arange(g.n_steps + 1, dtype=np.int64)
        pos, frames = _simulate(m, inc, record)
        for k in zero_steps:
            np.testing.assert_array_equal(pos[resting, k + 1], pos[resting, k])
            np.testing.assert_array_equal(frames[resting, k + 1], frames[resting, k])
        moved = np.any(pos[resting, 1:] != pos[resting, :-1], axis=2)
        assert moved.sum() == len(resting) * (g.n_steps - len(zero_steps))
        alone_pos, alone_frames = _simulate(m, inc[moving], record)
        np.testing.assert_array_equal(pos[moving], alone_pos)
        np.testing.assert_array_equal(frames[moving], alone_frames)

    def test_increments_are_draws_last(self):
        """The walk's (n, d, P) view of the draws is the buffer itself, and each
        path's draws are the ones it gets drawn alone."""
        g = TimeGrid.with_times(0.5, 20, ())
        picks = [3, 4, 5, 70, 64, 200, 2]
        inc = batch_increments(g, 3, 5, picks)
        assert inc.shape == (len(picks), g.n_steps, 3)
        assert inc.transpose(1, 2, 0).flags.c_contiguous
        for r, i in enumerate(picks):
            np.testing.assert_array_equal(inc[r], batch_increments(g, 3, 5, [i])[0])

    @pytest.mark.parametrize(
        "kappa, seed, first_bad", [(-2.5, 1, 184), (-7.3, 1, 136), (-7.3, 2, 113)]
    )
    def test_refuses_to_leave_the_hyperboloid(self, kappa, seed, first_bad):
        """H^2, T = 8.82 on 200 steps runs out to where the squared arc or a
        frame row's square cancels to roundoff.  The walk raises at the first
        step that would take the root of a nonpositive square, names it and
        kappa, and warns of nothing (the suite turns RuntimeWarnings into errors)."""
        m = pg.hyperbolic(2, kappa)
        g = TimeGrid.with_times(8.82, 200, ())
        inc = batch_increments(g, m.dim, seed, [0])
        pos, frames = _simulate(m, inc[:, : first_bad - 1], np.array([first_bad - 1]))
        assert np.all(np.isfinite(pos)) and np.all(np.isfinite(frames))
        named = re.escape(f"leaves the hyperboloid at step {first_bad}: kappa = {kappa},")
        with pytest.raises(ValueError, match=named):
            sample_path(m, g, seed)

    def test_deterministic(self):
        m = pg.sphere(2, 1.0)
        g = TimeGrid.with_times(0.5, 64, ())
        inc = batch_increments(g, m.dim, seed=3, indices=range(4))
        record = np.arange(g.n_steps + 1, dtype=np.int64)
        a = _simulate(m, inc, record)
        b = _simulate(m, inc, record)
        np.testing.assert_array_equal(a[0], b[0])
        np.testing.assert_array_equal(a[1], b[1])

    def test_record_subset(self):
        m = pg.hyperbolic(2, -1.0)
        g = TimeGrid.with_times(0.5, 32, ())
        inc = batch_increments(g, m.dim, seed=5, indices=range(3))
        full = np.arange(g.n_steps + 1, dtype=np.int64)
        sub = np.array([0, 7, 32], dtype=np.int64)
        pos_f, fr_f = _simulate(m, inc, full)
        pos_s, fr_s = _simulate(m, inc, sub)
        np.testing.assert_array_equal(pos_s, pos_f[:, sub])
        np.testing.assert_array_equal(fr_s, fr_f[:, sub])


def _rk4_stage_form_triangle(ric_stages, dts):
    """Reference triangle: the four RK4 stages applied to the stacked columns."""

    def rk4_step(a0, a1, a2, q, h):
        k1 = -0.5 * (a0 @ q)
        k2 = -0.5 * (a1 @ (q + (0.5 * h) * k1))
        k3 = -0.5 * (a1 @ (q + (0.5 * h) * k2))
        k4 = -0.5 * (a2 @ (q + h * k3))
        return q + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)

    n, d = dts.shape[0], ric_stages.shape[2]
    out = np.empty(((n + 1) * (n + 2) // 2, d, d))
    out[0] = np.eye(d)
    cur = np.empty((n + 1, d, d))
    cur[0] = np.eye(d)
    for k in range(n):
        cur[: k + 1] = rk4_step(*ric_stages[k], cur[: k + 1], dts[k])
        cur[k + 1] = np.eye(d)
        base = (k + 1) * (k + 2) // 2
        out[base : base + k + 2] = cur[: k + 2]
    return out


class TestResolventKernels:
    @staticmethod
    def _stages(n, d, seed):
        import pathgap.gradients as gr

        m, cb = smooth_ricci(d, seed=seed)
        g = TimeGrid.with_times(1.0, n, ())
        return gr._stage_ricci(m, g), g.dts

    def test_column_matches_triangle(self):
        """Both references form the same products, bit for bit, from any start column."""
        for n, d, seed, j0 in [(48, 2, 59, 0), (64, 3, 19, 5)]:
            steps = kern.resolvent_steps(*self._stages(n, d, seed))
            tri = kern.resolvent_triangle(steps)
            idx = np.arange(j0, n + 1)
            col = kern.resolvent_column(steps, j0)
            np.testing.assert_array_equal(tri[idx * (idx + 1) // 2 + j0], col)

    @pytest.mark.parametrize("n,d,seed", [(48, 2, 59), (40, 3, 19)])
    def test_triangle_matches_stage_form(self, n, d, seed):
        """One step matrix per cell is the RK4 step, up to roundoff."""
        stages, dts = self._stages(n, d, seed)
        tri = kern.resolvent_triangle(kern.resolvent_steps(stages, dts))
        np.testing.assert_allclose(tri, _rk4_stage_form_triangle(stages, dts), rtol=0, atol=1e-13)


def test_perfbench_tracer_lookups_resolve():
    """The benchmark's tracer imports its layers, looks kernels up by name and
    reads the walk's increments by position, and its untraced runs time the
    first draw by patching ``estimators.batch_increments``; a rename here
    fails this test, not only a benchmark run."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    for layer in tracer.LAYERS:
        importlib.import_module("pathgap." + layer)
    for name in tracer.KERNELS:
        assert callable(getattr(kernels, name, None)), name
    assert callable(getattr(est, "batch_increments", None))
    assert callable(pg.backend_name)
    assert list(inspect.signature(kernels.simulate_paths).parameters)[5] == "increments"


def test_walk_receives_paths_steps_dims(monkeypatch):
    """The tracer counts walk path-steps as ``args[5].shape[0] * shape[1]``: the
    increments reach the kernel as (P, n, d)."""
    calls = []
    walk = kernels.simulate_paths

    def recorded(*args):
        calls.append(args)
        return walk(*args)

    monkeypatch.setattr(kernels, "simulate_paths", recorded)
    m = pg.sphere(3, 1.0)
    g = TimeGrid.with_times(0.5, 12, ())
    simulate_increments(m, g, batch_increments(g, m.dim, 3, range(5)))
    assert len(calls) == 1 and calls[0][5].shape == (5, 12, 3)
