"""The numpy kernels are deterministic and record consistently."""

import hashlib
import importlib.util
import inspect
import pkgutil
import re
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import pathgap as pg
from pathgap import _kernels_py as kern
from pathgap import estimators as est
from pathgap._backend import kernels
from pathgap.geometry import ricci_matrix
from pathgap.sampling import TimeGrid, batch_increments, sample_path, simulate_increments

from conftest import smooth_ricci
from reference import ricci_at_nodes, whole_increments


def _simulate(m, inc, record):
    base = m.basepoint()
    return kern.simulate_paths(m.kind, m.kappa, m.dim, base.position, base.frame, inc, record)


def _step_outcome(step, kappa):
    """One step's result, or the rule its ValueError names; a warning fails."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            return step()
        except ValueError as exc:
            message = str(exc).replace("the walk's step 1", "the step")
            rule, named = message.split(": kappa = ")
            assert named.startswith(f"{kappa!r}, step length ")
            return rule


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
        inc = whole_increments(g, m.dim, seed, range(37))
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
        inc = whole_increments(g, m.dim, seed=13, indices=range(6)).copy()
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

    @pytest.mark.parametrize(
        "m", [pg.sphere(2, 1.0), pg.sphere(3, 2.5), pg.hyperbolic(2, -1.0)], ids=["S2", "S3", "H2"]
    )
    def test_inputs_are_left_unchanged(self, m):
        """The step works in place on its own arrays only: the increments (the
        walk reads them through a view), start position and frame keep their bytes."""
        g = TimeGrid.with_times(0.5, 24, ())
        inc = whole_increments(g, m.dim, seed=17, indices=range(9))
        inc[2, 5] = 0.0  # a resting path keeps the copying branch in the run
        base = m.basepoint()
        start_pos, start_frame = base.position.copy(), base.frame.copy()
        before = [a.tobytes() for a in (inc, start_pos, start_frame)]
        kernels.simulate_paths(m.kind, m.kappa, m.dim, start_pos, start_frame, inc,
                               np.arange(g.n_steps + 1, dtype=np.int64))
        assert [a.tobytes() for a in (inc, start_pos, start_frame)] == before

    def test_increments_are_draws_last(self):
        """The walk reads each (s, d, P) slab of a stream as it is, contiguous,
        and each path's draws are the ones it gets drawn alone."""
        g = TimeGrid.with_times(0.5, 20, ())
        picks = range(60, 70)
        stream = batch_increments(g, 3, 5, picks)
        assert stream.shape == (len(picks), g.n_steps, 3)
        slabs = []
        for slab in stream:
            assert slab.shape[1:] == (3, len(picks)) and slab.flags.c_contiguous
            slabs.append(slab.copy())
        inc = np.concatenate(slabs).transpose(2, 0, 1)
        for r, i in enumerate(picks):
            np.testing.assert_array_equal(inc[r], whole_increments(g, 3, 5, range(i, i + 1))[0])

    @pytest.mark.parametrize(
        "kappa, seed, first_bad", [(-2.5, 1, 142), (-7.3, 1, 51), (-7.3, 2, 86)]
    )
    def test_refuses_to_leave_the_hyperboloid(self, kappa, seed, first_bad):
        """H^2, T = 8.82 on 200 steps runs out to where the metric squares of
        the position and the frame rows cancel to roundoff.  The walk raises at
        the first step that may carry a coordinate past 2**17 radii, names it
        and kappa, and warns of nothing (the suite turns RuntimeWarnings into
        errors)."""
        m = pg.hyperbolic(2, kappa)
        g = TimeGrid.with_times(8.82, 200, ())
        inc = whole_increments(g, m.dim, seed, range(1))
        pos, frames = _simulate(m, inc[:, : first_bad - 1], np.array([first_bad - 1]))
        assert np.all(np.isfinite(pos)) and np.all(np.isfinite(frames))
        named = re.escape(f"step {first_bad} boosts the hyperboloid past 2**17 radii")
        named += f".*: kappa = {re.escape(repr(kappa))},"
        with pytest.raises(ValueError, match=named):
            sample_path(m, g, seed)
        with pytest.raises(ValueError, match=named):  # the step's slab comes late in a stream
            simulate_increments(m, g, batch_increments(g, m.dim, seed, range(1)))

    def test_refuses_a_boost_past_the_float_range_without_warning(self):
        """One step of about 750 at kappa = -1 would overflow cosh, sinh and the
        position's square; the walk names the step before computing any of them."""
        m = pg.hyperbolic(2, -1.0)
        named = re.escape("step 1 boosts the hyperboloid") + ".*kappa = -1.0, step length"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=named):
                sample_path(m, TimeGrid.with_times(1e6, 1, ()), 1)

    @pytest.mark.parametrize("path_index", range(1, 6))
    def test_refuses_an_overflowing_step_length_without_warning(self, path_index):
        """In one step of T = 1.7e308 the squared step length overflows to inf;
        the walk refuses it as it does a nonpositive square, with no warning."""
        m = pg.hyperbolic(2, -1.0)
        named = re.escape("step 1 leaves the hyperboloid: kappa = -1.0, step length inf;")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=named):
                sample_path(m, TimeGrid.with_times(1.7e308, 1, ()), 1, path_index)

    @pytest.mark.parametrize("kappa", [0.5, 1.0, 3.0, -0.5, -1.0, -7.3])
    def test_refuses_the_steps_geodesic_step_refuses(self, kappa):
        """One step from the basepoint through geodesic_step and through the
        kernel: both raise a ValueError naming kappa, or both return, with no
        warning.  The lengths run from 1e-3 to 1e200, one per decade, and to
        each side of the sphere's 2**26-radian turn and of the boost to 2**17
        radii from the basepoint, an angle of 17 log 2.  A refused step names
        the same rule both ways; where both return a step of length <= 1, they
        agree to 1e-12."""
        m = pg.sphere(2, kappa) if kappa > 0 else pg.hyperbolic(2, kappa)
        base = m.basepoint()
        radius = 1.0 / np.sqrt(abs(kappa))
        edge = (2.0**26 if kappa > 0 else 17 * np.log(2.0)) * radius
        rules = []
        for length in [*np.logspace(-3.0, 200.0, 204), edge * (1.0 - 1e-9), edge * (1.0 + 1e-9)]:
            v = length * np.array([0.6, 0.8])
            ref = _step_outcome(lambda: pg.geodesic_step(m, base, v), kappa)
            out = _step_outcome(lambda: kernels.simulate_paths(
                m.kind, kappa, m.dim, base.position, base.frame, v[None, None], np.array([1])
            ), kappa)
            if isinstance(ref, str) or isinstance(out, str):
                assert ref == out, length
            elif length <= 1.0:
                np.testing.assert_allclose(out[0][0, 0], ref.position, atol=1e-12)
                np.testing.assert_allclose(out[1][0, 0], ref.frame, atol=1e-12)
            rules.append(ref if isinstance(ref, str) else "")
        edge_rule = "turns the sphere" if kappa > 0 else "boosts the hyperboloid"
        assert edge_rule in rules[-1] and rules[-2] == ""

    @pytest.mark.parametrize("kappa", [-0.5, -1.0, -7.3])
    def test_dense_angles_refuse_or_agree(self, kappa):
        """One step from the basepoint at every hyperbolic angle 1, 1.25, ..., 350,
        through geodesic_step and through the kernel: both refuse with the same
        rule, or both return the same step.  The metric squares sum in a
        different order each way and round to (x0/r)**2 2**-53 of themselves, so
        positions and frames agree to 1e-12 until x0/r = cosh(angle) reaches
        about 30, and to (x0/r)**2 2**-49 of their size beyond."""
        m = pg.hyperbolic(2, kappa)
        base = m.basepoint()
        radius = 1.0 / np.sqrt(-kappa)
        returned = 0
        for theta in np.arange(4, 1401) / 4:
            v = theta * radius * np.array([0.6, 0.8])
            ref = _step_outcome(lambda: pg.geodesic_step(m, base, v), kappa)
            out = _step_outcome(lambda: kernels.simulate_paths(
                m.kind, kappa, m.dim, base.position, base.frame, v[None, None], np.array([1])
            ), kappa)
            if isinstance(ref, str) or isinstance(out, str):
                assert ref == out, theta
                continue
            returned += 1
            tol = max(1e-12, np.cosh(theta) ** 2 * 2.0**-49)
            for got, want in ((out[0][0, 0], ref.position), (out[1][0, 0], ref.frame)):
                assert np.max(np.abs(got - want)) <= tol * np.max(np.abs(want)), theta
        assert returned == 44  # the angles up to 11.75 < 17 log 2

    def test_deterministic(self):
        m = pg.sphere(2, 1.0)
        g = TimeGrid.with_times(0.5, 64, ())
        inc = whole_increments(g, m.dim, seed=3, indices=range(4))
        record = np.arange(g.n_steps + 1, dtype=np.int64)
        a = _simulate(m, inc, record)
        b = _simulate(m, inc, record)
        np.testing.assert_array_equal(a[0], b[0])
        np.testing.assert_array_equal(a[1], b[1])

    def test_record_subset(self):
        m = pg.hyperbolic(2, -1.0)
        g = TimeGrid.with_times(0.5, 32, ())
        inc = whole_increments(g, m.dim, seed=5, indices=range(3))
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
    def _ricci(n, d, seed):
        """A smooth Ricci path at the nodes and midpoints of n uniform cells on
        [0, 1], and the cell widths: the arguments of ``resolvent_steps``."""
        m, _ = smooth_ricci(d, seed=seed)
        g = TimeGrid.with_times(1.0, n, ())
        nodes = ricci_at_nodes(m, g)
        mids = ricci_matrix(m, 0.5 * (g.times[:-1] + g.times[1:]))
        return nodes, mids, g.dts

    def test_column_matches_triangle(self):
        """Both references form the same products, bit for bit, from any start column."""
        for n, d, seed, j0 in [(48, 2, 59, 0), (64, 3, 19, 5)]:
            steps = kern.resolvent_steps(*self._ricci(n, d, seed))
            tri = kern.resolvent_triangle(steps)
            idx = np.arange(j0, n + 1)
            col = kern.resolvent_column(steps, j0)
            np.testing.assert_array_equal(tri[idx * (idx + 1) // 2 + j0], col)

    @pytest.mark.parametrize("n,d,seed", [(48, 2, 59), (40, 3, 19)])
    def test_triangle_matches_stage_form(self, n, d, seed):
        """One step matrix per cell is the RK4 step, up to roundoff."""
        nodes, mids, dts = self._ricci(n, d, seed)
        tri = kern.resolvent_triangle(kern.resolvent_steps(nodes, mids, dts))
        stages = np.stack([nodes[:-1], mids, nodes[1:]], axis=1)  # cell k: t_k, midpoint, t_{k+1}
        np.testing.assert_allclose(tri, _rk4_stage_form_triangle(stages, dts), rtol=0, atol=1e-13)


def test_every_exported_name_resolves():
    """Each name in ``pathgap.__all__`` and in every submodule's ``__all__`` is
    an attribute of its module, so a stale entry fails here, not only a
    star import."""
    modules = [pg] + [
        importlib.import_module(f"pathgap.{mod.name}") for mod in pkgutil.iter_modules(pg.__path__)
    ]
    stale = [
        f"{mod.__name__}.{name}"
        for mod in modules
        for name in getattr(mod, "__all__", ())
        if not hasattr(mod, name)
    ]
    assert stale == []
    assert sum(hasattr(mod, "__all__") for mod in modules) >= 6


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


def test_perfbench_workloads_run_in_process(monkeypatch):
    """Every benchmark workload runs at its smoke size in process and passes its
    own check.  That pins the call forms the benchmark uses (the four-argument
    ``random_two_point_family``, the time-last Ricci callback, ``--threads 1`` and
    the closed-form calls) in this suite, not only in a benchmark run."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    # registered first: dataclasses look their module up while they are built
    monkeypatch.setitem(sys.modules, spec.name, workloads)
    spec.loader.exec_module(workloads)
    assert len(workloads.WORKLOADS) == 5
    for name, w in workloads.WORKLOADS.items():
        code, out, _ = w.run(w.smoke, 1, lambda: None)
        assert w.check(code, out) == [], name


def test_walk_receives_paths_steps_dims(monkeypatch):
    """The tracer counts walk path-steps as ``args[5].shape[0] * shape[1]``: the
    increments reach the kernel as (P, n, d), a whole array or a stream of
    that shape.  Over a verifier run of more steps than one slab, the counts
    add up to paths x steps: the chunks and the witness replay."""
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

    calls.clear()
    m = pg.sphere(2, 1.0)
    F = est.exponential_functional(m, np.array([0.6, 0.0, 0.8]), 0.5)
    est.verify_lsi(m, F, 0.5, 147, 300, 3)
    assert sum(c[5].shape[0] * c[5].shape[1] for c in calls) == 300 * 147
    calls.clear()
    family = est.random_two_point_family(m, 1.0, 2, seed=3)
    est.verify_theorem1(m, m.curvature_window, family, 1.0, 147, 1100, 3)
    n_steps = TimeGrid.with_times(1.0, 147, [t for F in family for t in F.eval_times]).n_steps
    assert n_steps > 147 and len(calls) == 3  # two chunks and the replay
    assert sum(c[5].shape[0] * c[5].shape[1] for c in calls) == (1100 + 1) * n_steps
